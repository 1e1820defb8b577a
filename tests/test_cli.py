"""CLI surface: every subcommand over the bundled demo instance."""

import hashlib
import io
import json
import random

import pytest
from click.testing import CliRunner

from cocycle_forge.cli import main
from cocycle_forge.instances import (
    diamond_demo_instance, instance_to_json, load_instance, parse_instance,
    save_instance,
)
from cocycle_forge.cochain import TwoCochain
from cocycle_forge.gauge import act_gauge
from cocycle_forge.errors import InstanceFileInvalid
from cocycle_forge.instances import Instance
from cocycle_forge.scalars import RingAuto, ScalarDomain
from cocycle_forge.semigroup import SquareFreeSemigroup

from conftest import (
    RP2_6, TORUS_7, face_poset, make_triangle, random_gauge, random_twist, shapes_and_domains,
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    save_instance(path, diamond_demo_instance())
    return str(path)


@pytest.fixture()
def trivial_file(tmp_path):
    inst = diamond_demo_instance()
    data = instance_to_json(inst)
    data["cocycle"] = {}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(data))
    return str(path)


def run_json(runner, args):
    result = runner.invoke(main, ["--output", "json"] + args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_instance_round_trip(tmp_path):
    # the demo, and a seeded random twist on every shape and domain
    rng = random.Random("instance-round-trip")
    path = tmp_path / "x.json"
    for inst in [diamond_demo_instance()] + [Instance(dom, sg, random_twist(sg, dom, rng))
                                              for sg, dom in shapes_and_domains()]:
        save_instance(path, inst)
        again = load_instance(path)
        assert again.domain == inst.domain
        assert again.sg == inst.sg
        assert again.cocycle == inst.cocycle


def test_save_instance_writes_what_json_dump_wrote(tmp_path, rng):
    # one write of the whole text, byte-identical to streaming json.dump
    demo = diamond_demo_instance()
    quat = ScalarDomain.quaternion()
    tri = make_triangle()
    moved = act_gauge(random_gauge(tri, quat, rng), TwoCochain.trivial(tri, quat))
    for inst in (demo, Instance(quat, tri, moved)):
        streamed = io.StringIO()
        json.dump(instance_to_json(inst), streamed, indent=2, sort_keys=True)
        path = tmp_path / "x.json"
        save_instance(path, inst)
        assert path.read_bytes() == (streamed.getvalue() + "\n").encode()


def test_validate(runner, demo_file):
    payload = run_json(runner, ["validate", demo_file])
    assert payload["ok"] and payload["normal"]
    assert payload["elements"] == 8


def test_validate_bad_json(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["--output", "json", "validate", str(path)])
    assert result.exit_code == 2
    payload = json.loads(result.output)
    assert not payload["ok"]
    assert "line" in payload["errors"][0]["message"]


def test_parse_errors_carry_pointers():
    bad = {
        "division_ring": {"kind": "nonsense"},
        "semigroup": {"idempotents": ["e1"],
                      "elements": [{"name": "a", "src": "e1"}]},
    }
    with pytest.raises(InstanceFileInvalid) as exc:
        parse_instance(bad)
    pointers = {p for p, _ in exc.value.issues}
    assert "/division_ring" in pointers
    assert "/semigroup/elements/0" in pointers


MALFORMED = [
    pytest.param(lambda d: d.update(cocycle=[1]), "/cocycle", id="cocycle-list"),
    pytest.param(lambda d: d.update(division_ring=[1]), "/division_ring",
                 id="division-ring-list"),
    pytest.param(lambda d: d.update(semigroup={"idempotents": ["e1"], "elements": 5}),
                 "/semigroup/elements", id="elements-int"),
    pytest.param(lambda d: d["semigroup"].update(products=5), "/semigroup/products",
                 id="products-int"),
    pytest.param(lambda d: d["semigroup"]["idempotents"].__setitem__(0, ["e1"]),
                 "/semigroup/idempotents/0", id="idempotent-name-list"),
    pytest.param(lambda d: d["semigroup"]["elements"][0].update(name=["x"]),
                 "/semigroup/elements/0", id="element-name-list"),
    pytest.param(lambda d: d.update(
        division_ring={"kind": "rational"},
        cocycle={"xi": [{"left": "e1", "right": "s12", "value": "1/0"}]}),
        "/cocycle", id="rational-xi-zero-denominator"),
    pytest.param(lambda d: d.update(
        division_ring={"kind": "rational_quaternion"},
        cocycle={"xi": [{"left": "e1", "right": "s12",
                         "value": ["1/0", "0", "0", "0"]}]}),
        "/cocycle", id="quaternion-xi-zero-denominator"),
    pytest.param(lambda d: d.update(division_ring={"kind": "rational"}),
                 "/cocycle", id="frobenius-over-rationals"),
    pytest.param(lambda d: d.update(
        division_ring={"kind": "rational_quaternion"},
        cocycle={"alpha": [{"on": "s34", "auto": {"inner": ["0", "0", "0", "0"]}}]}),
        "/cocycle", id="quaternion-inner-by-zero"),
    pytest.param(lambda d: d["cocycle"]["alpha"][0].update(auto={"frobenius": 1.5}),
                 "/cocycle", id="frobenius-float"),
    pytest.param(lambda d: d["cocycle"]["alpha"][0].update(auto={"frobenius": "1"}),
                 "/cocycle", id="frobenius-string"),
    pytest.param(lambda d: d["cocycle"]["alpha"].extend(
        [{"on": "s12", "auto": {"frobenius": 1}}, {"on": "s12", "auto": "identity"}]),
        "/cocycle", id="alpha-twice"),
    pytest.param(lambda d: d["cocycle"].update(
        xi=[{"left": "e1", "right": "s12", "value": [1, 0]},
            {"left": "e1", "right": "s12", "value": [0, 1]}]),
        "/cocycle", id="xi-twice"),
    pytest.param(lambda d: d.update(division_ring={"kind": "finite_field", "p": True, "k": 1}),
                 "/division_ring", id="p-bool"),
    pytest.param(lambda d: d.update(division_ring={"kind": "finite_field", "p": 2, "k": True}),
                 "/division_ring", id="k-bool"),
    pytest.param(lambda d: d.update(division_ring={"kind": "finite_field", "p": 2, "k": 2,
                                                   "modulus": [True, True, True]}),
                 "/division_ring", id="modulus-bool"),
    pytest.param(lambda d: d["cocycle"].update(
        xi=[{"left": "e1", "right": "s12", "value": [True, True]}]),
        "/cocycle", id="finite-field-value-bool"),
    pytest.param(lambda d: d.update(
        division_ring={"kind": "rational_quaternion"},
        cocycle={"xi": [{"left": "e1", "right": "s12", "value": [1.5, 0, 0, 0]}]}),
        "/cocycle", id="quaternion-xi-float"),
    pytest.param(lambda d: d.update(
        division_ring={"kind": "rational_quaternion"},
        cocycle={"xi": [{"left": "e1", "right": "s12", "value": [1, 0, 0, 0]}]}),
        "/cocycle", id="quaternion-xi-int"),
    # a value whose numerator or denominator has more digits than int()
    # reads would pass validation and then fail to print
    pytest.param(lambda d: d.update(
        division_ring={"kind": "rational"},
        cocycle={"xi": [{"left": "e1", "right": "s12", "value": "1e5000"}]}),
        "/cocycle", id="rational-xi-long-numerator"),
    pytest.param(lambda d: d.update(
        division_ring={"kind": "rational"},
        cocycle={"xi": [{"left": "e1", "right": "s12", "value": "1e-5000"}]}),
        "/cocycle", id="rational-xi-long-denominator"),
    pytest.param(lambda d: d.update(
        division_ring={"kind": "rational_quaternion"},
        cocycle={"xi": [{"left": "e1", "right": "s12",
                         "value": ["1e5000", "0", "0", "0"]}]}),
        "/cocycle", id="quaternion-xi-long-component"),
]


@pytest.mark.parametrize("edit,pointer", MALFORMED)
def test_malformed_sections_carry_pointers(edit, pointer):
    data = instance_to_json(diamond_demo_instance())
    edit(data)
    with pytest.raises(InstanceFileInvalid) as exc:
        parse_instance(data)
    assert pointer in {p for p, _ in exc.value.issues}


@pytest.mark.parametrize("edit,pointer,message", [
    (lambda d: d.update(division_ring={"kind": "finite_field", "p": 2}),
     "/division_ring", "missing key 'k'"),
    (lambda d: d["cocycle"].update(xi=[{"left": "e1", "right": "s12"}]),
     "/cocycle", "missing key 'value'"),
], ids=["k", "xi-value"])
def test_missing_keys_are_named(edit, pointer, message):
    data = instance_to_json(diamond_demo_instance())
    edit(data)
    with pytest.raises(InstanceFileInvalid) as exc:
        parse_instance(data)
    assert (pointer, message) in exc.value.issues


def test_malformed_section_exits_2(runner, tmp_path):
    # only an absent or null cocycle is the trivial twist
    data = instance_to_json(diamond_demo_instance())
    path = tmp_path / "bad.json"
    for cocycle, section in [([1], "cocycle"), ([], "cocycle"), (False, "cocycle"),
                             (0, "cocycle"), ("", "cocycle"), ({"alpha": {}}, "alpha"),
                             ({"alpha": None}, "alpha"), ({"xi": 5}, "xi"),
                             ({"xi": "ab"}, "xi")]:
        data["cocycle"] = cocycle
        path.write_text(json.dumps(data))
        result = runner.invoke(main, ["--output", "json", "validate", str(path)])
        assert result.exit_code == 2, (cocycle, result.output)
        (error,) = json.loads(result.output)["errors"]
        assert error["pointer"] == "/cocycle" and section in error["message"], cocycle


@pytest.mark.parametrize("file,content,pointer,message", [
    ("instance", {"xi": ["x"]}, "/cocycle", "xi entries are objects"),
    ("instance", {"alpha": [{"on": ["s34"], "auto": {"frobenius": 1}}]}, "/cocycle",
     "alpha entries carry string on"),
    ("instance", {"xi": [{"left": "e1", "right": 5, "value": [0, 1]}]}, "/cocycle",
     "xi entries carry string left/right"),
    ("witness", {"gauge": {"eta": [5]}}, "/gauge", "eta entries are objects"),
    ("witness", {"gauge": {"mu": [{"on": 1, "auto": {"frobenius": 1}}]}}, "/gauge",
     "mu entries carry string on"),
], ids=["xi-string", "alpha-on-list", "xi-right-number", "eta-number", "mu-on-number"])
def test_malformed_entries_are_named(runner, tmp_path, demo_file, file, content, pointer,
                                     message):
    # the message says what the entry should be, not what Python met
    path = tmp_path / "bad.json"
    if file == "instance":
        data = instance_to_json(diamond_demo_instance())
        data["cocycle"] = content
        path.write_text(json.dumps(data))
        args = ["validate", str(path)]
    else:
        path.write_text(json.dumps(content))
        args = ["act", demo_file, str(path)]
    result = runner.invoke(main, ["--output", "json"] + args)
    assert result.exit_code == 2, result.output
    assert json.loads(result.output)["errors"] == [{"pointer": pointer, "message": message}]


def unreadable(tmp_path, kind):
    """A directory, or a file that is not UTF-8."""
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"semigroup": "\xff"}')
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_instance_exits_2(runner, tmp_path, kind):
    result = runner.invoke(main, ["--output", "json", "validate", unreadable(tmp_path, kind)])
    assert result.exit_code == 2, result.output
    (error,) = json.loads(result.output)["errors"]
    assert error["pointer"] == "" and error["message"].startswith("cannot read the file")


@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_witness_exits_2(runner, tmp_path, demo_file, kind):
    result = runner.invoke(main, ["--output", "json", "act", demo_file, unreadable(tmp_path, kind)])
    assert result.exit_code == 2, result.output
    (error,) = json.loads(result.output)["errors"]
    assert error["pointer"] == "" and error["message"].startswith("cannot read the file")


def test_prime_beyond_the_primality_bound_exits_2(runner, tmp_path):
    from cocycle_forge.scalars import MAX_PRIME
    data = instance_to_json(diamond_demo_instance())
    data["division_ring"] = {"kind": "finite_field", "p": MAX_PRIME, "k": 1}
    data["cocycle"] = {}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["--output", "json", "validate", str(path)])
    assert result.exit_code == 2, result.output
    (error,) = json.loads(result.output)["errors"]
    assert error["pointer"] == "/division_ring" and str(MAX_PRIME) in error["message"]


def test_extension_degree_beyond_the_cost_bound_exits_2(runner, tmp_path):
    from cocycle_forge.scalars import MAX_FIELD_COST
    data = instance_to_json(diamond_demo_instance())
    data["division_ring"] = {"kind": "finite_field", "p": 2, "k": 10 ** 6}
    data["cocycle"] = {}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["--output", "json", "validate", str(path)])
    assert result.exit_code == 2, result.output
    (error,) = json.loads(result.output)["errors"]
    assert error["pointer"] == "/division_ring" and str(MAX_FIELD_COST) in error["message"]


def test_is_cocycle_failure_lists_violations(runner, tmp_path):
    inst = diamond_demo_instance()
    data = instance_to_json(inst)
    data["cocycle"]["xi"] = [{"left": "e1", "right": "e1", "value": [0, 1]}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["--output", "json", "is-cocycle", str(path)])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert not payload["ok"] and payload["violations"]


def test_normalize_writes_files(runner, tmp_path):
    inst = diamond_demo_instance()
    data = instance_to_json(inst)
    data["cocycle"]["xi"] = [{"left": "e1", "right": "e1", "value": [0, 1]},
                             {"left": "e1", "right": "s12", "value": [0, 1]},
                             {"left": "e1", "right": "s13", "value": [0, 1]}]
    path = tmp_path / "nonnormal.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "normal.json"
    gout = tmp_path / "gauge.json"
    result = runner.invoke(main, ["normalize", str(path),
                                  "--out", str(out), "--gauge-out", str(gout)])
    assert result.exit_code == 0, result.output
    normalized = load_instance(out)
    from cocycle_forge.cochain import is_normal
    assert is_normal(normalized.cocycle)
    gauge_data = json.loads(gout.read_text())
    assert gauge_data["gauge"]["eta"]


def test_normalize_writes_what_save_instance_writes(runner, tmp_path):
    # one writer: the same instance gets the same bytes from normalize --out
    # and save_instance (demo --write-instance), trailing newline included
    from cocycle_forge.cochain import normalize
    from cocycle_forge.gauge import gauge_to_json

    data = instance_to_json(diamond_demo_instance())
    data["cocycle"]["xi"] = [{"left": "e1", "right": "e1", "value": [0, 1]},
                             {"left": "e2", "right": "s24", "value": [1, 1]}]
    path = tmp_path / "nonnormal.json"
    path.write_text(json.dumps(data))
    out, gout, saved = tmp_path / "normal.json", tmp_path / "gauge.json", tmp_path / "saved.json"
    result = runner.invoke(main, ["normalize", str(path), "--out", str(out),
                                  "--gauge-out", str(gout)])
    assert result.exit_code == 0, result.output
    inst = parse_instance(data)
    normalized, gauge = normalize(inst.cocycle)
    save_instance(saved, Instance(inst.domain, inst.sg, normalized))
    assert out.read_bytes() == saved.read_bytes()
    assert gout.read_bytes().endswith(b"}\n")
    assert json.loads(gout.read_text()) == {"gauge": gauge_to_json(gauge)}
    result = runner.invoke(main, ["demo", "--write-instance", str(saved)])
    assert result.exit_code == 0, result.output
    runner.invoke(main, ["normalize", str(saved), "--out", str(out)])
    assert out.read_bytes() == saved.read_bytes()


def test_witness_phi_is_read_only_in_its_documented_form(runner, tmp_path, demo_file):
    # {"phi": {"map": {...}}} is the one form, even on a semigroup with an
    # element named "map"; a bare mapping is refused at /phi on every one
    from cocycle_forge.semigroup import SquareFreeSemigroup

    gf4 = ScalarDomain.finite_field(2, 2)
    sg = SquareFreeSemigroup.validate(
        ["e1", "e2", "e3", "e4"],
        [("map", "e1", "e2"), ("s13", "e1", "e3"), ("s24", "e2", "e4"), ("s34", "e3", "e4")], {})
    path = tmp_path / "map.json"
    save_instance(path, Instance(gf4, sg, TwoCochain(
        sg, gf4, alpha={"s34": RingAuto.frobenius(gf4, 1)})))
    swap = {"e1": "e1", "e2": "e3", "e3": "e2", "e4": "e4",
            "map": "s13", "s13": "map", "s24": "s34", "s34": "s24"}
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps({"phi": {"map": swap}}))
    payload = run_json(runner, ["act", str(path), str(wpath)])
    assert payload["cocycle"]["alpha"] == [{"on": "s24", "auto": {"frobenius": 1}}]
    demo_swap = {"e1": "e1", "e2": "e3", "e3": "e2", "e4": "e4",
                 "s12": "s13", "s13": "s12", "s24": "s34", "s34": "s24"}
    for instance, bare in ((str(path), swap), (demo_file, demo_swap)):
        wpath.write_text(json.dumps({"phi": bare}))
        result = runner.invoke(main, ["--output", "json", "act", instance, str(wpath)])
        assert result.exit_code == 2, result.output
        errors = json.loads(result.output)["errors"]
        assert [e["pointer"] for e in errors] == ["/phi"]
        assert '{"map": {...}}' in errors[0]["message"]


@pytest.mark.parametrize("witness,message", [
    ('{"phi": {"map": {"e1": "e1"}}}', "automorphism map is not a bijection on the elements"),
    ('{"phi": {"map": {"e1": "e1", "e2": "e2", "e3": "e3", "e4": "e4", "s12": "s12", '
     '"s13": "s13", "s24": "s24", "s34": "s34", "zz": "e1"}}}',
     "automorphism map is not a bijection on the elements"),
    ('{"phi": {"map": {"e1": "e4", "e2": "e2", "e3": "e3", "e4": "e1", "s12": "s12", '
     '"s13": "s13", "s24": "s24", "s34": "s34"}}}', "map does not preserve products"),
], ids=["missing", "extra", "not-multiplicative"])
def test_act_rejects_a_phi_that_is_not_an_automorphism(runner, tmp_path, demo_file,
                                                       witness, message):
    wpath = tmp_path / "w.json"
    wpath.write_text(witness)
    result = runner.invoke(main, ["--output", "json", "act", demo_file, str(wpath)])
    assert result.exit_code == 2, result.output
    errors = json.loads(result.output)["errors"]
    assert [e["pointer"] for e in errors] == ["/phi"] and message in errors[0]["message"]


@pytest.mark.parametrize("command,option", [
    ("demo", "--write-instance"), ("normalize", "--out"), ("normalize", "--gauge-out"),
])
def test_unwritable_output_path_exits_2(runner, demo_file, tmp_path, command, option):
    missing = str(tmp_path / "no-such-dir" / "x.json")
    args = [command] + ([demo_file] if command == "normalize" else []) + [option, missing]
    result = runner.invoke(main, ["--output", "json"] + args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    payload = json.loads(result.output)
    assert payload["ok"] is False and "no-such-dir" in payload["error"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ") and "no-such-dir" in result.output


def test_normalize_stdout_round_trip(runner, demo_file):
    payload = run_json(runner, ["normalize", demo_file])
    assert payload["was_normal"]
    again = parse_instance(payload["instance"])
    assert again.cocycle == diamond_demo_instance().cocycle


def test_act_with_witness(runner, tmp_path, demo_file):
    # relabel by the diamond swap: the twist moves from s34 to s24
    witness = {"phi": {"map": {"e1": "e1", "e2": "e3", "e3": "e2", "e4": "e4",
                               "s12": "s13", "s13": "s12",
                               "s24": "s34", "s34": "s24"}}}
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(witness))
    payload = run_json(runner, ["act", demo_file, str(wpath)])
    alpha = payload["cocycle"]["alpha"]
    assert alpha == [{"on": "s24", "auto": {"frobenius": 1}}]


def test_iso_check_twisted_copy(runner, tmp_path, demo_file):
    witness = {"phi": {"map": {"e1": "e1", "e2": "e3", "e3": "e2", "e4": "e4",
                               "s12": "s13", "s13": "s12",
                               "s24": "s34", "s34": "s24"}},
               "gauge": {"eta": [{"on": "s12", "value": [0, 1]}]}}
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(witness))
    twisted = run_json(runner, ["act", demo_file, str(wpath)])
    tpath = tmp_path / "twisted.json"
    tpath.write_text(json.dumps(twisted))
    payload = run_json(runner, ["iso-check", demo_file, str(tpath)])
    assert payload["isomorphic"] is True
    assert payload["hom_check"]["ok"]


def test_iso_check_definitive_none(runner, demo_file, trivial_file):
    payload = run_json(runner, ["iso-check", trivial_file, demo_file])
    assert payload["isomorphic"] is False


def test_iso_check_self(runner, demo_file):
    payload = run_json(runner, ["iso-check", demo_file, demo_file])
    assert payload["isomorphic"] is True


def test_iso_check_unknown_for_quaternions(runner, tmp_path):
    inst = diamond_demo_instance()
    data = instance_to_json(inst)
    data["division_ring"] = {"kind": "rational_quaternion"}
    data["cocycle"] = {}
    path = tmp_path / "quat.json"
    path.write_text(json.dumps(data))
    payload = run_json(runner, ["iso-check", str(path), str(path)])
    assert payload["isomorphic"] == "unknown"


def test_iso_check_setting_mismatch(runner, tmp_path, demo_file):
    inst = diamond_demo_instance()
    data = instance_to_json(inst)
    data["division_ring"] = {"kind": "finite_field", "p": 3, "k": 2,
                             "modulus": [1, 0, 1]}
    data["cocycle"] = {}
    path = tmp_path / "gf9.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["iso-check", demo_file, str(path)])
    assert result.exit_code == 2


def test_ring_table(runner, demo_file):
    payload = run_json(runner, ["ring-table", demo_file])
    assert payload["basis"][0] == "e1"
    idx = payload["basis"].index
    table = payload["table"]
    assert table[idx("e1")][idx("s12")] == {"on": "s12", "coeff": [1, 0]}
    assert table[idx("s12")][idx("s24")] is None
    # the twisted entry: s34 . (g e4) is exercised via scalars, but the
    # plain basis product s34 . e4 keeps coefficient 1
    assert table[idx("s34")][idx("e4")] == {"on": "s34", "coeff": [1, 0]}


def test_aut_s(runner, demo_file):
    payload = run_json(runner, ["aut-s", demo_file])
    assert payload["order"] == 2


def test_z1_b1_h1(runner, demo_file):
    assert run_json(runner, ["z1", demo_file])["order"] == 162
    assert run_json(runner, ["b1", demo_file])["order"] == 81
    h = run_json(runner, ["h1", demo_file])
    assert h["h1_order"] == 2 and h["z1_order"] == 162 and h["b1_order"] == 81


def test_aut0_out_r(runner, demo_file):
    assert run_json(runner, ["aut0", demo_file])["order"] == 324
    payload = run_json(runner, ["out-r", demo_file])
    assert payload["out_order"] == 4
    assert len(payload["phi_image"]) == 2


def listing_instance(name):
    """The instances whose listings the digests below pin."""
    if name == "gf4-demo":
        return diamond_demo_instance()
    sg = make_triangle()
    if name == "gf5-triangle":
        dom = ScalarDomain.finite_field(5, 1)
        return Instance(dom, sg, TwoCochain(sg, dom, xi={("a", "b"): dom.scalar([2])}))
    dom = ScalarDomain.finite_field(2, 3)
    frob = RingAuto.frobenius(dom, 1)
    return Instance(dom, sg, TwoCochain(sg, dom, alpha={"b": frob, "ab": frob},
                                        xi={("a", "b"): dom.generator()}))


# SHA-256 of `--output json <command>` as json.dumps(..., indent=2,
# sort_keys=True) of the gauge_to_json / witness_to_json dict tree printed it
LISTING_DIGESTS = {
    ("gf4-demo", "z1"): "e97a286462c05aef0300be4763fa2a7476a280e59472c3f46a8cb3b1e861cc4b",
    ("gf4-demo", "b1"): "6002e6f3bee8bee077cc17181e82c97d2d5a7bf5cc91a20eadeb47434920cb45",
    ("gf4-demo", "aut0"): "38212ffea6e808c7ef456576ffe06baf62100d253e628f592ae2ae2ba44684ab",
    ("gf5-triangle", "z1"): "eb1ab4f8bd2d48b311e9e11114b1bb6ad123afdd361b1c9fc6755a9d72c1f82d",
    ("gf5-triangle", "b1"): "eb1ab4f8bd2d48b311e9e11114b1bb6ad123afdd361b1c9fc6755a9d72c1f82d",
    ("gf5-triangle", "aut0"): "dfabbf2b4699b4ff5b612a85cca16dc8c3ff096ba330633173e01df6cc0811b2",
    ("gf8-triangle", "z1"): "5902b6dad2ef879d444debfc094127d2bf580c247efa4ac43432f64c536049dd",
    ("gf8-triangle", "b1"): "30f2195392bb11860527d2b2b9c41871a4910c340dbae9d094437ea395697edf",
    ("gf8-triangle", "aut0"): "e6e3228fb8555a42be7d3d278e19f06e1652be6e0cbf17b0a7290b9eb558220c",
}


@pytest.mark.parametrize("name,command", sorted(LISTING_DIGESTS))
def test_listing_json_is_byte_identical(runner, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    save_instance(path, listing_instance(name))
    result = runner.invoke(main, ["--output", "json", command, str(path)])
    assert result.exit_code == 0, result.output
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == LISTING_DIGESTS[(name, command)]


# SHA-256 of `--output json <command>` on a non-normal H(Q) twist of the
# triangle; normalize and ring-table print quaternion text
QUATERNION_DIGESTS = {
    "normalize": "335615e7dab08fc62f19fcab704bb0125e763e70793059874bfecb85f7c11771",
    "ring-table": "daefa5ee533e513895af16490a48076e40a9ef0b87bbdca2267fba91c89c84bd",
    "iso-check": "2d202a5ffd669500f2b786ae7118bc1f93f8342a6cf9b5f1e07dd9f7c7fad721",
}


@pytest.mark.parametrize("command", sorted(QUATERNION_DIGESTS))
def test_quaternion_json_is_byte_identical(runner, tmp_path, command):
    quat, sg = ScalarDomain.quaternion(), make_triangle()
    rng = random.Random("hq-cli-pin")
    c = act_gauge(random_gauge(sg, quat, rng), TwoCochain.trivial(sg, quat))
    path = tmp_path / "hq.json"
    save_instance(path, Instance(quat, sg, c))
    files = [str(path)] * (2 if command == "iso-check" else 1)
    result = runner.invoke(main, ["--output", "json", command, *files])
    assert result.exit_code == 0, result.output
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == QUATERNION_DIGESTS[command]


@pytest.mark.parametrize("command,line", [
    ("z1", "|Z1| = 162"), ("b1", "|B1| = 81"), ("aut0", "|Aut0 R| = 324")])
def test_text_listing_renders_no_json(runner, demo_file, monkeypatch, command, line):
    from cocycle_forge import cli

    def refuse(*args, **kwargs):
        raise AssertionError("rendered a list --output text does not print")

    monkeypatch.setattr(cli, "gauge_list_text", refuse)
    result = runner.invoke(main, [command, demo_file])
    assert result.exit_code == 0, result.output
    assert result.output == line + "\n"


@pytest.mark.parametrize("command", ["z1", "b1", "aut0"])
def test_json_listing_builds_no_gauge(runner, demo_file, monkeypatch, command):
    from cocycle_forge.gauge import Gauge

    def refuse(self, *args, **kwargs):
        raise AssertionError("built a Gauge")

    monkeypatch.setattr(Gauge, "__init__", refuse)
    result = runner.invoke(main, ["--output", "json", command, demo_file])
    assert result.exit_code == 0, result.exception
    assert json.loads(result.output)["order"] in (81, 162, 324)


def test_verify_ses_cmd(runner, demo_file):
    payload = run_json(runner, ["verify-ses", demo_file])
    assert payload["ok"]
    assert payload["orders"]["out_r"] == 4


def test_z1_rejects_non_normal_cleanly(runner, tmp_path):
    data = instance_to_json(diamond_demo_instance())
    data["cocycle"] = {"xi": [
        {"left": "e1", "right": "e1", "value": [0, 1]},
        {"left": "e1", "right": "s12", "value": [0, 1]},
        {"left": "e1", "right": "s13", "value": [0, 1]},
    ]}
    path = tmp_path / "nonnormal.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["z1", str(path)])
    assert result.exit_code == 2
    assert "normalize" in result.output


def test_ring_table_rejects_non_cocycle_cleanly(runner, tmp_path):
    data = instance_to_json(diamond_demo_instance())
    data["cocycle"] = {"xi": [{"left": "e1", "right": "e1", "value": [0, 1]}]}
    path = tmp_path / "noncocycle.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["ring-table", str(path)])
    assert result.exit_code == 2
    assert "cocycle identities" in result.output


def test_ring_table_internal_value_error_is_not_a_usage_error(runner, demo_file,
                                                              monkeypatch):
    from cocycle_forge import ring

    def broken(c):
        raise ValueError("internal bug")

    monkeypatch.setattr(ring, "is_cocycle", broken)
    result = runner.invoke(main, ["ring-table", demo_file])
    assert result.exit_code != 2
    assert isinstance(result.exception, ValueError)


@pytest.mark.parametrize("command", ["h1", "out-r", "verify-ses", "iso-check"])
def test_a_field_too_large_for_log_tables_exits_2(runner, tmp_path, monkeypatch, command):
    # GF(2^31 - 1) would need about 0.9 TB of log tables: refused by name,
    # before any table is built, and never answered "unknown"
    from cocycle_forge._logs import FieldLogs

    def refuse(self, domain):
        raise AssertionError("log tables were built")

    monkeypatch.setattr(FieldLogs, "__init__", refuse)
    dom = ScalarDomain.finite_field(2 ** 31 - 1)
    sg = diamond_demo_instance().sg
    path = tmp_path / "huge.json"
    save_instance(path, Instance(dom, sg, TwoCochain.trivial(sg, dom)))
    files = [str(path)] * (2 if command == "iso-check" else 1)
    result = runner.invoke(main, ["--output", "json", command, *files])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)
    assert payload["ok"] is False and "GF(2147483647)" in payload["error"]


def test_verify_ses_cmd_on_the_gf25_demo(runner, tmp_path):
    # the lattices reach what listing took 13.5 s and 653 MB for
    sg = diamond_demo_instance().sg
    dom = ScalarDomain.finite_field(5, 2)
    path = tmp_path / "gf25.json"
    save_instance(path, Instance(dom, sg, TwoCochain(
        sg, dom, alpha={"s34": RingAuto.frobenius(dom, 1)})))
    payload = run_json(runner, ["verify-ses", str(path)])
    assert payload["ok"]
    assert payload["orders"] == {"aut_s": 2, "z1": 663552, "b1": 82944, "h1": 8,
                                 "aut0": 1327104, "inn0": 82944, "out_r": 16, "stab": 2}
    assert [cl["ok"] for cl in payload["clauses"]] == [True, True, True, True, None]


def test_verify_ses_not_enumerable(runner, tmp_path):
    inst = diamond_demo_instance()
    data = instance_to_json(inst)
    data["division_ring"] = {"kind": "rational"}
    data["cocycle"] = {}
    path = tmp_path / "rat.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["verify-ses", str(path)])
    assert result.exit_code == 2


def test_demo_text(runner):
    result = runner.invoke(main, ["demo"])
    assert result.exit_code == 0, result.output
    assert "|Aut S| = 2" in result.output
    assert "|Z1| = 162" in result.output
    assert "|B1| = 81" in result.output
    assert "|H1| = 2" in result.output
    assert "|Out R| = 4" in result.output
    assert "|Stab| = 2" in result.output
    assert "exactness: PASS" in result.output


def test_demo_json_deterministic(runner):
    p1 = run_json(runner, ["demo"])
    p2 = run_json(runner, ["demo"])
    assert p1 == p2 and p1["ok"]


def test_seed_flag_is_gone(runner):
    result = runner.invoke(main, ["--seed", "1", "demo"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--seed" in result.output


def test_jobs_flag(runner, demo_file):
    payload = run_json(runner, ["--jobs", "2", "out-r", demo_file])
    assert payload["out_order"] == 4


def test_jobs_reads_no_environment(runner):
    # the ignored knob has no environment fallback that could fail to parse
    result = runner.invoke(main, ["demo"], env={"COCYCLE_FORGE_JOBS": "abc"})
    assert result.exit_code == 0, result.output


def test_json_output_keeps_no_redirected_stdout():
    import contextlib
    import gc
    import io
    import weakref
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main.main(["--output", "json", "demo"], standalone_mode=False)
    assert json.loads(buf.getvalue())["ok"]
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("witness,pointer", [
    ('{"gauge": {"eta": [{"on": "zz", "value": [0, 1]}]}}', "/gauge"),
    ('[]', ""),
    ('{"gauge": ', ""),
    ('{"gauge": {"mu": [{"on": "e1", "auto": {"inner": [0, 0]}}]}}', "/gauge"),
    ('{"gauge": {"mu": [{"on": "e1", "auto": {"frobenius": 1.5}}]}}', "/gauge"),
    ('{"gauge": {"mu": [{"on": "e1", "auto": {"frobenius": true}}]}}', "/gauge"),
    ('{"gauge": {"mu": [{"on": "e1", "auto": "identity"}, '
     '{"on": "e1", "auto": {"frobenius": 1}}]}}', "/gauge"),
    ('{"gauge": {"eta": [{"on": "s12", "value": [0, 1]}, '
     '{"on": "s12", "value": [1, 1]}]}}', "/gauge"),
    ('{"gauge": {"eta": [{"on": "s12"}]}}', "/gauge"),
    ('{"gauge": {"mu": {}}}', "/gauge"),
    ('{"gauge": {"eta": 5}}', "/gauge"),
], ids=["unknown-name", "list", "not-json", "inner-by-zero", "frobenius-float",
        "frobenius-bool", "mu-twice", "eta-twice", "eta-missing-value", "mu-object",
        "eta-number"])
def test_act_rejects_bad_witness(runner, tmp_path, demo_file, witness, pointer):
    wpath = tmp_path / "w.json"
    wpath.write_text(witness)
    result = runner.invoke(main, ["--output", "json", "act", demo_file, str(wpath)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)
    assert not payload["ok"]
    assert [e["pointer"] for e in payload["errors"]] == [pointer]


def test_rational_witness_zero_denominator_is_rejected(runner, tmp_path):
    data = instance_to_json(diamond_demo_instance())
    data.update(division_ring={"kind": "rational"}, cocycle={})
    path = tmp_path / "rational.json"
    path.write_text(json.dumps(data))
    wpath = tmp_path / "w.json"
    wpath.write_text('{"gauge": {"eta": [{"on": "s12", "value": "1/0"}]}}')
    result = runner.invoke(main, ["--output", "json", "act", str(path), str(wpath)])
    assert result.exit_code == 2, result.output
    assert [e["pointer"] for e in json.loads(result.output)["errors"]] == ["/gauge"]


def test_internal_value_error_is_not_a_usage_error(runner, demo_file, monkeypatch):
    from cocycle_forge import cli

    def broken(c):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "z1_listing", broken)
    result = runner.invoke(main, ["z1", demo_file])
    assert result.exit_code != 2
    assert isinstance(result.exception, ValueError)


def test_verify_ses_failure_exits_1(runner, demo_file, monkeypatch):
    from cocycle_forge import cli
    from cocycle_forge.cohomology import SesClause, SesReport

    monkeypatch.setattr(cli, "verify_ses", lambda c, **kw: SesReport(
        False, (SesClause("order_equation", False, "forced"),), {}))
    result = runner.invoke(main, ["--output", "json", "verify-ses", demo_file])
    assert result.exit_code == 1
    assert json.loads(result.output)["ok"] is False


def test_max_idempotents_refuses_input(runner, demo_file):
    result = runner.invoke(main, ["--max-idempotents", "3", "--output", "json",
                                  "h1", demo_file])
    assert result.exit_code == 2, result.output
    assert [e["pointer"] for e in json.loads(result.output)["errors"]] == \
        ["/semigroup/idempotents"]


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_max_idempotents_below_one_is_a_usage_error(runner, demo_file, cap):
    result = runner.invoke(main, ["--max-idempotents", cap, "validate", demo_file])
    assert result.exit_code == 2
    assert "Invalid value for '--max-idempotents'" in result.output
    assert "exceed the cap" not in result.output


@pytest.fixture()
def chain9_file(tmp_path):
    """A chain e0 -> e1 -> ... -> e8 of nine idempotents over GF(2)."""
    data = {"division_ring": {"kind": "finite_field", "p": 2, "k": 1},
            "semigroup": {"idempotents": [f"e{i}" for i in range(9)],
                          "elements": [{"name": f"a{i}", "src": f"e{i}",
                                        "tgt": f"e{i + 1}"} for i in range(8)],
                          "products": []}}
    path = tmp_path / "chain9.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_max_idempotents_raised_for_every_command(runner, chain9_file):
    assert runner.invoke(main, ["out-r", chain9_file]).exit_code == 2
    payload = run_json(runner, ["--max-idempotents", "9", "out-r", chain9_file])
    assert payload["out_order"] == 1
    payload = run_json(runner, ["--max-idempotents", "9", "iso-check",
                                chain9_file, chain9_file])
    assert payload["isomorphic"] is True


def test_h1_of_the_projective_plane(runner, tmp_path):
    # RP^2_6 has 31 idempotents; |H1| = gcd(2, q - 1) k = 2 over GF(5)
    dom = ScalarDomain.finite_field(5, 1)
    sg = SquareFreeSemigroup.validate(*face_poset(RP2_6))
    path = tmp_path / "rp2.json"
    save_instance(path, Instance(dom, sg, TwoCochain.trivial(sg, dom)))
    payload = run_json(runner, ["--max-idempotents", "31", "h1", str(path)])
    assert payload["h1_order"] == 2


@pytest.mark.parametrize("triangles,q,h1_order,aut_p", [
    pytest.param(RP2_6, 3, 2, 60, id="rp2-gf3"), pytest.param(RP2_6, 5, 2, 60, id="rp2-gf5"),
    pytest.param(TORUS_7, 3, 4, 42, id="torus-gf3"),
    pytest.param(TORUS_7, 5, 16, 42, id="torus-gf5")])
def test_face_posets_past_the_default_cap(runner, tmp_path, triangles, q, h1_order, aut_p):
    # with the trivial twist, Out of the incidence algebra is H1 x| Aut P
    # (Stanley; Baclawski): |Out R| = |H1| |Aut P|, and the sequence is exact
    dom = ScalarDomain.finite_field(q, 1)
    sg = SquareFreeSemigroup.validate(*face_poset(triangles))
    path = tmp_path / "faces.json"
    save_instance(path, Instance(dom, sg, TwoCochain.trivial(sg, dom)))
    ses = run_json(runner, ["--max-idempotents", "42", "verify-ses", str(path)])
    assert ses["ok"] is True
    assert {k: ses["orders"][k] for k in ("aut_s", "h1", "stab", "out_r")} == {
        "aut_s": aut_p, "h1": h1_order, "stab": aut_p, "out_r": h1_order * aut_p}
    payload = run_json(runner, ["--max-idempotents", "42", "out-r", str(path)])
    assert payload["out_order"] == h1_order * aut_p and len(payload["phi_image"]) == aut_p


@pytest.fixture()
def noncocycle_file(tmp_path):
    """The demo with xi(e1, s12) = x added: the scalar identity fails."""
    data = instance_to_json(diamond_demo_instance())
    data["cocycle"]["xi"] = [{"left": "e1", "right": "s12", "value": [0, 1]}]
    path = tmp_path / "noncocycle.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command", ["verify-ses", "h1", "iso-check"])
def test_non_cocycle_gets_no_answer(runner, noncocycle_file, command):
    files = [noncocycle_file] * (2 if command == "iso-check" else 1)
    result = runner.invoke(main, ["--output", "json", command] + files)
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)
    assert payload["ok"] is False
    assert "cocycle identities" in payload["error"]


def test_instance_files_share_one_semigroup(demo_file, trivial_file):
    a, b = load_instance(demo_file), load_instance(trivial_file)
    assert a.sg is b.sg and a.domain is b.domain
    assert a.cocycle != b.cocycle


REFUSED_SEMIGROUPS = [
    pytest.param({"idempotents": ["e1", "e2", "e3"],
                  "elements": [{"name": "a", "src": "e1", "tgt": "e2"},
                               {"name": "b", "src": "e2", "tgt": "e3"},
                               {"name": "theta", "src": "e1", "tgt": "e3"}],
                  "products": [{"left": "a", "right": "b", "result": "theta"}]},
                 "structure('theta',)", id="arrow-named-theta"),
    pytest.param({"idempotents": ["e1", "e2"],
                  "elements": [{"name": "a", "src": "e1", "tgt": "e2"},
                               {"name": "b", "src": "e2", "tgt": "e1"}],
                  "products": [{"left": "a", "right": "b", "result": "e1"},
                               {"left": "b", "right": "a", "result": "e2"}]},
                 "square_free('a', 'b', 'e1')", id="brandt-b2"),
]


@pytest.mark.parametrize("semigroup,message", REFUSED_SEMIGROUPS)
@pytest.mark.parametrize("command", ["validate", "h1", "verify-ses", "ring-table"])
def test_refused_semigroups_exit_2(runner, tmp_path, semigroup, message, command):
    # an arrow named theta would be read as the zero in product tables, and
    # arrows whose product is an idempotent (B2, with ring M2(K)) generate
    # no nilpotent ideal: every command refuses both at /semigroup
    data = {"division_ring": {"kind": "finite_field", "p": 2, "k": 1},
            "semigroup": semigroup}
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["--output", "json", command, str(path)])
    assert result.exit_code == 2, result.output
    errors = json.loads(result.output)["errors"]
    assert {e["pointer"] for e in errors} == {"/semigroup"}
    assert errors[0]["message"].startswith(message)
