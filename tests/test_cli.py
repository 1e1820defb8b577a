"""CLI surface: every subcommand over the bundled demo instance."""

import json

import pytest
from click.testing import CliRunner

from cocycle_forge.cli import main
from cocycle_forge.instances import (
    diamond_demo_instance, instance_to_json, load_instance, parse_instance,
    save_instance,
)
from cocycle_forge.errors import InstanceFileInvalid


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
    inst = diamond_demo_instance()
    path = tmp_path / "x.json"
    save_instance(path, inst)
    again = load_instance(path)
    assert again.domain == inst.domain
    assert again.sg == inst.sg
    assert again.cocycle == inst.cocycle


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
    data = instance_to_json(diamond_demo_instance())
    data["cocycle"] = [1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["--output", "json", "validate", str(path)])
    assert result.exit_code == 2, result.output
    payload = json.loads(result.output)
    assert [e["pointer"] for e in payload["errors"]] == ["/cocycle"]


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
], ids=["unknown-name", "list", "not-json", "inner-by-zero", "frobenius-float",
        "frobenius-bool", "mu-twice", "eta-twice", "eta-missing-value"])
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

    monkeypatch.setattr(cli, "z1_enumerate", broken)
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
