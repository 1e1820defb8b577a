"""Command-line surface.

Every command reads instance files (JSON documents with division_ring,
semigroup, and optional cocycle sections), runs one computation, and emits
either a human summary (--output text, default) or the JSON contract
surface (--output json). Outputs are deterministic.
"""

from __future__ import annotations

import json
import sys

import click

from .cochain import is_cocycle, is_normal, normalize
from .cohomology import aut0_listing, b1_listing, h1, out_r, verify_ses, z1_listing
from .errors import ForgeError, InstanceFileInvalid, NotEnumerable
from .gauge import act_gauge, gauge_list_text, gauge_to_json
from .instances import (
    Instance, RunConfig, diamond_demo_instance, instance_to_json, load_instance,
    parse_witness, read_json, save_instance, witness_to_json, write_json,
)
from .ring import TwistedRing, find_ring_iso, require_cocycle, verify_ring_hom
from .scalars import scalar_to_json
from .semigroup import auto_to_json as sg_auto_to_json


def _emit(cfg, payload, lines):
    """Print the JSON payload, or the text lines. A callable payload
    returns the JSON text itself and is called only for --output json."""
    # given no file, click caches every sys.stdout it meets, which keeps
    # each redirected stream and its buffer alive for the process lifetime
    if cfg.output == "json":
        text = payload() if callable(payload) else json.dumps(payload, indent=2, sort_keys=True)
        click.echo(text, file=sys.stdout)
    else:
        for line in lines:
            click.echo(line, file=sys.stdout)


def _reject(cfg, label, exc):
    """Report an invalid input file by JSON pointer and exit 2."""
    payload = {"ok": False,
               "errors": [{"pointer": p, "message": m} for p, m in exc.issues]}
    _emit(cfg, payload, [f"{label}: INVALID"]
          + [f"  {p or '/'}: {m}" for p, m in exc.issues])
    sys.exit(2)


def _fail(cfg, error):
    """Report an error that stops the command, and exit 2."""
    _emit(cfg, {"ok": False, "error": str(error)}, [f"error: {error}"])
    sys.exit(2)


def _load(cfg, path):
    try:
        return load_instance(path, max_idempotents=cfg.max_idempotents)
    except InstanceFileInvalid as exc:
        _reject(cfg, path, exc)


@click.group()
# a no-op kept because bench/run.py:75 passes --jobs 1 to every job
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Accepted for compatibility and ignored.")
@click.option("--output", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@click.option("--max-idempotents", type=int, default=8, show_default=True)
@click.pass_context
def main(ctx, jobs, output, max_idempotents):
    """Exact-arithmetic workbench for twisted semigroup rings."""
    ctx.obj = RunConfig(max_idempotents=max_idempotents, output=output)


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.pass_obj
def validate(cfg, file):
    """Parse and validate an instance file."""
    inst = _load(cfg, file)
    verdict = is_cocycle(inst.cocycle)
    payload = {"ok": bool(verdict.ok), "normal": is_normal(inst.cocycle),
               "idempotents": len(inst.sg.idempotents),
               "elements": len(inst.sg.elements),
               "violations": [{"identity": v.identity, "at": list(v.members)}
                              for v in verdict.violations]}
    _emit(cfg, payload, [
        f"semigroup: {len(inst.sg.idempotents)} idempotents, "
        f"{len(inst.sg.elements)} elements",
        f"cocycle identities: {'PASS' if verdict.ok else 'FAIL'}",
        f"normal: {'yes' if payload['normal'] else 'no'}",
    ] + [f"  violated ({v.identity}) at {v.members}" for v in verdict.violations])
    if not verdict.ok:
        sys.exit(1)


@main.command("is-cocycle")
@click.argument("file", type=click.Path(exists=True))
@click.pass_obj
def is_cocycle_cmd(cfg, file):
    """Check the two cocycle identities and list every violation."""
    inst = _load(cfg, file)
    verdict = is_cocycle(inst.cocycle)
    payload = {"ok": bool(verdict.ok),
               "violations": [{"identity": v.identity, "at": list(v.members),
                               "lhs": repr(v.lhs), "rhs": repr(v.rhs)}
                              for v in verdict.violations]}
    _emit(cfg, payload,
          [f"cocycle: {'PASS' if verdict.ok else 'FAIL'}"]
          + [f"  {v.identity} identity fails at {v.members}" for v in verdict.violations])
    if not verdict.ok:
        sys.exit(1)


@main.command("normalize")
@click.argument("file", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None,
              help="Write the normalized instance here instead of stdout.")
@click.option("--gauge-out", type=click.Path(), default=None,
              help="Write the normalizing gauge witness here.")
@click.pass_obj
def normalize_cmd(cfg, file, out, gauge_out):
    """Replace the cocycle by a normal representative of its class."""
    inst = _load(cfg, file)
    normalized, gauge = normalize(inst.cocycle)
    new_inst = Instance(inst.domain, inst.sg, normalized)
    payload = {"instance": instance_to_json(new_inst),
               "gauge": gauge_to_json(gauge),
               "was_normal": gauge.is_identity()}
    try:
        if out:
            write_json(out, payload["instance"])
        if gauge_out:
            write_json(gauge_out, {"gauge": payload["gauge"]})
    except OSError as exc:
        _fail(cfg, exc)
    if out or gauge_out:
        _emit(cfg, payload, [f"normalized instance written"
                             f"{' to ' + out if out else ''}"])
    else:
        _emit(cfg, payload, [json.dumps(payload, indent=2, sort_keys=True)])


@main.command("act")
@click.argument("file", type=click.Path(exists=True))
@click.argument("witness", type=click.Path(exists=True))
@click.pass_obj
def act_cmd(cfg, file, witness):
    """Apply a witness (phi relabeling, then gauge) to the instance."""
    inst = _load(cfg, file)
    try:
        w = parse_witness(inst, read_json(witness))
    except InstanceFileInvalid as exc:
        _reject(cfg, "witness", exc)
    c = act_gauge(w, inst.cocycle)
    payload = instance_to_json(Instance(inst.domain, inst.sg, c))
    _emit(cfg, payload, [json.dumps(payload, indent=2, sort_keys=True)])


@main.command("iso-check")
@click.argument("file_a", type=click.Path(exists=True))
@click.argument("file_b", type=click.Path(exists=True))
@click.pass_obj
def iso_check_cmd(cfg, file_a, file_b):
    """Decide whether the two twisted rings are isomorphic."""
    a = _load(cfg, file_a)
    b = _load(cfg, file_b)
    if a.domain is not b.domain or a.sg is not b.sg:
        _fail(cfg, "both files must carry the same division ring and semigroup")
    try:
        iso = find_ring_iso(a.cocycle, b.cocycle)
    except NotEnumerable as exc:
        if a.domain.kind == "finite_field":    # a field too large to tabulate
            _fail(cfg, exc)
        _emit(cfg, {"isomorphic": "unknown",
                    "reason": "coefficient domain is not enumerable"},
              ["isomorphic: UNKNOWN (domain not enumerable)"])
        return
    except ForgeError as exc:
        _fail(cfg, exc)
    if iso is None:
        _emit(cfg, {"isomorphic": False}, ["isomorphic: NO (search exhausted)"])
        return
    verdict = verify_ring_hom(iso)
    payload = {
        "isomorphic": True,
        "witness": witness_to_json(iso.gauge),
        "hom_check": {"ok": bool(verdict.ok), "failures": len(verdict.failures)},
    }
    _emit(cfg, payload, [
        "isomorphic: YES",
        f"phi: {iso.gauge.phi!r}",
        f"hom check: {'PASS' if verdict.ok else 'FAIL'}",
    ])
    if not verdict.ok:
        sys.exit(1)


@main.command("ring-table")
@click.argument("file", type=click.Path(exists=True))
@click.pass_obj
def ring_table_cmd(cfg, file):
    """Emit the basis multiplication table of the twisted ring."""
    inst = _load(cfg, file)
    try:
        ring = TwistedRing(inst.cocycle)
    except ForgeError as exc:
        _fail(cfg, exc)
    basis = list(inst.sg.elements)
    table = []
    for s in basis:
        row = []
        for t in basis:
            prod = ring.basis(s) * ring.basis(t)
            if prod.is_zero():
                row.append(None)
            else:
                ((name, coeff),) = prod.coeffs.items()
                row.append({"on": name, "coeff": scalar_to_json(coeff)})
        table.append(row)
    payload = {"basis": basis, "table": table}
    width = max(len(s) for s in basis) + 6
    lines = ["".rjust(width) + "".join(t.rjust(width) for t in basis)]
    for s, row in zip(basis, table):
        cells = []
        for entry in row:
            if entry is None:
                cells.append("0".rjust(width))
            else:
                coeff = entry["coeff"]
                cells.append(f"{coeff}*{entry['on']}".rjust(width))
        lines.append(s.rjust(width) + "".join(cells))
    _emit(cfg, payload, lines)


@main.command("aut-s")
@click.argument("file", type=click.Path(exists=True))
@click.pass_obj
def aut_s_cmd(cfg, file):
    """Enumerate the semigroup automorphisms."""
    inst = _load(cfg, file)
    autos = inst.sg.enumerate_autos()
    payload = {"order": len(autos), "autos": [sg_auto_to_json(a) for a in autos]}
    _emit(cfg, payload, [f"|Aut S| = {len(autos)}"]
          + [f"  {a!r}" for a in autos])


def _cohomology_command(name, runner):
    @main.command(name)
    @click.argument("file", type=click.Path(exists=True))
    @click.pass_obj
    def cmd(cfg, file):
        inst = _load(cfg, file)
        try:
            require_cocycle(inst.cocycle)  # no answers about non-cocycles
            payload, lines = runner(cfg, inst)
        except ForgeError as exc:
            _fail(cfg, exc)
        _emit(cfg, payload, lines)
        if isinstance(payload, dict) and payload.get("ok") is False:
            sys.exit(1)
    cmd.__doc__ = runner.__doc__
    return cmd


def _gauge_list(inst, field, group, witnesses=False):
    """The JSON text of a gauge list in log coordinates, rendered on call."""
    return lambda: gauge_list_text(inst.sg, inst.domain, field, group, witnesses)


def _run_z1(cfg, inst):
    """Enumerate the gauges stabilizing the cocycle."""
    z1 = z1_listing(inst.cocycle)
    return (_gauge_list(inst, "elements", z1), [f"|Z1| = {len(z1)}"])


def _run_b1(cfg, inst):
    """Enumerate the coboundary gauges."""
    b1 = b1_listing(inst.cocycle)
    return (_gauge_list(inst, "elements", b1), [f"|B1| = {len(b1)}"])


def _run_h1(cfg, inst):
    """Report the first cohomology group by cosets and table."""
    rep = h1(inst.cocycle)
    payload = {"z1_order": rep.z1_order, "b1_order": rep.b1_order,
               "h1_order": rep.h1_order,
               "cosets": [gauge_to_json(g) for g in rep.h1_cosets],
               "coset_table": rep.coset_table}
    return (payload, [f"|Z1| = {rep.z1_order}", f"|B1| = {rep.b1_order}",
                      f"|H1| = {rep.h1_order}"])


def _run_aut0(cfg, inst):
    """Enumerate the idempotent-permuting ring automorphisms."""
    aut0 = aut0_listing(inst.cocycle)
    return (_gauge_list(inst, "triples", aut0, witnesses=True), [f"|Aut0 R| = {len(aut0)}"])


def _run_out_r(cfg, inst):
    """Compute Out R = Aut0 / inner and the realized permutations."""
    rep = out_r(inst.cocycle)
    payload = {"aut0_order": rep.aut0_order, "inn0_order": rep.inn0_order,
               "out_order": rep.out_order,
               "phi_image": [sg_auto_to_json(p) for p in rep.phi_image]}
    return (payload, [f"|Aut0 R| = {rep.aut0_order}",
                      f"|Inn0 R| = {rep.inn0_order}",
                      f"|Out R| = {rep.out_order}",
                      f"|Phi image| = {len(rep.phi_image)}"])


def _run_verify_ses(cfg, inst):
    """Verify exactness of 1 -> H1 -> Out R -> Stab -> 1."""
    rep = verify_ses(inst.cocycle)
    payload = {"ok": rep.ok, "orders": rep.orders,
               "clauses": [{"name": cl.name, "ok": cl.ok, "detail": cl.detail}
                           for cl in rep.clauses]}
    lines = [f"exactness: {'PASS' if rep.ok else 'FAIL'}"]
    for cl in rep.clauses:
        status = "skip" if cl.ok is None else ("ok" if cl.ok else "FAIL")
        lines.append(f"  [{status}] {cl.name}: {cl.detail}")
    if not rep.ok:
        lines.append("verification failed")
    return (payload, lines)


_cohomology_command("z1", _run_z1)
_cohomology_command("b1", _run_b1)
_cohomology_command("h1", _run_h1)
_cohomology_command("aut0", _run_aut0)
_cohomology_command("out-r", _run_out_r)
_cohomology_command("verify-ses", _run_verify_ses)


DEMO_EXPECTED = {"aut_s": 2, "z1": 162, "b1": 81, "h1": 2, "out_r": 4, "stab": 2}


@main.command("demo")
@click.option("--write-instance", type=click.Path(), default=None,
              help="Also save the bundled instance file here.")
@click.pass_obj
def demo_cmd(cfg, write_instance):
    """Run the bundled GF(4) diamond instance end to end."""
    inst = diamond_demo_instance()
    if write_instance:
        try:
            save_instance(write_instance, inst)
        except OSError as exc:
            _fail(cfg, exc)
    rep = verify_ses(inst.cocycle)
    ok = rep.ok
    lines = []
    payload = {"orders": rep.orders, "expected": DEMO_EXPECTED,
               "exact": rep.ok, "checks": {}}
    for key, label in (("aut_s", "|Aut S|"), ("z1", "|Z1|"), ("b1", "|B1|"),
                       ("h1", "|H1|"), ("out_r", "|Out R|"), ("stab", "|Stab|")):
        got = rep.orders[key]
        want = DEMO_EXPECTED[key]
        match = got == want
        ok = ok and match
        payload["checks"][key] = match
        lines.append(f"{label} = {got}" + ("" if match else f"  (expected {want})"))
    lines.append(f"exactness: {'PASS' if rep.ok else 'FAIL'}")
    payload["ok"] = ok
    _emit(cfg, payload, lines)
    if not ok:
        sys.exit(1)


def entry():  # pragma: no cover
    try:
        main()
    except ForgeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":  # pragma: no cover
    entry()
