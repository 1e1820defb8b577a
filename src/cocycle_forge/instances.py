"""Instance files: one JSON document carrying (division ring, semigroup,
twist data), plus witness files carrying one gauge (mu, eta, phi).

The idempotent cap is checked here, where input arrives, and nowhere else.
It bounds the size of a file, not a search: Aut S is found by a backtrack
over the idempotents (`SquareFreeSemigroup.enumerate_autos`), and a larger
file is read with a larger `max_idempotents`.

Parse errors are collected as (json-pointer, message) pairs so a bad file
reports every problem with its location instead of failing at the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cochain import TwoCochain, cochain_from_json, cochain_to_json
from .errors import ForgeError, InstanceFileInvalid, SemigroupInvalid
from .gauge import Gauge, gauge_from_json, gauge_to_json
from .scalars import RingAuto, ScalarDomain, domain_from_json, domain_to_json
from .semigroup import (
    SquareFreeSemigroup, auto_from_json as sg_auto_from_json,
    auto_to_json as sg_auto_to_json, semigroup_to_json,
)


@dataclass(frozen=True)
class Instance:
    domain: ScalarDomain
    sg: SquareFreeSemigroup
    cocycle: TwoCochain


# the default cap on |E| of an instance file
MAX_IDEMPOTENTS = 8


@dataclass(frozen=True)
class RunConfig:
    max_idempotents: int = MAX_IDEMPOTENTS
    output: str = "text"  # "json" | "text"


def parse_instance(data, max_idempotents=MAX_IDEMPOTENTS):
    """Build an Instance from a decoded JSON document."""
    issues = []
    if not isinstance(data, dict):
        raise InstanceFileInvalid([("", "instance must be a JSON object")])

    domain = None
    if "division_ring" not in data:
        issues.append(("/division_ring", "missing section"))
    else:
        domain = _section(issues, "/division_ring", domain_from_json, data["division_ring"])

    sg = None
    sgdata = data.get("semigroup")
    if not isinstance(sgdata, dict):
        issues.append(("/semigroup", "missing or non-object section"))
    else:
        idempotents = sgdata.get("idempotents")
        if not isinstance(idempotents, list) or not idempotents:
            issues.append(("/semigroup/idempotents", "must be a nonempty list"))
        else:
            if len(idempotents) > max_idempotents:
                issues.append(("/semigroup/idempotents",
                               f"{len(idempotents)} idempotents exceed the cap "
                               f"{max_idempotents}"))
            issues.extend((f"/semigroup/idempotents/{i}", "names are strings")
                          for i, e in enumerate(idempotents) if not isinstance(e, str))
            arrows = []
            eset = {e for e in idempotents if isinstance(e, str)}
            for i, el in enumerate(_list_section(sgdata, "elements", issues)):
                ptr = f"/semigroup/elements/{i}"
                if not isinstance(el, dict):
                    issues.append((ptr, "element entries are objects"))
                    continue
                bad = [k for k in ("name", "src", "tgt") if not isinstance(el.get(k), str)]
                if bad:
                    issues.append((ptr, f"missing or non-string keys {bad}"))
                    continue
                if el["name"] in eset:
                    if el["src"] != el["name"] or el["tgt"] != el["name"]:
                        issues.append((ptr, "idempotent entries must have "
                                            "src = tgt = name"))
                    continue
                arrows.append((el["name"], el["src"], el["tgt"]))
            products = []
            for i, pr in enumerate(_list_section(sgdata, "products", issues)):
                ptr = f"/semigroup/products/{i}"
                if not (isinstance(pr, dict) and isinstance(pr.get("left"), str)
                        and isinstance(pr.get("right"), str)
                        and isinstance(pr.get("result"), (str, type(None)))):
                    issues.append((ptr, "product entries carry string left/right "
                                        "and a string or null result"))
                    continue
                products.append(((pr["left"], pr["right"]), pr.get("result", "theta")))
            if not issues:
                try:
                    sg = SquareFreeSemigroup.validate(idempotents, arrows, products)
                except SemigroupInvalid as exc:
                    for v in exc.violations:
                        issues.append(("/semigroup", f"{v.kind}{v.members}: {v.message}"))

    cocycle = None
    if domain is not None and sg is not None:
        cocycle = _section(issues, "/cocycle", cochain_from_json, sg, domain, data.get("cocycle"))

    if issues:
        raise InstanceFileInvalid(issues)
    return Instance(domain, sg, cocycle)


def _section(issues, pointer, parse, *args):
    """parse(*args), or None with its failure recorded at the pointer; a
    missing JSON key is named as such rather than as a bare repr."""
    try:
        return parse(*args)
    except (ForgeError, ValueError, KeyError, TypeError) as exc:
        issues.append((pointer, f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)))


def _list_section(sgdata, key, issues):
    value = sgdata.get(key, [])
    if isinstance(value, list):
        return value
    issues.append((f"/semigroup/{key}", "must be a list"))
    return []


def instance_to_json(inst):
    return {
        "division_ring": domain_to_json(inst.domain),
        "semigroup": semigroup_to_json(inst.sg),
        "cocycle": cochain_to_json(inst.cocycle),
    }


def read_json(path):
    """Decode a UTF-8 JSON file; a file that cannot be read, is not UTF-8
    or is not JSON is an InstanceFileInvalid at the root pointer."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFileInvalid(
            [("", f"not valid JSON: {exc.msg} at line {exc.lineno}, "
                  f"column {exc.colno}")]) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFileInvalid([("", f"cannot read the file: {exc}")]) from None


def load_instance(path, max_idempotents=MAX_IDEMPOTENTS):
    return parse_instance(read_json(path), max_idempotents=max_idempotents)


def write_json(path, value):
    """Write a JSON file the one way every command writes one: indented,
    keys sorted, a trailing newline, in one write (json.dump would call
    fh.write once per encoder chunk)."""
    text = json.dumps(value, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def save_instance(path, inst):
    write_json(path, instance_to_json(inst))


# ---------------------------------------------------------------------------
# witness files: {"gauge": {...}, "phi": {"map": {...}}}, both parts optional;
# together they are one gauge (mu, eta, phi)


def parse_witness(inst, data):
    if not isinstance(data, dict):
        raise InstanceFileInvalid([("", "witness must be a JSON object")])
    issues = []
    gauge = _section(issues, "/gauge", gauge_from_json, inst.sg, inst.domain,
                     data.get("gauge", {}))
    phi = None
    if "phi" in data:
        phi = _section(issues, "/phi", sg_auto_from_json, inst.sg, data["phi"])
    if issues:
        raise InstanceFileInvalid(issues)
    if phi is None:
        return gauge
    return Gauge(inst.sg, inst.domain, gauge.mu, gauge.eta, phi)


def witness_to_json(g):
    return {"gauge": gauge_to_json(g), "phi": sg_auto_to_json(g.phi)}


# ---------------------------------------------------------------------------
# the bundled demo instance: GF(4) over the diamond with a Frobenius twist
# on the top-right arrow


def diamond_demo_instance():
    domain = ScalarDomain.finite_field(2, 2)
    sg = SquareFreeSemigroup.validate(
        ["e1", "e2", "e3", "e4"],
        [("s12", "e1", "e2"), ("s13", "e1", "e3"),
         ("s24", "e2", "e4"), ("s34", "e3", "e4")],
        {},
    )
    cocycle = TwoCochain(sg, domain, alpha={"s34": RingAuto.frobenius(domain, 1)})
    return Instance(domain, sg, cocycle)
