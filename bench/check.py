"""Invariants every recorded job output must satisfy.

``run.py --record`` checks each output here before storing its digest, so
a golden digest is never taken from a wrong answer. Orders are compared
with the gauge-search route (``h1``, ``stabilizer_of_class``,
``inner_triples``) computed through the library.
"""

from __future__ import annotations

import json

from cocycle_forge.cli import DEMO_EXPECTED
from cocycle_forge.cohomology import h1, inner_triples
from cocycle_forge.gauge import stabilizer_of_class

# the GF(9) diamond demo, as stated in the README
GF9_DEMO = {"z1_order": 8192, "h1_order": 4}


def _aut0_by_gauges(c):
    """|Inn0| . |H1| . |Stab|, which exactness says equals |Aut0 R|."""
    return len(inner_triples(c)) * h1(c).h1_order * len(stabilizer_of_class(c))


def check_output(job, code, out):
    """None when the job's output is right, else what is wrong with it."""
    if code != 0:
        return f"exit status {code}"
    data = json.loads(out)
    command, kind = job.slot.command, job.slot.kind
    c = job.instances[0].cocycle if job.instances else None
    if command == "verify-ses":
        o = data["orders"]
        if not data["ok"]:
            return "verify_ses is not ok"
        if o["z1"] != o["b1"] * o["h1"] or o["aut0"] != o["inn0"] * o["out_r"]:
            return f"order identities fail: {o}"
        if o["aut0"] != _aut0_by_gauges(c):
            return "|Aut0| differs from |Inn0| |H1| |Stab|"
    elif command == "out-r":
        if data["aut0_order"] != data["inn0_order"] * data["out_order"]:
            return "|Aut0| != |Inn0| |Out R|"
        if data["aut0_order"] != _aut0_by_gauges(c):
            return "|Aut0| differs from |Inn0| |H1| |Stab|"
    elif command == "aut0":
        if data["order"] != len(data["triples"]) or data["order"] != _aut0_by_gauges(c):
            return "|Aut0| differs from |Inn0| |H1| |Stab|"
    elif command == "h1":
        if data["z1_order"] != data["b1_order"] * data["h1_order"]:
            return "|Z1| != |B1| |H1|"
        if len(data["cosets"]) != data["h1_order"]:
            return "coset count differs from |H1|"
        if kind == "demo" and any(data[k] != v for k, v in GF9_DEMO.items()):
            return f"GF(9) demo expected {GF9_DEMO}"
    elif command in ("z1", "b1"):
        rep = h1(c)
        want = rep.z1_order if command == "z1" else rep.b1_order
        if data["order"] != want or len(data["elements"]) != want:
            return f"|{command.upper()}| differs from the h1 report"
        if rep.z1_order != rep.b1_order * rep.h1_order:
            return "|Z1| != |B1| |H1|"
    elif command == "demo":
        if not data["ok"] or any(data["orders"][k] != v for k, v in DEMO_EXPECTED.items()):
            return "demo orders differ from DEMO_EXPECTED"
    elif command == "iso-check":
        want = {"pos": True, "neg": False, "unknown": "unknown"}[kind]
        if data["isomorphic"] != want:
            return f"isomorphic is {data['isomorphic']!r}, expected {want!r}"
        if want is True and not data["hom_check"]["ok"]:
            return "hom check failed"
    elif command == "ring-arith":
        if not data["unit_check"]:
            return "r . r^-1 != 1"
    else:
        return f"no invariant for {command}"
    return None
