"""Seeded instances and job mixes for the benchmark workloads.

Every workload is a fixed cycle of *slots*, taken from one or more slot
groups. A slot names a CLI command (or a library ring-arithmetic job) and
the shape and coefficient domain of its instances. Each slot has ``VARIANTS`` seeded variants, each generated from
its own seed string, so the set of jobs is finite and ``goldens.json``
holds the output digest of every one of them. A run sets up every variant;
its ``--seed`` fixes the order in which successive cycles visit each slot's
variants. Every run thus measures the same mix of jobs, and the seed moves
the figures only through the cycles a run does not complete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from cocycle_forge import (
    Gauge, RingAuto, ScalarDomain, TwoCochain, act_gauge, act_phi,
    enumerate_autos, enumerate_units, is_cocycle, is_normal, normalize,
)
from cocycle_forge.instances import Instance
from cocycle_forge.ring import TwistedRing, element_to_json
from cocycle_forge.scalars import random_scalar
from cocycle_forge.semigroup import SquareFreeSemigroup

VARIANTS = 8
TRIES = 200             # rejection-sampling attempts for alpha and xi

# (idempotents, arrows as (name, src, tgt), nonzero arrow.arrow products)
SHAPES = {
    "chain2": (["e1", "e2"], [("a", "e1", "e2")], {}),
    "chain3": (["e1", "e2", "e3"], [("a", "e1", "e2"), ("b", "e2", "e3")], {}),
    "vee": (["e1", "e2", "e3"], [("a", "e1", "e2"), ("b", "e1", "e3")], {}),
    "tri0": (["e1", "e2", "e3"],
             [("a", "e1", "e2"), ("b", "e2", "e3"), ("ab", "e1", "e3")], {}),
    "tri": (["e1", "e2", "e3"],
            [("a", "e1", "e2"), ("b", "e2", "e3"), ("ab", "e1", "e3")],
            {("a", "b"): "ab"}),
    "chain4": (["e1", "e2", "e3", "e4"],
               [("a", "e1", "e2"), ("b", "e2", "e3"), ("c", "e3", "e4"),
                ("ab", "e1", "e3"), ("bc", "e2", "e4"), ("abc", "e1", "e4")],
               {("a", "b"): "ab", ("b", "c"): "bc", ("ab", "c"): "abc",
                ("a", "bc"): "abc"}),
    "star3": (["c", "l1", "l2", "l3"],
              [("a1", "c", "l1"), ("a2", "c", "l2"), ("a3", "c", "l3")], {}),
    "diamond": (["e1", "e2", "e3", "e4"],
                [("s12", "e1", "e2"), ("s13", "e1", "e3"),
                 ("s24", "e2", "e4"), ("s34", "e3", "e4")], {}),
    "diamondp": (["e1", "e2", "e3", "e4"],
                 [("s12", "e1", "e2"), ("s13", "e1", "e3"), ("s14", "e1", "e4"),
                  ("s24", "e2", "e4"), ("s34", "e3", "e4")],
                 {("s12", "s24"): "s14", ("s13", "s34"): "s14"}),
}

# Shapes with an undirected cycle and no product along it: the signed sum of
# Frobenius powers of alpha around the cycle is a class invariant that no
# gauge changes, so these shapes carry nontrivial classes.
CYCLES = {
    "tri0": (("a", 1), ("b", 1), ("ab", -1)),
    "diamond": (("s12", 1), ("s24", 1), ("s13", -1), ("s34", -1)),
}

DOMAINS = {
    "GF2": (2, 1), "GF3": (3, 1), "GF4": (2, 2), "GF5": (5, 1),
    "GF7": (7, 1), "GF8": (2, 3), "GF9": (3, 2),
}


def make_domain(name):
    if name == "Q":
        return ScalarDomain.rational()
    if name == "HQ":
        return ScalarDomain.quaternion()
    p, k = DOMAINS[name]
    return ScalarDomain.finite_field(p, k)


def make_semigroup(shape):
    idempotents, arrows, products = SHAPES[shape]
    return SquareFreeSemigroup.validate(idempotents, arrows, products)


def _arrow_products(sg):
    arrows = set(sg.arrows())
    return [(s, t, sg.compose(s, t)) for s, t in sg.tuples(2)
            if s in arrows and t in arrows]


def _random_unit(domain, rng):
    if domain.kind == "finite_field":
        return rng.choice(enumerate_units(domain))
    return random_scalar(domain, rng, nonzero=True)


def _random_xi(domain, rng):
    """xi values: central (rational) over the quaternions, since rho_xi
    must be trivial when alpha is."""
    if domain.kind == "rational_quaternion":
        return domain.scalar(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
    return _random_unit(domain, rng)


def _frob_power(a):
    return a.data if a.form == "frobenius" else 0


def random_alpha(sg, domain, rng, cycle=None, holonomy=0):
    """Domain automorphisms on the arrows with alpha_s o alpha_t = alpha_st
    on every nonzero product. With a ``cycle`` from CYCLES, the signed sum
    of Frobenius powers around it is set to ``holonomy`` mod k."""
    autos = enumerate_autos(domain)
    prods = _arrow_products(sg)
    for _ in range(TRIES):
        alpha = {s: rng.choice(autos) for s in sg.arrows()}
        if cycle:
            *rest, (last, _) = cycle
            power = sum(sign * _frob_power(alpha[s]) for s, sign in rest)
            alpha[last] = RingAuto.frobenius(domain, power - holonomy)
        if all(alpha[s].compose(alpha[t]) == alpha[st] for s, t, st in prods):
            return alpha
    raise RuntimeError(f"no product-respecting alpha found on {sg!r}")


def random_cocycle(sg, domain, rng, cycle=None, holonomy=0):
    """A cocycle with product-respecting alpha and random xi on the arrow
    products (rejection-sampled against the cocycle identities)."""
    alpha = {}
    if domain.kind != "rational_quaternion":
        alpha = random_alpha(sg, domain, rng, cycle, holonomy)
    prods = _arrow_products(sg)
    for _ in range(TRIES):
        xi = {(s, t): _random_xi(domain, rng) for s, t, _ in prods}
        c = TwoCochain(sg, domain, alpha, xi)
        if is_cocycle(c).ok:
            return c
    return TwoCochain(sg, domain, alpha)


def random_gauge(sg, domain, rng):
    if domain.kind == "rational_quaternion":
        mu = {e: RingAuto.inner(domain, _random_unit(domain, rng)) for e in sg.idempotents}
    else:
        autos = enumerate_autos(domain)
        mu = {e: rng.choice(autos) for e in sg.idempotents}
    eta = {s: _random_unit(domain, rng) for s in sg.elements}
    return Gauge(sg, domain, mu, eta)


def random_twist(sg, domain, rng, cycle=None, holonomy=0):
    """Product-respecting twist, moved by a random gauge, then normalized:
    xi(s, t) is nontrivial on composable pairs and the class is kept."""
    base = random_cocycle(sg, domain, rng, cycle, holonomy)
    c = act_gauge(random_gauge(sg, domain, rng), base)
    if domain.kind != "rational_quaternion":
        c, _ = normalize(c)
        if not is_normal(c):
            raise RuntimeError("normalize returned a non-normal cocycle")
    if not is_cocycle(c).ok:
        raise RuntimeError("generated twist violates the cocycle identities")
    return c


def relabeled_copy(c, rng):
    """A random gauge applied to a random Aut S relabeling of c."""
    phi = rng.choice(c.sg.enumerate_autos())
    return act_gauge(random_gauge(c.sg, c.domain, rng), act_phi(phi, c))


def aut0_space(c):
    """|Aut S| . |Aut D|^|E| . |D*|^#arrows: the brute-force Aut0 candidates."""
    q, k = c.domain.order, c.domain.k
    sg = c.sg
    return len(sg.enumerate_autos()) * k ** len(sg.idempotents) * (q - 1) ** len(sg.arrows())


# ---------------------------------------------------------------------------
# job mixes


@dataclass(frozen=True)
class Slot:
    command: str       # a CLI subcommand, or "ring-arith" for library jobs
    shape: str = ""
    domain: str = ""
    kind: str = ""     # "demo" twist; iso-check "pos" / "neg" / "unknown"


def _slots(command, pairs, kind=""):
    return [Slot(command, shape, dom, kind) for shape, dom in pairs]


# Brute-force Aut0 candidate spaces (aut0_space) stay at or below 600 here,
# so each job takes well under a second at the benchmark's first commit;
# the GF(4) diamond (2592 candidates) runs only through `demo`.
SES_SMALL = (
    _slots("verify-ses", [
        ("chain2", "GF4"), ("chain2", "GF5"), ("chain3", "GF4"), ("chain3", "GF5"),
        ("vee", "GF4"), ("vee", "GF5"), ("tri", "GF3"), ("tri", "GF4"), ("tri", "GF5"),
        ("tri0", "GF4"), ("tri0", "GF4"), ("tri0", "GF5"), ("star3", "GF2"),
        ("star3", "GF3"), ("star3", "GF5"), ("diamond", "GF2"), ("diamond", "GF3"),
        ("diamond", "GF5"), ("diamondp", "GF3"), ("chain4", "GF3")])
    + _slots("out-r", [("tri0", "GF4"), ("vee", "GF4"), ("diamond", "GF5")])
    + _slots("aut0", [("star3", "GF5"), ("diamond", "GF3")])
    + [Slot("demo")]
)

H1_WIDE = (
    [Slot("h1", "diamond", "GF9", "demo")]
    + _slots("h1", [
        ("diamond", "GF5"), ("chain2", "GF8"), ("chain3", "GF8"), ("chain3", "GF9"),
        ("tri", "GF7"), ("tri", "GF8"), ("tri", "GF9"), ("tri0", "GF8"), ("vee", "GF9"),
        ("star3", "GF7"), ("diamondp", "GF5"), ("chain4", "GF5")])
    + _slots("z1", [
        ("diamond", "GF7"), ("star3", "GF8"), ("chain3", "GF9"), ("tri", "GF8"),
        ("diamond", "GF5"), ("chain4", "GF7"), ("vee", "GF8")])
    + _slots("b1", [
        ("diamond", "GF7"), ("star3", "GF7"), ("tri", "GF9"), ("chain3", "GF8"),
        ("diamondp", "GF5"), ("chain4", "GF5")])
)

ISO_MIXED = (
    _slots("iso-check", [
        ("diamond", "GF4"), ("diamond", "GF8"), ("diamond", "GF9"), ("tri0", "GF4"),
        ("tri0", "GF8"), ("tri", "GF9"), ("star3", "GF4"), ("vee", "GF8"),
        ("diamond", "Q"), ("tri", "Q"), ("diamondp", "Q"), ("chain4", "Q")], "pos")
    + _slots("iso-check", [
        ("diamond", "GF4"), ("diamond", "GF4"), ("diamond", "GF8"), ("diamond", "GF8"),
        ("diamond", "GF9"), ("diamond", "GF9"), ("tri0", "GF4"), ("tri0", "GF8"),
        ("tri0", "GF8"), ("tri0", "GF9"), ("tri0", "GF9")], "neg")
    + _slots("iso-check", [("diamond", "HQ"), ("tri", "HQ")], "unknown")
    + _slots("ring-arith", [("diamond", "Q"), ("chain4", "Q"), ("diamond", "HQ"),
                            ("tri", "HQ"), ("diamond", "HQ"), ("tri", "HQ")])
    + _slots("iso-check", [("tri0", "GF4"), ("vee", "GF8"), ("diamond", "GF8"),
                           ("diamond", "GF9")], "pos")
    + _slots("iso-check", [("diamond", "GF9")], "neg")
)

# Slot groups, each with its own job ids, and the workloads built from them.
# h1-wide and iso-mixed share one workload: neither runs Aut0, and with one
# workload fewer each run can be longer, which averages out more of the
# host's speed drift.
GROUPS = {"ses-small": SES_SMALL, "h1-wide": H1_WIDE, "iso-mixed": ISO_MIXED}
WORKLOADS = {"ses-small": ("ses-small",), "h1-iso": ("h1-wide", "iso-mixed")}


@dataclass
class Job:
    id: str
    slot: Slot
    instances: list                      # Instance objects, written at set-up
    extra: dict = field(default_factory=dict)


def _twist(shape, sg, domain, rng, holonomy=None):
    """A random twist; on a cycle shape over a field with Frobenius twists,
    of the class ``holonomy`` (drawn at random when None)."""
    if shape in CYCLES and domain.kind == "finite_field" and domain.k > 1:
        if holonomy is None:
            holonomy = rng.randrange(domain.k)
        return random_twist(sg, domain, rng, CYCLES[shape], holonomy)
    return random_twist(sg, domain, rng)


def _dense_unit(ring, rng):
    """A ring element with every basis coefficient nonzero, hence a unit."""
    return ring.element({s: _random_unit(ring.domain, rng) for s in ring.sg.elements})


def make_job(group, index, slot, variant):
    """The job of one slot variant; generated from its own seed string."""
    job_id = f"{group}/{index:02d}/v{variant}"
    rng = random.Random(f"{job_id}:{slot.command}:{slot.shape}:{slot.domain}:{slot.kind}")
    if slot.command == "demo":
        return Job(job_id, slot, [])
    domain = make_domain(slot.domain)
    sg = make_semigroup(slot.shape)
    if slot.kind == "demo":
        c = TwoCochain(sg, domain, alpha={"s34": RingAuto.frobenius(domain, 1)})
        return Job(job_id, slot, [Instance(domain, sg, c)])
    if slot.kind == "neg":
        # different classes; the diamond's Aut S swap negates the holonomy,
        # so -h is excluded as well as h
        k = domain.k
        h_src = rng.randrange(k)
        h_tgt = rng.choice([h for h in range(k) if h not in (h_src, -h_src % k)])
        src = _twist(slot.shape, sg, domain, rng, h_src)
        tgt = relabeled_copy(_twist(slot.shape, sg, domain, rng, h_tgt), rng)
        return Job(job_id, slot, [Instance(domain, sg, src), Instance(domain, sg, tgt)])
    c = _twist(slot.shape, sg, domain, rng)
    if slot.command == "iso-check":
        tgt = relabeled_copy(c, rng)
        return Job(job_id, slot, [Instance(domain, sg, c), Instance(domain, sg, tgt)])
    if slot.command == "ring-arith":
        ring = TwistedRing(c)
        units = [element_to_json(_dense_unit(ring, rng)) for _ in range(2)]
        return Job(job_id, slot, [Instance(domain, sg, c)], {"elements": units})
    return Job(job_id, slot, [Instance(domain, sg, c)])


def cycles_for(workload, seed):
    """``VARIANTS`` job cycles, one job per slot in slot order, that together
    hold every variant of every slot once. Cycle c of a run is
    ``cycles[c % VARIANTS]``; the seed permutes each slot's variants."""
    jobs = all_jobs(workload)
    orders = [random.Random(f"{workload}:{seed}:{i}").sample(range(VARIANTS), VARIANTS)
              for i in range(len(jobs) // VARIANTS)]
    return [[jobs[i * VARIANTS + order[c]] for i, order in enumerate(orders)]
            for c in range(VARIANTS)]


def all_jobs(workload):
    """Every job of the workload: each variant of each slot of its groups."""
    return [make_job(group, i, slot, v) for group in WORKLOADS[workload]
            for i, slot in enumerate(GROUPS[group]) for v in range(VARIANTS)]
