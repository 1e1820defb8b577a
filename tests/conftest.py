"""Shared fixtures: the diamond demo instance and seeded samplers."""

import itertools
import random

import pytest

from cocycle_forge.cochain import TwoCochain
from cocycle_forge.gauge import Gauge, act_gauge
from cocycle_forge.scalars import RingAuto, ScalarDomain, enumerate_autos, enumerate_units, random_scalar
from cocycle_forge.semigroup import SquareFreeSemigroup


def make_diamond():
    """Idempotents e1..e4, arrows e1->e2->e4 and e1->e3->e4, no nonzero
    arrow.arrow products."""
    return SquareFreeSemigroup.validate(
        ["e1", "e2", "e3", "e4"],
        [("s12", "e1", "e2"), ("s13", "e1", "e3"),
         ("s24", "e2", "e4"), ("s34", "e3", "e4")],
        {},
    )


def make_triangle():
    """Arrows a: e1->e2, b: e2->e3 with a.b = ab."""
    return SquareFreeSemigroup.validate(
        ["e1", "e2", "e3"],
        [("a", "e1", "e2"), ("b", "e2", "e3"), ("ab", "e1", "e3")],
        {("a", "b"): "ab"})


# e1 -> e2 -> e3 -> e4 with every composite arrow present, as validate's
# (idempotents, arrows, products)
CHAIN4 = (["e1", "e2", "e3", "e4"],
          [("a", "e1", "e2"), ("b", "e2", "e3"), ("c", "e3", "e4"),
           ("ab", "e1", "e3"), ("bc", "e2", "e4"), ("abc", "e1", "e4")],
          {("a", "b"): "ab", ("b", "c"): "bc", ("ab", "c"): "abc", ("a", "bc"): "abc"})


def make_chain4():
    return SquareFreeSemigroup.validate(*CHAIN4)


def make_sphere():
    """Idempotents a1, a2 < b1, b2 < c1, c2 with every arrow and
    (ai bj)(bj cl) = ai cl: 18 elements, |Aut S| = 8, and an order complex
    that is a 2-sphere, so H^2(S, K*) is nonzero."""
    arrows, products = [], {}
    for lo, hi in (("a", "b"), ("b", "c"), ("a", "c")):
        for i in "12":
            for j in "12":
                arrows.append((f"{lo}{i}{hi}{j}", f"{lo}{i}", f"{hi}{j}"))
    for i in "12":
        for j in "12":
            for m in "12":
                products[(f"a{i}b{j}", f"b{j}c{m}")] = f"a{i}c{m}"
    return SquareFreeSemigroup.validate(["a1", "a2", "b1", "b2", "c1", "c2"], arrows, products)


def face_poset(triangles):
    """The face poset of the 2-complex with the given triangles (vertex
    triples) as validate's (idempotents, arrows, products): a face "f" +
    its vertices per vertex, edge and triangle, in that order and sorted
    within each, an arrow "lo<hi" from each face to each face containing
    it, and (v < e)(e < t) = v < t for every flag."""
    triangles = sorted(tuple(sorted(t)) for t in triangles)
    vertices = sorted({(v,) for t in triangles for v in t})
    edges = sorted({e for t in triangles for e in itertools.combinations(t, 2)})
    name = {f: "f" + "".join(map(str, f)) for f in vertices + edges + triangles}
    arrows, products = [], {}
    for lo, hi in itertools.chain(itertools.product(vertices, edges),
                                  itertools.product(edges, triangles),
                                  itertools.product(vertices, triangles)):
        if set(lo) < set(hi):
            arrows.append((f"{name[lo]}<{name[hi]}", name[lo], name[hi]))
    for v, e, t in itertools.product(vertices, edges, triangles):
        if set(v) < set(e) < set(t):
            products[(f"{name[v]}<{name[e]}", f"{name[e]}<{name[t]}")] = f"{name[v]}<{name[t]}"
    return list(name.values()), arrows, products


def tetrahedron():
    """The face poset of the tetrahedron's boundary: 4 vertices, 6 edges
    and 4 triangles, 36 arrows and 24 flags."""
    return face_poset(itertools.combinations(range(4), 3))


# the 6-vertex real projective plane: 6 vertices, 15 edges and 10
# triangles, so 31 idempotents, 90 arrows and 60 flags; H^2(RP^2; Q*) is
# Q*/Q*^2
RP2_6 = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
         (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6)]

# the 7-vertex torus: the triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7,
# so 7 vertices, 21 edges and 14 triangles (42 idempotents), each edge in
# exactly two triangles; H_1 is Z^2
TORUS_7 = [t for i in range(7)
           for t in ((i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7))]


def make_demo_cocycle(domain, sg=None):
    """The demo twist: alpha is the Frobenius on s34 only, xi = 1."""
    sg = sg or make_diamond()
    return TwoCochain(sg, domain, alpha={"s34": RingAuto.frobenius(domain, 1)})


def random_gauge(sg, domain, rng):
    """A seeded random gauge; mu drawn from the automorphism list when the
    domain is enumerable, otherwise random conjugations."""
    if domain.kind == "rational_quaternion":
        mu = {e: RingAuto.inner(domain, random_scalar(domain, rng, nonzero=True))
              for e in sg.idempotents}
        eta = {s: random_scalar(domain, rng, nonzero=True) for s in sg.elements}
        return Gauge(sg, domain, mu, eta)
    autos = enumerate_autos(domain)
    if domain.kind == "finite_field":
        units = enumerate_units(domain)
        eta = {s: rng.choice(units) for s in sg.elements}
    else:
        eta = {s: random_scalar(domain, rng, nonzero=True) for s in sg.elements}
    mu = {e: rng.choice(autos) for e in sg.idempotents}
    return Gauge(sg, domain, mu, eta)


def random_relabeling_gauge(sg, domain, rng):
    """A seeded random gauge with a random phi in Aut S."""
    g = random_gauge(sg, domain, rng)
    return Gauge(sg, domain, g.mu, g.eta, rng.choice(sg.enumerate_autos()))


def random_twist(sg, domain, rng):
    """A seeded random cocycle: a random gauge applied to the trivial one,
    so alpha is nontrivial wherever the domain has automorphisms."""
    return act_gauge(random_gauge(sg, domain, rng), TwoCochain.trivial(sg, domain))


def shapes_and_domains():
    """Every (semigroup, domain) of the diamond, the triangle, chain4 and
    the sphere over GF(2)-GF(9), Q and H(Q)."""
    domains = [ScalarDomain.finite_field(p, k)
               for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
    domains += [ScalarDomain.rational(), ScalarDomain.quaternion()]
    return [(make(), domain) for make in (make_diamond, make_triangle, make_chain4, make_sphere)
            for domain in domains]


@pytest.fixture(scope="session")
def gf4():
    return ScalarDomain.finite_field(2, 2)


@pytest.fixture(scope="session")
def gf9():
    return ScalarDomain.finite_field(3, 2)


@pytest.fixture(scope="session")
def gf2():
    return ScalarDomain.finite_field(2, 1)


@pytest.fixture(scope="session")
def quat():
    return ScalarDomain.quaternion()


@pytest.fixture(scope="session")
def rat():
    return ScalarDomain.rational()


@pytest.fixture(scope="session")
def diamond():
    return make_diamond()


@pytest.fixture()
def demo_gf4(diamond, gf4):
    return make_demo_cocycle(gf4, diamond)


@pytest.fixture()
def demo_gf9(diamond, gf9):
    return make_demo_cocycle(gf9, diamond)


@pytest.fixture()
def rng():
    return random.Random(20240401)
