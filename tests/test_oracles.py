"""Fast paths against the brute-force oracles in oracles.py: Aut0 by
propagation against testing every candidate, B1 built once per distinct
image against one gauge per map E -> D*, and the composable-pair verifier
against full products on every basis pair."""

import itertools
import random

import pytest

from cocycle_forge.cochain import TwoCochain, is_cocycle, is_normal, normalize
from cocycle_forge.cohomology import (
    aut0_enumerate, b1_enumerate, inner_triples, out_r, verify_ses,
)
from cocycle_forge.gauge import Gauge, act_gauge
from cocycle_forge.ring import (
    RingIso, TwistedRing, _scalar_samples, build_iso, identity_iso, verify_ring_hom,
)
from cocycle_forge.scalars import RingAuto, ScalarDomain, enumerate_autos
from cocycle_forge.semigroup import SquareFreeSemigroup

from conftest import make_chain4, make_demo_cocycle, make_diamond, make_triangle, random_gauge
from oracles import all_pairs_verify_ring_hom, brute_force_aut0, brute_force_b1


def make_chain3():
    """e1 -> e2 -> e3 with no composite: a.b = theta."""
    return SquareFreeSemigroup.validate(
        ["e1", "e2", "e3"], [("a", "e1", "e2"), ("b", "e2", "e3")], {})


# shape and Frobenius-twisted arrows (closed under products, so alpha
# stays a cocycle)
SHAPES = {
    "diamond": (make_diamond, ["s34"]),
    "chain3": (make_chain3, ["b"]),
    "tri": (make_triangle, ["b", "ab"]),
    "chain4": (make_chain4, ["b", "ab", "bc", "abc"]),
}


def twisted_normal(shape, domain):
    """A normal cocycle over the shape: the Frobenius twist (k > 1) moved by
    the first of eight seeded random gauges that leaves xi nontrivial after
    normalization, or by the last one."""
    make, frob = SHAPES[shape]
    sg = make()
    alpha = {s: RingAuto.frobenius(domain, 1) for s in frob} if domain.k > 1 else {}
    base = TwoCochain(sg, domain, alpha=alpha)
    for seed in range(1, 9):
        c, _ = normalize(act_gauge(random_gauge(sg, domain, random.Random(seed)), base))
        if c.xi:
            break
    assert is_cocycle(c).ok and is_normal(c)
    return c


@pytest.mark.parametrize("shape,p,k", [
    ("diamond", 2, 1), ("diamond", 2, 2),
    ("tri", 2, 1), ("tri", 3, 1), ("tri", 2, 2),
    ("chain4", 2, 1), ("chain4", 3, 1), ("chain4", 2, 2),
    ("chain3", 3, 2), ("tri", 3, 2),
])
def test_aut0_matches_brute_force(shape, p, k):
    c = twisted_normal(shape, ScalarDomain.finite_field(p, k))
    fast = aut0_enumerate(c)
    assert fast
    assert [t.key() for t in fast] == [t.key() for t in brute_force_aut0(c)]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_b1_matches_brute_force(shape, p, k):
    c = twisted_normal(shape, ScalarDomain.finite_field(p, k))
    fast = b1_enumerate(c)
    assert fast
    assert [g.key() for g in fast] == [g.key() for g in brute_force_b1(c)]


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2),
                                 (5, 2), (3, 3)])
def test_aut0_probe_set_is_complete(p, k):
    # For fixed (phi, mu) the probe ratio L / R of a pair does not depend on
    # d1, and depends on d2 only through mu_e o alpha_s and
    # alpha_{phi(s)} o mu_f at d2. Probing d2 in {1, x} therefore decides
    # the pair for every d2 once x generates GF(p^k) over F_p: field
    # automorphisms fix F_p, so two that agree on x agree everywhere.
    field = ScalarDomain.finite_field(p, k)
    x = field.generator()
    samples = _scalar_samples(field, 0)
    assert field.one() in samples and x in samples
    powers = [x ** i for i in range(k)]
    span = {sum((field.scalar(coef) * xi for coef, xi in zip(coefs, powers)), field.zero())
            for coefs in itertools.product(range(p), repeat=k)}
    assert len(span) == p ** k
    autos = enumerate_autos(field)
    assert len(autos) == k
    assert len({a(x) for a in autos}) == k


# -- the verifier ----------------------------------------------------------------


def _corrupted(iso, eta=None, mu=None):
    g = iso.gauge
    return RingIso(iso.source, iso.target,
                   Gauge(g.sg, g.domain, {**g.mu, **(mu or {})},
                         {**g.eta, **(eta or {})}, g.phi))


def _verifier_cases():
    rng = random.Random(11)
    gf4 = ScalarDomain.finite_field(2, 2)
    cases = []
    for dom in (gf4, ScalarDomain.rational(), ScalarDomain.quaternion()):
        diamond = make_diamond()
        base = make_demo_cocycle(dom, diamond) if dom is gf4 else TwoCochain.trivial(diamond, dom)
        g = random_gauge(diamond, dom, rng)
        isos = {"gauged": build_iso(act_gauge(g, base), base, g)}
        # the triangle of test_corrupted_eta_fails_verification
        tri = identity_iso(TwistedRing(TwoCochain.trivial(make_triangle(), dom)))
        isos["identity"] = tri
        isos["eta(a)"] = _corrupted(tri, eta={"a": dom.generator()})
        isos["eta(e1)"] = _corrupted(tri, eta={"e1": dom.generator()})
        if dom.kind != "rational":
            twist = (RingAuto.frobenius(dom, 1) if dom is gf4
                     else RingAuto.inner(dom, dom.scalar([1, 1, 0, 0])))
            isos["mu(e2)"] = _corrupted(tri, mu={"e2": twist})
        cases += [pytest.param(label, iso, id=f"{dom.kind}-{label}")
                  for label, iso in isos.items()]
    # the ten seeded gauges of test_fast_and_full_hom_checks_agree
    diamond = make_diamond()
    base = make_demo_cocycle(gf4, diamond)
    demo_rng = random.Random(20240401)
    for i in range(10):
        g = random_gauge(diamond, gf4, demo_rng)
        iso = build_iso(act_gauge(g, base), base, g)
        cases.append(pytest.param("gauged", iso, id=f"demo-gauged-{i}"))
    return cases


@pytest.mark.parametrize("label,iso", _verifier_cases())
def test_verifier_matches_all_pairs_oracle(label, iso):
    fast = verify_ring_hom(iso)
    slow = all_pairs_verify_ring_hom(iso)
    assert fast.ok == slow.ok == (label in ("gauged", "identity"))
    assert [f[0] for f in fast.failures] == [f[0] for f in slow.failures]
    for (key, lhs, rhs), (_, slow_lhs, slow_rhs) in zip(fast.failures, slow.failures):
        if len(key) == 4:
            basis = iso.gauge.phi(iso.source.sg.compose(key[0], key[1]))
            assert (lhs, rhs) == (slow_lhs.coeff(basis), slow_rhs.coeff(basis))
        else:
            assert (lhs, rhs) == (slow_lhs, slow_rhs)


@pytest.mark.parametrize("shape", ["diamond", "chain3", "tri", "chain4"])
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_coset_orders_over_shapes(shape, p, k):
    c = twisted_normal(shape, ScalarDomain.finite_field(p, k))
    ses = verify_ses(c)
    assert ses.ok
    o = ses.orders
    assert o["z1"] == o["b1"] * o["h1"]
    assert o["aut0"] == o["inn0"] * o["out_r"]
    assert o["out_r"] == o["h1"] * o["stab"]
    assert out_r(c).out_order == o["out_r"]


@pytest.mark.parametrize("shape", ["diamond", "chain3", "tri", "chain4"])
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_inner_triples_come_sorted(shape, p, k):
    # Inn0 is the sorted B1 itself, so no re-sort is needed
    inn = inner_triples(twisted_normal(shape, ScalarDomain.finite_field(p, k)))
    assert inn == sorted(inn, key=Gauge.sort_key)
