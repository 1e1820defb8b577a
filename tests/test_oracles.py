"""Fast paths against the brute-force oracles in oracles.py: Aut0 by
propagation against testing every candidate, B1 as a subgroup of log
vectors against one gauge per map E -> D*, the composable-pair verifier
against full products on every basis pair, and the log-coordinate listing
layer (Z1, H1, Aut0, Out R, cohomologous) against the object-level one it
replaced."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from cocycle_forge.cochain import TwoCochain, is_cocycle, is_normal, normalize
from cocycle_forge.cohomology import (
    _cosets, aut0_enumerate, aut0_listing, b1_enumerate, b1_listing, h1, inner_triples,
    out_r, verify_ses, z1_enumerate, z1_listing,
)
from cocycle_forge.gauge import (
    Gauge, act_gauge, act_phi, cohomologous, from_logs, gauge_list_text, gauge_to_json,
)
from cocycle_forge.instances import witness_to_json
from cocycle_forge.ring import (
    RingIso, TwistedRing, _probes, build_iso, identity_iso, verify_ring_hom,
)
from cocycle_forge.scalars import RingAuto, ScalarDomain, enumerate_autos, random_scalar
from cocycle_forge.semigroup import SquareFreeSemigroup

from conftest import make_chain4, make_demo_cocycle, make_diamond, make_triangle, random_gauge
from oracles import (
    all_pairs_verify_ring_hom, brute_force_aut0, brute_force_b1, cosets, gauge_solutions,
    object_aut0, object_h1, object_z1,
)


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


@pytest.mark.parametrize("dom", [
    *(pytest.param(ScalarDomain.finite_field(p, k), id=f"{p}-{k}")
      for p, k in [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]),
    pytest.param(ScalarDomain.rational(), id="Q"),
    pytest.param(ScalarDomain.quaternion(), id="H(Q)"),
])
def test_aut0_probe_set_is_complete(dom):
    # The one probe set of the Aut0 search and the hom verifier. For fixed
    # (phi, mu) a pair's check does not depend on d1, and at d2 it compares
    # two ring automorphisms of D. Those fix the prime field, so the probes
    # 1 plus generators of D over its prime field decide the pair for every
    # d2 (see ring._probes).
    one = dom.one()
    probes = _probes(dom)
    if dom.kind == "rational" or dom.k == 1:
        # the prime field itself: its only automorphism is the identity
        assert probes == [one]
        assert enumerate_autos(dom) == [RingAuto.identity(dom)]
    elif dom.kind == "finite_field":
        p, k = dom.p, dom.k
        x = dom.generator()
        assert probes == [one, x]
        powers = [x ** i for i in range(k)]
        span = {sum((dom.scalar(coef) * xi for coef, xi in zip(coefs, powers)), dom.zero())
                for coefs in itertools.product(range(p), repeat=k)}
        assert len(span) == p ** k
        autos = enumerate_autos(dom)
        assert len(autos) == k
        assert len({a(x) for a in autos}) == k
    else:
        i, j = dom.scalar([0, 1, 0, 0]), dom.scalar([0, 0, 1, 0])
        assert probes == [one, i, j]
        # every automorphism of H(Q) is inner; d and c.d conjugate alike
        # for rational c, unrelated units do not, and the probes must tell
        # the two kinds of pair apart exactly as seeded quaternions do
        rng = random.Random(8)

        def conj(d):
            return lambda x: d * x * d.inv()

        points = [random_scalar(dom, rng) for _ in range(20)]
        kinds = set()
        for n in range(40):
            d = random_scalar(dom, rng, nonzero=True)
            c = (dom.scalar(Fraction(rng.randint(1, 9), rng.randint(1, 9))) if n % 2
                 else random_scalar(dom, rng, nonzero=True))
            a, b = conj(d), conj(c * d)
            agree = all(a(x) == b(x) for x in probes)
            assert agree == all(a(x) == b(x) for x in points)
            kinds.add(agree)
        assert kinds == {True, False}
        # conjugation by 1 + i fixes 1 and i; only j tells it from the identity
        r = conj(dom.scalar([1, 1, 0, 0]))
        assert r(one) == one and r(i) == i and r(j) != j


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


def _failing_spots(failures):
    """("one",) and the failing pairs (s, t), in order of first failure."""
    spots = []
    for key, _, _ in failures:
        spot = key if key == ("one",) else key[1:] if key[0] == "product" else key[:2]
        if spot not in spots:
            spots.append(spot)
    return spots


@pytest.mark.parametrize("label,iso", _verifier_cases())
def test_verifier_matches_all_pairs_oracle(label, iso):
    # the verifier checks (1 s)(d t) for d over the fixed probes, the
    # oracle (d1 s)(d2 t) over a broader sample: the failing pairs must
    # agree, and each probe failure is the oracle's entry at (s, t, 1, d)
    fast = verify_ring_hom(iso)
    slow = all_pairs_verify_ring_hom(iso)
    assert fast.ok == slow.ok == (label in ("gauged", "identity"))
    assert _failing_spots(fast.failures) == _failing_spots(slow.failures)
    one = iso.source.domain.one()
    slow_at = {key: (lhs, rhs) for key, lhs, rhs in slow.failures}
    for key, lhs, rhs in fast.failures:
        if key == ("one",):
            assert (lhs, rhs) == slow_at[key]
        elif key[0] != "product":
            s, t, d = key
            slow_lhs, slow_rhs = slow_at[(s, t, one, d)]
            basis = iso.gauge.phi(iso.source.sg.compose(s, t))
            assert (lhs, rhs) == (slow_lhs.coeff(basis), slow_rhs.coeff(basis))


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
    # verify_ses reads the listings directly, not through h1 and out_r
    rep, outer = h1(c), out_r(c)
    assert (o["z1"], o["b1"], o["h1"]) == (rep.z1_order, rep.b1_order, rep.h1_order)
    assert ((o["aut0"], o["inn0"], o["out_r"])
            == (outer.aut0_order, outer.inn0_order, outer.out_order))


@pytest.mark.parametrize("shape", ["diamond", "chain3", "tri", "chain4"])
@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_inner_triples_come_sorted(shape, p, k):
    # Inn0 is the sorted B1 itself, so no re-sort is needed
    inn = inner_triples(twisted_normal(shape, ScalarDomain.finite_field(p, k)))
    assert inn == sorted(inn, key=Gauge.sort_key)


# -- the log-coordinate listing layer against the object-level one ----------------

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("p,k", FIELDS)
def test_z1_and_h1_match_object_oracles(shape, p, k):
    c = twisted_normal(shape, ScalarDomain.finite_field(p, k))
    z1 = z1_enumerate(c)
    assert [g.key() for g in z1] == [g.key() for g in object_z1(c)]
    rep = h1(c)
    reps, table = object_h1(c)
    assert [g.key() for g in rep.h1_cosets] == [g.key() for g in reps]
    assert rep.coset_table == table
    assert (rep.z1_order, rep.b1_order) == (len(z1), len(b1_enumerate(c)))


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("p,k", FIELDS)
def test_aut0_and_out_r_match_object_oracles(shape, p, k):
    c = twisted_normal(shape, ScalarDomain.finite_field(p, k))
    aut0 = aut0_enumerate(c)
    expected = object_aut0(c)
    assert [t.key() for t in aut0] == [t.key() for t in expected]
    coset_of, reps = cosets(expected, brute_force_b1(c))
    logs_of, _ = _cosets(c, aut0_listing(c), b1_listing(c))
    assert {from_logs(c.sg, c.domain, g): i for g, i in logs_of.items()} == coset_of
    report = out_r(c)
    assert report.out_order == len(reps)
    assert (report.aut0_order, report.inn0_order) == (len(aut0), len(b1_enumerate(c)))


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2)])
def test_cohomologous_returns_the_first_witness(shape, p, k):
    # mu is chosen per connected component now; the first witness must be
    # the one a search over all of Aut(D)^E in product order finds first
    dom = ScalarDomain.finite_field(p, k)
    c = twisted_normal(shape, dom)
    sg = c.sg
    rng = random.Random(f"{shape}{p}{k}")
    targets = [c, TwoCochain.trivial(sg, dom)]
    targets += [act_gauge(random_gauge(sg, dom, rng), c) for _ in range(3)]
    targets += [act_phi(phi, c) for phi in sg.enumerate_autos()]
    found = 0
    for target in targets:
        got = cohomologous(c, target)
        want = next(gauge_solutions(c, target), None)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.key() == want.key()
            found += 1
    assert found >= 4



# -- the gauge-list writer against json.dumps of the dict tree -------------------


def assert_writer_matches(c, field, group, witnesses=False):
    sg, dom = c.sg, c.domain
    to_json = witness_to_json if witnesses else gauge_to_json
    want = json.dumps({"order": len(group),
                       field: [to_json(from_logs(sg, dom, g)) for g in group]},
                      indent=2, sort_keys=True)
    assert gauge_list_text(sg, dom, field, group, witnesses) == want


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("p,k", FIELDS)
def test_gauge_list_text_matches_json_dumps(shape, p, k):
    c = twisted_normal(shape, ScalarDomain.finite_field(p, k))
    z1, b1, aut0 = z1_listing(c), b1_listing(c), aut0_listing(c)
    assert_writer_matches(c, "elements", z1)
    assert_writer_matches(c, "elements", b1)
    assert_writer_matches(c, "triples", aut0, witnesses=True)
    assert_writer_matches(c, "elements", [])
    # the identity gauge, with no mu and no eta entries, is in each list
    assert any(not any(mu) and not any(x) for mu, x, _ in z1)
    if k > 1:
        assert any(any(mu) for mu, _, _ in z1 + aut0)


def test_gauge_list_text_with_relabelings():
    c = make_demo_cocycle(ScalarDomain.finite_field(2, 2))
    aut0 = aut0_listing(c)
    assert {phi.is_identity() for _, _, phi in aut0} == {True, False}
    assert_writer_matches(c, "triples", aut0, witnesses=True)


def test_gauge_list_text_escapes_names():
    # the diamond with names JSON must escape: a quote, a backslash, non-ASCII
    dom = ScalarDomain.finite_field(2, 2)
    sg = SquareFreeSemigroup.validate(
        ['e"1', "e\\2", "\u00e93", "e4"],
        [('s"12', 'e"1', "e\\2"), ("s\\13", 'e"1', "\u00e93"),
         ("\u00df24", "e\\2", "e4"), ("s34", "\u00e93", "e4")],
        {})
    c = TwoCochain(sg, dom, alpha={"s34": RingAuto.frobenius(dom, 1)})
    z1, aut0 = z1_listing(c), aut0_listing(c)
    assert any(phi.mapping["e\\2"] == "\u00e93" for _, _, phi in aut0)
    assert_writer_matches(c, "elements", z1)
    assert_writer_matches(c, "triples", aut0, witnesses=True)
    assert '"e\\"1"' in gauge_list_text(sg, dom, "elements", z1)
