"""Fast paths against the brute-force oracles in oracles.py: Aut0 by
propagation against testing every candidate, B1 as a subgroup of log
vectors against one gauge per map E -> D*, the composable-pair verifier
against full products on every basis pair, and the log-coordinate listing
layer (Z1, H1, Aut0, Out R, cohomologous) against the object-level one it
replaced. `h1`, `out_r` and `verify_ses`, which read solution lattices,
are checked against partitioning the listings (`verify_ses` against
`listing_verify_ses`, clause by clause), and H1 of face posets against the
topology of their complexes."""

import itertools
import json
import random
import time
from fractions import Fraction
from functools import cache
from math import gcd

import pytest

from cocycle_forge._logs import field_logs, power
from cocycle_forge._multsolve import least, order
from cocycle_forge.cochain import TwoCochain, is_cocycle, is_normal, normalize
from cocycle_forge.cohomology import (
    aut0_enumerate, aut0_listing, b1_enumerate, b1_listing, h1, inner_triples,
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
from cocycle_forge.semigroup import SemigroupAuto, SquareFreeSemigroup

from conftest import (
    RP2_6, TORUS_7, face_poset, make_chain4, make_demo_cocycle, make_diamond, make_sphere,
    make_triangle, random_gauge,
)
from oracles import (
    _cosets, all_pairs_verify_ring_hom, brute_force_aut0, brute_force_b1, cosets,
    gauge_solutions, hom_test_aut0, listing_verify_ses, object_aut0, object_h1, object_z1,
    pack, product_aut0_logs,
)


def make_chain3():
    """e1 -> e2 -> e3 with no composite: a.b = theta."""
    return SquareFreeSemigroup.validate(
        ["e1", "e2", "e3"], [("a", "e1", "e2"), ("b", "e2", "e3")], {})


def make_two_arrows():
    """e1 -> e2 and e3 -> e4 beside an isolated e5: three components, and
    Aut S swaps the two arrows."""
    return SquareFreeSemigroup.validate(
        ["e1", "e2", "e3", "e4", "e5"], [("a", "e1", "e2"), ("b", "e3", "e4")], {})


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]

# shape and Frobenius-twisted arrows (closed under products, so alpha
# stays a cocycle)
SHAPES = {
    "diamond": (make_diamond, ["s34"]),
    "chain3": (make_chain3, ["b"]),
    "tri": (make_triangle, ["b", "ab"]),
    "chain4": (make_chain4, ["b", "ab", "bc", "abc"]),
    "two-arrows": (make_two_arrows, ["b"]),
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


@pytest.mark.parametrize("shape,p,k", [("diamond", 3, 1), ("tri", 2, 2)])
def test_aut0_rows_pin_eta_on_the_idempotents(shape, p, k):
    # the other Aut0 oracles set eta = 1 on E; here eta ranges there too,
    # so the listing's eta = 1 on E has to come from its own rows
    c = twisted_normal(shape, ScalarDomain.finite_field(p, k))
    fast = [from_logs(c.sg, c.domain, g).key() for g in aut0_listing(c)]
    assert fast == [g.key() for g in hom_test_aut0(c)]


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
        spot = key if key == ("one",) else key[:2]
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
        else:
            s, t, d = key
            slow_lhs, slow_rhs = slow_at[(s, t, one, d)]
            basis = iso.gauge.phi(iso.source.sg.compose(s, t))
            assert (lhs, rhs) == (slow_lhs.coeff(basis), slow_rhs.coeff(basis))


@pytest.mark.parametrize("shape", ["diamond", "chain3", "tri", "chain4"])
@pytest.mark.parametrize("p,k", FIELDS)
def test_coset_orders_over_shapes(shape, p, k):
    c = twisted_normal(shape, ScalarDomain.finite_field(p, k))
    ses = verify_ses(c)
    assert ses.ok
    o = ses.orders
    assert o["z1"] == o["b1"] * o["h1"]
    assert o["aut0"] == o["inn0"] * o["out_r"]
    assert o["out_r"] == o["h1"] * o["stab"]
    # the orders verify_ses reports are those of h1 and out_r
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
    # mu comes from solving its rows mod k; the first witness must be the
    # one a search over all of Aut(D)^E in product order finds first
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


@pytest.mark.parametrize("case", ["alpha-on-an-idempotent", "demo-twist"])
def test_cohomologous_refuses_on_mu_alone(case, monkeypatch):
    # the two refusals the mu rows decide before any eta relation is built:
    # alpha on an idempotent leaves a row with no coefficient and a nonzero
    # right-hand side, and the demo twist asks mu to differ by 1 between
    # the two paths around the diamond
    from cocycle_forge import gauge

    dom = ScalarDomain.finite_field(2, 3)
    sg = make_diamond()
    if case == "demo-twist":
        source = make_demo_cocycle(dom, sg)
    else:
        source = TwoCochain(sg, dom, alpha={"e2": RingAuto.frobenius(dom, 1)})
    target = TwoCochain.trivial(sg, dom)
    assert next(gauge_solutions(source, target), None) is None
    calls = []
    monkeypatch.setattr(gauge, "_gauge_constraints", lambda *a: calls.append(a) or [])
    assert cohomologous(source, target) is None
    assert calls == []


# pair_sides calls of aut0_listing: (by a pass that probes the arrow pairs
# of each surviving mu again, by one that probes each pair once per
# (phi, mu))
PROBE_CALLS = {
    ("demo", 2, 2): (152, 120), ("demo", 2, 3): (192, 168), ("demo", 3, 2): (152, 120),
    ("chain4", 2, 2): (116, 92), ("chain4", 2, 3): (192, 156), ("chain4", 3, 2): (116, 92),
    ("tri", 2, 2): (60, 48), ("tri", 2, 3): (102, 84), ("tri", 3, 2): (60, 48),
}


@pytest.mark.parametrize("shape,p,k", sorted(PROBE_CALLS))
def test_aut0_probes_each_pair_once(shape, p, k, monkeypatch):
    from cocycle_forge import cohomology

    dom = ScalarDomain.finite_field(p, k)
    c = make_demo_cocycle(dom) if shape == "demo" else twisted_normal(shape, dom)
    calls = []
    pair_sides = cohomology.pair_sides
    monkeypatch.setattr(cohomology, "pair_sides", lambda *a: calls.append(a) or pair_sides(*a))
    assert cohomology.aut0_listing(c) == product_aut0_logs(c)
    twice, once = PROBE_CALLS[(shape, p, k)]
    assert len(calls) == once < twice


def test_oracles_use_no_private_route_helper():
    # the oracles check the Z1 and Aut0 routes, so they may not build their
    # relations with those routes' own helpers
    import ast
    from pathlib import Path

    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    borrowed = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module in ("cocycle_forge.cohomology", "cocycle_forge.gauge")
                for alias in node.names if alias.name.startswith("_")]
    assert borrowed == []


# -- h1 and out_r on lattices against the listing route ---------------------------


def _sphere():
    # the Frobenius on the arrows into the c's: a_(ai bj) + a_(bj cl) = a_(ai cl)
    return make_sphere(), [s for s in make_sphere().arrows() if s[2] == "c"]


# shapes for the lattice routes: SHAPES, the sphere, one idempotent and
# three idempotents with no arrow
LATTICE_SHAPES = {
    **{name: (lambda make=make, frob=frob: (make(), frob)) for name, (make, frob) in SHAPES.items()},
    "sphere": _sphere,
    "one-idempotent": lambda: (SquareFreeSemigroup.validate(["e"], [], {}), []),
    "arrowless": lambda: (SquareFreeSemigroup.validate(["e1", "e2", "e3"], [], {}), []),
}
SMALL = [(2, 1), (3, 1), (2, 2), (5, 1)]
WIDE = FIELDS + [(11, 1), (13, 1)]
# (shape, fields) where listing Z1 and Aut0 takes about a second or less
LATTICE_CASES = (
    [("diamond", f) for f in WIDE] + [("sphere", f) for f in SMALL]
    + [(name, f) for name in ("tri", "chain3", "chain4", "two-arrows", "one-idempotent",
                              "arrowless") for f in WIDE + [(2, 4)]]
)


def random_normal_twist(shape, domain, seed):
    """The shape's Frobenius twist (k > 1) moved by a seeded random gauge,
    then normalized."""
    sg, frob = LATTICE_SHAPES[shape]()
    alpha = {s: RingAuto.frobenius(domain, 1) for s in frob} if domain.k > 1 else {}
    c, _ = normalize(act_gauge(random_gauge(sg, domain, random.Random(seed)),
                               TwoCochain(sg, domain, alpha=alpha)))
    return c


def listing_h1(c):
    """(|Z1|, |B1|, representatives, table) by partitioning the Z1 listing
    into B1-cosets, in log coordinates, each product of representatives
    taken through Gauge.compose."""
    z1, b1 = z1_listing(c), b1_listing(c)
    coset_of, reps = _cosets(c, z1, b1)
    gauges = [from_logs(c.sg, c.domain, g) for g in reps]
    return (len(z1), len(b1), reps,
            [[coset_of[pack(a.compose(b))] for b in gauges] for a in gauges])


def listing_out_r(c):
    """(|Aut0|, |Inn0|, |Out R|, phi image) by partitioning the Aut0
    listing into B1-cosets."""
    aut0, b1 = aut0_listing(c), b1_listing(c)
    _, reps = _cosets(c, aut0, b1)
    return len(aut0), len(b1), len(reps), sorted({g[2] for g in aut0}, key=SemigroupAuto.sort_key)


def assert_h1_matches(c, want):
    z1, b1, reps, table = want
    rep = h1(c)
    assert (rep.z1_order, rep.b1_order, rep.h1_order) == (z1, b1, len(reps))
    assert [g.key() for g in rep.h1_cosets] == [from_logs(c.sg, c.domain, g).key() for g in reps]
    assert rep.coset_table == table


def assert_out_r_matches(c, want):
    rep = out_r(c)
    assert (rep.aut0_order, rep.inn0_order, rep.out_order, rep.phi_image) == want


@pytest.mark.parametrize("shape,p,k", [(shape, p, k) for shape, (p, k) in LATTICE_CASES])
def test_h1_and_out_r_match_the_listing_route(shape, p, k):
    dom = ScalarDomain.finite_field(p, k)
    for seed in (f"{shape}-{p}-{k}-a", f"{shape}-{p}-{k}-b"):
        c = random_normal_twist(shape, dom, seed)
        assert_h1_matches(c, listing_h1(c))
        assert_out_r_matches(c, listing_out_r(c))


def test_the_lattice_routes_have_teeth(monkeypatch):
    # a least that keeps x, or a B1 short of one column, must show
    from cocycle_forge import cohomology

    c = random_normal_twist("diamond", ScalarDomain.finite_field(3, 2), "teeth")
    want_h1, want_out = listing_h1(c), listing_out_r(c)
    assert_h1_matches(c, want_h1)
    assert_out_r_matches(c, want_out)
    with monkeypatch.context() as m:
        m.setattr(cohomology, "least", lambda x, *_: tuple(x))
        with pytest.raises((AssertionError, KeyError)):
            assert_h1_matches(c, want_h1)
    columns = cohomology._b1_columns
    monkeypatch.setattr(cohomology, "_b1_columns", lambda c: columns(c)[:-1])
    with pytest.raises(AssertionError):
        assert_h1_matches(c, want_h1)
    with pytest.raises(AssertionError):
        assert_out_r_matches(c, want_out)


# -- verify_ses on lattices against the listing route -----------------------------


def assert_ses_matches(c):
    got, want = verify_ses(c), listing_verify_ses(c)
    assert (got.ok, got.orders) == (want.ok, want.orders)
    assert [(cl.name, cl.ok, cl.detail) for cl in got.clauses] == [
        (cl.name, cl.ok, cl.detail) for cl in want.clauses]
    return got


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("p,k", FIELDS)
def test_verify_ses_matches_the_listing_route(shape, p, k):
    assert assert_ses_matches(twisted_normal(shape, ScalarDomain.finite_field(p, k))).ok


@pytest.mark.parametrize("shape,p,k", [
    (shape, p, k) for shape in ("diamond", "tri", "chain4", "sphere") for p, k in
    [(2, 2), (2, 3), (3, 2)]] + [("chain3", 2, 4), ("tri", 2, 4)])
def test_verify_ses_on_twisted_alpha_matches_the_listing_route(shape, p, k):
    # the shape's Frobenius twist on alpha, moved by a seeded gauge
    c = random_normal_twist(shape, ScalarDomain.finite_field(p, k), f"ses-{shape}-{p}-{k}")
    assert any(power(a) for a in c.alpha.values())
    assert assert_ses_matches(c).ok


@pytest.mark.parametrize("case", ["demo-gf4", "demo-gf9", "sphere-gf2", "sphere-gf3",
                                  "sphere-gf4"])
def test_verify_ses_on_the_fixtures_matches_the_listing_route(case):
    name, field = case.split("-")
    p, k = {"gf2": (2, 1), "gf3": (3, 1), "gf4": (2, 2), "gf9": (3, 2)}[field]
    dom = ScalarDomain.finite_field(p, k)
    c = make_demo_cocycle(dom) if name == "demo" else TwoCochain.trivial(make_sphere(), dom)
    assert assert_ses_matches(c).ok


def _arrow_pair(sg):
    """A composable pair of two arrows, or else an arrow and its target."""
    pairs = [(s, t) for s, t, _ in sg.composable().pairs if not sg.is_idempotent(s)]
    return next(((s, t) for s, t in pairs if not sg.is_idempotent(t)), pairs[0])


def _corrupt_probe_pair(monkeypatch, c):
    """pair_sides with the left side scaled by a generator on one
    composable arrow pair, for every probe: the probe route then asks eta
    for another value there."""
    from cocycle_forge import cohomology

    g, pair = c.domain.generator(), _arrow_pair(c.sg)
    pair_sides = cohomology.pair_sides

    def corrupted(c_src, c_tgt, mu, eta, phi, s, t, d):
        lhs, rhs = pair_sides(c_src, c_tgt, mu, eta, phi, s, t, d)
        return (lhs * g, rhs) if (s, t) == pair else (lhs, rhs)

    monkeypatch.setattr(cohomology, "pair_sides", corrupted)


def _corrupt_gauge_pair(monkeypatch, c):
    """_gauge_constraints with the value asked on one composable arrow pair
    scaled by a generator: the gauge route's fibers move."""
    from cocycle_forge import gauge

    g, pair = c.domain.generator(), _arrow_pair(c.sg)
    constraints = gauge._gauge_constraints

    def corrupted(c1, c2, mu):
        return [(s, t, st, a, u * g if (s, t) == pair else u)
                for s, t, st, a, u in constraints(c1, c2, mu)]

    monkeypatch.setattr(gauge, "_gauge_constraints", corrupted)


def _failing(report):
    return {cl.name for cl in report.clauses if cl.ok is False}


@pytest.mark.parametrize("corrupt", [_corrupt_probe_pair, _corrupt_gauge_pair],
                         ids=["probe-route", "gauge-route"])
@pytest.mark.parametrize("shape,p,k", [("demo", 2, 2), ("demo", 3, 2), ("demo", 5, 1),
                                       ("tri", 2, 2), ("chain4", 3, 1)])
def test_verify_ses_has_teeth(corrupt, shape, p, k, monkeypatch):
    # on the demo no two arrows compose, so the arrow s and its target
    # are corrupted; on the triangle and chain4 two arrows
    dom = ScalarDomain.finite_field(p, k)
    c = make_demo_cocycle(dom) if shape == "demo" else twisted_normal(shape, dom)
    assert verify_ses(c).ok
    corrupt(monkeypatch, c)
    report = verify_ses(c)
    assert not report.ok
    if corrupt is _corrupt_probe_pair:
        assert _failing(report) & {"lambda_injective", "image_lambda_is_kernel_phi"}
    else:
        assert _failing(report)


def _same_lattice(a, b, n, classes):
    """Whether two triangular bases span the same lattice mod n: equal
    orders, and each vector of a lies in the lattice of b."""
    zero = least((0,) * len(a), b, n, classes)
    return order(a, n) == order(b, n) and all(
        least([v.get(j, 0) % n for j in range(len(a))], b, n, classes) == zero for v in a)


@pytest.mark.parametrize("case", [
    *(f"{shape}-{p}-{k}" for shape in sorted(SHAPES) for p, k in FIELDS),
    "demo-2-2", "demo-3-2", "demo-5-2", "sphere-2-2", "sphere-3-2"])
def test_one_kernel_serves_every_phi(case):
    # the probe rows of phi are the phi = id rows relabelled by phi, so
    # their kernel is L relabelled: x o phi^{-1} in L
    from cocycle_forge._logs import system
    from cocycle_forge._multsolve import triangular
    from cocycle_forge.cohomology import _aut0_fibers

    name, p, k = case.rsplit("-", 2)
    dom = ScalarDomain.finite_field(int(p), int(k))
    if name == "demo":
        c = make_demo_cocycle(dom)
    elif name == "sphere":
        c = random_normal_twist("sphere", dom, case)
    else:
        c = twisted_normal(name, dom)
    sg, logs = c.sg, field_logs(dom)
    n, size = logs.n, len(sg.elements)
    pos = {s: j for j, s in enumerate(sg.elements)}
    one = dom.one()

    def probe_rows(phi):
        return [(s, t, sg.compose(s, t), c.alpha_at(phi(s)), one) for s, t in sg.tuples(2)]

    ident = SemigroupAuto.identity(sg)
    lattice = system(sg, logs, probe_rows(ident))[0].kernel
    # the route's rows are these, whatever mu
    for phi, _, fiber, _ in _aut0_fibers(c):
        assert fiber.matrix == system(sg, logs, probe_rows(phi))[0].matrix
    for phi in sg.enumerate_autos():
        kernel = system(sg, logs, probe_rows(phi))[0].kernel
        relabelled = triangular([{pos[s]: y[pos[phi(s)]] for s in sg.elements
                                  if pos[phi(s)] in y} for y in lattice], size, n)
        assert order(kernel, n) == order(lattice, n)
        assert _same_lattice(kernel, relabelled, n, logs.classes)
        assert _same_lattice(relabelled, kernel, n, logs.classes)


# (shape, p, k): the orders, with verify_ses under a second where listing
# took 13.5 s (GF(25) diamond) and 15.7 s (sphere over GF(9))
SES_REACH = {
    ("demo", 5, 2): {"aut_s": 2, "z1": 663552, "b1": 82944, "h1": 8, "aut0": 1327104,
                     "inn0": 82944, "out_r": 16, "stab": 2},
    ("sphere", 3, 2): {"aut_s": 8, "z1": 65536, "b1": 32768, "h1": 2, "aut0": 524288,
                       "inn0": 32768, "out_r": 16, "stab": 8},
}


@pytest.mark.parametrize("shape,p,k", [("demo", 5, 2), ("sphere", 3, 2), ("demo", 3, 3),
                                       ("demo", 7, 2), ("demo", 3, 4), ("sphere", 5, 2)])
def test_verify_ses_reaches_past_listing(shape, p, k):
    dom = ScalarDomain.finite_field(p, k)
    c = make_demo_cocycle(dom) if shape == "demo" else TwoCochain.trivial(make_sphere(), dom)
    start = time.perf_counter()
    report = verify_ses(c)
    assert time.perf_counter() - start < 1
    assert report.ok
    o = report.orders
    if (shape, p, k) in SES_REACH:
        assert o == SES_REACH[shape, p, k]
    rep, outer = h1(c), out_r(c)
    assert (o["z1"], o["b1"], o["h1"]) == (rep.z1_order, rep.b1_order, rep.h1_order)
    assert ((o["aut0"], o["inn0"], o["out_r"])
            == (outer.aut0_order, outer.inn0_order, outer.out_order))
    assert o["out_r"] == o["h1"] * o["stab"] and o["z1"] == o["b1"] * o["h1"]


@cache
def face_poset_semigroup(name):
    triangles = {"tetrahedron": itertools.combinations(range(4), 3),
                 "RP2": RP2_6, "torus": TORUS_7}[name]
    return SquareFreeSemigroup.validate(*face_poset(triangles))


# |Hom(H_1, Z/n)| of the 2-sphere, RP^2 and the torus
HOMS = {"tetrahedron": lambda n: 1, "RP2": lambda n: gcd(2, n), "torus": lambda n: n * n}


@pytest.mark.parametrize("name,p,k", [
    (name, p, k) for name in ("tetrahedron", "RP2") for p, k in FIELDS]
    + [("torus", p, k) for p, k in FIELDS[:5]])
def test_h1_of_a_face_poset_is_its_topology(name, p, k):
    # for the trivial twist H1 is Hom(H_1(N(S)), Z/(q-1)) x Z/k on a
    # connected complex (Stanley; Gerstenhaber & Schack)
    sg = face_poset_semigroup(name)
    rep = h1(TwoCochain.trivial(sg, ScalarDomain.finite_field(p, k)))
    assert rep.h1_order == HOMS[name](p ** k - 1) * k
    assert rep.z1_order == rep.b1_order * rep.h1_order
    assert len(rep.coset_table) == rep.h1_order


@pytest.mark.parametrize("p,k,h1_orders,out_r_orders", [
    (5, 2, (663552, 82944, 8), (1327104, 82944, 16)),
    (3, 3, (1370928, 228488, 6), None),
])
def test_baseline_diamond_orders_without_listing(p, k, h1_orders, out_r_orders):
    # listing took 3.9 s (GF(25) h1), 9.6 s (GF(25) out_r) and 8.6 s
    # (GF(27) h1); the lattices take milliseconds
    c = make_demo_cocycle(ScalarDomain.finite_field(p, k))
    start = time.perf_counter()
    rep = h1(c)
    assert time.perf_counter() - start < 1
    assert (rep.z1_order, rep.b1_order, rep.h1_order) == h1_orders
    if out_r_orders:
        start = time.perf_counter()
        outer = out_r(c)
        assert time.perf_counter() - start < 1
        assert (outer.aut0_order, outer.inn0_order, outer.out_order) == out_r_orders


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


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1)])
def test_gauge_list_text_in_any_order(shape, p, k):
    # the writer keeps the eta text of the last gauge's prefixes; a list
    # out of sort order shares few prefixes, and none with an empty or
    # one-element list
    c = twisted_normal(shape, ScalarDomain.finite_field(p, k))
    rng = random.Random(f"writer-{shape}-{p}-{k}")
    for field, group, witnesses in (("elements", z1_listing(c), False),
                                    ("triples", aut0_listing(c), True)):
        for order in ([], group[-1:], group[::-1], rng.sample(group, len(group))):
            assert_writer_matches(c, field, order, witnesses)


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
