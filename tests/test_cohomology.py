"""Z1/B1/H1, Aut0, Out R, and the short exact sequence."""

import itertools
import random

import pytest

from cocycle_forge.cochain import TwoCochain
from cocycle_forge.cohomology import (
    aut0_enumerate, b1_enumerate, h1, inner_triples, out_r, verify_ses, z1_enumerate,
)
from cocycle_forge.errors import NotEnumerable
from cocycle_forge.gauge import Gauge, act_gauge
from cocycle_forge.ring import RingIso, TwistedRing, inner_auto, verify_ring_hom
from cocycle_forge.scalars import RingAuto, Scalar, random_scalar
from cocycle_forge.semigroup import SquareFreeSemigroup

from conftest import make_demo_cocycle
from oracles import star_act


@pytest.fixture(scope="module")
def demo(gf4_mod, diamond_mod):
    return make_demo_cocycle(gf4_mod, diamond_mod)


@pytest.fixture(scope="module")
def gf4_mod():
    from cocycle_forge.scalars import ScalarDomain
    return ScalarDomain.finite_field(2, 2)


@pytest.fixture(scope="module")
def diamond_mod():
    from conftest import make_diamond
    return make_diamond()


@pytest.fixture(scope="module")
def z1_demo(demo):
    return z1_enumerate(demo)


@pytest.fixture(scope="module")
def b1_demo(demo):
    return b1_enumerate(demo)


def chain2(domain):
    sg = SquareFreeSemigroup.validate(["e1", "e2"], [("a", "e1", "e2")], {})
    return TwoCochain.trivial(sg, domain)


# -- Z1 -------------------------------------------------------------------------


def test_z1_demo_count(z1_demo):
    # mu constant over E with 2 Frobenius choices, eta free on 4 arrows
    # over 3 units, eta forced to 1 on idempotents: 2 * 3^4
    assert len(z1_demo) == 162


def test_z1_contains_identity_and_stabilizes(demo, z1_demo, rng):
    assert any(g.is_identity() for g in z1_demo)
    for g in rng.sample(z1_demo, 25):
        assert act_gauge(g, demo) == demo


def test_z1_is_subgroup_exhaustive(z1_demo):
    keys = {g.key() for g in z1_demo}
    for g in z1_demo:
        assert g.inverse().key() in keys
    for g1, g2 in itertools.product(z1_demo[::13], z1_demo[::7]):
        assert g1.compose(g2).key() in keys


def test_z1_gf2_trivial(gf2, diamond_mod):
    c = TwoCochain.trivial(diamond_mod, gf2)
    assert len(z1_enumerate(c)) == 1


def test_z1_requires_field(diamond_mod, quat, rat):
    for dom in (quat, rat):
        with pytest.raises(NotEnumerable):
            z1_enumerate(TwoCochain.trivial(diamond_mod, dom))


def test_z1_requires_normal(diamond_mod, gf4_mod, rng):
    from conftest import random_gauge
    c = act_gauge(random_gauge(diamond_mod, gf4_mod, rng),
                  TwoCochain.trivial(diamond_mod, gf4_mod))
    if not any(c.xi_at(e, e) == gf4_mod.one() for e in diamond_mod.idempotents):
        pass  # gauge happened to keep it normal; nothing to assert
    from cocycle_forge.cochain import is_normal
    if not is_normal(c):
        with pytest.raises(ValueError):
            z1_enumerate(c)


# -- star action -----------------------------------------------------------------


def test_star_identity_eps(demo, z1_demo, diamond_mod, gf4_mod):
    eps = {e: gf4_mod.one() for e in diamond_mod.idempotents}
    for oc in z1_demo[::20]:
        assert star_act(eps, oc, demo) == oc


def test_star_frozen_value(demo, diamond_mod, gf4_mod):
    # eps(e4) = g on the identity: eta_hat(s24) = 1 . 1 . alpha_s24(g^{-1})
    # with alpha_s24 = id, so g^{-1} = g + 1
    g = gf4_mod.generator()
    eps = {e: gf4_mod.one() for e in diamond_mod.idempotents}
    eps["e4"] = g
    out = star_act(eps, Gauge.identity(diamond_mod, gf4_mod), demo)
    assert out.eta["s24"] == gf4_mod.scalar([1, 1])
    assert out.eta["s12"] == gf4_mod.one()
    assert out.eta["e4"] == gf4_mod.one()


def test_star_lands_in_z1_and_is_action(demo, z1_demo, diamond_mod, gf4_mod, rng):
    from cocycle_forge.scalars import enumerate_units
    units = enumerate_units(gf4_mod)
    keys = {g.key() for g in z1_demo}
    for _ in range(30):
        eps1 = {e: rng.choice(units) for e in diamond_mod.idempotents}
        eps2 = {e: rng.choice(units) for e in diamond_mod.idempotents}
        oc = rng.choice(z1_demo)
        out = star_act(eps1, oc, demo)
        assert out.key() in keys
        # action axiom for the pointwise product of eps maps
        prod = {e: eps1[e] * eps2[e] for e in diamond_mod.idempotents}
        assert star_act(prod, oc, demo) == star_act(eps1, star_act(eps2, oc, demo), demo)


# -- B1 and H1 ---------------------------------------------------------------------


def test_b1_demo_count(b1_demo):
    assert len(b1_demo) == 81  # eps -> gauge is injective for this twist


def test_b1_gf2(gf2, diamond_mod):
    assert len(b1_enumerate(TwoCochain.trivial(diamond_mod, gf2))) == 1


def test_b1_subset_z1_and_normal_exhaustive(z1_demo, b1_demo):
    zkeys = {g.key() for g in z1_demo}
    assert all(b.key() in zkeys for b in b1_demo)
    bkeys = {b.key() for b in b1_demo}
    for z in z1_demo:
        zi = z.inverse()
        for b in b1_demo:
            assert z.compose(b).compose(zi).key() in bkeys


def test_h1_demo(demo):
    rep = h1(demo)
    assert rep.h1_order == 2
    assert rep.z1_order == 162 and rep.b1_order == 81
    assert len(rep.h1_cosets) == 2
    # the coset table is a group table of order 2
    assert rep.coset_table[0][0] != rep.coset_table[0][1]


def test_h1_trivial_cocycle_diamond(gf4_mod, diamond_mod):
    # for the trivial twist the constant eps maps act trivially, so
    # |B1| = 3^4 / 3 and |H1| = 162 / 27
    rep = h1(TwoCochain.trivial(diamond_mod, gf4_mod))
    assert rep.z1_order == 162
    assert rep.b1_order == 27
    assert rep.h1_order == 6


def test_h1_one_idempotent(gf4_mod):
    sg = SquareFreeSemigroup.validate(["e"], [], {})
    rep = h1(TwoCochain.trivial(sg, gf4_mod))
    assert rep.z1_order == 2 and rep.b1_order == 1 and rep.h1_order == 2


# -- lambda, the inclusion Z1 <= Aut0, and the inner automorphisms --------------------


def test_lambda_identity(demo, diamond_mod, gf4_mod):
    # lambda is the inclusion: the identity gauge is the identity of Aut0
    ident = Gauge.identity(diamond_mod, gf4_mod)
    assert ident.phi.is_identity() and ident.is_identity()
    assert ident in aut0_enumerate(demo)


def test_lambda_frobenius_gauge_is_ring_auto(demo, diamond_mod, gf4_mod):
    fr = RingAuto.frobenius(gf4_mod, 1)
    g = Gauge(diamond_mod, gf4_mod, mu={e: fr for e in diamond_mod.idempotents})
    ring = TwistedRing(demo)
    assert verify_ring_hom(RingIso(ring, ring, g)).ok


def test_lambda_is_antihomomorphism_on_z1(demo, z1_demo):
    # with the left-action group law on gauges, the induced maps compose in
    # the opposite order: sigma(g1 . g2) = sigma(g2) o sigma(g1), checked on
    # every basis element with a non-prime-field coefficient
    ring = TwistedRing(demo)
    d = demo.domain.generator()
    sample = z1_demo[::11]
    for g1 in sample:
        for g2 in sample:
            both = RingIso(ring, ring, g1.compose(g2))
            first, second = RingIso(ring, ring, g1), RingIso(ring, ring, g2)
            for s in demo.sg.elements:
                x = ring.basis(s, d)
                assert both(x) == second(first(x))


def test_b1_triples_are_exactly_inner(demo, b1_demo):
    assert inner_triples(demo) == b1_enumerate(demo) == b1_demo


def test_inner_triple_matches_ring_conjugation(demo, diamond_mod, gf4_mod, rng):
    from cocycle_forge.scalars import enumerate_units
    ring = TwistedRing(demo)
    units = enumerate_units(gf4_mod)
    for _ in range(10):
        eps = {e: rng.choice(units) for e in diamond_mod.idempotents}
        r = ring.element(eps)
        conj = inner_auto(r)
        eta = {s: eps[diamond_mod.src[s]] * demo.alpha_at(s)(eps[diamond_mod.tgt[s]].inv())
               for s in diamond_mod.elements}
        t = Gauge(diamond_mod, gf4_mod, eta=eta)
        for s in diamond_mod.elements:
            d = random_scalar(gf4_mod, rng)
            x = ring.basis(s, d)
            expected = ring.basis(s, t.mu[diamond_mod.src[s]](d) * t.eta[s])
            assert conj(x) == expected


def test_nonboundary_z1_element_is_not_inner(demo, z1_demo, b1_demo):
    inn = set(inner_triples(demo))
    outside = [g for g in z1_demo if g not in set(b1_demo)]
    assert outside
    for g in outside[::16]:
        assert g not in inn


# -- Aut0 and Out R ---------------------------------------------------------------


def test_aut0_demo_count(demo):
    assert len(aut0_enumerate(demo)) == 324  # 162 gauges per stabilizing phi


def test_aut0_contains_identity(demo, diamond_mod, gf4_mod):
    triples = aut0_enumerate(demo)
    assert Gauge.identity(diamond_mod, gf4_mod) in triples


def test_aut0_triples_verify_as_ring_homs(demo, rng):
    ring = TwistedRing(demo)
    triples = aut0_enumerate(demo)
    for t in rng.sample(triples, 20):
        assert verify_ring_hom(RingIso(ring, ring, t)).ok


def test_aut0_is_normal_and_closed(demo):
    aut0 = aut0_enumerate(demo)
    members = set(aut0)
    one = demo.domain.one()
    assert all(t.eta[e] == one for t in aut0 for e in demo.sg.idempotents)
    sample = aut0[::17]
    assert any(not t.phi.is_identity() for t in sample)
    for t1 in sample:
        assert t1.inverse() in members
        for t2 in sample:
            assert t1.compose(t2) in members


def test_aut0_ring_maps_compose_in_opposite_order(demo):
    # sigma(t1 . t2) = sigma(t2) o sigma(t1) on all of Aut0, phi included
    ring = TwistedRing(demo)
    d = demo.domain.generator()
    sample = aut0_enumerate(demo)[::41]
    for t1 in sample:
        for t2 in sample:
            both = RingIso(ring, ring, t1.compose(t2))
            first, second = RingIso(ring, ring, t1), RingIso(ring, ring, t2)
            for s in demo.sg.elements:
                x = ring.basis(s, d)
                assert both(x) == second(first(x))


def test_aut0_matches_gauge_route(demo, diamond_mod):
    # independent cross-check: (mu, eta, phi) induces an automorphism iff
    # the gauge carries the phi-relabeled cocycle back to the original
    from cocycle_forge._logs import field_logs
    from cocycle_forge._multsolve import members
    from cocycle_forge.gauge import act_phi, _gauge_fibers, from_logs
    logs = field_logs(demo.domain)
    expected = []
    for phi in diamond_mod.enumerate_autos():
        twisted = act_phi(phi, demo)
        for mu, lattice, x0 in _gauge_fibers(twisted, demo):
            for x in members(x0, lattice.kernel, logs.n, logs.classes):
                expected.append(from_logs(diamond_mod, demo.domain, (mu, x, phi)).key())
    got = [t.key() for t in aut0_enumerate(demo)]
    assert sorted(expected) == got


def test_aut0_parallel_matches_serial(demo):
    assert aut0_enumerate(demo, jobs=2) == aut0_enumerate(demo)


def test_out_r_demo(demo):
    report = out_r(demo)
    assert report.aut0_order == 324
    assert report.inn0_order == 81
    assert report.out_order == 4
    assert len(report.phi_image) == 2
    # phi_image is a subgroup of Aut S: closed under composition and inverse
    keys = {p.sort_key() for p in report.phi_image}
    for p in report.phi_image:
        assert p.inverse().sort_key() in keys
        for q in report.phi_image:
            assert p.compose(q).sort_key() in keys


def test_quaternion_z1_membership_is_checkable(diamond_mod, quat, rng):
    # no enumeration over the quaternions, but a given gauge can still be
    # tested for membership in the stabilizer
    from conftest import random_gauge
    c = TwoCochain.trivial(diamond_mod, quat)
    ident = Gauge.identity(diamond_mod, quat)
    assert act_gauge(ident, c) == c
    eps = {e: random_scalar(quat, rng, nonzero=True) for e in diamond_mod.idempotents}
    member = star_act(eps, ident, c)
    assert act_gauge(member, c) == c
    probe = random_gauge(diamond_mod, quat, rng)
    assert (act_gauge(probe, c) == c) in (True, False)


def test_out_r_gf2_asymmetric(gf2):
    # Aut-trivial semigroup over GF(2): every automorphism is inner
    report = out_r(chain2(gf2))
    assert report.out_order == 1
    assert report.aut0_order == 1 and report.inn0_order == 1
    assert len(report.phi_image) == 1 and report.phi_image[0].is_identity()


def test_out_r_trivial_diamond(gf4_mod, diamond_mod):
    c = TwoCochain.trivial(diamond_mod, gf4_mod)
    report = out_r(c)
    rep_h1 = h1(c)
    assert report.out_order == rep_h1.h1_order * 2 == 12
    assert len(report.phi_image) == 2


# -- the exact sequence -------------------------------------------------------------


def test_verify_ses_demo(demo):
    report = verify_ses(demo)
    assert report.ok
    by_name = {cl.name: cl for cl in report.clauses}
    assert by_name["lambda_injective"].ok
    assert by_name["image_lambda_is_kernel_phi"].ok
    assert by_name["image_phi_is_stabilizer"].ok
    assert by_name["order_equation"].ok
    assert by_name["split_section"].ok is None  # demo class is not trivial
    assert report.orders == {"aut_s": 2, "z1": 162, "b1": 81, "h1": 2,
                             "aut0": 324, "inn0": 81, "out_r": 4, "stab": 2}


def test_verify_ses_gf9_demo(demo_gf9):
    # the README's GF(9) variant of the demo
    report = verify_ses(demo_gf9)
    assert report.ok
    assert report.orders["z1"] == 8192
    assert report.orders["h1"] == 4
    assert report.orders["out_r"] == 8


def test_verify_ses_trivial_class_splits(gf4_mod, diamond_mod):
    report = verify_ses(TwoCochain.trivial(diamond_mod, gf4_mod))
    assert report.ok
    by_name = {cl.name: cl for cl in report.clauses}
    assert by_name["split_section"].ok is True
    assert report.orders["out_r"] == report.orders["h1"] * report.orders["stab"]


def test_verify_ses_gf2_degenerate(gf2, diamond_mod):
    report = verify_ses(TwoCochain.trivial(diamond_mod, gf2))
    assert report.ok
    assert report.orders["z1"] == 1 and report.orders["out_r"] == 2
    # over GF(2) there are no units to twist by: Out R is Aut S itself
    assert report.orders["stab"] == 2 and report.orders["h1"] == 1


def test_verify_ses_chain_gf2(gf2):
    report = verify_ses(chain2(gf2))
    assert report.ok
    assert report.orders["out_r"] == 1
    by_name = {cl.name: cl for cl in report.clauses}
    assert by_name["split_section"].ok is True


def test_full_pipeline_with_composable_arrows(gf4_mod):
    # chain e1 -> e2 -> e3 with a.b = ab and a nontrivial twist on the pair:
    # here eta(ab) is pinned by eta(a), eta(b), unlike in the diamond
    sg = SquareFreeSemigroup.validate(
        ["e1", "e2", "e3"],
        [("a", "e1", "e2"), ("b", "e2", "e3"), ("ab", "e1", "e3")],
        {("a", "b"): "ab"})
    c = TwoCochain(sg, gf4_mod, xi={("a", "b"): gf4_mod.generator()})
    rep = h1(c)
    # mu constant (2 choices), eta free on a and b only: |Z1| = 2 * 3^2;
    # eps -> gauge has the constant maps as kernel: |B1| = 3^3 / 3
    assert rep.z1_order == 18 and rep.b1_order == 9 and rep.h1_order == 2
    outer = out_r(c)
    assert outer.aut0_order == 18 and outer.out_order == 2
    ses = verify_ses(c)
    assert ses.ok
    # this twist is a coboundary, so the split clause applies and ran
    assert {cl.name: cl.ok for cl in ses.clauses}["split_section"] is True
    assert ses.orders["stab"] == 1


def test_phi_components_compose(demo):
    # the idempotent-permutation component is a homomorphism on Aut0
    triples = aut0_enumerate(demo)
    sample = triples[::23]
    for t1 in sample:
        for t2 in sample:
            assert t1.compose(t2).phi == t2.phi.compose(t1.phi)


def test_verify_ses_lists_no_group(demo, monkeypatch):
    # verify_ses reads the solution lattices; none of the listings runs
    from cocycle_forge import cohomology

    def refuse(c):
        raise AssertionError("verify_ses listed a group")

    for name in ("z1_listing", "b1_listing", "aut0_listing"):
        monkeypatch.setattr(cohomology, name, refuse)
    assert verify_ses(demo).ok


def test_verify_ses_enumerates_aut_s_once(demo, monkeypatch):
    # clear the semigroup's list so this run has to search Aut S itself
    monkeypatch.setattr(demo.sg, "_autos", None)
    calls = []
    original = SquareFreeSemigroup._search_autos

    def counted(sg):
        calls.append(sg)
        return original(sg)

    monkeypatch.setattr(SquareFreeSemigroup, "_search_autos", counted)
    assert verify_ses(demo).ok
    assert calls == [demo.sg]
    autos = demo.sg.enumerate_autos()
    autos.clear()   # each call hands out a fresh list
    assert len(demo.sg.enumerate_autos()) == 2 and len(calls) == 1


def test_repeated_verify_ses_builds_no_field_scalar(demo, monkeypatch):
    first = verify_ses(demo)
    built = []
    original = Scalar.__init__

    def counted(self, domain, payload):
        if domain.kind == "finite_field":
            built.append(payload)
        original(self, domain, payload)

    monkeypatch.setattr(Scalar, "__init__", counted)
    again = verify_ses(demo)
    assert again.ok and again.orders == first.orders
    assert built == []


def test_h1_representatives_are_least_in_their_coset(demo):
    b1 = b1_enumerate(demo)
    for g in h1(demo).h1_cosets:
        assert g.sort_key() == min(b.compose(g).sort_key() for b in b1)


def test_keys_are_built_once(demo, z1_demo):
    g = z1_demo[-1]
    assert g.key() is g.key()
    assert g.sort_key() == g.key()
    t = aut0_enumerate(demo)[-1]
    assert t.key() is t.key()
    assert demo.key() is demo.key()


# -- the sphere semigroup: H^2(S, K*) != 0 ----------------------------------------


@pytest.fixture(scope="module")
def sphere():
    from conftest import make_sphere
    sg = make_sphere()
    assert len(sg.elements) == 18 and len(sg.enumerate_autos()) == 8
    return sg


@pytest.mark.parametrize("p,k,orders", [
    (2, 1, {"z1": 1, "b1": 1, "h1": 1, "aut0": 8, "inn0": 1, "out_r": 8, "stab": 8}),
    (3, 1, {"z1": 32, "b1": 32, "h1": 1, "aut0": 256, "inn0": 32, "out_r": 8, "stab": 8}),
    (2, 2, {"z1": 486, "b1": 243, "h1": 2, "aut0": 3888, "inn0": 243, "out_r": 16,
            "stab": 8}),
])
def test_verify_ses_sphere_trivial_twist(sphere, p, k, orders):
    from cocycle_forge.scalars import ScalarDomain
    report = verify_ses(TwoCochain.trivial(sphere, ScalarDomain.finite_field(p, k)))
    assert report.ok
    o = report.orders
    assert o == {"aut_s": 8, **orders}
    assert o["z1"] == o["b1"] * o["h1"]
    assert o["aut0"] == o["inn0"] * o["out_r"]
    assert o["out_r"] == o["h1"] * o["stab"]


def test_aut0_prunes_mu_by_arrows(sphere, monkeypatch):
    # the pruned search lists what asking the probes about every (phi, mu)
    # lists, with far fewer pair_sides calls (22,304 over the 8 x 2^6
    # choices); it probes no pair twice for one (phi, mu), so it stays
    # within the 1824 calls of a pass that probed the arrow pairs again
    import oracles
    from cocycle_forge import cohomology
    from cocycle_forge.scalars import ScalarDomain

    c = TwoCochain.trivial(sphere, ScalarDomain.finite_field(2, 2))
    calls = []
    pair_sides = cohomology.pair_sides
    for module in (cohomology, oracles):
        monkeypatch.setattr(module, "pair_sides", lambda *a: calls.append(a) or pair_sides(*a))
    expected = oracles.product_aut0_logs(c)
    full = len(calls)
    calls.clear()
    got = cohomology.aut0_listing(c)
    assert full == 22304
    assert len(got) == 3888 and got == expected
    assert len(calls) <= 1824


@pytest.mark.parametrize("call,case", [
    *itertools.product(["verify_ses", "h1", "out_r", "stabilizer_of_class"],
                       ["demo-gf4", "star3-gf5"]),
    ("cohomologous", "sphere-q"), ("stabilizer_of_class", "sphere-q")])
def test_each_coefficient_matrix_is_eliminated_once(case, call, monkeypatch):
    # every fiber of one call (each mu, each phi, the gauge and the probe
    # routes, the stabilizer and the split-section check) reduces through
    # the one lattice of its coefficient matrix; over Q the rational
    # systems of one semigroup (two gauged pairs, each phi of the
    # stabilizer) share the lattices of their sign and exponent rows
    from cocycle_forge import _multsolve, cohomology, gauge
    from cocycle_forge.cochain import normalize
    from cocycle_forge.scalars import ScalarDomain
    from conftest import make_sphere, random_gauge

    rng = random.Random(case)
    if case == "demo-gf4":
        c = make_demo_cocycle(ScalarDomain.finite_field(2, 2))
    else:
        if case == "star3-gf5":
            dom = ScalarDomain.finite_field(5, 1)
            sg = SquareFreeSemigroup.validate(
                ["c", "l1", "l2", "l3"], [("a1", "c", "l1"), ("a2", "c", "l2"), ("a3", "c", "l3")],
                {})
        else:
            dom, sg = ScalarDomain.rational(), make_sphere()
        c, _ = normalize(act_gauge(random_gauge(sg, dom, rng), TwoCochain.trivial(sg, dom)))
    if call == "cohomologous":
        pairs = [(c, act_gauge(random_gauge(c.sg, c.domain, rng), c)) for _ in range(2)]
    eliminated = []
    eliminate = _multsolve.eliminate

    def counted(rows, size, combine):
        rows = list(rows)
        eliminated.append((size, tuple(sorted(tuple(sorted(coef.items())) for coef, _ in rows))))
        return eliminate(rows, size, combine)

    _multsolve.graph.cache_clear()
    monkeypatch.setattr(_multsolve, "eliminate", counted)
    if call == "cohomologous":
        assert all(gauge.cohomologous(*pair) is not None for pair in pairs)
    else:
        getattr(cohomology if hasattr(cohomology, call) else gauge, call)(c)
    assert len(eliminated) >= 2
    assert len(set(eliminated)) == len(eliminated)
