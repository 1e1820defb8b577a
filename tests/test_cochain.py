"""Cocycle identities, normality, and normalization."""

import collections
import random

import pytest

from cocycle_forge.cochain import (
    CocycleVerdict, TwoCochain, cochain_from_json, cochain_to_json, is_cocycle, is_normal, normalize,
)
from cocycle_forge.gauge import act_gauge
from cocycle_forge.scalars import RingAuto, ScalarDomain, enumerate_autos, random_scalar
from cocycle_forge.semigroup import SquareFreeSemigroup

from conftest import (
    make_chain4, make_demo_cocycle, make_diamond, make_sphere, make_triangle, random_gauge,
    tetrahedron,
)


def test_trivial_is_cocycle(diamond, gf4, rat, quat):
    for dom in (gf4, rat, quat):
        assert is_cocycle(TwoCochain.trivial(diamond, dom)).ok


def test_demo_cocycle_checks(demo_gf4):
    verdict = is_cocycle(demo_gf4)
    assert verdict.ok and not verdict.violations
    assert is_normal(demo_gf4)


def test_demo_cocycle_gf9(demo_gf9):
    assert is_cocycle(demo_gf9).ok


def test_bad_xi_breaks_scalar_identity(diamond, gf4):
    g = gf4.generator()
    c = TwoCochain(diamond, gf4, xi={("e1", "e1"): g})
    verdict = is_cocycle(c)
    assert not verdict.ok
    spots = {v.members for v in verdict.violations if v.identity == "scalar"}
    assert ("e1", "e1", "s12") in spots


def test_violations_carry_both_sides(diamond, gf4):
    g = gf4.generator()
    c = TwoCochain(diamond, gf4, xi={("e1", "e1"): g})
    v = [v for v in is_cocycle(c).violations if v.members == ("e1", "e1", "s12")][0]
    assert v.lhs != v.rhs


def test_alpha_on_idempotent_breaks_normality_and_cocycle(diamond, gf4):
    c = TwoCochain(diamond, gf4, alpha={"e1": RingAuto.frobenius(gf4, 1)})
    assert not is_normal(c)
    # the automorphism identity fails at (e1, e1): F o F = id != F
    verdict = is_cocycle(c)
    assert any(v.identity == "automorphism" and v.members == ("e1", "e1")
               for v in verdict.violations)


def test_xi_zero_rejected(diamond, gf4):
    with pytest.raises(ValueError):
        TwoCochain(diamond, gf4, xi={("e1", "e1"): gf4.zero()})


def test_xi_outside_pairs_rejected(diamond, gf4):
    with pytest.raises(ValueError):
        TwoCochain(diamond, gf4, xi={("s12", "s24"): gf4.one()})


def test_is_normal_definition(diamond, gf4):
    g = gf4.generator()
    assert not is_normal(TwoCochain(diamond, gf4, xi={("e1", "e1"): g}))
    assert is_normal(TwoCochain.trivial(diamond, gf4))


def test_normalize_already_normal(demo_gf4):
    normalized, gauge = normalize(demo_gf4)
    assert normalized == demo_gf4
    assert gauge.is_identity()


def test_normalize_single_bad_xi(diamond, gf4):
    g = gf4.generator()
    c = TwoCochain(diamond, gf4, xi={("e1", "e1"): g})
    # this particular cochain is not a cocycle, so normalize is only run on
    # a repaired variant: gauge the trivial cocycle to make xi(e1,e1) != 1
    # instead (see test_normalize_random below for the honest path)
    eta = {"e1": g.inv()}
    assert eta["e1"] == gf4.scalar([1, 1])  # oracle: g * (g+1) = g^2 + g = 1


def test_normalize_random_nonnormal(diamond, gf4, gf9, rng):
    for dom in (gf4, gf9):
        base = make_demo_cocycle(dom, diamond)
        for _ in range(20):
            g = random_gauge(diamond, dom, rng)
            c = act_gauge(g, base)
            assert is_cocycle(c).ok
            normalized, gauge = normalize(c)
            assert is_normal(normalized)
            assert act_gauge(gauge, c) == normalized
            # normalize is idempotent on the cocycle component
            again, gauge2 = normalize(normalized)
            assert again == normalized and gauge2.is_identity()


def test_normalized_kills_xi_on_idempotent_pairs(diamond, gf9, rng):
    base = TwoCochain.trivial(diamond, gf9)
    for _ in range(10):
        c = act_gauge(random_gauge(diamond, gf9, rng), base)
        normalized, _ = normalize(c)
        one = gf9.one()
        for s in diamond.elements:
            e, f = diamond.src[s], diamond.tgt[s]
            assert normalized.xi_at(e, s) == one
            assert normalized.xi_at(s, f) == one


def test_idempotent_auto_consistency(demo_gf4, diamond):
    # with s = t = e the automorphism identity forces
    # alpha_e o alpha_e = rho_{xi(e,e)} o alpha_e
    c = demo_gf4
    for e in diamond.idempotents:
        a = c.alpha_at(e)
        lhs = a.compose(a)
        from cocycle_forge.scalars import rho
        assert lhs == rho(c.xi_at(e, e)).compose(a)


def test_cochain_json_round_trip(diamond, gf4, gf9, rng):
    for dom in (gf4, gf9):
        base = make_demo_cocycle(dom, diamond)
        for _ in range(5):
            c = act_gauge(random_gauge(diamond, dom, rng), base)
            again = cochain_from_json(diamond, dom, cochain_to_json(c))
            assert again == c


def test_cochain_equality_is_sparse_canonical(diamond, gf4, rat, quat):
    arrows, pairs = ["s12", "s24", "s34"], diamond.tuples(2)[:4]
    # equal values spelled differently, over GF(4), Q and H(Q), with the
    # automorphisms put on the arrows
    cases = [
        (gf4, ([1, 1], [3, 5]), RingAuto.frobenius(gf4, 1), RingAuto.frobenius(gf4, 1)),
        (rat, ("1/2", "2/4"), RingAuto.identity(rat), RingAuto.identity(rat)),
        (quat, (["1/2", 1, 0, 0], ["2/4", "3/3", "0/5", 0]),
         RingAuto.inner(quat, quat.scalar([1, 2, 0, 0])),
         RingAuto.inner(quat, quat.scalar([3, 6, 0, 0]))),
    ]
    for dom, spellings, a, b in cases:
        c1 = TwoCochain(diamond, dom, alpha={"s12": RingAuto.identity(dom)},
                        xi={("e1", "e1"): dom.one()})
        c2 = TwoCochain.trivial(diamond, dom)
        assert c1 == c2 and hash(c1) == hash(c2)
        # ... inserted in different orders
        u, v = (dom.scalar(x) for x in spellings)
        c1 = TwoCochain(diamond, dom, {s: a for s in arrows}, {pair: u for pair in pairs})
        c2 = TwoCochain(diamond, dom, {s: b for s in reversed(arrows)},
                        {pair: v for pair in reversed(pairs)})
        assert c1 == c2 and hash(c1) == hash(c2)
        # one changed xi tells them apart
        c3 = TwoCochain(diamond, dom, c2.alpha, {**c2.xi, pairs[2]: v * v})
        assert c3 != c1 and c3 != c2


# ---------------------------------------------------------------------------
# identities evaluated only where the stored data can break them, against
# the scan that evaluates every one


def extra_shapes():
    """Shapes beyond the fixtures: a lone arrow, a chain whose product is
    theta, a vee, a triangle whose product is theta, a star and the
    diamond with a diagonal both routes reach."""
    shapes = {
        "chain2": (["e1", "e2"], [("a", "e1", "e2")], {}),
        "chain3": (["e1", "e2", "e3"], [("a", "e1", "e2"), ("b", "e2", "e3")], {}),
        "vee": (["e1", "e2", "e3"], [("a", "e1", "e2"), ("b", "e1", "e3")], {}),
        "tri0": (["e1", "e2", "e3"],
                 [("a", "e1", "e2"), ("b", "e2", "e3"), ("ab", "e1", "e3")], {}),
        "star3": (["c", "l1", "l2", "l3"],
                  [("a1", "c", "l1"), ("a2", "c", "l2"), ("a3", "c", "l3")], {}),
        "diamondp": (["e1", "e2", "e3", "e4"],
                     [("s12", "e1", "e2"), ("s13", "e1", "e3"), ("s14", "e1", "e4"),
                      ("s24", "e2", "e4"), ("s34", "e3", "e4")],
                     {("s12", "s24"): "s14", ("s13", "s34"): "s14"}),
    }
    return [SquareFreeSemigroup.validate(*args) for args in shapes.values()]


def random_twist(sg, domain, rng):
    """A random cochain: xi of a random density on the arrow.arrow pairs
    or on every composable pair, and alpha nowhere, on random arrows, or
    on random elements idempotents included; alpha is a Frobenius power
    over GF(p^k), conjugation by a random unit over H(Q)."""
    arrows = set(sg.arrows())
    density = rng.choice((0, 0.1, 0.5, 1))
    pairs = [p for p in sg.tuples(2)
             if rng.random() < 0.5 or (p[0] in arrows and p[1] in arrows)]
    xi = {p: random_scalar(domain, rng, nonzero=True) for p in pairs if rng.random() < density}
    autos = enumerate_autos(domain) if domain.kind == "finite_field" else None
    on = rng.choice(((), sorted(arrows), sg.elements))
    alpha = {s: (rng.choice(autos) if autos else
                 RingAuto.inner(domain, random_scalar(domain, rng, nonzero=True)))
             for s in on if rng.random() < 0.5}
    return TwoCochain(sg, domain, alpha, xi)


DOMAINS = [ScalarDomain.finite_field(p, k) for p, k in
           ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
DOMAINS += [ScalarDomain.rational(), ScalarDomain.quaternion()]


def test_is_cocycle_matches_full_scan():
    # identity, members, lhs, rhs and order, on random cochains and on
    # cocycles moved by random gauges (dense, non-normal, inner mu over H(Q))
    from oracles import full_scan_is_cocycle

    rng = random.Random(1357)
    shapes = [make_diamond(), make_triangle(), make_chain4(), make_sphere()] + extra_shapes()
    verdicts = []
    for domain in DOMAINS:
        for sg in shapes:
            alpha = {}
            if domain.k and domain.k > 1 and "s34" in sg.src:
                alpha = {"s34": RingAuto.frobenius(domain, 1)}
            base = TwoCochain(sg, domain, alpha)
            cochains = [random_twist(sg, domain, rng) for _ in range(5)]
            cochains.append(act_gauge(random_gauge(sg, domain, rng), base))
            for c in cochains:
                got = is_cocycle(c)
                expected = full_scan_is_cocycle(c)
                assert got == expected
                assert repr(got.violations) == repr(expected.violations)
                verdicts.append(got)
    assert sum(v.ok for v in verdicts) > 150
    kinds = collections.Counter(v.identity for verdict in verdicts for v in verdict.violations)
    assert kinds["scalar"] > 1000 and kinds["automorphism"] > 300


def arrow_twist(sg, domain, rng, alpha_on=()):
    """A twist stored on the arrows alone: a random xi != 1 on every
    arrow.arrow product and the Frobenius on the arrows in alpha_on."""
    arrows = set(sg.arrows())
    xi = {(s, t): random_scalar(domain, rng, nonzero=True) for s, t in sg.tuples(2)
          if s in arrows and t in arrows}
    xi = {p: v + v if v.is_one() else v for p, v in xi.items()}
    alpha = {s: RingAuto.frobenius(domain, 1) for s in alpha_on}
    return TwoCochain(sg, domain, alpha, xi)


@pytest.mark.parametrize("shape,domain,alpha_on", [
    ("chain4", ScalarDomain.rational(), ()),
    ("chain4", ScalarDomain.finite_field(3, 2), ("b", "bc")),
    ("sphere", ScalarDomain.rational(), ()),
    ("sphere", ScalarDomain.finite_field(5, 2), ("b1c1", "a1c1")),
], ids=["chain4-Q", "chain4-GF9", "sphere-Q", "sphere-GF25"])
def test_is_cocycle_evaluates_only_arrow_identities(shape, domain, alpha_on, monkeypatch):
    # on a twist stored on the arrows, every identity padded by an
    # idempotent is one word on both sides and costs no arithmetic: two
    # Scalar products per arrow triple, two compositions per arrow pair
    from cocycle_forge import scalars
    from oracles import full_scan_is_cocycle

    sg = make_chain4() if shape == "chain4" else make_sphere()
    c = arrow_twist(sg, domain, random.Random(7), alpha_on)
    assert is_normal(c)
    expected = full_scan_is_cocycle(c)  # also fills the Frobenius image caches
    arrows = set(sg.arrows())
    triples = sum(all(x in arrows for x in t) for t in sg.tuples(3))
    pairs = sum(all(x in arrows for x in p) for p in sg.tuples(2))
    calls = collections.Counter()
    mul, compose = scalars.Scalar.__mul__, scalars.RingAuto.compose
    monkeypatch.setattr(scalars.Scalar, "__mul__",
                        lambda *a: calls.update(["mul"]) or mul(*a))
    monkeypatch.setattr(scalars.RingAuto, "compose",
                        lambda *a: calls.update(["compose"]) or compose(*a))
    assert is_cocycle(c) == expected
    assert calls == collections.Counter(mul=2 * triples, compose=2 * pairs)
    calls.clear()
    full_scan_is_cocycle(c)
    assert calls["mul"] == 2 * len(sg.tuples(3)) and calls["compose"] == 2 * len(sg.tuples(2))


def test_is_cocycle_on_the_tetrahedron():
    # 14 idempotents, 36 arrows, 24 flags; no instance cap at the library level
    from oracles import full_scan_is_cocycle

    sg = SquareFreeSemigroup.validate(*tetrahedron())
    gf5 = ScalarDomain.finite_field(5, 1)
    trivial = TwoCochain.trivial(sg, gf5)
    assert is_cocycle(trivial) == full_scan_is_cocycle(trivial) == CocycleVerdict(True, ())
    # xi on the flags alone is a cocycle here (no three arrows compose, and
    # rho is the identity over a field), so break it on a padded pair
    broken = TwoCochain(sg, gf5, xi={("f0", "f0<f01"): gf5.scalar(2)})
    verdict = is_cocycle(broken)
    assert not verdict.ok and verdict == full_scan_is_cocycle(broken)
    assert ("f0", "f0", "f0<f01") in [v.members for v in verdict.violations]
