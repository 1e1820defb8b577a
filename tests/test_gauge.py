"""Gauge group law, actions on cocycles, orbit and stabilizer searches."""

import random

import pytest

from cocycle_forge.cochain import TwoCochain, is_cocycle, is_normal, normalize
from cocycle_forge.cohomology import z1_enumerate
from cocycle_forge.errors import DomainMismatch, NotEnumerable
from cocycle_forge.gauge import (
    Gauge, act_gauge, act_phi, cohomologous, gauge_from_json, gauge_to_json,
    stabilizer_of_class,
)
from cocycle_forge.instances import Instance, parse_witness, witness_to_json
from cocycle_forge.scalars import RingAuto, Scalar, ScalarDomain
from cocycle_forge.semigroup import SemigroupAuto, SquareFreeSemigroup

from conftest import make_demo_cocycle, random_gauge, random_relabeling_gauge


def swap_auto(diamond):
    return [a for a in diamond.enumerate_autos() if not a.is_identity()][0]


# -- group structure ---------------------------------------------------------


def test_identity_gauge_acts_trivially(demo_gf4, diamond, gf4):
    g = Gauge.identity(diamond, gf4)
    assert act_gauge(g, demo_gf4) == demo_gf4


def test_compose_with_identity(diamond, gf4, rng):
    g = random_gauge(diamond, gf4, rng)
    e = Gauge.identity(diamond, gf4)
    assert g.compose(e) == g
    assert e.compose(g) == g


def test_inverse_both_sides(diamond, gf4, quat, rng):
    for dom in (gf4, quat):
        for _ in range(20):
            g = random_gauge(diamond, dom, rng)
            assert g.compose(g.inverse()).is_identity()
            assert g.inverse().compose(g).is_identity()


def test_compose_associative(diamond, gf4, rng):
    for _ in range(20):
        a, b, c = (random_gauge(diamond, gf4, rng) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_left_action_axiom_sampled(diamond, gf4, demo_gf4, rng):
    for _ in range(100):
        g1 = random_gauge(diamond, gf4, rng)
        g2 = random_gauge(diamond, gf4, rng)
        assert act_gauge(g1.compose(g2), demo_gf4) == act_gauge(g1, act_gauge(g2, demo_gf4))


def test_left_action_axiom_quaternions(diamond, quat, rng):
    c = TwoCochain.trivial(diamond, quat)
    for _ in range(25):
        g1 = random_gauge(diamond, quat, rng)
        g2 = random_gauge(diamond, quat, rng)
        assert act_gauge(g1.compose(g2), c) == act_gauge(g1, act_gauge(g2, c))


# -- closure -----------------------------------------------------------------


def test_act_gauge_closure(demo_gf4, diamond, gf4, rng):
    for _ in range(50):
        out = act_gauge(random_gauge(diamond, gf4, rng), demo_gf4)
        assert is_cocycle(out).ok


def test_act_gauge_closure_quaternions(diamond, quat, rng):
    base = TwoCochain.trivial(diamond, quat)
    for _ in range(25):
        out = act_gauge(random_gauge(diamond, quat, rng), base)
        assert is_cocycle(out).ok
        # alpha picks up genuine inner automorphisms
    assert any(not out.alpha_at(s).is_identity() for s in diamond.elements)


def test_normalization_gauge_matches_formula(diamond, gf4, rng):
    base = TwoCochain.trivial(diamond, gf4)
    c = act_gauge(random_gauge(diamond, gf4, rng), base)
    normalized, gauge = normalize(c)
    assert is_normal(normalized)
    for e in diamond.idempotents:
        assert gauge.eta[e] == c.xi_at(e, e).inv()
        assert gauge.mu[e].is_identity()


def test_frobenius_everywhere_fixes_demo(demo_gf4, diamond, gf4):
    fr = RingAuto.frobenius(gf4, 1)
    g = Gauge(diamond, gf4, mu={e: fr for e in diamond.idempotents})
    assert act_gauge(g, demo_gf4) == demo_gf4


# -- Aut(S) action ------------------------------------------------------------


def test_act_phi_identity(demo_gf4, diamond):
    ident = SemigroupAuto.identity(diamond)
    assert act_phi(ident, demo_gf4) == demo_gf4


def test_act_phi_moves_twist(demo_gf4, diamond, gf4):
    swap = swap_auto(diamond)
    twisted = act_phi(swap, demo_gf4)
    assert twisted.alpha_at("s24") == RingAuto.frobenius(gf4, 1)
    assert twisted.alpha_at("s34").is_identity()
    assert is_cocycle(twisted).ok
    assert act_phi(swap, twisted) == demo_gf4  # the swap is an involution


def test_act_phi_composition_axiom(diamond, gf4, demo_gf4, rng):
    autos = diamond.enumerate_autos()
    for phi in autos:
        for psi in autos:
            lhs = act_phi(phi.compose(psi), demo_gf4)
            rhs = act_phi(psi, act_phi(phi, demo_gf4))
            assert lhs == rhs


def test_gauge_phi_compatibility(diamond, gf4, demo_gf4, rng):
    for phi in diamond.enumerate_autos():
        for _ in range(50):
            g = random_gauge(diamond, gf4, rng)
            p = Gauge(diamond, gf4, phi=phi)  # g^phi = P . g . P^-1
            lhs = act_gauge(p.compose(g).compose(p.inverse()), act_phi(phi, demo_gf4))
            rhs = act_phi(phi, act_gauge(g, demo_gf4))
            assert lhs == rhs


# -- orbit membership ----------------------------------------------------------


def test_cohomologous_with_normalized(diamond, gf4, rng):
    base = make_demo_cocycle(gf4, diamond)
    c = act_gauge(random_gauge(diamond, gf4, rng), base)
    normalized, _ = normalize(c)
    w = cohomologous(c, normalized)
    assert w is not None
    assert act_gauge(w, c) == normalized


def test_cohomologous_demo_with_its_twist(demo_gf4, diamond, gf4):
    swap = swap_auto(diamond)
    twisted = act_phi(swap, demo_gf4)
    w = cohomologous(demo_gf4, twisted)
    assert w is not None
    assert act_gauge(w, demo_gf4) == twisted
    # any witness has mu constant on e1, e2, e3 and offset by the Frobenius
    # on e4 (solve mu_e o alpha2_s = alpha1_s o mu_f over the four arrows)
    fr = RingAuto.frobenius(gf4, 1)
    assert w.mu["e1"] == w.mu["e2"] == w.mu["e3"]
    assert w.mu["e4"] == w.mu["e1"].compose(fr)


def test_trivial_not_cohomologous_to_demo(demo_gf4, diamond, gf4):
    trivial = TwoCochain.trivial(diamond, gf4)
    assert cohomologous(trivial, demo_gf4) is None
    assert cohomologous(demo_gf4, trivial) is None


def test_cohomologous_reflexive_symmetric_transitive(diamond, gf4, rng):
    base = make_demo_cocycle(gf4, diamond)
    c1 = act_gauge(random_gauge(diamond, gf4, rng), base)
    c2 = act_gauge(random_gauge(diamond, gf4, rng), base)
    w_self = cohomologous(c1, c1)
    assert w_self is not None and act_gauge(w_self, c1) == c1
    w12 = cohomologous(c1, c2)
    assert w12 is not None
    assert act_gauge(w12.inverse(), c2) == c1  # symmetry via the group inverse
    c3 = act_gauge(random_gauge(diamond, gf4, rng), base)
    w23 = cohomologous(c2, c3)
    assert act_gauge(w23.compose(w12), c1) == c3  # transitivity via composition


def test_cohomologous_rational(diamond, rat, rng):
    base = TwoCochain.trivial(diamond, rat)
    for _ in range(10):
        g = random_gauge(diamond, rat, rng)
        c = act_gauge(g, base)
        w = cohomologous(base, c)
        assert w is not None
        assert act_gauge(w, base) == c
    # xi(e1, e1) = 2 cannot be reached from the trivial class: it would need
    # eta(e1)^1 = 2 but then the (e1, s12) relation forces eta(e1) = 1
    c_bad = TwoCochain(diamond, rat, xi={("e1", "e1"): rat.scalar(2)})
    assert cohomologous(base, c_bad) is None


def test_cohomologous_rational_triangle_roots():
    # composite arrow: the elimination has to take an exact square root
    sg = SquareFreeSemigroup.validate(
        ["e1", "e2", "e3"],
        [("a", "e1", "e2"), ("b", "e2", "e3"), ("ab", "e1", "e3")],
        {("a", "b"): "ab"})
    from cocycle_forge.scalars import ScalarDomain
    rat = ScalarDomain.rational()
    base = TwoCochain.trivial(sg, rat)
    c = TwoCochain(sg, rat, xi={("a", "b"): rat.scalar(12)})
    w = cohomologous(base, c)
    assert w is not None and act_gauge(w, base) == c


def test_cohomologous_quaternion_raises(diamond, quat):
    c = TwoCochain.trivial(diamond, quat)
    with pytest.raises(NotEnumerable):
        cohomologous(c, c)


# -- stabilizers ----------------------------------------------------------------


def test_gauge_stabilizer_counts(demo_gf4):
    stab = z1_enumerate(demo_gf4)
    assert len(stab) == 162  # 2 constant mu choices x 3^4 free arrow values
    identity = [g for g in stab if g.is_identity()]
    assert len(identity) == 1
    for g in stab[:10]:
        assert act_gauge(g, demo_gf4) == demo_gf4


def test_stabilizer_of_class_demo(demo_gf4, diamond):
    stab = stabilizer_of_class(demo_gf4)
    assert len(stab) == 2
    # subgroup of Aut(S): identity present, closed under compose and inverse
    keys = {p.sort_key() for p in stab}
    assert any(p.is_identity() for p in stab)
    for p in stab:
        assert p.inverse().sort_key() in keys
        for q in stab:
            assert p.compose(q).sort_key() in keys


def test_stabilizer_of_class_trivial_cocycle(diamond, gf4):
    assert len(stabilizer_of_class(TwoCochain.trivial(diamond, gf4))) == 2


def test_stabilizer_of_class_aut_trivial_semigroup(gf4):
    sg = SquareFreeSemigroup.validate(["e1", "e2"], [("a", "e1", "e2")], {})
    c = TwoCochain.trivial(sg, gf4)
    stab = stabilizer_of_class(c)
    assert len(stab) == 1 and stab[0].is_identity()


# -- gauges with a relabeling ----------------------------------------------------


def test_left_action_axiom_with_phi(diamond, gf4, demo_gf4, rng):
    moved = 0
    for _ in range(60):
        g1 = random_relabeling_gauge(diamond, gf4, rng)
        g2 = random_relabeling_gauge(diamond, gf4, rng)
        moved += not g1.phi.is_identity()
        lhs = act_gauge(g1.compose(g2), demo_gf4)
        assert lhs == act_gauge(g1, act_gauge(g2, demo_gf4))
    assert moved  # the sample reaches the nontrivial phi


def test_inverse_with_phi_both_sides(diamond, gf4, rng):
    ident = Gauge.identity(diamond, gf4)
    for _ in range(30):
        g = random_relabeling_gauge(diamond, gf4, rng)
        assert g.compose(g.inverse()) == ident
        assert g.inverse().compose(g) == ident
        assert g.inverse().phi == g.phi.inverse()


def test_act_gauge_relabels_first(diamond, gf4, demo_gf4, rng):
    g = random_gauge(diamond, gf4, rng)
    swap = swap_auto(diamond)
    witness = Gauge(diamond, gf4, g.mu, g.eta, swap)
    assert act_gauge(witness, demo_gf4) == act_gauge(g, act_phi(swap, demo_gf4))
    assert act_gauge(Gauge(diamond, gf4, phi=swap), demo_gf4) == act_phi(swap, demo_gf4)


def test_phi_of_another_semigroup_is_refused(diamond, gf4):
    other = SquareFreeSemigroup.validate(["e1", "e2"], [], {})
    with pytest.raises(DomainMismatch):
        Gauge(diamond, gf4, phi=SemigroupAuto.identity(other))


def test_witness_json_round_trip(diamond, gf4, demo_gf4, rng):
    inst = Instance(gf4, diamond, demo_gf4)
    for _ in range(20):
        g = random_relabeling_gauge(diamond, gf4, rng)
        data = witness_to_json(g)
        assert "phi" in data
        assert parse_witness(inst, data) == g


# -- serialization ---------------------------------------------------------------


def test_gauge_json_round_trip(diamond, gf4, quat, rng):
    for dom in (gf4, quat):
        for _ in range(10):
            g = random_gauge(diamond, dom, rng)
            assert gauge_from_json(diamond, dom, gauge_to_json(g)) == g


# -- invalid input ------------------------------------------------------------------


def test_invalid_gauges_are_refused(diamond, gf4, gf9, rat):
    other = SquareFreeSemigroup.validate(["e1", "e2"], [], {})
    frob = RingAuto.frobenius(gf4, 1)
    cases = [
        (dict(mu={"s12": frob}), ValueError, "mu defined off the idempotents: ['s12']"),
        (dict(mu={"e9": frob, "s12": frob}), ValueError,
         "mu defined off the idempotents: ['e9', 's12']"),
        (dict(eta={"zz": gf4.one()}), ValueError, "eta defined on unknown elements: ['zz']"),
        (dict(mu={"e2": RingAuto.identity(gf9)}), DomainMismatch, "mu['e2'] lives in GF(9)"),
        (dict(eta={"s24": gf9.one()}), DomainMismatch, "eta['s24'] lives in GF(9)"),
        (dict(eta={"s13": gf4.zero()}), ValueError, "eta['s13'] must be nonzero"),
        (dict(phi=SemigroupAuto.identity(other)), DomainMismatch,
         "phi is an automorphism of SquareFreeSemigroup(|E|=2, |S*|=2)"),
        # several faults at once: the names are checked before any value
        (dict(mu={"s12": frob, "e1": RingAuto.identity(gf9)}, eta={"e1": gf4.zero()}),
         ValueError, "mu defined off the idempotents: ['s12']"),
        (dict(mu={"e1": RingAuto.identity(gf9)}, eta={"zz": gf4.zero()}),
         ValueError, "eta defined on unknown elements: ['zz']"),
        (dict(mu={"e1": RingAuto.identity(gf9)}, eta={"s12": gf4.zero()}),
         DomainMismatch, "mu['e1'] lives in GF(9)"),
        (dict(eta={"s12": gf4.zero()}, phi=SemigroupAuto.identity(other)),
         ValueError, "eta['s12'] must be nonzero"),
    ]
    for kwargs, error, message in cases:
        with pytest.raises(error) as info:
            Gauge(diamond, gf4, **kwargs)
        assert str(info.value) == message
    for dom in (rat, ScalarDomain.quaternion()):
        with pytest.raises(ValueError, match=r"^eta\['s34'\] must be nonzero$"):
            Gauge(diamond, dom, eta={"s34": dom.zero()})
