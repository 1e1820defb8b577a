"""Twisted ring arithmetic, units, inner automorphisms, and isomorphisms."""

import collections
import hashlib
import itertools
import json
import random

import pytest

from cocycle_forge.cochain import TwoCochain, normalize
from cocycle_forge.errors import NotAUnit, RingMismatch, WitnessInvalid
from cocycle_forge.gauge import Gauge, act_gauge, act_phi, cohomologous
from cocycle_forge.ring import (
    RingElement, RingIso, TwistedRing, build_iso, element_from_json,
    element_to_json, find_ring_iso, identity_iso, inner_auto, verify_ring_hom,
)
from cocycle_forge.scalars import ScalarDomain, rho, random_scalar
from cocycle_forge.semigroup import SquareFreeSemigroup

from conftest import (
    make_chain4, make_demo_cocycle, make_diamond, make_sphere, make_triangle, random_gauge,
    random_twist, shapes_and_domains, tetrahedron,
)
from oracles import all_pairs_product


@pytest.fixture()
def ring4(demo_gf4):
    return TwistedRing(demo_gf4)


def random_element(ring, rng, dense=False):
    coeffs = {}
    for s in ring.sg.elements:
        if dense or rng.random() < 0.6:
            coeffs[s] = random_scalar(ring.domain, rng, nonzero=dense)
    return ring.element(coeffs)


# -- basic arithmetic ---------------------------------------------------------


def test_basis_products(ring4, gf4):
    g = gf4.generator()
    s34_ge4 = ring4.basis("s34") * ring4.basis("e4", g)
    # oracle: Frobenius of g is g^2 = g + 1
    assert s34_ge4 == ring4.basis("s34", g * g)
    assert ring4.basis("e1") * ring4.basis("s12") == ring4.basis("s12")
    assert ring4.basis("s12") * ring4.basis("e2") == ring4.basis("s12")
    assert (ring4.basis("s12") * ring4.basis("s24")).is_zero()


@pytest.mark.parametrize("name", ["gf4", "rat", "quat"])
def test_left_scalar_action(name, request, diamond, rng):
    # d * x reaches RingElement.__rmul__ and scales the coefficients on the
    # left, under a twist moved off the trivial one by a random gauge
    domain = request.getfixturevalue(name)
    ring = TwistedRing(act_gauge(random_gauge(diamond, domain, rng),
                                 TwoCochain.trivial(diamond, domain)))
    for _ in range(5):
        c, d = (random_scalar(domain, rng, nonzero=True) for _ in range(2))
        for s in diamond.elements:
            assert d * ring.basis(s, c) == ring.basis(s, d * c)
        x = random_element(ring, rng)
        assert (d * x).coeffs == {s: d * v for s, v in x.coeffs.items()}


def test_one_is_identity(ring4, rng):
    one = ring4.one()
    for _ in range(20):
        x = random_element(ring4, rng)
        assert one * x == x
        assert x * one == x


def test_one_is_identity_nonnormal(diamond, gf9, rng):
    # gauge the demo data into a non-normal cocycle; the identity must adapt
    base = make_demo_cocycle(gf9, diamond)
    c = act_gauge(random_gauge(diamond, gf9, rng), base)
    ring = TwistedRing(c)
    one = ring.one()
    for _ in range(20):
        x = random_element(ring, rng)
        assert one * x == x
        assert x * one == x


def test_right_scalar_action(ring4, gf4):
    g = gf4.generator()
    # s34 . d = frobenius(d) . s34
    assert ring4.basis("s34") * g == ring4.basis("s34", g * g)
    assert ring4.basis("s12") * g == ring4.basis("s12", g)


def test_ring_mismatch(ring4, diamond, gf9):
    other = TwistedRing(make_demo_cocycle(gf9, diamond))
    with pytest.raises(RingMismatch):
        ring4.one() + other.one()


def test_associativity_exhaustive_gf4_gf9(diamond, gf4, gf9):
    for dom in (gf4, gf9):
        ring = TwistedRing(make_demo_cocycle(dom, diamond))
        basis = [ring.basis(s) for s in diamond.elements]
        g = dom.generator()
        scaled = [ring.basis(s, g) for s in diamond.elements]
        elems = basis + scaled
        for a in basis:
            for b in elems:
                for c in basis:
                    assert (a * b) * c == a * (b * c)


def test_associativity_random_dense(ring4, rng):
    for _ in range(100):
        a, b, c = (random_element(ring4, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_remark_identity_recovered(demo_gf4, diamond):
    # alpha_s o alpha_t = rho_{xi(s,t)} o alpha_{s.t} on composable pairs
    c = demo_gf4
    for s, t in diamond.tuples(2):
        st = diamond.compose(s, t)
        assert c.alpha_at(s).compose(c.alpha_at(t)) == \
            rho(c.xi_at(s, t)).compose(c.alpha_at(st))


def test_dimension_condition(ring4, diamond):
    # e R f is one-dimensional exactly when the slot (e, f) is occupied
    for e in diamond.idempotents:
        for f in diamond.idempotents:
            products = set()
            for s in diamond.elements:
                p = ring4.basis(e) * ring4.basis(s) * ring4.basis(f)
                if not p.is_zero():
                    products.update(p.coeffs)
            expected = diamond.slot(e, f)
            assert products == ({expected} if expected else set())


def test_validated_arrows_are_nilpotent():
    # validate refuses an arrow in a slot (e, e) and an arrow.arrow product
    # on an idempotent, so products of |E| arrows are theta on every table
    # it accepts; the inverse sums powers until they vanish on that bound
    from oracles import arrow_nilpotency_index
    from test_semigroup import valid_random_tables

    indices = collections.Counter()
    for sg in valid_random_tables():
        index = arrow_nilpotency_index(sg)
        assert index is not None and index <= len(sg.idempotents)
        indices[index] += 1
    assert set(indices) >= {1, 2, 3, 4}
    assert arrow_nilpotency_index(make_diamond()) == 2
    assert arrow_nilpotency_index(make_chain4()) == 4


@pytest.mark.parametrize("make", [make_chain4, make_sphere, lambda: SquareFreeSemigroup.validate(
    *tetrahedron())], ids=["chain4", "sphere", "tetrahedron"])
@pytest.mark.parametrize("domain", [ScalarDomain.finite_field(3), ScalarDomain.rational()],
                         ids=["gf3", "q"])
def test_dense_units_invert_two_sided(make, domain):
    sg = make()
    rng = random.Random(f"dense-units:{domain!r}:{len(sg.elements)}")
    ring = TwistedRing(random_twist(sg, domain, rng))
    one = ring.one()
    for _ in range(3):
        x = random_element(ring, rng, dense=True)
        assert x * x.inverse() == one == x.inverse() * x


def make_star3():
    """A centre c with arrows a1, a2, a3 out to the leaves l1, l2, l3."""
    return SquareFreeSemigroup.validate(
        ["c", "l1", "l2", "l3"], [("a1", "c", "l1"), ("a2", "c", "l2"), ("a3", "c", "l3")], {})


@pytest.mark.parametrize("make", [make_chain4, make_diamond, make_star3, make_triangle],
                         ids=["chain4", "diamond", "star3", "tri"])
@pytest.mark.parametrize("domain", [
    ScalarDomain.finite_field(2, 2), ScalarDomain.finite_field(3, 2), ScalarDomain.rational(),
    ScalarDomain.quaternion()], ids=["gf4", "gf9", "q", "hq"])
def test_product_matches_the_all_pairs_oracle(make, domain):
    # the product over composable pairs, with one reduction per
    # coefficient, against every pair of the supports with Scalar
    # arithmetic; and each inverse, both ways round, through the oracle.
    # Integral elements over the trivial twist give terms with equal
    # denominators, which are summed without a common multiple.
    sg = make()
    rng = random.Random(f"all-pairs:{domain!r}:{sg.elements}")

    def value():
        if domain.kind == "rational_quaternion":
            return domain.scalar([rng.randint(-2, 2) for _ in range(4)])
        return domain.scalar(rng.randint(-3, 3))

    def integral(ring):
        return ring.element({s: value() for s in sg.elements if rng.random() < 0.8})

    for ring in (TwistedRing(random_twist(sg, domain, rng)),
                 TwistedRing(TwoCochain.trivial(sg, domain))):
        one = ring.one()
        for _ in range(8):
            x = random_element(ring, rng, dense=rng.random() < 0.5)
            y = random_element(ring, rng, dense=rng.random() < 0.5)
            for a, b in ((x, y), (y, x), (integral(ring), integral(ring)), (x, integral(ring))):
                assert a * b == all_pairs_product(a, b)
            u = random_element(ring, rng, dense=True)
            v = u.inverse()
            assert all_pairs_product(u, v) == one == all_pairs_product(v, u)


# -- units ---------------------------------------------------------------------


def test_unit_one_plus_nilpotent(ring4):
    r = ring4.one() + ring4.basis("s12")
    assert r.is_unit()
    inv = r.inverse()
    assert inv == r  # char 2 and s12^2 = 0, so (1+s12)^2 = 1
    assert r * inv == ring4.one()
    assert inv * r == ring4.one()


def test_unit_diagonal(ring4, gf4):
    g = gf4.generator()
    r = ring4.element({e: g for e in ring4.sg.idempotents})
    inv = r.inverse()
    assert inv == ring4.element({e: g.inv() for e in ring4.sg.idempotents})
    assert r * inv == ring4.one()


def test_not_a_unit(ring4):
    assert not ring4.basis("s12").is_unit()
    with pytest.raises(NotAUnit):
        ring4.basis("s12").inverse()


def test_random_units_two_sided(ring4, rng):
    one = ring4.one()
    for _ in range(50):
        coeffs = {e: random_scalar(ring4.domain, rng, nonzero=True)
                  for e in ring4.sg.idempotents}
        for s in ring4.sg.arrows():
            if rng.random() < 0.5:
                coeffs[s] = random_scalar(ring4.domain, rng)
        r = ring4.element(coeffs)
        assert r.is_unit()
        assert r * r.inverse() == one
        assert r.inverse() * r == one


def test_units_nonnormal_quaternion(diamond, quat, rng):
    base = TwoCochain.trivial(diamond, quat)
    c = act_gauge(random_gauge(diamond, quat, rng), base)
    ring = TwistedRing(c)
    one = ring.one()
    for _ in range(10):
        coeffs = {e: random_scalar(quat, rng, nonzero=True)
                  for e in diamond.idempotents}
        coeffs["s12"] = random_scalar(quat, rng)
        r = ring.element(coeffs)
        assert r * r.inverse() == one
        assert r.inverse() * r == one


# -- inner automorphisms ---------------------------------------------------------


def test_inner_identity(ring4, rng):
    conj = inner_auto(ring4.one())
    for _ in range(10):
        x = random_element(ring4, rng)
        assert conj(x) == x


def test_inner_diagonal_matches_coboundary_formula(ring4, gf4, rng, diamond):
    # rho_{sum eps(e) e} (d.s) = eps(e) d alpha_s(eps(f))^{-1} . s
    c = ring4.cocycle
    for _ in range(20):
        eps = {e: random_scalar(gf4, rng, nonzero=True) for e in diamond.idempotents}
        r = ring4.element(eps)
        conj = inner_auto(r)
        for s in diamond.elements:
            d = random_scalar(gf4, rng)
            e, f = diamond.src[s], diamond.tgt[s]
            expected = ring4.basis(s, eps[e] * d * c.alpha_at(s)(eps[f]).inv())
            assert conj(ring4.basis(s, d)) == expected


def test_inner_composition_and_idempotent_image(ring4, rng):
    r = ring4.one() + ring4.basis("s12")
    conj = inner_auto(r)
    conj_back = inner_auto(r.inverse())
    e1 = ring4.basis("e1")
    image = conj(e1)
    assert image == ring4.basis("e1") + ring4.basis("s12")
    assert image * image == image  # idempotent image stays idempotent
    for _ in range(10):
        x = random_element(ring4, rng)
        assert conj_back(conj(x)) == x
        y = random_element(ring4, rng)
        assert conj(x * y) == conj(x) * conj(y)


# -- isomorphisms ------------------------------------------------------------------


def test_identity_iso(ring4, rng):
    iso = identity_iso(ring4)
    assert verify_ring_hom(iso).ok
    x = random_element(ring4, rng)
    assert iso(x) == x


def test_build_iso_from_normalization(diamond, gf4, rng):
    base = make_demo_cocycle(gf4, diamond)
    c = act_gauge(random_gauge(diamond, gf4, rng), base)
    normalized, gauge = normalize(c)
    # act_gauge(gauge, c) == normalized, so (gauge, id) certifies
    # source = normalized against target = c
    iso = build_iso(normalized, c, gauge)
    assert iso.source.cocycle == normalized and iso.target.cocycle == c
    verdict = verify_ring_hom(iso)
    assert verdict.ok, verdict.failures[:2]
    assert verdict  # the verdict is truthy exactly when it passes


def test_build_iso_self_twist(demo_gf4, diamond):
    swap = [a for a in diamond.enumerate_autos() if not a.is_identity()][0]
    twisted = act_phi(swap, demo_gf4)
    gauge = cohomologous(twisted, demo_gf4)  # act_gauge(g, c^phi) == c
    assert gauge is not None
    witness = Gauge(diamond, gauge.domain, gauge.mu, gauge.eta, swap)
    iso = build_iso(demo_gf4, demo_gf4, witness)
    assert verify_ring_hom(iso).ok
    # the iso realizes the idempotent swap inside the ring
    r = iso.source
    assert iso(r.basis("e2")).coeffs.keys() == {"e3"}


def test_build_iso_rejects_bad_witness(demo_gf4, diamond, gf4):
    # a lone Frobenius at e1 twists alpha on the arrows out of e1
    from cocycle_forge.scalars import RingAuto
    bad = Gauge(diamond, gf4, mu={"e1": RingAuto.frobenius(gf4, 1)})
    with pytest.raises(WitnessInvalid) as exc:
        build_iso(demo_gf4, demo_gf4, bad)
    assert any(f[0] == ("alpha", "s12") for f in exc.value.failures)


def triangle_ring(gf4):
    """Arrows a: e1->e2, b: e2->e3 with a.b = ab; here eta is pinned by the
    composite, so corrupting one value must break multiplicativity."""
    return TwistedRing(TwoCochain.trivial(make_triangle(), gf4))


def test_corrupted_eta_fails_verification(gf4):
    ring = triangle_ring(gf4)
    bad = RingIso(ring, ring, Gauge(ring.sg, gf4, eta={"a": gf4.generator()}))
    verdict = verify_ring_hom(bad)
    assert not verdict.ok
    assert not verdict
    spots = {f[0][:2] for f in verdict.failures if len(f[0]) == 3}
    assert ("a", "b") in spots


def test_fast_and_full_hom_checks_agree(diamond, gf4, rng):
    base = make_demo_cocycle(gf4, diamond)
    for _ in range(10):
        g = random_gauge(diamond, gf4, rng)
        c = act_gauge(g, base)
        iso = build_iso(c, base, g)
        assert verify_ring_hom(iso).ok


def test_build_iso_quaternion_witness(diamond, quat, rng):
    # hand a witness over the quaternions: the noncommutative path of both
    # the ring product and the verification
    base = TwoCochain.trivial(diamond, quat)
    g = random_gauge(diamond, quat, rng)
    source = act_gauge(g, base)
    iso = build_iso(source, base, g)
    verdict = verify_ring_hom(iso)
    assert verdict.ok, verdict.failures[:2]
    x = random_element(iso.source, rng)
    y = random_element(iso.source, rng)
    assert iso(x * y) == iso(x) * iso(y)


def test_element_json_round_trip(ring4, rng):
    for _ in range(10):
        x = random_element(ring4, rng)
        assert element_from_json(ring4, element_to_json(x)) == x
    # sparse and dense elements of a seeded random twist on every shape
    # and domain
    for sg, dom in shapes_and_domains():
        ring = TwistedRing(random_twist(sg, dom, rng))
        for dense in (False, True):
            x = random_element(ring, rng, dense)
            assert element_from_json(ring, element_to_json(x)) == x


def test_element_json_refuses_a_basis_element_given_twice(ring4):
    data = {"coeffs": [{"on": "e1", "value": [1, 0]}, {"on": "e1", "value": [0, 1]}]}
    with pytest.raises(ValueError, match="coeffs given twice on 'e1'"):
        element_from_json(ring4, data)


def test_element_json_refuses_coeffs_that_are_not_a_list(ring4):
    with pytest.raises(TypeError, match="coeffs must be a JSON list"):
        element_from_json(ring4, {"coeffs": {"on": "e1", "value": [1, 0]}})


@pytest.mark.parametrize("data,message", [
    (["x"], "an element is a JSON object"),
    ({"coeffs": ["x"]}, "coeffs entries are objects"),
    ({"coeffs": [{"on": 1, "value": [1, 0]}]}, "coeffs entries carry string on"),
], ids=["list", "entry-string", "on-number"])
def test_element_json_names_a_malformed_entry(ring4, data, message):
    with pytest.raises(TypeError) as info:
        element_from_json(ring4, data)
    assert str(info.value) == message


# SHA-256 of json.dumps(..., sort_keys=True) of the element_to_json of a
# seeded product and three seeded inverses in the ring of a non-normal H(Q)
# twist (a random gauge applied to the trivial one)
QUATERNION_ARITH_DIGESTS = {
    "diamond": "a9e58cd313d049bb865252a9284a19562964e7198facb1fafdb367d3aeea79a3",
    "triangle": "289fba5a4d30ab22d2dec8dd179a6b50f7169c6bb2ce8ee040d533ad3ae67ac0",
}


@pytest.mark.parametrize("shape", sorted(QUATERNION_ARITH_DIGESTS))
def test_quaternion_arithmetic_json_is_byte_identical(quat, shape):
    sg = make_diamond() if shape == "diamond" else make_triangle()
    rng = random.Random(f"hq-pin:{shape}")
    ring = TwistedRing(act_gauge(random_gauge(sg, quat, rng), TwoCochain.trivial(sg, quat)))
    x, y = random_element(ring, rng), random_element(ring, rng)
    out = [element_to_json(x * y)]
    out += [element_to_json(random_element(ring, rng, dense=True).inverse()) for _ in range(3)]
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == QUATERNION_ARITH_DIGESTS[shape]
