"""Exact scalar and automorphism arithmetic."""

import random
from fractions import Fraction

import pytest

from cocycle_forge.errors import DivisionByZero, DomainMismatch, NotEnumerable
from cocycle_forge.scalars import (
    RingAuto, Scalar, ScalarDomain, auto_from_json, auto_to_json, domain_from_json,
    domain_to_json, enumerate_autos, enumerate_units, random_scalar, rho,
    scalar_from_json, scalar_to_json,
)
from cocycle_forge.scalars import _poly_divmod, _poly_mul, _poly_trim

GF4 = ScalarDomain.finite_field(2, 2)
GF2 = ScalarDomain.finite_field(2, 1)
GF9 = ScalarDomain.finite_field(3, 2)
Q = ScalarDomain.rational()
H = ScalarDomain.quaternion()


def quat(a, b, c, d):
    return H.scalar([a, b, c, d])


I, J, K = quat(0, 1, 0, 0), quat(0, 0, 1, 0), quat(0, 0, 0, 1)


def test_default_moduli():
    # smallest-as-integer monic irreducibles, lowest degree first
    assert GF4.modulus == (1, 1, 1)            # x^2 + x + 1
    assert ScalarDomain.finite_field(2, 3).modulus == (1, 1, 0, 1)   # x^3 + x + 1
    assert GF9.modulus == (1, 0, 1)            # x^2 + 1
    assert ScalarDomain.finite_field(5, 2).modulus == (2, 0, 1)      # x^2 + 2
    assert ScalarDomain.finite_field(3, 3).modulus == (1, 2, 0, 1)   # x^3 + 2x + 1


def test_bad_moduli_rejected():
    with pytest.raises(ValueError):
        ScalarDomain.finite_field(2, 2, [1, 0, 1])   # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        ScalarDomain.finite_field(2, 2, [1, 1])      # wrong degree
    with pytest.raises(ValueError):
        ScalarDomain.finite_field(4, 1)              # 4 is not prime


def test_gf4_square_of_generator():
    # oracle: x*x mod (x^2+x+1) leaves remainder x+1
    g = GF4.generator()
    assert g * g == GF4.scalar([1, 1])
    assert g * g == g + GF4.one()


def test_quaternion_hamilton_relations():
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * I == J
    assert I * I == quat(-1, 0, 0, 0)


def test_rational_reduction():
    a = Q.scalar(Fraction(2, 4))
    assert a + Q.scalar(Fraction(1, 2)) == Q.one()
    assert a.payload == Fraction(1, 2)


def test_domain_mismatch_and_zero_division():
    with pytest.raises(DomainMismatch):
        GF4.one() + GF9.one()
    with pytest.raises(DivisionByZero):
        GF4.zero().inv()


def test_frobenius_on_gf4():
    g = GF4.generator()
    fr = RingAuto.frobenius(GF4, 1)
    assert fr(g) == g * g == GF4.scalar([1, 1])
    assert RingAuto.identity(GF4)(g) == g


def test_frobenius_on_gf9():
    # oracle: x^3 mod (x^2+1) over Z_3: x^3 = x*x^2 = -x = 2x
    g = GF9.generator()
    fr = RingAuto.frobenius(GF9, 1)
    assert fr(g) == GF9.scalar([0, 2])


def test_gf8_cube_of_generator():
    # oracle: x^3 mod (x^3+x+1) over Z_2 leaves x+1
    gf8 = ScalarDomain.finite_field(2, 3)
    g = gf8.generator()
    assert g * g * g == gf8.scalar([1, 1, 0])
    assert len(enumerate_autos(gf8)) == 3
    assert len(enumerate_units(gf8)) == 7


def test_inner_on_quaternions():
    # oracle: i j i^{-1} = k(-i) = -j
    assert rho(I)(J) == -J
    assert rho(I)(I) == I


def test_rho_commutative_is_identity():
    assert rho(GF4.generator()).is_identity()
    assert rho(Q.scalar(5)).is_identity()


def test_frobenius_composition_and_inverse():
    fr = RingAuto.frobenius(GF4, 1)
    assert fr.compose(fr).is_identity()
    assert fr.inverse() == fr
    f9 = RingAuto.frobenius(GF9, 1)
    assert f9.compose(f9).is_identity()


def test_inner_composition_canonicalizes():
    # rho_i . rho_j = rho_{ij} = rho_k, canonical since k's first nonzero coeff is 1
    assert rho(I).compose(rho(J)) == rho(K)
    assert rho(I).compose(rho(I).inverse()).is_identity()


def test_inner_central_scaling_invariance():
    rng = random.Random(7)
    for _ in range(25):
        d = random_scalar(H, rng, nonzero=True)
        c = random_scalar(Q, rng, nonzero=True)
        scaled = quat(c.payload, 0, 0, 0) * d
        assert rho(d) == rho(scaled)


def test_rho_is_multiplicative_on_units():
    rng = random.Random(11)
    for _ in range(50):
        d = random_scalar(H, rng, nonzero=True)
        e = random_scalar(H, rng, nonzero=True)
        assert rho(d).compose(rho(e)) == rho(d * e)


def test_enumerate_autos():
    assert len(enumerate_autos(GF4)) == 2
    assert len(enumerate_autos(GF2)) == 1
    assert len(enumerate_autos(Q)) == 1
    with pytest.raises(NotEnumerable):
        enumerate_autos(H)


def test_enumerate_units():
    units = enumerate_units(GF4)
    assert len(units) == 3
    assert set(u.payload for u in units) == {(1, 0), (0, 1), (1, 1)}
    assert [u.payload for u in enumerate_units(GF2)] == [(1,)]
    with pytest.raises(NotEnumerable):
        enumerate_units(Q)


@pytest.mark.parametrize("dom", [Q, GF2, GF4, GF9, H], ids=repr)
def test_division_ring_axioms_sampled(dom):
    rng = random.Random(42)
    one = dom.one()
    for _ in range(1000):
        a = random_scalar(dom, rng)
        b = random_scalar(dom, rng)
        c = random_scalar(dom, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        if not a.is_zero():
            assert a * a.inv() == one
            assert a.inv() * a == one


@pytest.mark.parametrize("dom", [GF4, GF9, H], ids=repr)
def test_autos_preserve_add_and_mul(dom):
    rng = random.Random(3)
    if dom.kind == "rational_quaternion":
        autos = [rho(random_scalar(dom, rng, nonzero=True)) for _ in range(4)]
    else:
        autos = enumerate_autos(dom)
    for a in autos:
        for _ in range(100):
            x = random_scalar(dom, rng)
            y = random_scalar(dom, rng)
            assert a(x + y) == a(x) + a(y)
            assert a(x * y) == a(x) * a(y)


def test_compose_matches_pointwise_application():
    rng = random.Random(5)
    for dom in (GF9, H):
        if dom is H:
            autos = [rho(random_scalar(dom, rng, nonzero=True)) for _ in range(3)]
        else:
            autos = enumerate_autos(dom)
        for a in autos:
            for b in autos:
                for _ in range(20):
                    x = random_scalar(dom, rng)
                    assert a.compose(b)(x) == a(b(x))


def test_scalar_json_round_trip():
    rng = random.Random(9)
    for dom in (Q, GF4, GF9, H):
        for _ in range(20):
            s = random_scalar(dom, rng)
            assert scalar_from_json(dom, scalar_to_json(s)) == s


def test_domain_and_auto_json_round_trip():
    for dom in (Q, GF4, GF9, H):
        assert domain_from_json(domain_to_json(dom)) == dom
    autos = [RingAuto.identity(Q), RingAuto.frobenius(GF9, 1), rho(I * K)]
    for a in autos:
        assert auto_from_json(a.domain, auto_to_json(a)) == a


def test_one_domain_per_field():
    assert ScalarDomain.finite_field(2, 2) is domain_from_json(
        domain_to_json(ScalarDomain.finite_field(2, 2, [1, 1, 1])))
    for dom in (Q, H):
        assert domain_from_json(domain_to_json(dom)) is dom


def test_gf8_moduli_are_distinct_domains():
    a = ScalarDomain.finite_field(2, 3, [1, 1, 0, 1])
    b = ScalarDomain.finite_field(2, 3, [1, 0, 1, 1])
    assert a is not b and a != b
    x, y = a.generator(), b.generator()
    assert x.payload == y.payload and x != y
    for op in (lambda: x * y, lambda: y * x, lambda: a.one() + b.one(), lambda: x - y,
               lambda: RingAuto.frobenius(a, 1)(y), lambda: x * 1):
        with pytest.raises(DomainMismatch):
            op()


@pytest.mark.parametrize("p,k,modulus", [(2.0, 1, [0, 1]), (2, 2.0, [1, 1, 1]),
                                         (2, 1, [0, 1.0])])
def test_non_integer_field_data_is_rejected(p, k, modulus):
    # the first domain built for a field is the one every later call returns
    with pytest.raises(ValueError):
        ScalarDomain.finite_field(p, k, modulus)


@pytest.mark.parametrize("p,k,modulus", [
    (2, 2, None), (2, 3, [1, 1, 0, 1]), (2, 3, [1, 0, 1, 1]),
    (3, 2, None), (5, 2, None), (3, 3, None),
])
def test_inverse_of_every_unit(p, k, modulus):
    dom = ScalarDomain.finite_field(p, k, modulus)
    one = dom.one()
    units = enumerate_units(dom)
    assert len(units) == p ** k - 1
    for x in units:
        assert x * x.inv() == one
        assert x.inv().inv() == x


# -- the interned finite-field kernel against polynomial arithmetic ------------

KERNEL_FIELDS = [(2, 1, None), (3, 1, None), (2, 2, None), (2, 3, [1, 1, 0, 1]),
                 (2, 3, [1, 0, 1, 1]), (3, 2, None), (5, 2, None), (3, 3, None)]


def _reduced(dom, poly):
    """poly mod the field's modulus as a length-k payload."""
    _, rem = _poly_divmod(poly, dom.modulus, dom.p)
    return rem + (0,) * (dom.k - len(rem))


def _poly_product(dom, x, y):
    return _reduced(dom, _poly_mul(_poly_trim(x.payload), _poly_trim(y.payload), dom.p))


def _all_elements(dom):
    return [dom.zero()] + enumerate_units(dom)


@pytest.mark.parametrize("p,k,modulus", KERNEL_FIELDS)
def test_kernel_products_match_polynomials(p, k, modulus):
    dom = ScalarDomain.finite_field(p, k, modulus)
    elements = _all_elements(dom)
    for x in elements:
        for y in elements:
            assert (x * y).payload == _poly_product(dom, x, y)


@pytest.mark.parametrize("p,k,modulus", KERNEL_FIELDS)
def test_kernel_inverses_and_frobenius_match_polynomials(p, k, modulus):
    dom = ScalarDomain.finite_field(p, k, modulus)
    units = enumerate_units(dom)
    for x in units:
        # the unique y with x . y = 1 as polynomials mod m
        inverse = [y for y in units if _poly_product(dom, x, y) == dom.one().payload]
        assert [x.inv()] == inverse
    for i in range(k):
        frob = RingAuto.frobenius(dom, i)
        for x in _all_elements(dom):
            image = dom.one().payload
            for _ in range(p ** i):
                image = _reduced(dom, _poly_mul(_poly_trim(image), _poly_trim(x.payload), p))
            assert frob(x).payload == image


@pytest.mark.parametrize("p,k,modulus", KERNEL_FIELDS)
def test_kernel_one_object_per_element(p, k, modulus):
    dom = ScalarDomain.finite_field(p, k, modulus)
    for x in _all_elements(dom):
        coeffs = list(x.payload)
        assert dom.scalar(coeffs) is dom.scalar(tuple(coeffs)) is x
        assert scalar_from_json(dom, scalar_to_json(x)) is x
        assert x * dom.one() is x and -(-x) is x and x + dom.zero() is x
    assert dom.scalar(p + 1) is dom.one()
    for i in range(-k, k):
        assert RingAuto.frobenius(dom, i) is RingAuto.frobenius(dom, i + k)
    assert RingAuto.frobenius(dom, 0) is RingAuto.identity(dom)


def test_kernel_equality_is_by_value():
    x = GF9.scalar([1, 2])
    stray = Scalar(GF9, (1, 2))   # built directly, not through the domain
    assert stray is not x and stray == x and hash(stray) == hash(x)
    y = GF9.scalar([2, 2])
    assert stray * y is x * y and stray.inv() is x.inv()
    assert RingAuto.frobenius(GF9, 1)(stray) is RingAuto.frobenius(GF9, 1)(x)
    assert x.sort_key() == (1, 2)
    assert RingAuto(GF9, "frobenius", 1) == RingAuto.frobenius(GF9, 1)


@pytest.mark.parametrize("p,k", [(2, 16), (65537, 1)])
def test_kernel_interns_only_what_it_touches(p, k):
    dom = ScalarDomain.finite_field(p, k)
    before = set(dom._elements)
    x, y = (dom.scalar([1, 1, 0, 1]), dom.scalar([0, 1, 1])) if k > 1 else \
        (dom.scalar(12345), dom.scalar(3))
    touched = {x, y, x * y, y * x, x * x, (x * y) * x}
    assert set(dom._elements) == before | {s.payload for s in touched}
    assert len(dom._elements) <= 8
