"""Exact scalar and automorphism arithmetic."""

import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from cocycle_forge.errors import DivisionByZero, DomainMismatch, NotEnumerable
from cocycle_forge.scalars import (
    RingAuto, Scalar, ScalarDomain, auto_from_json, auto_to_json, domain_from_json,
    domain_to_json, enumerate_autos, enumerate_units, random_scalar, rho,
    scalar_from_json, scalar_to_json,
)
from cocycle_forge.scalars import (
    MAX_FIELD_COST, MAX_PRIME, _default_modulus, _is_prime, _poly_divmod,
    _poly_is_irreducible, _poly_mul, _poly_trim,
)

from oracles import (
    conjugate, hamilton_inverse, hamilton_product, inner_data, integer_order_modulus,
    monic_polys, quat_fractions, quat_json, quat_sort_key, trial_division_is_irreducible,
    trial_division_is_prime,
)

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
    assert a.payload == (1, 2)


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
        scaled = quat(Fraction(*c.payload), 0, 0, 0) * d
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


# -- primes and irreducible polynomials against trial division --------------------


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(200) if _is_prime(n)] == \
        [n for n in range(200) if trial_division_is_prime(n)]


def test_ben_or_matches_trial_division():
    checked = 0
    for p in (n for n in range(2, 730) if trial_division_is_prime(n)):
        k = 1
        while p ** k <= 3 ** 6:
            for m in monic_polys(k, p):
                assert _poly_is_irreducible(m, p) == trial_division_is_irreducible(m, p), (m, p)
                checked += 1
            k += 1
    assert checked > 40000


def test_large_primes_are_decided_or_refused():
    # 19 digits: decided at once (trial division would take minutes)
    assert _is_prime(10 ** 18 + 3) and not _is_prime(10 ** 18 + 1)
    assert ScalarDomain.finite_field(10 ** 18 + 3, 2).modulus == (1, 0, 1)
    # the least composite the 13 bases pass is where exact answers stop
    for p in (MAX_PRIME, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=f"only below {MAX_PRIME}$"):
            ScalarDomain.finite_field(p)


def test_default_modulus_skips_reducible_binomials():
    # 3 does not divide 10006, so every x^3 + c has a root; 100003 = 3 (mod 4),
    # so no x^4 + c is irreducible: both scans start past the binomials
    start = time.perf_counter()
    assert _default_modulus(10007, 3) == (1, 1, 0, 1)
    assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    assert ScalarDomain.finite_field(100003, 4).k == 4
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p,k", [(p, 3) for p in range(2, 60)
                                 if p % 3 == 2 and trial_division_is_prime(p)]
                         + [(2, k) for k in range(1, 7)]
                         + [(p, k) for p in (3, 5, 7, 11, 13) for k in (2, 4)]
                         + [(3, 6), (5, 6), (7, 6), (3, 8)])
def test_default_modulus_is_the_least_irreducible(p, k):
    assert _default_modulus(p, k) == integer_order_modulus(p, k)


def test_fields_beyond_the_cost_bound_are_refused_at_once():
    assert ScalarDomain.finite_field(2, 16).k == 16
    for p, k in ((2, 21), (2, 10 ** 6), (10 ** 18 + 3, 7)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"at most {MAX_FIELD_COST}$"):
            ScalarDomain.finite_field(p, k)
        assert time.perf_counter() - start < 0.1


# -- the integer quaternion kernel against componentwise Fractions ----------------


def _oracle_quaternions(rng, count):
    """Seeded Fraction 4-tuples: large denominators, small values, central
    elements, zero, and units whose first nonzero coefficient is negative."""
    out = [(Fraction(0),) * 4, (Fraction(-3, 7), Fraction(0), Fraction(0), Fraction(0)),
           (Fraction(0), Fraction(-2), Fraction(4), Fraction(0))]
    big = 10 ** 12
    while len(out) < count:
        kind = len(out) % 5
        if kind == 0:
            q = tuple(Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(4))
        elif kind == 1:
            q = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),) + (Fraction(0),) * 3
        elif kind == 2:
            # zero leading coefficients, then a negative one
            lead = rng.randrange(4)
            q = tuple(Fraction(0) if i < lead else
                      Fraction(-rng.randint(1, 9) if i == lead else rng.randint(-9, 9),
                               rng.randint(1, 5))
                      for i in range(4))
        else:
            q = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
        out.append(q)
    return out


def _assert_canonical(s):
    *xs, n = s.payload
    assert n > 0 and math.gcd(*xs, n) == 1
    if not any(xs):
        assert s.payload == (0, 0, 0, 0, 1)


def _assert_matches(s, q):
    _assert_canonical(s)
    assert quat_fractions(s) == q
    assert s.sort_key() == quat_sort_key(q)
    assert json.dumps(scalar_to_json(s)) == json.dumps(quat_json(q))
    assert repr(s) == "({}+{}i+{}j+{}k)".format(*q)


def _assert_auto_matches(a, d):
    data = inner_data(d)
    if data is None:
        assert a.is_identity() and auto_to_json(a) == "identity"
        return
    _assert_canonical(Scalar(H, a.data))
    assert quat_fractions(Scalar(H, a.data)) == data
    assert a.sort_key() == (2,) + quat_sort_key(data)
    assert json.dumps(auto_to_json(a)) == json.dumps({"inner": quat_json(data)})


def test_quaternion_kernel_matches_fraction_oracle():
    rng = random.Random(20240612)
    qs = _oracle_quaternions(rng, 300)
    scalars = [H.scalar(list(q)) for q in qs]
    for s, q in zip(scalars, qs):
        _assert_matches(s, q)
        _assert_matches(-s, tuple(-f for f in q))
        if any(q):
            _assert_matches(s.inv(), hamilton_inverse(q))
    assert H.zero().payload == (0, 0, 0, 0, 1)
    pairs = list(zip(scalars, qs))
    units = [(s, q) for s, q in pairs if any(q)]
    for _ in range(300):
        (x, p), (y, q) = rng.choice(pairs), rng.choice(pairs)
        _assert_matches(x * y, hamilton_product(p, q))
        _assert_matches(x + y, tuple(f + g for f, g in zip(p, q)))
        _assert_matches(x - y, tuple(f - g for f, g in zip(p, q)))
        (d, dq), (e, eq) = rng.choice(units), rng.choice(units)
        a, b = rho(d), rho(e)
        _assert_auto_matches(a, dq)
        _assert_matches(a(y), conjugate(dq, q))
        _assert_matches(a(y), conjugate(dq, q))       # again, through the cached matrix
        _assert_matches(a.compose(b)(y), conjugate(dq, conjugate(eq, q)))
        _assert_auto_matches(a.compose(b), hamilton_product(dq, eq))
        _assert_auto_matches(a.inverse(), hamilton_inverse(dq))
        _assert_matches(a.inverse()(a(y)), q)


def test_quaternion_random_scalar_is_canonical():
    rng = random.Random(9)
    for _ in range(200):
        _assert_canonical(random_scalar(H, rng))


@pytest.mark.parametrize("value", [True, False])
def test_booleans_are_not_scalars(value):
    with pytest.raises(TypeError):
        Q.scalar(value)
    with pytest.raises(TypeError):
        H.scalar(value)
    with pytest.raises(TypeError):
        H.scalar([value, 0, 0, 0])
    with pytest.raises(TypeError):
        H.scalar([1, 0, value, 0])


def test_inner_auto_caches_its_conjugation(monkeypatch):
    # the first call builds the integer matrix; later calls multiply by it
    # without a quaternion product or inverse
    rng = random.Random(31)
    d = H.scalar([Fraction(-2, 3), 5, Fraction(1, 7), -4])
    xs = [random_scalar(H, rng) for _ in range(20)]
    expected = [d * x * d.inv() for x in xs]
    a = rho(d)
    assert a(xs[0]) == expected[0]
    calls = []
    mul, inv = Scalar.__mul__, Scalar.inv
    monkeypatch.setattr(Scalar, "__mul__", lambda s, o: calls.append("mul") or mul(s, o))
    monkeypatch.setattr(Scalar, "inv", lambda s: calls.append("inv") or inv(s))
    assert [a(x) for x in xs] == expected
    assert calls == []
    # ... and a quaternion product builds no Fraction
    new = Fraction.__new__
    made = []

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    products = [x * y for x in xs for y in xs]
    assert made == []
    assert len(calls) == len(products)


# -- the rational pair kernel against Fraction ------------------------------------


def _oracle_rationals(rng, count):
    """Seeded Fractions: zero, units, large numerators and denominators,
    and small values that cancel often."""
    out = [Fraction(0), Fraction(1), Fraction(-1), Fraction(-3, 7)]
    big = 10 ** 15
    while len(out) < count:
        if len(out) % 3:
            out.append(Fraction(rng.randint(-12, 12), rng.randint(1, 12)))
        else:
            out.append(Fraction(rng.randint(-big, big), rng.randint(1, big)))
    return out


def _assert_rational(s, f):
    assert s.payload == (f.numerator, f.denominator)
    assert s.sort_key() == (f.numerator, f.denominator)
    assert repr(s) == str(f)
    text = json.dumps(scalar_to_json(s))
    assert text == json.dumps(f"{f.numerator}/{f.denominator}")
    assert scalar_from_json(Q, json.loads(text)) == s


def test_rational_kernel_matches_fraction_oracle():
    rng = random.Random(20261020)
    fs = _oracle_rationals(rng, 200)
    scalars = [Q.scalar(f) for f in fs]
    for s, f in zip(scalars, fs):
        _assert_rational(s, f)
        _assert_rational(-s, -f)
        if f:
            _assert_rational(s.inv(), 1 / f)
        else:
            with pytest.raises(DivisionByZero):
                s.inv()
    for _ in range(600):
        i, j = rng.randrange(len(fs)), rng.randrange(len(fs))
        x, y, f, g = scalars[i], scalars[j], fs[i], fs[j]
        _assert_rational(x + y, f + g)
        _assert_rational(x - y, f - g)
        _assert_rational(x * y, f * g)
    assert sorted(scalars, key=Scalar.sort_key) == [Q.scalar(f) for f in sorted(
        fs, key=lambda f: (f.numerator, f.denominator))]


def _fraction_reading(value):
    """(numerator, denominator) as Fraction reads value, or the error the
    rational parser reports for it."""
    try:
        f = Fraction(value)
    except ZeroDivisionError:
        return ValueError, f"zero denominator in {value!r}"
    except ValueError as exc:
        return ValueError, str(exc)
    return f.numerator, f.denominator


@pytest.mark.parametrize("text", [
    "6/8", "-0/7", "+3", " 3", "1.5", "3_0", "٣/4", "-12/35", "0", "007/014", "1e3"])
def test_rational_spellings_read_as_fraction_reads_them(text):
    pair = _fraction_reading(text)
    assert Q.scalar(text).payload == pair
    assert scalar_from_json(Q, text).payload == pair
    num, den = pair
    f = Fraction(num, den)
    assert H.scalar([text, "0", text, "1/1"]) == H.scalar([f, 0, f, 1])


@pytest.mark.parametrize("text", ["--3/4", "3/-4", "1/0", "3/", "/4", "-", "", "3/4/5", "3 / 4", "x", "²", "1/²"])
def test_malformed_rational_spellings_raise_as_fraction_does(text):
    kind, message = _fraction_reading(text)
    for parse in (Q.scalar, lambda v: H.scalar([v, 0, 0, 0]), lambda v: scalar_from_json(Q, v)):
        with pytest.raises(kind) as info:
            parse(text)
        assert str(info.value) == message


def test_oversized_rational_spellings_are_refused_at_once():
    # Fraction("1e10000000") alone takes seconds; a numerator or
    # denominator past int()'s digit limit is refused before or after it
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    for text in ["1e10000000", "-1e-10000000", f"1e{limit}", f"1e-{limit}",
                 "1" * (limit // 2) + f"e{limit // 2 + 1}"]:
        for parse in (Q.scalar, lambda v: H.scalar([0, v, 0, 0])):
            with pytest.raises(ValueError, match="digits"):
                parse(text)
    assert time.perf_counter() - start < 1
    assert Q.scalar(f"1e{limit - 1}").payload == (10 ** (limit - 1), 1)
    assert Q.scalar(f"1e-{limit - 1}").payload == (1, 10 ** (limit - 1))


def test_rational_arithmetic_builds_no_fraction(monkeypatch):
    rng = random.Random(41)
    xs = [random_scalar(Q, rng, nonzero=True) for _ in range(20)]
    texts = [scalar_to_json(x) for x in xs]
    new = Fraction.__new__
    made = []

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    products = [x * y for x in xs for y in xs]
    sums = [x + y - y for x in xs for y in xs]
    inverses = [x.inv() for x in xs]
    read = [scalar_from_json(Q, t) for t in texts]
    [repr(x) for x in products + inverses]
    [x.sort_key() for x in products]
    assert made == []
    assert read == xs and sums == [x for x in xs for _ in xs]
    assert all((x * y) * y.inv() == x for x, y in zip(xs, inverses))
