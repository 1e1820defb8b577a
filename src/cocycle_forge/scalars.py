"""Exact arithmetic for the supported coefficient division rings.

Three domains are available:

  * ``rational`` -- exact rationals, stored as one integer pair (n, d)
    meaning n/d, with gcd(n, d) = 1 and d > 0: a product takes two gcds
    (Henrici's, Knuth, *TAOCP* Vol. 2, 4.5.1), a sum one and an inverse
    none;
  * ``finite_field`` -- GF(p^k) = Z_p[x]/(m), elements stored as coefficient
    tuples of length k, lowest degree first, with m a monic irreducible
    polynomial of degree k over Z_p;
  * ``rational_quaternion`` -- a + bi + cj + dk over exact rationals, with
    the Hamilton relations i^2 = j^2 = k^2 = -1, ij = k, stored as one
    integer tuple (a, b, c, d, n) meaning (a + bi + cj + dk)/n, with
    gcd(a, b, c, d, n) = 1 and n > 0, so arithmetic is plain int arithmetic
    and one gcd.

Neither infinite domain builds a ``fractions.Fraction`` in its arithmetic.
Strings of the canonical forms "n/d" and "n" (ASCII digits, an optional
minus on n) are read with int(); every other spelling goes through
``Fraction``, so a value reads, and a malformed one fails, as ``Fraction``
reads it. `product_sum` sums products of scalars, as a ring product does,
on unreduced integers over Q and H(Q), with one reduction per sum.

Ring automorphisms are kept in a canonical form that makes equality
decidable: the identity, a Frobenius power x -> x^(p^i) on a finite field,
or conjugation by a unit quaternion scaled so its first nonzero Hamilton
coefficient is 1 (conjugation by d and by c*d agree for central c, and the
center of the rational quaternions is the rationals). Conjugation fixes
the rationals and is linear over them, so an inner automorphism computes
its action on the pure part once, as an integer 3x3 matrix over one
denominator, and caches it.

There is one domain object per field per process, so domains compare by
identity; scalars and automorphisms are immutable values over them.

Over a finite field there is also one Scalar object per element and one
RingAuto per Frobenius power. Elements are interned on demand, each with a
small index in its domain, so building a field does no O(q) work.
Products, inverses and Frobenius images are computed once, through the
polynomial arithmetic below, and cached by those indices; arithmetic then
returns the cached objects instead of building new ones. Equality still
compares values (identity is only its fast path), and the hash and sort key
are those of the payload.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from numbers import Number

from .errors import DivisionByZero, DomainMismatch, NotEnumerable

RATIONAL = "rational"
FINITE_FIELD = "finite_field"
QUATERNION = "rational_quaternion"
_RAT_ZERO = (0, 1)               # the rational payload of 0
_QUAT_ZERO = (0, 0, 0, 0, 1)     # the quaternion payload of 0


# ---------------------------------------------------------------------------
# polynomial arithmetic over Z_p (tuples, lowest degree first, no trailing 0)


def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return _poly_trim(q), _poly_trim(a)


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _poly_is_irreducible(m, p):
    """Ben-Or's test: m of degree k >= 1 is irreducible over Z_p exactly when
    gcd(x^(p^i) - x, m) = 1 for i = 1 .. k/2, since a reducible m has an
    irreducible factor of some degree i <= k/2, and that factor divides
    x^(p^i) - x. The powers are built in turn and the test stops at the
    first i that fails."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    x = _poly_divmod((0, 1), m, p)[1]
    h = x                   # x^(p^i) mod m
    for _ in range(deg // 2):
        base, h, e = h, (1,), p
        while e:
            if e & 1:
                h = _poly_divmod(_poly_mul(h, base, p), m, p)[1]
            base = _poly_divmod(_poly_mul(base, base, p), m, p)[1]
            e >>= 1
        if len(_poly_gcd(m, _poly_sub(h, x, p), p)) != 1:
            return False
    return True


def _is_int(v):
    """An int that is not a bool (JSON true/false decode to bools)."""
    return isinstance(v, int) and not isinstance(v, bool)


# the first 13 primes decide primality exactly below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin below MAX_PRIME; a ValueError above it."""
    if not isinstance(n, int) or n < 2:
        return False
    if n >= MAX_PRIME:
        raise ValueError(f"p = {n} is too large: primality is decided only "
                         f"below {MAX_PRIME}")
    if n in _MR_BASES:
        return True
    if any(n % b == 0 for b in _MR_BASES):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _MR_BASES:
        y = pow(b, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(r - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


# GF(p^k) is built only while k^3 * p.bit_length() is at most this: it
# bounds one irreducibility test, at most k/2 Frobenius powers of
# p.bit_length() squarings each, of polynomials of degree below k. On the
# two largest and three random primes the bound admits for each k, finding
# the default modulus took at most 0.09 s (Python 3.11, 2-core host).
# GF(2^20) is in, GF(2^21) is not, and a 19-digit p goes up to k = 6.
MAX_FIELD_COST = 2 ** 14


def _default_modulus(p, k):
    """Smallest monic irreducible of degree k over Z_p, ordered by the
    integer value sum(c_i * p^i) of the coefficient tuple.

    The first p candidates are the binomials x^k + c. One of them can be
    irreducible only if every prime factor of k divides p - 1, and
    p = 1 (mod 4) when 4 | k (Lidl and Niederreiter, *Finite Fields*,
    Thm 3.75); otherwise all p are skipped.
    """
    if k == 1:
        return (0, 1)
    binomials = all((p - 1) % r == 0 for r in _prime_divisors(k)) and (k % 4 or p % 4 == 1)
    start = p ** k + (0 if binomials else p)
    for value in range(start, 2 * p ** k):
        coeffs = []
        v = value
        for _ in range(k + 1):
            coeffs.append(v % p)
            v //= p
        m = tuple(coeffs)
        if _poly_is_irreducible(m, p):
            return m
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# domains


class ScalarDomain:
    """A concrete coefficient division ring, compared by identity.

    Use the factory classmethods :meth:`rational`, :meth:`finite_field`
    and :meth:`quaternion`; each returns the one domain of its field in
    this process.
    """

    __slots__ = ("kind", "p", "k", "modulus", "_elements", "_products", "_inverses",
                 "_units", "_logs", "_zero", "_one", "_identity", "_frobenius")

    def __init__(self, kind, p=None, k=None, modulus=None):
        self.kind = kind
        self.p = p
        self.k = k
        self.modulus = modulus
        finite = kind == FINITE_FIELD
        # finite fields: payload -> its one Scalar, filled on demand (the
        # index of an element is its position here), and the products (by
        # index pair) and inverses (by index) of those Scalars
        self._elements = {} if finite else None
        self._products = {} if finite else None
        self._inverses = {} if finite else None
        self._units = None
        self._logs = None   # log tables (see _logs.py), built when a listing needs them
        # the constants every sparse default falls back on, built once
        self._zero = self.scalar(0)
        self._one = self.scalar(1)
        self._identity = RingAuto(self, IDENTITY)
        self._frobenius = (self._identity,) + tuple(
            RingAuto(self, FROBENIUS, i) for i in range(1, k or 1))

    @classmethod
    def rational(cls):
        return _RATIONALS

    @classmethod
    def quaternion(cls):
        return _QUATERNIONS

    @classmethod
    def finite_field(cls, p, k=1, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if not _is_int(k) or k < 1:
            raise ValueError("k must be a positive integer")
        if k ** 3 * p.bit_length() > MAX_FIELD_COST:
            raise ValueError(f"GF({p}^{k}) is too large: fields are built only while "
                             f"k^3 times the bit length of p is at most {MAX_FIELD_COST}")
        if modulus is None:
            modulus = _DEFAULT_MODULI.get((p, k))
            if modulus is None:
                modulus = _DEFAULT_MODULI[(p, k)] = _default_modulus(p, k)
        if not all(_is_int(c) for c in modulus):
            raise ValueError("modulus coefficients must be integers")
        modulus = tuple(c % p for c in modulus)
        if len(_poly_trim(modulus)) != k + 1:
            raise ValueError(f"modulus must have degree exactly {k}")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        # k is implied by the modulus, so (p, modulus) names the field; the
        # modulus of a field already made was found irreducible then
        field = _FIELDS.get((p, modulus))
        if field is None:
            if not _poly_is_irreducible(modulus, p):
                raise ValueError(f"modulus {list(modulus)} is reducible over Z_{p}")
            field = _FIELDS[(p, modulus)] = cls(FINITE_FIELD, p, k, modulus)
        return field

    def __repr__(self):
        if self.kind == FINITE_FIELD:
            return f"GF({self.p ** self.k})"
        return "Q" if self.kind == RATIONAL else "H(Q)"

    @property
    def order(self):
        """Number of elements, or None when infinite."""
        return self.p ** self.k if self.kind == FINITE_FIELD else None

    # -- element constructors

    def scalar(self, value):
        """Coerce a value into this domain.

        rational: int / Fraction / "n/d" string.
        finite_field: int (reduced into the prime field) or coefficient
        sequence of length <= k, lowest degree first.
        quaternion: sequence of 4 rational-like values, or a single
        rational-like for a central element.

        Rational-like values are ints, Fractions and "n/d" strings; bools
        are refused.
        """
        if self.kind == RATIONAL:
            return Scalar(self, _as_pair(value))
        if self.kind == FINITE_FIELD:
            if isinstance(value, int):
                payload = (value % self.p,) + (0,) * (self.k - 1)
            else:
                seq = [int(c) % self.p for c in value]
                if len(seq) > self.k:
                    raise ValueError(f"coefficient vector longer than k={self.k}")
                seq += [0] * (self.k - len(seq))
                payload = tuple(seq)
            return self._intern(payload)
        if isinstance(value, (list, tuple)):
            if len(value) != 4:
                raise ValueError("quaternion needs 4 components")
            pairs = [_as_pair(v) for v in value]
            n = lcm(*[d for _, d in pairs])
            # each a/d is reduced, so a prime dividing n divides some d
            # to its full power in n and misses that numerator: gcd 1
            return Scalar(self, (*[a * (n // d) for a, d in pairs], n))
        a, d = _as_pair(value)
        return Scalar(self, (a, 0, 0, 0, d))

    def _intern(self, payload):
        """The one Scalar of a reduced finite-field payload."""
        s = self._elements.get(payload)
        return Scalar(self, payload) if s is None else s

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def generator(self):
        """A convenient non-identity element: the class of x for GF(p^k)
        with k > 1, the quaternion i, or 2 for the rationals."""
        if self.kind == FINITE_FIELD:
            if self.k == 1:
                return self.scalar(2 if self.p > 2 else 1)
            return self.scalar([0, 1])
        if self.kind == QUATERNION:
            return self.scalar([0, 1, 0, 0])
        return self.scalar(2)


_FIELDS = {}
_DEFAULT_MODULI = {}    # (p, k) -> the default modulus, found once


def _exponent(text):
    """The magnitude of the decimal exponent of a spelling such as
    "1.5e-3": 0 where it has none, or one that Fraction would refuse."""
    exp = text.lower().partition("e")[2]
    try:
        return abs(int(exp)) if exp else 0
    except ValueError:
        return 0


def _as_pair(v):
    """A rational-like value as a reduced pair (n, d), d > 0. Ints,
    Fractions, and strings "n/d" and "n" of ASCII digits with an optional
    minus on n and d > 0 are read directly; any other string as Fraction
    reads it, with Fraction's errors. A numerator or denominator of more
    digits than int() reads (sys.get_int_max_str_digits()) is refused as
    int() refuses one spelled out, and an exponent past that limit before
    Fraction raises 10 to it."""
    if isinstance(v, str):
        num, slash, den = v.partition("/")
        if v.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            n, d = int(num), int(den) if slash else 1
            if d:
                g = gcd(n, d)
                return (n // g, d // g) if g != 1 else (n, d)
    elif _is_int(v):
        return v, 1
    elif isinstance(v, Fraction):
        return v.numerator, v.denominator
    else:
        raise TypeError(f"cannot interpret {v!r} as an exact rational")
    limit = sys.get_int_max_str_digits()
    too_long = ValueError(f"{v!r} exceeds the limit ({limit} digits) for integer string conversion")
    if limit and _exponent(v) > limit:
        raise too_long
    try:
        f = Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v!r}") from None
    if limit and max(abs(f.numerator), f.denominator) >= 10 ** limit:
        raise too_long
    return f.numerator, f.denominator


def _rat(domain, n, d):
    """The rational n/d for ints with d > 0, reduced."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return Scalar(domain, (n, d))


def _quat(domain, payload):
    """The quaternion of an int tuple (a, b, c, d, n), n > 0, reduced."""
    a, b, c, d, n = payload
    g = gcd(a, b, c, d, n)
    if g != 1:
        payload = (a // g, b // g, c // g, d // g, n // g)
    return Scalar(domain, payload)


def _qmul(x, y):
    """The Hamilton product of two quaternion payloads, unreduced."""
    a1, b1, c1, d1, n1 = x
    a2, b2, c2, d2, n2 = y
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            n1 * n2)


def _quat_terms(payload):
    """The four Hamilton coefficients of a quaternion payload, each as a
    (numerator, denominator) pair in lowest terms."""
    n = payload[4]
    out = []
    for x in payload[:4]:
        g = gcd(x, n)
        out.append((x // g, n // g))
    return tuple(out)


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """An element of a :class:`ScalarDomain`; immutable, hashable.

    Payloads: int pair (n, d) for n/d with gcd 1 and d > 0 (rational),
    tuple of ints length k (finite field), int tuple (a, b, c, d, n) for
    (a + bi + cj + dk)/n with gcd 1 and n > 0 (quaternion). Stored
    reduced, so equality is payload equality. A
    finite-field Scalar carries the index of its payload in the domain's
    table in ``_i``; the first Scalar built for a payload becomes the one
    the domain hands out, so the domain and arithmetic return one object
    per element.
    """

    __slots__ = ("domain", "payload", "_i")

    def __init__(self, domain, payload):
        self.domain = domain
        self.payload = payload
        elements = domain._elements
        if elements is not None:
            first = elements.setdefault(payload, self)
            self._i = len(elements) - 1 if first is self else first._i

    def _check(self, other):
        if not isinstance(other, Scalar) or other.domain is not self.domain:
            raise DomainMismatch(f"{self!r} and {other!r} live in different domains")

    def is_zero(self):
        kind = self.domain.kind
        if kind == RATIONAL:
            return self.payload == _RAT_ZERO
        if kind == QUATERNION:
            return self.payload == _QUAT_ZERO
        return not any(self.payload)

    def is_one(self):
        return self == self.domain.one()

    def __add__(self, other):
        self._check(other)
        kind = self.domain.kind
        if kind == RATIONAL:
            n1, d1 = self.payload
            n2, d2 = other.payload
            if d1 != d2:
                return _rat(self.domain, n1 * d2 + n2 * d1, d1 * d2)
            if d1 == 1:
                return Scalar(self.domain, (n1 + n2, 1))
            return _rat(self.domain, n1 + n2, d1)
        if kind == FINITE_FIELD:
            p = self.domain.p
            return self.domain._intern(
                tuple((a + b) % p for a, b in zip(self.payload, other.payload)))
        a1, b1, c1, d1, n1 = self.payload
        a2, b2, c2, d2, n2 = other.payload
        if n1 == n2:
            return _quat(self.domain, (a1 + a2, b1 + b2, c1 + c2, d1 + d2, n1))
        return _quat(self.domain, (a1 * n2 + a2 * n1, b1 * n2 + b2 * n1,
                                   c1 * n2 + c2 * n1, d1 * n2 + d2 * n1, n1 * n2))

    def __neg__(self):
        kind = self.domain.kind
        if kind == RATIONAL:
            n, d = self.payload
            return Scalar(self.domain, (-n, d))
        if kind == FINITE_FIELD:
            p = self.domain.p
            return self.domain._intern(tuple((-a) % p for a in self.payload))
        a, b, c, d, n = self.payload
        return Scalar(self.domain, (-a, -b, -c, -d, n))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        domain = self.domain
        products = domain._products
        if products is not None and other.__class__ is Scalar and other.domain is domain:
            key = (self._i, other._i)
            try:
                return products[key]
            except KeyError:
                prod = _poly_mul(self.payload, other.payload, domain.p)
                _, rem = _poly_divmod(prod, domain.modulus, domain.p)
                hit = products[key] = domain._intern(rem + (0,) * (domain.k - len(rem)))
                return hit
        if not isinstance(other, Scalar) or other.domain is not domain:
            if not isinstance(other, (Scalar, Number)):
                return NotImplemented   # e.g. the left scalar action on a ring element
            self._check(other)      # raises
        if domain.kind == RATIONAL:
            # Henrici: cancel across, and the product is reduced
            n1, d1 = self.payload
            n2, d2 = other.payload
            g1, g2 = gcd(n1, d2), gcd(n2, d1)
            return Scalar(domain, ((n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)))
        return _quat(domain, _qmul(self.payload, other.payload))

    def inv(self):
        inverses = self.domain._inverses
        if inverses is not None:
            try:
                return inverses[self._i]
            except KeyError:
                if self.is_zero():
                    raise DivisionByZero(f"inverse of zero in {self.domain!r}") from None
                # x^(q-1) = 1 for every unit x, so x^(q-2) is its inverse
                hit = inverses[self._i] = self ** (self.domain.order - 2)
                return hit
        if self.is_zero():
            raise DivisionByZero(f"inverse of zero in {self.domain!r}")
        if self.domain.kind == RATIONAL:
            n, d = self.payload
            return Scalar(self.domain, (d, n) if n > 0 else (-d, -n))
        # conj(q)/|q|^2 with q = x/n is n conj(x)/|x|^2
        a, b, c, d, n = self.payload
        return _quat(self.domain, (a * n, -b * n, -c * n, -d * n,
                                   a * a + b * b + c * c + d * d))

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        out = self.domain.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return self is other or (isinstance(other, Scalar) and self.domain is other.domain
                                 and self.payload == other.payload)

    def __hash__(self):
        return hash((self.domain, self.payload))

    def sort_key(self):
        if self.domain.kind == QUATERNION:
            return _quat_terms(self.payload)
        return self.payload

    def __repr__(self):
        kind = self.domain.kind
        if kind == RATIONAL:
            return _rat_text(*self.payload)
        if kind == FINITE_FIELD:
            return "[" + ",".join(str(c) for c in self.payload) + "]"
        a, b, c, d = (_rat_text(*t) for t in _quat_terms(self.payload))
        return f"({a}+{b}i+{c}j+{d}k)"


def _rat_text(n, d):
    """str(Fraction(n, d)) of a reduced pair."""
    return str(n) if d == 1 else f"{n}/{d}"


# ---------------------------------------------------------------------------
# automorphisms


IDENTITY = "identity"
FROBENIUS = "frobenius"
INNER = "inner"


class RingAuto:
    """An automorphism of a coefficient domain, in canonical form.

    Forms: ``identity`` on any domain; ``frobenius(i)`` with 0 < i < k on a
    finite field (x -> x^(p^i)); ``inner(d)`` on the quaternions with d a
    non-central unit whose first nonzero Hamilton coefficient is 1.
    Canonical form makes equality a structural check. The identity and the
    Frobenius powers are one object each per field, built with it; a
    Frobenius power caches its images by the index of the argument, and an
    inner automorphism caches, on its first call, the integer matrix of its
    action on the pure quaternions (see _conjugation_matrix).
    """

    __slots__ = ("domain", "form", "data", "_images")

    def __init__(self, domain, form, data=None):
        self.domain = domain
        self.form = form
        self.data = data
        self._images = {} if form == FROBENIUS else None

    @classmethod
    def identity(cls, domain):
        return domain._identity

    @classmethod
    def frobenius(cls, domain, i):
        if domain.kind != FINITE_FIELD:
            raise DomainMismatch("frobenius is only defined on finite fields")
        return domain._frobenius[i % domain.k]

    @classmethod
    def inner(cls, domain, d):
        """Conjugation x -> d x d^{-1}; collapses to the identity on
        commutative domains and for central d."""
        if d.is_zero():
            raise DivisionByZero("conjugation by zero")
        if d.domain is not domain:
            raise DomainMismatch("unit and domain disagree")
        if domain.kind != QUATERNION:
            return domain._identity
        a, b, c, dd, _ = d.payload
        return _inner(domain, a, b, c, dd)

    def __call__(self, x):
        if x.domain is not self.domain:
            raise DomainMismatch("automorphism applied outside its domain")
        if self.form == IDENTITY:
            return x
        if self.form == FROBENIUS:
            try:
                return self._images[x._i]
            except KeyError:
                hit = self._images[x._i] = x ** (self.domain.p ** self.data)
                return hit
        p = self._conjugate(x.payload)
        return x if p is x.payload else _quat(self.domain, p)

    def _conjugate(self, payload):
        """The image of a quaternion payload under this inner automorphism
        (or the identity), unreduced; the payload itself where it is
        central."""
        a, b, c, d, n = payload
        if not (b or c or d) or self.form == IDENTITY:
            return payload
        m = self._images
        if m is None:
            m = self._images = _conjugation_matrix(self.data)
        den, m00, m01, m02, m10, m11, m12, m20, m21, m22 = m
        return (a * den,
                m00 * b + m01 * c + m02 * d,
                m10 * b + m11 * c + m12 * d,
                m20 * b + m21 * c + m22 * d,
                n * den)

    def compose(self, other):
        """self after other: (self.compose(other))(x) == self(other(x))."""
        if other.domain is not self.domain:
            raise DomainMismatch("composing automorphisms of different domains")
        if self.form == IDENTITY:
            return other
        if other.form == IDENTITY:
            return self
        if self.form == FROBENIUS and other.form == FROBENIUS:
            return RingAuto.frobenius(self.domain, self.data + other.data)
        if self.form == INNER and other.form == INNER:
            return _inner(self.domain, *_qmul(self.data, other.data)[:4])
        raise DomainMismatch("cannot mix frobenius and inner forms")

    def inverse(self):
        if self.form == IDENTITY:
            return self
        if self.form == FROBENIUS:
            return RingAuto.frobenius(self.domain, -self.data)
        # conjugation by the conjugate, a positive multiple of the inverse
        a, b, c, d, _ = self.data
        return _inner(self.domain, a, -b, -c, -d)

    def is_identity(self):
        return self.form == IDENTITY

    def __eq__(self, other):
        return self is other or (isinstance(other, RingAuto) and self.domain is other.domain
                                 and self.form == other.form and self.data == other.data)

    def __hash__(self):
        return hash((self.domain, self.form, self.data))

    def sort_key(self):
        if self.form == IDENTITY:
            return (0,)
        if self.form == FROBENIUS:
            return (1, self.data)
        return (2,) + _quat_terms(self.data)

    def __repr__(self):
        if self.form == IDENTITY:
            return "id"
        if self.form == FROBENIUS:
            return f"frob^{self.data}"
        return f"inner{Scalar(self.domain, self.data)!r}"


def _inner(domain, a, b, c, d):
    """Conjugation by the nonzero quaternion a + bi + cj + dk, in canonical
    form: the identity when it is central, else its data divided by the
    first nonzero coefficient, with one gcd."""
    if not (b or c or d):
        return domain._identity
    # x/lead, with g carrying the sign of lead so that the denominator
    # lead/g is positive
    lead = a or b or c or d
    g = gcd(a, b, c, d)
    if lead < 0:
        g = -g
    return RingAuto(domain, INNER, (a // g, b // g, c // g, d // g, lead // g))


def _conjugation_matrix(data):
    """x -> q x q^{-1} on the pure quaternions b i + c j + d k, for
    q = w + x i + y j + z k up to a central factor, as (den, m00, ..., m22):
    the image has coefficients (m_r0 b + m_r1 c + m_r2 d)/den. It is the
    rotation q v conj(q)/|q|^2, reduced by one gcd."""
    w, x, y, z, _ = data
    m = (w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y),
         2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x),
         2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z)
    den = w * w + x * x + y * y + z * z
    g = gcd(den, *m)
    return (den // g,) + tuple(v // g for v in m)


_RATIONALS = ScalarDomain(RATIONAL)
_QUATERNIONS = ScalarDomain(QUATERNION)


def product_sum(domain, terms):
    """The sum of x . auto(y) . z over the (x, auto, y, z) in terms, a
    nonempty list of scalars x, y, z and automorphisms auto of the domain,
    None standing for the identity. Over Q and H(Q) the automorphisms, the
    products and the sum run on unreduced integers and are reduced once;
    over a finite field they are the interned images, products and sums."""
    kind = domain.kind
    if kind == RATIONAL:
        # the identity is the only automorphism of Q
        num, den = 0, 1
        for x, _, y, z in terms:
            (a, b), (c, d), (e, f) = x.payload, y.payload, z.payload
            n, m = a * c * e, b * d * f
            if m == den:
                num += n
            else:
                num, den = num * m + n * den, den * m
        return _rat(domain, num, den)
    if kind == QUATERNION:
        acc = _QUAT_ZERO
        for x, auto, y, z in terms:
            p = y.payload if auto is None else auto._conjugate(y.payload)
            a, b, c, d, n = _qmul(_qmul(x.payload, p), z.payload)
            A, B, C, D, N = acc
            if n == N:
                acc = (A + a, B + b, C + c, D + d, N)
            else:
                acc = (A * n + a * N, B * n + b * N, C * n + c * N, D * n + d * N, N * n)
        return _quat(domain, acc)
    total = None
    for x, auto, y, z in terms:
        v = x * (y if auto is None else auto(y)) * z
        total = v if total is None else total + v
    return total


def rho(d):
    """The inner automorphism x -> d x d^{-1} of d's domain."""
    return RingAuto.inner(d.domain, d)


# ---------------------------------------------------------------------------
# enumeration and sampling


def enumerate_autos(domain):
    """All automorphisms of the domain, canonical order.

    Finite fields carry exactly the k Frobenius powers; the rationals only
    the identity. Raises NotEnumerable for the quaternions, which have an
    infinite family of conjugations.
    """
    if domain.kind == FINITE_FIELD:
        return [RingAuto.frobenius(domain, i) for i in range(domain.k)]
    if domain.kind == RATIONAL:
        return [RingAuto.identity(domain)]
    raise NotEnumerable("the rational quaternions have infinitely many automorphisms")


def enumerate_units(domain):
    """All nonzero elements of a finite field, sorted canonically: the
    sort key of an element is its coefficient tuple, which `product`
    yields in lexicographic order."""
    if domain.kind != FINITE_FIELD:
        raise NotEnumerable(f"{domain!r} has infinitely many units")
    if domain._units is None:
        domain._units = [domain._intern(v)
                         for v in product(range(domain.p), repeat=domain.k) if any(v)]
    return list(domain._units)


def random_scalar(domain, rng, nonzero=False):
    """Draw a scalar using the supplied random.Random instance."""
    while True:
        if domain.kind == RATIONAL:
            s = _rat(domain, rng.randint(-9, 9), rng.randint(1, 9))
        elif domain.kind == FINITE_FIELD:
            s = domain._intern(tuple(rng.randrange(domain.p) for _ in range(domain.k)))
        else:
            s = domain.scalar([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                               for _ in range(4)])
        if not (nonzero and s.is_zero()):
            return s


# ---------------------------------------------------------------------------
# JSON encodings: rational "n/d", finite field coefficient array (lowest
# degree first, fixed length k), quaternion array of 4 rational strings.


def scalar_to_json(s):
    kind = s.domain.kind
    if kind == RATIONAL:
        return "{}/{}".format(*s.payload)
    if kind == FINITE_FIELD:
        return list(s.payload)
    return [f"{num}/{den}" for num, den in _quat_terms(s.payload)]


def scalar_from_json(domain, data):
    kind = domain.kind
    if kind == RATIONAL:
        if not isinstance(data, str):
            raise ValueError("rational scalars are encoded as strings like \"3/4\"")
        return domain.scalar(data)
    if kind == FINITE_FIELD:
        if not isinstance(data, list) or not all(_is_int(c) for c in data):
            raise ValueError("finite-field scalars are integer coefficient arrays")
        return domain.scalar(data)
    if (not isinstance(data, list) or len(data) != 4
            or not all([isinstance(v, str) for v in data])):
        raise ValueError("quaternions are arrays of 4 rational strings")
    return domain.scalar(data)


def domain_to_json(domain):
    if domain.kind == FINITE_FIELD:
        return {"kind": FINITE_FIELD, "p": domain.p, "k": domain.k,
                "modulus": list(domain.modulus)}
    return {"kind": domain.kind}


def domain_from_json(data):
    if not isinstance(data, dict):
        raise TypeError("a division ring is a JSON object")
    kind = data.get("kind")
    if kind == RATIONAL:
        return ScalarDomain.rational()
    if kind == QUATERNION:
        return ScalarDomain.quaternion()
    if kind == FINITE_FIELD:
        return ScalarDomain.finite_field(data["p"], data["k"], data.get("modulus"))
    raise ValueError(f"unknown domain kind {kind!r}")


def auto_to_json(a):
    if a.form == IDENTITY:
        return "identity"
    if a.form == FROBENIUS:
        return {"frobenius": a.data}
    return {"inner": scalar_to_json(Scalar(a.domain, a.data))}


def auto_from_json(domain, data):
    if data == "identity":
        return RingAuto.identity(domain)
    if isinstance(data, dict) and "frobenius" in data:
        power = data["frobenius"]
        if not _is_int(power):
            raise ValueError(f"a Frobenius power is an integer, not {power!r}")
        return RingAuto.frobenius(domain, power)
    if isinstance(data, dict) and "inner" in data:
        return RingAuto.inner(domain, scalar_from_json(domain, data["inner"]))
    raise ValueError(f"unknown automorphism encoding {data!r}")
