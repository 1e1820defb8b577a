"""Exact arithmetic for the supported coefficient division rings.

Three domains are available:

  * ``rational`` -- exact fractions (``fractions.Fraction``);
  * ``finite_field`` -- GF(p^k) = Z_p[x]/(m), elements stored as coefficient
    tuples of length k, lowest degree first, with m a monic irreducible
    polynomial of degree k over Z_p;
  * ``rational_quaternion`` -- a + bi + cj + dk over exact rationals, with
    the Hamilton relations i^2 = j^2 = k^2 = -1, ij = k.

Ring automorphisms are kept in a canonical form that makes equality
decidable: the identity, a Frobenius power x -> x^(p^i) on a finite field,
or conjugation by a unit quaternion scaled so its first nonzero Hamilton
coefficient is 1 (conjugation by d and by c*d agree for central c, and the
center of the rational quaternions is the rationals).

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

from fractions import Fraction

from .errors import DivisionByZero, DomainMismatch, NotEnumerable

RATIONAL = "rational"
FINITE_FIELD = "finite_field"
QUATERNION = "rational_quaternion"


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


def _monic_polys(degree, p):
    """All monic polynomials of exactly the given degree, as tuples."""
    if degree == 0:
        yield (1,)
        return

    def rec(i):
        if i == degree:
            yield (1,)
            return
        for tail in rec(i + 1):
            for c in range(p):
                yield (c,) + tail

    yield from rec(0)


def _poly_is_irreducible(m, p):
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(d, p):
            _, r = _poly_divmod(m, g, p)
            if not r:
                return False
    return True


def _is_int(v):
    """An int that is not a bool (JSON true/false decode to bools)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_prime(n):
    if not isinstance(n, int) or n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _default_modulus(p, k):
    """Smallest monic irreducible of degree k over Z_p, ordered by the
    integer value sum(c_i * p^i) of the coefficient tuple."""
    if k == 1:
        return (0, 1)
    for value in range(p ** k, 2 * p ** k):
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
                 "_units", "_zero", "_one", "_identity", "_frobenius")

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
        if modulus is None:
            modulus = _default_modulus(p, k)
        if not all(_is_int(c) for c in modulus):
            raise ValueError("modulus coefficients must be integers")
        modulus = tuple(c % p for c in modulus)
        if len(_poly_trim(modulus)) != k + 1:
            raise ValueError(f"modulus must have degree exactly {k}")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _poly_is_irreducible(modulus, p):
            raise ValueError(f"modulus {list(modulus)} is reducible over Z_{p}")
        # k is implied by the modulus, so (p, modulus) names the field
        field = _FIELDS.get((p, modulus))
        if field is None:
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

    def is_commutative(self):
        return self.kind != QUATERNION

    # -- element constructors

    def scalar(self, value):
        """Coerce a value into this domain.

        rational: int / Fraction / "n/d" string.
        finite_field: int (reduced into the prime field) or coefficient
        sequence of length <= k, lowest degree first.
        quaternion: sequence of 4 rational-like values, or a single
        rational-like for a central element.
        """
        if self.kind == RATIONAL:
            return Scalar(self, _as_fraction(value))
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
            return Scalar(self, tuple(_as_fraction(v) for v in value))
        return Scalar(self, (_as_fraction(value), Fraction(0), Fraction(0), Fraction(0)))

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


def _as_fraction(v):
    if isinstance(v, Fraction):
        return v
    if not isinstance(v, (int, str)):
        raise TypeError(f"cannot interpret {v!r} as an exact rational")
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {v!r}") from None


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """An element of a :class:`ScalarDomain`; immutable, hashable.

    Payloads: Fraction (rational), tuple of ints length k (finite field),
    tuple of 4 Fractions (quaternion). Stored reduced, so equality is
    payload equality. A finite-field Scalar carries the index of its
    payload in the domain's table in ``_i``; the first Scalar built for a
    payload becomes the one the domain hands out, so the domain and
    arithmetic return one object per element.
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
        if self.domain.kind == RATIONAL:
            return self.payload == 0
        return not any(self.payload)

    def is_one(self):
        return self == self.domain.one()

    def __add__(self, other):
        self._check(other)
        kind = self.domain.kind
        if kind == RATIONAL:
            return Scalar(self.domain, self.payload + other.payload)
        if kind == FINITE_FIELD:
            p = self.domain.p
            return self.domain._intern(
                tuple((a + b) % p for a, b in zip(self.payload, other.payload)))
        return Scalar(self.domain,
                      tuple(a + b for a, b in zip(self.payload, other.payload)))

    def __neg__(self):
        kind = self.domain.kind
        if kind == RATIONAL:
            return Scalar(self.domain, -self.payload)
        if kind == FINITE_FIELD:
            p = self.domain.p
            return self.domain._intern(tuple((-a) % p for a in self.payload))
        return Scalar(self.domain, tuple(-a for a in self.payload))

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
        self._check(other)
        if domain.kind == RATIONAL:
            return Scalar(domain, self.payload * other.payload)
        a1, b1, c1, d1 = self.payload
        a2, b2, c2, d2 = other.payload
        return Scalar(domain, (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        ))

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
            return Scalar(self.domain, 1 / self.payload)
        a, b, c, d = self.payload
        n = a * a + b * b + c * c + d * d
        return Scalar(self.domain, (a / n, -b / n, -c / n, -d / n))

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
        if self.domain.kind == RATIONAL:
            return (self.payload.numerator, self.payload.denominator)
        if self.domain.kind == FINITE_FIELD:
            return self.payload
        return tuple((f.numerator, f.denominator) for f in self.payload)

    def __repr__(self):
        kind = self.domain.kind
        if kind == RATIONAL:
            return str(self.payload)
        if kind == FINITE_FIELD:
            return "[" + ",".join(str(c) for c in self.payload) + "]"
        a, b, c, d = self.payload
        return f"({a}+{b}i+{c}j+{d}k)"


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
    Frobenius power caches its images by the index of the argument.
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
        if domain.is_commutative():
            return cls.identity(domain)
        a, b, c, dd = d.payload
        if b == 0 and c == 0 and dd == 0:
            return cls.identity(domain)  # central: trivial conjugation
        for coeff in d.payload:
            if coeff != 0:
                scale = coeff
                break
        payload = tuple(x / scale for x in d.payload)
        return cls(domain, INNER, payload)

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
        d = Scalar(self.domain, self.data)
        return d * x * d.inv()

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
            d = Scalar(self.domain, self.data) * Scalar(self.domain, other.data)
            return RingAuto.inner(self.domain, d)
        raise DomainMismatch("cannot mix frobenius and inner forms")

    def inverse(self):
        if self.form == IDENTITY:
            return self
        if self.form == FROBENIUS:
            return RingAuto.frobenius(self.domain, -self.data)
        return RingAuto.inner(self.domain, Scalar(self.domain, self.data).inv())

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
        return (2,) + tuple((f.numerator, f.denominator) for f in self.data)

    def __repr__(self):
        if self.form == IDENTITY:
            return "id"
        if self.form == FROBENIUS:
            return f"frob^{self.data}"
        return f"inner{Scalar(self.domain, self.data)!r}"


_RATIONALS = ScalarDomain(RATIONAL)
_QUATERNIONS = ScalarDomain(QUATERNION)


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
    """All nonzero elements of a finite field, sorted canonically."""
    if domain.kind != FINITE_FIELD:
        raise NotEnumerable(f"{domain!r} has infinitely many units")
    if domain._units is None:
        def vectors(i):
            if i == domain.k:
                yield ()
                return
            for c in range(domain.p):
                for tail in vectors(i + 1):
                    yield (c,) + tail

        domain._units = sorted((domain._intern(v) for v in vectors(0) if any(v)),
                               key=Scalar.sort_key)
    return list(domain._units)


def random_scalar(domain, rng, nonzero=False):
    """Draw a scalar using the supplied random.Random instance."""
    while True:
        if domain.kind == RATIONAL:
            s = Scalar(domain, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        elif domain.kind == FINITE_FIELD:
            s = domain._intern(tuple(rng.randrange(domain.p) for _ in range(domain.k)))
        else:
            s = Scalar(domain, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                     for _ in range(4)))
        if not (nonzero and s.is_zero()):
            return s


# ---------------------------------------------------------------------------
# JSON encodings: rational "n/d", finite field coefficient array (lowest
# degree first, fixed length k), quaternion array of 4 rational strings.


def scalar_to_json(s):
    kind = s.domain.kind
    if kind == RATIONAL:
        return f"{s.payload.numerator}/{s.payload.denominator}"
    if kind == FINITE_FIELD:
        return list(s.payload)
    return [f"{f.numerator}/{f.denominator}" for f in s.payload]


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
            or not all(isinstance(v, str) for v in data)):
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
