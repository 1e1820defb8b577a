"""The twisted semigroup ring built from (semigroup, division ring, twist).

Elements are finite left-linear combinations of the nonzero semigroup
elements. The product is determined on the basis by

    (d1 . s)(d2 . t) = d1 . alpha_s(d2) . xi(s, t) . (s.t)     if s.t != theta
                     = 0                                        otherwise

and extended bilinearly; right scalar multiplication is rewritten through
alpha immediately (s . d = alpha_s(d) . s), so every element has a unique
left-coefficient normal form and equality is decidable. A product visits,
for each s in the support of its left factor, only the t with
s.t != theta (the right partners of `SquareFreeSemigroup.composable`),
and hands the terms of each output coefficient to `scalars.product_sum`,
which over Q and H(Q) sums them on unreduced integers and reduces once.

The multiplicative identity is sum_e xi(e,e)^{-1} . e, which reduces to
sum_e e for normal twist data. An element is a unit exactly when all of
its idempotent coefficients are nonzero; inverses come from the diagonal +
nilpotent decomposition r = u + n, with

    r^{-1} = u^{-1} . sum_{m >= 0} (-n u^{-1})^m

a finite sum because the span of the non-idempotent elements is nilpotent.
That follows from `SquareFreeSemigroup.validate`, which refuses an arrow
in a slot (e, e) and any arrow.arrow product that is an idempotent: a
nonzero product of arrows runs along a path through distinct idempotents,
so any product of |E| arrows is theta, and no ring checks it again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cochain import is_cocycle, json_list, unique_entries
from .errors import NotACocycle, NotAUnit, RingMismatch, WitnessInvalid
from .gauge import Gauge, act_gauge, act_phi, cohomologous
from .scalars import Scalar, product_sum, scalar_from_json, scalar_to_json


def require_cocycle(c):
    """Raise NotACocycle, naming the first violations, unless c is a cocycle."""
    verdict = is_cocycle(c)
    if not verdict.ok:
        raise NotACocycle(
            f"twist data violates the cocycle identities at "
            f"{[v.members for v in verdict.violations[:3]]}")


class TwistedRing:
    """Ring attached to a validated cocycle; immutable."""

    __slots__ = ("sg", "domain", "cocycle")

    def __init__(self, cocycle):
        self.sg = cocycle.sg
        self.domain = cocycle.domain
        self.cocycle = cocycle
        require_cocycle(cocycle)

    # -- constructors --------------------------------------------------------

    def element(self, coeffs):
        return RingElement(self, coeffs)

    def zero(self):
        return RingElement(self, {})

    def one(self):
        c = self.cocycle
        return RingElement(self, {e: c.xi_at(e, e).inv() for e in self.sg.idempotents})

    def basis(self, s, d=None):
        """d . s as an element (d defaults to 1)."""
        return RingElement(self, {s: d if d is not None else self.domain.one()})

    # -- identity: the cocycle's, which carries the semigroup and domain ------

    def __eq__(self, other):
        return isinstance(other, TwistedRing) and self.cocycle == other.cocycle

    def __hash__(self):
        return hash(self.cocycle)

    def __repr__(self):
        return f"TwistedRing({self.domain!r}, |S*|={len(self.sg.elements)})"


class RingElement:
    """Sparse left-coefficient combination; zero coefficients never stored."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        clean = {}
        for s, d in coeffs.items():
            if s not in ring.sg.src:
                raise RingMismatch(f"{s!r} is not a basis element")
            if d.domain is not ring.domain:
                raise RingMismatch(f"coefficient of {s!r} lives in {d.domain!r}")
            if not d.is_zero():
                clean[s] = d
        self.coeffs = clean

    @classmethod
    def _of(cls, ring, coeffs):
        """The element of coefficients that arithmetic made, on basis
        elements and in the domain of ring: only the zeros are dropped."""
        x = object.__new__(cls)
        x.ring = ring
        x.coeffs = {s: d for s, d in coeffs.items() if not d.is_zero()}
        return x

    def _check(self, other):
        if not isinstance(other, RingElement) or (
                other.ring is not self.ring and other.ring != self.ring):
            raise RingMismatch("elements of different rings combined")

    def coeff(self, s):
        return self.coeffs.get(s, self.ring.domain.zero())

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for s, d in other.coeffs.items():
            acc = out.get(s)
            out[s] = d if acc is None else acc + d
        return RingElement._of(self.ring, out)

    def __neg__(self):
        return RingElement._of(self.ring, {s: -d for s, d in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            if not isinstance(other, Scalar):
                return NotImplemented
            # right scalar action: s . d = alpha_s(d) . s
            c = self.ring.cocycle
            return RingElement._of(self.ring, {s: d * c.alpha_at(s)(other)
                                               for s, d in self.coeffs.items()})
        self._check(other)
        ring = self.ring
        c, domain = ring.cocycle, ring.domain
        alpha, xi, one = c.alpha, c.xi, domain.one()
        right, y = ring.sg.composable().right, other.coeffs
        terms = {}
        for s, d1 in self.coeffs.items():
            a = alpha.get(s)
            for t, st in right[s]:
                d2 = y.get(t)
                if d2 is not None:
                    term = (d1, a, d2, xi.get((s, t), one))
                    acc = terms.get(st)
                    if acc is None:
                        terms[st] = [term]
                    else:
                        acc.append(term)
        return RingElement._of(ring, {st: product_sum(domain, ts) for st, ts in terms.items()})

    def __rmul__(self, scalar):
        if not isinstance(scalar, Scalar):
            return NotImplemented
        # left scalar action: plain coefficient scaling
        return RingElement._of(self.ring, {s: scalar * d for s, d in self.coeffs.items()})

    # -- units ----------------------------------------------------------------

    def is_unit(self):
        return all(e in self.coeffs for e in self.ring.sg.idempotents)

    def inverse(self):
        if not self.is_unit():
            raise NotAUnit("an inverse needs every idempotent coefficient nonzero")
        ring = self.ring
        c = ring.cocycle
        # diagonal inverse: solve (c_e e)(d_e e) = xi(e,e)^{-1} e exactly, by
        # d_e = xi(e,e)^{-1} c_e^{-1} xi(e,e)^{-1}
        E = ring.sg.idempotents
        v = RingElement._of(ring, {e: (c.xi_at(e, e) * self.coeffs[e] * c.xi_at(e, e)).inv()
                                   for e in E})
        n = RingElement._of(ring, {s: d for s, d in self.coeffs.items() if s not in E})
        x = -(n * v)
        # total = 1 + x + x^2 + ..., up to the first zero power (x^|E| at the latest)
        total, power = ring.one(), x
        while not power.is_zero():
            total = total + power
            power = power * x
        return v * total

    def __eq__(self, other):
        return (isinstance(other, RingElement)
                and (self.ring is other.ring or self.ring == other.ring)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{d!r}.{s}"
                          for s, d in sorted(self.coeffs.items(), key=lambda kv: kv[0]))


def inner_auto(r):
    """Conjugation x -> r x r^{-1} by a unit; a ring automorphism."""
    r_inv = r.inverse()

    def conjugate(x):
        return r * x * r_inv

    conjugate.unit = r
    return conjugate


# ---------------------------------------------------------------------------
# structured isomorphisms


class RingIso:
    """The map gamma(d . s) = mu_e(d) . eta(s) . phi(s) of a gauge
    (mu, eta, phi), extended linearly, from the source ring to the target.

    The map is automatically bijective (each basis line maps onto a scaled
    basis line); multiplicativity is checked by verify_ring_hom.
    """

    __slots__ = ("source", "target", "gauge")

    def __init__(self, source, target, gauge):
        self.source = source
        self.target = target
        self.gauge = gauge

    def apply(self, x):
        if x.ring != self.source:
            raise RingMismatch("argument is not in the source ring")
        sg, g = self.source.sg, self.gauge
        out = {}
        for s, d in x.coeffs.items():
            image = g.phi(s)
            val = g.mu[sg.src[s]](d) * g.eta[s]
            acc = out.get(image)
            out[image] = val if acc is None else acc + val
        return RingElement(self.target, out)

    __call__ = apply

    def __repr__(self):
        return f"RingIso({self.source!r} -> {self.target!r}, phi={self.gauge.phi!r})"


def build_iso(c_source, c_target, witness):
    """Turn a class witness into a concrete ring isomorphism.

    The witness, a gauge (mu, eta, phi), must satisfy
    act_gauge(witness, c_target) == c_source; then
    gamma(d.s) = mu_e(d) eta(s) phi(s) is an isomorphism from the ring of
    c_source onto the ring of c_target. Raises WitnessInvalid naming every
    failing relation otherwise.
    """
    expected = act_gauge(witness, c_target)
    if expected != c_source:
        failures = []
        for s in c_source.sg.elements:
            if expected.alpha_at(s) != c_source.alpha_at(s):
                failures.append((("alpha", s), expected.alpha_at(s), c_source.alpha_at(s)))
        for s, t, _ in c_source.sg.composable().pairs:
            if expected.xi_at(s, t) != c_source.xi_at(s, t):
                failures.append((("xi", s, t), expected.xi_at(s, t), c_source.xi_at(s, t)))
        raise WitnessInvalid(failures)
    return RingIso(TwistedRing(c_source), TwistedRing(c_target), witness)


def identity_iso(ring):
    return RingIso(ring, ring, Gauge.identity(ring.sg, ring.domain))


def find_ring_iso(c_source, c_target):
    """Search for an isomorphism between the two twisted rings.

    Both cochains must be cocycles (NotACocycle otherwise, before any
    search). Iterates phi over Aut(S) and asks for a gauge carrying the
    relabeled target onto the source; the two rings are isomorphic exactly
    when some phi succeeds. Returns a RingIso or None; None is definitive
    over finite fields and the rationals, and the quaternions raise
    NotEnumerable (see gauge.cohomologous).
    """
    sg, domain = c_source.sg, c_source.domain
    if c_target.sg is not sg or c_target.domain is not domain:
        raise RingMismatch("isomorphism search needs a common semigroup and domain")
    source, target = TwistedRing(c_source), TwistedRing(c_target)
    for phi in sg.enumerate_autos():
        gauge = cohomologous(act_phi(phi, c_target), c_source)
        if gauge is not None:
            # act_gauge(witness, c_target) == c_source by construction
            witness = Gauge(sg, domain, gauge.mu, gauge.eta, phi)
            return RingIso(source, target, witness)
    return None


@dataclass(frozen=True)
class HomVerdict:
    ok: bool
    failures: tuple

    def __bool__(self):
        return self.ok


def _probes(domain):
    """1 plus generators of the domain over its prime field: x for GF(p^k)
    with k > 1, i and j for the quaternions, none for GF(p) and Q.

    They decide multiplicativity. For a composable pair (s, t), e = src s,
    f = src t and a' = alpha_{phi(s)} of the target, both sides at
    (d1 s)(d2 t) carry mu_e(d1) as a common left factor, so d1 = 1 decides.
    At d2 = 1 the check is the scalar relation; given it, the check at d2
    says that mu_e o alpha_s and rho_{eta(s)} o a' o mu_f agree at d2. Ring
    automorphisms fix the prime field, and two of them agree on the
    division subring generated by the points where they agree.
    """
    one = domain.one()
    if domain.kind == "rational_quaternion":
        return [one, domain.scalar([0, 1, 0, 0]), domain.scalar([0, 0, 1, 0])]
    if domain.kind == "finite_field" and domain.k > 1:
        return [one, domain.generator()]
    return [one]


def pair_sides(c_src, c_tgt, mu, eta, phi, s, t, d):
    """(gamma((1 s)(d t)), gamma(1 s) . gamma(d t)) for the map
    gamma(d . s) = mu_e(d) eta(s) phi(s) from the ring of c_src to the ring
    of c_tgt, as coefficients of phi(s.t) = phi(s).phi(t); (s, t) must be a
    composable pair whose product phi preserves."""
    sg = c_src.sg
    ps, pt = phi(s), phi(t)
    lhs = mu[sg.src[s]](c_src.alpha_at(s)(d) * c_src.xi_at(s, t)) * eta[sg.compose(s, t)]
    b = mu[sg.src[t]](d) * eta[t]
    return lhs, eta[s] * c_tgt.alpha_at(ps)(b) * c_tgt.xi_at(ps, pt)


def verify_ring_hom(iso):
    """Multiplicativity check of a RingIso on all basis pairs, with failures.

    gamma(1) = 1 is checked first. phi is an automorphism of S by
    construction (see SemigroupAuto), so a pair with s.t = theta has
    phi(s).phi(t) = theta and both sides vanish, and a composable pair has
    phi(s).phi(t) = phi(s.t). So only the composable pairs are read, each
    through pair_sides at each of the probes, which decide it exactly (see
    _probes); a mismatch is reported as ((s, t, d), lhs, rhs). Failures
    come in a fixed order.
    """
    src = iso.source
    c_src, c_tgt = src.cocycle, iso.target.cocycle
    mu, eta, phi = iso.gauge.mu, iso.gauge.eta, iso.gauge.phi
    failures = []
    if iso.apply(src.one()) != iso.target.one():
        failures.append((("one",), iso.apply(src.one()), iso.target.one()))
    probes = _probes(src.domain)
    for s, t, _ in src.sg.composable().pairs:
        for d in probes:
            lhs, rhs = pair_sides(c_src, c_tgt, mu, eta, phi, s, t, d)
            if lhs != rhs:
                failures.append(((s, t, d), lhs, rhs))
    return HomVerdict(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# JSON: {"coeffs": [{"on": s, "value": scalar}]}


def element_to_json(x):
    return {"coeffs": [{"on": s, "value": scalar_to_json(d)}
                       for s, d in sorted(x.coeffs.items(), key=lambda kv: kv[0])]}


def element_from_json(ring, data):
    """The element of {"coeffs": [{"on": s, "value": ...}]}; a basis
    element given twice is refused rather than letting the last entry win."""
    return RingElement(ring, unique_entries(
        "coeffs", ((entry["on"], scalar_from_json(ring.domain, entry["value"]))
                   for entry in json_list(data, "an element", "coeffs", "on"))))
