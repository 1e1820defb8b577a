"""The twisted semigroup ring built from (semigroup, division ring, twist).

Elements are finite left-linear combinations of the nonzero semigroup
elements. The product is determined on the basis by

    (d1 . s)(d2 . t) = d1 . alpha_s(d2) . xi(s, t) . (s.t)     if s.t != theta
                     = 0                                        otherwise

and extended bilinearly; right scalar multiplication is rewritten through
alpha immediately (s . d = alpha_s(d) . s), so every element has a unique
left-coefficient normal form and equality is decidable.

The multiplicative identity is sum_e xi(e,e)^{-1} . e, which reduces to
sum_e e for normal twist data. An element is a unit exactly when all of
its idempotent coefficients are nonzero; inverses come from the diagonal +
nilpotent decomposition r = u + n, with

    r^{-1} = u^{-1} . sum_{m >= 0} (-n u^{-1})^m

a finite sum because the span of the non-idempotent elements is nilpotent
(validated once per ring by powering its support).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cochain import is_cocycle
from .errors import NotACocycle, NotAUnit, NotNilpotent, RingMismatch, WitnessInvalid
from .gauge import Gauge, act_gauge, act_phi, cohomologous
from .scalars import Scalar, scalar_from_json, scalar_to_json


def require_cocycle(c):
    """Raise NotACocycle, naming the first violations, unless c is a cocycle."""
    verdict = is_cocycle(c)
    if not verdict.ok:
        raise NotACocycle(
            f"twist data violates the cocycle identities at "
            f"{[v.members for v in verdict.violations[:3]]}")


class TwistedRing:
    """Ring attached to a validated cocycle; immutable."""

    __slots__ = ("sg", "domain", "cocycle", "nilpotency_index")

    def __init__(self, cocycle):
        self.sg = cocycle.sg
        self.domain = cocycle.domain
        self.cocycle = cocycle
        require_cocycle(cocycle)
        self.nilpotency_index = self._check_nilpotent()

    def _check_nilpotent(self):
        sg = self.sg
        arrows = set(sg.arrows())
        support = set(arrows)
        index = 1
        while support:
            if index > len(sg.elements) + 1:
                raise NotNilpotent(
                    "products of non-idempotent elements never die out")
            support = {sg.compose(s, t) for s in support for t in arrows
                       if sg.compose(s, t) is not None}
            index += 1
        return index

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

    def _check(self, other):
        if not isinstance(other, RingElement) or other.ring != self.ring:
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
        return RingElement(self.ring, out)

    def __neg__(self):
        return RingElement(self.ring, {s: -d for s, d in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            if not isinstance(other, Scalar):
                return NotImplemented
            # right scalar action: s . d = alpha_s(d) . s
            c = self.ring.cocycle
            return RingElement(self.ring, {s: d * c.alpha_at(s)(other)
                                           for s, d in self.coeffs.items()})
        self._check(other)
        sg, c = self.ring.sg, self.ring.cocycle
        out = {}
        for s, d1 in self.coeffs.items():
            for t, d2 in other.coeffs.items():
                st = sg.compose(s, t)
                if st is None:
                    continue
                val = d1 * c.alpha_at(s)(d2) * c.xi_at(s, t)
                acc = out.get(st)
                out[st] = val if acc is None else acc + val
        return RingElement(self.ring, out)

    def __rmul__(self, scalar):
        if not isinstance(scalar, Scalar):
            return NotImplemented
        # left scalar action: plain coefficient scaling
        return RingElement(self.ring, {s: scalar * d for s, d in self.coeffs.items()})

    # -- units ----------------------------------------------------------------

    def is_unit(self):
        return all(e in self.coeffs for e in self.ring.sg.idempotents)

    def diagonal_part(self):
        E = set(self.ring.sg.idempotents)
        return RingElement(self.ring, {s: d for s, d in self.coeffs.items() if s in E})

    def inverse(self):
        if not self.is_unit():
            raise NotAUnit("an inverse needs every idempotent coefficient nonzero")
        ring = self.ring
        c = ring.cocycle
        # diagonal inverse: solve (c_e e)(d_e e) = xi(e,e)^{-1} e exactly
        v = RingElement(ring, {
            e: c.xi_at(e, e).inv() * self.coeffs[e].inv() * c.xi_at(e, e).inv()
            for e in ring.sg.idempotents})
        n = self - self.diagonal_part()
        x = -(n * v)
        total = ring.one()
        power = ring.one()
        for _ in range(ring.nilpotency_index):
            power = power * x
            if power.is_zero():
                break
            total = total + power
        return v * total

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.ring == other.ring
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
        for pair in c_source.sg.tuples(2):
            if expected.xi_at(*pair) != c_source.xi_at(*pair):
                failures.append((("xi",) + pair, expected.xi_at(*pair), c_source.xi_at(*pair)))
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
    whenever the gauge search is (enumerable coefficient domains).
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

    gamma(1) = 1 is checked first. A pair with s.t = theta maps to 0, while
    gamma(d1 s) gamma(d2 t) is a multiple of phi(s).phi(t), so such a pair
    is vacuous exactly when phi(s).phi(t) = theta; a composable pair needs
    phi(s).phi(t) = phi(s.t) to compare like basis elements. Both are table
    lookups, and a pair failing them is reported as
    (("product", s, t), phi(s.t), phi(s).phi(t)), with None for theta.
    Every other composable pair is checked through pair_sides at each of
    the probes, which decide it exactly (see _probes); a mismatch is
    reported as ((s, t, d), lhs, rhs). Failures come in a fixed order.
    """
    src = iso.source
    sg = src.sg
    c_src, c_tgt = src.cocycle, iso.target.cocycle
    mu, eta, phi = iso.gauge.mu, iso.gauge.eta, iso.gauge.phi
    failures = []
    if iso.apply(src.one()) != iso.target.one():
        failures.append((("one",), iso.apply(src.one()), iso.target.one()))
    probes = _probes(src.domain)
    for s in sg.elements:
        for t in sg.elements:
            st = sg.compose(s, t)
            image = None if st is None else phi(st)
            product = sg.compose(phi(s), phi(t))
            if product != image:
                failures.append((("product", s, t), image, product))
                continue
            if st is None:
                continue
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
    return RingElement(ring, {entry["on"]: scalar_from_json(ring.domain, entry["value"])
                              for entry in data.get("coeffs", [])})
