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

import random
from dataclasses import dataclass

from .cochain import is_cocycle
from .errors import NotACocycle, NotAUnit, NotNilpotent, RingMismatch, WitnessInvalid
from .gauge import act_gauge, act_phi
from .scalars import Scalar, random_scalar, scalar_from_json, scalar_to_json
from .semigroup import SemigroupAuto


class TwistedRing:
    """Ring attached to a validated cocycle; immutable."""

    __slots__ = ("sg", "domain", "cocycle", "nilpotency_index")

    def __init__(self, cocycle, validate=True):
        self.sg = cocycle.sg
        self.domain = cocycle.domain
        self.cocycle = cocycle
        if validate:
            verdict = is_cocycle(cocycle)
            if not verdict.ok:
                raise NotACocycle(
                    f"twist data violates the cocycle identities at "
                    f"{[v.members for v in verdict.violations[:3]]}")
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
    """A map gamma(d . s) = mu_e(d) . eta(s) . phi(s), extended linearly.

    Built from a witness identifying source and target twist classes; the
    map is automatically bijective (each basis line maps onto a scaled
    basis line), and multiplicativity is checked by verify_ring_hom.
    """

    __slots__ = ("source", "target", "mu", "eta", "phi")

    def __init__(self, source, target, mu, eta, phi):
        self.source = source
        self.target = target
        self.mu = dict(mu)
        self.eta = dict(eta)
        self.phi = phi

    def apply(self, x):
        if x.ring != self.source:
            raise RingMismatch("argument is not in the source ring")
        sg = self.source.sg
        out = {}
        for s, d in x.coeffs.items():
            image = self.phi(s)
            val = self.mu[sg.src[s]](d) * self.eta[s]
            acc = out.get(image)
            out[image] = val if acc is None else acc + val
        return RingElement(self.target, out)

    __call__ = apply

    def __repr__(self):
        return f"RingIso({self.source!r} -> {self.target!r}, phi={self.phi!r})"


def build_iso(c_source, c_target, witness):
    """Turn a class witness into a concrete ring isomorphism.

    The witness (gauge g, automorphism phi) must satisfy
    act_gauge(g, act_phi(phi, c_target)) == c_source; then
    gamma(d.s) = mu_e(d) eta(s) phi(s) is an isomorphism from the ring of
    c_source onto the ring of c_target. Raises WitnessInvalid naming every
    failing relation otherwise.
    """
    phi = witness.phi or SemigroupAuto.identity(c_source.sg)
    expected = act_gauge(witness.gauge, act_phi(phi, c_target))
    if expected != c_source:
        failures = []
        for s in c_source.sg.elements:
            if expected.alpha_at(s) != c_source.alpha_at(s):
                failures.append((("alpha", s), expected.alpha_at(s), c_source.alpha_at(s)))
        for pair in c_source.sg.tuples(2):
            if expected.xi_at(*pair) != c_source.xi_at(*pair):
                failures.append((("xi",) + pair, expected.xi_at(*pair), c_source.xi_at(*pair)))
        raise WitnessInvalid(failures)
    return RingIso(TwistedRing(c_source), TwistedRing(c_target),
                   witness.gauge.mu, witness.gauge.eta, phi)


def identity_iso(ring):
    from .gauge import Gauge
    g = Gauge.identity(ring.sg, ring.domain)
    return RingIso(ring, ring, g.mu, g.eta, SemigroupAuto.identity(ring.sg))


def find_ring_iso(c_source, c_target, max_idempotents=8):
    """Search for an isomorphism between the two twisted rings.

    Iterates phi over Aut(S) and asks for a gauge carrying the relabeled
    target onto the source; the two rings are isomorphic exactly when some
    phi succeeds. Returns a RingIso or None; None is definitive whenever
    the gauge search is (enumerable coefficient domains).
    """
    from .gauge import IsoWitness, cohomologous

    if c_source.sg is not c_target.sg or c_source.domain is not c_target.domain:
        raise RingMismatch("isomorphism search needs a common semigroup and domain")
    for phi in c_source.sg.enumerate_autos(max_idempotents=max_idempotents):
        gauge = cohomologous(act_phi(phi, c_target), c_source)
        if gauge is not None:
            return build_iso(c_source, c_target, IsoWitness(gauge, phi))
    return None


@dataclass(frozen=True)
class HomVerdict:
    ok: bool
    failures: tuple

    def __bool__(self):
        return self.ok


def _scalar_samples(domain, seed):
    """Scalars used to probe multiplicativity: 1, a generator, and three
    seeded draws (deduplicated, zeros dropped)."""
    rng = random.Random(seed)
    samples = [domain.one(), domain.generator()]
    samples += [random_scalar(domain, rng, nonzero=True) for _ in range(3)]
    return list(dict.fromkeys(samples))


def pair_sides(c_src, c_tgt, mu, eta, phi, s, t, d1, d2):
    """(gamma((d1 s)(d2 t)), gamma(d1 s) . gamma(d2 t)) for the map
    gamma(d . s) = mu_e(d) eta(s) phi(s) from the ring of c_src to the ring
    of c_tgt, as coefficients of phi(s.t) = phi(s).phi(t); (s, t) must be a
    composable pair whose product phi preserves."""
    sg = c_src.sg
    ps, pt = phi(s), phi(t)
    mu_e = mu[sg.src[s]]
    lhs = mu_e(d1 * c_src.alpha_at(s)(d2) * c_src.xi_at(s, t)) * eta[sg.compose(s, t)]
    a = mu_e(d1) * eta[s]
    b = mu[sg.src[t]](d2) * eta[t]
    return lhs, a * c_tgt.alpha_at(ps)(b) * c_tgt.xi_at(ps, pt)


def verify_ring_hom(iso, seed=0):
    """Multiplicativity check of a RingIso on all basis pairs, with failures.

    gamma(1) = 1 is checked first. A pair with s.t = theta maps to 0, while
    gamma(d1 s) gamma(d2 t) is a multiple of phi(s).phi(t), so such a pair
    is vacuous exactly when phi(s).phi(t) = theta; a composable pair needs
    phi(s).phi(t) = phi(s.t) to compare like basis elements. Both are table
    lookups, and a pair failing them is reported as
    (("product", s, t), phi(s.t), phi(s).phi(t)), with None for theta.
    Every other composable pair is probed through pair_sides with d1, d2
    over the scalar sample; a mismatch is reported as
    ((s, t, d1, d2), lhs, rhs). Failures come in deterministic order.
    """
    src = iso.source
    sg = src.sg
    c_src, c_tgt = src.cocycle, iso.target.cocycle
    mu, eta, phi = iso.mu, iso.eta, iso.phi
    failures = []
    if iso.apply(src.one()) != iso.target.one():
        failures.append((("one",), iso.apply(src.one()), iso.target.one()))
    samples = _scalar_samples(src.domain, seed)
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
            for d1 in samples:
                for d2 in samples:
                    lhs, rhs = pair_sides(c_src, c_tgt, mu, eta, phi, s, t, d1, d2)
                    if lhs != rhs:
                        failures.append(((s, t, d1, d2), lhs, rhs))
    return HomVerdict(not failures, tuple(failures))


is_ring_hom = verify_ring_hom  # the verdict is truthy exactly when it passes


# ---------------------------------------------------------------------------
# JSON: {"coeffs": [{"on": s, "value": scalar}]}


def element_to_json(x):
    return {"coeffs": [{"on": s, "value": scalar_to_json(d)}
                       for s, d in sorted(x.coeffs.items(), key=lambda kv: kv[0])]}


def element_from_json(ring, data):
    return RingElement(ring, {entry["on"]: scalar_from_json(ring.domain, entry["value"])
                              for entry in data.get("coeffs", [])})
