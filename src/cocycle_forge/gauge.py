"""The group of gauges and relabelings, and its action on 2-cocycles.

A gauge is a triple (mu, eta, phi): a domain automorphism mu_e per
idempotent, a nonzero scalar eta(s) per element and a semigroup
automorphism phi, the identity unless given. It acts on twist data by
relabeling along phi,

    alpha^phi(s) = alpha(phi(s)),    xi^phi(s, t) = xi(phi(s), phi(t)),

and then by (mu, eta):

    beta_s     = mu_e^{-1} o rho_{eta(s)} o alpha_s o mu_f        (s = e.s.f)
    zeta(s, t) = mu_e^{-1}( eta(s) . alpha_s(eta(t)) . xi(s, t) . eta(s.t)^{-1} )

which is the unique way to solve the defining relations of the action for
(beta, zeta). The group law is chosen so this is a left action, i.e.
act(g1 * g2, c) == act(g1, act(g2, c)); solving the composite relations
forces

    (g1 * g2).phi     = phi2 o phi1
    (g1 * g2).mu_e    = g2.mu_{phi1(e)} o g1.mu_e
    (g1 * g2).eta(s)  = g2.mu_{phi1(e)}( g1.eta(s) ) . g2.eta(phi1(s))   (e = src s)

(mu appears inverted on the outside of both action formulas, so the
factors compose in swapped order). Relabelings alone satisfy
act_phi(phi o psi, c) == act_phi(psi, act_phi(phi, c)), and conjugating by
the pure relabeling P = (id, 1, phi) gives
P * g * P^{-1} = (e -> mu_{phi(e)}, s -> eta(phi(s))) for g with phi = id.

A gauge g with act_gauge(g, c_target) == c_source is the same datum as the
ring isomorphism d.s -> mu_e(d) eta(s) phi(s) from the ring of c_source onto
the ring of c_target, and the map of g1 * g2 is the map of g2 applied after
the map of g1. So the automorphisms of a ring permuting its idempotents
(Aut0) are the stabilizer of its cocycle, and Z1 is the part of that
stabilizer with phi = id.

`cohomologous` decides whether two cocycles lie in the same orbit of the
gauges with phi = id: over a finite field by the pruned backtracking search
`solve_eta` (each assignment is checked against every relation it
completes), over the rationals by exact multiplicative elimination of the
same relations. Both negative answers are definitive; the quaternions raise
NotEnumerable. The Aut0 enumeration runs `solve_eta` too, on relations it
derives from ring multiplicativity rather than from the action formula.

A gauge builds its key once, with its value, so gauges serve as their own
dict keys and sort by that key.
"""

from __future__ import annotations

import itertools

from ._multsolve import solve_multiplicative
from .cochain import TwoCochain
from .errors import DomainMismatch, NotEnumerable
from .scalars import (
    RingAuto, Scalar, auto_from_json, auto_to_json, enumerate_autos,
    enumerate_units, rho, scalar_from_json, scalar_to_json,
)
from .semigroup import SemigroupAuto


class Gauge:
    """A (mu, eta, phi) triple, total on idempotents and elements; immutable."""

    __slots__ = ("sg", "domain", "mu", "eta", "phi", "_key")

    def __init__(self, sg, domain, mu=None, eta=None, phi=None):
        self.sg = sg
        self.domain = domain
        mu = mu or {}
        eta = eta or {}
        # one pass per dict fills the defaults, checks each value and
        # collects its sort key; every gauge of sg lists the same names in
        # the same positions, so the sort keys alone identify and order it
        ident = RingAuto.identity(domain)
        self.mu = full_mu = {}
        mu_key = []
        for e in sg.idempotents:
            a = mu.get(e, ident)
            if a.domain is not domain:
                _check_names(sg, mu, eta)
                raise DomainMismatch(f"mu[{e!r}] lives in {a.domain!r}")
            full_mu[e] = a
            mu_key.append(a.sort_key())
        one = domain.one()
        # payloads are stored reduced, so a value is zero exactly when its
        # sort key is that of zero
        zero_key = domain.zero().sort_key()
        self.eta = full_eta = {}
        eta_key = []
        for s in sg.elements:
            v = eta.get(s, one)
            if v.domain is not domain:
                _check_names(sg, mu, eta)
                raise DomainMismatch(f"eta[{s!r}] lives in {v.domain!r}")
            k = v.sort_key()
            if k == zero_key:
                _check_names(sg, mu, eta)
                raise ValueError(f"eta[{s!r}] must be nonzero")
            full_eta[s] = v
            eta_key.append(k)
        if not (mu.keys() <= full_mu.keys() and eta.keys() <= full_eta.keys()):
            _check_names(sg, mu, eta)
        if phi is None:
            phi = SemigroupAuto.identity(sg)
        elif phi.sg is not sg:
            raise DomainMismatch(f"phi is an automorphism of {phi.sg!r}")
        self.phi = phi
        self._key = (tuple(mu_key), tuple(eta_key), phi.sort_key())

    @classmethod
    def identity(cls, sg, domain):
        return cls(sg, domain)

    def is_identity(self):
        return (self.phi.is_identity()
                and all(a.is_identity() for a in self.mu.values())
                and all(v == self.domain.one() for v in self.eta.values()))

    def compose(self, other):
        """Group law making act_gauge a left action (see module docstring)."""
        sg = self.sg
        if other.sg is not sg or other.domain is not self.domain:
            raise DomainMismatch("composing gauges over different settings")
        p, src = self.phi.mapping, sg.src
        mu = {e: other.mu[p[e]].compose(self.mu[e]) for e in sg.idempotents}
        eta = {s: other.mu[p[src[s]]](self.eta[s]) * other.eta[p[s]]
               for s in sg.elements}
        return Gauge(sg, self.domain, mu, eta, other.phi.compose(self.phi))

    def inverse(self):
        sg = self.sg
        phi = self.phi.inverse()
        p = phi.mapping
        mu = {e: self.mu[p[e]].inverse() for e in sg.idempotents}
        eta = {s: mu[sg.src[s]](self.eta[p[s]]).inv() for s in sg.elements}
        return Gauge(sg, self.domain, mu, eta, phi)

    def key(self):
        return self._key

    sort_key = key

    def __eq__(self, other):
        return (isinstance(other, Gauge) and self.sg is other.sg
                and self.domain is other.domain and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        mu = {e: a for e, a in self.mu.items() if not a.is_identity()}
        eta = {s: v for s, v in self.eta.items() if v != self.domain.one()}
        phi = "" if self.phi.is_identity() else f", phi={self.phi!r}"
        return f"Gauge(mu={mu or 'id'}, eta={eta or '1'}{phi})"


def _check_names(sg, mu, eta):
    """Refuse mu off the idempotents or eta on unknown elements; checked
    before any value, so a gauge with several faults reports this one."""
    off = mu.keys() - set(sg.idempotents)
    if off:
        raise ValueError(f"mu defined off the idempotents: {sorted(off)}")
    unknown = eta.keys() - set(sg.elements)
    if unknown:
        raise ValueError(f"eta defined on unknown elements: {sorted(unknown)}")


# ---------------------------------------------------------------------------
# actions


def _require_setting(c, sg, domain):
    if c.sg is not sg or c.domain is not domain:
        raise DomainMismatch("gauge and cochain settings disagree")


def act_gauge(g, c):
    """Apply a gauge to twist data, relabeling along its phi first;
    cocycles map to cocycles."""
    _require_setting(c, g.sg, g.domain)
    if not g.phi.is_identity():
        c = act_phi(g.phi, c)
    sg = g.sg
    beta = {}
    for s in sg.elements:
        e, f = sg.src[s], sg.tgt[s]
        a = rho(g.eta[s]).compose(c.alpha_at(s)).compose(g.mu[f])
        beta[s] = g.mu[e].inverse().compose(a)
    zeta = {}
    for s, t in sg.tuples(2):
        st = sg.compose(s, t)
        val = g.eta[s] * c.alpha_at(s)(g.eta[t]) * c.xi_at(s, t) * g.eta[st].inv()
        zeta[(s, t)] = g.mu[sg.src[s]].inverse()(val)
    return TwoCochain(sg, g.domain, beta, zeta)


def act_phi(phi, c):
    """Relabel twist data along a semigroup automorphism."""
    sg = c.sg
    beta = {s: c.alpha_at(phi(s)) for s in sg.elements}
    zeta = {(s, t): c.xi_at(phi(s), phi(t)) for s, t in sg.tuples(2)}
    return TwoCochain(sg, c.domain, beta, zeta)


# ---------------------------------------------------------------------------
# orbit membership: find g with act_gauge(g, c1) == c2


def solve_eta(sg, units, constraints, fixed=None):
    """Yield every eta: S* -> D* meeting each constraint, in canonical order.

    A constraint (s, t, st, a, u) asks eta(s) . a(eta(t)) . eta(st)^{-1} = u;
    coefficients commute (finite fields), so it is tested as
    eta(s) . a(eta(t)) == u . eta(st). Elements are assigned in the
    semigroup's canonical order, each ranging over `units` in order unless
    `fixed` pins it, and each constraint is checked as soon as the last
    element it mentions is assigned. The search is exhaustive.
    """
    elements = sg.elements
    pos = {s: i for i, s in enumerate(elements)}
    grouped = [[] for _ in elements]
    for con in constraints:
        grouped[max(pos[con[0]], pos[con[1]], pos[con[2]])].append(con)
    fixed = fixed or {}
    choices = [[fixed[s]] if s in fixed else units for s in elements]
    eta = {}

    def extend(i):
        if i == len(elements):
            yield dict(eta)
            return
        name = elements[i]
        for v in choices[i]:
            eta[name] = v
            if all(eta[s] * a(eta[t]) == u * eta[st] for s, t, st, a, u in grouped[i]):
                yield from extend(i + 1)
        del eta[name]

    yield from extend(0)


def _gauge_constraints(c1, c2, mu):
    """The scalar relations of act_gauge((mu, eta), c1) == c2 in solve_eta
    form: eta(s) alpha_s(eta(t)) eta(st)^{-1} = mu_e(xi2(s, t)) xi1(s, t)^{-1}
    (commutative coefficients, so xi1 moves to the right-hand side)."""
    sg = c1.sg
    return [(s, t, sg.compose(s, t), c1.alpha_at(s),
             mu[sg.src[s]](c2.xi_at(s, t)) * c1.xi_at(s, t).inv())
            for s, t in sg.tuples(2)]


def _gauge_solutions_ff(c1, c2):
    """Yield every gauge carrying c1 to c2 over a finite field, in
    deterministic order. Exhaustive: mu ranges over all automorphism
    assignments, eta is backtracked by solve_eta."""
    sg, domain = c1.sg, c1.domain
    autos = enumerate_autos(domain)
    units = enumerate_units(domain)

    for mu_choice in itertools.product(autos, repeat=len(sg.idempotents)):
        mu = dict(zip(sg.idempotents, mu_choice))
        # rho is trivial on a field, so the automorphism relation is
        # eta-independent: check it before touching eta at all
        if any(mu[sg.src[s]].inverse().compose(c1.alpha_at(s)).compose(mu[sg.tgt[s]])
               != c2.alpha_at(s) for s in sg.elements):
            continue
        for eta in solve_eta(sg, units, _gauge_constraints(c1, c2, mu)):
            yield Gauge(sg, domain, mu, eta)


def _cohomologous_rational(c1, c2):
    """Exact decision over the rationals. Every automorphism is the
    identity there, so only the scalar relations constrain eta; they form a
    multiplicative linear system solved by elimination."""
    sg, domain = c1.sg, c1.domain
    ident = RingAuto.identity(domain)
    equations = []
    for s, t, st, _, u in _gauge_constraints(c1, c2, {e: ident for e in sg.idempotents}):
        coeffs = {}
        for name, c in ((s, 1), (t, 1), (st, -1)):
            coeffs[name] = coeffs.get(name, 0) + c
        equations.append((coeffs, u.payload))
    solution = solve_multiplicative(equations, list(sg.elements))
    if solution is None:
        return None
    eta = {s: Scalar(domain, v) for s, v in solution.items()}
    return Gauge(sg, domain, None, eta)


def cohomologous(c1, c2):
    """A gauge g with act_gauge(g, c1) == c2, or None (definitively).

    Supported for finite fields (search) and the rationals (elimination);
    the quaternions raise NotEnumerable since a failed search there could
    not be exhaustive.
    """
    if c1.sg is not c2.sg or c1.domain is not c2.domain:
        raise DomainMismatch("cocycles compared over different settings")
    kind = c1.domain.kind
    if kind == "finite_field":
        return next(_gauge_solutions_ff(c1, c2), None)
    if kind == "rational":
        return _cohomologous_rational(c1, c2)
    raise NotEnumerable("cannot search gauges over the rational quaternions")


def gauge_stabilizer(c):
    """All gauges fixing a cocycle (finite fields only)."""
    if c.domain.kind != "finite_field":
        raise NotEnumerable("stabilizer enumeration needs a finite field")
    return list(_gauge_solutions_ff(c, c))


def stabilizer_of_class(c):
    """The semigroup automorphisms phi with [c] = [c^phi]."""
    return [phi for phi in c.sg.enumerate_autos()
            if cohomologous(c, act_phi(phi, c)) is not None]


# ---------------------------------------------------------------------------
# JSON: {"mu": [{"on": e, "auto": ...}], "eta": [{"on": s, "value": ...}]};
# phi, when there is one, sits beside this object in a witness file


def gauge_to_json(g):
    return {
        "mu": [{"on": e, "auto": auto_to_json(g.mu[e])} for e in g.sg.idempotents
               if not g.mu[e].is_identity()],
        "eta": [{"on": s, "value": scalar_to_json(g.eta[s])} for s in g.sg.elements
                if g.eta[s] != g.domain.one()],
    }


def gauge_from_json(sg, domain, data):
    if not isinstance(data, dict):
        raise TypeError("a gauge is a JSON object")
    mu = {entry["on"]: auto_from_json(domain, entry["auto"])
          for entry in data.get("mu", [])}
    eta = {entry["on"]: scalar_from_json(domain, entry["value"])
           for entry in data.get("eta", [])}
    return Gauge(sg, domain, mu, eta)
