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
gauges with phi = id. Over a finite field it searches in log coordinates
(see `_logs.py`): mu is a Frobenius exponent per idempotent, fixed by the
alpha relations up to one free choice per connected component of the
semigroup, and eta a vector of logs mod q - 1, found by `_logs.solve` from
the relations of the action formula as integer rows. Over the rationals
the same relations are solved by exact multiplicative elimination. Both
negative answers are definitive; the quaternions raise NotEnumerable. The
Aut0 enumeration runs `_logs.solve` too, on relations it derives from ring
multiplicativity rather than from the action formula.

Over a finite field the searches run on log coordinates, and the lists
they make are the listing surface of `cohomology.py`: a `Gauge` is built,
through its one validating constructor (`from_logs` translates), only where
a public function returns one, and `gauge_list_text` writes the JSON of a
gauge list straight from its log coordinates. A gauge builds its key once,
with its value, so gauges serve as their own dict keys and sort by that
key.
"""

from __future__ import annotations

import itertools
import json

from ._logs import field_logs, power, solve
from ._multsolve import solve_multiplicative
from .cochain import TwoCochain, unique_entries
from .errors import DomainMismatch, NotEnumerable
from .scalars import (
    RingAuto, Scalar, auto_from_json, auto_to_json, rho, scalar_from_json,
    scalar_to_json,
)
from .semigroup import SemigroupAuto, auto_to_json as sg_auto_to_json


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


def _gauge_constraints(c1, c2, mu):
    """The scalar relations of act_gauge((mu, eta), c1) == c2 in the form
    _logs.solve takes:
    eta(s) alpha_s(eta(t)) eta(st)^{-1} = mu_e(xi2(s, t)) xi1(s, t)^{-1}
    (commutative coefficients, so xi1 moves to the right-hand side)."""
    sg = c1.sg
    return [(s, t, sg.compose(s, t), c1.alpha_at(s),
             mu[sg.src[s]](c2.xi_at(s, t)) * c1.xi_at(s, t).inv())
            for s, t in sg.tuples(2)]


def _mu_choices(c1, c2):
    """Yield the mu (Frobenius exponents per idempotent) that carry alpha1
    to alpha2 over a finite field, in product order.

    rho is trivial on a field, so the automorphism relation
    mu_e^{-1} o alpha1_s o mu_f = alpha2_s does not involve eta, and
    Aut(GF(q)) is cyclic of order k, so it reads
    mu_f - mu_e = a2_s - a1_s (mod k) on every element s = e.s.f. mu is
    therefore free at the first idempotent of each connected component and
    fixed elsewhere, or no mu works at all. Two such mu first differ at the
    first idempotent of some component, so walking those in product order
    lists the mu in product order over all idempotents.
    """
    sg, k = c1.sg, c1.domain.k
    edges = {e: [] for e in sg.idempotents}
    for s in sg.elements:
        d = power(c2.alpha_at(s)) - power(c1.alpha_at(s))
        edges[sg.src[s]].append((sg.tgt[s], d))
        edges[sg.tgt[s]].append((sg.src[s], -d))
    offset, root = {}, {}
    roots = 0
    for e in sg.idempotents:
        if e in offset:
            continue
        offset[e], root[e] = 0, roots
        stack = [e]
        while stack:
            f = stack.pop()
            for g, d in edges[f]:
                want = (offset[f] + d) % k
                if g not in offset:
                    offset[g], root[g] = want, roots
                    stack.append(g)
                elif offset[g] != want:
                    return
        roots += 1
    for free in itertools.product(range(k), repeat=roots):
        yield tuple((free[root[e]] + offset[e]) % k for e in sg.idempotents)


def _gauge_solutions_ff(c1, c2):
    """Yield every gauge carrying c1 to c2 over a finite field, in log
    coordinates (mu, x, id) (see _logs.py) and in Gauge.sort_key order.
    Exhaustive: mu ranges over every choice the alpha relations allow, eta
    is searched by _logs.solve."""
    sg, domain = c1.sg, c1.domain
    logs = field_logs(domain)
    ident = SemigroupAuto.identity(sg)
    for mu in _mu_choices(c1, c2):
        autos = {e: RingAuto.frobenius(domain, i) for e, i in zip(sg.idempotents, mu)}
        for x in solve(sg, logs, _gauge_constraints(c1, c2, autos)):
            yield mu, x, ident


def from_logs(sg, domain, g):
    """The Gauge of (mu, x, phi) in log coordinates over a finite field."""
    mu, x, phi = g
    exp = field_logs(domain).exp
    return Gauge(sg, domain,
                 {e: RingAuto.frobenius(domain, i) for e, i in zip(sg.idempotents, mu)},
                 {s: exp[v] for s, v in zip(sg.elements, x)}, phi)


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
        g = next(_gauge_solutions_ff(c1, c2), None)
        return None if g is None else from_logs(c1.sg, c1.domain, g)
    if kind == "rational":
        return _cohomologous_rational(c1, c2)
    raise NotEnumerable("cannot search gauges over the rational quaternions")


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
    mu = unique_entries("mu", ((entry["on"], auto_from_json(domain, entry["auto"]))
                               for entry in data.get("mu", [])))
    eta = unique_entries("eta", ((entry["on"], scalar_from_json(domain, entry["value"]))
                                 for entry in data.get("eta", [])))
    return Gauge(sg, domain, mu, eta)


def _dumps(value, depth):
    """json.dumps(value, indent=2, sort_keys=True), placed at a nesting
    depth (JSON text holds no raw newline outside its layout)."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _join(open_, items, close, depth):
    """An indented JSON array or object whose items are rendered at depth + 1."""
    if not items:
        return open_ + close
    inner = "\n" + "  " * (depth + 1)
    return open_ + inner + ("," + inner).join(items) + "\n" + "  " * depth + close


def gauge_list_text(sg, domain, field, group, witnesses=False):
    """json.dumps({"order": len(group), field: entries}, indent=2,
    sort_keys=True) for a list of gauges in log coordinates (mu, x, phi),
    where entries holds gauge_to_json of each gauge, or witness_to_json
    {"gauge": ..., "phi": ...} when witnesses is set, without building a
    Gauge or the dict tree.

    Each distinct piece is rendered once by json.dumps itself, on first use:
    an eta entry per (element, log), a mu entry per (idempotent, Frobenius
    exponent) and a phi block per phi. Log 0 and exponent 0 are the identity
    values gauge_to_json omits. The pieces are then joined in the layout of
    json.dumps.
    """
    exp = field_logs(domain).exp
    depth = 3 if witnesses else 2          # of each gauge object
    etas = [{} for _ in sg.elements]
    mus = [{} for _ in sg.idempotents]
    phis = {}

    def gauge_text(mu, x):
        eta_items = []
        for j, v in enumerate(x):
            if v:
                piece = etas[j].get(v)
                if piece is None:
                    piece = etas[j][v] = _dumps(
                        {"on": sg.elements[j], "value": scalar_to_json(exp[v])}, depth + 2)
                eta_items.append(piece)
        mu_items = []
        for i, m in enumerate(mu):
            if m:
                piece = mus[i].get(m)
                if piece is None:
                    piece = mus[i][m] = _dumps(
                        {"on": sg.idempotents[i],
                         "auto": auto_to_json(RingAuto.frobenius(domain, m))}, depth + 2)
                mu_items.append(piece)
        return _join("{", ['"eta": ' + _join("[", eta_items, "]", depth + 1),
                           '"mu": ' + _join("[", mu_items, "]", depth + 1)], "}", depth)

    def witness_text(mu, x, phi):
        piece = phis.get(phi)
        if piece is None:
            piece = phis[phi] = _dumps(sg_auto_to_json(phi), depth)
        return _join("{", ['"gauge": ' + gauge_text(mu, x), '"phi": ' + piece], "}", depth - 1)

    if witnesses:
        entries = [witness_text(mu, x, phi) for mu, x, phi in group]
    else:
        entries = [gauge_text(mu, x) for mu, x, _ in group]
    fields = sorted([("order", json.dumps(len(group))), (field, _join("[", entries, "]", 1))])
    return _join("{", [f"{json.dumps(k)}: {v}" for k, v in fields], "}", 0)
