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
gauges with phi = id. Over a finite field it works in log coordinates
(see `_logs.py`): mu is a Frobenius exponent per idempotent and eta a
vector of logs mod q - 1. The alpha relations are integer rows mod k in
mu and the relations of the action formula integer rows mod q - 1 in eta
(`_logs.eta_rows`), whose right-hand sides are log arithmetic on the xi.
Each kind has one coefficient matrix per call (the eta coefficients
depend on c1 alone, not on mu), whose lattice (`_multsolve.graph`)
decides every right-hand side by reduction. `_gauge_fibers` is the one
stream of this search: the mu solutions in product order, each with the
lattice of its eta rows and one solution x0 where they reduce (a solved
fiber). The solutions of a fiber are x0 + L, L the lattice's kernel, so
the first gauge is `_multsolve.least` of the first solved fiber, and Z1
is the walk of every solved fiber (`cohomology.z1_listing`). Over the
rationals, where mu is the identity, the same eta rows with scale 1 are
solved by `_multsolve.solve_multiplicative` in log coordinates over Q*: sign rows
mod 2 on their lattice, and integer exponent rows over a coprime base of
the constants on their graph lattice over Z (`_multsolve.graph` with
n = 0), which every pair of one semigroup shares; the witness is the
solution with the free variables pinned to 0 where there is one. All of
them bring their rows to echelon form by the one elimination,
`_multsolve.eliminate`. The finite-field "no" (a row pivot that does not
divide its residue) and the rational "no" are definitive;
the quaternions raise NotEnumerable. `stabilizer_of_class` asks
`cohomologous`, which stops at the first solved fiber. The Aut0
enumeration solves its fibers on the same lattices (`_logs.eta_rows`),
with right-hand sides it derives from ring multiplicativity rather than
from the action formula.

Over a finite field the searches run on log coordinates, and the lists
they make are the listing surface of `cohomology.py`: a `Gauge` is built,
through its one validating constructor (`from_logs` translates), only where
a public function returns one, and `gauge_list_text` writes the JSON of a
gauge list straight from its log coordinates. A gauge builds its key once,
with its value, so gauges serve as their own dict keys and sort by that
key.
"""

from __future__ import annotations

import json
from operator import getitem

from ._logs import eta_rows, field_logs, power
from ._multsolve import graph, least, natural, solve_multiplicative
from .cochain import TwoCochain, json_list, unique_entries
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
        _check_names(sg, mu, eta)
        # one pass per dict fills the defaults, checks each value and
        # collects its sort key; every gauge of sg lists the same names in
        # the same positions, so the sort keys alone identify and order it
        ident = RingAuto.identity(domain)
        self.mu = full_mu = {}
        mu_key = []
        for e in sg.idempotents:
            a = mu.get(e, ident)
            if a.domain is not domain:
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
                raise DomainMismatch(f"eta[{s!r}] lives in {v.domain!r}")
            k = v.sort_key()
            if k == zero_key:
                raise ValueError(f"eta[{s!r}] must be nonzero")
            full_eta[s] = v
            eta_key.append(k)
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
    before any value, so a gauge with several faults reports this one.
    An idempotent is its own source, so one lookup per name decides it."""
    src = sg.src
    off = [e for e in mu if e not in src or src[e] != e]
    if off:
        raise ValueError(f"mu defined off the idempotents: {sorted(off)}")
    unknown = [s for s in eta if s not in src]
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
    for s, t, st in sg.composable().pairs:
        val = g.eta[s] * c.alpha_at(s)(g.eta[t]) * c.xi_at(s, t) * g.eta[st].inv()
        zeta[(s, t)] = g.mu[sg.src[s]].inverse()(val)
    return TwoCochain(sg, g.domain, beta, zeta)


def act_phi(phi, c):
    """Relabel twist data along a semigroup automorphism."""
    sg = c.sg
    beta = {s: c.alpha_at(phi(s)) for s in sg.elements}
    zeta = {(s, t): c.xi_at(phi(s), phi(t)) for s, t, _ in sg.composable().pairs}
    return TwoCochain(sg, c.domain, beta, zeta)


# ---------------------------------------------------------------------------
# orbit membership: find g with act_gauge(g, c1) == c2


def _mu_choices(c1, c2):
    """Yield the mu (Frobenius exponents per idempotent) that carry alpha1
    to alpha2 over a finite field, in product order.

    rho is trivial on a field, so the automorphism relation
    mu_e^{-1} o alpha1_s o mu_f = alpha2_s does not involve eta, and
    Aut(GF(q)) is cyclic of order k, so it reads
    mu_f - mu_e = a2_s - a1_s (mod k) on every element s = e.s.f: one
    integer row per element, with the idempotents in canonical order,
    whose solutions are walked on their lattice in the natural order of
    0..k-1, hence in product order. On an idempotent the row has no
    coefficient, so a mismatch of alpha there rules out every mu.
    """
    sg, k = c1.sg, c1.domain.k
    pos = {e: i for i, e in enumerate(sg.idempotents)}
    matrix = tuple(((pos[sg.tgt[s]], 1), (pos[sg.src[s]], -1)) for s in sg.elements)
    b = [power(c2.alpha_at(s)) - power(c1.alpha_at(s)) for s in sg.elements]
    return graph(matrix, len(pos), k).solutions(b, natural(k))


def _gauge_fibers(c1, c2):
    """Yield (mu, lattice, x0) for each mu of _mu_choices(c1, c2), in
    product order: lattice is the _multsolve.Graph of the eta rows and x0
    one solution of them, or None. The solutions of the fiber are
    x0 + lattice.kernel.

    act_gauge((mu, eta), c1) == c2 asks
    eta(s) alpha1_s(eta(t)) eta(st)^{-1} = mu_e(xi2(s, t)) xi1(s, t)^{-1}
    (commutative coefficients, so xi1 moves to the right-hand side): the
    rows of _logs.eta_rows with scale p^{a1_s}, which depend on c1 alone,
    so every mu shares one lattice, and the right-hand sides
    p^{mu[e]} log xi2(s, t) - log xi1(s, t). Both are built on the first
    mu, so a refusal by the mu rows builds no eta relation.
    """
    sg = c1.sg
    logs = field_logs(c1.domain)
    lattice = None
    for mu in _mu_choices(c1, c2):
        if lattice is None:
            frob, of = logs.frob, logs.of
            scale = [frob[power(c1.alpha_at(s))] for s in sg.elements]
            lattice = graph(eta_rows(sg, scale), len(scale), logs.n)
            src = {e: i for i, e in enumerate(sg.idempotents)}
            xi = [(src[sg.src[s]], of(c2.xi_at(s, t)), of(c1.xi_at(s, t)))
                  for s, t, _ in sg.composable().pairs]
        yield mu, lattice, lattice.solve([frob[mu[e]] * x2 - x1 for e, x2, x1 in xi])


def from_logs(sg, domain, g):
    """The Gauge of (mu, x, phi) in log coordinates over a finite field."""
    mu, x, phi = g
    exp = field_logs(domain).exp
    return Gauge(sg, domain,
                 {e: RingAuto.frobenius(domain, i) for e, i in zip(sg.idempotents, mu)},
                 {s: exp[v] for s, v in zip(sg.elements, x)}, phi)


def _cohomologous_rational(c1, c2):
    """Exact decision over the rationals. Every automorphism is the
    identity there, so only the scalar relations
    eta(s) eta(t) eta(st)^{-1} = xi2(s, t) xi1(s, t)^{-1} constrain eta,
    the rows of _logs.eta_rows with scale 1; they form a multiplicative
    linear system, solved in log coordinates over Q* (see _multsolve) on
    the reduced pairs that are the payloads of rational scalars, whose
    None is definitive."""
    sg, domain = c1.sg, c1.domain
    consts = [(c2.xi_at(s, t) * c1.xi_at(s, t).inv()).payload
              for s, t, _ in sg.composable().pairs]
    size = len(sg.elements)
    values = solve_multiplicative(eta_rows(sg, [1] * size), size, consts)
    if values is None:
        return None
    return Gauge(sg, domain, None, {s: Scalar(domain, v) for s, v in zip(sg.elements, values)})


def cohomologous(c1, c2):
    """A gauge g with act_gauge(g, c1) == c2, or None (definitively).

    Supported for finite fields (search) and the rationals (exact integer
    elimination); the quaternions raise NotEnumerable since a failed search
    there could not be exhaustive.
    """
    if c1.sg is not c2.sg or c1.domain is not c2.domain:
        raise DomainMismatch("cocycles compared over different settings")
    kind = c1.domain.kind
    if kind == "finite_field":
        logs = field_logs(c1.domain)
        for mu, lattice, x0 in _gauge_fibers(c1, c2):
            if x0 is not None:
                x = least(x0, lattice.kernel, logs.n, logs.classes)
                return from_logs(c1.sg, c1.domain, (mu, x, None))
        return None
    if kind == "rational":
        return _cohomologous_rational(c1, c2)
    raise NotEnumerable("cannot search gauges over the rational quaternions")


def stabilizer_of_class(c):
    """The semigroup automorphisms phi with [c] = [c^phi], exactly over
    finite fields and the rationals (see cohomologous). c1 = c for every
    phi, so every phi reduces through the same two lattices."""
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
    mu = unique_entries("mu", ((entry["on"], auto_from_json(domain, entry["auto"]))
                               for entry in json_list(data, "a gauge", "mu", "on")))
    eta = unique_entries("eta", ((entry["on"], scalar_from_json(domain, entry["value"]))
                                 for entry in json_list(data, "a gauge", "eta", "on")))
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


class _Pieces(dict):
    """The entries of one position of a JSON array by value, each with the
    separator that puts it after an earlier entry, rendered on first use;
    value 0, the identity that gauge_to_json omits, renders as ""."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, v):
        piece = self[v] = self.render(v) if v else ""
        return piece


def gauge_list_text(sg, domain, field, group, witnesses=False):
    """json.dumps({"order": len(group), field: entries}, indent=2,
    sort_keys=True) for a list of gauges in log coordinates (mu, x, phi),
    where entries holds gauge_to_json of each gauge, or witness_to_json
    {"gauge": ..., "phi": ...} when witnesses is set, without building a
    Gauge or the dict tree.

    Each distinct piece is rendered once by json.dumps itself, on first use:
    an eta entry per (element, log), a mu block per mu and a phi block per
    phi. Log 0 and exponent 0 are the identity values gauge_to_json omits,
    and their pieces are empty, so each array is one join of the pieces of
    its values, in the layout of json.dumps.
    """
    exp = field_logs(domain).exp
    depth = 3 if witnesses else 2          # of each gauge object
    sep = ",\n" + "  " * (depth + 2)
    etas = [_Pieces(lambda v, s=s: sep + _dumps(
        {"on": s, "value": scalar_to_json(exp[v])}, depth + 2)) for s in sg.elements]
    mus = [_Pieces(lambda m, e=e: sep + _dumps(
        {"on": e, "auto": auto_to_json(RingAuto.frobenius(domain, m))}, depth + 2))
           for e in sg.idempotents]
    close = "\n" + "  " * (depth + 1) + "]"

    def array(joined):
        return "[" + joined[1:] + close if joined else "[]"

    mu_blocks, phis, entries = {}, {}, []
    head = "{\n" + "  " * (depth + 1) + '"eta": '
    middle = ",\n" + "  " * (depth + 1) + '"mu": '
    tail = "\n" + "  " * depth + "}"
    for mu, x, phi in group:
        mu_text = mu_blocks.get(mu)
        if mu_text is None:
            mu_text = mu_blocks[mu] = middle + array("".join(map(getitem, mus, mu))) + tail
        text = head + array("".join(map(getitem, etas, x))) + mu_text
        if witnesses:
            piece = phis.get(phi)
            if piece is None:
                piece = phis[phi] = _dumps(sg_auto_to_json(phi), depth)
            text = _join("{", ['"gauge": ' + text, '"phi": ' + piece], "}", depth - 1)
        entries.append(text)
    fields = sorted([("order", json.dumps(len(group))), (field, _join("[", entries, "]", 1))])
    return _join("{", [f"{json.dumps(k)}: {v}" for k, v in fields], "}", 0)
