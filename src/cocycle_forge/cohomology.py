"""First cohomology of a cocycle and the outer automorphisms of its ring.

For a normal cocycle c over an enumerable coefficient field, everything
here is a set of gauges (mu, eta, phi) (see `gauge.py`):

  * Z1(c): the gauges with phi = id fixing c under the action.
  * B1(c): the orbit of the identity gauge under the pointwise action of
    maps E -> D* (eps acts by mu -> rho_eps o mu and
    eta(s) -> eps(e) eta(s) alpha_s(eps(f)^{-1})); these are exactly the
    idempotent-fixing inner ring automorphisms, so B1 is Inn0 itself.
  * H1(c) = Z1/B1, reported through coset representatives and a coset
    multiplication table rather than an abstract isomorphism claim.
  * Aut0 R: the ring automorphisms permuting the idempotents, i.e. the
    stabilizer of c in the group of gauges and relabelings. Its phi = id
    part is Z1, so lambda: H1 -> Out R = Aut0/Inn0 is induced by the
    inclusion Z1 <= Aut0.

H1 = Z1/B1 and Out R = Aut0/B1 are both partitioned by `_cosets`, which
walks the sorted group and makes each unassigned element the
representative, hence the least element, of its coset. Gauges build their
keys once, with their values, so `_cosets` keys its table by the gauges
themselves and `OutRReport.coset_keys` maps each Aut0 gauge to its coset
index.

Aut0 R is found by propagation over the exact multiplicativity probes of
`ring._probes`: for each (phi, mu) they fix, with eta = 1, the value u that
eta(s) alpha_{phi(s)}(eta(t)) eta(s.t)^{-1} must take on a composable pair
for the induced map d.s -> mu_e(d) eta(s) phi(s) to multiply (or rule the
choice out), and `solve_eta` backtracks eta with eta = 1 on E.
`verify_ses` then checks exactness of

    1 -> H1 -> Out R -> Stab(Aut S) -> 1

clause by clause, with a split-section check when the class is trivial.

The enumeration route here (homomorphism testing) is deliberately
independent of the gauge-search route in `gauge.py`: the two share the
value type and the eta search but take the required values from different
places, ring multiplicativity here and the action formula there.
`verify_ses` gains its force from comparing the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cochain import TwoCochain, is_normal
from .errors import NotEnumerable, NotNormal
from .gauge import Gauge, cohomologous, gauge_stabilizer, solve_eta, stabilizer_of_class
from .ring import RingIso, TwistedRing, _probes, pair_sides, verify_ring_hom
from .scalars import enumerate_autos, enumerate_units, rho
from .semigroup import SemigroupAuto


def _require_enumerable(c):
    if c.domain.kind != "finite_field":
        raise NotEnumerable(
            "cohomology-group enumeration needs a finite coefficient field")


def _require_normal(c):
    if not is_normal(c):
        raise NotNormal("normalize the cocycle first; these enumerations "
                        "assume a normal representative")


# ---------------------------------------------------------------------------
# Z1, the star action, B1, H1


def z1_enumerate(c):
    """All gauges fixing the cocycle; deterministic canonical order."""
    _require_enumerable(c)
    _require_normal(c)
    return sorted(gauge_stabilizer(c), key=Gauge.sort_key)


def _star(eps, oc, c):
    """The (mu, eta) of the star action of eps: E -> D* on a 1-cocycle oc."""
    sg = c.sg
    mu = {e: rho(eps[e]).compose(oc.mu[e]) for e in sg.idempotents}
    eta = {}
    for s in sg.elements:
        e, f = sg.src[s], sg.tgt[s]
        eta[s] = eps[e] * oc.eta[s] * c.alpha_at(s)(eps[f].inv())
    return mu, eta


def star_act(eps, oc, c):
    """Act by eps: E -> D* on a 1-cocycle of c."""
    return Gauge(c.sg, c.domain, *_star(eps, oc, c))


def b1_enumerate(c):
    """The orbit of the identity gauge under the star action. Many maps
    E -> D* share an image, so the maps are grouped by the values of the
    action formula and each distinct gauge is built once."""
    _require_enumerable(c)
    _require_normal(c)
    units = enumerate_units(c.domain)
    ident = Gauge.identity(c.sg, c.domain)
    images = {}
    for choice in itertools.product(units, repeat=len(c.sg.idempotents)):
        mu, eta = _star(dict(zip(c.sg.idempotents, choice)), ident, c)
        images.setdefault((tuple(mu.values()), tuple(eta.values())), (mu, eta))
    return sorted((Gauge(c.sg, c.domain, mu, eta) for mu, eta in images.values()),
                  key=Gauge.sort_key)


@dataclass(frozen=True)
class H1Report:
    z1: list
    b1: list
    h1_order: int
    h1_cosets: list        # one representative gauge per coset, sorted
    coset_table: list      # coset_table[i][j] = index of coset of rep_i * rep_j

    @property
    def z1_order(self):
        return len(self.z1)

    @property
    def b1_order(self):
        return len(self.b1)


def _cosets(group, sub):
    """Left cosets sub . g in a group sorted by sort_key: (coset_of, reps),
    coset_of mapping each member to its coset index and reps[i] the least
    element of coset i. Members are their own keys."""
    coset_of = dict.fromkeys(group)
    reps = []
    for g in group:
        if coset_of[g] is not None:
            continue
        for h in sub:
            hg = h.compose(g)
            if hg not in coset_of:
                raise AssertionError("a translate by the subgroup left the group")
            coset_of[hg] = len(reps)
        reps.append(g)
    if len(reps) * len(sub) != len(group):
        raise AssertionError("|group| != |subgroup| x |cosets|")
    return coset_of, reps


def h1(c):
    """Group Z1 into B1-cosets; the factor group is reported by table."""
    z1 = z1_enumerate(c)
    b1 = b1_enumerate(c)
    coset_of, reps = _cosets(z1, b1)
    if not all(g in coset_of for g in b1):
        raise AssertionError("coboundaries failed to stabilize the cocycle")
    table = [[coset_of[a.compose(b)] for b in reps] for a in reps]
    return H1Report(z1, b1, len(reps), reps, table)


# ---------------------------------------------------------------------------
# Aut0: gauges (mu, eta, phi) inducing idempotent-permuting ring automorphisms


def inner_triples(c):
    """The idempotent-fixing inner automorphisms r = sum eps(e) e, that is
    B1 itself (mu_e = rho_{eps(e)}, eta(s) = eps(e) alpha_s(eps(f)^{-1}))."""
    return b1_enumerate(c)


def _aut0_constraints(c, phi, mu, probes):
    """The solve_eta constraints a ring automorphism over (phi, mu) puts on
    eta, or None when the probes already rule (phi, mu) out.

    Over a field, with L, R the two sides of pair_sides at eta = 1, the
    composable pair (s, t) multiplies for eta exactly when
    L eta(s.t) = R eta(s) alpha_{phi(s)}(eta(t)), i.e. when
    eta(s) alpha_{phi(s)}(eta(t)) eta(s.t)^{-1} = L / R; u = L / R is read
    at d = 1, and every other probe of ring._probes must ask for the same u.
    Pairs hitting theta are vacuous because phi preserves products, and
    sigma(1) = 1 holds identically because the cocycle is normal and
    eta = 1 on the idempotents.
    """
    sg = c.sg
    one = c.domain.one()
    unit_eta = {s: one for s in sg.elements}
    constraints = []
    for s, t in sg.tuples(2):
        lhs, rhs = pair_sides(c, c, mu, unit_eta, phi, s, t, one)
        u = lhs * rhs.inv()
        for d in probes[1:]:
            lhs, rhs = pair_sides(c, c, mu, unit_eta, phi, s, t, d)
            if lhs != rhs * u:
                return None
        constraints.append((s, t, sg.compose(s, t), c.alpha_at(phi(s)), u))
    return constraints


def aut0_enumerate(c, jobs=1):
    """Every gauge (mu, eta, phi) whose induced map is a ring homomorphism,
    sorted; eta = 1 on the idempotents since c is normal.

    Exhaustive over Aut S x Aut(D)^E, with eta propagated from the
    multiplicativity probes (see _aut0_constraints) instead of listed;
    bijectivity is automatic for maps of this shape. `jobs` is accepted and
    ignored.
    """
    _require_enumerable(c)
    _require_normal(c)
    sg, domain = c.sg, c.domain
    units = enumerate_units(domain)
    probes = _probes(domain)
    fixed = {e: domain.one() for e in sg.idempotents}
    out = []
    for phi in sg.enumerate_autos():
        for mu_choice in itertools.product(enumerate_autos(domain),
                                           repeat=len(sg.idempotents)):
            mu = dict(zip(sg.idempotents, mu_choice))
            constraints = _aut0_constraints(c, phi, mu, probes)
            if constraints is not None:
                out.extend(Gauge(sg, domain, mu, eta, phi)
                           for eta in solve_eta(sg, units, constraints, fixed))
    out.sort(key=Gauge.sort_key)
    return out


# ---------------------------------------------------------------------------
# Out R


@dataclass(frozen=True)
class OutRReport:
    aut0: list
    inn0: list
    out_order: int
    phi_image: list
    coset_keys: dict = field(repr=False, default=None)  # gauge -> coset index

    @property
    def aut0_order(self):
        return len(self.aut0)

    @property
    def inn0_order(self):
        return len(self.inn0)


def out_r(c):
    """Aut0 modulo the idempotent-fixing inner automorphisms."""
    return _out_r(aut0_enumerate(c), inner_triples(c))


def _out_r(aut0, inn0):
    coset_of, reps = _cosets(aut0, inn0)
    phis = sorted({t.phi for t in aut0}, key=SemigroupAuto.sort_key)
    return OutRReport(aut0, inn0, len(reps), phis, coset_of)


# ---------------------------------------------------------------------------
# the short exact sequence


@dataclass(frozen=True)
class SesClause:
    name: str
    ok: object        # True / False / None when skipped
    detail: str


@dataclass(frozen=True)
class SesReport:
    ok: bool
    clauses: tuple
    orders: dict

    def __bool__(self):
        return self.ok


def verify_ses(c):
    """Check exactness of 1 -> H1 -> Out R -> Stab -> 1 by enumeration.

    Clauses: injectivity of the cohomology-to-outer map, image = kernel in
    the middle, image of the idempotent-permutation map = class stabilizer,
    the order equation, and (for the trivial class) the splitting section.
    """
    _require_enumerable(c)
    _require_normal(c)
    report_h1 = h1(c)
    outer = _out_r(aut0_enumerate(c), report_h1.b1)
    stab = stabilizer_of_class(c)
    clauses = []

    # (i) distinct H1 cosets induce distinct outer classes; lambda is the
    # inclusion Z1 <= Aut0, so each representative is looked up as it is
    images = [outer.coset_keys.get(g) for g in report_h1.h1_cosets]
    ok_i = None not in images and len(set(images)) == len(images)
    clauses.append(SesClause(
        "lambda_injective", ok_i,
        f"{len(set(i for i in images if i is not None))} distinct outer classes "
        f"from {report_h1.h1_order} cohomology cosets"))

    # (ii) the outer classes with identity idempotent permutation are
    # exactly the lambda images
    kernel_keys = {outer.coset_keys[t] for t in outer.aut0 if t.phi.is_identity()}
    ok_ii = set(images) == kernel_keys
    clauses.append(SesClause(
        "image_lambda_is_kernel_phi", ok_ii,
        f"kernel has {len(kernel_keys)} outer classes, lambda image has "
        f"{len(set(images))}"))

    # (iii) the idempotent permutations realized by Aut0 are the stabilizer
    got = set(outer.phi_image)
    want = set(stab)
    clauses.append(SesClause(
        "image_phi_is_stabilizer", got == want,
        f"realized {len(got)} permutations, stabilizer has {len(want)}"))

    # (iv) |Out R| = |H1| . |Stab|
    ok_iv = outer.out_order == report_h1.h1_order * len(stab)
    clauses.append(SesClause(
        "order_equation", ok_iv,
        f"|Out R| = {outer.out_order}, |H1| x |Stab| = "
        f"{report_h1.h1_order} x {len(stab)}"))

    # (v) split section for the trivial class: phi -> (id, 1, phi)
    trivial = TwoCochain.trivial(c.sg, c.domain)
    if cohomologous(c, trivial) is not None:
        ring = TwistedRing(trivial)
        ok_v = all(verify_ring_hom(RingIso(ring, ring, Gauge(c.sg, c.domain, phi=phi)))
                   for phi in c.sg.enumerate_autos())
        clauses.append(SesClause(
            "split_section", ok_v,
            "phi -> (id, 1, phi) lands in Aut0 with Phi o Psi = id"))
    else:
        clauses.append(SesClause(
            "split_section", None, "class is not trivial; not applicable"))

    ok = all(cl.ok for cl in clauses if cl.ok is not None)
    orders = {
        "aut_s": len(c.sg.enumerate_autos()),
        "z1": report_h1.z1_order,
        "b1": report_h1.b1_order,
        "h1": report_h1.h1_order,
        "aut0": outer.aut0_order,
        "inn0": outer.inn0_order,
        "out_r": outer.out_order,
        "stab": len(stab),
    }
    return SesReport(ok, tuple(clauses), orders)
