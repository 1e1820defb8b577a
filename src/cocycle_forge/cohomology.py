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

Over GF(q) each of Z1, B1 and Aut0 has one checked listing in log
coordinates (mu exponents, eta logs mod q - 1, phi; see `_logs.py`), and
everything else reads these three: `z1_listing` solves the action-formula
relations by `_logs.solve`, `b1_listing` spans the subgroup of log vectors
generated by the star action's columns, and `aut0_listing` solves
relations read from the multiplicativity probes. The CLI prints a listing
through `gauge.gauge_list_text`; the `*_enumerate` functions translate one
into gauges; `h1`, `out_r` and `verify_ses` partition them by `_cosets`,
which walks the sorted group and makes each unassigned element the
representative, hence the least element, of its coset. The reports hold
values only: orders, the H1 representatives (the one gauge list they
build) with their coset table, and the realized idempotent permutations.

Aut0 R is found by propagation over the exact multiplicativity probes of
`ring._probes`: for each (phi, mu) they fix, with eta = 1, the value u that
eta(s) alpha_{phi(s)}(eta(t)) eta(s.t)^{-1} must take on a composable pair
for the induced map d.s -> mu_e(d) eta(s) phi(s) to multiply (or rule the
choice out), and `_logs.solve` finds eta with eta = 1 on E. mu is assigned
one idempotent at a time, and the probes on each pair (s, tgt s) rule it out
as soon as both ends of s have a value.
`verify_ses` then checks exactness of

    1 -> H1 -> Out R -> Stab(Aut S) -> 1

clause by clause on the listings and their coset maps, with a
split-section check when the class is trivial.

The enumeration route here (homomorphism testing) is deliberately
independent of the gauge-search route in `gauge.py`: the two share the
coordinates and the eta search but take the required values from different
places, ring multiplicativity here and the action formula there.
`verify_ses` gains its force from comparing the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._logs import compose, field_logs, power, solve
from .cochain import TwoCochain, is_normal
from .errors import NotEnumerable, NotNormal
from .gauge import (
    Gauge, _gauge_solutions_ff, cohomologous, from_logs, stabilizer_of_class,
)
from .ring import RingIso, TwistedRing, _probes, pair_sides, verify_ring_hom
from .scalars import RingAuto
from .semigroup import SemigroupAuto


def _require_listable(c):
    if c.domain.kind != "finite_field":
        raise NotEnumerable(
            "cohomology-group enumeration needs a finite coefficient field")
    if not is_normal(c):
        raise NotNormal("normalize the cocycle first; these enumerations "
                        "assume a normal representative")


def _gauges(c, group):
    """The gauges of a list in log coordinates (see gauge.from_logs)."""
    return [from_logs(c.sg, c.domain, g) for g in group]


# ---------------------------------------------------------------------------
# Z1, B1, H1


def z1_listing(c):
    """Z1 in log coordinates, sorted; see z1_enumerate."""
    _require_listable(c)
    return list(_gauge_solutions_ff(c, c))


def z1_enumerate(c):
    """All gauges fixing the cocycle; deterministic canonical order."""
    return _gauges(c, z1_listing(c))


def b1_listing(c):
    """B1 in log coordinates, sorted; see b1_enumerate.

    The star action of eps on the identity gauge keeps mu = id (rho is
    trivial on a field) and gives eta the logs
    x[s] = eps[src s] - p^{a_s} eps[tgt s] (alpha_s = Frob^{a_s}), so B1 is
    the image of the torus (Z/n)^E under this linear map: the subgroup
    generated by its columns, one per idempotent. Each column extends the
    group by the translates that are new, until a multiple of it falls
    back into the group, so every member is made once.
    """
    _require_listable(c)
    sg = c.sg
    logs = field_logs(c.domain)
    n = logs.n
    zero = (0,) * len(sg.elements)
    group, members = [zero], {zero}
    for e in sg.idempotents:
        col = tuple(((1 if sg.src[s] == e else 0)
                     - (logs.frob[power(c.alpha_at(s))] if sg.tgt[s] == e else 0)) % n
                    for s in sg.elements)
        base, shift = list(group), col
        while shift not in members:
            for v in base:
                w = tuple([(a + b) % n for a, b in zip(v, shift)])
                members.add(w)
                group.append(w)
            shift = tuple([(a + b) % n for a, b in zip(shift, col)])
    rank = logs.rank
    group.sort(key=lambda x: [rank[v] for v in x])
    mu, ident = (0,) * len(sg.idempotents), SemigroupAuto.identity(sg)
    return [(mu, x, ident) for x in group]


def b1_enumerate(c):
    """The orbit of the identity gauge under the star action, sorted."""
    return _gauges(c, b1_listing(c))


def _cosets(c, group, sub):
    """Left cosets sub . g of a group listed in sort order, all in log
    coordinates: (coset_of, reps), coset_of mapping each member to its
    coset index and reps[i] the least element of coset i.

    sub is B1, whose members h have mu = 0 and phi = id, so the group law
    of _logs.py gives h . g = (g.mu, p^{g.mu[src s]} h[s] + g.x[s], g.phi).
    """
    sg = c.sg
    logs = field_logs(c.domain)
    n, frob = logs.n, logs.frob
    e_pos = {e: i for i, e in enumerate(sg.idempotents)}
    src = [e_pos[sg.src[s]] for s in sg.elements]
    coset_of = dict.fromkeys(group)
    reps = []
    for g in group:
        if coset_of[g] is not None:
            continue
        mu, x, phi = g
        scale = [frob[mu[i]] for i in src]
        index = len(reps)
        for _, h, _ in sub:
            hg = (mu, tuple([(a * b + v) % n for a, b, v in zip(scale, h, x)]), phi)
            if hg not in coset_of:
                raise AssertionError("a translate by the subgroup left the group")
            coset_of[hg] = index
        reps.append(g)
    if len(reps) * len(sub) != len(group):
        raise AssertionError("|group| != |subgroup| x |cosets|")
    return coset_of, reps


def _h1_cosets(c):
    """(Z1, B1, coset_of, reps): Z1 partitioned into B1-cosets, all in log
    coordinates (see _cosets)."""
    z1, b1 = z1_listing(c), b1_listing(c)
    coset_of, reps = _cosets(c, z1, b1)
    if not all(g in coset_of for g in b1):
        raise AssertionError("coboundaries failed to stabilize the cocycle")
    return z1, b1, coset_of, reps


@dataclass(frozen=True)
class H1Report:
    """Z1/B1 by its orders, its coset representatives (sorted gauges) and a
    coset table, coset_table[i][j] being the coset of rep_i * rep_j."""
    z1_order: int
    b1_order: int
    h1_order: int
    h1_cosets: list
    coset_table: list


def h1(c):
    """Group Z1 into B1-cosets; the factor group is reported by table."""
    z1, b1, coset_of, reps = _h1_cosets(c)
    logs = field_logs(c.domain)
    table = [[coset_of[compose(c.sg, logs, a, b)] for b in reps] for a in reps]
    return H1Report(len(z1), len(b1), len(reps), _gauges(c, reps), table)


# ---------------------------------------------------------------------------
# Aut0: gauges (mu, eta, phi) inducing idempotent-permuting ring automorphisms


def inner_triples(c):
    """The idempotent-fixing inner automorphisms r = sum eps(e) e, that is
    B1 itself (mu_e = rho_{eps(e)}, eta(s) = eps(e) alpha_s(eps(f)^{-1})).
    b1_enumerate under a second name, kept because bench/check.py:23
    imports it."""
    return b1_enumerate(c)


def _aut0_constraints(c, phi, mu, probes):
    """The _logs.solve constraints a ring automorphism over (phi, mu) puts
    on eta, or None when the probes already rule (phi, mu) out.

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
    unit_eta = _unit_eta(c)
    constraints = []
    for s, t in sg.tuples(2):
        u = _probed_u(c, phi, mu, unit_eta, probes, s, t)
        if u is None:
            return None
        constraints.append((s, t, sg.compose(s, t), c.alpha_at(phi(s)), u))
    return constraints


def _unit_eta(c):
    one = c.domain.one()
    return {s: one for s in c.sg.elements}


def _probed_u(c, phi, mu, eta, probes, s, t):
    """L / R of pair_sides at d = 1 on the pair (s, t), or None when another
    probe asks for a different ratio. mu needs values at src s and src t
    only."""
    lhs, rhs = pair_sides(c, c, mu, eta, phi, s, t, probes[0])
    u = lhs * rhs.inv()
    for d in probes[1:]:
        lhs, rhs = pair_sides(c, c, mu, eta, phi, s, t, d)
        if lhs != rhs * u:
            return None
    return u


def _aut0_mus(c, phi, probes):
    """Yield, in product order, the mu (Frobenius exponents per idempotent)
    that survive the probes on every pair (s, tgt s).

    On such a pair, with eta = 1, the probe d tests only
    mu_{src s} o alpha_s = alpha_{phi(s)} o mu_{tgt s} at d (see
    ring._probes), so mu is assigned one idempotent at a time and each
    arrow s is tested as soon as both of its ends have a value. The verdict
    is read from pair_sides, as in _aut0_constraints, which still checks
    every pair of a surviving mu.
    """
    sg, domain = c.sg, c.domain
    unit_eta = _unit_eta(c)
    pos = {e: i for i, e in enumerate(sg.idempotents)}
    due = [[] for _ in sg.idempotents]
    # the probe d = 1 alone never rules a pair out
    for s in sg.arrows() if len(probes) > 1 else ():
        due[max(pos[sg.src[s]], pos[sg.tgt[s]])].append(s)
    autos, mu = {}, []

    def extend(i):
        if i == len(due):
            yield tuple(mu)
            return
        e = sg.idempotents[i]
        for m in range(domain.k):
            autos[e] = RingAuto.frobenius(domain, m)
            if all(_probed_u(c, phi, autos, unit_eta, probes, s, sg.tgt[s]) is not None
                   for s in due[i]):
                mu.append(m)
                yield from extend(i + 1)
                mu.pop()

    yield from extend(0)


def aut0_listing(c):
    """Aut0 in log coordinates, sorted; see aut0_enumerate."""
    _require_listable(c)
    sg, domain = c.sg, c.domain
    logs = field_logs(domain)
    probes = _probes(domain)
    fixed = {e: 0 for e in sg.idempotents}
    out = []
    for phi in sg.enumerate_autos():
        for mu in _aut0_mus(c, phi, probes):
            autos = {e: RingAuto.frobenius(domain, i) for e, i in zip(sg.idempotents, mu)}
            constraints = _aut0_constraints(c, phi, autos, probes)
            if constraints is not None:
                out.extend((mu, x, phi) for x in solve(sg, logs, constraints, fixed))
    out.sort(key=logs.key)
    return out


def aut0_enumerate(c, jobs=1):
    """Every gauge (mu, eta, phi) whose induced map is a ring homomorphism,
    sorted; eta = 1 on the idempotents since c is normal.

    Exhaustive over Aut S x Aut(D)^E: mu is pruned arrow by arrow (see
    _aut0_mus) and eta solved from the multiplicativity probes (see
    _aut0_constraints) instead of listed; bijectivity is automatic for maps
    of this shape. `jobs` is accepted and ignored; it stays because
    bench/run.py:268-274 compares jobs=1 with jobs=2.
    """
    return _gauges(c, aut0_listing(c))


# ---------------------------------------------------------------------------
# Out R


@dataclass(frozen=True)
class OutRReport:
    """Aut0 modulo Inn0 = B1: the three orders and the idempotent
    permutations Aut0 realizes, sorted."""
    aut0_order: int
    inn0_order: int
    out_order: int
    phi_image: list


def out_r(c):
    """Aut0 modulo the idempotent-fixing inner automorphisms."""
    aut0, inn0 = aut0_listing(c), b1_listing(c)
    _, reps = _cosets(c, aut0, inn0)
    phi_image = sorted({g[2] for g in aut0}, key=SemigroupAuto.sort_key)
    return OutRReport(len(aut0), len(inn0), len(reps), phi_image)


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
    z1, b1, _, h1_reps = _h1_cosets(c)
    aut0 = aut0_listing(c)
    coset_of, out_reps = _cosets(c, aut0, b1)
    stab = stabilizer_of_class(c)
    clauses = []

    # (i) distinct H1 cosets induce distinct outer classes; lambda is the
    # inclusion Z1 <= Aut0, so each representative is looked up as it is
    images = [coset_of.get(g) for g in h1_reps]
    ok_i = None not in images and len(set(images)) == len(images)
    clauses.append(SesClause(
        "lambda_injective", ok_i,
        f"{len(set(i for i in images if i is not None))} distinct outer classes "
        f"from {len(h1_reps)} cohomology cosets"))

    # (ii) the outer classes with identity idempotent permutation are
    # exactly the lambda images
    kernel_keys = {i for g, i in coset_of.items() if g[2].is_identity()}
    ok_ii = set(images) == kernel_keys
    clauses.append(SesClause(
        "image_lambda_is_kernel_phi", ok_ii,
        f"kernel has {len(kernel_keys)} outer classes, lambda image has "
        f"{len(set(images))}"))

    # (iii) the idempotent permutations realized by Aut0 are the stabilizer
    got = {g[2] for g in aut0}
    want = set(stab)
    clauses.append(SesClause(
        "image_phi_is_stabilizer", got == want,
        f"realized {len(got)} permutations, stabilizer has {len(want)}"))

    # (iv) |Out R| = |H1| . |Stab|
    ok_iv = len(out_reps) == len(h1_reps) * len(stab)
    clauses.append(SesClause(
        "order_equation", ok_iv,
        f"|Out R| = {len(out_reps)}, |H1| x |Stab| = "
        f"{len(h1_reps)} x {len(stab)}"))

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
        "z1": len(z1),
        "b1": len(b1),
        "h1": len(h1_reps),
        "aut0": len(aut0),
        "inn0": len(b1),
        "out_r": len(out_reps),
        "stab": len(stab),
    }
    return SesReport(ok, tuple(clauses), orders)
