"""First cohomology of a cocycle and the outer automorphisms of its ring.

For a normal cocycle c over an enumerable coefficient field, everything
here is a set of gauges (mu, eta, phi) (see `gauge.py`). Each listing and
report refuses twist data that is not a cocycle first, then a domain that
is not a finite field, then a cocycle that is not normal:

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
coordinates (mu exponents, eta logs mod q - 1, phi; see `_logs.py`):
`z1_listing` walks the fibers of the action-formula relations
(`gauge._gauge_fibers`), `b1_listing` the lattice spanned by the star
action's columns, and `aut0_listing` the fibers of relations read from
the multiplicativity probes (`_aut0_fibers`), each on a triangular basis
(`_multsolve.members`). A fiber is one mu (and phi) that the route's mu
relations admit, with the lattice of its eta rows and one solution x0
of them where they reduce; each route solves its fibers once, in one
stream, and its listing, `h1`, `out_r` and `verify_ses` read that
stream. The CLI prints a listing through `gauge.gauge_list_text`, and
the `*_enumerate` functions translate one into gauges. Nothing here
partitions a listing.

`h1`, `out_r` and `verify_ses` list no group. They read the same relations
as lattices mod n = q - 1, every one from the cached `_multsolve.graph`:
for one mu (and phi) the eta solutions are x0 + L_phi, L_phi the kernel
of the rows' coefficients (`_logs.eta_rows`), which depend on phi but not
on mu, so one lattice per phi decides every mu's rows and gives x0, and
B1 is the image of the star matrix, read off the pivots of its graph
lattice (`_b1_lattice`). One kernel L = L_id sizes every phi.
The rows of phi are x[s] + p^{a(phi s)} x[t] - x[st] over the composable
pairs (s, t), and phi is a product-preserving bijection of those pairs; so
with y = x o phi^{-1} (y[phi s] = x[s]) they are exactly the phi = id rows
y[s'] + p^{a(s')} y[t'] - y[s't'] over (s', t') = (phi s, phi t). Hence
L_phi = {x : x o phi^{-1} in L}, a relabelling of positions, and
|L_phi| = |L|. So |Z1| and |Aut0| are |L| times the number of fibers that
have a solution x0, and |B1| divides both. On Z1, mu is constant along every
arrow, so the scaling by p^{mu[src s]} in h . g maps B1 onto itself and a
coset B1 . g is the plain translate g.x + B1; `h1` reads the cosets in
each fiber off the triangular bases of L and B1 and reports each by its
least member (`_multsolve.least`), the element a walk of the sorted Z1
would meet first. The reports hold values only: orders, the H1
representatives (the one gauge list they build) with their coset table,
and the realized idempotent permutations.

Aut0 R is found by propagation over the exact multiplicativity probes of
`ring._probes`: for each (phi, mu) they fix, with eta = 1, the value u that
eta(s) alpha_{phi(s)}(eta(t)) eta(s.t)^{-1} must take on a composable pair
for the induced map d.s -> mu_e(d) eta(s) phi(s) to multiply (or rule the
choice out), and the lattice of those rows (`_logs.eta_rows`) finds eta.
Nothing pins eta on E: on a pair (e, e) of a normal cocycle alpha is the
identity and u = 1, so its row reads x_e = log 1 = 0. One pass
(`_aut0_fibers`) asks the probes: mu is assigned one idempotent at a
time by the search that also finds Aut S (`SquareFreeSemigroup.assignments`),
the probes on each pair (s, tgt s), the only ones that can rule a mu out,
run as soon as both ends of s have a value, and every other composable
pair is probed once mu is complete, so no pair is probed twice for one
(phi, mu).

`verify_ses` then checks exactness of

    1 -> H1 -> Out R -> Stab(Aut S) -> 1

clause by clause on these lattices, comparing the two routes' fibers as
affine sets mod n, with a split-section check when the class is trivial.

The enumeration route here (homomorphism testing) is deliberately
independent of the gauge-search route in `gauge.py`: the two share the
coordinates and the eta lattices but take the required values from different
places, ring multiplicativity here and the action formula there.
`verify_ses` gains its force from comparing the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._logs import eta_rows, field_logs, power
from ._multsolve import graph, least, members, order
from .cochain import TwoCochain, is_normal
from .errors import NotEnumerable, NotNormal
from .gauge import Gauge, _gauge_fibers, cohomologous, from_logs, stabilizer_of_class
from .ring import RingIso, TwistedRing, _probes, pair_sides, require_cocycle, verify_ring_hom
from .scalars import RingAuto
from .semigroup import SemigroupAuto


def _require_listable(c):
    require_cocycle(c)
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
    """Z1 in log coordinates, sorted; see z1_enumerate. The fibers come
    in product order of mu and each walks in rank order, so the walk is
    sorted."""
    _require_listable(c)
    logs = field_logs(c.domain)
    ident = SemigroupAuto.identity(c.sg)
    return [(mu, x, ident) for mu, lattice, x0 in _gauge_fibers(c, c) if x0 is not None
            for x in members(x0, lattice.kernel, logs.n, logs.classes)]


def z1_enumerate(c):
    """All gauges fixing the cocycle; deterministic canonical order."""
    return _gauges(c, z1_listing(c))


def _b1_lattice(c):
    """The triangular basis of B1 mod n (see b1_listing), one vector per
    element position.

    The star matrix A has one row per element s,
    eps[src s] - p^{a_s} eps[tgt s], so B1 = Im A + n Z^S. The pivots of
    its graph lattice {(A eps, eps)} + n Z^(S + E) (`_multsolve.graph`)
    vanish before their row positions and, with the kernel vectors, which
    vanish on every row position, span it; cut to the row positions they
    are a triangular basis of Im A + n Z^S."""
    sg = c.sg
    logs = field_logs(c.domain)
    pos = {e: i for i, e in enumerate(sg.idempotents)}
    star = tuple(((pos[sg.src[s]], 1), (pos[sg.tgt[s]], -logs.frob[power(c.alpha_at(s))]))
                 for s in sg.elements)
    size = len(star)
    return [{j: v for j, v in vec.items() if j < size}
            for vec in graph(star, len(pos), logs.n).pivots]


def b1_listing(c):
    """B1 in log coordinates, sorted; see b1_enumerate.

    The star action of eps on the identity gauge keeps mu = id (rho is
    trivial on a field) and gives eta the logs
    x[s] = eps[src s] - p^{a_s} eps[tgt s] (alpha_s = Frob^{a_s}), so B1 is
    the image of the torus (Z/n)^E under this linear map, the star matrix
    of _b1_lattice, walked from 0 in rank order on its triangular basis.
    """
    _require_listable(c)
    sg = c.sg
    logs = field_logs(c.domain)
    mu, ident = (0,) * len(sg.idempotents), SemigroupAuto.identity(sg)
    return [(mu, x, ident) for x in
            members((0,) * len(sg.elements), _b1_lattice(c), logs.n, logs.classes)]


def b1_enumerate(c):
    """The orbit of the identity gauge under the star action, sorted."""
    return _gauges(c, b1_listing(c))


@dataclass(frozen=True)
class H1Report:
    """Z1/B1 by its orders, its coset representatives (sorted gauges) and a
    coset table, coset_table[i][j] being the coset of rep_i * rep_j."""
    z1_order: int
    b1_order: int
    h1_order: int
    h1_cosets: list
    coset_table: list


def _z1_lattice(c, logs):
    """(fibers, lattice, B1): a solution x0 of each mu of _gauge_fibers(c, c)
    that has one (a dict mu -> x0), the lattice of their eta rows (one
    coefficient matrix for every mu), whose kernel is L, and the basis of
    B1, once every basis vector of B1 is checked to meet every row, i.e.
    B1 <= L."""
    b1 = _b1_lattice(c)
    fibers = {}
    for mu, lattice, x0 in _gauge_fibers(c, c):
        if x0 is not None:
            fibers[mu] = x0
    # mu = 0 is a choice, so lattice is bound
    if any(sum(a * vec.get(j, 0) for j, a in row) % logs.n
           for row in lattice.matrix for vec in b1):
        raise AssertionError("coboundaries failed to stabilize the cocycle")
    return fibers, lattice, b1


def h1(c):
    """Group Z1 into B1-cosets; the factor group is reported by table.

    Neither group is listed; both are lattices mod n = q - 1. Z1 is the
    union over the mu of _mu_choices(c, c) of the solutions of their eta
    rows, each x0 + L for one solution x0, with L the kernel of the
    rows' coefficients, which do not depend on mu. B1 is the image of the
    star matrix (_b1_lattice).

    Every gauge here has phi = id, and there the group law of gauge.py
    reads, in log coordinates (see _logs.py),

        (g1 g2).mu[e] = mu1[e] + mu2[e]                  mod k
        (g1 g2).x[s]  = p^{mu2[src s]} x1[s] + x2[s]      mod n

    On Z1, mu is constant along every arrow (mu_f - mu_e = 0 mod k), and
    each column lives on the arrows of one component, so the scaling by
    p^{mu[src s]} inside h . g (h in B1 having mu = 0) maps B1 onto
    itself: the coset B1 . g is g.x + B1. The cosets in a fiber are
    x0 + o + B1, with o = sum_j t_j l_j over the triangular bases l of L
    and b of B1, 0 <= t_j < b_j[j] / l_j[j]. Each is reported by its least
    member, as a walk of the sorted Z1 would find it, and the table by the
    coset of each product of representatives.
    """
    _require_listable(c)
    sg = c.sg
    logs = field_logs(c.domain)
    n, k, frob, classes = logs.n, logs.k, logs.frob, logs.classes
    fibers, lattice, b1 = _z1_lattice(c, logs)
    offsets = [(0,) * len(sg.elements)]
    for j, (l, b) in enumerate(zip(lattice.kernel, b1)):
        if b[j] % l[j]:
            raise AssertionError("B1 is not a sublattice of the Z1 fiber")
        offsets = [tuple([(o[i] + t * l.get(i, 0)) % n for i in range(len(o))])
                   for o in offsets for t in range(b[j] // l[j])]
    ident = SemigroupAuto.identity(sg)
    reps = sorted(((mu, least([(a + b) % n for a, b in zip(x0, o)], b1, n, classes), ident)
                   for mu, x0 in fibers.items() for o in offsets), key=logs.key)
    index = {g[:2]: i for i, g in enumerate(reps)}
    src = [sg.idempotents.index(sg.src[s]) for s in sg.elements]
    table = [[index[tuple([(a + b) % k for a, b in zip(mu1, mu2)]),
                    least([(frob[mu2[i]] * a + b) % n for i, a, b in zip(src, x1, x2)],
                          b1, n, classes)]
              for mu2, x2, _ in reps] for mu1, x1, _ in reps]
    return H1Report(len(fibers) * order(lattice.kernel, n), order(b1, n), len(reps),
                    _gauges(c, reps), table)


# ---------------------------------------------------------------------------
# Aut0: gauges (mu, eta, phi) inducing idempotent-permuting ring automorphisms


def inner_triples(c):
    """The idempotent-fixing inner automorphisms r = sum eps(e) e, that is
    B1 itself (mu_e = rho_{eps(e)}, eta(s) = eps(e) alpha_s(eps(f)^{-1})).
    b1_enumerate under a second name, kept because bench/check.py:23
    imports it."""
    return b1_enumerate(c)


def _aut0_fibers(c):
    """Yield (phi, mu, lattice, x0) for each phi in Aut S and, in product
    order, each mu (Frobenius exponents per idempotent) that the probes
    admit over phi: lattice is the _multsolve.Graph of the eta rows
    (_logs.eta_rows with scale p^{a_phi(s)}), one per phi whatever mu,
    built on its first mu, and x0 one solution of them for the values the
    probes ask, or None. The ring automorphisms over (phi, mu) are the eta
    of x0 + lattice.kernel.

    Over a field, with L, R the two sides of pair_sides at eta = 1, the
    composable pair (s, t) multiplies for eta exactly when
    L eta(s.t) = R eta(s) alpha_{phi(s)}(eta(t)), i.e. when
    eta(s) alpha_{phi(s)}(eta(t)) eta(s.t)^{-1} = L / R; u = L / R is read
    at d = 1, and every other probe of ring._probes must ask for the same u.
    Pairs hitting theta are vacuous because phi preserves products, and
    sigma(1) = 1 holds identically because the cocycle is normal and the
    rows of the pairs (e, e) set eta = 1 on the idempotents.

    A pair's probes read mu at src s and src t only, and with eta = 1 the
    probe d on a pair (s, tgt s) tests
    mu_{src s} o alpha_s = alpha_{phi(s)} o mu_{tgt s} at d, the one test
    that can rule a mu out. So mu is assigned by sg.assignments, the k
    Frobenius powers for each idempotent in turn, each arrow pair is probed
    as soon as both of its ends have a value, and every other composable
    pair is probed once mu is complete.
    """
    sg, domain = c.sg, c.domain
    logs, probes, found = field_logs(domain), _probes(domain), {}
    unit_eta = dict.fromkeys(sg.elements, domain.one())
    frobs = [RingAuto.frobenius(domain, m) for m in range(domain.k)]

    def probe(autos, s, t):
        lhs, rhs = pair_sides(c, c, autos, unit_eta, phi, s, t, probes[0])
        u = lhs * rhs.inv()
        for d in probes[1:]:
            lhs, rhs = pair_sides(c, c, autos, unit_eta, phi, s, t, d)
            if lhs != rhs * u:
                return None
        return u

    def fits(s, autos):
        found[s, sg.tgt[s]] = u = probe(autos, s, sg.tgt[s])
        return u is not None

    for phi in sg.enumerate_autos():
        lattice = None
        for autos in sg.assignments(lambda e, autos: frobs, fits):
            b = []
            for s, t, _ in sg.composable().pairs:
                u = found[(s, t)] if (s, t) in found else probe(autos, s, t)
                if u is None:
                    break
                b.append(logs.of(u))
            else:
                if lattice is None:
                    scale = [logs.frob[power(c.alpha_at(phi(s)))] for s in sg.elements]
                    lattice = graph(eta_rows(sg, scale), len(scale), logs.n)
                yield (phi, tuple(power(a) for a in autos.values()), lattice, lattice.solve(b))


def aut0_listing(c):
    """Aut0 in log coordinates, sorted; see aut0_enumerate."""
    _require_listable(c)
    logs = field_logs(c.domain)
    out = [(mu, x, phi) for phi, mu, lattice, x0 in _aut0_fibers(c) if x0 is not None
           for x in members(x0, lattice.kernel, logs.n, logs.classes)]
    out.sort(key=logs.key)
    return out


def aut0_enumerate(c, jobs=1):
    """Every gauge (mu, eta, phi) whose induced map is a ring homomorphism,
    sorted; eta = 1 on the idempotents since c is normal.

    Exhaustive over Aut S x Aut(D)^E: mu is pruned arrow by arrow and eta
    solved from the multiplicativity probes (see _aut0_fibers) instead of
    listed; bijectivity is automatic for maps of this shape. `jobs` is
    accepted and ignored; it stays because bench/run.py:268-274 compares
    jobs=1 with jobs=2.
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
    """Aut0 modulo the idempotent-fixing inner automorphisms.

    Neither group is listed. The eta rows of a (phi, mu) of _aut0_fibers
    have coefficients (1, p^{a_phi(s)}, -1), which depend on phi only, so
    their solutions, where there is one, are a translate of the kernel
    L_phi of those coefficients, and |L_phi| = |L| for every phi (module
    docstring). So one kernel, of the first fiber's lattice, sizes them all:
    |Aut0| = |L| times the number of (phi, mu) with a solution, and
    |Out R| = |Aut0| / |B1|.
    """
    _require_listable(c)
    logs = field_logs(c.domain)
    fibers = [f for f in _aut0_fibers(c) if f[3] is not None]
    # the identity gauge has a fiber, so there is a first one
    aut0 = len(fibers) * order(fibers[0][2].kernel, logs.n)
    inn0 = order(_b1_lattice(c), logs.n)
    if aut0 % inn0:
        raise AssertionError("|Aut0| is not a multiple of |Inn0|")
    return OutRReport(aut0, inn0, aut0 // inn0,
                      sorted({f[0] for f in fibers}, key=SemigroupAuto.sort_key))


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
    """Check exactness of 1 -> H1 -> Out R -> Stab -> 1 on the solution
    lattices mod n = q - 1, listing no group.

    L is the kernel of the phi = id eta rows and B1 the lattice of the star
    action's columns. The gauge route (_gauge_fibers, the action formula)
    and the probe route (_aut0_fibers, ring multiplicativity) each give the
    right-hand sides of their fibers; a fiber counts where its rows reduce
    to a solution. First B1 <= L: every basis vector of B1 meets every row.

    (i) lambda injective and (ii) image lambda = kernel Phi hold when the
    two routes' phi = id coefficient rows are equal, so both fibers of a mu
    are translates of L, the same mus have a fiber in both, and for each the
    two solutions differ by a member of L (`least` of the difference
    is `least` of 0). Then Aut0 and {phi = id} meet in Z1 as sets, and with
    B1 <= L a B1-coset of Z1 is one of Aut0, so lambda is injective and its
    image is the kernel. (i) needs each Z1 fiber to be an Aut0 fiber,
    (ii) the converse too.
    (iii) the phis with an Aut0 fiber are stabilizer_of_class(c).
    (iv) |Out R| = #Aut0 fibers . |L| / |B1| (module docstring) against
    |H1| . |Stab|, with |H1| = #Z1 fibers . |L| / |B1|.
    (v) for the trivial class, phi -> (id, 1, phi) passes verify_ring_hom
    for each phi in Aut S.

    The orders, and the detail of each clause that holds, read as a
    partition of the listings into B1-cosets would give them. A failing (i)
    or (ii) reports fiber counts instead.
    """
    _require_listable(c)
    sg = c.sg
    logs = field_logs(c.domain)
    n, classes = logs.n, logs.classes
    z1_fibers, lattice, b1 = _z1_lattice(c, logs)
    size, inn0 = order(lattice.kernel, n), order(b1, n)
    if size % inn0:
        raise AssertionError("|B1| does not divide |L|")
    aut0_fibers = [f for f in _aut0_fibers(c) if f[3] is not None]
    id_fibers = [f for f in aut0_fibers if f[0].is_identity()]
    stab = stabilizer_of_class(c)
    h1_order = len(z1_fibers) * size // inn0
    out_order = len(aut0_fibers) * size // inn0
    clauses = []

    # (i) and (ii): Z1 = Aut0 with phi = id, fiber by fiber
    same_rows = bool(id_fibers) and id_fibers[0][2].matrix == lattice.matrix
    zero = least((0,) * len(sg.elements), lattice.kernel, n, classes)
    shared = sum(mu in z1_fibers and least([(a - b) % n for a, b in zip(x0, z1_fibers[mu])],
                                          lattice.kernel, n, classes) == zero
                 for _, mu, _, x0 in id_fibers) if same_rows else 0
    rows_note = "" if same_rows else "; the two routes' phi = id eta rows differ"
    ok_i = shared == len(z1_fibers)
    clauses.append(SesClause(
        "lambda_injective", ok_i,
        f"{h1_order} distinct outer classes from {h1_order} cohomology cosets" if ok_i else
        f"{shared} of {len(z1_fibers)} Z1 fibers are Aut0 fibers{rows_note}"))
    ok_ii = ok_i and len(id_fibers) == shared
    clauses.append(SesClause(
        "image_lambda_is_kernel_phi", ok_ii,
        f"kernel has {h1_order} outer classes, lambda image has {h1_order}" if ok_ii else
        f"{len(id_fibers)} Aut0 fibers over phi = id, {shared} of them Z1 fibers{rows_note}"))

    # (iii) the idempotent permutations realized by Aut0 are the stabilizer
    phis, want = {f[0] for f in aut0_fibers}, set(stab)
    clauses.append(SesClause(
        "image_phi_is_stabilizer", phis == want,
        f"realized {len(phis)} permutations, stabilizer has {len(want)}"))

    # (iv) |Out R| = |H1| . |Stab|
    clauses.append(SesClause(
        "order_equation", out_order == h1_order * len(stab),
        f"|Out R| = {out_order}, |H1| x |Stab| = {h1_order} x {len(stab)}"))

    # (v) split section for the trivial class: phi -> (id, 1, phi)
    trivial = TwoCochain.trivial(sg, c.domain)
    if cohomologous(c, trivial) is not None:
        ring = TwistedRing(trivial)
        ok_v = all(verify_ring_hom(RingIso(ring, ring, Gauge(sg, c.domain, phi=phi)))
                   for phi in sg.enumerate_autos())
        clauses.append(SesClause(
            "split_section", ok_v,
            "phi -> (id, 1, phi) lands in Aut0 with Phi o Psi = id"))
    else:
        clauses.append(SesClause(
            "split_section", None, "class is not trivial; not applicable"))

    ok = all(cl.ok for cl in clauses if cl.ok is not None)
    orders = {
        "aut_s": len(sg.enumerate_autos()),
        "z1": len(z1_fibers) * size,
        "b1": inn0,
        "h1": h1_order,
        "aut0": len(aut0_fibers) * size,
        "inn0": inn0,
        "out_r": out_order,
        "stab": len(stab),
    }
    return SesReport(ok, tuple(clauses), orders)
