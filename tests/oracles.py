"""Brute-force reference implementations the fast paths are checked against.

`brute_force_aut0` tests every candidate gauge (mu, eta, phi) with eta = 1
on the idempotents, and `hom_test_aut0` every one with eta free there too,
through `verify_ring_hom`; `brute_force_b1` builds the gauge of every map
E -> D* by `star_act` and then drops repeats; `all_pairs_verify_ring_hom`
multiplies full ring elements on every basis pair, and `all_pairs_product`
is the ring product over every pair of support elements, each term
reduced as it is added, that walking the composable pairs replaced. The
object-level listing layer that log coordinates replaced is kept here too:
`solve_eta` backtracks Scalars over every unit, `gauge_solutions` loops mu
over all of Aut(D)^E, and `cosets` partitions gauges through
`Gauge.compose`;
`product_aut0_logs` lists Aut0 in log coordinates with every mu of
Aut(D)^E asked of the probes. The listing route that the solution lattices
replaced is kept too: `_cosets` partitions a listing in log coordinates
into B1-cosets, and `listing_verify_ses` checks the exact sequence on
the Z1, B1 and Aut0 listings and their coset maps. The lattices mod n that count H1 and Out R
are checked against `span_mod`, which closes a subgroup of (Z/n)^size
under its generators, and `kernel_by_scan`, which tests every vector; the
solutions their reduction and walk give, against `solve_rows`, the
depth-first search over a row echelon mod n that they replaced. The Aut0 oracles read their eta relations
from `probe_constraints`, which asks `ring.pair_sides` about every pair at
every probe, and the Z1 ones from `action_constraints`, read off the
action formula, so no oracle builds a relation with a fast route's helper.
Trial division decides primes and irreducible polynomials, and `integer_order_modulus` scans every monic
polynomial for the least irreducible. The componentwise-Fraction
quaternion arithmetic that the integer kernel replaced is kept as
`hamilton_product`, `hamilton_inverse` and `conjugate`. The checks that
now cost what the data holds keep their full scans here:
`full_scan_validate` tests associativity on all |S*|^3 triples and
`full_scan_is_cocycle` evaluates every cocycle identity,
`permutation_scan_autos` keeps each permutation of E whose extension
through the slots preserves all |S*|^2 products, and
`arrow_nilpotency_index` powers the support of the arrow span until it
dies out. The root-taking
rational solver that log coordinates over Q* replaced is kept as
`root_solve_multiplicative`, the witness reference, and `rational_verdict`
decides a multiplicative system over Q* on its own: determinantal divisors
per prime of the constants, and the signs by brute force. All are slow and
deliberately direct.
"""

import itertools
import math
import random
from fractions import Fraction

from cocycle_forge._logs import field_logs, system
from cocycle_forge._multsolve import _int_nth_root, eliminate, members
from cocycle_forge.cochain import CocycleVerdict, CocycleViolation, TwoCochain
from cocycle_forge.errors import SemigroupInvalid
from cocycle_forge.cohomology import (
    SesClause, SesReport, aut0_listing, b1_listing, z1_listing,
)
from cocycle_forge.gauge import Gauge, cohomologous, stabilizer_of_class
from cocycle_forge.ring import (
    HomVerdict, RingElement, RingIso, TwistedRing, _probes, pair_sides, verify_ring_hom,
)
from cocycle_forge.scalars import (
    RingAuto, _poly_divmod, enumerate_autos, enumerate_units, random_scalar, rho,
)
from cocycle_forge.semigroup import Violation, _typed_table


def scalar_samples(domain, seed=0):
    """A broad probe sample, wider than the fast paths' fixed probe set: 1,
    a generator, j for the quaternions, and three seeded draws
    (deduplicated, zeros dropped)."""
    rng = random.Random(seed)
    samples = [domain.one(), domain.generator()]
    if domain.kind == "rational_quaternion":
        samples.append(domain.scalar([0, 0, 1, 0]))
    samples += [random_scalar(domain, rng, nonzero=True) for _ in range(3)]
    return list(dict.fromkeys(samples))


def _aut0_chunk(c, phi, mu_choice):
    """Keep the gauges over one (phi, mu) choice whose map multiplies.

    The check is multiplicativity of sigma(d.s) = mu_e(d) eta(s) phi(s) on
    every composable basis pair with both scalars ranging over the broad
    sample of scalar_samples. Pairs hitting theta vanish on both sides
    because phi preserves products, and sigma(1) = 1 holds since the
    cocycle is normal and eta = 1 on idempotents. Over a field the scalar
    factors commute, so the pair condition is
    L = R . eta(s) alpha'(eta(t)) eta(s.t)^{-1} with L, R precomputed per
    scalar pair.
    """
    sg = c.sg
    units = enumerate_units(c.domain)
    one = c.domain.one()
    mu = dict(zip(sg.idempotents, mu_choice))
    arrows = sg.arrows()
    samples = scalar_samples(c.domain)

    pair_tests = []  # (s, t, st, alpha', [(L, R), ...])
    for s, t in sg.tuples(2):
        e, f = sg.src[s], sg.src[t]
        st = sg.compose(s, t)
        ps, pt = phi(s), phi(t)
        a_src = c.alpha_at(s)
        a_img = c.alpha_at(ps)
        xi_in = c.xi_at(s, t)
        xi_out = c.xi_at(ps, pt)
        checks = []
        for d1 in samples:
            for d2 in samples:
                lhs = mu[e](d1 * a_src(d2) * xi_in)
                rhs = mu[e](d1) * a_img(mu[f](d2)) * xi_out
                checks.append((lhs, rhs))
        pair_tests.append((s, t, st, a_img, checks))

    found = []
    for eta_choice in itertools.product(units, repeat=len(arrows)):
        eta = {e: one for e in sg.idempotents}
        eta.update(zip(arrows, eta_choice))
        ok = True
        for s, t, st, a_img, checks in pair_tests:
            u = eta[s] * a_img(eta[t]) * eta[st].inv()
            if any(lhs != rhs * u for lhs, rhs in checks):
                ok = False
                break
        if ok:
            found.append(Gauge(sg, c.domain, mu, eta, phi))
    return found


def brute_force_aut0(c):
    """Every (mu, eta, phi) whose induced map multiplies, sorted; tests all
    |Aut S| x |Aut D|^|E| x |D*|^#arrows candidates."""
    out = []
    for phi in c.sg.enumerate_autos():
        for mu_choice in itertools.product(enumerate_autos(c.domain),
                                           repeat=len(c.sg.idempotents)):
            out.extend(_aut0_chunk(c, phi, mu_choice))
    out.sort(key=lambda t: t.sort_key())
    return out


def hom_test_aut0(c):
    """Every (mu, eta, phi) whose map verify_ring_hom accepts, sorted; eta
    ranges over the idempotents too, so it tests all
    |Aut S| x |Aut D|^|E| x |D*|^|S*| candidates and assumes nothing of
    eta on E."""
    sg, domain = c.sg, c.domain
    ring = TwistedRing(c)
    units = enumerate_units(domain)
    out = []
    for phi in sg.enumerate_autos():
        for mu_choice in itertools.product(enumerate_autos(domain), repeat=len(sg.idempotents)):
            mu = dict(zip(sg.idempotents, mu_choice))
            for eta_choice in itertools.product(units, repeat=len(sg.elements)):
                g = Gauge(sg, domain, mu, dict(zip(sg.elements, eta_choice)), phi)
                if verify_ring_hom(RingIso(ring, ring, g)).ok:
                    out.append(g)
    return sorted(out, key=Gauge.sort_key)


def star_act(eps, oc, c):
    """Act by eps: E -> D* on a 1-cocycle of c: mu_e -> rho_eps(e) o mu_e,
    eta(s) -> eps(e) eta(s) alpha_s(eps(f)^{-1}) for s = e.s.f."""
    sg = c.sg
    mu = {e: rho(eps[e]).compose(oc.mu[e]) for e in sg.idempotents}
    eta = {s: eps[sg.src[s]] * oc.eta[s] * c.alpha_at(s)(eps[sg.tgt[s]].inv())
           for s in sg.elements}
    return Gauge(sg, c.domain, mu, eta)


def brute_force_b1(c):
    """The orbit of the identity gauge under the star action: one gauge per
    map eps: E -> D*, deduplicated afterwards, sorted."""
    units = enumerate_units(c.domain)
    ident = Gauge.identity(c.sg, c.domain)
    seen = {star_act(dict(zip(c.sg.idempotents, choice)), ident, c)
            for choice in itertools.product(units, repeat=len(c.sg.idempotents))}
    return sorted(seen, key=Gauge.sort_key)


def all_pairs_product(x, y):
    """x . y summed over every pair (s, t) of the supports, skipping the
    pairs with s.t = theta: the term d1 alpha_s(d2) xi(s, t) of each pair
    is built and added by Scalar arithmetic, reduced at every step."""
    ring = x.ring
    sg, c = ring.sg, ring.cocycle
    out = {}
    for s, d1 in x.coeffs.items():
        for t, d2 in y.coeffs.items():
            st = sg.compose(s, t)
            if st is None:
                continue
            val = d1 * c.alpha_at(s)(d2) * c.xi_at(s, t)
            acc = out.get(st)
            out[st] = val if acc is None else acc + val
    return RingElement(ring, out)


def all_pairs_verify_ring_hom(iso, seed=0):
    """Multiplicativity over all basis pairs through full RingElement
    products, d ranging over the broad sample of scalar_samples on both
    factors; gamma(1) = 1 is checked as well."""
    src = iso.source
    failures = []
    if iso.apply(src.one()) != iso.target.one():
        failures.append((("one",), iso.apply(src.one()), iso.target.one()))
    samples = scalar_samples(src.domain, seed)
    for s in src.sg.elements:
        for t in src.sg.elements:
            for d1 in samples:
                for d2 in samples:
                    x = src.basis(s, d1)
                    y = src.basis(t, d2)
                    lhs = iso.apply(x * y)
                    rhs = iso.apply(x) * iso.apply(y)
                    if lhs != rhs:
                        failures.append(((s, t, d1, d2), lhs, rhs))
    return HomVerdict(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# full scans of the semigroup and cocycle checks


def full_scan_validate(idempotents, arrows, products):
    """Every violation `SquareFreeSemigroup.validate` raises, in its order,
    or [] for a valid table; associativity is tested, theta-absorbing, on
    every triple of elements."""
    try:
        _, elements, _, _, table = _typed_table(idempotents, arrows, products)
    except SemigroupInvalid as exc:
        return list(exc.violations)

    def mul(a, b):
        # the table holds the nonzero products only
        if a is None or b is None:
            return None
        return table.get((a, b))

    return [Violation("not_associative", (a, b, c),
                      f"({a}.{b}).{c} = {mul(mul(a, b), c)} but "
                      f"{a}.({b}.{c}) = {mul(a, mul(b, c))}")
            for a, b, c in itertools.product(elements, repeat=3)
            if mul(mul(a, b), c) != mul(a, mul(b, c))]


def full_scan_is_cocycle(c):
    """Both cocycle identities evaluated on every composable triple and
    pair, as scalars and automorphisms."""
    sg = c.sg
    bad = []
    for s, t, u in sg.tuples(3):
        st = sg.compose(s, t)
        tu = sg.compose(t, u)
        lhs = c.alpha_at(s)(c.xi_at(t, u)) * c.xi_at(s, tu)
        rhs = c.xi_at(s, t) * c.xi_at(st, u)
        if lhs != rhs:
            bad.append(CocycleViolation("scalar", (s, t, u), lhs, rhs))
    for s, t in sg.tuples(2):
        lhs = c.alpha_at(s).compose(c.alpha_at(t))
        rhs = rho(c.xi_at(s, t)).compose(c.alpha_at(sg.compose(s, t)))
        if lhs != rhs:
            bad.append(CocycleViolation("automorphism", (s, t), lhs, rhs))
    return CocycleVerdict(not bad, tuple(bad))


def all_products_preserved(sg, mapping):
    """Whether a map of the elements preserves all |S*|^2 products, the
    ones with product theta included."""
    def image(x):
        return None if x is None else mapping[x]

    return all(sg.compose(mapping[a], mapping[b]) == image(sg.compose(a, b))
               for a in sg.elements for b in sg.elements)


def permutation_scan_autos(sg):
    """The sort keys (images in canonical order) of every automorphism:
    each permutation of E, extended to the arrows through the slots, is
    kept when the extension is a bijection that preserves all |S*|^2
    products."""
    found = []
    for perm in itertools.permutations(sg.idempotents):
        mapping = dict(zip(sg.idempotents, perm))
        for s in sg.arrows():
            image = sg.slot(mapping[sg.src[s]], mapping[sg.tgt[s]])
            if image is None or sg.is_idempotent(image):
                break
            mapping[s] = image
        else:
            if (len(set(mapping.values())) == len(sg.elements)
                    and all_products_preserved(sg, mapping)):
                found.append(tuple(mapping[s] for s in sg.elements))
    return sorted(found)


def arrow_nilpotency_index(sg):
    """The least m such that every product of m arrows is theta, by
    powering the support of the arrow span; None if it never dies out."""
    arrows = set(sg.arrows())
    support, index = set(arrows), 1
    while support:
        if index > len(sg.elements) + 1:
            return None
        support = {sg.compose(s, t) for s in support for t in arrows
                   if sg.compose(s, t) is not None}
        index += 1
    return index


# ---------------------------------------------------------------------------
# the object-level listing layer


def solve_eta(sg, units, constraints, fixed=None):
    """Yield every eta: S* -> D* meeting each constraint, in canonical order.

    A constraint (s, t, st, a, u) asks eta(s) . a(eta(t)) . eta(st)^{-1} = u,
    tested as eta(s) . a(eta(t)) == u . eta(st). Elements are assigned in
    the semigroup's canonical order, each over `units` in order unless
    `fixed` pins it, and each constraint is checked once the last element
    it mentions is assigned.
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


def action_constraints(c1, c2, mu):
    """The relations act_gauge((mu, eta), c1) == c2 puts on eta, read off
    its zeta formula mu_e^{-1}(eta(s) alpha1_s(eta(t)) xi1(s, t) eta(st)^{-1})
    = xi2(s, t) on every composable pair, as solve_eta constraints."""
    sg = c1.sg
    out = []
    for s, t in sg.tuples(2):
        u = mu[sg.src[s]](c2.xi_at(s, t)) * c1.xi_at(s, t).inv()
        out.append((s, t, sg.compose(s, t), c1.alpha_at(s), u))
    return out


def probe_constraints(c, phi, mu):
    """The relations a ring automorphism over (phi, mu) puts on eta, or None
    at the first composable pair whose probes disagree.

    Each pair is asked through ring.pair_sides at eta = 1 and every probe
    of ring._probes: the pair multiplies for eta exactly when
    eta(s) alpha_{phi(s)}(eta(t)) eta(st)^{-1} = L / R at each probe."""
    sg = c.sg
    one = c.domain.one()
    eta = {s: one for s in sg.elements}
    probes = _probes(c.domain)
    out = []
    for s, t in sg.tuples(2):
        (lhs, rhs), *rest = [pair_sides(c, c, mu, eta, phi, s, t, d) for d in probes]
        u = lhs * rhs.inv()
        if any(l != r * u for l, r in rest):
            return None
        out.append((s, t, sg.compose(s, t), c.alpha_at(phi(s)), u))
    return out


def gauge_solutions(c1, c2):
    """Every gauge carrying c1 to c2 over a finite field, in search order:
    mu over all of Aut(D)^E in product order, eta by solve_eta."""
    sg, domain = c1.sg, c1.domain
    units = enumerate_units(domain)
    for mu_choice in itertools.product(enumerate_autos(domain), repeat=len(sg.idempotents)):
        mu = dict(zip(sg.idempotents, mu_choice))
        if any(mu[sg.src[s]].inverse().compose(c1.alpha_at(s)).compose(mu[sg.tgt[s]])
               != c2.alpha_at(s) for s in sg.elements):
            continue
        for eta in solve_eta(sg, units, action_constraints(c1, c2, mu)):
            yield Gauge(sg, domain, mu, eta)


def object_z1(c):
    return sorted(gauge_solutions(c, c), key=Gauge.sort_key)


def object_aut0(c):
    """Aut0 by propagation over the probes, with eta backtracked as Scalars."""
    sg, domain = c.sg, c.domain
    units = enumerate_units(domain)
    fixed = {e: domain.one() for e in sg.idempotents}
    out = []
    for phi in sg.enumerate_autos():
        for mu_choice in itertools.product(enumerate_autos(domain), repeat=len(sg.idempotents)):
            mu = dict(zip(sg.idempotents, mu_choice))
            constraints = probe_constraints(c, phi, mu)
            if constraints is not None:
                out.extend(Gauge(sg, domain, mu, eta, phi)
                           for eta in solve_eta(sg, units, constraints, fixed))
    return sorted(out, key=Gauge.sort_key)


def product_aut0_logs(c):
    """Aut0 in log coordinates, sorted, with the probe constraints of every
    (phi, mu) in Aut S x Aut(D)^E and no mu pruned before them."""
    sg, domain = c.sg, c.domain
    logs = field_logs(domain)
    out = []
    for phi in sg.enumerate_autos():
        for mu in itertools.product(range(domain.k), repeat=len(sg.idempotents)):
            autos = {e: RingAuto.frobenius(domain, i) for e, i in zip(sg.idempotents, mu)}
            constraints = probe_constraints(c, phi, autos)
            if constraints is not None:
                lattice, x0 = system(sg, logs, constraints)
                if x0 is not None:
                    out.extend((mu, x, phi) for x in
                               members(x0, lattice.kernel, logs.n, logs.classes))
    return sorted(out, key=logs.key)


def cosets(group, sub):
    """Left cosets sub . g in a group sorted by sort_key: (coset_of, reps),
    each representative the least element of its coset."""
    coset_of = dict.fromkeys(group)
    reps = []
    for g in group:
        if coset_of[g] is None:
            for h in sub:
                coset_of[h.compose(g)] = len(reps)
            reps.append(g)
    assert len(coset_of) == len(group) and len(reps) * len(sub) == len(group)
    return coset_of, reps


def object_h1(c):
    """(representatives, coset table) of Z1 / B1 through Gauge.compose."""
    coset_of, reps = cosets(object_z1(c), brute_force_b1(c))
    return reps, [[coset_of[a.compose(b)] for b in reps] for a in reps]


def _cosets(c, group, sub):
    """Left cosets sub . g of a group listed in sort order, all in log
    coordinates: (coset_of, reps), coset_of mapping each member to its
    coset index and reps[i] the least element of coset i, found by walking
    the sorted group and making each unassigned element the representative
    of its coset.

    sub is B1, whose members h have mu = 0 and phi = id, so the group law
    of cocycle_forge.gauge, in log coordinates, gives
    h . g = (g.mu, p^{g.mu[src s]} h[s] + g.x[s], g.phi).
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


def listing_verify_ses(c):
    """verify_ses by listing Z1, B1 and Aut0 and partitioning them into
    B1-cosets (`_cosets`): each clause compares the coset maps."""
    z1, b1 = z1_listing(c), b1_listing(c)
    h1_of, h1_reps = _cosets(c, z1, b1)
    if not all(g in h1_of for g in b1):
        raise AssertionError("coboundaries failed to stabilize the cocycle")
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


def pack(g):
    """A finite-field gauge in log coordinates (see cocycle_forge._logs)."""
    from cocycle_forge._logs import power
    logs = field_logs(g.domain)
    return (tuple(power(g.mu[e]) for e in g.sg.idempotents),
            tuple(logs.of(g.eta[s]) for s in g.sg.elements), g.phi)


def span_mod(vectors, size, n):
    """The subgroup of (Z/n)^size the vectors (dicts position -> int)
    generate, as a set of tuples, closed under adding each vector until
    nothing new appears."""
    group = {(0,) * size}
    for v in vectors:
        step = tuple(v.get(j, 0) % n for j in range(size))
        new = group
        while new:
            new = {tuple((a + b) % n for a, b in zip(x, step)) for x in new} - group
            group |= new
    return group


def kernel_by_scan(rows, size, n):
    """Every x in (Z/n)^size with sum_j row[j] x_j = 0 mod n on every row,
    by testing all n^size of them."""
    return {x for x in itertools.product(range(n), repeat=size)
            if all(sum(c * x[j] for j, c in row.items()) % n == 0 for row in rows)}


def solve_rows(rows, size, n, rank, by_rank):
    """Yield every x in (Z/n)^size meeting each integer row mod n, in the
    lexicographic order of their ranks, by depth-first search.

    A row is (dict position -> coefficient, right-hand side). `eliminate`
    brings the rows to echelon form over Z with at most one row per
    position, filed under its last position with a nonzero coefficient,
    and a row that loses every coefficient with a right-hand side that is
    nonzero mod n leaves no solution. Positions are assigned in order; a
    position with a row is solved for there once the earlier positions are
    assigned: c y = r mod n has no solution unless d = gcd(c, n) divides r,
    and then d of them. A position without a row ranges over all of
    0..n-1. The values are tried in the order of by_rank (rank[v] being the
    place of v in it). A "no" shows only when the walk reaches the row
    that fails, possibly after every prefix of the positions before it.
    """
    plan, zeros = eliminate(rows, size, lambda r2, r1, m: r2 + m * r1)
    if any(r % n for r in zeros):
        return
    if not size:
        yield ()
        return
    plan = [row and (math.gcd(row[0][i], n), row[0][i] % n,
                     tuple((j, c) for j, c in row[0].items() if j != i), row[1])
            for i, row in enumerate(plan)]
    x = [0] * size

    def options(i):
        if plan[i] is None:
            return by_rank
        d, lead, rest, rhs = plan[i]
        r = (rhs - sum(c * x[j] for j, c in rest)) % n
        if r % d:
            return []
        step = n // d
        first = (r // d) * pow(lead // d, -1, step) % step
        return [first] if d == 1 else sorted(range(first, n, step), key=rank.__getitem__)

    last = size - 1
    stack = [iter(options(0))]
    while stack:
        i = len(stack) - 1
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        x[i] = v
        if i == last:
            yield tuple(x)
        else:
            stack.append(iter(options(i + 1)))


# ---------------------------------------------------------------------------
# primes and irreducible polynomials by trial division


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def monic_polys(degree, p):
    """All monic polynomials of exactly the given degree over Z_p, as
    coefficient tuples, lowest degree first."""
    for tail in itertools.product(range(p), repeat=degree):
        yield tail + (1,)


def trial_division_is_irreducible(m, p):
    """No monic divisor of degree 1 .. deg(m) / 2."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    return all(_poly_divmod(m, g, p)[1]
               for d in range(1, deg // 2 + 1) for g in monic_polys(d, p))


def integer_order_modulus(p, k):
    """The least monic irreducible of degree k over Z_p, scanning every
    coefficient tuple in the integer order sum(c_i * p^i)."""
    for value in itertools.count(p ** k):
        m = tuple(value // p ** i % p for i in range(k + 1))
        if trial_division_is_irreducible(m, p):
            return m


# ---------------------------------------------------------------------------
# multiplicative systems over Q*: prod_v v^{c_v} = const, a list of
# (dict var -> int exponent, nonzero Fraction constant)


class RootUndecided(Exception):
    """The root-taking solver met a failed root that a free variable could
    change."""


def root_solve_multiplicative(equations, variables):
    """The root-taking solver that log coordinates replaced, kept as the
    witness reference: back-substitute the row echelon of `eliminate`,
    taking exact rational roots at the pivots (+ before -) with every
    variable that has no row set to 1. Returns dict var -> Fraction or
    None, and raises RootUndecided where a root fails at a pivot that
    depends on a variable set to 1."""
    size = len(variables)
    pos = {v: size - 1 - i for i, v in enumerate(variables)}
    rows = [({pos[v]: c for v, c in coeffs.items()}, const) for coeffs, const in equations]
    plan, zeros = eliminate(rows, size, lambda r2, r1, m: r2 * r1 ** m)
    if any(r != 1 for r in zeros):
        return None
    loose = []
    for i, row in enumerate(plan):
        loose.append(row is None or any(loose[j] for j in row[0] if j != i))
    pivots = [i for i, row in enumerate(plan) if row is not None]
    values = [Fraction(1)] * size
    unsure = False

    def back(at):
        nonlocal unsure
        if at == len(pivots):
            return all(product_of_powers(coeffs, values) == const for coeffs, const in rows)
        i = pivots[at]
        coeffs, value = plan[i]
        for j, c in coeffs.items():
            if j != i:
                value *= values[j] ** (-c)
        roots = rational_roots(value, coeffs[i])
        unsure = unsure or (not roots and loose[i])
        for root in roots:
            values[i] = root
            if back(at + 1):
                return True
        values[i] = Fraction(1)
        return False

    if back(0):
        return {v: values[pos[v]] for v in variables}
    if unsure:
        raise RootUndecided
    return None


def product_of_powers(coeffs, values):
    acc = Fraction(1)
    for j, c in coeffs.items():
        acc *= values[j] ** c
    return acc


def rational_roots(val, k):
    """Every rational x with x^k = val (val a nonzero Fraction), + first."""
    if k < 0:
        val, k = 1 / val, -k
    if k == 1:
        return [val]
    if val < 0 and k % 2 == 0:
        return []
    num = _int_nth_root(abs(val.numerator), k)
    den = _int_nth_root(val.denominator, k)
    if num is None or den is None:
        return []
    root = Fraction(num, den)
    if k % 2 == 1:
        return [-root if val < 0 else root]
    return [root, -root]


def prime_factors(n):
    """The primes dividing the positive integer n, by trial division."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return primes + [n] if n > 1 else primes


def fraction_echelon(m):
    """Gaussian elimination of an integer matrix over Fractions: the
    rank, and for a square matrix the determinant."""
    m = [[Fraction(x) for x in row] for row in m]
    rank, det = 0, Fraction(1)
    for j in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][j]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][j]
        for r in range(rank + 1, len(m)):
            if m[r][j]:
                f = m[r][j] / m[rank][j]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank, det


def determinantal(m, rank=None):
    """(rank, gcd of the rank x rank minors) of an integer matrix; only the
    rank where it differs from the one given."""
    r = fraction_echelon(m)[0]
    if not r or (rank is not None and r != rank):
        return r, 1
    return r, math.gcd(*[int(fraction_echelon([[m[i][j] for j in cols] for i in rows])[1])
                         for rows in itertools.combinations(range(len(m)), r)
                         for cols in itertools.combinations(range(len(m[0])), r)])


def rational_verdict(equations, variables):
    """Whether the system has a rational solution: signs by brute force
    over {+1, -1}^n, and the exponent rows over Z at every prime of the
    constants."""
    a = [[coeffs.get(v, 0) for v in variables] for coeffs, _ in equations]
    consts = [const for _, const in equations]
    if not any(all(sum(c * s for c, s in zip(row, signs)) % 2 == (const < 0)
                   for row, const in zip(a, consts))
               for signs in itertools.product((0, 1), repeat=len(variables))):
        return False
    primes = set()
    for const in consts:
        primes.update(prime_factors(abs(const.numerator)), prime_factors(const.denominator))

    def valuation(x, p):
        return 0 if x % p else 1 + valuation(x // p, p)

    return all(integer_solvable(a, [valuation(abs(c.numerator), p) - valuation(c.denominator, p)
                                    for c in consts])
               for p in primes)


def integer_solvable(a, b):
    """Whether a y = b has an integer solution, for an integer matrix a of
    at least one row: exactly when [a | b] has the rank of a and the same
    gcd of its rank x rank minors (determinantal divisors; Newman,
    *Integral Matrices*, 1972, II.15)."""
    divisors = determinantal(a)
    return determinantal([row + [r] for row, r in zip(a, b)], divisors[0]) == divisors


# ---------------------------------------------------------------------------
# rational quaternions as 4 Fractions (a, b, c, d) for a + bi + cj + dk


def quat_fractions(s):
    """The Hamilton coefficients of a quaternion Scalar, as Fractions."""
    *xs, n = s.payload
    return tuple(Fraction(x, n) for x in xs)


def hamilton_product(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def hamilton_inverse(q):
    """conj(q) / |q|^2."""
    a, b, c, d = q
    n = a * a + b * b + c * c + d * d
    return (a / n, -b / n, -c / n, -d / n)


def conjugate(d, x):
    """d x d^{-1}, by two products and an inverse."""
    return hamilton_product(hamilton_product(d, x), hamilton_inverse(d))


def inner_data(d):
    """The canonical unit of conjugation by d: d divided by its first
    nonzero coefficient, or None for central d (the identity)."""
    if not any(d[1:]):
        return None
    lead = next(f for f in d if f)
    return tuple(f / lead for f in d)


def quat_sort_key(q):
    return tuple((f.numerator, f.denominator) for f in q)


def quat_json(q):
    return [f"{f.numerator}/{f.denominator}" for f in q]
