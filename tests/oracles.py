"""Brute-force reference implementations the fast paths are checked against.

`brute_force_aut0` tests every candidate gauge (mu, eta, phi) with eta = 1
on the idempotents; `brute_force_b1` builds the gauge of every map E -> D*
by `star_act` and then drops repeats; `all_pairs_verify_ring_hom`
multiplies full ring elements on every basis pair. The object-level
listing layer that log coordinates replaced is kept here too: `solve_eta`
backtracks Scalars over every unit, `gauge_solutions` loops mu over all of
Aut(D)^E, and `cosets` partitions gauges through `Gauge.compose`;
`product_aut0_logs` lists Aut0 in log coordinates with every mu of
Aut(D)^E asked of the probes. Trial division decides primes and
irreducible polynomials, and `integer_order_modulus` scans every monic
polynomial for the least irreducible. All are slow and deliberately
direct.
"""

import itertools
import random

from cocycle_forge._logs import field_logs, solve
from cocycle_forge.cohomology import _aut0_constraints
from cocycle_forge.gauge import Gauge, _gauge_constraints
from cocycle_forge.ring import HomVerdict, _probes
from cocycle_forge.scalars import (
    RingAuto, _poly_divmod, enumerate_autos, enumerate_units, random_scalar, rho,
)


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
        for eta in solve_eta(sg, units, _gauge_constraints(c1, c2, mu)):
            yield Gauge(sg, domain, mu, eta)


def object_z1(c):
    return sorted(gauge_solutions(c, c), key=Gauge.sort_key)


def object_aut0(c):
    """Aut0 by propagation over the probes, with eta backtracked as Scalars."""
    sg, domain = c.sg, c.domain
    units = enumerate_units(domain)
    probes = _probes(domain)
    fixed = {e: domain.one() for e in sg.idempotents}
    out = []
    for phi in sg.enumerate_autos():
        for mu_choice in itertools.product(enumerate_autos(domain), repeat=len(sg.idempotents)):
            mu = dict(zip(sg.idempotents, mu_choice))
            constraints = _aut0_constraints(c, phi, mu, probes)
            if constraints is not None:
                out.extend(Gauge(sg, domain, mu, eta, phi)
                           for eta in solve_eta(sg, units, constraints, fixed))
    return sorted(out, key=Gauge.sort_key)


def product_aut0_logs(c):
    """Aut0 in log coordinates, sorted, with the probe constraints of every
    (phi, mu) in Aut S x Aut(D)^E and no mu pruned before them."""
    sg, domain = c.sg, c.domain
    logs = field_logs(domain)
    probes = _probes(domain)
    fixed = {e: 0 for e in sg.idempotents}
    out = []
    for phi in sg.enumerate_autos():
        for mu in itertools.product(range(domain.k), repeat=len(sg.idempotents)):
            autos = {e: RingAuto.frobenius(domain, i) for e, i in zip(sg.idempotents, mu)}
            constraints = _aut0_constraints(c, phi, autos, probes)
            if constraints is not None:
                out.extend((mu, x, phi) for x in solve(sg, logs, constraints, fixed))
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


def pack(g):
    """A finite-field gauge in log coordinates (see cocycle_forge._logs)."""
    from cocycle_forge._logs import power
    logs = field_logs(g.domain)
    return (tuple(power(g.mu[e]) for e in g.sg.idempotents),
            tuple(logs.of(g.eta[s]) for s in g.sg.elements), g.phi)


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
