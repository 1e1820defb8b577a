"""Brute-force reference implementations the fast paths are checked against.

`brute_force_aut0` tests every candidate gauge (mu, eta, phi) with eta = 1
on the idempotents; `brute_force_b1` builds the gauge of every map
E -> D* and then drops repeats; `all_pairs_verify_ring_hom` multiplies full
ring elements on every basis pair. All are slow and deliberately direct.
"""

import itertools
import random

from cocycle_forge.cohomology import star_act
from cocycle_forge.gauge import Gauge
from cocycle_forge.ring import HomVerdict
from cocycle_forge.scalars import enumerate_autos, enumerate_units, random_scalar


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
