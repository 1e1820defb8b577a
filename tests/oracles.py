"""Brute-force reference implementations the fast paths are checked against.

`brute_force_aut0` tests every candidate gauge (mu, eta, phi) with eta = 1
on the idempotents; `all_pairs_verify_ring_hom` multiplies full ring
elements on every basis pair. Both are slow and deliberately direct.
"""

import itertools

from cocycle_forge.gauge import Gauge
from cocycle_forge.ring import HomVerdict, _scalar_samples
from cocycle_forge.scalars import enumerate_autos, enumerate_units


def _aut0_chunk(c, phi, mu_choice):
    """Keep the gauges over one (phi, mu) choice whose map multiplies.

    The check is multiplicativity of sigma(d.s) = mu_e(d) eta(s) phi(s) on
    every composable basis pair with both scalars ranging over the probe
    sample. Pairs hitting theta vanish on both sides because phi preserves
    products, and sigma(1) = 1 holds since the cocycle is normal and
    eta = 1 on idempotents. Over a field the scalar factors commute, so
    the pair condition is  L = R . eta(s) alpha'(eta(t)) eta(s.t)^{-1}
    with L, R precomputed per scalar pair.
    """
    sg = c.sg
    units = enumerate_units(c.domain)
    one = c.domain.one()
    mu = dict(zip(sg.idempotents, mu_choice))
    arrows = sg.arrows()
    samples = _scalar_samples(c.domain, 0)

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


def all_pairs_verify_ring_hom(iso, seed=0):
    """Multiplicativity over all basis pairs through full RingElement
    products, d ranging over the scalar sample on both factors; gamma(1) = 1
    is checked as well."""
    src = iso.source
    failures = []
    if iso.apply(src.one()) != iso.target.one():
        failures.append((("one",), iso.apply(src.one()), iso.target.one()))
    samples = _scalar_samples(src.domain, seed)
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
