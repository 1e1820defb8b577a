"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Every tolerance here is exact equality; the only
non-exact budget is the wall-clock bound in criterion 1.
"""

import itertools
import json
import random
import time

import pytest
from click.testing import CliRunner

from cocycle_forge.cli import main as cli_main
from cocycle_forge.cochain import TwoCochain, is_cocycle, is_normal, normalize
from cocycle_forge.cohomology import aut0_enumerate, h1, out_r, verify_ses
from cocycle_forge.gauge import Gauge, act_gauge, act_phi, cohomologous
from cocycle_forge.instances import diamond_demo_instance, instance_to_json, save_instance
from cocycle_forge.ring import RingIso, TwistedRing, find_ring_iso, verify_ring_hom
from cocycle_forge.scalars import (
    RingAuto, ScalarDomain, enumerate_autos, enumerate_units, random_scalar, rho,
)
from cocycle_forge.semigroup import SquareFreeSemigroup

from conftest import make_demo_cocycle, make_diamond, random_gauge

GF4 = ScalarDomain.finite_field(2, 2)
GF9 = ScalarDomain.finite_field(3, 2)
GF2 = ScalarDomain.finite_field(2, 1)
QUAT = ScalarDomain.quaternion()


def report(n, text):
    print(f"\n[criterion {n}] PASS: {text}")


def test_criterion_1_demo_instance_counts():
    sg = make_diamond()
    c = make_demo_cocycle(GF4, sg)
    start = time.perf_counter()
    aut_s = sg.enumerate_autos()
    rep = verify_ses(c)
    elapsed = time.perf_counter() - start
    assert len(aut_s) == 2
    assert rep.orders["stab"] == 2
    assert rep.orders["h1"] == 2 == len(enumerate_autos(GF4))
    assert rep.orders["z1"] == 162
    assert rep.orders["b1"] == 81
    assert rep.orders["out_r"] == 4
    assert rep.ok, [cl for cl in rep.clauses if cl.ok is False]
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s single-threaded"
    report(1, f"|Aut S|=2 |Z1|=162 |B1|=81 |H1|=2 |Out R|=4 |Stab|=2, "
              f"exact sequence verified in {elapsed:.2f}s")


def test_criterion_2_closure_500_gauges_and_both_phis():
    sg = make_diamond()
    c = make_demo_cocycle(GF4, sg)
    rng = random.Random(2)
    violations = 0
    for _ in range(500):
        out = act_gauge(random_gauge(sg, GF4, rng), c)
        violations += len(is_cocycle(out).violations)
    phis = sg.enumerate_autos()
    assert len(phis) == 2
    for phi in phis:
        violations += len(is_cocycle(act_phi(phi, c)).violations)
    assert violations == 0
    report(2, "500 gauge actions and both relabelings stay cocycles, "
              "0 violations")


def test_criterion_3_action_axioms_100_samples():
    sg = make_diamond()
    c = make_demo_cocycle(GF4, sg)
    rng = random.Random(3)
    phis = sg.enumerate_autos()
    failures = 0
    for _ in range(100):
        g1 = random_gauge(sg, GF4, rng)
        g2 = random_gauge(sg, GF4, rng)
        if act_gauge(g1.compose(g2), c) != act_gauge(g1, act_gauge(g2, c)):
            failures += 1
    for _ in range(100):
        phi, psi = rng.choice(phis), rng.choice(phis)
        ci = act_gauge(random_gauge(sg, GF4, rng), c)
        if act_phi(phi.compose(psi), ci) != act_phi(psi, act_phi(phi, ci)):
            failures += 1
    for _ in range(100):
        g = random_gauge(sg, GF4, rng)
        phi = rng.choice(phis)
        p = Gauge(sg, GF4, phi=phi)  # g^phi = P . g . P^-1
        if act_gauge(p.compose(g).compose(p.inverse()), act_phi(phi, c)) != \
                act_phi(phi, act_gauge(g, c)):
            failures += 1
    assert failures == 0
    report(3, "left-action law, relabeling law, and compatibility law hold "
              "on 100 samples each")


def test_criterion_4_iso_round_trip_and_definitive_none(tmp_path):
    sg = make_diamond()
    c = make_demo_cocycle(GF4, sg)
    rng = random.Random(4)
    phis = sg.enumerate_autos()
    for i in range(100):
        g = random_gauge(sg, GF4, rng)
        phi = rng.choice(phis)
        twisted = act_gauge(g, act_phi(phi, c))
        iso = find_ring_iso(c, twisted)
        assert iso is not None, f"round {i}: no witness found"
        verdict = verify_ring_hom(iso)
        assert verdict.ok, f"round {i}: {verdict.failures[:2]}"
    # once through the actual command surface
    runner = CliRunner()
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(a_path, diamond_demo_instance())
    data = instance_to_json(diamond_demo_instance())
    data["cocycle"] = {"alpha": [{"on": "s24", "auto": {"frobenius": 1}}]}
    b_path.write_text(json.dumps(data))
    result = runner.invoke(cli_main, ["--output", "json", "iso-check",
                                      str(a_path), str(b_path)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["isomorphic"] is True and payload["hom_check"]["ok"]
    # definitive none, not unknown
    trivial = TwoCochain.trivial(sg, GF4)
    assert find_ring_iso(trivial, c) is None
    report(4, "100 twisted copies re-identified with verified isomorphisms; "
              "trivial vs demo is a definitive no")


def test_criterion_5_associativity_and_twist_identity():
    sg = make_diamond()
    for dom in (GF4, GF9):
        c = make_demo_cocycle(dom, sg)
        ring = TwistedRing(c)
        g = dom.generator()
        basis = [ring.basis(s) for s in sg.elements]
        scaled = [ring.basis(s, g) for s in sg.elements]
        for a in basis + scaled:
            for b in basis:
                for d in basis + scaled:
                    assert (a * b) * d == a * (b * d)
        for s, t in sg.tuples(2):
            st = sg.compose(s, t)
            assert c.alpha_at(s).compose(c.alpha_at(t)) == \
                rho(c.xi_at(s, t)).compose(c.alpha_at(st))
    # quaternions: a seeded twist whose alpha is built from conjugations
    rng = random.Random(5)
    gq = random_gauge(sg, QUAT, rng)
    cq = act_gauge(gq, TwoCochain.trivial(sg, QUAT))
    assert any(cq.alpha_at(s).form == "inner" for s in sg.elements)
    ringq = TwistedRing(cq)
    for s, t in sg.tuples(2):
        st = sg.compose(s, t)
        assert cq.alpha_at(s).compose(cq.alpha_at(t)) == \
            rho(cq.xi_at(s, t)).compose(cq.alpha_at(st))

    def dense(r):
        return r.element({s: random_scalar(QUAT, r2, nonzero=True)
                          for s in sg.elements})

    r2 = rng
    for _ in range(500):
        a, b, d = dense(ringq), dense(ringq), dense(ringq)
        assert (a * b) * d == a * (b * d)
    report(5, "exhaustive basis associativity over GF(4), GF(9); 500 dense "
              "quaternion triples; twist identity exact on composable pairs")


def test_criterion_6_normalization_100_seeded():
    sg = make_diamond()
    rng = random.Random(6)
    checked = 0
    for dom in (GF4, GF9):
        base = make_demo_cocycle(dom, sg)
        units = [u for u in enumerate_units(dom) if not u.is_one()]
        while checked < (50 if dom is GF4 else 100):
            g = random_gauge(sg, dom, rng)
            # force at least one non-1 diagonal eta so the result is not normal
            eta = dict(g.eta)
            eta["e1"] = rng.choice(units)
            g = Gauge(sg, dom, g.mu, eta)
            c = act_gauge(g, base)
            assert not is_normal(c)
            normalized, gauge = normalize(c)
            assert is_normal(normalized)
            assert act_gauge(gauge, c) == normalized
            one = dom.one()
            for s in sg.elements:
                e, f = sg.src[s], sg.tgt[s]
                assert normalized.xi_at(e, s) == one
                assert normalized.xi_at(s, f) == one
            checked += 1
    assert checked == 100
    report(6, "100 seeded non-normal twists normalized; gauge reproduces the "
              "output; boundary values of xi all 1")


def test_criterion_7_split_case_trivial_class():
    sg = make_diamond()
    c = TwoCochain.trivial(sg, GF4)
    rep = verify_ses(c)
    assert rep.ok
    split = {cl.name: cl for cl in rep.clauses}["split_section"]
    assert split.ok is True
    assert rep.orders["stab"] == len(sg.enumerate_autos()) == 2
    assert rep.orders["out_r"] == rep.orders["h1"] * rep.orders["stab"]
    # the section phi -> (identity mu, unit eta, phi), checked directly
    ring = TwistedRing(c)
    for phi in sg.enumerate_autos():
        section = Gauge(sg, GF4, phi=phi)
        assert verify_ring_hom(RingIso(ring, ring, section))
        assert section.phi == phi  # Phi o Psi = identity on Aut S
    report(7, f"split case verified: |Out R| = {rep.orders['out_r']} = "
              f"{rep.orders['h1']} x {rep.orders['stab']}, section lands in Aut0")


def test_criterion_8_aut_trivial_gf2_everything_inner():
    sg = SquareFreeSemigroup.validate(["e1", "e2"], [("a", "e1", "e2")], {})
    assert len(sg.enumerate_autos()) == 1
    c = TwoCochain.trivial(sg, GF2)
    rep = out_r(c)
    assert rep.out_order == 1
    assert rep.aut0_order == 1 and rep.inn0_order == 1
    ses = verify_ses(c)
    assert ses.ok and ses.orders["h1"] == 1 and ses.orders["stab"] == 1
    report(8, "GF(2) chain instance: H1 and Stab trivial, so every ring "
              "automorphism is inner (|Out R| = 1)")
