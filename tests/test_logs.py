"""The log tables of a finite field, the sort key of gauges and the eta
systems in log coordinates."""

import random

import pytest

from cocycle_forge._logs import eta_rows, field_logs, power
from cocycle_forge._multsolve import members
from cocycle_forge.gauge import Gauge, from_logs
from cocycle_forge.scalars import ScalarDomain, enumerate_autos, enumerate_units

from conftest import make_diamond, make_sphere, make_triangle, random_relabeling_gauge
from oracles import pack, solve_eta, system

# every GF(q) with q <= 81 that the tests build
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3), (2, 4),
          (3, 4)]


@pytest.mark.parametrize("p,k", FIELDS)
def test_log_tables(p, k):
    dom = ScalarDomain.finite_field(p, k)
    logs = field_logs(dom)
    units = enumerate_units(dom)
    n = len(units)
    assert logs.n == n and logs is field_logs(dom)
    # g is primitive, and the least unit in sort order that is
    assert len(set(logs.exp)) == n and logs.exp[0] == dom.one() and logs.exp[1 % n] is logs.g
    assert all(len({u ** e for e in range(n)}) < n for u in units[:units.index(logs.g)])
    # exp and log are inverse, and exp hands out the interned elements
    assert all(logs.of(logs.exp[x]) == x for x in range(n))
    assert all(logs.exp[logs.of(u)] is u for u in units)
    # rank numbers the units in sort order
    assert [logs.exp[x] for x in logs.by_rank] == units
    assert sorted(range(n), key=lambda x: logs.exp[x].sort_key()) == logs.by_rank
    assert all(logs.by_rank[logs.rank[x]] == x for x in range(n))
    # Frobenius acts on logs by multiplication with p^i
    for i, a in enumerate(dom._frobenius):
        assert all(logs.exp[logs.frob[i] * x % n] is a(logs.exp[x]) for x in range(n))


def test_log_tables_past_the_bound_are_refused_before_any_is_built(monkeypatch):
    from cocycle_forge import _logs
    from cocycle_forge.errors import NotEnumerable

    built = []
    monkeypatch.setattr(_logs.FieldLogs, "__init__",
                        lambda self, domain: built.append(domain) or 1 / 0)
    # GF(65537) and GF(2^20) have at most 2^20 units: admitted
    for p, k in ((65537, 1), (2, 20)):
        dom = ScalarDomain.finite_field(p, k)
        monkeypatch.setattr(dom, "_logs", None)
        with pytest.raises(ZeroDivisionError):
            field_logs(dom)
    big = ScalarDomain.finite_field(2 ** 31 - 1)
    with pytest.raises(NotEnumerable, match=r"GF\(2147483647\)"):
        field_logs(big)
    assert len(built) == 2 and big._logs is None


def test_building_a_field_builds_no_tables():
    dom = ScalarDomain.finite_field(2, 16)
    assert dom._logs is None and len(dom._elements) <= 8


@pytest.mark.parametrize("make", [make_diamond, make_sphere], ids=["diamond", "sphere"])
@pytest.mark.parametrize("p,k", [(2, 2), (5, 1), (2, 3), (3, 2)])
def test_packed_group_law_and_key(make, p, k):
    sg, dom = make(), ScalarDomain.finite_field(p, k)
    logs = field_logs(dom)
    rng = random.Random(f"{p}{k}{len(sg.elements)}")
    gauges = [random_relabeling_gauge(sg, dom, rng) for _ in range(40)]
    assert any(not g.phi.is_identity() for g in gauges)
    for g1, g2 in zip(gauges, gauges[1:]):
        assert from_logs(sg, dom, pack(g1)) == g1
        assert ((logs.key(pack(g1)) < logs.key(pack(g2)))
                == (g1.sort_key() < g2.sort_key()))
    assert (sorted(gauges, key=lambda g: logs.key(pack(g)))
            == sorted(gauges, key=Gauge.sort_key))


@pytest.mark.parametrize("p,k", [(2, 2), (7, 1), (2, 3), (3, 2)])
def test_solve_matches_the_object_search(p, k):
    # seeded rows on random element triples: consistent ones take u from a
    # random eta, the others a random u. Repeated elements in a triple give
    # combined coefficients 1 + p^i and p^i - 1; over GF(7) and GF(9) some
    # are non-units mod q - 1, which the elimination has to combine rather
    # than solve for.
    sg, dom = make_triangle(), ScalarDomain.finite_field(p, k)
    logs = field_logs(dom)
    units, autos = enumerate_units(dom), enumerate_autos(dom)
    rng = random.Random(f"solve{p}{k}")
    found = 0
    for trial in range(40):
        eta = {s: rng.choice(units) for s in sg.elements}
        constraints = []
        for _ in range(rng.randint(4, 8)):
            s, t, st = (rng.choice(sg.elements) for _ in range(3))
            a = rng.choice(autos)
            u = eta[s] * a(eta[t]) * eta[st].inv() if trial % 2 else rng.choice(units)
            constraints.append((s, t, st, a, u))
        lattice, x0 = system(sg, logs, constraints)
        walk = [] if x0 is None else members(x0, lattice.kernel, logs.n, logs.classes)
        fast = [tuple(logs.exp[v] for v in x) for x in walk]
        slow = [tuple(e[s] for s in sg.elements)
                for e in solve_eta(sg, units, constraints)]
        assert fast == slow
        found += bool(fast)
    assert 20 <= found < 40


@pytest.mark.parametrize("make", [make_diamond, make_triangle, make_sphere],
                         ids=["diamond", "tri", "sphere"])
@pytest.mark.parametrize("p,k", [(2, 2), (5, 1), (2, 3), (3, 2)])
def test_eta_rows_read_the_relation(make, p, k):
    # on the logs of a random eta, each row is the log of
    # eta(s) a_s(eta(t)) eta(st)^{-1} on its composable pair, for random
    # twists a_s, and the matrix is the one the object-form oracle builds
    sg, dom = make(), ScalarDomain.finite_field(p, k)
    logs = field_logs(dom)
    units, autos = enumerate_units(dom), enumerate_autos(dom)
    rng = random.Random(f"rows{p}{k}{len(sg.elements)}")
    pairs = sg.composable().pairs
    for _ in range(5):
        alpha = {s: rng.choice(autos) for s in sg.elements}
        rows = eta_rows(sg, [logs.frob[power(alpha[s])] for s in sg.elements])
        eta = {s: rng.choice(units) for s in sg.elements}
        x = [logs.of(eta[s]) for s in sg.elements]
        assert len(rows) == len(pairs)
        for row, (s, t, st) in zip(rows, pairs):
            u = eta[s] * alpha[s](eta[t]) * eta[st].inv()
            assert sum(a * x[j] for j, a in row) % logs.n == logs.of(u)
        constraints = [(s, t, st, alpha[s], dom.one()) for s, t, st in pairs]
        assert system(sg, logs, constraints)[0].matrix == rows
