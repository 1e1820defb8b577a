"""The exact multiplicative solver used for rational-domain gauge searches,
and the lattices mod n that count H1 and Out R and solve rows mod n."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from cocycle_forge._multsolve import (
    _coprime_base, _int_nth_root, _reduced, graph, least, members, order, ranked, solve_multiplicative,
    triangular,
)

from oracles import (
    RootUndecided, fraction_echelon, integer_solvable, kernel_by_scan, rational_verdict,
    root_solve_multiplicative, solve_rows, span_mod,
)

F = Fraction


def check(equations, variables):
    """solve_multiplicative on Fraction constants, its solution as
    Fractions, each checked against every equation."""
    pairs = [(coeffs, (const.numerator, const.denominator)) for coeffs, const in equations]
    sol = solve_multiplicative(pairs, variables)
    if sol is None:
        return None
    assert all(d > 0 and math.gcd(n, d) == 1 for n, d in sol.values())
    sol = {v: F(*pair) for v, pair in sol.items()}
    for coeffs, const in equations:
        acc = F(1)
        for v, c in coeffs.items():
            acc *= sol[v] ** c
        assert acc == const
    return sol


def test_int_nth_root():
    assert _int_nth_root(27, 3) == 3
    assert _int_nth_root(28, 3) is None
    assert _int_nth_root(1, 7) == 1
    assert _int_nth_root(2 ** 40, 8) == 32
    assert _int_nth_root(10 ** 30, 10) == 1000


def test_coprime_base():
    # least roots: 4 = 2^2 and 8 = 2^3 share the base element 2, and 36
    # splits into 2 and 3 only once 4 has refined it
    assert _coprime_base([4, 8, 36, 1]) == [2, 3]
    assert _coprime_base([12, 18, 35]) == [2, 3, 35]
    assert _coprime_base([6, 10]) == [2, 3, 5]
    assert _coprime_base([36, 1]) == [6]
    assert _coprime_base([1, 1]) == []


def test_simple_chain():
    sol = check([({"x": 1}, F(3)), ({"x": 1, "y": 1}, F(6))], ["x", "y"])
    assert sol == {"x": F(3), "y": F(2)}


def test_free_variable_defaults_to_one():
    sol = check([({"x": 1}, F(5))], ["x", "z"])
    assert sol["z"] == F(1)
    # the sign of -2 goes on the pivot x, whose square allows it, and not
    # on the free y, although y = -1 with x = 2 would come first in order
    eqs = [({"x": 2}, F(4)), ({"x": 1, "y": 1, "z": 2}, F(-2))]
    assert check(eqs, ["z", "y", "x"]) == {"x": F(-2), "y": F(1), "z": F(1)}


def test_inconsistent():
    assert check([({"x": 1}, F(2)), ({"x": 1}, F(3))], ["x"]) is None


def test_cancelling_unknowns():
    # x appears with net exponent zero: only the constant matters
    assert check([({"x": 0}, F(1))], ["x"]) is not None
    assert check([({}, F(2))], ["x"]) is None
    # no variables at all
    assert check([], []) == {}
    assert check([({}, F(1))], []) == {}
    assert check([({}, F(-1))], []) is None
    assert check([({}, F(2))], []) is None


def test_square_pivot_with_root():
    # eliminating x from x*y = 6 and x/y = 2/3 leaves y^2 = 9
    sol = check([({"x": 1, "y": 1}, F(6)), ({"x": 1, "y": -1}, F(2, 3))],
                ["x", "y"])
    assert sol is not None
    assert sol["x"] * sol["y"] == 6
    # x^2 = 4 needs the least root: over the base {4} it has no exponent
    assert check([({"x": 2}, F(4))], ["x"]) == {"x": F(2)}
    assert check([({"x": 2, "y": 2, "z": -2}, F(4))], ["x", "y", "z"]) is not None


def test_square_pivot_without_rational_root():
    assert check([({"x": 1, "y": 1}, F(2)), ({"x": 1, "y": -1}, F(1))],
                 ["x", "y"]) is None
    # the sign rows alone refuse x^2 = -1, the exponent rows x^2 = 8
    assert check([({"x": 2}, F(-1))], ["x"]) is None
    assert check([({"x": 2}, F(8))], ["x"]) is None


def test_negative_root_branch_needed():
    # y^2 = 4 with a side constraint forcing the negative branch
    eqs = [({"y": 2}, F(4)), ({"y": 1}, F(-2))]
    sol = check(eqs, ["y"])
    assert sol == {"y": F(-2)}


def test_diamond_consistency():
    # two factorizations of the same product pin a combination of frees
    eqs = [({"a": 1, "b": 1, "m": -1}, F(2)),
           ({"c": 1, "d": 1, "m": -1}, F(3))]
    sol = check(eqs, ["a", "b", "c", "d", "m"])
    assert sol is not None


def test_square_pivot_on_a_free_variable_is_never_a_no():
    # a^2 b = 2 has the solution a = 1, b = 2; eliminating a first leaves
    # the pivot a^2 = 2 / b with b free, where b = 1 gives no rational root,
    # so the pinned solve fails and the unpinned one finds it
    eqs = [({"a": 2, "b": 1}, F(2))]
    assert check(eqs, ["a", "b"]) == {"a": F(1), "b": F(2)}
    assert check(eqs, ["b", "a"]) == {"a": F(1), "b": F(2)}
    # the same through an earlier pivot: b c = 1 ties b to the free c, and
    # c = 1/2, b = 2, a = 1 solves a^2 b = 2
    eqs.append(({"b": 1, "c": 1}, F(1)))
    assert check(eqs, ["a", "b", "c"]) == {"a": F(1), "b": F(2), "c": F(1, 2)}


def random_system(rng):
    """1-6 variables and 1-5 equations with exponents in -2..3, whose
    constants come from a random solution, half of them then perturbed."""
    variables = [f"v{i}" for i in range(rng.randint(1, 6))]
    x = {v: F(rng.choice((1, -1)) * rng.choice((1, 2, 3, 4, 6, 9)), rng.choice((1, 2, 3, 4)))
         for v in variables}
    equations = []
    for _ in range(rng.randint(1, 5)):
        coeffs = {v: rng.randint(-2, 3)
                  for v in rng.sample(variables, rng.randint(1, len(variables)))}
        const = F(1)
        for v, c in coeffs.items():
            const *= x[v] ** c
        if rng.random() < 0.5:
            const *= rng.choice((-1, 2, F(1, 3), 4, -8, 6, F(9, 4)))
        equations.append((coeffs, const))
    return equations, variables


def test_random_systems_match_the_oracles():
    # the verdict of the determinantal-divisor oracle, a witness that
    # checks, and the root-taking solver's witness wherever it decides
    rng = random.Random(20261019)
    seen = {"yes": 0, "no": 0, "root-undecided": 0}
    for _ in range(1500):
        equations, variables = random_system(rng)
        sol = check(equations, variables)
        assert (sol is not None) == rational_verdict(equations, variables), equations
        try:
            assert root_solve_multiplicative(equations, variables) == sol, equations
        except RootUndecided:
            seen["root-undecided"] += 1
        seen["yes" if sol is not None else "no"] += 1
    assert min(seen.values()) > 100, seen


def test_square_pivot_without_free_variables_is_a_definitive_no():
    # a^2 = 2 pins a with nothing free: no rational a exists
    assert check([({"a": 2}, F(2))], ["a", "b"]) is None


# -- lattices mod n ----------------------------------------------------------

MODULI = [1, 2, 3, 4, 6, 8, 9, 12]      # n = q - 1; n = 1 is GF(2)


def random_vectors(rng, size, count, spread):
    return [{j: rng.randint(-spread, spread) for j in range(size) if rng.random() < 0.6}
            for _ in range(count)]


@pytest.mark.parametrize("n", MODULI)
def test_triangular_order_and_least_match_the_span(n):
    rng = random.Random(f"lattice-{n}")
    for _ in range(60):
        size = rng.randint(0, 4)
        vectors = random_vectors(rng, size, rng.randint(0, 3), 3 * n)
        basis = triangular(vectors, size, n)
        group = span_mod(vectors, size, n)
        assert order(basis, n) == len(group)
        for j, vec in enumerate(basis):
            assert min(vec) == j and n % vec[j] == 0
            assert all(0 < c < n for i, c in vec.items() if i != j)
        # the basis spans the same subgroup
        assert span_mod(basis, size, n) == group
        rank = list(range(n))
        rng.shuffle(rank)
        x = tuple(rng.randrange(n) for _ in range(size))
        coset = [tuple((a + b) % n for a, b in zip(x, h)) for h in group]
        assert least(x, basis, n, ranked(sorted(range(n), key=rank.__getitem__))) == min(
            coset, key=lambda y: [rank[v] for v in y])


def matrix_of(rows):
    """The coefficient matrix of rows (dicts position -> int) for graph."""
    return tuple(tuple(row.items()) for row in rows)


@pytest.mark.parametrize("n", MODULI)
def test_kernel_mod_matches_a_scan(n):
    # the kernel of the graph lattice, its last size basis vectors
    rng = random.Random(f"kernel-{n}")
    for _ in range(60):
        size = rng.randint(0, 4)
        rows = random_vectors(rng, size, rng.randint(0, 3), 2 * n + 1)
        gens = graph(matrix_of(rows), size, n).kernel
        assert all(max(k, default=-1) < size for k in gens)
        assert span_mod(gens, size, n) == kernel_by_scan(rows, size, n)


SWEEP_MODULI = MODULI + [24, 26, 80]


def random_rows(rng, n):
    """Up to 9 rows over up to 7 positions, with coefficients in -2n..2n;
    the right-hand sides come from a random x on half of the systems and
    are random on the others."""
    size = rng.randint(0, 7)
    rows = [{j: rng.randint(-2 * n, 2 * n) for j in range(size) if rng.random() < 0.4}
            for _ in range(rng.randint(0, 9))]
    x = [rng.randrange(n) for _ in range(size)]
    if rng.random() < 0.5:
        b = [sum(c * x[j] for j, c in row.items()) % n for row in rows]
    else:
        b = [rng.randrange(n) for _ in rows]
    return rows, b, size


def test_solutions_match_a_scan_and_the_depth_first_search():
    # existence, the first solution under a shuffled rank, and the members
    # in rank order where there are at most 2 10^4 of them: against every
    # vector where n^size <= 2 10^4, and against the depth-first search
    # over the row echelon on every solvable system, but on a refused one
    # only where n^size <= 2 10^4, since that search meets the failing row
    # only after every prefix of the positions before it
    rng = random.Random(20261020)
    seen = {"scanned": 0, "searched": 0, "solvable": 0, "refused": 0, "listed": 0}
    for _ in range(2000):
        n = rng.choice(SWEEP_MODULI)
        rows, b, size = random_rows(rng, n)
        rank = list(range(n))
        rng.shuffle(rank)
        by_rank = sorted(range(n), key=rank.__getitem__)
        lattice = graph(matrix_of(rows), size, n)
        x = lattice.solve(b)
        listed = None
        if x is not None:
            seen["solvable"] += 1
            assert all(sum(c * x[j] for j, c in row.items()) % n == r
                       for row, r in zip(rows, b))
            first = least(x, lattice.kernel, n, ranked(by_rank))
            if order(lattice.kernel, n) <= 2 * 10 ** 4:
                seen["listed"] += 1
                listed = list(members(x, lattice.kernel, n, ranked(by_rank)))
                assert len(listed) == order(lattice.kernel, n) == len(set(listed))
                assert listed[0] == first
        else:
            seen["refused"] += 1
        if n ** size <= 2 * 10 ** 4:
            seen["scanned"] += 1
            scan = sorted((y for y in itertools.product(range(n), repeat=size)
                           if all(sum(c * y[j] for j, c in row.items()) % n == r
                                  for row, r in zip(rows, b))),
                          key=lambda y: [rank[v] for v in y])
            assert (x is not None) == bool(scan)
            assert x is None or listed == scan
        if x is not None or n ** size <= 2 * 10 ** 4:
            seen["searched"] += 1
            dfs = solve_rows(list(zip(rows, b)), size, n, rank, by_rank)
            if x is None:
                assert next(dfs, None) is None
            elif listed is None:
                assert next(dfs) == first
            else:
                assert list(itertools.islice(dfs, len(listed) + 1)) == listed
    assert min(seen.values()) > 400, seen


def test_integer_graph_matches_the_determinantal_oracle():
    # over Z (n = 0): solve refuses exactly where the determinantal
    # divisors say no integer solution exists, and its solution checks
    # exactly; the kernel vectors span the integer kernel, and the solution
    # reduced at their pivots is 0 on every pivot exactly where the other
    # columns alone solve the system
    rng = random.Random(20261021)
    seen = {"refused": 0, "pinned": 0, "unpinned": 0}
    for _ in range(600):
        size = rng.randint(0, 5)
        rows = random_vectors(rng, size, rng.randint(1, 4), 4)
        a = [[row.get(j, 0) for j in range(size)] for row in rows]
        x = [rng.randint(-3, 3) for _ in range(size)]
        b = [sum(c * v for c, v in zip(row, x)) + rng.choice((0, 0, 0, 1, -2)) for row in a]
        lattice = graph(matrix_of(rows), size, 0)
        y = lattice.solve(b)
        assert (y is not None) == integer_solvable(a, b), (a, b)
        if y is None:
            seen["refused"] += 1
            continue
        assert [sum(c * v for c, v in zip(row, y)) for row in a] == b
        pivots = [j for j, vec in enumerate(lattice.kernel) if vec]
        assert len(pivots) == size - fraction_echelon(a)[0]
        for j in pivots:
            vec = lattice.kernel[j]
            assert min(vec) == j and vec[j] > 0
            assert all(sum(c * vec.get(i, 0) for i, c in enumerate(row)) == 0 for row in a)
        z = _reduced(lattice, b)
        assert [sum(c * v for c, v in zip(row, z)) for row in a] == b
        assert all(0 <= z[j] < lattice.kernel[j][j] for j in pivots)
        others = [j for j in range(size) if j not in pivots]
        pinned = integer_solvable([[row[j] for j in others] for row in a], b)
        assert (not any(z[j] for j in pivots)) == pinned, (a, b)
        seen["pinned" if pinned else "unpinned"] += 1
    assert min(seen.values()) > 40, seen


def test_a_dead_end_is_refused_at_once():
    # -2 x5 = 57 has no solution mod 80 (57 is odd): the depth-first search
    # meets that row only after the free positions 0-4, up to 80^5
    # prefixes; the reduction refuses at the row pivot 2, which does not
    # divide 57
    rows = (((5, -2),), ((3, -1),))
    start = time.perf_counter()
    lattice = graph(rows, 7, 80)
    assert lattice.solve([57, 23]) is None
    assert time.perf_counter() - start < 1
    assert lattice.solve([56, 23]) is not None
