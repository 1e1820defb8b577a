"""The exact multiplicative solver used for rational-domain gauge searches."""

from fractions import Fraction

import pytest

from cocycle_forge._multsolve import _int_nth_root, _rat_nth_roots, solve_multiplicative
from cocycle_forge.errors import Undecided

F = Fraction


def check(equations, variables):
    sol = solve_multiplicative(equations, variables)
    if sol is None:
        return None
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


def test_rat_nth_roots():
    assert _rat_nth_roots(F(4, 9), 2) == [F(2, 3), F(-2, 3)]
    assert _rat_nth_roots(F(-8, 27), 3) == [F(-2, 3)]
    assert _rat_nth_roots(F(-4), 2) == []
    assert _rat_nth_roots(F(5), 2) == []
    assert _rat_nth_roots(F(1, 2), -1) == [F(2)]


def test_simple_chain():
    sol = check([({"x": 1}, F(3)), ({"x": 1, "y": 1}, F(6))], ["x", "y"])
    assert sol == {"x": F(3), "y": F(2)}


def test_free_variable_defaults_to_one():
    sol = check([({"x": 1}, F(5))], ["x", "z"])
    assert sol["z"] == F(1)


def test_inconsistent():
    assert check([({"x": 1}, F(2)), ({"x": 1}, F(3))], ["x"]) is None


def test_cancelling_unknowns():
    # x appears with net exponent zero: only the constant matters
    assert check([({"x": 0}, F(1))], ["x"]) is not None
    assert check([({}, F(2))], ["x"]) is None


def test_square_pivot_with_root():
    # eliminating x from x*y = 6 and x/y = 2/3 leaves y^2 = 9
    sol = check([({"x": 1, "y": 1}, F(6)), ({"x": 1, "y": -1}, F(2, 3))],
                ["x", "y"])
    assert sol is not None
    assert sol["x"] * sol["y"] == 6


def test_square_pivot_without_rational_root():
    assert check([({"x": 1, "y": 1}, F(2)), ({"x": 1, "y": -1}, F(1))],
                 ["x", "y"]) is None


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
    # the pivot a^2 = 2 / b with b free, and b = 1 gives no rational root
    eqs = [({"a": 2, "b": 1}, F(2))]
    with pytest.raises(Undecided):
        check(eqs, ["a", "b"])
    assert check(eqs, ["b", "a"]) == {"a": F(1), "b": F(2)}
    # the same through an earlier pivot: b c = 1 ties b to the free c, and
    # c = 1/2, b = 2, a = 1 solves a^2 b = 2
    eqs.append(({"b": 1, "c": 1}, F(1)))
    with pytest.raises(Undecided):
        check(eqs, ["a", "b", "c"])


def test_square_pivot_without_free_variables_is_a_definitive_no():
    # a^2 = 2 pins a with nothing free: no rational a exists
    assert check([({"a": 2}, F(2))], ["a", "b"]) is None
