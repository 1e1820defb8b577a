"""One integer elimination for the eta relations, and the exact solver over
the nonzero rationals that runs on it.

The relations eta(s) . a(eta(t)) . eta(st)^{-1} = u are integer rows: log
rows mod q - 1 over GF(q) (see `_logs.solve`) and exponent rows
prod_v v^{c_v} = const over Q*. `eliminate` triangularizes both with the
same Euclid row steps (the Hermite-style echelon of Cohen, *A Course in
Computational Algebraic Number Theory*, GTM 138, 2.4), leaving at most one
row per position.

`solve_multiplicative` back-substitutes that echelon over Q* by exact
rational roots, branching over sign choices when an even root appears, and
sets every variable without a row to 1. It returns one solution dict or
None. The None is definitive: where a root fails at a pivot that depends,
directly or through earlier pivots, on a variable set to 1, another value
of that variable could have given a root, so the solver raises
Undecided instead of answering.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Undecided


def eliminate(rows, size, combine, n=0):
    """Triangularize integer rows by Euclid steps.

    rows: iterable of (dict position -> int coefficient, right-hand side),
    positions in range(size). A row is filed under its last position.
    From the last position down, while a position holds two rows, the rows
    are sorted (stably) by the absolute value of their coefficient there,
    and the second loses m times the first, m the floored quotient of the
    two coefficients; combine(r2, r1, -m) gives its new right-hand side.
    A row whose coefficient there drops to 0 is filed again under its new
    last position. With n > 0 every coefficient is reduced mod n, so the
    rows live in Z/n. The steps are invertible over Z, so the rows left
    have the same solutions.

    Returns (plan, zeros): plan[i] is the one row left at position i, as
    (coefficients, right-hand side), or None; zeros lists the right-hand
    sides of the rows that lost every coefficient.
    """
    plan = [[] for _ in range(size)]
    zeros = []

    def file(coef, rhs):
        if n:
            coef = {j: c % n for j, c in coef.items() if c % n}
        else:
            coef = {j: c for j, c in coef.items() if c}
        if coef:
            plan[max(coef)].append((coef, rhs))
        else:
            zeros.append(rhs)

    for coef, rhs in rows:
        file(coef, rhs)
    for i in reversed(range(size)):
        held = plan[i]
        while len(held) > 1:
            held.sort(key=lambda row: abs(row[0][i]))
            (c1, r1), (c2, r2) = held[0], held.pop(1)
            m = c2[i] // c1[i]
            coef = dict(c2)
            for j, c in c1.items():
                coef[j] = coef.get(j, 0) - m * c
            file(coef, combine(r2, r1, -m))
    return [held[0] if held else None for held in plan], zeros


def _int_nth_root(x, k):
    """Exact integer k-th root of x >= 0, or None."""
    if x < 0:
        return None
    if x in (0, 1) or k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)  # upper-ish Newton seed
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand ** k == x:
            return cand
    return None


def _rat_nth_roots(val, k):
    """All rational solutions x of x^k = val (val a nonzero Fraction)."""
    if k < 0:
        val, k = 1 / val, -k
    if k == 1:
        return [val]
    neg = val < 0
    if neg and k % 2 == 0:
        return []
    num = _int_nth_root(abs(val.numerator), k)
    den = _int_nth_root(val.denominator, k)
    if num is None or den is None:
        return []
    root = Fraction(num, den)
    if k % 2 == 1:
        return [-root if neg else root]
    return [root, -root]


def solve_multiplicative(equations, variables):
    """Solve the system; variables without a pivot come back as 1.

    equations: iterable of (dict var -> int exponent, Fraction constant).
    The first variable takes the last position, so it is eliminated first.
    Returns dict var -> Fraction, or None when no rational solution exists;
    raises Undecided where the 1s chosen for the free variables left no
    root at a pivot depending on them (module docstring).
    """
    size = len(variables)
    pos = {v: size - 1 - i for i, v in enumerate(variables)}
    rows = [({pos[v]: c for v, c in coeffs.items()}, const) for coeffs, const in equations]
    plan, zeros = eliminate(rows, size, lambda r2, r1, m: r2 * r1 ** m)
    if any(r != 1 for r in zeros):
        return None
    # loose[i]: position i is free, or its pivot depends on a free one
    loose = []
    for i, row in enumerate(plan):
        loose.append(row is None or any(loose[j] for j in row[0] if j != i))
    pivots = [i for i, row in enumerate(plan) if row is not None]
    values = [Fraction(1)] * size
    unsure = False

    def back(at):
        nonlocal unsure
        if at == len(pivots):
            return all(_holds(row, values) for row in rows)
        i = pivots[at]
        coeffs, value = plan[i]
        for j, c in coeffs.items():
            if j != i:
                value *= values[j] ** (-c)
        roots = _rat_nth_roots(value, coeffs[i])
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
        raise Undecided("the rational elimination left no root at a pivot that "
                        "depends on a free variable, so its \"no\" is not definitive")
    return None


def _holds(row, values):
    coeffs, const = row
    acc = Fraction(1)
    for j, c in coeffs.items():
        acc *= values[j] ** c
    return acc == const
