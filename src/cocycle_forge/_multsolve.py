"""One integer elimination for the linear relations, the enumerator of
their solutions mod n, their solution lattices, and the exact solver over
the nonzero rationals.

The relations eta(s) . a(eta(t)) . eta(st)^{-1} = u are integer rows: log
rows mod q - 1 over GF(q) (see `_logs.solve`) and exponent rows
prod_v v^{c_v} = const over Q*. `eliminate` triangularizes rows by Euclid
steps (the Hermite-style echelon of Cohen, *A Course in Computational
Algebraic Number Theory*, GTM 138, 2.4), leaving at most one row per
position, and `solve_rows` enumerates the solutions of rows mod n on that
echelon.

The lattices serve `cohomology.h1` and `cohomology.out_r`, which count
and split solution sets instead of listing them. `triangular` gives a
triangular basis of span(vectors) + n Z^size, each pivot dividing n, from
`eliminate` over Z; `order` is the size of that lattice mod n, and
`least` the member of a coset x + lattice that comes first in rank order.
`kernel_mod` gives generators of the solutions of homogeneous rows mod n
from the integer kernel of [A | n I], by the column elimination that
`_integer_solver` runs.

`solve_multiplicative` solves over Q* in log coordinates. Q* is {+1, -1}
times the free abelian group on the primes. Over a coprime base of the
constants (naive gcd refinement, after Bernstein, "Factoring into coprimes
in essentially linear time", J. Algorithms 54, 2005), each element reduced
to its least root so that the exponents of its primes have gcd 1, a
solution is x_v = +-prod_b b^{y_vb}, exponents at other primes being 0.
The system then splits into rows mod 2 for the signs, solved by
`solve_rows`, and one integer system A y = f_b per base element b, with f_b
the exponents of b in the constants. `eliminate` run on the columns of A
brings them to a column echelon with the same lattice, and membership of
f_b in that lattice is decided exactly by peeling it off from the last row
down; one column echelon serves every base element. So None is a
definitive "no".

The witness is canonical: each system is solved first with every variable
that has no row in the row echelon of A pinned (sign +, exponents 0), and
without the pins only where that fails. Wherever the back-substitution of
the row echelon with those variables set to 1 and the signs tried + first
finds a solution, this is the solution it finds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd


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


def solve_rows(rows, size, n, rank, by_rank):
    """Yield every x in (Z/n)^size meeting each integer row mod n.

    A row is (dict position -> coefficient, right-hand side in 0..n-1).
    `_multsolve.eliminate` brings the rows to echelon form mod n with at
    most one row per position, filed under its last position with a
    nonzero coefficient, and a row that loses every coefficient with a
    nonzero right-hand side leaves no solution. Positions are assigned in
    order; a position with a row is solved for there once the earlier
    positions are assigned: c y = r mod n has no solution unless gcd(c, n)
    divides r, and then gcd(c, n) of them. A position without a row ranges
    over all of 0..n-1. The values are tried in the order of by_rank
    (rank[v] being the place of v in it), so the solutions come out in the
    lexicographic order of their ranks.
    """
    plan, zeros = eliminate(rows, size, lambda r2, r1, m: (r2 + m * r1) % n, n)
    if any(zeros):
        return
    if not size:
        yield ()
        return
    plan = [row and (gcd(row[0][i], n), row[0][i],
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


def triangular(vectors, size, n):
    """A triangular basis of the lattice span(vectors) + n Z^size.

    vectors: iterable of dicts position -> int. Basis vector j is a dict
    that is zero before position j; its entry at j, the pivot h_j, divides
    n, and its other entries lie in 1..n-1. It is `eliminate` over Z on the
    vectors and the n e_j with the positions reversed, since `eliminate`
    files a row under its last position: the row left at position j
    carries, up to sign, the gcd of the entries at j of the lattice vectors
    that vanish before j, and n e_j is one of them.
    """
    last = size - 1
    rows = [({last - j: c for j, c in v.items()}, None) for v in vectors]
    rows += [({last - j: n}, None) for j in range(size)]
    plan, _ = eliminate(rows, size, lambda *_: None)
    basis = []
    for j in range(size):
        row = plan[last - j][0]
        sign = 1 if row[last - j] > 0 else -1
        vec = {last - i: sign * c % n for i, c in row.items() if sign * c % n}
        vec[j] = sign * row[last - j]
        basis.append(vec)
    return basis


def order(basis, n):
    """The order of the lattice of a triangular basis modulo n Z^size."""
    out = 1
    for j, vec in enumerate(basis):
        out *= n // vec[j]
    return out


def least(x, basis, n, rank):
    """The member of x + lattice (mod n) that comes first in the order of
    the ranks of its entries, lexicographically.

    Greedy from the first position: at position j the lattice vectors that
    vanish before j are the combinations of basis vectors j, j+1, ... (n e_i
    lies in the lattice), so the entry there ranges over the residue class
    of x[j] mod h_j; the value of least rank in it is taken by subtracting a
    multiple of basis vector j, which leaves the earlier positions alone.
    """
    x = list(x)
    for j, vec in enumerate(basis):
        h = vec[j]
        if h == n:
            continue
        v = min(range(x[j] % h, n, h), key=rank.__getitem__)
        t = (x[j] - v) // h
        if t:
            for i, c in vec.items():
                x[i] = (x[i] - t * c) % n
    return tuple(x)


def kernel_mod(rows, size, n):
    """Generators of the x in Z^size with sum_j row[j] x_j = 0 mod n for
    every row (dicts position -> int): the integer kernel of [A | n I],
    from the column elimination of `_integer_solver`, cut to its first
    size entries."""
    wide = [{**row, size + i: n} for i, row in enumerate(rows)]
    _, zeros = _column_echelon(wide, size + len(rows))
    return [{j: c for j, c in k.items() if j < size} for k in zeros]


def _int_nth_root(x, k):
    """Exact integer k-th root of x >= 0, or None."""
    if x < 2:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)  # upper-ish Newton seed
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    # Newton from above stops at the floor of the root
    return r if r ** k == x else None


def _least_root(b):
    """The least r of which the integer b > 1 is a power."""
    roots = (_int_nth_root(b, k) for k in range(b.bit_length(), 1, -1))
    return next((r for r in roots if r is not None), b)


def _coprime_base(numbers):
    """Pairwise coprime integers > 1, none a perfect power, over which every
    one of the positive integers in numbers factors: a number sharing a
    factor g > 1 with a base element is split into g and the two
    cofactors until none does, and each element is then replaced by its
    least root."""
    todo = [x for x in set(numbers) if x > 1]
    base = []
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                todo.extend(y for y in (g, x // g, b // g) if y > 1)
                break
        else:
            base.append(x)
    return sorted({_least_root(b) for b in base})


def _valuation(x, b):
    """The exponent of b > 1 in the positive integer x."""
    e = 0
    while x % b == 0:
        x, e = x // b, e + 1
    return e


def _add(u, v, m):
    """The integer vector u + m v, vectors as dicts."""
    w = dict(u)
    for j, c in v.items():
        w[j] = w.get(j, 0) + m * c
    return w


def _column_echelon(rows, size, pins=()):
    """`eliminate` on the columns of integer rows (dicts position -> int),
    the pinned positions left out, each column carrying its unit vector as
    the right-hand side: (plan, kernel), plan the column echelon over the
    rows and kernel a basis of the integer kernel, as dicts."""
    cols = (({i: row[j] for i, row in enumerate(rows) if j in row}, {j: 1})
            for j in range(size) if j not in pins)
    return eliminate(cols, len(rows), _add)


def _integer_solver(rows, size, pins=()):
    """A function taking b to an integer y in Z^size, zero at the pins,
    with sum_j rows[i][j] y_j = b[i] for every row i, or to None where
    there is none.

    `eliminate` runs on the columns, each carrying its unit vector as the
    right-hand side, so every column left is an integer combination of the
    given ones, and they span the same lattice. A column is filed under its
    last row with a nonzero entry, so peeling b off from the last row down
    decides membership in that lattice exactly: the column filed under the
    last nonzero row of b must divide it there. The columns that cancel
    leave a basis of the integer kernel; brought to echelon form by
    `eliminate` too, it reduces y from the last position down to the one
    solution whose entry at each kernel pivot c lies between 0 and c, which
    keeps the exponents small.
    """
    plan, kernel = _column_echelon(rows, size, pins)
    kernel = eliminate(((k, None) for k in kernel), size, lambda *_: None)[0]

    def solve(b):
        b, y = list(b), {}
        for i in reversed(range(len(b))):
            if b[i]:
                if plan[i] is None:
                    return None
                col, comb = plan[i]
                q, r = divmod(b[i], col[i])
                if r:
                    return None
                for k, c in col.items():
                    b[k] -= q * c
                y = _add(y, comb, q)
        for i in reversed(range(size)):
            if kernel[i]:
                k = kernel[i][0]
                y = _add(y, k, -(y.get(i, 0) // k[i]))
        return y

    return solve


def solve_multiplicative(equations, variables):
    """One rational solution of the system, or None when there is none.

    equations: a list of (dict var -> int exponent, nonzero Fraction
    constant). The first variable takes the last position, so it is
    eliminated first. Returns dict var -> Fraction (module docstring).
    """
    size = len(variables)
    pos = {v: size - 1 - i for i, v in enumerate(variables)}
    rows = [{pos[v]: c for v, c in coeffs.items()} for coeffs, _ in equations]
    consts = [const for _, const in equations]
    plan, _ = eliminate(((row, None) for row in rows), size, lambda *_: None)
    signs = [(row, int(c < 0)) for row, c in zip(rows, consts)]
    free = {j for j, row in enumerate(plan) if row is None}
    sign = next(chain(solve_rows(signs + [({j: 1}, 0) for j in free], size, 2, (0, 1), (0, 1)),
                      solve_rows(signs, size, 2, (0, 1), (0, 1))), None)
    if sign is None:
        return None
    pinned = _integer_solver(rows, size, free)
    loose = cache(lambda: _integer_solver(rows, size))
    num, den = [1] * size, [1] * size
    for b in _coprime_base([abs(c.numerator) for c in consts] + [c.denominator for c in consts]):
        f = [_valuation(abs(c.numerator), b) - _valuation(c.denominator, b) for c in consts]
        # f is nonzero, so a solution y is a nonempty dict
        y = pinned(f) or loose()(f)
        if y is None:
            return None
        for j, e in y.items():
            num[j] *= b ** max(e, 0)
            den[j] *= b ** max(-e, 0)
    return {v: Fraction(-num[i] if sign[i] else num[i], den[i]) for v, i in pos.items()}
