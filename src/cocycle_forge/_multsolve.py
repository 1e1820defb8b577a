"""One integer elimination for the linear relations, their solutions mod n
on lattices, and the exact solver over the nonzero rationals.

The relations eta(s) . a(eta(t)) . eta(st)^{-1} = u are integer rows: log
rows mod q - 1 over GF(q) (see `_logs.py`), exponent rows
prod_v v^{c_v} = const over Q*, and the mu rows mod k of `gauge.py`.
`eliminate` triangularizes rows by Euclid steps (the Hermite-style echelon
of Cohen, *A Course in Computational Algebraic Number Theory*, GTM 138,
2.4), leaving at most one row per position.

Rows mod n are solved on lattices. `triangular` gives a triangular basis
of span(vectors) + n Z^size, each pivot dividing n, from `eliminate` over
Z; `order` is the size of that lattice mod n. For a coefficient matrix A,
`graph` takes the triangular basis of the graph lattice
{(A x, x)} + n Z^(rows + size), row positions first, once per matrix:
its last size vectors are the kernel L, and reducing (b, 0) through its
first pivots decides A x = b mod n exactly and yields one solution x (see
`Graph.solve`), so the solutions are x + L. `least` is the member of a
coset x + L that comes first in rank order, and `members` walks the coset
in that order; every pivot divides n, so the walk meets no dead end. An
order on Z/n is given by its residue classes (`ranked`), and the natural
order of 0..n-1 is built once per modulus (`natural`).

`solve_multiplicative` solves over Q* in log coordinates. Q* is {+1, -1}
times the free abelian group on the primes. The constants come as reduced
integer pairs (numerator, denominator). Over a coprime base of their
numerators and denominators (naive gcd refinement, after Bernstein,
"Factoring into coprimes in essentially linear time", J. Algorithms 54,
2005), each element reduced to its least root so that the exponents of its
primes have gcd 1, a solution is x_v = +-prod_b b^{y_vb}, exponents at
other primes being 0. The system then splits into rows mod 2 for the
signs, solved on their graph lattice, and one integer system A y = f_b per
base element b, with f_b the exponents of b in the constants.

`eliminate` runs once on the rows of A, each carrying its combination of
the equations as its right-hand side. Its row echelon names the free
variables, those with no row. With them pinned to 0 the pivot columns have
full rank, so the pinned solution is unique: back-substitution with exact
division finds it, once the rows that lost every coefficient are checked
to carry 0 (a zero row that carries f_b != 0 refuses every solution). Only
where a pivot does not divide is the system solved without the pins:
`eliminate` on the columns of A brings them to a column echelon with the
same lattice, and membership of f_b in that lattice is decided exactly by
peeling it off from the last row down; one column echelon, built on first
need, serves every base element. So None is a definitive "no".

The witness is canonical: each system is solved first with every free
variable pinned (sign +, exponents 0), and without the pins only where
that fails; the signs are the least solution of their rows, + before -.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import gcd


def eliminate(rows, size, combine):
    """Triangularize integer rows by Euclid steps.

    rows: iterable of (dict position -> int coefficient, right-hand side),
    positions in range(size). A row is filed under its last position.
    From the last position down, while a position holds two rows, the rows
    are sorted (stably) by the absolute value of their coefficient there,
    and the second loses m times the first, m the floored quotient of the
    two coefficients; combine(r2, r1, -m) gives its new right-hand side.
    A row whose coefficient there drops to 0 is filed again under its new
    last position. The steps are invertible over Z, so the rows left have
    the same solutions.

    Returns (plan, zeros): plan[i] is the one row left at position i, as
    (coefficients, right-hand side), or None; zeros lists the right-hand
    sides of the rows that lost every coefficient.
    """
    plan = [[] for _ in range(size)]
    zeros = []

    def file(coef, rhs):
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


def ranked(by_rank):
    """The order on Z/n that lists its values as by_rank does (n being
    len(by_rank)), as a function h -> its residue classes mod h for each h
    dividing n: the values sorted stably by residue, so that the class of r
    is the slice [r n/h, (r + 1) n/h), in rank order. Built once per h."""
    return cache(lambda h: sorted(by_rank, key=h.__rmod__))


@cache
def natural(n):
    """The order of ranked(range(n)), the natural order of 0..n-1, one
    per modulus."""
    return ranked(range(n))


def least(x, basis, n, classes):
    """The member of x + lattice (mod n) that comes first in the order of
    the ranks of its entries, lexicographically, for an order `classes`
    (see ranked): the first member the walk of `members` meets, found
    without it by taking at each position the first value of its residue
    class."""
    x = list(x)
    for j, vec in enumerate(basis):
        h = vec[j]
        t = 0 if h == n else (x[j] - classes(h)[x[j] % h * (n // h)]) // h
        if t:
            for i, c in vec.items():
                x[i] = (x[i] - t * c) % n
    return tuple(x)


def members(x, basis, n, classes):
    """Yield every member of x + lattice (mod n) once, in the order of the
    ranks of its entries, lexicographically.

    At position j the lattice vectors that vanish before j are the
    combinations of basis vectors j, j+1, ... (n e_i lies in the lattice),
    so the members that agree with x before j are x plus those
    combinations: the entry at j runs over the residue class of x[j] mod
    h_j in rank order, each value reached by subtracting a multiple of
    basis vector j, which leaves the earlier positions alone. Every value
    extends to members, so the walk has no dead end; a position with
    h_j = n has one value and is not a step of it.
    """
    x = list(x)
    steps = [(j, vec[j], tuple(vec.items()), classes(vec[j]))
             for j, vec in enumerate(basis) if vec[j] < n]
    if not steps:
        yield tuple(x)
        return

    def options(k):
        j, h, _, cls = steps[k]
        r = x[j] % h * (n // h)
        return iter(cls[r:r + n // h])

    last = len(steps) - 1
    stack = [options(0)]
    while stack:
        k = len(stack) - 1
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        j, h, vec, _ = steps[k]
        t = (x[j] - v) // h
        if t:
            for i, c in vec:
                x[i] = (x[i] - t * c) % n
        if k == last:
            yield tuple(x)
        else:
            stack.append(options(k + 1))


class Graph:
    """The solutions mod n of A x = b for one coefficient matrix A and any
    right-hand side b; get it through `graph`.

    matrix holds the rows of A, each a tuple of (position, coefficient)
    pairs, positions in range(size); the coefficients of a position that a
    row names twice add up. The basis is the triangular basis of the graph
    lattice G = {(A x, x)} + n Z^(rows + size), from `triangular` on the
    vectors (A e_j, e_j), row positions first. Its first `rows` vectors are
    the pivots; the vectors of G that vanish on the row positions are the
    (0, y) with A y = 0 mod n, and they are the combinations of the last
    size vectors, which give the triangular basis of the kernel L.
    """

    __slots__ = ("matrix", "n", "pivots", "kernel")

    def __init__(self, matrix, size, n):
        rows = len(matrix)
        columns = [{rows + j: 1} for j in range(size)]
        for i, row in enumerate(matrix):
            for j, c in row:
                columns[j][i] = columns[j].get(i, 0) + c
        basis = triangular(columns, rows + size, n)
        self.matrix, self.n = matrix, n
        self.pivots = basis[:rows]
        self.kernel = [{j - rows: c for j, c in vec.items()} for vec in basis[rows:]]

    def solve(self, b):
        """One x with A x = b mod n, or None when there is none.

        A x = b has a solution exactly when (b, x) lies in G for some x.
        (b, 0) is reduced through the pivots in turn: the vectors of G that
        vanish before row position i hold a multiple of the pivot h_i at i,
        so a residue there that h_i does not divide refuses every x, and
        otherwise a multiple of pivot vector i clears it. What is left is
        (0, w) with (b, -w) in G, so x = -w.
        """
        n, rows = self.n, len(self.pivots)
        v = [c % n for c in b] + [0] * len(self.kernel)
        for i, vec in enumerate(self.pivots):
            t, r = divmod(v[i], vec[i])
            if r:
                return None
            if t:
                for j, c in vec.items():
                    v[j] = (v[j] - t * c) % n
        return tuple([-c % n for c in v[rows:]])

    def solutions(self, b, classes):
        """Every x with A x = b mod n, in rank order (see members)."""
        x = self.solve(b)
        return iter(()) if x is None else members(x, self.kernel, self.n, classes)


@lru_cache(maxsize=256)
def graph(matrix, size, n):
    """The Graph of a coefficient matrix mod n, one per matrix: the
    callers that meet a matrix again (each mu of one call, each phi whose
    rows equal another's, the routes `verify_ses` compares) share its
    elimination."""
    return Graph(matrix, size, n)


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


def _integer_solver(rows, size):
    """A function taking b to an integer y in Z^size with
    sum_j rows[i][j] y_j = b[i] for every row i, or to None where there is
    none.

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
    cols = (({i: row[j] for i, row in enumerate(rows) if j in row}, {j: 1})
            for j in range(size))
    plan, kernel = eliminate(cols, len(rows), _add)
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


def _pinned(plan, b):
    """The integer y with A y = b that is zero at every free position of
    the row echelon plan of A (rows carrying their combinations of the
    equations, see solve_multiplicative), or None where there is none,
    for a b on which every row that lost all its coefficients carries 0.

    Pinned so, the pivot columns have full rank and the solution is
    unique: back-substitution from the first position up, each pivot
    dividing exactly, finds it, and a pivot that does not divide refuses
    every integer y."""
    y = {}
    for i, row in enumerate(plan):
        if row is not None:
            coef, comb = row
            r = sum(c * b[k] for k, c in comb.items())
            r -= sum(c * y.get(j, 0) for j, c in coef.items() if j != i)
            q, m = divmod(r, coef[i])
            if m:
                return None
            if q:
                y[i] = q
    return y


def solve_multiplicative(equations, variables):
    """One rational solution of the system, or None when there is none.

    equations: a list of (dict var -> int exponent, nonzero constant as a
    reduced pair (numerator, denominator > 0)). The first variable takes
    the last position, so it is eliminated first. Returns dict var ->
    reduced pair (module docstring).
    """
    size = len(variables)
    pos = {v: size - 1 - i for i, v in enumerate(variables)}
    rows = [{pos[v]: c for v, c in coeffs.items()} for coeffs, _ in equations]
    consts = [const for _, const in equations]
    plan, zeros = eliminate(((row, {i: 1}) for i, row in enumerate(rows)), size, _add)
    signs = tuple(tuple(row.items()) for row in rows)
    negative = [int(n < 0) for n, _ in consts]
    free = [j for j, row in enumerate(plan) if row is None]

    def first_sign(matrix, b):
        return next(graph(matrix, size, 2).solutions(b, natural(2)), None)

    sign = first_sign(signs + tuple(((j, 1),) for j in free), negative + [0] * len(free))
    if sign is None:
        sign = first_sign(signs, negative)
    if sign is None:
        return None
    loose = cache(lambda: _integer_solver(rows, size))
    num, den = [1] * size, [1] * size
    for b in _coprime_base([abs(n) for n, _ in consts] + [d for _, d in consts]):
        f = [_valuation(abs(n), b) - _valuation(d, b) for n, d in consts]
        if any(sum(c * f[k] for k, c in comb.items()) for comb in zeros):
            return None
        # f is nonzero, so a solution y is a nonempty dict
        y = _pinned(plan, f) or loose()(f)
        if y is None:
            return None
        for j, e in y.items():
            num[j] *= b ** max(e, 0)
            den[j] *= b ** max(-e, 0)
    return {v: (-num[i] if sign[i] else num[i], den[i]) for v, i in pos.items()}
