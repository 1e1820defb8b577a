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

The exponent rows are solved on the graph lattice over Z, `graph` with
n = 0: one per matrix, shared by every base element and by every call
that meets the matrix again. A position there may have no pivot, and a
row position without one refuses a nonzero residue, so None is a
definitive "no". The kernel pivots over Z are the free variables: the
positions whose column lies in the span of the later columns.

The witness is canonical: the signs are the least solution of their rows,
+ before -, with every free variable pinned to + where that solves them.
For each base element, a solution reduced into [0, h_j) at each kernel
pivot j (`_reduced`) is the one solution that is 0 on every free
variable, whenever one exists; otherwise it is reduced so on the lattice
of the mirrored matrix (position j becoming size - 1 - j), built only
then, which keeps the exponents small.
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

    n = 0 means the lattice span(vectors) over Z: there is no n e_j, the
    entries are not reduced, and basis vector j is None where no lattice
    vector has its first nonzero entry at j.
    """
    last = size - 1
    rows = [({last - j: c for j, c in v.items()}, None) for v in vectors]
    if n:
        rows += [({last - j: n}, None) for j in range(size)]
    plan, _ = eliminate(rows, size, lambda *_: None)
    if not n:
        return [row and {last - i: c if row[0][last - j] > 0 else -c for i, c in row[0].items()}
                for j, row in enumerate(reversed(plan))]
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
    size vectors, which give the triangular basis of the kernel L. With
    n = 0 the lattice is G = {(A x, x)} over Z, and a pivot or kernel
    vector is None where the basis has none (see triangular).
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
        self.kernel = [vec and {j - rows: c for j, c in vec.items()} for vec in basis[rows:]]

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
        if not n:
            return self._solve_over_z(b)
        v = [c % n for c in b] + [0] * len(self.kernel)
        for i, vec in enumerate(self.pivots):
            t, r = divmod(v[i], vec[i])
            if r:
                return None
            if t:
                for j, c in vec.items():
                    v[j] = (v[j] - t * c) % n
        return tuple([-c % n for c in v[rows:]])

    def _solve_over_z(self, b):
        """Graph.solve over Z, as a list: a row position with no pivot
        refuses a nonzero residue, since no vector of G that vanishes
        before it is nonzero there."""
        rows = len(self.pivots)
        v = list(b) + [0] * len(self.kernel)
        for i, vec in enumerate(self.pivots):
            if vec is None:
                if v[i]:
                    return None
                continue
            t, r = divmod(v[i], vec[i])
            if r:
                return None
            if t:
                for j, c in vec.items():
                    v[j] -= t * c
        return [-c for c in v[rows:]]

    def solutions(self, b, classes):
        """Every x with A x = b mod n, in rank order (see members)."""
        x = self.solve(b)
        return iter(()) if x is None else members(x, self.kernel, self.n, classes)


@lru_cache(maxsize=256)
def graph(matrix, size, n):
    """The Graph of a coefficient matrix mod n (over Z for n = 0), one per
    matrix: the callers that meet a matrix again (each mu of one call, each
    phi whose rows equal another's, the routes `verify_ses` compares, the
    rational systems of one semigroup) share its elimination."""
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


def _reduced(lattice, b):
    """The integer solution x of A x = b on a Graph over Z with
    0 <= x_j < h_j at each kernel pivot j, or None where there is none:
    a solution less floor(x_j / h_j) times kernel vector j, from the first
    position up. Two such solutions would differ by a kernel vector whose
    first entry is a multiple of its pivot smaller than it, so it is one
    per coset."""
    x = lattice.solve(b)
    if x is not None:
        for j, vec in enumerate(lattice.kernel):
            t = vec and x[j] // vec[j]
            if t:
                for i, c in vec.items():
                    x[i] -= t * c
    return x


def solve_multiplicative(equations, variables):
    """One rational solution of the system, or None when there is none.

    equations: a list of (dict var -> int exponent, nonzero constant as a
    reduced pair (numerator, denominator > 0)). The first variable takes
    the last position, so it is eliminated first. Returns dict var ->
    reduced pair (module docstring).
    """
    size = len(variables)
    pos = {v: size - 1 - i for i, v in enumerate(variables)}
    matrix = tuple(tuple((pos[v], c) for v, c in coeffs.items()) for coeffs, _ in equations)
    consts = [const for _, const in equations]
    lattice = graph(matrix, size, 0)
    free = [j for j, vec in enumerate(lattice.kernel) if vec]
    negative = [int(n < 0) for n, _ in consts]

    def first_sign(rows, b):
        return next(graph(rows, size, 2).solutions(b, natural(2)), None)

    sign = first_sign(matrix + tuple(((j, 1),) for j in free), negative + [0] * len(free))
    if sign is None:
        sign = first_sign(matrix, negative)
    if sign is None:
        return None
    num, den = [1] * size, [1] * size
    for b in _coprime_base([abs(n) for n, _ in consts] + [d for _, d in consts]):
        f = [_valuation(abs(n), b) - _valuation(d, b) for n, d in consts]
        y = _reduced(lattice, f)
        if y is None:
            return None
        if any(y[j] for j in free):
            mirror = tuple(tuple((size - 1 - j, c) for j, c in row) for row in matrix)
            y = _reduced(graph(mirror, size, 0), f)[::-1]
        for j, e in enumerate(y):
            num[j] *= b ** max(e, 0)
            den[j] *= b ** max(-e, 0)
    return {v: (-num[i] if sign[i] else num[i], den[i]) for v, i in pos.items()}
