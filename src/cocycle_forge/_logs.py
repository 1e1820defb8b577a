"""Log coordinates over a finite field.

The unit group of GF(q) is cyclic of order n = q - 1, so once a primitive
element g is fixed every unit is g^x for exactly one x mod n, and the
Frobenius power a = Frob^i acts on logs as x -> p^i x mod n. A gauge
(mu, eta, phi) over GF(q) is then the integer datum

    (mu exponents, eta logs, phi)

with mu_e = Frob^{mu[e]} per idempotent and eta(s) = g^{x[s]} per element,
both in the semigroup's canonical order. `FieldLogs` holds the tables that
translate (built on first use, once per field, and kept on the domain, so
building a field stays O(1)), and `FieldLogs.key` is the listing layer's
sort key in these coordinates: (mu, ranks of the x, phi.sort_key())
orders gauges exactly as `Gauge.sort_key` does, since `rank` numbers the
units in the order of `enumerate_units`.

`eta_rows` is the one builder of the eta relations
eta(s) . a_s(eta(t)) . eta(st)^{-1} = u over the composable pairs: their
coefficient matrix, the rows x[s] + p^i x[t] - x[st] for a_s = Frob^i,
depends on the twists a_s alone, and every route takes its lattice
(`_multsolve.graph`, one elimination per matrix), which decides each
right-hand side (the logs of the u) and gives one solution x. The
solutions are x + L, L the lattice's kernel; `_multsolve.members` walks
them in unit order with the order the tables keep as `classes`, the
residue classes of each modulus h dividing n in rank order, built once per
h, and `_multsolve.least` gives the first of them. `gauge._mu_choices`
walks the mu relations of Z1 as rows mod k the same way, and the rational
solver reads the same rows with scale 1 as exponent rows over Q*.
"""

from __future__ import annotations

from ._multsolve import ranked
from .errors import NotEnumerable
from .scalars import _prime_divisors, enumerate_units

# The most entries (q - 1) a field's log tables may have. tracemalloc
# measured 401-465 retained bytes per entry on GF(2^12), GF(2^14) and
# GF(65537) (Python 3.11), so this bound is about 0.5 GB; it admits
# GF(2^20) and GF(65537), and refuses GF(2^31 - 1), whose tables would need
# about 0.9 TB.
MAX_LOG_ENTRIES = 2 ** 20


class FieldLogs:
    """The log tables of one finite field; get them through `field_logs`.

    g is the least unit, in sort order, of order n = q - 1; exp[x] is the
    interned Scalar g^x; log[i] is the log of the element with domain index
    i (None for zero); rank[x] is the position of g^x in `enumerate_units`
    and by_rank its inverse; classes is the order of rank (see
    _multsolve.ranked); frob[i] = p^i mod n is Frob^i on logs.
    """

    __slots__ = ("n", "k", "g", "exp", "log", "rank", "by_rank", "classes", "frob")

    def __init__(self, domain):
        units = enumerate_units(domain)
        n = self.n = len(units)
        self.k = domain.k
        one = domain.one()
        factors = _prime_divisors(n)
        self.g = g = next(u for u in units if all(u ** (n // r) != one for r in factors))
        self.exp = exp = [one]
        for _ in range(n - 1):
            exp.append(exp[-1] * g)
        # every element is interned by now, so the indices run over 0..q-1
        self.log = log = [None] * (n + 1)
        for x, u in enumerate(exp):
            log[u._i] = x
        self.by_rank = [log[u._i] for u in units]
        self.rank = rank = [0] * n
        for r, x in enumerate(self.by_rank):
            rank[x] = r
        self.classes = ranked(self.by_rank)
        self.frob = [pow(domain.p, i, n) for i in range(domain.k)]

    def of(self, u):
        """The log of a unit."""
        return self.log[u._i]

    def key(self, g):
        """The sort key of a gauge in log coordinates; orders like
        Gauge.sort_key."""
        rank = self.rank
        return (g[0], tuple([rank[x] for x in g[1]]), g[2].sort_key())


def power(a):
    """The Frobenius exponent of an automorphism of a finite field."""
    return a.data if a.form == "frobenius" else 0


def field_logs(domain):
    """The log tables of a finite field, built on first use; a field whose
    tables would hold more than MAX_LOG_ENTRIES entries raises
    NotEnumerable before any is built."""
    logs = domain._logs
    if logs is None:
        if domain.p ** domain.k - 1 > MAX_LOG_ENTRIES:
            raise NotEnumerable(
                f"{domain!r}: its log tables would hold {domain.p ** domain.k - 1} "
                f"entries, more than the {MAX_LOG_ENTRIES} this package builds")
        logs = domain._logs = FieldLogs(domain)
    return logs


def eta_rows(sg, scale):
    """The coefficient matrix of the eta relations over the composable
    pairs (s, t, s.t), in `composable().pairs` order: the row
    x[s] + scale[s] x[t] - x[s.t], a tuple of (position, coefficient)
    pairs, with positions and scale in the canonical order of the
    elements. Over GF(q) scale[s] is p^i mod q - 1 for a_s = Frob^i; over
    Q*, where every a_s is the identity, it is 1."""
    pos = {s: j for j, s in enumerate(sg.elements)}
    return tuple(((pos[s], 1), (pos[t], scale[pos[s]]), (pos[st], -1))
                 for s, t, st in sg.composable().pairs)
