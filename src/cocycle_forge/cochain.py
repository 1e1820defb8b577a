"""Twist data (alpha, xi) over a square-free semigroup and a division ring.

A 2-cochain assigns a domain automorphism alpha_s to every nonzero element
and a nonzero scalar xi(s, t) to every composable pair. A 2-cocycle is a
2-cochain satisfying the two identities that make the twisted semigroup
ring associative:

  scalar identity      alpha_s(xi(t, u)) . xi(s, t.u) = xi(s, t) . xi(s.t, u)
                       for every composable triple (s, t, u);
  automorphism identity  alpha_s o alpha_t = rho_{xi(s,t)} o alpha_{s.t}
                       for every composable pair (s, t).

Cochains are stored sparsely (identity / 1 entries dropped), so equality of
the stored dictionaries is equality of the dense maps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainMismatch
from .scalars import RingAuto, auto_from_json, auto_to_json, rho, scalar_from_json, scalar_to_json


class TwoCochain:
    """A pair (alpha, xi); immutable, compared by value through one key
    built with it.

    Whether it satisfies the cocycle identities is checked by
    :func:`is_cocycle`, never silently assumed.
    """

    __slots__ = ("sg", "domain", "alpha", "xi", "_key")

    def __init__(self, sg, domain, alpha=None, xi=None):
        self.sg = sg
        self.domain = domain
        one = domain.one()
        alpha = alpha or {}
        xi = xi or {}
        pairs = sg.composable().product
        for s, a in alpha.items():
            if a.domain is not domain:
                raise DomainMismatch(f"alpha[{s!r}] lives in {a.domain!r}")
            if s not in sg.src:
                raise ValueError(f"alpha defined on unknown element {s!r}")
        for pair, v in xi.items():
            if v.domain is not domain:
                raise DomainMismatch(f"xi[{pair!r}] lives in {v.domain!r}")
            if v.is_zero():
                raise ValueError(f"xi{pair!r} must be nonzero")
            if pair not in pairs:
                raise ValueError(f"xi defined outside the composable pairs: {pair!r}")
        self.alpha = {s: a for s, a in alpha.items() if not a.is_identity()}
        self.xi = {pair: v for pair, v in xi.items() if v != one}
        # stored values are canonical (reduced payloads), so equal maps
        # have equal item sets
        self._key = (frozenset(self.alpha.items()), frozenset(self.xi.items()))

    @classmethod
    def trivial(cls, sg, domain):
        return cls(sg, domain)

    def alpha_at(self, s):
        return self.alpha.get(s) or RingAuto.identity(self.domain)

    def xi_at(self, s, t):
        return self.xi.get((s, t)) or self.domain.one()

    def key(self):
        return self._key

    def __eq__(self, other):
        return (isinstance(other, TwoCochain) and self.sg is other.sg
                and self.domain is other.domain and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"TwoCochain(alpha on {sorted(self.alpha)}, xi on {sorted(self.xi)})"


@dataclass(frozen=True)
class CocycleViolation:
    identity: str   # "scalar" | "automorphism"
    members: tuple
    lhs: object
    rhs: object


@dataclass(frozen=True)
class CocycleVerdict:
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def is_cocycle(c):
    """Check both cocycle identities everywhere; reports every violation,
    in `tuples` order, scalar identities first.

    An identity is evaluated only where its two sides are different words
    in the stored data, reading an omitted xi as 1 and an omitted alpha as
    the identity, with alpha(1) = 1 and rho(1) = id. Where the words agree
    the identity holds whatever the values are, so skipping it changes no
    verdict and no violation. On a twist stored on the arrows alone, every
    identity padded by an idempotent reads xi(t, u) = xi(t, u) or
    alpha_s = alpha_s, and only arrow.arrow identities cost arithmetic.
    """
    frame = c.sg.composable()
    alpha, xi = c.alpha, c.xi
    bad = []
    for s, t, u, st, tu in frame.triples:
        # alpha_s(xi(t, u)) xi(s, t.u) against xi(s, t) xi(s.t, u): a word
        # keeps the stored factors in order, and alpha_s on a stored
        # xi(t, u) is a factor the right side never has
        l1, l2, r1, r2 = (t, u) in xi, (s, tu) in xi, (s, t) in xi, (st, u) in xi
        if not (l1 or l2 or r1 or r2):
            continue  # 1 = 1
        if not (l1 and s in alpha) and (
                [(t, u)] * l1 + [(s, tu)] * l2 == [(s, t)] * r1 + [(st, u)] * r2):
            continue
        lhs = c.alpha_at(s)(c.xi_at(t, u)) * c.xi_at(s, tu)
        rhs = c.xi_at(s, t) * c.xi_at(st, u)
        if lhs != rhs:
            bad.append(CocycleViolation("scalar", (s, t, u), lhs, rhs))
    for s, t, st in frame.pairs:
        # alpha_s alpha_t against rho(xi(s, t)) alpha_{s.t}: a stored xi(s, t)
        # puts a factor on the right that the left side never has
        if (s, t) not in xi:
            a_s, a_t, a_st = s in alpha, t in alpha, st in alpha
            if not (a_s or a_t or a_st) or [s] * a_s + [t] * a_t == [st] * a_st:
                continue
        lhs = c.alpha_at(s).compose(c.alpha_at(t))
        rhs = rho(c.xi_at(s, t)).compose(c.alpha_at(st))
        if lhs != rhs:
            bad.append(CocycleViolation("automorphism", (s, t), lhs, rhs))
    return CocycleVerdict(not bad, tuple(bad))


def is_normal(c):
    """alpha is the identity and xi(e, e) = 1 on every idempotent."""
    one = c.domain.one()
    return all(c.alpha_at(e).is_identity() and c.xi_at(e, e) == one
               for e in c.sg.idempotents)


def normalize(c):
    """Gauge a cocycle to a normal representative of its class.

    Returns (normalized, gauge) where gauge has identity mu and
    eta(e) = xi(e, e)^{-1} on idempotents, eta = 1 elsewhere; applying the
    gauge to the input yields the returned cocycle. Already-normal input
    comes back unchanged with the identity gauge.
    """
    from .gauge import Gauge, act_gauge

    if is_normal(c):
        return c, Gauge.identity(c.sg, c.domain)
    eta = {e: c.xi_at(e, e).inv() for e in c.sg.idempotents}
    gauge = Gauge(c.sg, c.domain, mu=None, eta=eta)
    return act_gauge(gauge, c), gauge


# ---------------------------------------------------------------------------
# JSON: {"alpha": [{"on": s, "auto": ...}], "xi": [{"left", "right", "value"}]}
# with omitted entries meaning identity / 1.


def cochain_to_json(c):
    return {
        "alpha": [{"on": s, "auto": auto_to_json(a)}
                  for s, a in sorted(c.alpha.items())],
        "xi": [{"left": l, "right": r, "value": scalar_to_json(v)}
               for (l, r), v in sorted(c.xi.items())],
    }


def unique_entries(section, items):
    """The dict of a JSON section's (key, value) items; a key given twice is
    refused rather than letting the last entry win."""
    out = {}
    for key, value in items:
        if key in out:
            raise ValueError(f"{section} given twice on {key!r}")
        out[key] = value
    return out


def json_list(data, section, key, *names):
    """Yield the entries of the list under data[key], none when the key is
    absent. data must be a JSON object (section names it), the value a
    list, each entry an object, and the entry's names strings; anything
    else is refused with a message, entry by entry, rather than read."""
    if not isinstance(data, dict):
        raise TypeError(f"{section} is a JSON object")
    value = data.get(key, [])
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a JSON list")
    for entry in value:
        if not isinstance(entry, dict):
            raise TypeError(f"{key} entries are objects")
        if not all(isinstance(entry[name], str) for name in names):
            raise TypeError(f"{key} entries carry string {'/'.join(names)}")
        yield entry


def cochain_from_json(sg, domain, data):
    """The cochain of an instance's cocycle section; an absent or null
    section is the trivial twist."""
    if data is None:
        data = {}
    alpha = unique_entries("alpha", ((entry["on"], auto_from_json(domain, entry["auto"]))
                                     for entry in json_list(data, "a cocycle", "alpha", "on")))
    xi = unique_entries("xi", (((entry["left"], entry["right"]),
                                scalar_from_json(domain, entry["value"]))
                               for entry in json_list(data, "a cocycle", "xi", "left", "right")))
    return TwoCochain(sg, domain, alpha, xi)
