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
        pairs = set(sg.tuples(2))
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
        self._key = (tuple(sorted((s, a.sort_key()) for s, a in self.alpha.items())),
                     tuple(sorted((p, v.sort_key()) for p, v in self.xi.items())))

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
    """Check both cocycle identities everywhere; reports every violation."""
    sg = c.sg
    bad = []
    for s, t, u in sg.tuples(3):
        st = sg.compose(s, t)
        tu = sg.compose(t, u)
        lhs = c.alpha_at(s)(c.xi_at(t, u)) * c.xi_at(s, tu)
        rhs = c.xi_at(s, t) * c.xi_at(st, u)
        if lhs != rhs:
            bad.append(CocycleViolation("scalar", (s, t, u), lhs, rhs))
    for s, t in sg.tuples(2):
        lhs = c.alpha_at(s).compose(c.alpha_at(t))
        rhs = rho(c.xi_at(s, t)).compose(c.alpha_at(sg.compose(s, t)))
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


def cochain_from_json(sg, domain, data):
    data = data or {}
    if not isinstance(data, dict):
        raise TypeError("a cocycle is a JSON object")
    alpha = {entry["on"]: auto_from_json(domain, entry["auto"])
             for entry in data.get("alpha", [])}
    xi = {(entry["left"], entry["right"]): scalar_from_json(domain, entry["value"])
          for entry in data.get("xi", [])}
    return TwoCochain(sg, domain, alpha, xi)
