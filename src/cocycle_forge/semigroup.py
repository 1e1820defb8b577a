"""Square-free semigroups with zero.

A square-free semigroup here is a finite semigroup S with zero theta and a
set E of pairwise orthogonal idempotents such that S is the union of the
sets e*S*f over (e, f) in E x E and each such set contains at most one
nonzero element. Every nonzero element s is typed by a source and target
idempotent: s = src(s) . s . tgt(s).

Input tables list only the nonzero products beyond the forced idempotent
laws (e.e = e, e.f = theta for e != f, e.s = s when src(s) = e, s.f = s
when tgt(s) = f); everything unspecified is theta. Validation checks the
at-most-one-per-slot condition, product typing, and full associativity,
and reports every violation rather than the first.

There is one semigroup object per product table per process: build
semigroups through `SquareFreeSemigroup.validate`, which returns the object
already made for the same table, and compare them with `is`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SemigroupInvalid, UnknownElement

THETA = "theta"


@dataclass(frozen=True)
class Violation:
    kind: str        # "square_free" | "bad_typing" | "not_associative" | "structure"
    members: tuple
    message: str


class SquareFreeSemigroup:
    """Validated square-free semigroup. Immutable after construction."""

    __slots__ = ("idempotents", "elements", "src", "tgt", "_table", "_slots",
                 "_tuple_cache", "_identity")

    def __init__(self, idempotents, elements, src, tgt, table):
        self.idempotents = tuple(idempotents)
        self.elements = tuple(elements)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self._table = dict(table)
        self._slots = {}
        for s in self.elements:
            self._slots[(self.src[s], self.tgt[s])] = s
        self._tuple_cache = {}
        self._identity = SemigroupAuto(self, {s: s for s in self.elements})

    # -- construction ------------------------------------------------------

    @classmethod
    def validate(cls, idempotents, arrows, products):
        """Check a raw description and build the semigroup.

        idempotents: list of names.
        arrows: list of (name, src, tgt) triples for the non-idempotents.
        products: mapping or iterable of ((left, right), result) for the
        nonzero products not forced by the idempotent laws; result may be
        the string "theta" (redundant but allowed).

        Raises SemigroupInvalid carrying every violation found.
        """
        violations = []
        idempotents = list(idempotents)
        names = list(idempotents)
        src = {e: e for e in idempotents}
        tgt = {e: e for e in idempotents}
        eset = set(idempotents)
        if len(eset) != len(idempotents):
            violations.append(Violation("structure", tuple(idempotents),
                                        "duplicate idempotent names"))

        for entry in arrows:
            name, s, t = entry
            if name in src or name in eset:
                violations.append(Violation("structure", (name,),
                                            f"duplicate element name {name!r}"))
                continue
            if s not in eset or t not in eset:
                violations.append(Violation("bad_typing", (name,),
                                            f"element {name!r} has unknown src/tgt"))
                continue
            names.append(name)
            src[name] = s
            tgt[name] = t

        # square-free condition: at most one element per (src, tgt) slot,
        # counting the idempotent that always occupies (e, e)
        slots = {}
        for n in names:
            key = (src[n], tgt[n])
            if key in slots:
                violations.append(Violation(
                    "square_free", key,
                    f"two elements {slots[key]!r}, {n!r} in slot {key}"))
            else:
                slots[key] = n

        if violations:
            raise SemigroupInvalid(violations)

        # canonical order: idempotents as declared, then arrows by slot index
        eidx = {e: i for i, e in enumerate(idempotents)}
        arrows_sorted = sorted((n for n in names if n not in eset),
                               key=lambda n: (eidx[src[n]], eidx[tgt[n]]))
        elements = tuple(idempotents) + tuple(arrows_sorted)

        # forced laws, then declared products on top
        table = {}
        for a in elements:
            for b in elements:
                if a in eset and b in eset:
                    table[(a, b)] = a if a == b else None
                elif a in eset:
                    table[(a, b)] = b if src[b] == a else None
                elif b in eset:
                    table[(a, b)] = a if tgt[a] == b else None
                else:
                    table[(a, b)] = None

        items = products.items() if hasattr(products, "items") else products
        declared = {}
        for (left, right), result in items:
            if left not in src or right not in src:
                violations.append(Violation("structure", (left, right),
                                            f"product uses unknown name {left!r} or {right!r}"))
                continue
            if (left, right) in declared and declared[(left, right)] != result:
                violations.append(Violation(
                    "structure", (left, right),
                    f"product {left}.{right} declared twice with different results"))
                continue
            declared[(left, right)] = result
            res = None if result in (None, THETA) else result
            if res is not None and res not in src:
                violations.append(Violation("structure", (left, right, res),
                                            f"product result {res!r} is unknown"))
                continue
            if left in eset or right in eset:
                if table[(left, right)] != res:
                    violations.append(Violation(
                        "bad_typing", (left, right),
                        f"declared product {left}.{right} contradicts the idempotent laws"))
                continue
            if res is not None and (tgt[left] != src[right] or src[res] != src[left]
                                    or tgt[res] != tgt[right]):
                violations.append(Violation(
                    "bad_typing", (left, right),
                    f"product {left}.{right} = {res} breaks src/tgt typing"))
                continue
            table[(left, right)] = res

        if violations:
            raise SemigroupInvalid(violations)

        # associativity, theta-absorbing, over every triple
        def mul(a, b):
            if a is None or b is None:
                return None
            return table[(a, b)]

        for a, b, c in itertools.product(elements, repeat=3):
            if mul(mul(a, b), c) != mul(a, mul(b, c)):
                violations.append(Violation(
                    "not_associative", (a, b, c),
                    f"({a}.{b}).{c} = {mul(mul(a, b), c)} but "
                    f"{a}.({b}.{c}) = {mul(a, mul(b, c))}"))

        if violations:
            raise SemigroupInvalid(violations)
        # the full table fixes src/tgt through the idempotent laws
        key = (tuple(idempotents), elements, frozenset(table.items()))
        sg = _SEMIGROUPS.get(key)
        if sg is None:
            sg = _SEMIGROUPS[key] = cls(idempotents, elements, src, tgt, table)
        return sg

    # -- queries -----------------------------------------------------------

    def is_idempotent(self, s):
        return self.src.get(s) == s

    def arrows(self):
        return tuple(s for s in self.elements if not self.is_idempotent(s))

    def compose(self, s, t):
        """Product in S; returns None for theta."""
        try:
            return self._table[(s, t)]
        except KeyError:
            raise UnknownElement(f"({s!r}, {t!r}) not in the semigroup") from None

    def compose_word(self, word):
        """Product of a sequence of element names; None once it hits theta."""
        out = None
        for i, s in enumerate(word):
            if s not in self.src:
                raise UnknownElement(f"{s!r} not in the semigroup")
            out = s if i == 0 else (None if out is None else self._table[(out, s)])
        return out

    def slot(self, e, f):
        """The unique element of e.S.f, or None."""
        return self._slots.get((e, f))

    def tuples(self, n):
        """The n-tuples of nonzero elements with nonzero product, sorted;
        n = 0 gives the idempotents as 1-tuples."""
        if n in self._tuple_cache:
            return self._tuple_cache[n]
        if n == 0:
            out = [(e,) for e in self.idempotents]
        elif n == 1:
            out = [(s,) for s in self.elements]
        else:
            out = []
            for prefix in self.tuples(n - 1):
                head = self.compose_word(prefix)
                for s in self.elements:
                    if self._table[(head, s)] is not None:
                        out.append(prefix + (s,))
            order = {s: i for i, s in enumerate(self.elements)}
            out.sort(key=lambda t: tuple(order[s] for s in t))
        self._tuple_cache[n] = out
        return out

    # -- automorphisms -----------------------------------------------------

    def enumerate_autos(self):
        """All product-preserving bijections, driven by permutations of E.

        Each permutation of the idempotents extends to the arrows in at most
        one way (an arrow in slot (e, f) must land in slot (perm e, perm f));
        candidates whose extension exists are then checked against the whole
        product table. The |E|! loop is bounded where input arrives: instance
        files are refused above the idempotent cap.
        """
        found = []
        arrows = self.arrows()
        for perm in itertools.permutations(self.idempotents):
            mapping = dict(zip(self.idempotents, perm))
            ok = True
            for s in arrows:
                image = self._slots.get((mapping[self.src[s]], mapping[self.tgt[s]]))
                if image is None or self.is_idempotent(image):
                    ok = False
                    break
                mapping[s] = image
            if not ok or len(set(mapping.values())) != len(self.elements):
                continue
            cand = SemigroupAuto(self, mapping)
            if all(cand._preserves(a, b) for a in self.elements for b in self.elements):
                found.append(cand)
        found.sort(key=SemigroupAuto.sort_key)
        return found

    def __repr__(self):
        return (f"SquareFreeSemigroup(|E|={len(self.idempotents)}, "
                f"|S*|={len(self.elements)})")


_SEMIGROUPS = {}


class SemigroupAuto:
    """A semigroup automorphism as a bijection on element names; immutable.

    Its key, the images of the elements in canonical order, is built once
    with it, and the identity of each semigroup is one shared object."""

    __slots__ = ("sg", "mapping", "_key")

    def __init__(self, sg, mapping):
        self.sg = sg
        self.mapping = dict(mapping)
        self._key = tuple(self.mapping[s] for s in sg.elements)

    def __call__(self, s):
        return self.mapping[s]

    def _preserves(self, a, b):
        prod = self.sg._table[(a, b)]
        image = self.sg._table[(self.mapping[a], self.mapping[b])]
        return image == (None if prod is None else self.mapping[prod])

    def compose(self, other):
        """self after other: composed(s) = self(other(s))."""
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        return SemigroupAuto(self.sg, {s: self.mapping[other.mapping[s]]
                                       for s in self.sg.elements})

    def inverse(self):
        if self.is_identity():
            return self
        return SemigroupAuto(self.sg, {v: k for k, v in self.mapping.items()})

    def is_identity(self):
        return self._key == self.sg.elements

    @classmethod
    def identity(cls, sg):
        return sg._identity

    def sort_key(self):
        return self._key

    def __eq__(self, other):
        return (isinstance(other, SemigroupAuto) and self.sg is other.sg
                and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        moved = {k: v for k, v in self.mapping.items() if k != v}
        return f"SemigroupAuto({moved or 'id'})"


# ---------------------------------------------------------------------------
# JSON


def semigroup_to_json(sg):
    products = []
    for a in sg.elements:
        for b in sg.elements:
            r = sg._table[(a, b)]
            if r is None:
                continue
            if sg.is_idempotent(a) or sg.is_idempotent(b):
                continue  # forced by the idempotent laws
            products.append({"left": a, "right": b, "result": r})
    return {
        "idempotents": list(sg.idempotents),
        "elements": [{"name": s, "src": sg.src[s], "tgt": sg.tgt[s]}
                     for s in sg.arrows()],
        "products": products,
    }


def auto_to_json(phi):
    return {"map": dict(phi.mapping)}


def auto_from_json(sg, data):
    mapping = data["map"] if isinstance(data, dict) and "map" in data else data
    if not isinstance(mapping, dict):
        raise TypeError("a semigroup automorphism map is a JSON object")
    if sorted(mapping) != sorted(sg.elements) or sorted(mapping.values()) != sorted(sg.elements):
        raise UnknownElement("automorphism map is not a bijection on the elements")
    phi = SemigroupAuto(sg, mapping)
    if not all(phi._preserves(a, b) for a in sg.elements for b in sg.elements):
        raise SemigroupInvalid([Violation("structure", (), "map does not preserve products")])
    return phi
