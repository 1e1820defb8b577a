"""Square-free semigroups with zero.

A square-free semigroup here is a finite semigroup S with zero theta and a
set E of pairwise orthogonal idempotents such that S is the union of the
sets e*S*f over (e, f) in E x E and each such set contains at most one
nonzero element. Every nonzero element s is typed by a source and target
idempotent: s = src(s) . s . tgt(s).

Input tables list only the nonzero products beyond the forced idempotent
laws (e.e = e, e.f = theta for e != f, e.s = s when src(s) = e, s.f = s
when tgt(s) = f); everything unspecified is theta. A semigroup stores one
table, of its nonzero products only: the idempotent laws (one entry per
idempotent, two per arrow) and the nonzero arrow.arrow products. The
composable pairs and triples, the right partners and the tuple spaces are
all read off it.

Validation checks the at-most-one-per-slot condition and product typing,
refuses the name "theta" (it spells the zero in product tables) and any
arrow.arrow product that is an idempotent (so the arrows generate a
nilpotent ideal), and then checks associativity on the paths
a -> b -> c: once typing holds, a nonzero product keeps its left factor's
src and its right factor's tgt, so on every other triple both sides are
theta. It reports every violation rather than the first.

There is one semigroup object per product table per process: build
semigroups through `SquareFreeSemigroup.validate`, which returns the object
already made for the same table, and compare them with `is`.

A `SemigroupAuto` is a checked value: its constructor accepts only a
bijection of the elements that preserves every product, and it returns one
object per automorphism of its semigroup, so automorphisms too compare
with `is`. The product check reads only the composable pairs (see
`SquareFreeSemigroup.preserves`), and nothing downstream checks an
automorphism again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import SemigroupInvalid, UnknownElement

THETA = "theta"


@dataclass(frozen=True)
class Violation:
    kind: str        # "square_free" | "bad_typing" | "not_associative" | "structure"
    members: tuple
    message: str


class Composable(NamedTuple):
    triples: tuple   # (s, t, u, s.t, t.u)
    pairs: tuple     # (s, t, s.t)
    product: dict    # (s, t) -> s.t, the nonzero products in `pairs` order
    right: dict      # s -> ((t, s.t), ...), its right partners


class SquareFreeSemigroup:
    """Validated square-free semigroup. Immutable after construction."""

    __slots__ = ("idempotents", "elements", "src", "tgt", "_table", "_slots",
                 "_tuple_cache", "_composable", "_made_autos", "_identity", "_autos")

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
        self._composable = None
        self._made_autos = {}
        self._identity = SemigroupAuto(self, {s: s for s in self.elements})
        self._autos = None

    # -- construction ------------------------------------------------------

    @classmethod
    def validate(cls, idempotents, arrows, products):
        """Check a raw description and build the semigroup.

        idempotents: list of names.
        arrows: list of (name, src, tgt) triples for the non-idempotents.
        products: mapping or iterable of ((left, right), result) for the
        nonzero products not forced by the idempotent laws; result may be
        the string "theta" (redundant but allowed), which is why no element
        may be named "theta".

        Raises SemigroupInvalid carrying every violation found.
        """
        idempotents, elements, src, tgt, table = _typed_table(idempotents, arrows, products)
        # associativity on the paths a -> b -> c, in lexicographic order;
        # off a path both sides are theta (see the module docstring)
        starting = {e: [s for s in elements if src[s] == e] for e in idempotents}
        violations = []
        for a in elements:
            for b in starting[tgt[a]]:
                ab = table.get((a, b))
                for c in starting[tgt[b]]:
                    bc = table.get((b, c))
                    left = None if ab is None else table.get((ab, c))
                    right = None if bc is None else table.get((a, bc))
                    if left != right:
                        violations.append(Violation(
                            "not_associative", (a, b, c),
                            f"({a}.{b}).{c} = {left} but {a}.({b}.{c}) = {right}"))
        if violations:
            raise SemigroupInvalid(violations)
        # the table fixes src/tgt through the idempotent laws
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
        st = self._table.get((s, t))
        if st is None and (s not in self.src or t not in self.src):
            raise UnknownElement(f"({s!r}, {t!r}) not in the semigroup")
        return st

    def slot(self, e, f):
        """The unique element of e.S.f, or None."""
        return self._slots.get((e, f))

    def tuples(self, n):
        """The n-tuples of nonzero elements with nonzero product, in
        lexicographic element order; n = 0 gives the idempotents as
        1-tuples. Each word is extended by the right partners of its
        product, which come in element order, so the words stay sorted."""
        if n not in self._tuple_cache:
            right = self.composable().right
            words = [((s,), s) for s in (self.elements if n else self.idempotents)]
            for _ in range(n - 1):
                words = [(w + (t,), pt) for w, p in words for t, pt in right[p]]
            self._tuple_cache[n] = [w for w, _ in words]
        return self._tuple_cache[n]

    def composable(self):
        """The composable triples (s, t, u, s.t, t.u) and pairs (s, t, s.t),
        each in `tuples` order, the table of nonzero products itself, and
        for each element s the (t, s.t) of its pairs; built once per
        semigroup in one pass over the table."""
        if self._composable is None:
            table = self._table
            right = {s: [] for s in self.elements}
            pairs = []
            for (s, t), st in table.items():
                right[s].append((t, st))
                pairs.append((s, t, st))
            # s.t.u != theta forces t.u != theta
            self._composable = Composable(
                tuple((s, t, u, st, table[(t, u)]) for s, t, st in pairs for u, _ in right[st]),
                tuple(pairs), table, {s: tuple(ts) for s, ts in right.items()})
        return self._composable

    # -- automorphisms -----------------------------------------------------

    def preserves(self, mapping):
        """Whether a bijection of the elements preserves every product.

        Only the composable pairs (s, t, s.t) are read: a bijection phi that
        sends each of them to a composable pair (phi s, phi t) with product
        phi(s.t) maps the finite set of composable pairs injectively into
        itself, so onto itself, and the pairs with product theta then go to
        pairs with product theta.
        """
        table = self._table
        return all(table.get((mapping[s], mapping[t])) == mapping[st]
                   for s, t, st in self.composable().pairs)

    def enumerate_autos(self):
        """All product-preserving bijections, driven by permutations of E.

        Each permutation of the idempotents extends to the arrows in at most
        one way: an arrow in slot (e, f), e != f, must land in the slot
        (perm e, perm f), which holds no idempotent, and distinct slots have
        distinct images, so every extension is a bijection. The extensions
        that preserve products are the automorphisms. The |E|! loop is
        bounded where input arrives: instance files are refused above the
        idempotent cap. It runs once per semigroup; every call returns a
        fresh list.
        """
        if self._autos is None:
            self._autos = self._search_autos()
        return list(self._autos)

    def _search_autos(self):
        found = []
        arrows = self.arrows()
        for perm in itertools.permutations(self.idempotents):
            mapping = dict(zip(self.idempotents, perm))
            for s in arrows:
                image = self._slots.get((mapping[self.src[s]], mapping[self.tgt[s]]))
                if image is None:
                    break
                mapping[s] = image
            else:
                # the extension is a bijection; the constructor checks products
                try:
                    found.append(SemigroupAuto(self, mapping))
                except SemigroupInvalid:
                    pass
        found.sort(key=SemigroupAuto.sort_key)
        return found

    def __repr__(self):
        return (f"SquareFreeSemigroup(|E|={len(self.idempotents)}, "
                f"|S*|={len(self.elements)})")


def _typed_table(idempotents, arrows, products):
    """The checks of `SquareFreeSemigroup.validate` short of associativity:
    names, the at-most-one-per-slot condition, product typing and the
    refusals below. Returns (idempotents, elements, src, tgt, table) with
    the elements in canonical order and the table holding only the nonzero
    products, keyed (left, right) in lexicographic element order; an absent
    pair multiplies to theta. Raises SemigroupInvalid carrying every
    violation found.

    An arrow.arrow product may not be an idempotent: the shortest word of
    arrows equal to an idempotent would contain such a product, so with
    none declared the arrows generate a nilpotent ideal.
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
    if THETA in eset:
        violations.append(Violation("structure", (THETA,),
                                    f"{THETA!r} names the zero and cannot be an idempotent"))

    for entry in arrows:
        name, s, t = entry
        if name == THETA:
            violations.append(Violation("structure", (name,),
                                        f"{THETA!r} names the zero and cannot be an arrow"))
            continue
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

    # forced laws, then the nonzero declared products on top
    table = {}
    for s in elements:
        table[(src[s], s)] = table[(s, tgt[s])] = s

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
            if table.get((left, right)) != res:
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
        if res in eset:
            violations.append(Violation(
                "square_free", (left, right, res),
                f"arrow product {left}.{right} = {res} is an idempotent, so the "
                f"arrows do not generate a nilpotent ideal"))
            continue
        if res is not None:
            table[(left, right)] = res

    if violations:
        raise SemigroupInvalid(violations)
    index = {s: i for i, s in enumerate(elements)}
    table = {key: table[key] for key in sorted(table, key=lambda k: (index[k[0]], index[k[1]]))}
    return idempotents, elements, src, tgt, table


_SEMIGROUPS = {}


class SemigroupAuto:
    """A semigroup automorphism as a bijection on element names; immutable.

    `SemigroupAuto(sg, mapping)` accepts only a bijection of the elements
    that preserves every product: it raises UnknownElement for a map that
    is not a bijection and SemigroupInvalid for one that breaks a product.
    It returns one object per automorphism of its semigroup, made and
    checked the first time its images arise, so automorphisms compare and
    hash by identity. Its key, the images of the elements in canonical
    order, is built once with it."""

    __slots__ = ("sg", "mapping", "_key")

    def __new__(cls, sg, mapping):
        key = tuple([mapping.get(s) for s in sg.elements])
        made = sg._made_autos
        try:
            if len(mapping) == len(key):
                return made[key]
        except (KeyError, TypeError):
            pass
        if sorted(mapping) != sorted(sg.elements) or sorted(mapping.values()) != sorted(sg.elements):
            raise UnknownElement("automorphism map is not a bijection on the elements")
        # the identity, made with its semigroup, preserves products trivially
        if key != sg.elements and not sg.preserves(mapping):
            raise SemigroupInvalid([Violation("structure", (), "map does not preserve products")])
        self = made[key] = object.__new__(cls)
        self.sg, self.mapping, self._key = sg, dict(mapping), key
        return self

    def __call__(self, s):
        return self.mapping[s]

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
        return self is self.sg._identity

    @classmethod
    def identity(cls, sg):
        return sg._identity

    def sort_key(self):
        return self._key

    def __repr__(self):
        moved = {k: v for k, v in self.mapping.items() if k != v}
        return f"SemigroupAuto({moved or 'id'})"


# ---------------------------------------------------------------------------
# JSON


def semigroup_to_json(sg):
    # the composable pairs in `tuples` order, less those the idempotent laws force
    products = [{"left": a, "right": b, "result": r} for a, b, r in sg.composable().pairs
                if not (sg.is_idempotent(a) or sg.is_idempotent(b))]
    return {
        "idempotents": list(sg.idempotents),
        "elements": [{"name": s, "src": sg.src[s], "tgt": sg.tgt[s]}
                     for s in sg.arrows()],
        "products": products,
    }


def auto_to_json(phi):
    return {"map": dict(phi.mapping)}


def auto_from_json(sg, data):
    """The automorphism of a witness file's `{"map": {element: image}}`."""
    if not (isinstance(data, dict) and isinstance(data.get("map"), dict)):
        raise TypeError('a semigroup automorphism is a JSON object {"map": {...}}')
    return SemigroupAuto(sg, data["map"])
