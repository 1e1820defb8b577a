"""Square-free semigroup validation, tuple spaces, and Aut(S)."""

import collections
import itertools
import random

import pytest

from cocycle_forge.errors import InstanceFileInvalid, SemigroupInvalid, UnknownElement
from cocycle_forge.instances import parse_instance
from cocycle_forge.semigroup import (
    SemigroupAuto, SquareFreeSemigroup, _typed_table, auto_from_json, auto_to_json,
    semigroup_to_json,
)

from conftest import CHAIN4, RP2_6, TORUS_7, face_poset, make_chain4, make_sphere, tetrahedron


def semigroup_from_json(data, max_idempotents=8):
    """The semigroup section parsed the way instance files are."""
    inst = parse_instance({"division_ring": {"kind": "rational"}, "semigroup": data},
                          max_idempotents=max_idempotents)
    return inst.sg


def diamond():
    """Four idempotents e1..e4 with arrows e1->e2->e4 and e1->e3->e4;
    all arrow.arrow products are theta."""
    return SquareFreeSemigroup.validate(
        ["e1", "e2", "e3", "e4"],
        [("s12", "e1", "e2"), ("s13", "e1", "e3"),
         ("s24", "e2", "e4"), ("s34", "e3", "e4")],
        {},
    )


def chain2():
    """Two idempotents, one arrow; Aut-trivial."""
    return SquareFreeSemigroup.validate(["e1", "e2"], [("a", "e1", "e2")], {})


def test_diamond_is_valid():
    sg = diamond()
    assert sg.idempotents == ("e1", "e2", "e3", "e4")
    assert len(sg.elements) == 8
    assert sg.compose("e1", "s12") == "s12"
    assert sg.compose("s12", "e2") == "s12"
    assert sg.compose("s12", "s24") is None
    assert sg.compose("e1", "e2") is None


def test_single_idempotent_valid():
    sg = SquareFreeSemigroup.validate(["e"], [], {})
    assert sg.elements == ("e",)
    assert sg.compose("e", "e") == "e"


def test_square_free_violation():
    with pytest.raises(SemigroupInvalid) as exc:
        SquareFreeSemigroup.validate(
            ["e1", "e2"], [("a", "e1", "e2"), ("b", "e1", "e2")], {})
    assert any(v.kind == "square_free" for v in exc.value.violations)


def test_loop_rejected():
    # a non-idempotent in slot (e, e) collides with e itself
    with pytest.raises(SemigroupInvalid) as exc:
        SquareFreeSemigroup.validate(["e1"], [("a", "e1", "e1")], {})
    assert any(v.kind == "square_free" for v in exc.value.violations)


def test_bad_typing_rejected():
    with pytest.raises(SemigroupInvalid) as exc:
        SquareFreeSemigroup.validate(
            ["e1", "e2", "e3"],
            [("a", "e1", "e2"), ("b", "e2", "e3"), ("c", "e1", "e3")],
            {("a", "c"): "c"})  # tgt(a) = e2 but src(c) = e1
    assert any(v.kind == "bad_typing" for v in exc.value.violations)


def test_not_associative_reported():
    # triangle with both composites present but one product dropped:
    # (a.b).c vs a.(b.c) can only disagree if the table is inconsistent
    with pytest.raises(SemigroupInvalid) as exc:
        SquareFreeSemigroup.validate(
            ["e1", "e2", "e3", "e4"],
            [("a", "e1", "e2"), ("b", "e2", "e3"), ("c", "e3", "e4"),
             ("ab", "e1", "e3"), ("bc", "e2", "e4"), ("abc", "e1", "e4")],
            {("a", "b"): "ab", ("b", "c"): "bc", ("a", "bc"): "abc"})
        # ("ab", "c") missing, so (a.b).c = theta != abc = a.(b.c)
    kinds = {v.kind for v in exc.value.violations}
    assert "not_associative" in kinds
    bad = [v for v in exc.value.violations if v.kind == "not_associative"]
    assert ("a", "b", "c") in [v.members for v in bad]


def test_triangle_with_full_products_valid():
    sg = SquareFreeSemigroup.validate(
        ["e1", "e2", "e3"],
        [("a", "e1", "e2"), ("b", "e2", "e3"), ("ab", "e1", "e3")],
        {("a", "b"): "ab"})
    assert sg.compose("a", "b") == "ab"
    assert len(sg.tuples(2)) == 3 + 2 * 3 + 1  # (e,e), (e,s)/(s,f) per arrow, (a,b)


def test_tuples_n0_and_n1():
    sg = diamond()
    assert sg.tuples(0) == [("e1",), ("e2",), ("e3",), ("e4",)]
    assert len(sg.tuples(1)) == 8


def test_diamond_pairs_frozen():
    # oracle: exhaustive scan of all 8x8 products done by hand; the 12
    # surviving pairs are (e,e) x4, (src(s), s) x4, (s, tgt(s)) x4
    expected = {
        ("e1", "e1"), ("e2", "e2"), ("e3", "e3"), ("e4", "e4"),
        ("e1", "s12"), ("e1", "s13"), ("e2", "s24"), ("e3", "s34"),
        ("s12", "e2"), ("s13", "e3"), ("s24", "e4"), ("s34", "e4"),
    }
    assert set(sg2 := diamond().tuples(2)) == expected
    assert len(sg2) == 12


def test_diamond_triples_count():
    # every pair extends by an idempotent on either side only
    assert len(diamond().tuples(3)) == 16


def test_tuples_project():
    sg = diamond()
    for n in (1, 2, 3):
        shorter = set(sg.tuples(n))
        for t in sg.tuples(n + 1):
            assert t[:-1] in shorter


def test_unknown_element():
    # a zero product of known names is None, any product with an unknown one raises
    sg = diamond()
    assert sg.compose("e1", "e4") is None
    for s, t in (("e1", "zz"), ("zz", "e1"), ("s12", "zz"), ("zz", "zz"), ("theta", "e1")):
        with pytest.raises(UnknownElement):
            sg.compose(s, t)


def test_associativity_exhaustive():
    sg = diamond()

    def mul(a, b):
        return None if (a is None or b is None) else sg.compose(a, b)

    for a, b, c in itertools.product(sg.elements, repeat=3):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_diamond_automorphisms():
    sg = diamond()
    autos = sg.enumerate_autos()
    assert len(autos) == 2
    swap = [a for a in autos if not a.is_identity()][0]
    assert swap("e2") == "e3" and swap("e3") == "e2"
    assert swap("s12") == "s13" and swap("s24") == "s34"
    assert swap("e1") == "e1" and swap("e4") == "e4"


def test_autos_form_group():
    sg = diamond()
    autos = sg.enumerate_autos()
    table = set(a.sort_key() for a in autos)
    assert SemigroupAuto.identity(sg).sort_key() in table
    for a in autos:
        assert a.inverse().sort_key() in table
        for b in autos:
            assert a.compose(b).sort_key() in table


def test_trivial_and_discrete_auto_counts():
    assert len(SquareFreeSemigroup.validate(["e"], [], {}).enumerate_autos()) == 1
    two = SquareFreeSemigroup.validate(["e1", "e2"], [], {})
    assert len(two.enumerate_autos()) == 2
    assert len(chain2().enumerate_autos()) == 1


def test_idempotent_cap():
    # the cap is checked where input arrives, not by the Aut S search
    data = semigroup_to_json(diamond())
    with pytest.raises(InstanceFileInvalid) as exc:
        semigroup_from_json(data, max_idempotents=3)
    assert [p for p, _ in exc.value.issues] == ["/semigroup/idempotents"]
    assert len(semigroup_from_json(data, max_idempotents=4).enumerate_autos()) == 2
    nine = semigroup_to_json(SquareFreeSemigroup.validate([f"e{i}" for i in range(9)], [], {}))
    with pytest.raises(InstanceFileInvalid):
        semigroup_from_json(nine)  # default cap is 8


def test_json_round_trip():
    for sg in (diamond(), chain2()):
        again = semigroup_from_json(semigroup_to_json(sg))
        assert again == sg
    tri = SquareFreeSemigroup.validate(
        ["e1", "e2", "e3"],
        [("a", "e1", "e2"), ("b", "e2", "e3"), ("ab", "e1", "e3")],
        {("a", "b"): "ab"})
    assert semigroup_from_json(semigroup_to_json(tri)) == tri


def test_auto_json_round_trip():
    sg = diamond()
    for a in sg.enumerate_autos():
        assert auto_from_json(sg, auto_to_json(a)) == a


def test_validate_returns_one_object_per_table():
    arrows = [("a", "e1", "e2"), ("b", "e2", "e3"), ("ab", "e1", "e3")]
    tri = SquareFreeSemigroup.validate(["e1", "e2", "e3"], arrows, {("a", "b"): "ab"})
    assert SquareFreeSemigroup.validate(
        ["e1", "e2", "e3"], arrows[::-1], {("a", "b"): "ab"}) is tri
    assert semigroup_from_json(semigroup_to_json(tri)) is tri
    # same arrows, different products: a different semigroup
    tri0 = SquareFreeSemigroup.validate(["e1", "e2", "e3"], arrows, {})
    assert tri0 is not tri and tri0 != tri
    assert semigroup_from_json(semigroup_to_json(tri0)) is tri0


# ---------------------------------------------------------------------------
# refusals, and the path-only associativity check against the full scan


def validate_violations(idempotents, arrows, products):
    """The violations validate raises, in order, or [] when it accepts."""
    try:
        SquareFreeSemigroup.validate(idempotents, arrows, products)
    except SemigroupInvalid as exc:
        return list(exc.violations)
    return []


def test_theta_is_not_a_name():
    # a.b = "theta" would read as the zero, not as the arrow named theta
    violations = validate_violations(
        ["e1", "e2", "e3"], [("a", "e1", "e2"), ("b", "e2", "e3"), ("theta", "e1", "e3")],
        {("a", "b"): "theta"})
    assert [(v.kind, v.members) for v in violations] == [("structure", ("theta",))]
    violations = validate_violations(["e1", "theta"], [("a", "e1", "theta")], {})
    assert [(v.kind, v.members) for v in violations] == [("structure", ("theta",))]
    # the spelling stays a way to declare a zero product
    tri0 = SquareFreeSemigroup.validate(
        ["e1", "e2", "e3"], [("a", "e1", "e2"), ("b", "e2", "e3"), ("ab", "e1", "e3")],
        {("a", "b"): "theta"})
    assert tri0.compose("a", "b") is None


def test_arrow_product_on_an_idempotent_refused():
    # the Brandt semigroup B2: its ring is M2(K), which is not square-free
    violations = validate_violations(
        ["e1", "e2"], [("a", "e1", "e2"), ("b", "e2", "e1")],
        {("a", "b"): "e1", ("b", "a"): "e2"})
    assert [(v.kind, v.members) for v in violations] == [
        ("square_free", ("a", "b", "e1")), ("square_free", ("b", "a", "e2"))]
    # one such product is enough to refuse the table
    violations = validate_violations(
        ["e1", "e2"], [("a", "e1", "e2"), ("b", "e2", "e1")], {("a", "b"): "e1"})
    assert [v.members for v in violations] == [("a", "b", "e1")]
    # the same arrows with both products theta are a square-free semigroup
    sg = SquareFreeSemigroup.validate(["e1", "e2"], [("a", "e1", "e2"), ("b", "e2", "e1")], {})
    assert sg.compose("a", "b") is None and sg.compose("b", "a") is None


def random_table(rng):
    """A random (idempotents, arrows, products): arrows on random slots,
    mostly forward in the order of the idempotents, now and then a loop, a
    doubled slot or the name theta; products on composable arrow pairs,
    mostly the element of the typed slot and otherwise theta, and in one
    table of four some products on any pair with any result."""
    idempotents = [f"e{i}" for i in range(rng.randint(1, 6))]
    arrows = [(f"x{i}{j}", e, f) for i, e in enumerate(idempotents)
              for j, f in enumerate(idempotents)
              if rng.random() < (0.7 if i < j else 0.05 if i > j else 0)]
    if rng.random() < 0.05:
        e = rng.choice(idempotents)
        arrows.append(("loop", e, e))
    if arrows and rng.random() < 0.05:
        arrows.append(("twin",) + rng.choice(arrows)[1:])
    if arrows and rng.random() < 0.03:
        arrows.append(("theta",) + rng.choice(arrows)[1:])
    slot = {(s, t): n for n, s, t in arrows}
    slot.update({(e, e): e for e in idempotents})
    names = idempotents + [n for n, _, _ in arrows]
    junk = rng.random() < 0.25
    products = {}
    for left, s1, t1 in arrows:
        for right, s2, t2 in arrows:
            if junk and rng.random() < 0.1:
                products[(left, right)] = rng.choice(names)
            elif t1 == s2 and rng.random() < 0.8:
                products[(left, right)] = (slot.get((s1, t2), "theta") if rng.random() < 0.8
                                           else rng.choice(("theta", None)))
    return idempotents, arrows, products


def test_validate_matches_full_scan():
    # the path-only check against associativity on every triple, entry by
    # entry: kind, members, message and order
    from oracles import full_scan_validate

    rng = random.Random(1313)
    seen = collections.Counter()
    for _ in range(1500):
        table = random_table(rng)
        got = validate_violations(*table)
        assert got == full_scan_validate(*table)
        seen.update({v.kind for v in got} or {"valid"})
        seen.update(v.message.split()[0] for v in got if v.kind == "square_free")
        seen["theta_result"] += "theta" in table[2].values()
    for shape in (CHAIN4, tetrahedron()):
        assert validate_violations(*shape) == full_scan_validate(*shape) == []
    assert seen["valid"] > 100 and seen["not_associative"] > 100
    assert seen["arrow"] > 50 and seen["theta_result"] > 100  # idempotent and theta results
    assert seen["structure"] and seen["bad_typing"] and seen["two"]


def test_validate_compares_only_paths(monkeypatch):
    # chain4 has 35 paths a -> b -> c among its 1000 triples; the check
    # reads the product table only at typed pairs x.y (tgt x = src y), once
    # per pair a -> b and at most three times per path
    from cocycle_forge import semigroup

    chain4 = make_chain4()  # the memo hands back this object, not the counting table
    read = []

    class Table(dict):
        def __getitem__(self, key):
            read.append(key)
            return dict.__getitem__(self, key)

        def get(self, key, default=None):
            read.append(key)
            return dict.get(self, key, default)

    typed_table = semigroup._typed_table

    def counting(*args):
        *rest, table = typed_table(*args)
        return (*rest, Table(table))

    monkeypatch.setattr(semigroup, "_typed_table", counting)
    assert SquareFreeSemigroup.validate(*CHAIN4) is chain4
    src, tgt, elements = chain4.src, chain4.tgt, chain4.elements
    pairs = sum(tgt[a] == src[b] for a in elements for b in elements)
    paths = sum(tgt[a] == src[b] and tgt[b] == src[c]
                for a in elements for b in elements for c in elements)
    assert paths == 35
    assert read and all(tgt[x] == src[y] for x, y in read)
    assert len(read) <= pairs + 3 * paths


def test_tetrahedron_face_poset():
    # 14 idempotents, past the instance cap but not the library's
    from oracles import full_scan_validate

    idempotents, arrows, products = tetrahedron()
    sg = SquareFreeSemigroup.validate(idempotents, arrows, products)
    assert len(sg.idempotents) == 14 and len(sg.arrows()) == 36
    assert sum(1 for s, t in sg.tuples(2)
               if not sg.is_idempotent(s) and not sg.is_idempotent(t)) == 24
    assert full_scan_validate(idempotents, arrows, products) == []


# ---------------------------------------------------------------------------
# automorphisms: the constructor's check and enumerate_autos against the
# permutation scan over all |S*|^2 products


def layered_poset(layers=4):
    """Two idempotents per layer, an arrow from each to each one in every
    higher layer, and every composite: 8 idempotents and |Aut S| = 16."""
    idempotents = [f"{n}{i}" for n in "abcd"[:layers] for i in "12"]
    arrows = [(f"{x}{y}", x, y) for x in idempotents for y in idempotents if x[0] < y[0]]
    products = {(f"{x}{y}", f"{y}{z}"): f"{x}{z}"
                for x, y, z in itertools.product(idempotents, repeat=3) if x[0] < y[0] < z[0]}
    return idempotents, arrows, products


# the diamond with a long arrow and one of its two paths composing to it:
# swapping e2 and e3 extends through the slots but breaks s12.s24 = s14
HALF_DIAMOND = (["e1", "e2", "e3", "e4"],
                [("s12", "e1", "e2"), ("s13", "e1", "e3"), ("s14", "e1", "e4"),
                 ("s24", "e2", "e4"), ("s34", "e3", "e4")],
                {("s12", "s24"): "s14"})


def valid_random_tables(draws=3000, seed=1717):
    """The semigroups among seeded random_table draws."""
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        try:
            out.append(SquareFreeSemigroup.validate(*random_table(rng)))
        except SemigroupInvalid:
            pass
    return out


def scan_words(sg, n):
    """(word, product) for the n-tuples of elements in itertools.product
    order whose theta-absorbing product is nonzero. A word is extended only
    past a nonzero prefix: theta absorbs, so the words skipped all have
    product theta."""
    words = [((), None)]
    for i in range(n):
        words = [(w + (t,), t if i == 0 else sg.compose(p, t))
                 for w, p in words for t in sg.elements]
        words = [(w, p) for w, p in words if p is not None]
    return words


def test_tuples_and_composable_match_the_product_scan():
    # order as well as content: the sparse table is laid down in tuples
    # order, and the word extension keeps it
    shapes = [tetrahedron(), face_poset(RP2_6)]
    faces = [SquareFreeSemigroup.validate(*shape) for shape in shapes]
    for shape, sg in zip(shapes, faces):
        assert list(_typed_table(*shape)[4].items()) == scan_words(sg, 2)
    for sg in faces + valid_random_tables():
        assert sg.tuples(0) == [(s,) for s in sg.elements if sg.is_idempotent(s)]
        for n in (1, 2, 3, 4):
            assert sg.tuples(n) == [w for w, _ in scan_words(sg, n)]
        frame = sg.composable()
        pairs = scan_words(sg, 2)
        assert list(frame.product.items()) == pairs and None not in frame.product.values()
        assert frame.pairs == tuple((s, t, st) for (s, t), st in pairs)
        assert frame.triples == tuple((s, t, u, sg.compose(s, t), sg.compose(t, u))
                                      for (s, t, u), _ in scan_words(sg, 3))
        assert frame.right == {s: tuple((t, st) for (s2, t), st in pairs if s2 == s)
                               for s in sg.elements}
        with pytest.raises(UnknownElement):
            sg.compose(sg.elements[0], "zz")


def test_enumerate_autos_matches_permutation_scan():
    from oracles import permutation_scan_autos
    from test_bench_contract import load


    shapes = [diamond(), chain2(), make_chain4(), make_sphere(),
              SquareFreeSemigroup.validate(*HALF_DIAMOND),
              SquareFreeSemigroup.validate(*layered_poset())]
    shapes += [SquareFreeSemigroup.validate(*shape) for shape in load("workloads").SHAPES.values()]
    for sg in shapes:
        assert [a.sort_key() for a in sg.enumerate_autos()] == permutation_scan_autos(sg)
    assert len(shapes[3].enumerate_autos()) == 8 and len(shapes[5].enumerate_autos()) == 16
    assert len(shapes[4].enumerate_autos()) == 1
    tables = valid_random_tables()
    nontrivial = 0
    for sg in tables:
        autos = sg.enumerate_autos()
        assert [a.sort_key() for a in autos] == permutation_scan_autos(sg)
        nontrivial += len(autos) > 1
    assert len(tables) > 1500 and nontrivial > 250


def test_assignments_match_a_product_scan():
    # with values that do not read the partial map, the search yields the
    # maps of itertools.product whose arrows all fit, in that order, and
    # asks each arrow as soon as both of its ends are set, once for each
    # partial map that reaches its later end
    fixtures = [diamond(), chain2(), make_chain4(), make_sphere(),
                SquareFreeSemigroup.validate(*HALF_DIAMOND),
                SquareFreeSemigroup.validate(*layered_poset()),
                SquareFreeSemigroup.validate(*tetrahedron())]
    for sg in fixtures + valid_random_tables():
        index = {s: i for i, s in enumerate(sg.elements)}
        last = {s: max(sg.idempotents.index(sg.src[s]), sg.idempotents.index(sg.tgt[s]))
                for s in sg.arrows()}
        for k in (2, 3) if len(sg.idempotents) <= 6 else (2,):
            asked = []

            def fit(s, assigned):
                return (index[s] + assigned[sg.src[s]] + 2 * assigned[sg.tgt[s]]) % 3 != 0

            def fits(s, assigned):
                assert list(assigned) == list(sg.idempotents[:last[s] + 1])
                asked.append((s, tuple(assigned.items())))
                return fit(s, assigned)

            def values(e, assigned):
                assert list(assigned) == list(sg.idempotents[:sg.idempotents.index(e)])
                return range(k)

            got = [tuple(assigned.items()) for assigned in sg.assignments(values, fits)]
            scan = [tuple(zip(sg.idempotents, m))
                    for m in itertools.product(range(k), repeat=len(sg.idempotents))]
            assert got == [m for m in scan if all(fit(s, dict(m)) for s in sg.arrows())]
            assert len(asked) == len(set(asked))


def test_aut_s_of_the_face_posets():
    # the automorphisms of a face poset are those of its simplicial complex:
    # S4 on the tetrahedron, A5 on RP^2_6 and Z7 x| Z6 on the 7-vertex torus
    from sympy.combinatorics import Permutation, PermutationGroup

    for shape, order in ((tetrahedron(), 24), (face_poset(RP2_6), 60),
                         (face_poset(TORUS_7), 42)):
        sg = SquareFreeSemigroup.validate(*shape)
        autos = sg.enumerate_autos()
        assert [a.sort_key() for a in autos] == sorted({a.sort_key() for a in autos})
        assert len(autos) == order and autos.count(SemigroupAuto.identity(sg)) == 1
        perms = [Permutation([sg.idempotents.index(a(e)) for e in sg.idempotents])
                 for a in autos]
        assert PermutationGroup(perms).order() == order


def test_constructor_accepts_exactly_the_automorphisms():
    from oracles import all_products_preserved

    rng = random.Random(2718)
    outcomes = collections.Counter()
    for sg in valid_random_tables():
        autos = sg.enumerate_autos()
        elements = list(sg.elements)
        arrows = sg.arrows()
        maps = []
        for _ in range(2):
            images = rng.sample(elements, len(elements))
            maps.append(dict(zip(elements, images)))
        maps.append(dict(rng.choice(autos).mapping))
        if arrows:
            for _ in range(2):
                e, s = rng.choice(sg.idempotents), rng.choice(arrows)
                swapped = dict(rng.choice(autos).mapping)
                inverse = {v: k for k, v in swapped.items()}
                swapped[inverse[e]], swapped[inverse[s]] = s, e
                maps.append(swapped)
        for m in maps:
            if all_products_preserved(sg, m):
                phi = SemigroupAuto(sg, m)
                assert phi.mapping == m and any(phi is a for a in autos)
                outcomes["auto"] += 1
            else:
                with pytest.raises(SemigroupInvalid, match="map does not preserve products"):
                    SemigroupAuto(sg, m)
                outcomes["refused"] += 1
        # not bijections: an element left out, or an image repeated
        m = dict(autos[0].mapping)
        missing = dict(m)
        del missing[elements[-1]]
        repeated = dict(m, **{elements[0]: m[elements[-1]]}) if len(elements) > 1 else {}
        for bad in (missing, repeated, dict(m, zz=elements[0])):
            with pytest.raises(UnknownElement, match="not a bijection"):
                SemigroupAuto(sg, bad)
        # the store holds the automorphisms and nothing else
        assert sorted(sg._made_autos) == [a.sort_key() for a in autos]
        assert all(sg._made_autos[a.sort_key()] is a for a in autos)
    assert outcomes["auto"] > 2000 and outcomes["refused"] > 2000


def test_one_object_per_automorphism():
    for sg in (diamond(), make_sphere(), SquareFreeSemigroup.validate(*layered_poset())):
        autos = sg.enumerate_autos()
        assert sg.enumerate_autos() is not autos
        assert all(x is y for x, y in zip(sg.enumerate_autos(), autos))
        for a in autos:
            assert SemigroupAuto(sg, dict(a.mapping)) is a
            assert auto_from_json(sg, auto_to_json(a)) is a
            assert any(a.inverse() is b for b in autos)
            assert a.compose(a.inverse()) is SemigroupAuto.identity(sg)
            for b in autos:
                assert any(a.compose(b) is c for c in autos)
        assert len(set(autos)) == len(autos)
        assert [a.is_identity() for a in autos].count(True) == 1


def test_rejected_candidates_are_not_stored():
    # each permutation of E extends through the slots of the half diamond,
    # and the swap of e2 and e3 is refused
    sg = SquareFreeSemigroup.validate(*HALF_DIAMOND)
    assert list(sg._made_autos.values()) == [SemigroupAuto.identity(sg)]
    assert len(sg.enumerate_autos()) == 1
    assert list(sg._made_autos.values()) == [SemigroupAuto.identity(sg)]
    swap = {"e2": "e3", "e3": "e2", "s12": "s13", "s13": "s12", "s24": "s34", "s34": "s24"}
    with pytest.raises(SemigroupInvalid, match="map does not preserve products"):
        SemigroupAuto(sg, {**{s: s for s in sg.elements}, **swap})
    assert len(sg._made_autos) == 1


def test_semigroup_json_lists_the_declared_products():
    # the non-forced products in the order of the |S*|^2 scan over the table
    for sg in [diamond(), make_chain4(), make_sphere()] + valid_random_tables(300):
        expected = [{"left": a, "right": b, "result": sg.compose(a, b)}
                    for a in sg.elements for b in sg.elements
                    if not (sg.is_idempotent(a) or sg.is_idempotent(b))
                    and sg.compose(a, b) is not None]
        assert semigroup_to_json(sg)["products"] == expected
