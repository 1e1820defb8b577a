"""Square-free semigroup validation, tuple spaces, and Aut(S)."""

import itertools

import pytest

from cocycle_forge.errors import SemigroupInvalid, UnknownElement
from cocycle_forge.semigroup import (
    SemigroupAuto, SquareFreeSemigroup, auto_from_json, auto_to_json,
    semigroup_from_json, semigroup_to_json,
)


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
    with pytest.raises(UnknownElement):
        diamond().compose("e1", "zz")


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
    sg = diamond()
    with pytest.raises(SemigroupInvalid):
        sg.enumerate_autos(max_idempotents=3)
    assert len(sg.enumerate_autos(max_idempotents=4)) == 2
    nine = SquareFreeSemigroup.validate([f"e{i}" for i in range(9)], [], {})
    with pytest.raises(SemigroupInvalid):
        nine.enumerate_autos()  # default cap is 8


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
