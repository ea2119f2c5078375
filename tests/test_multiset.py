"""Multiset families and L1 distance against the swept references.

A family is swept only where two of its cells can meet; these tests check
the constructor, ``add`` and ``flip`` against the routes that sweep every
family, and ``distance`` of the same entries read as maps against the
per-key sweep of their multisets (``tests/oracles.py``).  The steps that
build a multiset straight from cells rely on every family being canonical,
which the last test checks after each step that makes one.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import DSE, Atom, PartialMap, distance, initial_division
from dsekit.decompose import pair_profiles
from dsekit.division import _take_by_rows
from dsekit.multiset import GraphMultiset

from conftest import symmetric_cells
from oracles import (reference_flip_families, reference_l1_distance,
                     reference_multiset_families)

D = 12


def _sources(slope: int, off: int) -> tuple[int, int]:
    """The numerators over D of the sources of the family (slope, off/D)
    that it maps into [0, 1)."""
    if slope == 1:
        return max(0, -off), min(D, D - off)
    return max(0, off - D), min(D, off)


family_keys = st.one_of(
    st.tuples(st.just(1), st.integers(-D + 1, D - 1)),
    st.tuples(st.just(-1), st.integers(1, 2 * D - 1)))


@st.composite
def entries_of(draw, key, count, mults=st.integers(0, 3)):
    """count entries of the family key, on sources D may not divide."""
    slope, off = key
    start, stop = _sources(slope, off)
    out = []
    for _ in range(count):
        lo = draw(st.integers(start, stop - 1))
        hi = draw(st.integers(lo + 1, stop))
        out.append((Atom(F(lo, D), F(hi, D), slope, F(off, D)), draw(mults)))
    return out


@st.composite
def multiset_pairs(draw):
    """Entries of two multisets with, in every example: a family on both
    sides with equal cells, one on both sides with different cells, one
    on one side only as a single entry, one on the other side only with
    multiplicity above 1 where its entries overlap, and more families of
    each kind, of one to three entries each."""
    keys = draw(st.lists(family_keys, min_size=4, max_size=9, unique=True))
    one = st.integers(1, 3)
    equal = draw(entries_of(keys[0], draw(st.integers(1, 3)), one))
    changed = draw(entries_of(keys[1], draw(st.integers(1, 3)), one))
    extra = draw(entries_of(keys[1], 1, one))
    single = draw(entries_of(keys[2], 1, one))
    overlapping = draw(entries_of(keys[3], 1, one)) * 2
    a = equal + changed + single
    b = equal[::-1] + changed + extra + overlapping
    for key in keys[4:]:
        side = draw(st.sampled_from(("a", "b", "both")))
        if side != "b":
            a += draw(entries_of(key, draw(st.integers(1, 3))))
        if side != "a":
            b += draw(entries_of(key, draw(st.integers(1, 3))))
    return draw(st.permutations(a)), draw(st.permutations(b))


def _families(g: GraphMultiset) -> tuple[list, int]:
    return list(g._fam.items()), g._d


def _reference(fields: tuple[dict, int]) -> tuple[list, int]:
    fam, d = fields
    return list(fam.items()), d


@settings(max_examples=200, deadline=None)
@given(multiset_pairs())
def test_families_flip_and_add_match_the_swept_reference(pair):
    a, b = pair
    for entries in pair:
        g = GraphMultiset(entries)
        assert _families(g) == _reference(reference_multiset_families(entries))
        assert _families(g.flip()) == _reference(reference_flip_families(g))
        assert g.flip().flip() == g
    assert (_families(GraphMultiset(a).add(GraphMultiset(b)))
            == _reference(reference_multiset_families(a + b)))


@settings(max_examples=200, deadline=None)
@given(multiset_pairs())
def test_l1_distance_matches_the_per_key_sweep(pair):
    g, h = map(GraphMultiset, pair)
    # each entry (atom, m) as m single-atom maps of a multiplicity-1 element
    a, b = (DSE([PartialMap([atom]) for atom, m in entries for _ in range(m)],
                1) for entries in pair)
    assert distance(a, b) == reference_l1_distance(g, h) > 0
    assert distance(b, a) == reference_l1_distance(h, g)
    assert distance(a, a) == 0
    assert distance(a, DSE([], 1)) == g.mass()


def test_a_negative_multiplicity_is_rejected():
    with pytest.raises(ValueError) as exc:
        GraphMultiset([(Atom(0, 1, 1, 0), 1), (Atom(0, F(1, 2), 1, 0), -1)])
    assert str(exc.value) == "negative multiplicity"


def test_a_lone_entry_is_its_own_cell_and_a_shared_key_is_swept():
    lone = Atom(0, F(1, 2), 1, F(1, 4))
    g = GraphMultiset([(lone, 2), (Atom(0, F(1, 2), 1, 0), 1),
                       (Atom(F(1, 4), F(3, 4), 1, 0), 1)])
    assert dict(g.families()) == {
        (1, 0): ((0, F(1, 4), 1), (F(1, 4), F(1, 2), 2), (F(1, 2), F(3, 4), 1)),
        (1, F(1, 4)): ((0, F(1, 2), 2),)}
    assert dict(g.flip().families())[(1, F(-1, 4))] == ((F(1, 4), F(3, 4), 2),)


def assert_canonical(g: GraphMultiset) -> None:
    """Every family's cells are sorted, disjoint and nonzero, and no two
    touching cells have equal levels: the form ``__eq__`` compares."""
    for key, cells in g._fam.items():
        assert cells, key
        assert all(lo < hi and m for lo, hi, m in cells), key
        for (_, hi, m), (lo, _, n) in zip(cells, cells[1:]):
            assert hi < lo or hi == lo and m != n, key


@settings(max_examples=200, deadline=None)
@given(multiset_pairs(), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_every_step_keeps_the_cells_canonical(pair, level, n, seed):
    a, b = pair
    g, h = GraphMultiset(a), GraphMultiset(b)
    maps = [PartialMap([atom]) for atom, m in a for _ in range(m)]
    rows = g._degree(False)
    for out in (g, h, GraphMultiset.from_maps(maps), g.add(h),
                g.add(h).subtract(h), g.flip(), g._lift(3 * g._d),
                pair_profiles(rows, g._degree(True), g._d),
                _take_by_rows(g, tuple((lo, hi, v - 1) for lo, hi, v in rows))):
        assert_canonical(out)
    g = symmetric_cells(seed, level, n)
    assert_canonical(initial_division(g).oriented)
