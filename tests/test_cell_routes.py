"""The grid-cell routes between the matrix steps against the atom routes
they replace, which ``tests/oracles.py`` keeps as references.

``initial_division`` builds its oriented part from the base's own cells,
``pair_profiles`` returns its correction multiset built from unit cells,
and ``peel`` covers the image complement with the maps' own images,
each map restricted to its preimage of its part.  Each must give the
multiset its atom route gives.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (DSE, GraphMultiset, identity_map, initial_division, maps,
                    peel, symmetrize)
from dsekit import decompose as decompose_mod
from dsekit.decompose import pair_profiles
from dsekit.errors import UnsplittableDiagonal
from dsekit.gallery import counterexample
from dsekit.intervals import sweep

from conftest import rotation, symmetric_cells
from oracles import (reference_image_cover, reference_initial_division,
                     reference_pair_profiles)


def assert_divisions_match(g: GraphMultiset) -> None:
    got = initial_division(g).oriented
    want = reference_initial_division(g)
    assert got == want
    assert (got._fam, got._d) == (want._fam, want._d)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_initial_division_matches_the_atom_route(level, n, seed):
    g = symmetric_cells(seed, level, n)
    assert_divisions_match(g)
    # one more identity makes the diagonal odd: both routes refuse alike
    odd = g.add(GraphMultiset.from_maps([identity_map()]))
    with pytest.raises(UnsplittableDiagonal) as got:
        initial_division(odd)
    with pytest.raises(UnsplittableDiagonal) as want:
        reference_initial_division(odd)
    assert str(got.value) == str(want.value)


non_dyadic = st.sampled_from([3, 5, 7, 9, 11, 13]).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: F(p, q)))


@settings(max_examples=40, deadline=None)
@given(non_dyadic, non_dyadic)
def test_initial_division_matches_on_rotation_pairs(a, b):
    assert_divisions_match(
        symmetrize(DSE([rotation(a), rotation(b)], 2)).matrix)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.data())
def test_pair_profiles_matches_the_one_atom_maps(d, data):
    # unit cells of levels -1..3 over d, and the same levels reordered, so
    # both profiles carry the same mass
    levels = data.draw(st.lists(st.integers(-1, 3), min_size=d, max_size=d))
    moved = data.draw(st.permutations(levels))
    src, dst = (sweep(((i, i + 1, v) for i, v in enumerate(ls)), cuts=(0, d))
                for ls in (levels, moved))
    assert pair_profiles(src, dst, d) == reference_pair_profiles(src, dst, d)


@pytest.mark.parametrize("k", [7, 8, 9, 10, 16])
def test_peel_image_cover_matches_the_inverted_back_maps(monkeypatch, k):
    regions, covers = [], []
    cover, rebalance = decompose_mod._cover, decompose_mod._rebalance

    def spy_cover(host, region, image=False):
        regions.append(region)
        return cover(host, region, image)

    def spy_rebalance(m, a, b):
        covers.append(b)
        return rebalance(m, a, b)

    monkeypatch.setattr(decompose_mod, "_cover", spy_cover)
    monkeypatch.setattr(decompose_mod, "_rebalance", spy_rebalance)
    d = counterexample(k)
    peel(d, F(1, 16))
    # the domain complement is covered first, then the image complement
    assert len(regions) == 2 and len(covers) == 1
    assert covers[0] == reference_image_cover(d.maps, regions[1])


def test_the_cell_routes_build_no_atom(monkeypatch):
    g = symmetric_cells(7, 3, 2)
    kinds = {(s, (o > 0) - (o < 0)) for s, o in g._fam}
    assert {(1, 1), (1, 0), (-1, 1)} <= kinds
    src, dst = ((0, 1, 2), (2, 3, 1)), ((1, 2, 1), (3, 4, 2))

    def refuse(self, fields):
        raise AssertionError("an Atom was built")

    monkeypatch.setattr(maps.Atom, "_set", refuse)
    oriented = initial_division(g).oriented
    correction = pair_profiles(src, dst, 4)
    monkeypatch.undo()
    assert oriented == reference_initial_division(g)
    assert correction == reference_pair_profiles(src, dst, 4)
