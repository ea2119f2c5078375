"""The sweep normalize_cover against the quadratic reference in oracles.py.

Equality is atom for atom: the same maps in the same order, each with the
same canonical atoms, so every artifact built from them is byte-identical.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import DSE, Atom, PartialMap, almost_decompose, normalize_cover
from dsekit import decompose as decompose_mod
from dsekit.dse import _split_into_injective
from dsekit.gallery import counterexample

from conftest import random_cell_dse
from oracles import reference_normalize_cover, reference_split_into_injective


def atoms_of(maps) -> list[tuple[Atom, ...]]:
    return [m.atoms for m in maps]


def assert_matches_reference(m, n):
    got = normalize_cover(m, n)
    want = reference_normalize_cover(m, n)
    assert atoms_of(got.maps) == atoms_of(want.maps)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_matches_reference_on_reflected_cells(level, n, seed):
    d = random_cell_dse(random.Random(seed), level, n, reflections=True)
    assert_matches_reference(d.matrix, n)


def rotation(a: F) -> PartialMap:
    """x -> x + a mod 1."""
    return PartialMap([Atom(0, 1 - a, 1, a), Atom(1 - a, 1, 1, a - 1)])


def reflection(a: F) -> PartialMap:
    """x -> a - x mod 1."""
    return PartialMap([Atom(0, a, -1, a), Atom(a, 1, -1, 1 + a)])


non_dyadic = st.sampled_from([3, 5, 7, 9, 11, 13]).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: F(p, q)))
rotation_maps = st.lists(
    st.tuples(st.sampled_from([rotation, reflection]), non_dyadic),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(rotation_maps)
def test_matches_reference_on_non_dyadic_rotations(specs):
    d = DSE([make(a) for make, a in specs], len(specs))
    assert_matches_reference(d.matrix, d.multiplicity)


@pytest.mark.parametrize("k", [4, 6])
def test_matches_reference_on_peel_residuals(k, monkeypatch):
    seen = []

    def spy(m, n):
        seen.append((m, n))
        return normalize_cover(m, n)

    monkeypatch.setattr(decompose_mod, "normalize_cover", spy)
    almost_decompose(counterexample(k), F(1, 16))
    assert len(seen) == 2       # one peel residual, then the final n = 1
    for m, n in seen:
        assert_matches_reference(m, n)


# -- layers whose +1/-1 branch pairs cross in the awkward places ---------------

FOLD = [Atom(F(1, 4), F(1, 2), 1, 0),              # image [1/4, 1/2)
        Atom(F(1, 2), F(3, 4), -1, 1)]             # image [1/4, 1/2)


def assert_split(layer, expected):
    got = _split_into_injective(layer)
    assert atoms_of(got) == atoms_of(reference_split_into_injective(layer))
    assert atoms_of(got) == atoms_of(PartialMap(e) for e in expected)


def test_split_pair_crossing_at_shared_image_endpoint():
    # x = y and x = 1 - y cross at y = 1/2, where both images end
    assert_split(FOLD, [[FOLD[0]], [FOLD[1]]])


def test_split_pair_crossing_outside_common_image():
    up = Atom(0, F(1, 2), 1, F(1, 2))              # image [1/2, 1)
    down = Atom(F(1, 2), F(3, 4), -1, F(5, 4))     # image [1/2, 3/4)
    # they cross at y = 7/8, where only `up` is live: its piece stays whole
    assert_split([up, down], [[up], [down]])


def test_split_three_branches_meeting_in_one_point():
    # the fold crosses at y = 1/2, where a third branch's image begins
    third = Atom(0, F(1, 4), 1, F(1, 2))           # image [1/2, 3/4)
    assert_split(FOLD + [third], [[FOLD[0], third], [FOLD[1]]])


def test_split_crossing_with_doubled_denominator():
    up = Atom(0, F(1, 3), 1, F(1, 3))              # image [1/3, 2/3)
    down = Atom(F(1, 3), F(2, 5), -1, F(2, 5))     # image [0, 1/15)
    side = Atom(F(2, 3), 1, -1, F(5, 3))           # image [2/3, 1)
    # offsets 1/3 and 2/5 cross at 11/30: no emitted endpoint may carry it
    assert_split([up, down, side], [[up, down, side]])
    ends = [x for a in _split_into_injective([up, down, side])[0].atoms
            for x in (a.lo, a.hi)]
    assert all(15 % x.denominator == 0 for x in ends)
