"""The family step of both growth lemmas against the fold it replaced.

``enlarge_piece`` and ``improve_division`` hand the maximal disjoint family
that ``_harvest`` returns to ``pieces._extended`` (the step behind
``apply_extension``) or ``apply_better_path`` in one call.
``tests/oracles.py`` keeps the fold: each chain validated against the
piece or division the chains before it left, and a whole new one built
for it.  On every family the growth loops apply, both must give
the same piece atom for atom, and the same oriented multiset.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (EMPTY, FULL, Chain, division, greedy_maximal_map,
                    initial_division, near_full_piece, near_perfect_division,
                    peel, pieces, symmetrize)
from dsekit.errors import BoundViolated, InvalidExtension, InvalidPath
from dsekit.gallery import counterexample

from conftest import random_cell_dse, rotations_3_5_7_and_ce4, shift
from oracles import reference_apply_better_paths, reference_apply_extensions


def fold_checked(monkeypatch) -> list:
    """Make every family step also run the fold on the same family, and
    assert equal results; returns each family's size, extensions and
    paths alike."""
    extend, reverse = pieces._extended, division.apply_better_path
    sizes = []

    def extensions(d, theta, family):
        got = extend(d, theta, family)
        want = reference_apply_extensions(d, theta, family)
        assert got.atoms == want.atoms
        assert (got.domain, got.image) == (want.domain, want.image)
        sizes.append(len(family))
        return got

    def paths(d, *family):
        got = reverse(d, *family)
        want = reference_apply_better_paths(d, family)
        assert got.oriented._fam == want.oriented._fam
        assert got.oriented._d == want.oriented._d
        assert got.error == want.error
        sizes.append(len(family))
        return got

    monkeypatch.setattr(pieces, "_extended", extensions)
    monkeypatch.setattr(division, "apply_better_path", paths)
    return sizes


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_families_on_counterexamples_match_the_fold(monkeypatch, k):
    sizes = fold_checked(monkeypatch)
    near_full_piece(counterexample(k), F(1, 64))
    near_perfect_division(symmetrize(counterexample(k)).matrix, F(1, 64))
    assert sizes


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
def test_families_on_reflected_cells_match_the_fold(level, n, seed):
    d = random_cell_dse(random.Random(seed), level, n, reflections=True)
    with pytest.MonkeyPatch.context() as mp:
        fold_checked(mp)
        near_full_piece(d, F(1, 64))
        near_perfect_division(symmetrize(d).matrix, F(1, 64))


def test_families_on_the_rotation_element_match_the_fold(monkeypatch):
    """Its first three peels, and a division of its symmetrization, apply
    families of several chains."""
    d = rest = rotations_3_5_7_and_ce4()
    sizes = fold_checked(monkeypatch)
    for eps in (F(1, 16), F(1, 32), F(1, 64)):
        _, rest, _ = peel(rest, eps)
    assert max(sizes) > 1
    sizes.clear()
    near_perfect_division(symmetrize(d).matrix, F(1, 4))
    assert max(sizes) > 1


# On ce(2) the greedy piece theta maps [0,1/2) by +1/2 and [1/2,3/4) by
# -1/4.  Two genuine extensions end in the same final target [1/8,1/4):
# [3/4,7/8) -> [3/4,7/8), theta^-1 -> [1/4,3/8) -> [1/8,1/4), and
# [7/8,1) -> [7/8,1), theta^-1 -> [3/8,1/2) -> [1/8,1/4).
VIA_QUARTER = Chain((shift(F(3, 4), F(7, 8), 0),
                     shift(F(1, 4), F(3, 8), -F(1, 8))))
VIA_HALF = Chain((shift(F(7, 8), 1, 0), shift(F(3, 8), F(1, 2), -F(1, 4))))


@pytest.mark.parametrize("family, message", [
    ((VIA_QUARTER, VIA_QUARTER), "sources of the chain overlap"),
    ((VIA_QUARTER, VIA_HALF), "final targets of the family overlap"),
], ids=["shared-sources", "shared-final-target"])
def test_overlapping_extensions_are_rejected(family, message):
    d = counterexample(2)
    theta = greedy_maximal_map(d.maps, FULL, EMPTY)
    for ext in family:
        pieces.validate_extension(d, theta, ext)
    with pytest.raises(InvalidExtension) as exc:
        pieces.apply_extension(d, theta, *family)
    assert str(exc.value) == message


def test_overlapping_paths_are_rejected():
    """The initial division of sym(ce(2)) orients +1/8 on [0,1/4) and +1/2
    on [0,1/2); both paths start at [0,1/8)."""
    div = initial_division(symmetrize(counterexample(2)).matrix)
    direct = Chain((shift(0, F(1, 8), F(1, 2)),))
    detour = Chain((shift(0, F(1, 8), F(1, 8)),
                    shift(F(1, 8), F(1, 4), F(1, 2))))
    for path in (direct, detour):
        division.apply_better_path(div, path)
    with pytest.raises(InvalidPath) as exc:
        division.apply_better_path(div, direct, detour)
    assert str(exc.value) == "path sets overlap"


def test_a_misreported_gain_trips_the_error_identity(monkeypatch):
    div = initial_division(symmetrize(counterexample(2)).matrix)
    path = Chain((shift(0, F(1, 8), F(1, 2)),))
    monkeypatch.setattr(Chain, "gain",
                        lambda self: 2 * self.sources[0].measure())
    with pytest.raises(BoundViolated) as exc:
        division.apply_better_path(div, path)
    assert str(exc.value) == "error identity violated"


def test_an_empty_extension_family_trips_the_growth_bound(monkeypatch):
    d = counterexample(2)
    monkeypatch.setattr(pieces, "find_extension", lambda *args: None)
    with pytest.raises(BoundViolated, match="^growth bound violated"):
        pieces.enlarge_piece(d, greedy_maximal_map(d.maps, FULL, EMPTY))


def test_an_empty_path_family_trips_the_improvement_bound(monkeypatch):
    div = initial_division(symmetrize(counterexample(2)).matrix)
    monkeypatch.setattr(division, "find_better_path", lambda *args: None)
    with pytest.raises(BoundViolated, match="^improvement bound violated"):
        division.improve_division(div)
