"""The shared chain-search engine against the two searches it replaced.

``tests/oracles.py`` keeps the extension search and the better-path search
as they stood when each grew and backtracked its own chain, offering every
step the whole running union of the opened sets.  Every call the growth
and descent loops make is answered by both, and the answers must be equal
atom for atom: the same pieces, whose domains and images are the sources
and targets, or both None.  An extension step runs its greedy pass over
only the live part of that union; a step-by-step audit checks that the
lemma piece is the same either way.
"""

import random
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (EMPTY, FULL, Atom, IntervalSet, PartialMap,
                    almost_decompose, division)
from dsekit import near_full_piece, near_perfect_division, pieces, symmetrize
from dsekit.gallery import counterexample

from conftest import cell_division, random_cell_dse, rotations_3_5_and_ce4
from oracles import (reference_backtrack, reference_backtrack_path,
                     reference_find_better_path, reference_find_extension)


def compare_extensions(monkeypatch) -> list:
    """Make every find_extension call also run the reference; returns the
    list of (found?) outcomes, one per call."""
    engine = pieces.find_extension
    outcomes = []

    def both(d, theta, max_depth, occupied=None):
        args = (d, theta, max_depth) + ((occupied,) if occupied else ())
        got = engine(*args)
        assert got == reference_find_extension(d, theta, max_depth, occupied)
        outcomes.append(got is not None)
        return got

    monkeypatch.setattr(pieces, "find_extension", both)
    return outcomes


def compare_paths(monkeypatch) -> list:
    """The same for every find_better_path call."""
    engine = division.find_better_path
    outcomes = []

    def both(d, max_length, consumed=None):
        args = (d, max_length) + ((consumed,) if consumed is not None else ())
        got = engine(*args)
        assert got == reference_find_better_path(d, max_length, consumed)
        outcomes.append(got is not None)
        return got

    monkeypatch.setattr(division, "find_better_path", both)
    return outcomes


def audit_live_steps(monkeypatch) -> list:
    """Make every lemma piece built over live sources also be built over
    all of its source set a, and assert that both are the same map;
    returns, per such step, whether the live set was smaller than a."""
    lemma = pieces.lemma_piece
    pruned = []

    def both(d, a, b, blocker=pieces.EMPTY_MAP, *, live=None):
        got = lemma(d, a, b, blocker, live=live)
        if live is not None:
            assert got == lemma(d, a, b, blocker)
            pruned.append(live != a)
        return got

    monkeypatch.setattr(pieces, "lemma_piece", both)
    return pruned


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_extensions_match_reference_on_counterexamples(monkeypatch, k):
    outcomes = compare_extensions(monkeypatch)
    near_full_piece(counterexample(k), F(1, 64))
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 9])
def test_paths_match_reference_on_symmetrized_counterexamples(monkeypatch, k):
    outcomes = compare_paths(monkeypatch)
    near_perfect_division(symmetrize(counterexample(k)).matrix, F(1, 64))
    assert any(outcomes) and not all(outcomes)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
def test_searches_match_reference_on_reflected_cells(level, n, seed):
    d = random_cell_dse(random.Random(seed), level, n, reflections=True)
    with pytest.MonkeyPatch.context() as mp:
        compare_extensions(mp)
        near_full_piece(d, F(1, 64))
    with pytest.MonkeyPatch.context() as mp:
        compare_paths(mp)
        near_perfect_division(symmetrize(d).matrix, F(1, 64))


def test_searches_match_reference_on_a_non_dyadic_element(monkeypatch):
    d = rotations_3_5_and_ce4()
    outcomes = compare_extensions(monkeypatch)
    almost_decompose(d, F(1, 16))
    assert any(outcomes) and not all(outcomes)
    outcomes = compare_paths(monkeypatch)
    near_perfect_division(symmetrize(d).matrix, F(1, 16))
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("grow", [
    lambda: near_full_piece(counterexample(8), F(1, 64)),
    lambda: almost_decompose(rotations_3_5_and_ce4(), F(1, 16))],
    ids=["ce8", "rotations"])
def test_live_sources_give_the_lemma_piece_of_all_opened_sources(
        monkeypatch, grow):
    """The greedy piece of the rotation element covers the space, so its
    extension steps come from the later peels of a decomposition."""
    pruned = audit_live_steps(monkeypatch)
    grow()
    assert any(pruned), "no chain step had a dead source to skip"


def test_extension_search_stops_at_its_depth_cap():
    """On counterexample(2) the shortest extension has two pieces, so depth
    0 stops the chain at its cap, and depth 1 lets it reach the exit."""
    d = counterexample(2)
    theta = pieces.greedy_maximal_map(d.maps, FULL, EMPTY)
    assert pieces.find_extension(d, theta, 0) is None
    ext = pieces.find_extension(d, theta, 1)
    assert ext is not None and ext.length == 2
    pieces.validate_extension(d, theta, ext)


def test_path_search_stops_at_its_length_cap():
    """Quarters 0 -> 1, 2 -> 3 oriented: P+ is quarter 0 and P- quarter 3,
    with no edge between them, so every better path has two pieces."""
    div = cell_division(4, (0, 1), (0, 2), (1, 3), (2, 3))
    assert div.p_plus == IntervalSet.interval(0, F(1, 4))
    assert div.p_minus == IntervalSet.interval(F(3, 4), 1)
    assert division.find_better_path(div, 1) is None
    path = division.find_better_path(div, 2)
    assert path is not None and path.length == 2
    assert division.apply_better_path(div, path).error == 0


def cells(lo: int, hi: int) -> IntervalSet:
    """The 64ths lo..hi-1."""
    return IntervalSet.interval(F(lo, 64), F(hi, 64))


def cell_map(src: int, dst: int, width: int = 1) -> PartialMap:
    """The 64ths src.. carried in order onto dst.., ``width`` of them."""
    return PartialMap([Atom(F(src, 64), F(src + width, 64), 1,
                            F(dst - src, 64))])


def engine_backtrack(chain, link, exit_set):
    """``_backtrack`` of a hand-built chain on the running unions
    ``_chain_search`` keeps of the images but the last, each opened through
    the link; also the opened sets, the first piece's domain at index 0,
    and the exit hit, for the references."""
    opened_at = [chain[0].domain] + [
        pm.image if link is None else link.preimage_of(pm.image)
        for pm in chain[:-1]]
    unions = list(accumulate(opened_at[1:], IntervalSet.union, initial=EMPTY))
    hit = chain[-1].image.intersect(exit_set)
    return pieces._backtrack(chain, unions, link, hit), opened_at, hit


@pytest.mark.parametrize("last, length", [
    (1, 1), (0, 1), (11, 2), (12, 3), (13, 4), (15, 6), (18, 9), (19, 10)])
def test_path_descent_finds_the_smallest_index(last, length):
    """W_0 = 64ths 0-1 goes onto W_1 = 10-11; then 10 -> 12 and 10+k ->
    11+k for k = 2..8 make W_2..W_9 = 12..19, and a tenth piece leaves
    ``last`` for the exit, 40 on.  Its descent skips to the first W_t
    holding ``last`` and, from W_0 (last = 0 or 1), lands on index 0."""
    chain = [cell_map(0, 10, 2), cell_map(10, 12)]
    chain += [cell_map(10 + k, 11 + k) for k in range(2, 9)]
    chain.append(cell_map(last, 40))
    got, opened_at, hit = engine_backtrack(chain, None, cells(40, 64))
    assert got == reference_backtrack_path(chain, opened_at, hit)
    assert got.length == length
    assert got.targets[-1] == cells(40, 41)


@pytest.mark.parametrize("last, length", [
    (16, 2), (17, 3), (19, 5), (22, 8), (24, 10)])
def test_extension_descent_finds_the_smallest_index(last, length):
    """theta carries 64ths 16-31 onto 32-47.  The chain goes 0 -> 32 and
    15+k -> 32+k for k = 1..8, so theta opens 16..24 in turn, and a tenth
    piece leaves ``last`` for the exit outside theta's image.  The descent
    skips to the first opened set holding ``last``, then walks down to
    index 0, the first piece's domain."""
    theta = cell_map(16, 32, 16)
    chain = [cell_map(0, 32)] + [cell_map(15 + k, 32 + k) for k in range(1, 9)]
    chain.append(cell_map(last, 60))
    got, opened_at, hit = engine_backtrack(chain, theta,
                                           theta.image.complement())
    assert got == reference_backtrack(theta, chain, opened_at[1:], hit)
    assert got.length == length
    assert got.sources[0] == cells(0, 1)


@pytest.mark.parametrize("last, length, start", [
    (0, 1, 0), (11, 2, 1), (12, 3, 1), (13, 4, 1)])
def test_path_descent_through_overlapping_opened_sets(last, length, start):
    """W_0 = 64ths 0-1 goes onto W_1 = 10-11, then 10-11 -> 11-12 makes
    W_2, which overlaps W_1, and 11-12 -> 12-13 makes W_3, which overlaps
    W_2.  A fourth piece leaves ``last`` for the exit: 11 lies in W_1 and
    W_2, and the descent takes the first; 12 and 13 lie first in W_2 and
    W_3.  Each descent ends on the 64th ``start`` of W_0."""
    chain = [cell_map(0, 10, 2), cell_map(10, 11, 2), cell_map(11, 12, 2),
             cell_map(last, 40)]
    got, opened_at, hit = engine_backtrack(chain, None, cells(40, 64))
    assert got == reference_backtrack_path(chain, opened_at, hit)
    assert got.length == length
    assert got.sources[0] == cells(start, start + 1)


@pytest.mark.parametrize("last, length", [(16, 2), (17, 2), (18, 3), (19, 3)])
def test_extension_descent_through_overlapping_opened_sets(last, length):
    """theta carries 64ths 16-31 onto 32-47.  The chain goes 0-1 -> 32-33,
    which opens 16-17; 16-17 -> 34-35, which opens 18-19; and 18-19 ->
    33-34, which opens 17-18, overlapping both.  A fourth piece leaves
    ``last`` for the exit; the descent takes the first opened set holding
    it, then walks down to the first piece's domain."""
    theta = cell_map(16, 32, 16)
    chain = [cell_map(0, 32, 2), cell_map(16, 34, 2), cell_map(18, 33, 2),
             cell_map(last, 60)]
    got, opened_at, hit = engine_backtrack(chain, theta,
                                           theta.image.complement())
    assert got == reference_backtrack(theta, chain, opened_at[1:], hit)
    assert got.length == length
    assert got.sources[0].measure() == F(1, 64)


def test_descent_levels_cost_logarithmic_intersections(monkeypatch):
    """Every descent level of a backtrack over a chain of L pieces makes at
    most ceil(log2 L) + 3 intersections; scanning every index below a
    level makes up to L of them, and the chains here grow past 32."""
    backtrack, intersect = pieces._backtrack, IntervalSet.intersect
    state = {"inside": False, "count": 0}
    calls = []

    def counting_intersect(self, other):
        state["count"] += state["inside"]
        return intersect(self, other)

    def counted_backtrack(chain, *rest):
        state.update(inside=True, count=0)
        try:
            got = backtrack(chain, *rest)
        finally:
            state["inside"] = False
        calls.append((len(chain), got.length, state["count"]))
        return got

    monkeypatch.setattr(IntervalSet, "intersect", counting_intersect)
    monkeypatch.setattr(pieces, "_backtrack", counted_backtrack)
    almost_decompose(counterexample(8), F(1, 16))
    assert max(length for length, _, _ in calls) > 32
    for length, levels, count in calls:
        assert count <= ((length - 1).bit_length() + 3) * levels
