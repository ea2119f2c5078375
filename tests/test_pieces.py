import random
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (DSE, EMPTY, FULL, Atom, EMPTY_MAP, GraphMultiset,
                    IntervalSet, PartialMap, almost_decompose,
                    apply_extension, enlarge_piece, find_extension,
                    identity_map, lemma_piece, near_full_piece, neighbor_set,
                    symmetric_split, symmetrize, validate)
from dsekit.errors import AlreadyFull, InvalidExtension, PreconditionViolated
from dsekit import pieces
from dsekit.gallery import amplification, counterexample, forest_example
from dsekit.pieces import Chain, greedy_maximal_map, validate_extension

from conftest import half_shift, random_cell_dse, shift
from oracles import reference_graph_intersect, reference_greedy_maximal_map
from test_grid import grid_sets

iv = IntervalSet.interval


@pytest.fixture
def ce2():
    return counterexample(2)


def piece_is_inside_host(d: DSE, p: PartialMap) -> bool:
    """Recover the piece from the host's maps by meeting graphs only."""
    covered = EMPTY
    for m in d.maps:
        covered = covered.union(reference_graph_intersect(p, m).domain)
    return covered == p.domain


def test_maximal_piece_empty_allowed(ce2):
    p = greedy_maximal_map(ce2.maps, EMPTY, EMPTY)
    assert p == EMPTY_MAP


def test_maximal_piece_identity():
    d = DSE([identity_map()], 1)
    p = greedy_maximal_map(d.maps, FULL, EMPTY)
    assert p.domain.measure() == 1


def test_maximal_piece_counterexample(ce2):
    p = greedy_maximal_map(ce2.maps, FULL, EMPTY)
    assert p.domain == iv(0, F(3, 4))
    assert piece_is_inside_host(ce2, p)
    # maximality: the neighbours of the leftover are already covered
    assert p.image.contains(neighbor_set(ce2, p.domain.complement()))


def test_lemma_piece_empty_source(ce2):
    p = lemma_piece(ce2, EMPTY, EMPTY)
    assert p.is_empty()


def test_lemma_piece_identity_bound():
    d = DSE([identity_map()], 1)
    p = lemma_piece(d, iv(0, F(1, 2)), EMPTY)
    assert p.domain.measure() == F(1, 2) >= F(1, 4)


def test_lemma_piece_vacuous_bound(ce2):
    p = lemma_piece(ce2, iv(F(3, 4), 1), iv(F(1, 4), 1))
    assert p.domain.measure() >= 0


def test_lemma_piece_precondition(ce2):
    blocker = greedy_maximal_map(ce2.maps, iv(0, F(1, 4)), EMPTY)
    with pytest.raises(PreconditionViolated):
        lemma_piece(ce2, iv(0, F(1, 2)), EMPTY, blocker)


def test_lemma_piece_target_precondition(ce2):
    """The blocker carries [0,1/4) onto [1/2,3/4) by +1/2."""
    blocker = greedy_maximal_map(ce2.maps, iv(0, F(1, 4)), EMPTY)
    with pytest.raises(PreconditionViolated) as exc:
        lemma_piece(ce2, iv(F(3, 4), 1), iv(F(1, 2), F(5, 8)), blocker)
    assert str(exc.value) == "b meets the blocker's image"


def test_a_map_outside_the_host_is_refused_before_any_chain(
        ce2, monkeypatch):
    """No map of ce(2) translates [0,1/2) by +1/4.  Applying no extension,
    a genuine one of the greedy piece, or a grown family to that map raises
    the support error, and no chain invariant is read first; growing it
    searches no chain."""
    theta = shift(0, F(1, 2), F(1, 4))
    ext = find_extension(ce2, greedy_maximal_map(ce2.maps, FULL, EMPTY), 2)
    assert ext is not None
    monkeypatch.setattr(Chain, "gain", lambda self: pytest.fail(
        "a chain was read before the support check"))
    searches = []
    find = pieces.find_extension
    monkeypatch.setattr(pieces, "find_extension",
                        lambda *args: searches.append(args) or find(*args))
    for run in (lambda: apply_extension(ce2, theta),
                lambda: apply_extension(ce2, theta, ext),
                lambda: enlarge_piece(ce2, theta)):
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == (
            "graph of the map leaves the support of the host")
    assert searches == []


def test_support_checks_run_only_where_a_map_can_enter(monkeypatch):
    """Every piece the library builds restricts the host's own maps, so
    over whole decompositions the support is checked only by
    validate_extension, on the piece a caller hands in, once in each
    growth round, and by the chain checks it shares with enlarge_piece,
    on each chain piece."""
    callers, rounds = [], []
    contains_graph, enlarge = GraphMultiset.contains_graph, pieces.enlarge_piece

    def recorded(self, m):
        callers.append(sys._getframe(1).f_code.co_name)
        return contains_graph(self, m)

    monkeypatch.setattr(GraphMultiset, "contains_graph", recorded)
    monkeypatch.setattr(pieces, "enlarge_piece",
                        lambda *args: rounds.append(args) or enlarge(*args))
    for k in (4, 6, 8):
        almost_decompose(counterexample(k), F(1, 16))
    assert callers and rounds
    assert set(callers) == {"validate_extension", "_check_chains"}
    assert callers.count("validate_extension") == len(rounds)


def test_find_extension_full_piece_returns_none():
    d = DSE([identity_map()], 1)
    full = greedy_maximal_map(d.maps, FULL, EMPTY)
    assert find_extension(d, full, 3) is None


def test_find_extension_depth_zero():
    t = half_shift()
    d = DSE([t, t.invert()], 2)
    theta = t.restrict(iv(0, F(1, 2)))
    ext = find_extension(d, theta, 0)
    assert ext is not None and ext.length == 1
    assert iv(F(1, 2), 1).contains(ext.sources[0])
    assert iv(0, F(1, 2)).contains(ext.targets[-1])


def test_find_extension_counterexample_needs_depth(ce2):
    theta = greedy_maximal_map(ce2.maps, FULL, EMPTY)
    ext = find_extension(ce2, theta, 2)
    assert ext is not None
    assert ext.length >= 2  # the greedy piece is maximal, no 0-depth move
    validate_extension(ce2, theta, ext)


def test_the_greedy_step_cuts_no_piece_one_blocked_interval_holds(
        monkeypatch):
    """Over the split of sym(ce(6)) at 1/16, the greedy kernel hands
    ``_minus`` 181 image pieces in 139 cuts, and none lies inside one
    interval of the blocked window it is cut against: the walk drops those.
    A visit cuts its image pieces first and then, when a part is free,
    cuts its taken sources out of ``left``; that second cut is skipped
    here."""
    minus, cuts, handed, inside = pieces._minus, 0, 0, []
    took = False

    def watched(a, b):
        nonlocal cuts, handed, took
        out = minus(a, b)
        if took:
            took = False
            return out
        cuts, handed, took = cuts + 1, handed + len(a), bool(out)
        inside.extend(p for p in a
                      if any(lo <= p[0] and p[1] <= hi for lo, hi in b))
        return out

    monkeypatch.setattr(pieces, "_minus", watched)
    symmetric_split(symmetrize(counterexample(6)), F(1, 16))
    assert inside == []
    assert (cuts, handed) == (139, 181)


def test_find_extension_caches_piece_preimages(monkeypatch):
    """A chain of k steps calls theta.preimage_of at most 2k + 2 times: once
    per chain image inside the piece's image and once per rebuilt stage."""
    d = counterexample(6)
    theta = greedy_maximal_map(d.maps, FULL, EMPTY)
    for _ in range(3):
        theta = pieces.enlarge_piece(d, theta)
    steps = preimages = 0
    lemma = pieces.lemma_piece
    preimage_of = PartialMap.preimage_of

    def counted_lemma(*args, **kwargs):
        nonlocal steps
        steps += 1
        return lemma(*args, **kwargs)

    def counted_preimage(self, s):
        nonlocal preimages
        if self is theta:
            preimages += 1
        return preimage_of(self, s)

    monkeypatch.setattr(pieces, "lemma_piece", counted_lemma)
    monkeypatch.setattr(PartialMap, "preimage_of", counted_preimage)
    gap = 1 - theta.domain.measure()
    ext = find_extension(d, theta, int(F(7 * d.multiplicity) / gap))
    assert ext is not None and ext.length >= 21
    assert steps >= ext.length
    assert preimages <= 2 * steps + 2
    validate_extension(d, theta, ext)


def test_apply_extension_depth_zero_is_disjoint_union():
    t = half_shift()
    d = DSE([t, t.invert()], 2)
    theta = t.restrict(iv(0, F(1, 2)))
    ext = find_extension(d, theta, 0)
    grown = apply_extension(d, theta, ext)
    assert (grown.domain.measure()
            == theta.domain.measure() + ext.sources[0].measure())
    assert grown.domain == theta.domain.union(ext.sources[0])


def test_apply_extension_grows_counterexample(ce2):
    theta = greedy_maximal_map(ce2.maps, FULL, EMPTY)
    ext = find_extension(ce2, theta, 2)
    grown = apply_extension(ce2, theta, ext)
    assert (grown.domain.measure()
            == theta.domain.measure() + ext.sources[0].measure())
    assert grown.domain.measure() > F(3, 4)
    assert piece_is_inside_host(ce2, grown)


def test_apply_extension_rejects_mismatched(ce2):
    theta = greedy_maximal_map(ce2.maps, FULL, EMPTY)
    ext = find_extension(ce2, theta, 2)
    # a piece whose domain already contains the extension's gain set
    other = greedy_maximal_map(ce2.maps, iv(F(1, 2), 1), EMPTY)
    assert other.domain.contains(ext.sources[0])
    with pytest.raises(InvalidExtension):
        apply_extension(ce2, other, ext)


def test_enlarge_piece_identity_from_empty():
    d = DSE([identity_map()], 1)
    grown = enlarge_piece(d, EMPTY_MAP)
    assert grown.domain.measure() >= F(1, 64)  # bound (1/(7+1))^2; actual 1
    assert grown.domain.measure() == 1


def test_enlarge_piece_counterexample_bound(ce2):
    theta = greedy_maximal_map(ce2.maps, FULL, EMPTY)
    grown = enlarge_piece(ce2, theta)
    assert grown.domain.measure() >= F(3, 4) + F(1, 57) ** 2


def test_enlarge_piece_already_full():
    d = DSE([identity_map()], 1)
    with pytest.raises(AlreadyFull):
        enlarge_piece(d, greedy_maximal_map(d.maps, FULL, EMPTY))


def test_near_full_identity():
    d = DSE([identity_map()], 1)
    assert near_full_piece(d, F(1, 2)).domain.measure() == 1


def test_near_full_symmetrized_shift():
    p = near_full_piece(symmetrize(DSE([half_shift()], 1)), F(1, 4))
    assert p.domain.measure() > F(3, 4)
    assert p.domain.measure() == 1  # the first map is already an automorphism


def test_near_full_counterexample_four():
    d = counterexample(4)
    p = near_full_piece(d, F(1, 16))
    assert p.domain.measure() > F(15, 16)
    assert piece_is_inside_host(d, p)


def test_near_full_requires_positive_eps(ce2):
    with pytest.raises(ValueError):
        near_full_piece(ce2, F(0, 1))


# On ce(2) the greedy piece theta maps [0,1/2) by +1/2 and [1/2,3/4) by
# -1/4, so dom theta = [0,3/4) and im theta = [1/4,1).  The genuine
# extension is [3/4,7/8) -> [3/4,7/8) -> theta^-1 -> [1/4,3/8) -> [1/8,1/4);
# each case breaks one invariant and passes every check before it.
BROKEN_EXTENSIONS = {
    "no-pieces": ((), "gain set S_0 has measure zero"),
    "empty-gain": ((EMPTY_MAP,), "gain set S_0 has measure zero"),
    "gain-inside-domain": ((shift(0, F(1, 8), 0),),
                           "S_0 leaves the domain complement"),
    "final-target-inside-image": (
        (shift(F(3, 4), F(7, 8), 0),),
        "final target leaves the image complement"),
    "overlapping-sources": (
        (shift(F(3, 4), F(7, 8), 0), shift(F(3, 4), F(7, 8), -F(3, 4))),
        "sources of the chain overlap"),
    "source-outside-domain": (
        (shift(F(3, 4), F(7, 8), 0), shift(F(7, 8), 1, -F(7, 8))),
        "S_1 leaves the domain"),
    "target-outside-image": (
        (shift(F(3, 4), F(7, 8), -F(3, 4)), shift(F(1, 4), F(3, 8), -F(1, 8))),
        "T_1 leaves the image"),
    "not-linked-by-theta": (
        (shift(F(3, 4), F(7, 8), 0), shift(F(3, 8), F(1, 2), -F(1, 4))),
        "theta^-1(T_1) != S_1"),
    "outside-the-host": ((shift(F(3, 4), F(7, 8), -F(3, 4)),),
                         "extension piece leaves the support"),
}


@pytest.mark.parametrize("chain, message", BROKEN_EXTENSIONS.values(),
                         ids=BROKEN_EXTENSIONS.keys())
def test_validate_extension_names_the_broken_invariant(ce2, chain, message):
    theta = greedy_maximal_map(ce2.maps, FULL, EMPTY)
    with pytest.raises(InvalidExtension) as exc:
        validate_extension(ce2, theta, Chain(chain))
    assert str(exc.value) == message


# sets that touch at an endpoint, nest, or are empty; drawn often, so that
# lists of them repeat sets
SHARED_SETS = [EMPTY, iv(0, F(1, 2)), iv(F(1, 2), 1), iv(F(1, 3), F(1, 2)),
               iv(F(1, 2), F(5, 7)), FULL]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(grid_sets().map(lambda qs: qs[1]),
                          st.sampled_from(SHARED_SETS)), max_size=5))
def test_disjoint_agrees_with_pairwise_intersection(sets):
    pairwise = all(a.intersect(b).is_empty()
                   for a, b in combinations(sets, 2))
    assert pieces._disjoint(sets) == pairwise


@pytest.mark.parametrize("sets, disjoint", [
    ([], True), ([EMPTY, EMPTY], True),
    ([iv(0, F(1, 2)), iv(F(1, 2), 1)], True),
    ([iv(0, F(1, 2)), iv(0, F(1, 2))], False),
    ([iv(0, F(1, 2)), EMPTY, iv(F(1, 2), 1), EMPTY], True),
    ([iv(0, F(1, 3)), iv(F(1, 4), F(1, 2))], False)])
def test_disjoint_fixed_cases(sets, disjoint):
    assert pieces._disjoint(sets) == disjoint


# -- the set-level greedy step against the old restrict route -----------------


def _greedy_elements():
    rng = random.Random(20261018)
    yield "ce2", counterexample(2)
    yield "ce8", counterexample(8)
    yield "forest3", DSE(forest_example(3), 2)
    yield "amplification2", amplification(2)[0]
    for k in range(4):
        yield f"cells{k}", random_cell_dse(rng, 3 + k % 2, 2 + k,
                                           reflections=True)


GREEDY_CONSTRAINTS = [
    (FULL, EMPTY), (EMPTY, EMPTY), (FULL, FULL), (EMPTY, FULL),
    (iv(F(1, 3), F(5, 7)), iv(0, F(1, 4))),
    (IntervalSet([(0, F(1, 5)), (F(2, 5), F(3, 5)), (F(4, 5), 1)]),
     IntervalSet([(F(1, 9), F(2, 9)), (F(1, 2), F(5, 6))])),
]


@pytest.mark.parametrize("name, d", [pytest.param(*e, id=e[0])
                                     for e in _greedy_elements()])
def test_greedy_step_matches_the_restrict_route(name, d):
    pairs = list(GREEDY_CONSTRAINTS)
    rng = random.Random(name)
    for _ in range(4):
        pairs.append(tuple(
            IntervalSet((F(i, 12), F(i + 1, 12))
                        for i in range(12) if rng.random() < 0.5)
            for _ in range(2)))
    for allowed, forbidden in pairs:
        got = greedy_maximal_map(d.maps, allowed, forbidden)
        want = reference_greedy_maximal_map(d.maps, allowed, forbidden)
        assert got == want
        assert (got.domain, got.image) == (want.domain, want.image)
