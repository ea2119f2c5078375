"""The counting bounds of the two chain steps fire, on integer measures.

``pieces.lemma_piece`` and ``division._smain_piece`` compare grid integers,
each inequality multiplied by 2n.  Here the greedy step is replaced by one
that returns the identity on [0, size), so the piece's measure is chosen:
a piece of exactly the bound passes, one grid unit less raises
``BoundViolated`` with the check's message, and on random sets over mixed
grids the integer checks agree with the Fraction forms kept in
``tests/oracles.py``.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import DSE, IntervalSet, division, identity_map, pieces
from dsekit.errors import BoundViolated
from dsekit.pieces import lemma_piece

from oracles import reference_lemma_bound, reference_oriented_bound
from test_grid import grid_sets

iv = IntervalSet.interval
LEMMA = "maximal piece misses its counting bound"
ORIENTED = "oriented piece misses its bound"


def greedy_of_size(monkeypatch, module, size):
    """Make ``module``'s greedy step return the identity on [0, size)."""
    monkeypatch.setattr(module, "greedy_maximal_map",
                        lambda maps, allowed, forbidden:
                        identity_map().restrict(iv(0, size)))


def identities(n: int) -> DSE:
    """n identity maps: every piece of the identity lies in the support."""
    return DSE([identity_map()] * n, n)


def run_lemma(monkeypatch, size, n, a, b, blocked):
    greedy_of_size(monkeypatch, pieces, size)
    blocker = identity_map().restrict(blocked)
    return lemma_piece(identities(n), a, b, blocker).domain.measure()


def run_oriented(monkeypatch, size, n, a, t):
    greedy_of_size(monkeypatch, division, size)
    return division._smain_piece([], n, a, IntervalSet(), t).domain.measure()


def test_lemma_bound_holds_at_equality_and_fires_one_unit_below(monkeypatch):
    # n = 3: (3/4 - 1/8)/2 - (2/6)(1/8) = 13/48
    n, a, b, blocked = 3, iv(0, F(3, 4)), iv(F(3, 4), F(7, 8)), iv(F(7, 8), 1)
    assert reference_lemma_bound(n, a, b, blocked) == F(13, 48)
    assert run_lemma(monkeypatch, F(13, 48), n, a, b, blocked) == F(13, 48)
    with pytest.raises(BoundViolated) as exc:
        run_lemma(monkeypatch, F(12, 48), n, a, b, blocked)
    assert str(exc.value) == LEMMA


def test_oriented_bound_holds_at_equality_and_fires_one_unit_below(
        monkeypatch):
    # n = 2: (1/2)/4 - (1/16)/2 = 3/32
    n, a, t = 2, iv(0, F(1, 2)), iv(F(1, 2), F(9, 16))
    assert reference_oriented_bound(n, a, t) == F(3, 32)
    assert run_oriented(monkeypatch, F(3, 32), n, a, t) == F(3, 32)
    with pytest.raises(BoundViolated) as exc:
        run_oriented(monkeypatch, F(2, 32), n, a, t)
    assert str(exc.value) == ORIENTED


def sizes_around(bound: F, q: int) -> list[F]:
    """The bound itself and one unit of the grid 1/q on either side of it,
    and the ends of [0, 1], as far as they are measures."""
    near = (bound - F(1, q), bound, bound + F(1, q), F(0), F(1))
    return [x for x in near if 0 <= x <= 1]


def assert_agrees(run, bound, sizes, message):
    for size in sizes:
        if size >= bound:
            assert run(size) == size
        else:
            with pytest.raises(BoundViolated) as exc:
                run(size)
            assert str(exc.value) == message


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), grid_sets(), grid_sets(), grid_sets(),
       st.integers(1, 5))
def test_lemma_bound_agrees_with_the_fraction_form(n, a, b, blocked, k):
    (qa, a), (qb, b), (_, blocked) = a, b, blocked
    # the preconditions: a misses the blocker's domain, b its image
    a, b = a.subtract(blocked), b.subtract(blocked)
    bound = reference_lemma_bound(n, a, b, blocked)
    with pytest.MonkeyPatch.context() as mp:
        assert_agrees(lambda size: run_lemma(mp, size, n, a, b, blocked),
                      bound, sizes_around(bound, k * bound.denominator * qa),
                      LEMMA)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), grid_sets(), grid_sets(), st.integers(1, 5))
def test_oriented_bound_agrees_with_the_fraction_form(n, a, t, k):
    (qa, a), (_, t) = a, t
    bound = reference_oriented_bound(n, a, t)
    with pytest.MonkeyPatch.context() as mp:
        assert_agrees(lambda size: run_oriented(mp, size, n, a, t),
                      bound, sizes_around(bound, k * bound.denominator * qa),
                      ORIENTED)
