from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsekit import EMPTY, FULL, IntervalSet, rat, rat_str
from dsekit import serialize as ser
from dsekit.intervals import step_integral, step_sum, step_where

from oracles import brute_measure, reference_merge_pairs

iv = IntervalSet.interval


def test_measure_empty():
    assert EMPTY.measure() == 0


def test_measure_full():
    assert FULL.measure() == 1


def test_measure_additive():
    s = IntervalSet([(F(0), F(1, 2)), (F(3, 4), F(1))])
    assert s.measure() == F(3, 4)


def test_intersect_example():
    assert iv(0, F(1, 2)).intersect(iv(F(1, 4), F(3, 4))) == iv(F(1, 4), F(1, 2))


def test_complement_example():
    assert iv(0, F(1, 2)).complement() == iv(F(1, 2), 1)


def test_subtract_example():
    got = FULL.subtract(iv(F(1, 4), F(1, 2)))
    assert got == IntervalSet([(F(0), F(1, 4)), (F(1, 2), F(1))])


def test_canonical_merges_adjacent():
    s = IntervalSet([(F(0), F(1, 4)), (F(1, 4), F(1, 2))])
    assert s.pairs == ((F(0), F(1, 2)),)


@pytest.mark.parametrize("lo, hi", [(F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2))])
def test_intervals_must_lie_in_the_unit_interval(lo, hi):
    with pytest.raises(ValueError) as exc:
        IntervalSet([(lo, hi)])
    assert str(exc.value) == f"interval [{lo},{hi}) leaves [0,1)"


def test_rat_roundtrip():
    assert rat("3/9") == F(1, 3)
    assert rat_str(F(2, 4)) == "1/2"
    with pytest.raises(TypeError):
        rat(0.5)


@pytest.mark.parametrize("text", [
    "0.5", "1e-1", " 1/2 ", "1_0/3", "\u0661/2", "1e-999999999", "3"])
def test_rat_takes_only_the_p_q_syntax(text):
    """Decimal, exponent, spaced, underscored and non-ASCII forms are
    rejected before any number is built, so a huge exponent costs nothing."""
    with pytest.raises(ValueError, match="expected a 'p/q' rational"):
        rat(text)


def _outcome(call, *args):
    try:
        return "value", call(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300)
@given(st.one_of(st.from_regex(r"-?[0-9]+/[0-9]+", fullmatch=True),
                 st.text(st.sampled_from("0123456789/-+ _.eE\t\n\u0661"),
                         max_size=8)))
def test_rat_and_the_json_reader_take_the_same_strings(text):
    assert _outcome(rat, text) == _outcome(lambda s: F(*ser._rationals([s])),
                                           text)


frac = st.fractions(min_value=0, max_value=1, max_denominator=32)


@st.composite
def interval_sets(draw):
    points = sorted(draw(st.lists(frac, min_size=0, max_size=8)))
    pairs = [(points[i], points[i + 1]) for i in range(0, len(points) - 1, 2)]
    return IntervalSet(pairs)


@settings(max_examples=150)
@given(interval_sets(), interval_sets())
def test_inclusion_exclusion(a, b):
    lhs = a.union(b).measure() + a.intersect(b).measure()
    assert lhs == a.measure() + b.measure()


@settings(max_examples=100)
@given(interval_sets())
def test_double_complement(a):
    assert a.complement().complement() == a


@settings(max_examples=100)
@given(interval_sets(), interval_sets())
def test_output_is_canonical(a, b):
    for s in (a.union(b), a.intersect(b), a.subtract(b)):
        pairs = s.pairs
        for lo, hi in pairs:
            assert lo < hi
        for (_, prev_hi), (lo, _hi) in zip(pairs, pairs[1:]):
            assert prev_hi < lo  # disjoint and not even adjacent


@settings(max_examples=100)
@given(interval_sets(), interval_sets())
def test_union_measure_against_oracle(a, b):
    pairs = list(a.pairs) + list(b.pairs)
    assert a.union(b).measure() == brute_measure(pairs)


@settings(max_examples=80)
@given(interval_sets(), interval_sets())
def test_subtract_disjoint_from_other(a, b):
    assert a.subtract(b).intersect(b).is_empty()



# -- windowed set operations against a point-membership oracle --------------
#
# Every endpoint below lies on the grid 1/GRID, so membership is constant on
# each grid cell and the cell midpoints decide set equality up to measure
# zero; with the canonical-form check this pins the result tuple for tuple.

GRID = 48


@st.composite
def dense_sets(draw):
    """Up to GRID/2 intervals: runs of a random cell bitmap, merged."""
    bits = draw(st.lists(st.booleans(), min_size=GRID, max_size=GRID))
    return IntervalSet((F(k, GRID), F(k + 1, GRID))
                       for k, on in enumerate(bits) if on)


@st.composite
def sparse_sets(draw):
    """At most two intervals, possibly touching cell or set boundaries."""
    points = sorted(set(draw(st.lists(st.integers(0, GRID), max_size=4))))
    return IntervalSet((F(points[i], GRID), F(points[i + 1], GRID))
                       for i in range(0, len(points) - 1, 2))


grid_sets = st.one_of(dense_sets(), sparse_sets(), st.just(EMPTY),
                      st.just(FULL))


def _member(s: IntervalSet, x) -> bool:
    return any(lo <= x < hi for lo, hi in s.pairs)


def _agrees_with_oracle(a, b, got, keep) -> None:
    pairs = got.pairs
    for lo, hi in pairs:
        assert 0 <= lo < hi <= 1
    for (_, prev_hi), (lo, _hi) in zip(pairs, pairs[1:]):
        assert prev_hi < lo
    for k in range(GRID):
        x = F(2 * k + 1, 2 * GRID)
        assert _member(got, x) == keep(_member(a, x), _member(b, x)), x


_OPS = [("union", lambda p, q: p or q),
        ("intersect", lambda p, q: p and q),
        ("subtract", lambda p, q: p and not q)]


def _g(k: int) -> F:
    return F(k, GRID)


# runs [3j, 3j+1) / GRID with gaps of two cells between them
COMB = IntervalSet((_g(k), _g(k + 1)) for k in range(0, GRID, 3))


@pytest.mark.parametrize("name, keep", _OPS, ids=[n for n, _ in _OPS])
@settings(max_examples=150)
@given(grid_sets, grid_sets)
@example(COMB, iv(_g(1), _g(3)))            # fills a gap: joins two runs
@example(COMB, iv(_g(1), _g(2)))            # touches the run on its left
@example(COMB, iv(_g(2), _g(3)))            # touches the run on its right
@example(COMB, iv(_g(5), _g(10)))           # covers runs and gaps
@example(COMB, iv(0, _g(1)))                # equals the first run
@example(COMB, iv(_g(GRID - 2), 1))         # touches the last run only
@example(iv(0, _g(3)), iv(_g(3), _g(7)))    # adjacent operands
@example(COMB, COMB.complement())
@example(COMB, EMPTY)
def test_set_ops_match_membership_oracle(name, keep, a, b):
    _agrees_with_oracle(a, b, getattr(a, name)(b), keep)
    _agrees_with_oracle(b, a, getattr(b, name)(a), keep)


def test_step_sum_and_integral():
    # grid numerators over d = 4: [0, 1/2) once and [1/4, 3/4) twice
    s = step_sum([(0, 2, 1), (1, 3, 2)], 4)
    assert s == ((0, 1, 1), (1, 2, 3), (2, 3, 2), (3, 4, 0))
    assert step_integral(s) == 4 * (F(1, 2) + F(1))
    assert step_where(s, lambda v: v >= 2, 4) == iv(F(1, 4), F(3, 4))
    with pytest.raises(ValueError, match="leaves"):
        step_sum([(0, 5, 1)], 4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)),
                max_size=10))
@example([(3, 3), (5, 2)])  # empty pairs only
@example([(4, 8), (0, 4), (8, 9), (12, 12)])  # touching, one empty
@example([(0, 10), (2, 3), (2, 9), (9, 10)])  # nested
def test_merge_pairs_matches_the_two_pass_merge(pairs):
    merged = IntervalSet._merge_pairs(pairs, 16)
    assert merged._iv == reference_merge_pairs(pairs)
    assert merged._d == 16
    assert all(type(p) is tuple for p in merged._iv)
