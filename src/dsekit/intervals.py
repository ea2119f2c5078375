"""Exact rational arithmetic and interval-set algebra on [0, 1).

Everything in this package lives on the half-open unit interval.  A set is
a finite union of half-open intervals ``[a, b)`` with rational endpoints,
stored canonically: sorted by left endpoint, pairwise disjoint, adjacent
pieces merged.  Equality of canonical forms is equality of sets up to
measure zero.  No floating point appears anywhere.

Numbers live on a grid: every set, atom, map and multiset is a ``_Grid``
that stores its values as ``int`` numerators over one denominator ``d``
that it carries, the lcm of the denominators it was built from
(``_on_grid``).  Results inherit ``d``; an operation on two grids first
lifts both to the lcm of theirs (``_align``), and the one halving in the
package (the reflection pivot of ``division.initial_division``) works on
twice the grid.  Sums, differences and comparisons are plain ``int``
arithmetic, and Lebesgue measure is an exact integer sum over ``d``.
``Fraction`` appears only in the public constructors, in read-outs
(pairs, measures, atom endpoints, step cells) and in the growth,
improvement, error and distance checks; the counting bounds compare
measures as integers over one grid (``_sizes``).

The binary operations ``union``, ``intersect`` and ``subtract`` work only
on the window where the two operands can interact.  Both operands are cut
to that window by bisection on their sorted endpoints, and the intervals
of the result that lie wholly before or after the window are copied as
tuple slices.  On the window, ``union`` merges the concatenated pairs
(``_merged``, the one merge loop, also behind ``IntervalSet._merge_pairs``),
``intersect`` walks both pair lists with two pointers (``_meet``), and
``subtract`` walks both lists for the difference (``_minus``).
The copied parts are separated from the window by gaps, so the result is
canonical by construction.  An operation with a single interval against a
set of k intervals therefore costs O(log k) comparisons plus the intervals
it actually touches.  The greedy step of ``pieces`` keeps its two working
sets as pair lists and splices the same walks into them in place: it
replaces the window of its blocked image by ``_merged`` of it and the parts
it takes, and the window of its untaken sources by ``_minus`` of the
sources taken; an image piece inside one blocked interval costs it one
bisection and no walk.  The L1 distance of two lists of maps takes
``_meet`` of each family found on both sides whose source pairs lie apart
on each side.  The weighted cut sweep ``sweep`` is reserved for step
functions and for the multiset families whose cells can meet: in a
multiset's constructor, ``add`` and ``subtract``, and in the distance, for
a family whose source pairs stack on a side (see ``multiset``).
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable

ZERO = Fraction(0)
ONE = Fraction(1)


# the one rational syntax, that of dse.schema.json; \d takes other digits
_RATIONAL = re.compile(r"^-?[0-9]+/[0-9]+$")


def _expect(value, kind: type):
    """value itself, if it is of the kind: int (not bool), list or dict."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"expected a JSON {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


def _ratio(value) -> tuple[int, int]:
    """A "p/q" string or a JSON integer as integers (p, q), q nonzero."""
    if not isinstance(value, str):
        return _expect(value, int), 1
    if not _RATIONAL.fullmatch(value):
        raise ValueError(f"expected a 'p/q' rational, got {value!r}")
    p, q = map(int, value.split("/"))
    if not q:
        raise ZeroDivisionError(f"zero denominator in {value!r}")
    return p, q


def rat(value) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction or 'p/q' string")
    return Fraction(*_ratio(str(value)))


def positive_rat(value) -> Fraction:
    """``rat(value)`` for a tolerance, which must be positive."""
    value = rat(value)
    if value <= 0:
        raise ValueError("eps must be positive")
    return value


def rat_str(value) -> str:
    """Serialize a rational as ``"p/q"`` in lowest terms."""
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


def _on_grid(*ratios: tuple[int, int]) -> tuple[int, list[int]]:
    """The grid ``d``, the lcm of the denominators of the (numerator,
    denominator) ratios, and their numerators over it."""
    d = lcm(*(q for _, q in ratios))
    return d, [p * (d // q) for p, q in ratios]


def _grid_str(k: int, d: int) -> str:
    """``rat_str`` of k/d, reduced by one gcd."""
    g = gcd(k, d)
    return f"{k // g}/{d // g}"


def _fractions(rows: Iterable[tuple], d: int) -> tuple:
    """Rows (lo, hi, *rest) of grid numerators over d, read out as
    Fraction endpoints; the rest is kept as it is."""
    return tuple((Fraction(lo, d), Fraction(hi, d), *rest)
                 for lo, hi, *rest in rows)


def _sizes(*sets) -> list[int]:
    """The measures of the interval sets as numerators over one grid, the
    lcm of theirs."""
    d = lcm(*(s._d for s in sets))
    return [s._size() * (d // s._d) for s in sets]


def _align(x, y):
    """x and y on one grid, the lcm of theirs; either may be lifted."""
    if x._d == y._d:
        return x, y
    d = lcm(x._d, y._d)
    return x._lift(d), y._lift(d)


class _Grid:
    """A value of ``int`` numerators over the grid ``_d``.  A subclass
    writes and checks its fields in ``_set(fields)``, a tuple ending in d,
    and scales them by f onto the grid d in ``_scaled(f, d)``.  ``_set``
    takes the tuple whole: CPython does not specialize a ``*fields`` call."""

    __slots__ = ("_d",)

    @classmethod
    def _new(cls, *fields):
        """The value of fields already on a grid; every check of ``_set``."""
        x = object.__new__(cls)
        x._set(fields)
        return x

    def _lift(self, d: int):
        """This value on the grid d, a multiple of its own."""
        f = d // self._d
        return self if f == 1 else self._scaled(f, d)


class IntervalSet(_Grid):
    """Canonical finite union of half-open subintervals of [0, 1)."""

    __slots__ = ("_iv",)

    def __init__(self, pairs: Iterable[tuple[Fraction, Fraction]] = ()):
        cleaned = [(rat(lo), rat(hi)) for lo, hi in pairs]
        for lo, hi in cleaned:
            if lo < hi and (lo < ZERO or hi > ONE):
                raise ValueError(f"interval [{lo},{hi}) leaves [0,1)")
        d, ends = _on_grid(*(x.as_integer_ratio() for p in cleaned for x in p))
        self._set((self._merge_pairs(zip(ends[::2], ends[1::2]), d)._iv, d))

    def _set(self, fields: tuple[tuple, int]) -> None:
        self._iv, self._d = fields

    @classmethod
    def _merge_pairs(cls, pairs: Iterable, d: int) -> "IntervalSet":
        """The set of the (lo, hi) grid tuples over d (``_merged``)."""
        return cls._new(tuple(_merged(pairs)), d)

    def _scaled(self, f: int, d: int) -> "IntervalSet":
        return self._new(tuple((lo * f, hi * f) for lo, hi in self._iv), d)

    @classmethod
    def interval(cls, lo, hi) -> "IntervalSet":
        return cls(((rat(lo), rat(hi)),))

    @classmethod
    def union_all(cls, sets: Iterable["IntervalSet"]) -> "IntervalSet":
        sets = list(sets)
        d = lcm(*(s._d for s in sets))
        return cls._merge_pairs([p for s in sets for p in s._lift(d)._iv], d)

    @property
    def pairs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return _fractions(self._iv, self._d)

    def __bool__(self) -> bool:
        return bool(self._iv)

    def is_empty(self) -> bool:
        return not self._iv

    def _size(self) -> int:
        """The measure times d."""
        return sum(hi - lo for lo, hi in self._iv)

    def measure(self) -> Fraction:
        return Fraction(self._size(), self._d)

    def contains(self, other: "IntervalSet") -> bool:
        """Set inclusion up to measure zero."""
        return other.subtract(self).is_empty()

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not self._iv:
            return other
        if not other._iv:
            return self
        x, y = _align(self, other)
        a, b = x._iv, y._iv
        # Intervals that end before, or start after, the other operand's
        # span without touching it pass through; at most one side has any.
        a0 = bisect_left(a, b[0][0], key=_HI)
        a1 = bisect_right(a, b[-1][1], key=_LO)
        b0 = bisect_left(b, a[0][0], key=_HI)
        b1 = bisect_right(b, a[-1][1], key=_LO)
        mid = tuple(_merged(a[a0:a1] + b[b0:b1]))
        return self._new(a[:a0] + b[:b0] + mid + a[a1:] + b[b1:], x._d)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        if not self._iv or not other._iv:
            return EMPTY
        x, y = _align(self, other)
        a, b = x._iv, y._iv
        a0 = bisect_right(a, b[0][0], key=_HI)
        a1 = bisect_left(a, b[-1][1], key=_LO)
        b0 = bisect_right(b, a[0][0], key=_HI)
        b1 = bisect_left(b, a[-1][1], key=_LO)
        return self._new(tuple(_meet(a[a0:a1], b[b0:b1])), x._d)

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        if not self._iv or not other._iv:
            return self
        x, y = _align(self, other)
        a, b = x._iv, y._iv
        # Intervals of self clear of the other operand's span pass through.
        a0 = bisect_right(a, b[0][0], key=_HI)
        a1 = bisect_left(a, b[-1][1], key=_LO)
        if a0 >= a1:
            return self
        b0 = bisect_right(b, a[a0][0], key=_HI)
        b1 = bisect_left(b, a[a1 - 1][1], key=_LO)
        mid = _minus(a[a0:a1], b[b0:b1])
        return self._new(a[:a0] + tuple(mid) + a[a1:], x._d)

    def complement(self) -> "IntervalSet":
        """Complement relative to [0, 1)."""
        return FULL.subtract(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return False
        x, y = _align(self, other)
        return x._iv == y._iv

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        body = " ".join(f"[{lo},{hi})" for lo, hi in self.pairs)
        return f"IntervalSet({body or 'empty'})"


_LO = itemgetter(0)
_HI = itemgetter(1)


def _merged(pairs: Iterable) -> list:
    """Canonicalize (lo, hi) grid tuples: sort, skip empty ones and merge,
    in one pass."""
    out: list[tuple[int, int]] = []
    for p in sorted(pairs):
        lo, hi = p
        if lo >= hi:
            continue
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append(p)
    return out


def _meet(a, b) -> list:
    """Intersection of two sorted pair sequences, by two pointers; each
    needs disjoint pairs, which may touch, as one family's source pairs
    gathered from several maps do in ``multiset._shared``."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        alo, ahi = a[i]
        blo, bhi = b[j]
        lo = alo if alo > blo else blo
        if ahi < bhi:
            if lo < ahi:
                out.append((lo, ahi))
            i += 1
        else:
            if lo < bhi:
                out.append((lo, bhi))
            j += 1
    return out


def _minus(a, b) -> list:
    """Difference a minus b of two canonical pair sequences, by two pointers.

    Every interval of b that meets an interval of a cuts a gap into it;
    the pointer into b only moves past intervals that end before the
    current interval of a starts.
    """
    out = []
    j, nb = 0, len(b)
    for lo, hi in a:
        while j < nb and b[j][1] <= lo:
            j += 1
        k = j
        while k < nb and b[k][0] < hi:
            if lo < b[k][0]:
                out.append((lo, b[k][0]))
            lo = b[k][1]
            k += 1
        if lo < hi:
            out.append((lo, hi))
    return out


EMPTY = IntervalSet._new((), 1)
FULL = IntervalSet._new(((0, 1),), 1)


# -- integer step functions over [0, 1) --------------------------------------
#
# A step function is a full partition of [0, 1) into cells (lo, hi, value)
# with integer values, adjacent cells of equal value merged.  They carry the
# coverage counts and degree functions used throughout the package.  Step
# functions and the sparse multiplicity cells of ``multiset`` both come out
# of ``sweep``.  A ``Step``'s endpoints are the grid numerators of one grid;
# ``_fractions`` reads them out as ``Fraction`` endpoints, a ``StepReadout``,
# as in the cells of a ``CoverageReport``.

Step = tuple[tuple[int, int, int], ...]
StepReadout = tuple[tuple[Fraction, Fraction, int], ...]


def sweep(weighted: Iterable[tuple[int, int, int]],
          cuts: Iterable[int] = (), sparse: bool = False) -> Step:
    """Cells (lo, hi, level) of the sum of w * indicator([lo, hi)).

    One pass files each w as +w at lo and -w at hi in a dict of endpoint
    deltas (``cuts`` adds cut points of delta zero); the sweep over the
    sorted cuts keeps the running level, and adjacent cells of equal level
    are merged.  ``sparse`` drops the cells of level zero.  Endpoints are
    the grid numerators of one grid.
    """
    deltas = dict.fromkeys(cuts, 0)
    get = deltas.get
    for lo, hi, w in weighted:
        deltas[lo] = get(lo, 0) + w
        deltas[hi] = get(hi, 0) - w
    cuts = sorted(deltas)
    out: list[list] = []
    level = 0
    for k in range(len(cuts) - 1):
        level += deltas[cuts[k]]
        if sparse and not level:
            continue
        lo, hi = cuts[k], cuts[k + 1]
        if out and out[-1][2] == level and out[-1][1] == lo:
            out[-1][1] = hi
        else:
            out.append([lo, hi, level])
    return tuple((lo, hi, v) for lo, hi, v in out)


def step_sum(weighted: Iterable[tuple[int, int, int]], d: int) -> Step:
    """Step function for a finite sum of w * indicator([lo, hi)) on the
    grid d, which is the right end of [0, 1) there."""
    s = sweep(weighted, cuts=(0, d))
    if s[0][0] < 0 or s[-1][1] > d:
        raise ValueError("step support leaves [0,1)")
    return s


def step_where(s: Step, predicate, d: int) -> IntervalSet:
    """Interval set of the cells whose value satisfies the predicate, for
    a step of grid numerators over d."""
    return IntervalSet._merge_pairs(
        [(lo, hi) for lo, hi, v in s if predicate(v)], d)


def step_integral(s: Step, fn=lambda v: v) -> int:
    """Exact integral of fn(value) over [0, 1), times the grid d of the
    step's numerators."""
    return sum((hi - lo) * fn(v) for lo, hi, v in s)
