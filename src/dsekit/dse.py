"""Doubly stochastic elements: validation, distance and normalization.

A doubly stochastic element (DSE) of multiplicity n is a finite list of
partial isomorphisms whose domains cover almost every point exactly n times
and whose images do too.  Its associated matrix is the multiset of graph
atoms counted with multiplicity; two DSEs are *equivalent*, and compare
equal here, exactly when those multisets coincide.  The distance integrates
|M(a) - M(b)| against the counting measure and is computed exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable

from .errors import (InvalidDSE, MultiplicityMismatch, NotDoublyStochastic,
                     check)
from .intervals import IntervalSet, StepReadout, _fractions, step_sum
from .maps import Atom, PartialMap, _inverse_key, _move
from .multiset import GraphMultiset, _maps_l1


class DSE:
    """A finite collection of partial isomorphisms with constant coverage.

    Its maps are lifted to one grid, ``_d``, the lcm of theirs.
    """

    def __init__(self, maps: Iterable[PartialMap], multiplicity: int):
        if multiplicity < 1:
            raise ValueError("multiplicity must be a positive integer")
        maps = tuple(maps)
        self._d = lcm(*(m._d for m in maps))
        self.maps = tuple(m._lift(self._d) for m in maps)
        self.multiplicity = multiplicity

    @cached_property
    def matrix(self) -> GraphMultiset:
        return GraphMultiset.from_maps(self.maps)

    def __eq__(self, other) -> bool:
        # Equality of DSEs is equivalence: same associated matrix.
        return (isinstance(other, DSE)
                and self.multiplicity == other.multiplicity
                and self.matrix == other.matrix)

    def __hash__(self) -> int:
        return hash((self.multiplicity, self.matrix))

    def __repr__(self) -> str:
        return f"DSE<{len(self.maps)} maps, multiplicity {self.multiplicity}>"


@dataclass(frozen=True)
class CoverageReport:
    multiplicity: int
    domain_cells: StepReadout
    image_cells: StepReadout
    ok: bool


def validate(d: DSE, raise_on_fail: bool = True) -> CoverageReport:
    """Check the exact coverage condition: both step functions constantly n.

    Returns the per-cell coverage counts; raises InvalidDSE listing every
    offending cell unless ``raise_on_fail`` is false.
    """
    dom = _fractions(step_sum(((lo, hi, 1) for m in d.maps
                               for lo, hi in m.domain._iv), d._d), d._d)
    img = _fractions(step_sum(((lo, hi, 1) for m in d.maps
                               for lo, hi in m.image._iv), d._d), d._d)
    bad_dom = tuple(c for c in dom if c[2] != d.multiplicity)
    bad_img = tuple(c for c in img if c[2] != d.multiplicity)
    ok = not bad_dom and not bad_img
    if not ok and raise_on_fail:
        raise InvalidDSE(
            f"coverage is not constantly {d.multiplicity} "
            f"({len(bad_dom)} bad domain cells, {len(bad_img)} bad image cells)",
            bad_dom, bad_img)
    return CoverageReport(d.multiplicity, dom, img, ok)


def distance(a: DSE, b: DSE) -> Fraction:
    """Exact L1 distance of the associated matrices (a metric on classes),
    read off the atoms with no matrix built: both sides' length, less twice
    what each shared family shares, read off equal sorted pairs, off an
    intersection of pairs apart on each side, or off a signed sweep where
    pairs stack (``multiset._maps_l1``); coverage unchecked."""
    if a.multiplicity != b.multiplicity:
        raise MultiplicityMismatch(
            f"multiplicities differ: {a.multiplicity} vs {b.multiplicity}")
    return _maps_l1(a.maps, b.maps, lcm(a._d, b._d))


def inverse(d: DSE) -> DSE:
    return DSE((m.invert() for m in d.maps), d.multiplicity)


def symmetrize(d: DSE) -> DSE:
    """The union of d with its inverse; symmetric of doubled multiplicity."""
    return DSE(d.maps + tuple(m.invert() for m in d.maps), 2 * d.multiplicity)


def neighbor_set(d: DSE, c: IntervalSet) -> IntervalSet:
    """Union of the forward images of c under all maps of the element."""
    return IntervalSet.union_all(m.image_of(c) for m in d.maps)


# -- turning a matrix back into a DSE -----------------------------------------


def normalize_cover(m: GraphMultiset, n: int) -> DSE:
    """Assemble a valid DSE whose associated matrix is exactly m.

    The multiset is dealt, cell by cell in canonical family order, into n
    layers of row mass one (total functions, generally not injective): one
    pass bisects each cell's endpoints into the sorted cuts and files its
    (family, multiplicity) under every cut interval it covers, so each
    interval's list is in family order.  That costs a sort of the cuts plus
    the cells dealt.  _split_into_injective then splits every layer.
    """
    row = m._degree(False)
    col = m._degree(True)
    bad_rows = tuple(c for c in row if c[2] != n)
    bad_cols = tuple(c for c in col if c[2] != n)
    if bad_rows or bad_cols:
        raise NotDoublyStochastic(
            f"row/column mass is not constantly {n} "
            f"({len(bad_rows)} bad rows, {len(bad_cols)} bad columns)")

    families = list(m._fam.items())
    cuts = sorted({x for _, cells in families
                   for lo, hi, _ in cells for x in (lo, hi)} | {0, m._d})
    dealt: list[list] = [[] for _ in range(len(cuts) - 1)]
    for key, cells in families:
        for lo, hi, mult in cells:
            for k in range(bisect_left(cuts, lo), bisect_left(cuts, hi)):
                dealt[k].append((key, mult))
    layers: list[list] = [[] for _ in range(n)]
    for k, here in enumerate(dealt):
        idx = 0
        for key, mult in here:
            for _ in range(mult):
                layers[idx].append((cuts[k], cuts[k + 1], *key))
                idx += 1
    maps: list[PartialMap] = []
    for layer in layers:
        maps.extend(_split_into_injective(layer, m._d))
    out = DSE(maps, n)
    check(out.matrix == m, "normalized element changed the matrix")
    check(len(out.maps) <= n * len(families), "more maps than n per family")
    return out


def _split_into_injective(cells: Iterable[tuple[int, int, int, int]],
                          d: int) -> list[PartialMap]:
    """Split a row-mass-one layer into injective maps by preimage rank.

    The layer is given as (lo, hi, slope, offset) cells of grid numerators
    over d, each the graph of x -> slope*x + offset on [lo, hi).  One
    sweep over the sorted image endpoints keeps the live branches (at most
    the column mass of them) and sorts them by their preimage at the
    midpoint of each elementary cell: rank r collects the (r+1)-th
    smallest.  Only a slope +1 and a slope -1 branch can cross, and two
    live ones never cross strictly inside the cell, since the crossing's
    preimage would lie inside both sources and a layer's sources are
    disjoint.  So the midpoint order holds on the whole cell and no cell
    is cut at a crossing.  Cost: one sort, plus one per cell of its live
    branches.
    """
    branches = sorted((*_move(slope, off, lo, hi), slope, off)
                      for lo, hi, slope, off in cells)
    points = sorted({x for b in branches for x in b[:2]})
    ranks: dict[int, list[Atom]] = {}
    live: list[tuple] = []
    nxt = 0
    for lo, hi in zip(points, points[1:]):
        live = [b for b in live if b[1] > lo]
        while nxt < len(branches) and branches[nxt][0] == lo:
            live.append(branches[nxt])
            nxt += 1
        # x -> s*x + o carries s*(mid - o) to the midpoint mid, and
        # 2*s*(mid - o) = s*(lo + hi - 2*o) is a grid integer
        live.sort(key=lambda c, m=lo + hi: c[2] * (m - 2 * c[3]))
        for r, (_, _, slope, off) in enumerate(live):
            ranks.setdefault(r, []).append(
                Atom._new(*_move(*_inverse_key(slope, off), lo, hi), slope, off,
                          d))
    return [PartialMap._new(v, d) for _, v in sorted(ranks.items())]
