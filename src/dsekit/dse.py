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
from typing import Iterable, Sequence

from .errors import (InvalidDSE, MultiplicityMismatch, NotDoublyStochastic,
                     check)
from .intervals import ONE, ZERO, IntervalSet, Step, step_sum
from .maps import Atom, PartialMap
from .multiset import GraphMultiset


class DSE:
    """A finite collection of partial isomorphisms with constant coverage."""

    __slots__ = ("maps", "multiplicity", "_matrix")

    def __init__(self, maps: Iterable[PartialMap], multiplicity: int):
        if multiplicity < 1:
            raise ValueError("multiplicity must be a positive integer")
        self.maps = tuple(maps)
        self.multiplicity = multiplicity
        self._matrix = None

    @property
    def matrix(self) -> GraphMultiset:
        if self._matrix is None:
            self._matrix = GraphMultiset.from_maps(self.maps)
        return self._matrix

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
    domain_cells: Step
    image_cells: Step
    ok: bool


def validate(d: DSE, raise_on_fail: bool = True) -> CoverageReport:
    """Check the exact coverage condition: both step functions constantly n.

    Returns the per-cell coverage counts; raises InvalidDSE listing every
    offending cell unless ``raise_on_fail`` is false.
    """
    dom = step_sum((lo, hi, 1) for m in d.maps for lo, hi in m.domain)
    img = step_sum((lo, hi, 1) for m in d.maps for lo, hi in m.image)
    bad_dom = tuple(c for c in dom if c[2] != d.multiplicity)
    bad_img = tuple(c for c in img if c[2] != d.multiplicity)
    ok = not bad_dom and not bad_img
    if not ok and raise_on_fail:
        raise InvalidDSE(
            f"coverage is not constantly {d.multiplicity} "
            f"({len(bad_dom)} bad domain cells, {len(bad_img)} bad image cells)",
            bad_dom, bad_img)
    return CoverageReport(d.multiplicity, dom, img, ok)


def associated_matrix(d: DSE) -> GraphMultiset:
    return d.matrix


def distance(a: DSE, b: DSE) -> Fraction:
    """Exact L1 distance between associated matrices (a metric on classes)."""
    if a.multiplicity != b.multiplicity:
        raise MultiplicityMismatch(
            f"multiplicities differ: {a.multiplicity} vs {b.multiplicity}")
    return a.matrix.l1_distance(b.matrix)


def equivalent(a: DSE, b: DSE) -> bool:
    return distance(a, b) == 0


def inverse(d: DSE) -> DSE:
    return DSE((m.invert() for m in d.maps), d.multiplicity)


def symmetrize(d: DSE) -> DSE:
    """The union of d with its inverse; symmetric of doubled multiplicity."""
    return DSE(d.maps + tuple(m.invert() for m in d.maps), 2 * d.multiplicity)


def is_symmetric(d: DSE) -> bool:
    return d.matrix == d.matrix.flip()


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
    the atoms dealt.  _split_into_injective then splits every layer.
    """
    row = m.row_step()
    col = m.col_step()
    bad_rows = tuple(c for c in row if c[2] != n)
    bad_cols = tuple(c for c in col if c[2] != n)
    if bad_rows or bad_cols:
        raise NotDoublyStochastic(
            f"row/column mass is not constantly {n} "
            f"({len(bad_rows)} bad rows, {len(bad_cols)} bad columns)")

    families = list(m.families())
    cuts = sorted({x for _, cells in families
                   for lo, hi, _ in cells for x in (lo, hi)} | {ZERO, ONE})
    dealt: list[list] = [[] for _ in range(len(cuts) - 1)]
    for key, cells in families:
        for lo, hi, mult in cells:
            for k in range(bisect_left(cuts, lo), bisect_left(cuts, hi)):
                dealt[k].append((key, mult))
    layers: list[list[Atom]] = [[] for _ in range(n)]
    for k, here in enumerate(dealt):
        idx = 0
        for (slope, offset), mult in here:
            for _ in range(mult):
                layers[idx].append(Atom(cuts[k], cuts[k + 1], slope, offset))
                idx += 1
    maps: list[PartialMap] = []
    for layer in layers:
        maps.extend(_split_into_injective(layer))
    out = DSE(maps, n)
    check(out.matrix == m, "normalized element changed the matrix")
    check(len(out.maps) <= n * len(families), "more maps than n per family")
    return out


def _split_into_injective(atoms: Sequence[Atom]) -> list[PartialMap]:
    """Split a row-mass-one layer into injective maps by preimage rank.

    One sweep over the sorted image endpoints keeps the live branches (at
    most the column mass of them) and sorts them by their preimage at the
    midpoint of each elementary cell: rank r collects the (r+1)-th
    smallest.  Only a slope +1 and a slope -1 branch can cross, and two
    live ones never cross strictly inside the cell, since the crossing's
    preimage would lie inside both sources and a layer's sources are
    disjoint.  So the midpoint order holds on the whole cell and no cell
    is cut at a crossing.  Cost: one sort, plus one per cell of its live
    branches.
    """
    branches = sorted((a.image_lo, a.image_hi, a.slope, a.offset)
                      for a in atoms)
    points = sorted({x for b in branches for x in b[:2]})
    ranks: dict[int, list[Atom]] = {}
    live: list[tuple] = []
    nxt = 0
    for lo, hi in zip(points, points[1:]):
        live = [b for b in live if b[1] > lo]
        while nxt < len(branches) and branches[nxt][0] == lo:
            live.append(branches[nxt])
            nxt += 1
        mid = (lo + hi) / 2
        live.sort(key=lambda c, m=mid: m - c[3] if c[2] == 1 else c[3] - m)
        for r, (_, _, slope, off) in enumerate(live):
            ranks.setdefault(r, []).append(
                Atom(lo - off, hi - off, 1, off) if slope == 1
                else Atom(off - hi, off - lo, -1, off))
    return [PartialMap(v) for _, v in sorted(ranks.items())]
