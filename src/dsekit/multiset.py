"""Integer-weighted multisets of graph atoms.

The associated matrix of a doubly stochastic element is a finite integer
function on the union of its graphs.  Here it is a multiset of affine
atoms: entries are grouped by (slope, offset) families, and within a family
the source line carries an integer multiplicity step.  Two entries of equal
(slope, offset) always have disjoint sources (canonical refinement), so the
counting measure and row/column masses are exact sums.  Offsets and cells
are grid numerators over the multiset's ``_d``; ``families`` and ``mass``
read them out.

A family's cells are swept only where two cells can meet.  ``_gather``
states this once for the constructor, ``add`` and ``flip``: a family given
cells by two or more parts goes through ``sweep``, one given a single part
keeps its cells, so a lone entry is its own cell and ``flip`` (whose
``_inverse_key`` is injective) only moves cells.  ``_maps_l1`` reads the
L1 distance of two lists of maps off their atoms, building no multiset:
the total length of both sides, less twice what each family found on both
sides shares, which equal sorted source pairs read as their length, pairs
apart on each side as their intersection (``_meet``), and only pairs that
stack on a side off a signed ``sweep`` of that family.
Support is read off the cells too: ``contains_graph`` and
``clip_to_support`` bisect an atom's family cells to the first that ends
after the atom starts and walk on while cells start before it ends; no
second structure is built or kept.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Iterator

from .intervals import (Step, StepReadout, _align, _fractions, _Grid, _HI,
                        _meet, step_integral, step_sum, sweep)
from .maps import Atom, PartialMap, _inverse_key, _move

Cells = tuple[tuple[int, int, int], ...]


def _cells_sub(a: Cells, b: Cells, strict: bool, d: int = 1) -> Cells:
    """The sparse cells of a - b; with ``strict``, ValueError where a
    multiplicity goes negative (the point is read out over d)."""
    cells = sweep((*a, *((lo, hi, -w) for lo, hi, w in b)), sparse=True)
    for lo, _, v in cells if strict else ():
        if v < 0:
            raise ValueError(f"multiplicity goes negative at {Fraction(lo, d)}")
    return cells


def _gather(parts: Iterable[tuple[tuple[int, int], Cells]]) -> dict:
    """Families of (key, cells) parts, each part's cells sparse and sorted.
    Cells can meet only in a key given two or more parts, so only those
    are swept; a key given one part keeps that part's cells."""
    grouped: dict[tuple[int, int], list] = {}
    for key, cells in parts:
        grouped.setdefault(key, []).append(cells)
    return {k: v[0] if len(v) == 1 else sweep(chain.from_iterable(v),
                                                 sparse=True)
            for k, v in grouped.items()}


def _length(pairs) -> int:
    return sum(hi - lo for lo, hi in pairs)


def _apart(pairs: list) -> bool:
    """True when no two sorted (lo, hi) pairs overlap; they may touch."""
    end = 0
    for lo, hi in pairs:
        if lo < end:
            return False
        end = hi
    return True


def _shared(pa: list, pb: list) -> int:
    """Twice what the sorted source pairs of one family on two sides share,
    read as multisets A and B: |A| + |B| less the integral of |A - B|.
    Equal lists share their length; lists apart on each side share their
    intersection (``_meet``), as for sets the integral of |1_A - 1_B| is
    |A| + |B| - 2|A & B|; only pairs that stack on a side are swept."""
    if pa == pb:
        return 2 * _length(pa)
    if _apart(pa) and _apart(pb):
        return 2 * _length(_meet(pa, pb))
    cells = sweep(chain(((lo, hi, 1) for lo, hi in pa),
                        ((lo, hi, -1) for lo, hi in pb)), sparse=True)
    return _length(chain(pa, pb)) - step_integral(cells, abs)


def _maps_l1(a: Iterable[PartialMap], b: Iterable[PartialMap],
             d: int) -> Fraction:
    """The integral of |M(a) - M(b)| against the counting measure, M
    counting the atoms of maps on grids dividing d: the total length of
    both sides, less what each family found on both sides shares
    (``_shared``).  A family on one side only adds its length and is
    never looked at on its own; the lengths are the maps' domain sizes."""
    total = 0
    fa, fb = sides = (defaultdict(list), defaultdict(list))
    for fam, maps in zip(sides, (a, b)):
        for m in maps:
            f = d // m._d
            total += m.domain._size() * f
            for t in m.atoms:
                fam[t.slope, t._off * f].append((t._lo * f, t._hi * f))
    for key, pa in fa.items():
        if (pb := fb.get(key)) is not None:
            pa.sort()
            pb.sort()
            total -= _shared(pa, pb)
    return Fraction(total, d)


class GraphMultiset(_Grid):
    """Multiset of graph atoms with integer multiplicities (the matrix M)."""

    __slots__ = ("_fam",)

    def __init__(self, entries: Iterable[tuple[Atom, int]] = ()):
        entries = list(entries)
        d = lcm(*(atom._d for atom, _ in entries))
        parts = []
        for atom, mult in entries:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult:
                a = atom._lift(d)
                parts.append(((a.slope, a._off), ((a._lo, a._hi, mult),)))
        self._set((_gather(parts), d))

    def _set(self, fields: tuple[dict, int]) -> None:
        fam, d = fields
        self._fam = dict(sorted((k, v) for k, v in fam.items() if v))
        self._d = d

    def _scaled(self, f: int, d: int) -> "GraphMultiset":
        return self._new({(s, o * f): tuple((lo * f, hi * f, m)
                                            for lo, hi, m in cells)
                          for (s, o), cells in self._fam.items()}, d)

    @classmethod
    def from_maps(cls, maps: Iterable[PartialMap]) -> "GraphMultiset":
        return cls((a, 1) for m in maps for a in m.atoms)

    # -- inspection ---------------------------------------------------------

    def families(self) -> Iterator[tuple[tuple[int, Fraction], StepReadout]]:
        d = self._d
        return (((s, Fraction(o, d)), _fractions(cells, d))
                for (s, o), cells in self._fam.items())

    def _family_map(self, key: tuple[int, int]) -> PartialMap:
        """The family of a grid key as a partial map (multiplicity ignored)."""
        return PartialMap._new([Atom._new(lo, hi, *key, self._d)
                                for lo, hi, _ in self._fam.get(key, ())],
                               self._d)

    def mass(self) -> Fraction:
        """Counting measure: total multiplicity-weighted source length."""
        return Fraction(sum(step_integral(c, abs) for c in self._fam.values()),
                        self._d)

    def _degree(self, image: bool) -> Step:
        """The row mass (the column mass, with image) as a step function of
        grid numerators."""
        return step_sum(((*_move(s, o, lo, hi), m) if image else (lo, hi, m)
                         for (s, o), cells in self._fam.items()
                         for lo, hi, m in cells), self._d)

    def _inside(self, a: Atom) -> Iterator[tuple[int, int]]:
        """The parts of a grid atom's source inside its family's cells, one
        per cell met, in order: the cells are sorted and disjoint."""
        cells = self._fam.get((a.slope, a._off), ())
        k = bisect_right(cells, a._lo, key=_HI)
        while k < len(cells) and cells[k][0] < a._hi:
            lo, hi, _ = cells[k]
            yield max(lo, a._lo), min(hi, a._hi)
            k += 1

    def contains_graph(self, m: PartialMap) -> bool:
        """True when every atom of m lies inside the matching family support:
        its parts inside the family's cells add up to its length."""
        g, m = _align(self, m)
        return all(sum(hi - lo for lo, hi in g._inside(a)) == a._hi - a._lo
                   for a in m.atoms)

    def clip_to_support(self, m: PartialMap) -> PartialMap:
        """Restrict m to the part of its graph inside this multiset's support."""
        g, m = _align(self, m)
        return PartialMap._new([Atom._new(lo, hi, a.slope, a._off, g._d)
                                for a in m.atoms for lo, hi in g._inside(a)],
                               g._d)

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "GraphMultiset") -> "GraphMultiset":
        a, b = _align(self, other)
        return self._new(_gather(chain(a._fam.items(), b._fam.items())), a._d)

    def subtract(self, other: "GraphMultiset") -> "GraphMultiset":
        """Exact multiset difference; raises if any multiplicity goes negative."""
        a, b = _align(self, other)
        fam = dict(a._fam)
        for key, cells in b._fam.items():
            fam[key] = _cells_sub(fam.get(key, ()), cells, True, a._d)
        return self._new(fam, a._d)

    def flip(self) -> "GraphMultiset":
        """Transpose: each atom family is replaced by its inverse family.
        ``_inverse_key`` is injective, so each inverse family is one
        family's cells moved (in reverse order for slope -1), unswept."""
        return self._new(_gather(
            (_inverse_key(s, o), tuple((*_move(s, o, lo, hi), m) for lo, hi, m
                                       in (cells if s == 1 else cells[::-1])))
            for (s, o), cells in self._fam.items()), self._d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphMultiset):
            return False
        a, b = _align(self, other)
        return a._fam == b._fam

    def __hash__(self) -> int:
        return hash(tuple(self.families()))

    def __repr__(self) -> str:
        return f"GraphMultiset<{len(self._fam)} families, mass {self.mass()}>"
