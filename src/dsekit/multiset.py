"""Integer-weighted multisets of graph atoms.

The associated matrix of a doubly stochastic element is a finite integer
function on the union of its graphs.  Here it is a multiset of affine
atoms: entries are grouped by (slope, offset) families, and within a family
the source line carries an integer multiplicity step.  Two entries of equal
(slope, offset) always have disjoint sources (canonical refinement), so the
counting measure, row/column masses and L1 distance are exact sums.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .intervals import ZERO, IntervalSet, Step, step_sum, sweep
from .maps import Atom, PartialMap, _inverse_key, _move

Key = tuple[int, Fraction]
Cells = tuple[tuple[Fraction, Fraction, int], ...]


def overlay_cells(raw: Iterable[tuple[Fraction, Fraction, int]]) -> Cells:
    """Overlay possibly-overlapping weighted intervals into sparse cells."""
    return sweep(raw, sparse=True, strict=True)


def _cells_sub(a: Cells, b: Cells, strict: bool) -> Cells:
    return sweep((*a, *((lo, hi, -w) for lo, hi, w in b)), sparse=True,
                 strict=strict)


class GraphMultiset:
    """Multiset of graph atoms with integer multiplicities (the matrix M)."""

    __slots__ = ("_fam", "_support_cache")

    def __init__(self, entries: Iterable[tuple[Atom, int]] = ()):
        grouped: dict[Key, list] = {}
        for atom, mult in entries:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult == 0:
                continue
            grouped.setdefault(atom.key(), []).append((atom.lo, atom.hi, mult))
        fam = {}
        for key, raw in grouped.items():
            cells = overlay_cells(raw)
            if cells:
                fam[key] = cells
        self._fam = dict(sorted(fam.items()))
        self._support_cache: dict[Key, IntervalSet] = {}

    @classmethod
    def _raw(cls, fam: dict) -> "GraphMultiset":
        m = object.__new__(cls)
        m._fam = dict(sorted((k, v) for k, v in fam.items() if v))
        m._support_cache = {}
        return m

    @classmethod
    def from_maps(cls, maps: Iterable[PartialMap]) -> "GraphMultiset":
        return cls((a, 1) for m in maps for a in m.atoms)

    # -- inspection ---------------------------------------------------------

    def families(self) -> Iterator[tuple[Key, Cells]]:
        return iter(self._fam.items())

    def support(self, key: Key) -> IntervalSet:
        cached = self._support_cache.get(key)
        if cached is None:
            cached = IntervalSet._merge_pairs(
                [(lo, hi) for lo, hi, _ in self._fam.get(key, ())])
            self._support_cache[key] = cached
        return cached

    def family_map(self, key: Key) -> PartialMap:
        """The support of one family as a partial map (multiplicity ignored)."""
        slope, offset = key
        return PartialMap(Atom(lo, hi, slope, offset)
                          for lo, hi, _ in self._fam.get(key, ()))

    def is_empty(self) -> bool:
        return not self._fam

    def mass(self) -> Fraction:
        """Counting measure: total multiplicity-weighted source length."""
        return sum(((hi - lo) * m for cells in self._fam.values()
                    for lo, hi, m in cells), ZERO)

    def row_step(self) -> Step:
        return step_sum((lo, hi, m) for cells in self._fam.values()
                        for lo, hi, m in cells)

    def col_step(self) -> Step:
        return step_sum((*_move(slope, offset, lo, hi), m)
                        for (slope, offset), cells in self._fam.items()
                        for lo, hi, m in cells)

    def contains_graph(self, m: PartialMap) -> bool:
        """True when every atom of m lies inside the matching family support."""
        return all(self.support(a.key()).clip(a.lo, a.hi) == [(a.lo, a.hi)]
                   for a in m.atoms)

    def clip_to_support(self, m: PartialMap) -> PartialMap:
        """Restrict m to the part of its graph inside this multiset's support."""
        out = []
        for a in m.atoms:
            for lo, hi in self.support(a.key()).clip(a.lo, a.hi):
                out.append(Atom(lo, hi, a.slope, a.offset))
        return PartialMap(out)

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "GraphMultiset") -> "GraphMultiset":
        fam = dict(self._fam)
        for key, cells in other._fam.items():
            if key in fam:
                fam[key] = overlay_cells(list(fam[key]) + list(cells))
            else:
                fam[key] = cells
        return self._raw(fam)

    def subtract(self, other: "GraphMultiset") -> "GraphMultiset":
        """Exact multiset difference; raises if any multiplicity goes negative."""
        fam = dict(self._fam)
        for key, cells in other._fam.items():
            fam[key] = _cells_sub(fam.get(key, ()), cells, strict=True)
        return self._raw(fam)

    def add_maps(self, maps: Iterable[PartialMap]) -> "GraphMultiset":
        return self.add(GraphMultiset.from_maps(maps))

    def subtract_maps(self, maps: Iterable[PartialMap]) -> "GraphMultiset":
        return self.subtract(GraphMultiset.from_maps(maps))

    def flip(self) -> "GraphMultiset":
        """Transpose: each atom family is replaced by its inverse family."""
        fam: dict[Key, list] = {}
        for (slope, offset), cells in self._fam.items():
            fam.setdefault(_inverse_key(slope, offset), []).extend(
                (*_move(slope, offset, lo, hi), m) for lo, hi, m in cells)
        return self._raw({k: overlay_cells(v) for k, v in fam.items()})

    def l1_distance(self, other: "GraphMultiset") -> Fraction:
        """Integral of |self - other| against the counting measure."""
        total = ZERO
        for key in set(self._fam) | set(other._fam):
            diff = _cells_sub(self._fam.get(key, ()),
                              other._fam.get(key, ()), strict=False)
            total += sum(((hi - lo) * abs(v) for lo, hi, v in diff), ZERO)
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, GraphMultiset) and self._fam == other._fam

    def __hash__(self) -> int:
        return hash(tuple((k, v) for k, v in self._fam.items()))

    def __repr__(self) -> str:
        return f"GraphMultiset<{len(self._fam)} families, mass {self.mass()}>"
