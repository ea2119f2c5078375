"""Measure-preserving partial isomorphisms of [0, 1) as affine atoms.

A map is a finite union of atoms ``x -> slope*x + offset`` with slope +1 or
-1 on a half-open source interval.  Slope +-1 makes measure preservation
automatic and the class is closed under restriction, inversion and
composition, which is all the calculus downstream needs.  Reflection atoms
reorient their image half-open: the image of ``[a, b)`` under
``x -> o - x`` is taken to be ``[o - b, o - a)``; the single endpoint this
drops has measure zero.  ``_move`` is the one place this rule is written.

The map operations walk only the atoms that meet a set (``_cut``), in
O(log k) plus the atoms and intervals met: by source, or by image through
the atoms' image order, which a map keeps from its construction
(``pieces`` inlines the source walk in its greedy step).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import OverlapError
from .intervals import IntervalSet, _align, _Grid, _HI, _merged, _on_grid, rat


def _move(slope: int, offset: int, lo: int, hi: int) -> tuple[int, int]:
    """Image of [lo, hi) under x -> slope*x + offset, taken half-open."""
    if slope == 1:
        return lo + offset, hi + offset
    return offset - hi, offset - lo


def _inverse_key(slope: int, offset: int) -> tuple[int, int]:
    """(slope, offset) of the inverse of x -> slope*x + offset."""
    return (1, -offset) if slope == 1 else (-1, offset)


def _readout(name: str) -> property:
    """The grid numerator ``name`` of an atom, read out as a Fraction."""
    return property(lambda a: Fraction(getattr(a, name), a._d))


class Atom(_Grid):
    """One affine piece of a partial isomorphism.

    Stores grid numerators over its ``_d``, the lcm of the denominators it
    was built from; ``lo``, ``hi`` and ``offset`` read them out as
    Fractions, and the image is the source of ``invert()``.
    """

    __slots__ = ("_lo", "_hi", "slope", "_off", "_ilo", "_ihi")

    def __init__(self, lo, hi, slope: int, offset):
        d, (lo, hi, offset) = _on_grid(
            *(rat(v).as_integer_ratio() for v in (lo, hi, offset)))
        self._set((lo, hi, slope, offset, d))

    def _set(self, fields: tuple[int, int, int, int, int]) -> None:
        lo, hi, slope, off, d = fields
        if slope not in (1, -1):
            raise ValueError("slope must be +1 or -1")
        if not (0 <= lo < hi <= d):
            raise ValueError(f"bad source [{Fraction(lo, d)},{Fraction(hi, d)})")
        ilo, ihi = _move(slope, off, lo, hi)
        if ilo < 0 or ihi > d:
            raise ValueError(f"image [{Fraction(ilo, d)},{Fraction(ihi, d)}) "
                             "leaves [0,1)")
        self._lo, self._hi, self.slope, self._off = lo, hi, slope, off
        self._ilo, self._ihi, self._d = ilo, ihi, d

    lo, hi, offset = map(_readout, ("_lo", "_hi", "_off"))

    def _scaled(self, f: int, d: int) -> "Atom":
        return Atom._new(self._lo * f, self._hi * f, self.slope,
                         self._off * f, d)

    def apply(self, x) -> Fraction | None:
        x = rat(x)
        if self.lo <= x < self.hi:
            return self.slope * x + self.offset
        return None

    def invert(self) -> "Atom":
        return Atom._new(self._ilo, self._ihi,
                         *_inverse_key(self.slope, self._off), self._d)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Atom)
                and (self.lo, self.hi, self.slope, self.offset)
                == (other.lo, other.hi, other.slope, other.offset))

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.slope, self.offset))

    def __repr__(self) -> str:
        sign = "x" if self.slope == 1 else "-x"
        return f"Atom([{self.lo},{self.hi}) {sign}+({self.offset}))"


_SLO, _SHI, _ILO, _IHI = map(attrgetter, ("_lo", "_hi", "_ilo", "_ihi"))


class PartialMap(_Grid):
    """Injective measure-preserving map between two subsets of [0, 1)."""

    __slots__ = ("atoms", "domain", "image", "_image_order")

    def __init__(self, atoms: Iterable[Atom] = ()):
        atoms = list(atoms)
        d = lcm(*(a._d for a in atoms))
        self._set(([a._lift(d) for a in atoms], d))

    def _set(self, fields: tuple[list[Atom], int]) -> None:
        """Sorts the atoms by source and, in one pass, merges contiguous ones
        of one (slope, offset) and builds the domain; one pass in image order,
        kept for ``_cut``, builds the image.  Any overlap is an OverlapError.
        Each pass carries the ends of the interval it is building and writes
        the interval once, at the gap after it; a run of touching atoms of
        one family becomes one atom when the run ends."""
        atoms, d = fields
        if len(atoms) == 1:  # nothing to sort, merge or check
            a = atoms[0]
            self.atoms, self._d, self._image_order = (a,), d, [a]
            self.domain = IntervalSet._new(((a._lo, a._hi),), d)
            self.image = IntervalSet._new(((a._ilo, a._ihi),), d)
            return
        kept, dom, img = [], [], []
        lo = hi = -1  # the domain interval being built
        p = None  # the last atom kept, whose run of one family ends at hi
        for a in sorted(atoms, key=_SLO):
            if a._lo > hi:
                if kept:
                    dom.append((lo, hi))
                lo = a._lo
            elif a._lo < hi:
                raise OverlapError(f"sources overlap at {a.lo}")
            elif a._off == p._off and a.slope == p.slope:
                hi = a._hi
                continue
            if kept and p._hi != hi:
                kept[-1] = Atom._new(p._lo, hi, p.slope, p._off, d)
            kept.append(p := a)
            hi = a._hi
        if kept:
            if p._hi != hi:
                kept[-1] = Atom._new(p._lo, hi, p.slope, p._off, d)
            dom.append((lo, hi))
        by_image = sorted(kept, key=_ILO)
        lo = hi = -1
        for a in by_image:
            if a._ilo > hi:
                if lo >= 0:
                    img.append((lo, hi))
                lo = a._ilo
            elif a._ilo < hi:
                raise OverlapError("images overlap (injectivity violated)")
            hi = a._ihi
        if kept:
            img.append((lo, hi))
        self.atoms, self._d, self._image_order = tuple(kept), d, by_image
        self.domain = IntervalSet._new(tuple(dom), d)
        self.image = IntervalSet._new(tuple(img), d)

    def _scaled(self, f: int, d: int) -> "PartialMap":
        return PartialMap._new([a._lift(d) for a in self.atoms], d)

    def is_empty(self) -> bool:
        return not self.atoms

    def apply(self, x) -> Fraction | None:
        x = rat(x)
        return next((y for a in self.atoms
                     if (y := a.apply(x)) is not None), None)

    __call__ = apply

    def invert(self) -> "PartialMap":
        return PartialMap._new([a.invert() for a in self.atoms], self._d)

    def _cut(self, s: IntervalSet, image: bool = False) -> tuple[int, list]:
        """The grid d of the map and s, and (atom, lo, hi) for each piece
        [lo, hi) where an atom's source (image, with ``image``) meets s, by
        bisection to their common window and a two-pointer merge there."""
        m, s = _align(self, s)
        atoms, iv, lo_of, hi_of = m.atoms, s._iv, _SLO, _SHI
        if image:
            atoms, lo_of, hi_of = m._image_order, _ILO, _IHI
        if not iv:
            return m._d, []
        i = bisect_right(atoms, iv[0][0], key=hi_of)
        n = bisect_left(atoms, iv[-1][1], key=lo_of)
        j = bisect_right(iv, lo_of(atoms[i]), key=_HI) if i < n else 0
        out = []
        while i < n and j < len(iv):
            a, (blo, bhi) = atoms[i], iv[j]
            alo, ahi = lo_of(a), hi_of(a)
            lo, hi = alo if alo > blo else blo, ahi if ahi < bhi else bhi
            if lo < hi:
                out.append((a, lo, hi))
            if ahi < bhi:
                i += 1
            else:
                j += 1
        return m._d, out

    def restrict(self, s: IntervalSet) -> "PartialMap":
        """Keep only the graph over s (restriction by source)."""
        d, cut = self._cut(s)
        return PartialMap._new([Atom._new(lo, hi, a.slope, a._off, d)
                                for a, lo, hi in cut], d)

    def image_of(self, s: IntervalSet) -> IntervalSet:
        d, cut = self._cut(s)
        return IntervalSet._new(tuple(_merged(
            [_move(a.slope, a._off, lo, hi) for a, lo, hi in cut])), d)

    def preimage_of(self, s: IntervalSet) -> IntervalSet:
        d, cut = self._cut(s, image=True)
        return IntervalSet._new(tuple(_merged(
            [_move(*_inverse_key(a.slope, a._off), lo, hi)
             for a, lo, hi in cut])), d)

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialMap) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"PartialMap<{len(self.atoms)} atoms, mass {self.domain.measure()}>"


EMPTY_MAP = PartialMap()


def identity_map() -> PartialMap:
    return PartialMap._new([Atom._new(0, 1, 1, 0, 1)], 1)


def compose(f: PartialMap, g: PartialMap) -> PartialMap:
    """f after g, defined on g^{-1}(domain(f)); slopes multiply, exact."""
    f, g = _align(f, g)
    return PartialMap._new(
        [Atom._new(*_move(*_inverse_key(ag.slope, ag._off), lo, hi),
                   af.slope * ag.slope, af.slope * ag._off + af._off, f._d)
         for af in f.atoms for ag, lo, hi in g._cut(
             IntervalSet._new(((af._lo, af._hi),), f._d), True)[1]],
        f._d)


def glue(maps: Sequence[PartialMap]) -> PartialMap:
    """Concatenate maps with pairwise disjoint sources and images.

    Raises OverlapError when the disjointness needed for injectivity fails.
    """
    return PartialMap(a for m in maps for a in m.atoms)


def pair_chunks(src: Sequence[tuple[int, int]], dst: Sequence[tuple[int, int]],
                ) -> Iterator[tuple[int, int, int]]:
    """Pair two interval lists of equal total length in one left-to-right
    sweep, splitting intervals where lengths differ.

    Yields (lo, hi, shift): the chunk [lo, hi) of src goes to
    [lo + shift, hi + shift) of dst, chunks in list order.
    """
    i = j = 0
    s_lo = src[0][0] if src else None
    d_lo = dst[0][0] if dst else None
    while i < len(src):
        step = min(src[i][1] - s_lo, dst[j][1] - d_lo)
        yield s_lo, s_lo + step, d_lo - s_lo
        s_lo += step
        d_lo += step
        if s_lo == src[i][1]:
            i += 1
            if i < len(src):
                s_lo = src[i][0]
        if d_lo == dst[j][1]:
            j += 1
            if j < len(dst):
                d_lo = dst[j][0]


def monotone_pairing(src: IntervalSet, dst: IntervalSet) -> PartialMap:
    """The unique order isomorphism src -> dst made of slope +1 pieces.

    Both sets must have equal measure; the pieces are paired by one
    ``pair_chunks`` sweep.
    """
    src, dst = _align(src, dst)
    if src._size() != dst._size():
        raise ValueError("monotone pairing needs equal measures")
    return PartialMap._new([Atom._new(lo, hi, 1, shift, src._d) for lo, hi, shift
                            in pair_chunks(src._iv, dst._iv)], src._d)
