"""Measure-preserving partial isomorphisms of [0, 1) as affine atoms.

A map is a finite union of atoms ``x -> slope*x + offset`` with slope +1 or
-1 on a half-open source interval.  Slope +-1 makes measure preservation
automatic and the class is closed under restriction, inversion and
composition, which is all the calculus downstream needs.  Reflection atoms
reorient their image half-open: the image of ``[a, b)`` under
``x -> o - x`` is taken to be ``[o - b, o - a)``; the single endpoint this
drops has measure zero.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import OverlapError
from .intervals import FULL, ONE, ZERO, IntervalSet, rat


class Atom:
    """One affine piece of a partial isomorphism."""

    __slots__ = ("lo", "hi", "slope", "offset")

    def __init__(self, lo, hi, slope: int, offset):
        lo, hi, offset = rat(lo), rat(hi), rat(offset)
        if slope not in (1, -1):
            raise ValueError("slope must be +1 or -1")
        if not (ZERO <= lo < hi <= ONE):
            raise ValueError(f"bad source [{lo},{hi})")
        ilo, ihi = (lo + offset, hi + offset) if slope == 1 else (offset - hi, offset - lo)
        if ilo < ZERO or ihi > ONE:
            raise ValueError(f"image [{ilo},{ihi}) leaves [0,1)")
        self.lo, self.hi, self.slope, self.offset = lo, hi, slope, offset

    @property
    def image_lo(self) -> Fraction:
        return self.lo + self.offset if self.slope == 1 else self.offset - self.hi

    @property
    def image_hi(self) -> Fraction:
        return self.hi + self.offset if self.slope == 1 else self.offset - self.lo

    def apply(self, x) -> Fraction | None:
        x = rat(x)
        if self.lo <= x < self.hi:
            return self.slope * x + self.offset
        return None

    def invert(self) -> "Atom":
        if self.slope == 1:
            return Atom(self.lo + self.offset, self.hi + self.offset, 1, -self.offset)
        return Atom(self.offset - self.hi, self.offset - self.lo, -1, self.offset)

    def key(self) -> tuple:
        return (self.slope, self.offset)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Atom)
                and (self.lo, self.hi, self.slope, self.offset)
                == (other.lo, other.hi, other.slope, other.offset))

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.slope, self.offset))

    def __repr__(self) -> str:
        sign = "x" if self.slope == 1 else "-x"
        return f"Atom([{self.lo},{self.hi}) {sign}+({self.offset}))"


def _canonical_atoms(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    """Sort by source and merge contiguous atoms of the same (slope, offset)."""
    atoms = sorted(atoms, key=lambda a: a.lo)
    merged: list[Atom] = []
    for a in atoms:
        if merged:
            p = merged[-1]
            if p.key() == a.key() and p.hi == a.lo:
                merged[-1] = Atom(p.lo, a.hi, a.slope, a.offset)
                continue
        merged.append(a)
    return tuple(merged)


class PartialMap:
    """Injective measure-preserving map between two subsets of [0, 1)."""

    __slots__ = ("atoms", "domain", "image")

    def __init__(self, atoms: Iterable[Atom] = ()):
        self.atoms = _canonical_atoms(atoms)
        dom_pairs = []
        img_pairs = []
        prev_hi = None
        for a in self.atoms:
            if prev_hi is not None and a.lo < prev_hi:
                raise OverlapError(f"sources overlap at {a.lo}")
            prev_hi = a.hi
            dom_pairs.append((a.lo, a.hi))
            img_pairs.append((a.image_lo, a.image_hi))
        self.domain = IntervalSet._merge_pairs(dom_pairs)
        self.image = IntervalSet._merge_pairs(img_pairs)
        if self.image.measure() != self.domain.measure():
            raise OverlapError("images overlap (injectivity violated)")

    def is_empty(self) -> bool:
        return not self.atoms

    def apply(self, x) -> Fraction | None:
        x = rat(x)
        for a in self.atoms:
            if a.lo <= x < a.hi:
                return a.slope * x + a.offset
        return None

    __call__ = apply

    def invert(self) -> "PartialMap":
        return PartialMap(a.invert() for a in self.atoms)

    def restrict(self, s: IntervalSet) -> "PartialMap":
        """Keep only the graph over s (restriction by source)."""
        out = []
        for a in self.atoms:
            for lo, hi in s.clip(a.lo, a.hi):
                out.append(Atom(lo, hi, a.slope, a.offset))
        return PartialMap(out)

    def restrict_image(self, s: IntervalSet) -> "PartialMap":
        """Keep only the graph whose image lies in s."""
        out = []
        for a in self.atoms:
            for lo, hi in s.clip(a.image_lo, a.image_hi):
                if a.slope == 1:
                    out.append(Atom(lo - a.offset, hi - a.offset, 1, a.offset))
                else:
                    out.append(Atom(a.offset - hi, a.offset - lo, -1, a.offset))
        return PartialMap(out)

    def image_of(self, s: IntervalSet) -> IntervalSet:
        pieces = []
        for a in self.atoms:
            for lo, hi in s.clip(a.lo, a.hi):
                if a.slope == 1:
                    pieces.append((lo + a.offset, hi + a.offset))
                else:
                    pieces.append((a.offset - hi, a.offset - lo))
        return IntervalSet._merge_pairs(pieces)

    def preimage_of(self, s: IntervalSet) -> IntervalSet:
        pieces = []
        for a in self.atoms:
            for lo, hi in s.clip(a.image_lo, a.image_hi):
                if a.slope == 1:
                    pieces.append((lo - a.offset, hi - a.offset))
                else:
                    pieces.append((a.offset - hi, a.offset - lo))
        return IntervalSet._merge_pairs(pieces)

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialMap) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"PartialMap<{len(self.atoms)} atoms, mass {self.domain.measure()}>"


EMPTY_MAP = PartialMap()


def identity_map(on: IntervalSet = FULL) -> PartialMap:
    return PartialMap(Atom(lo, hi, 1, ZERO) for lo, hi in on)


def compose(f: PartialMap, g: PartialMap) -> PartialMap:
    """f after g, defined on g^{-1}(domain(f)); slopes multiply, exact."""
    out = []
    for ag in g.atoms:
        glo, ghi = ag.image_lo, ag.image_hi
        for af in f.atoms:
            lo, hi = max(glo, af.lo), min(ghi, af.hi)
            if lo < hi:
                if ag.slope == 1:
                    xlo, xhi = lo - ag.offset, hi - ag.offset
                else:
                    xlo, xhi = ag.offset - hi, ag.offset - lo
                out.append(Atom(xlo, xhi, af.slope * ag.slope,
                                af.slope * ag.offset + af.offset))
    return PartialMap(out)


def glue(maps: Sequence[PartialMap]) -> PartialMap:
    """Concatenate maps with pairwise disjoint sources and images.

    Raises OverlapError when the disjointness needed for injectivity fails.
    """
    return PartialMap(a for m in maps for a in m.atoms)


def graph_intersect(f: PartialMap, g: PartialMap) -> PartialMap:
    """Common graph of f and g.

    Atoms agree in positive measure only when their (slope, offset) pairs
    coincide; everything else meets in at most one point and is dropped.
    """
    out = []
    for af in f.atoms:
        for ag in g.atoms:
            if af.key() == ag.key():
                lo, hi = max(af.lo, ag.lo), min(af.hi, ag.hi)
                if lo < hi:
                    out.append(Atom(lo, hi, af.slope, af.offset))
    return PartialMap(out)


def pair_chunks(src: Sequence[tuple[Fraction, Fraction]],
                dst: Sequence[tuple[Fraction, Fraction]],
                ) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
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
    if src.measure() != dst.measure():
        raise ValueError("monotone pairing needs equal measures")
    return PartialMap(Atom(lo, hi, 1, shift)
                      for lo, hi, shift in pair_chunks(src.pairs, dst.pairs))
