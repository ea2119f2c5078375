"""Measure-preserving partial isomorphisms of [0, 1) as affine atoms.

A map is a finite union of atoms ``x -> slope*x + offset`` with slope +1 or
-1 on a half-open source interval.  Slope +-1 makes measure preservation
automatic and the class is closed under restriction, inversion and
composition, which is all the calculus downstream needs.  Reflection atoms
reorient their image half-open: the image of ``[a, b)`` under
``x -> o - x`` is taken to be ``[o - b, o - a)``; the single endpoint this
drops has measure zero.  ``_move`` is the one place this rule is written.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import OverlapError
from .intervals import FULL, ONE, ZERO, IntervalSet, rat


def _move(slope: int, offset: Fraction, lo: Fraction,
          hi: Fraction) -> tuple[Fraction, Fraction]:
    """Image of [lo, hi) under x -> slope*x + offset, taken half-open."""
    if slope == 1:
        return lo + offset, hi + offset
    return offset - hi, offset - lo


def _inverse_key(slope: int, offset: Fraction) -> tuple[int, Fraction]:
    """(slope, offset) of the inverse of x -> slope*x + offset."""
    return (1, -offset) if slope == 1 else (-1, offset)


class Atom:
    """One affine piece of a partial isomorphism."""

    __slots__ = ("lo", "hi", "slope", "offset", "image_lo", "image_hi")

    def __init__(self, lo, hi, slope: int, offset):
        lo, hi, offset = rat(lo), rat(hi), rat(offset)
        if slope not in (1, -1):
            raise ValueError("slope must be +1 or -1")
        if not (ZERO <= lo < hi <= ONE):
            raise ValueError(f"bad source [{lo},{hi})")
        ilo, ihi = _move(slope, offset, lo, hi)
        if ilo < ZERO or ihi > ONE:
            raise ValueError(f"image [{ilo},{ihi}) leaves [0,1)")
        self.lo, self.hi, self.slope, self.offset = lo, hi, slope, offset
        self.image_lo, self.image_hi = ilo, ihi

    def apply(self, x) -> Fraction | None:
        x = rat(x)
        if self.lo <= x < self.hi:
            return self.slope * x + self.offset
        return None

    def invert(self) -> "Atom":
        return Atom(self.image_lo, self.image_hi,
                    *_inverse_key(self.slope, self.offset))

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
            back = _inverse_key(a.slope, a.offset)
            for lo, hi in s.clip(a.image_lo, a.image_hi):
                out.append(Atom(*_move(*back, lo, hi), a.slope, a.offset))
        return PartialMap(out)

    def image_of(self, s: IntervalSet) -> IntervalSet:
        pieces = []
        for a in self.atoms:
            for lo, hi in s.clip(a.lo, a.hi):
                pieces.append(_move(a.slope, a.offset, lo, hi))
        return IntervalSet._merge_pairs(pieces)

    def preimage_of(self, s: IntervalSet) -> IntervalSet:
        pieces = []
        for a in self.atoms:
            back = _inverse_key(a.slope, a.offset)
            for lo, hi in s.clip(a.image_lo, a.image_hi):
                pieces.append(_move(*back, lo, hi))
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
        back = _inverse_key(ag.slope, ag.offset)
        for af in f.atoms:
            lo, hi = max(ag.image_lo, af.lo), min(ag.image_hi, af.hi)
            if lo < hi:
                out.append(Atom(*_move(*back, lo, hi), af.slope * ag.slope,
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
