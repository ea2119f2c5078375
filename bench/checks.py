"""Output oracles for the benchmark, sharing no code with dsekit.

Everything here works on raw atom lists parsed straight from the JSON the
CLI reads and writes: an atom is ``(lo, hi, slope, offset)`` with
``Fraction`` entries, a weighted atom appends an integer weight.  The
oracles recompute each claimed property by brute force (common
refinements and sweeps over sorted endpoints), so a fault in the package's
multiset or interval machinery cannot hide itself in the check.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class CheckFailed(Exception):
    """An operation's output does not have the property the method promises."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- parsing ------------------------------------------------------------------


def rational(text) -> Fraction:
    """Parse a ``"p/q"`` string (or an integer) into an exact rational."""
    if isinstance(text, int):
        return Fraction(text)
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den or 1))


def atoms_from_json(data) -> list[tuple]:
    return [(rational(a["src"][0]), rational(a["src"][1]), int(a["slope"]),
             rational(a["offset"])) for a in data]


def element_from_json(data) -> tuple[int, list[list[tuple]]]:
    """(multiplicity, maps) of an element in the CLI's JSON form."""
    return int(data["multiplicity"]), [atoms_from_json(m) for m in data["maps"]]


def entries_from_json(data) -> list[tuple]:
    """Weighted atoms of a multiset in the CLI's ``{"entries": ...}`` form."""
    return [(rational(e["src"][0]), rational(e["src"][1]), int(e["slope"]),
             rational(e["offset"]), int(e["multiplicity"]))
            for e in data["entries"]]


# -- atoms ----------------------------------------------------------------------


def image(atom) -> tuple[Fraction, Fraction]:
    lo, hi, slope, offset = atom[:4]
    return (lo + offset, hi + offset) if slope == 1 else (offset - hi, offset - lo)


def inverse(atom) -> tuple:
    """The inverse atom; a weight, if present, is carried along."""
    lo, hi, slope, offset = atom[:4]
    ilo, ihi = image(atom)
    return (ilo, ihi, slope, -offset if slope == 1 else offset) + tuple(atom[4:])


def weighted(maps, weight: int = 1) -> list[tuple]:
    return [a + (weight,) for m in maps for a in m]


def symmetrized(maps) -> list[list[tuple]]:
    """The maps followed by their inverses."""
    return list(maps) + [[inverse(a) for a in m] for m in maps]


# -- sweeps and refinements -----------------------------------------------------


def coverage(pieces) -> list[tuple[Fraction, Fraction, int]]:
    """Step function of a sum of weighted indicators ``(lo, hi, w)`` on [0, 1).

    Returns the cells of the common refinement of all endpoints together
    with 0 and 1, each with its total weight; cells of weight zero are kept,
    so the cells always tile [0, 1).
    """
    delta: dict[Fraction, int] = {ZERO: 0, ONE: 0}
    for lo, hi, w in pieces:
        if not (ZERO <= lo < hi <= ONE):
            raise CheckFailed(f"interval [{lo}, {hi}) is empty or leaves [0, 1)")
        delta[lo] = delta.get(lo, 0) + w
        delta[hi] = delta.get(hi, 0) - w
    cuts = sorted(delta)
    cells = []
    level = 0
    for left, right in zip(cuts, cuts[1:]):
        level += delta[left]
        cells.append((left, right, level))
    return cells


def covers_exactly(pieces, n: int) -> bool:
    """Whether the weighted intervals cover almost every point exactly n times."""
    return all(v == n for _, _, v in coverage(pieces))


def is_bijection(atoms) -> bool:
    """Whether the atoms form a measure-preserving bijection of [0, 1)."""
    try:
        for lo, hi, slope, offset in atoms:
            ilo, ihi = image((lo, hi, slope, offset))
            if slope not in (1, -1) or not (ZERO <= ilo < ihi <= ONE):
                return False
        return (covers_exactly(((lo, hi, 1) for lo, hi, _, _ in atoms), 1)
                and covers_exactly(((*image(a), 1) for a in atoms), 1))
    except CheckFailed:
        return False


def l1_distance(left, right) -> Fraction:
    """Integral of |M(left) - M(right)| against the counting measure.

    Both sides are weighted atom lists.  Atoms are grouped by their
    ``(slope, offset)`` family straight off the lists; each family is cut at
    every endpoint of every atom in it, and the signed weight over each
    elementary cell is summed from the atoms that span it.
    """
    families: dict[tuple, list] = {}
    for side, sign in ((left, 1), (right, -1)):
        for lo, hi, slope, offset, w in side:
            families.setdefault((slope, offset), []).append((lo, hi, sign * w))
    total = ZERO
    for items in families.values():
        cuts = sorted({x for lo, hi, _ in items for x in (lo, hi)})
        net = [0] * (len(cuts) - 1)
        for lo, hi, w in items:
            for c in range(bisect_left(cuts, lo), bisect_left(cuts, hi)):
                net[c] += w
        total += sum((abs(v) * (cuts[c + 1] - cuts[c])
                      for c, v in enumerate(net) if v), ZERO)
    return total


def division_error(oriented, n: int) -> Fraction:
    """Integral of |n - out-degree|, the out-degree read off the sources."""
    return sum((abs(n - v) * (hi - lo)
                for lo, hi, v in coverage((a[0], a[1], a[4]) for a in oriented)),
               ZERO)


def is_permutation_matrix(p) -> bool:
    m = len(p)
    if m == 0 or any(len(row) != m for row in p):
        return False
    if any(x not in (0, 1) for row in p for x in row):
        return False
    return (all(sum(row) == 1 for row in p)
            and all(sum(p[i][j] for i in range(m)) == 1 for j in range(m)))
