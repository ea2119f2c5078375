"""Independent brute-force oracles the tests check production code against.

Nothing here reuses the package's multiset refinement machinery: expected
values are recomputed from raw atom lists by exhaustive scans.
"""

from fractions import Fraction


def brute_distance(a, b) -> Fraction:
    """L1 distance between associated matrices by brute common refinement.

    Groups atoms by (slope, offset) straight off the map lists, cuts each
    group at every endpoint that occurs anywhere, and counts covering atoms
    per elementary cell by scanning the whole list again.
    """
    legs: dict = {}
    for dse, sign in ((a, 1), (b, -1)):
        for m in dse.maps:
            for atom in m.atoms:
                legs.setdefault((atom.slope, atom.offset), []).append(
                    (atom.lo, atom.hi, sign))
    total = Fraction(0)
    for items in legs.values():
        cuts = sorted({x for lo, hi, _ in items for x in (lo, hi)})
        for i in range(len(cuts) - 1):
            lo, hi = cuts[i], cuts[i + 1]
            count = 0
            for alo, ahi, sign in items:
                if alo <= lo and hi <= ahi:
                    count += sign
            total += abs(count) * (hi - lo)
    return total


def brute_measure(pairs) -> Fraction:
    """Measure of a union of possibly-overlapping [lo, hi) pairs by scanning
    elementary cells."""
    pts = sorted({x for p in pairs for x in p})
    total = Fraction(0)
    for i in range(len(pts) - 1):
        lo, hi = pts[i], pts[i + 1]
        if any(alo <= lo and hi <= ahi for alo, ahi in pairs):
            total += hi - lo
    return total


def reference_normalize_cover(m, n):
    """The quadratic normalize_cover, kept as the reference for the sweep.

    Deals every cut by scanning every family for the cell holding it, and
    ranks every layer after cutting at the crossing of every slope +1 and
    slope -1 atom pair, rescanning the layer's atoms for every cell.
    """
    from dsekit.dse import DSE
    from dsekit.errors import NotDoublyStochastic
    from dsekit.intervals import ONE, ZERO
    from dsekit.maps import Atom

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
    layers = [[] for _ in range(n)]
    for k in range(len(cuts) - 1):
        lo, hi = cuts[k], cuts[k + 1]
        idx = 0
        for (slope, offset), cells in families:
            mult = _reference_multiplicity_at(cells, lo)
            for _ in range(mult):
                layers[idx].append(Atom(lo, hi, slope, offset))
                idx += 1
    maps = []
    for layer in layers:
        maps.extend(reference_split_into_injective(layer))
    out = DSE(maps, n)
    assert out.matrix == m
    assert len(out.maps) <= n * len(families)
    return out


def _reference_multiplicity_at(cells, x) -> int:
    for lo, hi, mult in cells:
        if lo <= x < hi:
            return mult
    return 0


def reference_split_into_injective(atoms):
    """Rank a row-mass-one layer after cutting at all crossings."""
    from dsekit.intervals import ONE, ZERO
    from dsekit.maps import Atom, PartialMap

    if not atoms:
        return []
    cuts = {x for a in atoms for x in (a.image_lo, a.image_hi)}
    for a in atoms:
        if a.slope != 1:
            continue
        for b in atoms:
            if b.slope == -1:
                y = (a.offset + b.offset) / 2
                if ZERO < y < ONE:
                    cuts.add(y)
    ordered = sorted(cuts)
    ranks = {}
    for k in range(len(ordered) - 1):
        lo, hi = ordered[k], ordered[k + 1]
        branches = [a for a in atoms if a.image_lo <= lo and hi <= a.image_hi]
        if not branches:
            continue
        mid = (lo + hi) / 2
        branches.sort(key=lambda a, m=mid: m - a.offset if a.slope == 1
                      else a.offset - m)
        for r, a in enumerate(branches):
            if a.slope == 1:
                piece = Atom(lo - a.offset, hi - a.offset, 1, a.offset)
            else:
                piece = Atom(a.offset - hi, a.offset - lo, -1, a.offset)
            ranks.setdefault(r, []).append(piece)
    return [PartialMap(v) for _, v in sorted(ranks.items())]
