"""Finite Birkhoff-von Neumann decomposition and the dyadic bridge.

Works on m x m nonnegative integer matrices with all row and column sums
equal to n.  A permutation below such a matrix always exists (Hall's
condition holds), so the matrix is a sum of exactly n permutation matrices.
``discretize``/``lift`` move cell-aligned interval elements to such
matrices and back, which makes the finite theorem usable as an oracle for
the exact interval pipeline.
"""

from __future__ import annotations

from fractions import Fraction

from .dse import DSE
from .errors import (Infeasible, NotCellAligned, NotDoublyStochastic,
                     NotPermutation, check)
from .maps import Atom, PartialMap

Matrix = list[list[int]]


def _check_square(a: Matrix) -> int:
    m = len(a)
    if m == 0 or any(len(row) != m for row in a):
        raise ValueError("matrix must be square and non-empty")
    if any(x < 0 or not isinstance(x, int) for row in a for x in row):
        raise ValueError("entries must be nonnegative integers")
    return m


def regularity(a: Matrix) -> int:
    """The common row/column sum, or raise NotDoublyStochastic."""
    m = _check_square(a)
    n = sum(a[0])
    for i in range(m):
        if sum(a[i]) != n:
            raise NotDoublyStochastic(f"row {i} sums to {sum(a[i])}, expected {n}")
    for j in range(m):
        c = sum(a[i][j] for i in range(m))
        if c != n:
            raise NotDoublyStochastic(f"column {j} sums to {c}, expected {n}")
    if n < 1:
        raise NotDoublyStochastic("zero matrix has no permutation below it")
    return n


def extract_permutation(a: Matrix) -> Matrix:
    """A permutation matrix p with p <= a entrywise, via augmenting paths.

    Rows are matched in index order, each by a depth-first search for an
    augmenting path that scans columns in index order.  The search keeps
    its path on an explicit stack, so path length is not bounded by the
    interpreter's recursion limit.
    """
    m = _check_square(a)
    regularity(a)
    cols = [[j for j, x in enumerate(row) if x > 0] for row in a]
    # match[j] = row matched to column j
    match: list[int | None] = [None] * m
    for root in range(m):
        seen = [False] * m
        rows = [root]                  # rows on the current path
        scans = [iter(cols[root])]     # each row's remaining columns
        picked: list[int] = []         # column leading from rows[k] onward
        while scans:
            for j in scans[-1]:
                if not seen[j]:
                    break
            else:
                rows.pop()
                scans.pop()
                if picked:
                    picked.pop()
                continue
            seen[j] = True
            picked.append(j)
            if match[j] is None:
                for i, col in zip(rows, picked):
                    match[col] = i
                break
            rows.append(match[j])
            scans.append(iter(cols[match[j]]))
        else:
            raise NotDoublyStochastic(f"no perfect matching covers row {root}")
    p = [[0] * m for _ in range(m)]
    for j, i in enumerate(match):
        p[i][j] = 1
    return p


def decompose_bvn(a: Matrix) -> list[Matrix]:
    """Write a as a sum of exactly n permutation matrices."""
    n = regularity(a)
    work = [row[:] for row in a]
    perms = []
    for _ in range(n):
        p = extract_permutation(work)
        perms.append(p)
        for i in range(len(work)):
            for j in range(len(work)):
                work[i][j] -= p[i][j]
    check(all(x == 0 for row in work for x in row),
          "permutations do not sum to the matrix")
    return perms


def is_permutation(p: Matrix) -> bool:
    try:
        return regularity(p) == 1
    except (NotDoublyStochastic, ValueError):
        return False


def pad_to_doubly_stochastic(y: Matrix, n: int) -> Matrix:
    """A nonnegative z with y + z regular of degree n, by greedy matching
    of deficient rows with deficient columns."""
    m = _check_square(y)
    row_def = [n - sum(y[i]) for i in range(m)]
    col_def = [n - sum(y[i][j] for i in range(m)) for j in range(m)]
    if any(d < 0 for d in row_def) or any(d < 0 for d in col_def):
        raise Infeasible("a row or column sum already exceeds the target")
    z = [[0] * m for _ in range(m)]
    i = j = 0
    while i < m and j < m:
        if row_def[i] == 0:
            i += 1
            continue
        if col_def[j] == 0:
            j += 1
            continue
        t = min(row_def[i], col_def[j])
        z[i][j] += t
        row_def[i] -= t
        col_def[j] -= t
    check(not any(row_def) and not any(col_def),
          "greedy padding left a deficit")
    return z


# -- dyadic discretization bridge ---------------------------------------------


def discretize(d: DSE, level: int) -> Matrix:
    """Count graph atoms cell-to-cell on the dyadic grid of the given level.

    Entry (i, j) is the multiplicity with which the element carries cell j
    onto cell i.  Every atom must have source endpoints and offset on the
    2^-level grid; reflection atoms then map cells onto cells as well.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    m = 2 ** level
    unit = Fraction(1, m)
    bad = [a for pm in d.maps for a in pm.atoms
           if (a.lo % unit or a.hi % unit or a.offset % unit)]
    if bad:
        raise NotCellAligned(
            f"{len(bad)} atoms are not aligned to the 1/{m} grid", bad)
    out = [[0] * m for _ in range(m)]
    for pm in d.maps:
        for a in pm.atoms:
            for j in range(int(a.lo / unit), int(a.hi / unit)):
                src_lo = j * unit
                tgt_lo = src_lo + a.offset if a.slope == 1 \
                    else a.offset - (src_lo + unit)
                out[int(tgt_lo / unit)][j] += 1
    return out


def lift(perms: list[Matrix], level: int) -> DSE:
    """Cell-translation automorphisms realizing the given permutations."""
    m = 2 ** level
    unit = Fraction(1, m)
    maps = []
    for p in perms:
        if len(p) != m or not is_permutation(p):
            raise NotPermutation(f"expected a permutation matrix of size {m}")
        atoms = []
        for j in range(m):
            i = next(i for i in range(m) if p[i][j] == 1)
            atoms.append(Atom(j * unit, (j + 1) * unit, 1, (i - j) * unit))
        maps.append(PartialMap(atoms))
    return DSE(maps, len(perms))
