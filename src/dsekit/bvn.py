"""Finite Birkhoff-von Neumann decomposition and the dyadic bridge.

Works on m x m nonnegative integer matrices with all row and column sums
equal to n.  A permutation below such a matrix always exists (Hall's
condition holds), so the matrix is a sum of exactly n permutation matrices.
``discretize``/``lift`` move cell-aligned interval elements to such
matrices and back, which makes the finite theorem usable as an oracle for
the exact interval pipeline.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress, repeat

from .dse import DSE
from .errors import (Infeasible, NotCellAligned, NotDoublyStochastic,
                     NotPermutation, check)
from .maps import Atom, PartialMap, _move

Matrix = list[list[int]]
# the checks and the matching work on rows of column -> nonzero entry, in
# ascending column order
Rows = list[dict[int, int]]


def _check_square(a: Matrix) -> tuple[Rows, list[int]]:
    """The sparse rows and the widths of a dense matrix with integer
    entries; ``_line_sums`` checks that it is square."""
    # map and compress run the per-entry loops in C
    if not all(all(map(isinstance, row, repeat(int))) for row in a):
        raise ValueError("entries must be nonnegative integers")
    return [dict(compress(enumerate(row), row)) for row in a], list(map(len, a))


def _line_sums(rows: Rows, widths: list[int]) -> tuple[list[int], list[int]]:
    """Row and column sums of a square nonnegative sparse matrix."""
    m = len(rows)
    if not m or widths.count(m) != m:
        raise ValueError("matrix must be square and non-empty")
    if any(min(row.values(), default=0) < 0 for row in rows):
        raise ValueError("entries must be nonnegative integers")
    cols = [0] * m
    for row in rows:
        for j, x in row.items():
            cols[j] += x
    return [sum(row.values()) for row in rows], cols


def _regular(rows: Rows, widths: list[int]) -> int:
    """The common line sum of a sparse matrix: the check of every input."""
    sums, cols = _line_sums(rows, widths)
    n = sums[0]
    for i, r in enumerate(sums):
        if r != n:
            raise NotDoublyStochastic(f"row {i} sums to {r}, expected {n}")
    for j, c in enumerate(cols):
        if c != n:
            raise NotDoublyStochastic(f"column {j} sums to {c}, expected {n}")
    if n < 1:
        raise NotDoublyStochastic("zero matrix has no permutation below it")
    return n


def _checked(a: Matrix) -> tuple[Rows, int]:
    """The sparse rows and the line sum of a dense regular matrix."""
    rows, widths = _check_square(a)
    return rows, _regular(rows, widths)


def regularity(a: Matrix) -> int:
    """The common row/column sum, or raise NotDoublyStochastic."""
    return _checked(a)[1]


def _permutations(rows: Rows) -> Iterator[list[int]]:
    """Permutations below the sparse rows, one per round, until they are
    used up; each as the column it takes in each row.

    The work matrix holds a copy of each row, column -> remaining
    multiplicity, in ascending column order, which deleting keys keeps.  A
    round matches rows in index order, each by a depth-first search for an
    augmenting path over the row's columns in that order, then subtracts
    the permutation in O(m).  The path lives on an explicit stack, so its
    length is not bounded by the interpreter's recursion limit.
    """
    m = len(rows)
    work = [row.copy() for row in rows]
    while any(work):
        # match[j] = row matched to column j; seen[j] = last root through j
        match: list[int | None] = [None] * m
        seen = [-1] * m
        for root in range(m):
            path = [(root, iter(work[root]))]  # rows and their unscanned columns
            picked: list[int] = []             # column leading from path[k] on
            while path:
                for j in path[-1][1]:
                    if seen[j] != root:
                        break
                else:
                    path.pop()
                    if picked:
                        picked.pop()
                    continue
                seen[j] = root
                picked.append(j)
                if match[j] is None:
                    for (i, _), col in zip(path, picked):
                        match[col] = i
                    break
                path.append((match[j], iter(work[match[j]])))
            else:
                raise NotDoublyStochastic(f"no perfect matching covers row {root}")
        cols = [0] * m
        for j, i in enumerate(match):
            cols[i] = j
            work[i][j] -= 1
            if not work[i][j]:
                del work[i][j]
        yield cols


def _decompose(rows: Rows) -> list[list[int]]:
    """The permutations of ``_permutations``, recounted: bijections that
    sum to the rows, so there are as many as the line sum."""
    m = len(rows)
    perms = list(_permutations(rows))
    check(all(len(set(cols)) == m for cols in perms),
          "a permutation is not a bijection")
    total: Rows = [{} for _ in range(m)]
    for cols in perms:
        for i, j in enumerate(cols):
            total[i][j] = total[i].get(j, 0) + 1
    check(total == rows, "permutations do not sum to the matrix")
    return perms


def _dense(cols: list[int]) -> Matrix:
    """The permutation matrix with a 1 at column cols[i] of each row i."""
    return [[0] * j + [1] + [0] * (len(cols) - j - 1) for j in cols]


def extract_permutation(a: Matrix) -> Matrix:
    """A permutation matrix p with p <= a entrywise, via augmenting paths."""
    return _dense(next(_permutations(_checked(a)[0])))


def decompose_bvn(a: Matrix) -> list[Matrix]:
    """Write a as a sum of exactly n permutation matrices."""
    return list(map(_dense, _decompose(_checked(a)[0])))


def is_permutation(p: Matrix) -> bool:
    try:
        return regularity(p) == 1
    except (NotDoublyStochastic, ValueError):
        return False


def pad_to_doubly_stochastic(y: Matrix, n: int) -> Matrix:
    """A nonnegative z with y + z regular of degree n, by greedy matching
    of deficient rows with deficient columns."""
    rows, cols = _line_sums(*_check_square(y))
    m = len(y)
    row_def = [n - r for r in rows]
    col_def = [n - c for c in cols]
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
    bad = [a for pm in d.maps for a in pm.atoms
           if (a._lo * m % a._d or a._hi * m % a._d or a._off * m % a._d)]
    if bad:
        raise NotCellAligned(
            f"{len(bad)} atoms are not aligned to the 1/{m} grid", bad)
    out = [[0] * m for _ in range(m)]
    for pm in d.maps:
        for a in pm.atoms:
            off = a._off * m // a._d
            for j in range(a._lo * m // a._d, a._hi * m // a._d):
                out[_move(a.slope, off, j, j + 1)[0]][j] += 1
    return out


def lift(perms: list[Matrix], level: int) -> DSE:
    """Cell-translation automorphisms realizing the given permutations."""
    m = 2 ** level
    maps = []
    for p in perms:
        if len(p) != m or not is_permutation(p):
            raise NotPermutation(f"expected a permutation matrix of size {m}")
        row_of = {row.index(1): i for i, row in enumerate(p)}
        maps.append(PartialMap._new(
            [Atom._new(j, j + 1, 1, row_of[j] - j, m) for j in range(m)], m))
    return DSE(maps, len(perms))
