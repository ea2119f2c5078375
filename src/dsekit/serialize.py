"""JSON and CSV forms of the package's values.

Rationals cross the boundary as "p/q" strings in lowest terms, read by
``intervals._ratio`` and in no other string form; intervals as ["a","b"]
endpoint pairs; atoms as {"src","slope","offset"} objects.  Matrices are
JSON lists of integer rows, or CSV with no header and one row per line
(ended by LF, CR LF or CR only) of comma-separated cells, each ASCII
digits with an optional minus sign and spaces around them; spaces are the
only whitespace, and a line of spaces alone is skipped.  The readers take
exactly these shapes: an integer must be a JSON integer (not a float or a
bool), and a value of another kind or length raises ValueError (a zero
denominator, ZeroDivisionError).  Each rational is read to integers
(p, q), with no ``Fraction`` (only ``parse_eps`` returns one), and each
distinct "p/q" string once per value read: an element of coverage n
repeats every cut point in about 2n atom fields.  JSON integers and other
kinds are read at every occurrence, in the order lo, hi, slope, offset of
each atom, so a malformed value meets the same first error.  Every atom
and map of a value is built once, on the lcm of its denominators.  The
writers read each "p/q" off the value's grid numerators, with one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .bvn import Rows, _check_square
from .dse import CoverageReport, DSE
from .intervals import _expect, _grid_str, _ratio, positive_rat, rat_str
from .maps import Atom, PartialMap
from .multiset import GraphMultiset

# translate deletes the characters of a CSV matrix row, and marks "x" the
# nonzero digits
_CSV_CHARS = str.maketrans(dict.fromkeys("0123456789 -,"))
_CSV_MARKS = str.maketrans(dict.fromkeys("123456789", "x"))


def parse_eps(text: str) -> Fraction:
    """Tolerance flags: a positive "p/q" rational, spaces around it allowed."""
    return positive_rat(text.strip(" "))


def _atom_json(lo: int, hi: int, slope: int, offset: int, d: int) -> dict:
    """The atom object of grid numerators over d."""
    return {"src": [_grid_str(lo, d), _grid_str(hi, d)], "slope": slope,
            "offset": _grid_str(offset, d)}


def _read_atom(data, ratio) -> tuple:
    """An atom object as its ratios (lo, hi, offset) and its slope, read
    in the order lo, hi, slope, offset; ``ratio`` reads each value."""
    lo, hi = _expect(_expect(data, dict)["src"], list)
    lo, hi, slope = ratio(lo), ratio(hi), _expect(data["slope"], int)
    return lo, hi, ratio(data["offset"]), slope


def _atom_lists(lists: list) -> list[tuple[list[Atom], int]]:
    """JSON atom lists as (atoms, d): every atom is built once, on the lcm
    d of all the denominators of all the lists.  Each distinct "p/q"
    string is parsed once; any other value is read each time it occurs."""
    seen: dict[str, tuple[int, int]] = {}

    def ratio(value) -> tuple[int, int]:
        # keyed by str only: a memo keyed by any value would take true as 1
        if not isinstance(value, str):
            return _ratio(value)
        r = seen.get(value)
        if r is None:
            r = seen[value] = _ratio(value)
        return r

    rows = [[_read_atom(a, ratio) for a in _expect(m, list)] for m in lists]
    # every value not in seen is a JSON integer, of denominator 1
    d = lcm(*(q for _, q in seen.values()))
    return [([Atom._new(lo * (d // q), hi * (d // r), slope, off * (d // t), d)
              for (lo, q), (hi, r), (off, t), slope in m], d) for m in rows]


def map_to_json(m: PartialMap) -> list:
    return [_atom_json(a._lo, a._hi, a.slope, a._off, a._d) for a in m.atoms]


def dse_to_json(d: DSE) -> dict:
    return {"multiplicity": d.multiplicity,
            "maps": [map_to_json(m) for m in d.maps]}


def dse_from_json(data) -> DSE:
    data = _expect(data, dict)
    maps, n = _expect(data["maps"], list), _expect(data["multiplicity"], int)
    return DSE((PartialMap._new(*f) for f in _atom_lists(maps)), n)


def multiset_to_json(g: GraphMultiset) -> dict:
    """Entries are atom objects with a "multiplicity" key."""
    return {"entries": [
        {**_atom_json(lo, hi, slope, offset, g._d), "multiplicity": mult}
        for (slope, offset), cells in g._fam.items() for lo, hi, mult in cells]}


def multiset_from_json(data) -> GraphMultiset:
    entries = _expect(_expect(data, dict)["entries"], list)
    ((atoms, _),) = _atom_lists([entries])
    return GraphMultiset(zip(atoms, (_expect(e["multiplicity"], int)
                                     for e in entries)))


def coverage_report_to_json(r: CoverageReport) -> dict:
    cells = lambda step: [[rat_str(lo), rat_str(hi), v] for lo, hi, v in step]
    return {"multiplicity": r.multiplicity, "ok": r.ok,
            "domain_cells": cells(r.domain_cells),
            "image_cells": cells(r.image_cells)}


def matrix_from_csv(text: str) -> tuple[Rows, list[int]]:
    """Sparse rows (column -> nonzero entry, ascending) and row widths.

    No dense row is built: a find walks each row from one cell with a
    nonzero digit (marked by translate) to the next, and splits the stretch
    between two into cells only when it is not "0" cells alone, so ``int``
    runs on the cells other than "0" alone.
    """
    rows, widths = [], []
    # a row ends at "\n", "\r\n" or "\r" only, not at every splitlines break
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        if not line.strip(" "):
            continue
        s = f",{line},"
        # the "x" past the end stops the walk there
        marks, cells, col, end = s.translate(_CSV_MARKS) + "x", {}, -1, 0
        while True:
            stop = marks.find("x", end)
            start = s.rindex(",", end, stop) + 1
            if s[end:start] != ",0" * ((start - end) // 2) + ",":
                cells.update((j, c) for j, c in enumerate(
                    s[end + 1:start - 1].split(","), col + 1) if c != "0")
            col += s.count(",", end, start)
            if stop == len(s):
                break
            end = s.index(",", stop)
            cells[col] = s[start:end]
        if line.translate(_CSV_CHARS) or not all(c.strip(" ").removeprefix(
                "-").isdigit() for c in cells.values()):
            raise ValueError("CSV rows must be comma-separated integers")
        rows.append({j: x for j, c in cells.items() if (x := int(c))})
        widths.append(line.count(",") + 1)
    return rows, widths


def matrix_from_json(data) -> tuple[Rows, list[int]]:
    """Sparse rows and row widths, as ``matrix_from_csv`` reads them."""
    return _check_square([[_expect(x, int) for x in _expect(row, list)]
                          for row in _expect(data, list)])
