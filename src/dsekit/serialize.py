"""JSON and CSV forms of the package's values.

Rationals cross the boundary as "p/q" strings in lowest terms, read by
``intervals._ratio`` and in no other string form; intervals as ["a","b"]
endpoint pairs; atoms as {"src","slope","offset"} objects.  Matrices are
JSON lists of integer rows, or CSV with no header and one row per line
(ended by LF, CR LF or CR only) of comma-separated cells, each ASCII
digits with an optional minus sign and spaces around them; spaces are the
only whitespace, and a line of spaces alone is skipped.  The readers take
exactly these shapes: an integer must be a JSON integer (not a float or a
bool), and a value of another kind or length, or an object key outside the
shape, which the error names (also where it replaces a key of the shape),
raises ValueError (a zero denominator, ZeroDivisionError).  An atom list
is read in two passes.  The first checks the shape of each atom object,
its keys once its values are read, and collects the values in the order
lo, hi, slope, offset; between the passes the distinct "p/q" strings are
parsed in one batch, in first-occurrence order (an element of coverage n
repeats every cut point in about 2n atom fields), to integers (p, q) and
no ``Fraction`` (only ``parse_eps`` returns one); the second pass builds
every atom and map once, on the lcm of all the denominators.  When a check
fails, ``_ratio`` reads the values in order, so a malformed value meets
the same first error, with the same message, as when each value is parsed
where it occurs.  The writers read each "p/q" off the value's grid
numerators, with one gcd.  An artifact file is written by
``artifact_text``, in the bytes of ``json.dumps(payload, indent=2)``,
which runs its pure-Python encoder when it indents; each atom object is
filled into one template instead.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import islice, repeat, starmap
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from operator import floordiv, mul

from .bvn import Rows, _check_square
from .dse import CoverageReport, DSE
from .intervals import (_RATIONAL, _expect, _grid_str, _ratio, positive_rat,
                        rat_str)
from .maps import Atom, PartialMap
from .multiset import GraphMultiset

# translate deletes the characters of a CSV matrix row, and marks "x" the
# nonzero digits
_CSV_CHARS = str.maketrans(dict.fromkeys("0123456789 -,"))
_CSV_MARKS = str.maketrans(dict.fromkeys("123456789", "x"))

# "p/q" strings joined by newlines, each of the one syntax of _RATIONAL
_RATIONALS = re.compile("(?:{0}\n)*{0}".format(_RATIONAL.pattern.strip("^$")))

# the keys, in order, of the atom objects that artifact_text fills into its
# template: an atom, and a multiset entry
_ATOM_KEYS = ("src", "slope", "offset")
_ENTRY_KEYS = (*_ATOM_KEYS, "multiplicity")


def parse_eps(text: str) -> Fraction:
    """Tolerance flags: a positive "p/q" rational, spaces around it allowed."""
    return positive_rat(text.strip(" "))


def _keyed(value, keys) -> dict:
    """value itself, if it is a JSON object with no key outside keys."""
    if extra := [k for k in _expect(value, dict) if k not in keys]:
        raise ValueError(f"unexpected key {extra[0]!r}")
    return value


def _atom_json(lo: int, hi: int, slope: int, offset: int, d: int) -> dict:
    """The atom object of grid numerators over d."""
    return {"src": [_grid_str(lo, d), _grid_str(hi, d)], "slope": slope,
            "offset": _grid_str(offset, d)}


def _rationals(strings: list[str]) -> list[int]:
    """The "p/q" strings as one flat list p0, q0, p1, q1, ... of integers,
    parsed in one batch: one match of the strings joined by newlines, one
    ``int`` map and one scan for a zero denominator.  If any of them fails,
    ``_ratio`` reads the strings in order, so the first bad one raises as it
    does on its own."""
    text = "\n".join(strings)
    # a newline inside a string would match as a second string
    if text.count("\n") == len(strings) - 1 and _RATIONALS.fullmatch(text):
        try:
            nums = list(map(int, text.replace("\n", "/").split("/")))
        except ValueError:  # a numeral past int's digit limit
            pass
        else:
            if 0 not in nums[1::2]:
                return nums
    return [x for s in strings for x in _ratio(s)]


def _grid_values(values: list) -> tuple[int, dict]:
    """The lcm d of the denominators of JSON values, "p/q" strings and
    integers, and each distinct value's numerator over d.  The distinct
    strings go to ``_rationals`` in first-occurrence order; a value of any
    other kind sends every value through ``_ratio`` in order, so the first
    bad one raises as it does on its own."""
    if set(map(type, values)) <= {str, int}:
        keys = list(dict.fromkeys(values))
        strings = [v for v in keys if type(v) is str]
        nums = _rationals(strings)
        ps, qs = nums[::2], nums[1::2]
        if len(strings) < len(keys):  # JSON integers, of denominator 1
            ints = [v for v in keys if type(v) is int]
            keys, ps, qs = strings + ints, ps + ints, qs + [1] * len(ints)
    else:
        keys, (ps, qs) = values, zip(*map(_ratio, values))
    d = lcm(*set(qs))
    return d, dict(zip(keys, map(mul, ps, map(floordiv, repeat(d), qs))))


def _atom_lists(lists: list, keys=_ATOM_KEYS) -> list[tuple[list[Atom], int]]:
    """JSON atom lists as (atoms, d): every atom is built once, on the lcm
    d of all the denominators of all the lists.  The first pass checks the
    shape of each atom object, then that it has no key outside keys, and
    collects its lo, hi and offset in reading order; ``_grid_values`` then
    reads them all.  A fault in the first pass raises only after the values
    read before it are checked; a missing key, after the object's keys too."""
    values, slopes, sizes = [], [], []
    try:
        for m in lists:
            if type(m) is not list:
                _expect(m, list)
            sizes.append(len(m))
            for a in m:
                if type(a) is not dict:
                    _expect(a, dict)
                src = a["src"]
                if type(src) is not list:
                    _expect(src, list)
                lo, hi = src  # a src of another length raises here
                values += src
                slope = a["slope"]
                if type(slope) is not int:
                    _expect(slope, int)
                slopes.append(slope)
                values.append(a["offset"])
                # src, slope and offset were read, so a key is foreign only
                # beyond the shape's count or in place of its last key
                if len(a) > len(keys) or keys[-1] not in a:
                    _keyed(a, keys)
    except (ValueError, KeyError) as e:
        _grid_values(values)
        if type(e) is KeyError:
            _keyed(a, keys)
        raise
    d, grid = _grid_values(values)
    nums = map(grid.__getitem__, values)
    fields = zip(nums, nums, slopes, nums, repeat(d))
    return [(list(starmap(Atom._new, islice(fields, k))), d) for k in sizes]


def map_to_json(m: PartialMap) -> list:
    return [_atom_json(a._lo, a._hi, a.slope, a._off, a._d) for a in m.atoms]


def dse_to_json(d: DSE) -> dict:
    return {"multiplicity": d.multiplicity,
            "maps": [map_to_json(m) for m in d.maps]}


def dse_from_json(data) -> DSE:
    data = _keyed(data, ("multiplicity", "maps"))
    maps, n = _expect(data["maps"], list), _expect(data["multiplicity"], int)
    return DSE((PartialMap._new(*f) for f in _atom_lists(maps)), n)


def multiset_to_json(g: GraphMultiset) -> dict:
    """Entries are atom objects with a "multiplicity" key."""
    return {"entries": [
        {**_atom_json(lo, hi, slope, offset, g._d), "multiplicity": mult}
        for (slope, offset), cells in g._fam.items() for lo, hi, mult in cells]}


def multiset_from_json(data) -> GraphMultiset:
    entries = _expect(_keyed(data, ("entries",))["entries"], list)
    ((atoms, _),) = _atom_lists([entries], _ENTRY_KEYS)
    return GraphMultiset(zip(atoms, (_expect(e["multiplicity"], int)
                                     for e in entries)))


def _atom_text(a: dict, pad: str) -> str | None:
    """The json.dumps(indent=2) text of an atom object whose line starts at
    pad, filled into one template, or None if it has another shape."""
    keys = tuple(a)
    if keys != _ATOM_KEYS and keys != _ENTRY_KEYS:
        return None
    src, slope, off = a["src"], a["slope"], a["offset"]
    mult = a.get("multiplicity", 0)
    if not (type(src) is list and len(src) == 2 and type(src[0]) is str
            and type(src[1]) is str and type(slope) is int
            and type(off) is str and type(mult) is int):
        return None
    tail = f',{pad}  "multiplicity": {mult}' if len(keys) == 4 else ""
    return (f'{{{pad}  "src": [{pad}    {_quote(src[0])},{pad}    '
            f'{_quote(src[1])}{pad}  ],{pad}  "slope": {slope},{pad}  '
            f'"offset": {_quote(off)}{tail}{pad}}}')


def _render(value, pad: str, out: list) -> None:
    """Append to out the json.dumps(indent=2) text of value, whose line
    starts at pad: dicts with str keys, lists, strings and ints here, any
    other value, an empty list or dict included, by json.dumps itself."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(str(value))
    elif kind is dict and value and (text := _atom_text(value, pad)):
        out.append(text)
    elif kind is dict and value and all(type(k) is str for k in value):
        inner, sep = pad + "  ", "{"
        for k, v in value.items():
            out.append(f"{sep}{inner}{_quote(k)}: ")
            _render(v, inner, out)
            sep = ","
        out.append(pad + "}")
    elif kind is list and value:
        inner, sep = pad + "  ", "["
        for v in value:
            out.append(sep + inner)
            _render(v, inner, out)
            sep = ","
        out.append(pad + "]")
    else:
        out.append(json.dumps(value, indent=2).replace("\n", pad))


def artifact_text(payload) -> str:
    """``json.dumps(payload, indent=2) + "\n"``, the bytes of an artifact
    file, with each atom object filled into one template."""
    out: list[str] = []
    _render(payload, "\n", out)
    out.append("\n")
    return "".join(out)


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
