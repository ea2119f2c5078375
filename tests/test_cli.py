import contextlib
import fractions
import io
import json
import os
import random
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsekit import (Atom, DSE, PartialMap, discretize, distance,
                    identity_map, symmetrize)
from dsekit import cli
from dsekit.cli import main
from dsekit.gallery import amplification, counterexample
from dsekit.intervals import rat_str
from dsekit.multiset import GraphMultiset
from dsekit import serialize as ser

import golden
from conftest import half_shift, random_cell_dse, shift
from oracles import reference_atom_lists, reference_decompose_bvn
from test_dse import element_pairs
from test_multiset import multiset_pairs

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "dsekit" / "schemas"
REPORT_SCHEMA = json.loads((SCHEMA_DIR / "report.schema.json").read_text())
DSE_SCHEMA = json.loads((SCHEMA_DIR / "dse.schema.json").read_text())


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def write_dse(path: Path, d: DSE) -> str:
    payload = ser.dse_to_json(d)
    jsonschema.validate(payload, DSE_SCHEMA)
    path.write_text(json.dumps(payload))
    return str(path)


def test_validate_pass(tmp_path, capsys):
    f = write_dse(tmp_path / "ce.json", counterexample(2))
    code, report = run(capsys, "validate", "--in", f)
    assert code == 0
    assert report["result"]["ok"]


def test_validate_fail_exits_two(tmp_path, capsys):
    bad = DSE([identity_map()], 2)
    f = write_dse(tmp_path / "bad.json", bad)
    code, report = run(capsys, "validate", "--in", f)
    assert code == 2
    assert not report["result"]["ok"]


def test_distance_command(tmp_path, capsys):
    a = write_dse(tmp_path / "a.json", counterexample(1))
    b = write_dse(tmp_path / "b.json", counterexample(2))
    code, report = run(capsys, "distance", "--a", a, "--b", b)
    assert code == 0
    assert report["result"]["distance"] == "1/2"


def test_distance_mismatch_is_domain_error(tmp_path, capsys):
    a = write_dse(tmp_path / "a.json", DSE([identity_map()], 1))
    b = write_dse(tmp_path / "b.json", counterexample(1))
    code, report = run(capsys, "distance", "--a", a, "--b", b)
    assert code == 2
    assert report["error_type"] == "MultiplicityMismatch"


def test_distance_reads_maps_without_checking_coverage(tmp_path, capsys):
    # the identity on [0, 1/2) at multiplicity 1 covers half of [0, 1): the
    # distance is the L1 of the maps as read, and the command exits 0
    half = DSE([shift(0, F(1, 2), 0)], 1)
    a = write_dse(tmp_path / "half.json", half)
    b = write_dse(tmp_path / "full.json", DSE([identity_map()], 1))
    code, report = run(capsys, "distance", "--a", a, "--b", b)
    assert code == 0
    assert report["result"]["distance"] == "1/2"
    # overlapping sources inside one map are still a domain error
    atom = {"src": ["0/1", "1/2"], "slope": 1, "offset": "0/1"}
    overlap = tmp_path / "overlap.json"
    overlap.write_text(json.dumps({"multiplicity": 1, "maps": [[
        atom, {**atom, "src": ["1/4", "1/2"], "offset": "1/4"}]]}))
    code, report = run(capsys, "distance", "--a", str(overlap), "--b", b)
    assert code == 2
    assert report["error_type"] == "OverlapError"


def test_decompose_command(tmp_path, capsys):
    f = write_dse(tmp_path / "ce.json", counterexample(3))
    out = tmp_path / "autos.json"
    code, report = run(capsys, "decompose", "--in", f, "--eps", "1/8",
                       "--out", str(out))
    assert code == 0
    emitted = json.loads(out.read_text())
    assert len(emitted["automorphisms"]) == 2
    achieved = F(report["bounds"]["achieved_distance"])
    assert achieved < F(1, 8)
    # the reported bound is recomputable from the artifact
    redone = distance(counterexample(3), ser.dse_from_json(
        {"multiplicity": 2, "maps": emitted["automorphisms"]}))
    assert F(report["bounds"]["achieved_distance"]) == redone


def test_divide_and_split_commands(tmp_path, capsys):
    sym = symmetrize(counterexample(2))
    f = write_dse(tmp_path / "sym.json", sym)
    dout = tmp_path / "division.json"
    code, report = run(capsys, "divide", "--in", f, "--eps", "1/8",
                       "--out", str(dout))
    assert code == 0
    assert F(report["bounds"]["error"]) < F(1, 8)

    sout = tmp_path / "half.json"
    code, report = run(capsys, "split", "--in", f, "--eps", "1/8",
                       "--out", str(sout))
    assert code == 0
    emitted = ser.dse_from_json(json.loads(sout.read_text()))
    assert emitted.multiplicity == 2
    assert F(report["bounds"]["achieved_distance"]) == \
        distance(sym, symmetrize(emitted))


def test_split_rejects_asymmetric(tmp_path, capsys):
    f = write_dse(tmp_path / "ce.json", counterexample(2))
    code, report = run(capsys, "split", "--in", f, "--eps", "1/8",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert report["error_type"] == "NotSymmetric"



def test_zero_denominator_is_parse_error(tmp_path, capsys):
    payload = ser.dse_to_json(DSE([identity_map()], 1))
    payload["maps"][0][0]["offset"] = "1/0"
    f = tmp_path / "zero.json"
    f.write_text(json.dumps(payload))
    code, report = run(capsys, "validate", "--in", str(f))
    assert code == 1
    assert report["error_type"] == "ZeroDivisionError"


class Renamed(str):
    """An edit for ``replaced`` that moves the node at its path to this key."""


def replaced(node, path, value):
    """A copy of the tree with the node at path replaced by value, or moved
    to the key value if it is ``Renamed``."""
    if not path:
        return value
    node = json.loads(json.dumps(node))
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(value, Renamed):
        parent[value] = parent.pop(path[-1])
    else:
        parent[path[-1]] = value
    return node


def split_identity(cut: str) -> dict:
    """The identity element as two atoms that meet at the string cut."""
    return {"multiplicity": 1, "maps": [[
        {"src": ["0/1", cut], "slope": 1, "offset": "0/1"},
        {"src": [cut, "1/1"], "slope": 1, "offset": "0/1"}]]}


IDENTITY = split_identity("1/2")

# Each edit (key path, new value) of the identity element is malformed and
# must be a JSON parse error (exit 1), neither a traceback nor silently
# truncated.  Fraction() would read the rational strings as the value
# they replace, but they do not match the "p/q" pattern of the schema.
MALFORMED = {
    "float-endpoints": (("maps", 0, 0, "src"), [0.0, 1.0]),
    "one-endpoint": (("maps", 0, 0, "src"), ["0"]),
    "top-level-list": ((), [1, 2]),
    "top-level-string": ((), "x"),
    "maps-not-a-list": (("maps",), 5),
    "float-multiplicity": (("multiplicity",), 1.9),
    "bool-multiplicity": (("multiplicity",), True),
    "float-slope": (("maps", 0, 0, "slope"), 1.7),
    "bool-slope": (("maps", 0, 0, "slope"), True),
    "spaced-endpoint": (("maps", 0, 1, "src", 1), " 1/1 "),
    "decimal-endpoint": (("maps", 0, 0, "src", 0), "0.0"),
    "plus-sign-endpoint": (("maps", 0, 0, "src", 1), "+1/2"),
    "trailing-space-endpoint": (("maps", 0, 1, "src", 0), "1/2 "),
    "plus-sign-offset": (("maps", 0, 0, "offset"), "+0/1"),
    "trailing-space-offset": (("maps", 0, 1, "offset"), "0/1 "),
    "trailing-newline-endpoint": (("maps", 0, 1, "src", 1), "1/1\n"),
    "arabic-indic-digits": (("maps", 0, 1, "src", 1), "\u0661/\u0661"),
    "misspelled-atom-key": (("maps", 0, 0, "slpoe"), -1),
    "renamed-atom-key": (("maps", 0, 0, "slope"), Renamed("slpoe")),
    "extra-atom-key": (("maps", 0, 1, "multiplicity"), 1),
    "element-comment": (("comment",), "identity"),
    "element-extra-key": (("entries",), []),
}


@pytest.mark.parametrize("path, value", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_element_is_parse_error(path, value, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(replaced(IDENTITY, path, value)))
    code, report = run(capsys, "validate", "--in", str(f))
    assert code == 1
    assert report["error_type"] == "ValueError"


def test_readers_name_a_key_outside_the_schema():
    element = replaced(IDENTITY, ("maps", 0, 1, "slpoe"), -1)
    with pytest.raises(ValueError, match="^unexpected key 'slpoe'$"):
        ser.dse_from_json(element)
    # a key put in place of a required one is named, not the missing key
    with pytest.raises(ValueError, match="^unexpected key 'slpoe'$"):
        ser.dse_from_json(replaced(IDENTITY, ("maps", 0, 1, "slope"),
                                   Renamed("slpoe")))
    with pytest.raises(ValueError, match="^unexpected key 'comment'$"):
        ser.dse_from_json(replaced(IDENTITY, ("comment",), "x"))
    g = ser.multiset_to_json(GraphMultiset([(Atom(0, 1, 1, 0), 2)]))
    assert ser.multiset_from_json(g) == GraphMultiset([(Atom(0, 1, 1, 0), 2)])
    with pytest.raises(ValueError, match="^unexpected key 'mult'$"):
        ser.multiset_from_json(replaced(g, ("entries", 0, "mult"), 2))
    with pytest.raises(ValueError, match="^unexpected key 'mult'$"):
        ser.multiset_from_json(replaced(g, ("entries", 0, "multiplicity"),
                                        Renamed("mult")))
    with pytest.raises(ValueError, match="^unexpected key 'maps'$"):
        ser.multiset_from_json(replaced(g, ("maps",), []))


def test_valid_entries_are_read_without_a_key_check(tmp_path, capsys,
                                                    monkeypatch):
    f = write_dse(tmp_path / "sym.json", symmetrize(counterexample(3)))
    out = tmp_path / "division.json"
    code, _ = run(capsys, "divide", "--in", f, "--eps", "1/8",
                  "--out", str(out))
    assert code == 0
    artifact = json.loads(out.read_text())
    checked, keyed = [], ser._keyed
    monkeypatch.setattr(ser, "_keyed", lambda value, keys: (
        checked.append(keys), keyed(value, keys))[1])
    for part in ("base", "oriented"):
        assert ser.multiset_from_json(artifact[part]).mass() > 0
    # each multiset's top-level object is checked, none of its entries
    assert checked == [("entries",)] * 2
    # a foreign key in place of "multiplicity" is still named
    entry = {"src": ["0/1", "1/1"], "slope": 1, "offset": "0/1", "weight": 2}
    with pytest.raises(ValueError, match="^unexpected key 'weight'$"):
        ser.multiset_from_json({"entries": [entry]})
    assert checked[2:] == [("entries",), ser._ENTRY_KEYS]


def test_exponent_rational_is_rejected_before_it_is_built(tmp_path, capsys):
    # Fraction("1e-3000000") builds a three-million-digit denominator
    f = tmp_path / "exp.json"
    f.write_text(json.dumps(split_identity("1e-3000000")))
    started = time.monotonic()
    code, report = run(capsys, "validate", "--in", str(f))
    assert time.monotonic() - started < 1
    assert code == 1
    assert report["error"] == "expected a 'p/q' rational, got '1e-3000000'"


@pytest.mark.parametrize("value", ["1/0", "0/0"])
@pytest.mark.parametrize("path", [("maps", 0, 0, "src", 0),
                                  ("maps", 0, 1, "src", 1)],
                         ids=["src-lo", "src-hi"])
def test_zero_denominator_endpoint_is_parse_error(path, value, tmp_path,
                                                  capsys):
    f = tmp_path / "zero.json"
    f.write_text(json.dumps(replaced(IDENTITY, path, value)))
    code, report = run(capsys, "validate", "--in", str(f))
    assert code == 1
    assert report["error_type"] == "ZeroDivisionError"


def test_unreduced_rationals_read_as_the_reduced_element():
    read = ser.dse_from_json({"multiplicity": 1, "maps": [[
        {"src": [0, "2/4"], "slope": 1, "offset": "3/6"},
        {"src": ["3/6", 1], "slope": 1, "offset": "-2/4"}]]})
    reduced = DSE([half_shift()], 1)
    assert read == reduced and hash(read) == hash(reduced)
    assert read.maps == reduced.maps
    assert hash(read.maps) == hash(reduced.maps)
    assert json.dumps(ser.dse_to_json(read)) == \
        json.dumps(ser.dse_to_json(reduced))


def test_element_reader_builds_no_fraction(monkeypatch):
    data = ser.dse_to_json(counterexample(6))
    built = []
    new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counted))
    d = ser.dse_from_json(data)
    monkeypatch.undo()
    assert built == []
    assert d == counterexample(6)


def test_element_reader_builds_each_map_once(monkeypatch):
    """Every atom and map of an element is built once, on the lcm of all
    its denominators; each build still runs its class's checks."""
    from dsekit.intervals import IntervalSet

    data = ser.dse_to_json(counterexample(6))
    calls = {Atom: 0, PartialMap: 0, IntervalSet: 0}
    for cls in calls:
        def counted(self, fields, _set=cls._set, _cls=cls):
            calls[_cls] += 1
            return _set(self, fields)
        monkeypatch.setattr(cls, "_set", counted)
    d = ser.dse_from_json(data)
    monkeypatch.undo()
    assert sum(len(m.atoms) for m in d.maps) == 16
    assert list(calls.values()) == [16, 16, 32]
    assert d == counterexample(6)


def test_element_reader_parses_each_distinct_string_once(monkeypatch):
    """The batch parse gets each distinct string once, in first-occurrence
    order, and ``_ratio`` reads none; with one bad string, ``_ratio`` reads
    the distinct strings in order up to it and no further."""
    data = ser.dse_to_json(counterexample(6))
    values = [v for m in data["maps"] for a in m for v in (*a["src"], a["offset"])]
    batches, parsed = [], []
    rationals, ratio = ser._rationals, ser._ratio
    monkeypatch.setattr(ser, "_rationals",
                        lambda s: batches.append(list(s)) or rationals(s))
    monkeypatch.setattr(ser, "_ratio", lambda v: parsed.append(v) or ratio(v))
    d = ser.dse_from_json(data)
    assert all(isinstance(v, str) for v in values)
    assert len(values) > len(set(values))
    assert batches == [list(dict.fromkeys(values))]
    assert parsed == []
    assert d == counterexample(6)

    distinct = batches.pop()
    data["maps"][1][0]["offset"] = "1/x"
    with pytest.raises(ValueError, match="got '1/x'"):
        ser.dse_from_json(data)
    monkeypatch.undo()
    assert "1/x" not in distinct and parsed[-1] == "1/x"
    assert parsed[:-1] == distinct[:len(parsed) - 1]
    assert 0 < len(parsed) - 1 < len(distinct)


def _outcome(read, data):
    """What a reader gives, as the grid fields of every atom with the grid
    of each list, or as the first exception's type and message."""
    try:
        return [([(a._lo, a._hi, a.slope, a._off, a._d) for a in atoms], d)
                for atoms, d in read(data)]
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _atoms(d: DSE) -> list:
    """An element as one (atoms, d) list, the form ``_outcome`` reads."""
    return [([a for m in d.maps for a in m.atoms], d._d)]


def _reference_dse(data) -> list:
    """``_atoms`` of the element read through the per-value reader."""
    return _atoms(DSE((PartialMap._new(*f) for f in
                       reference_atom_lists(data["maps"])),
                      data["multiplicity"]))


# repeated strings (one unreduced, one a signed zero, one with leading
# zeros), JSON integers, values the readers reject (true, 1.0, a float, a
# zero denominator, spaced, decimal and plus-signed strings, null and a
# list), strings a batch parse of newline-joined strings could take (two
# strings in one, an empty one, an underscore and Arabic-Indic digits,
# which int reads, and a numeral past int's digit limit), and slopes of
# each kind
GOOD_VALUES = ("0/1", "1/4", "1/2", "2/4", "3/4", "1/1", "-1/4", "5/4", 0, 1,
               "-0/1", "007/8")
BAD_VALUES = (True, False, 1.0, 0.5, "1/0", " 1/2", "0.5", "+1/2", None, [],
              "1/2\n3/4", "1/2\n", "", "/", "1/2/3", "1_0/2", "\u0661/\u0662",
              "1" * 4301 + "/2")
SLOPES = (1, -1, 1, -1, True, 1.0, "1/1", 2)


@st.composite
def atom_lists(draw, values):
    """One to three maps of up to four atom objects; one in sixteen lacks
    a key, and one in sixteen has a key outside the schema."""
    def atom():
        fields = {"src": [draw(values), draw(values)],
                  "slope": draw(st.sampled_from(SLOPES)),
                  "offset": draw(values)}
        if draw(st.integers(0, 15)) == 0:
            del fields[draw(st.sampled_from(sorted(fields)))]
        if draw(st.integers(0, 15)) == 0:
            fields[draw(st.sampled_from(("slpoe", "multiplicity")))] = 1
        return fields

    return [[atom() for _ in range(draw(st.integers(0, 4)))]
            for _ in range(draw(st.integers(1, 3)))]


@st.composite
def valid_atom_lists(draw):
    """One to three maps that cut [0, 1) at eighths into identity and
    reflected pieces; each value is a reduced or unreduced "p/q" string
    or, when whole, maybe a JSON integer."""
    def value(k):
        f = F(k, 8)
        forms = [f"{f.numerator}/{f.denominator}", f"{k}/8"]
        return draw(st.sampled_from(forms + [k // 8] * (f.denominator == 1)))

    maps = []
    for _ in range(draw(st.integers(1, 3))):
        cuts = [0, *sorted(draw(st.sets(st.integers(1, 7), max_size=4))), 8]
        slopes = draw(st.lists(st.sampled_from((1, -1)), min_size=len(cuts),
                               max_size=len(cuts)))
        maps.append([{"src": [value(lo), value(hi)], "slope": slope,
                      "offset": value(0 if slope == 1 else lo + hi)}
                     for lo, hi, slope in zip(cuts, cuts[1:], slopes)])
    return maps


@st.composite
def one_bad_value(draw):
    """``valid_atom_lists`` with one lo, hi or offset a bad value."""
    lists = draw(valid_atom_lists())
    atom = draw(st.sampled_from([a for m in lists for a in m]))
    at = draw(st.sampled_from((0, 1, None)))
    if at is None:
        atom["offset"] = draw(st.sampled_from(BAD_VALUES))
    else:
        atom["src"][at] = draw(st.sampled_from(BAD_VALUES))
    return lists


@settings(max_examples=300, deadline=None)
@given(st.one_of(valid_atom_lists(),
                 atom_lists(st.sampled_from(GOOD_VALUES)),
                 atom_lists(st.sampled_from(GOOD_VALUES + BAD_VALUES)),
                 one_bad_value()))
@example([[{"src": ["0/1", "1/2\n3/4"], "slope": 1, "offset": "1/2"}]])
def test_element_reader_matches_the_per_value_reference(lists):
    assert _outcome(ser._atom_lists, lists) == _outcome(reference_atom_lists,
                                                        lists)
    element = {"multiplicity": 1, "maps": lists}
    assert (_outcome(lambda e: _atoms(ser.dse_from_json(e)), element)
            == _outcome(_reference_dse, element))


def test_element_reader_reports_the_first_bad_value_in_reading_order():
    # a bad string occurs twice; the second atom's slope comes before its
    # offset in the order lo, hi, slope, offset
    lists = [[{"src": ["0/1", "1/x"], "slope": 1, "offset": "0/1"},
              {"src": ["1/2", "1/1"], "slope": True, "offset": "1/x"}]]
    assert _outcome(ser._atom_lists, lists) == (
        "ValueError", "expected a 'p/q' rational, got '1/x'")
    lists[0][0]["src"][1] = "1/2"
    assert _outcome(ser._atom_lists, lists) == (
        "ValueError", "expected a JSON int, got bool")
    assert _outcome(reference_atom_lists, lists) == _outcome(ser._atom_lists,
                                                             lists)
    # a zero denominator read before a numeral int cannot convert
    lists = [[{"src": ["0/1", "1/0"], "slope": 1, "offset": "1" * 4301 + "/2"}]]
    assert _outcome(ser._atom_lists, lists) == (
        "ZeroDivisionError", "zero denominator in '1/0'")
    assert _outcome(reference_atom_lists, lists) == _outcome(ser._atom_lists,
                                                             lists)


@st.composite
def artifact_payloads(draw):
    """The payload of an artifact command on values the suite draws: an
    element (split), its maps with a distance (decompose), or two
    multisets with a degree and an error (divide)."""
    a, _ = draw(element_pairs())
    base, oriented = map(GraphMultiset, draw(multiset_pairs()))
    ratio = rat_str(draw(st.fractions(0, 4)))
    return draw(st.sampled_from((
        ser.dse_to_json(a),
        {"automorphisms": ser.dse_to_json(a)["maps"],
         "achieved_distance": ratio},
        {"base": ser.multiset_to_json(base),
         "oriented": ser.multiset_to_json(oriented),
         "degree": draw(st.integers(1, 4)), "error": ratio})))


# plain "p/q" strings, and strings json.dumps escapes: non-ASCII, a lone
# surrogate, a character past the BMP, a quote, a backslash and controls
ODD_STRINGS = ("0/1", "1/2", "-3/4", "\u00e9/2", "\u0661/2", "\ud800",
               "\U0001f600", 'a"b', "a\\b", "\n\t\x7f")


@st.composite
def atom_shapes(draw):
    """An atom or entry object the template fills, or one changed so that
    the generic path must write it: its keys in another order, a bool or
    float slope, a src of one or three strings, an integer offset or a
    multiplicity that is not an int.  Any string may need escapes."""
    text = st.sampled_from(ODD_STRINGS)
    fields = {"src": [draw(text), draw(text)],
              "slope": draw(st.sampled_from((1, -1))), "offset": draw(text)}
    if draw(st.booleans()):
        fields["multiplicity"] = draw(st.integers(0, 3))
    change = draw(st.sampled_from(
        (None, "order", "slope", "src", "offset", "multiplicity")))
    if change == "order":
        fields = {k: fields[k] for k in draw(st.permutations(list(fields)))}
    elif change == "slope":
        fields["slope"] = draw(st.sampled_from((True, False, 1.0)))
    elif change == "src":
        fields["src"] = draw(st.sampled_from((1, 3))) * [draw(text)]
    elif change == "offset":
        fields["offset"] = draw(st.integers(-1, 1))
    elif change == "multiplicity":
        fields["multiplicity"] = draw(st.sampled_from((True, None, 0.5)))
    return fields


# JSON values with atom shapes among the leaves half the time, and dicts
# with integer keys, which json.dumps writes as strings
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.text(max_size=4), st.sampled_from(ODD_STRINGS))
json_values = st.recursive(
    st.one_of(atom_shapes(), _scalars,
              st.dictionaries(st.integers(0, 2), _scalars, max_size=2)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.one_of(artifact_payloads(), json_values))
@example([{"src": ["0/1", "1/2"], "slope": True, "offset": "1/2"}, [], {}])
@example({"e": {"slope": 1, "src": ["0/1", "1/2"], "offset": "1/2"}})
@example({"src": ["0/1", "1/4", "1/2"], "slope": -1, "offset": "3/4",
          "multiplicity": 2})
def test_artifact_text_is_json_dumps_with_indent_2(payload):
    assert ser.artifact_text(payload) == json.dumps(payload, indent=2) + "\n"


def test_zero_eps_flag_reads_as_the_library_tolerance_rule(tmp_path, capsys):
    f = write_dse(tmp_path / "ce.json", counterexample(1))
    code, report = run(capsys, "decompose", "--in", f, "--eps", "0/1",
                       "--out", str(tmp_path / "o.json"))
    assert code == 1
    assert report["error"] == "eps must be positive"


@pytest.mark.parametrize("matrix, n", [
    ([[2.9, 0], [0, 2]], "2"),
    ([[True, False], [False, True]], "1"),
], ids=["float-entry", "bool-entries"])
def test_malformed_json_matrix_is_parse_error(matrix, n, tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text(json.dumps(matrix))
    code, report = run(capsys, "bvn", "--in", str(f), "--n", n, "--decompose")
    assert code == 1
    assert report["error_type"] == "ValueError"


def test_split_odd_multiplicity_is_domain_error(tmp_path, capsys):
    f = write_dse(tmp_path / "id.json", DSE([identity_map()], 1))
    code, report = run(capsys, "split", "--in", f, "--eps", "1/8",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert report["error_type"] == "PreconditionViolated"


def test_divide_odd_row_mass_is_domain_error(tmp_path, capsys):
    # x -> 1 - x is its own inverse and misses the diagonal
    f = write_dse(tmp_path / "flip.json", DSE([PartialMap([Atom(0, 1, -1, 1)])], 1))
    code, report = run(capsys, "divide", "--in", f, "--eps", "1/8",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert report["error_type"] == "PreconditionViolated"


def test_decompose_rejects_non_covering_input(tmp_path, capsys):
    f = write_dse(tmp_path / "bad.json", DSE([identity_map()], 2))
    code, report = run(capsys, "decompose", "--in", f, "--eps", "1/8",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert report["error_type"] == "InvalidDSE"
    assert not (tmp_path / "x.json").exists()


# elements whose coverage is not constantly their multiplicity: each point
# covered twice but 4 declared, four times but 2 declared, and once on
# [1/2, 1)
NON_COVERING = {
    "double-declared-4": DSE([identity_map()] * 2, 4),
    "quadruple-declared-2": DSE([identity_map()] * 4, 2),
    "half-covered-twice": DSE([identity_map(), shift(0, F(1, 2), 0)], 2),
}


@pytest.mark.parametrize("command", ["split", "divide"])
@pytest.mark.parametrize("name", list(NON_COVERING))
def test_split_and_divide_reject_non_covering_input(command, name, tmp_path,
                                                     capsys):
    f = write_dse(tmp_path / "bad.json", NON_COVERING[name])
    code, report = run(capsys, command, "--in", f, "--eps", "1/8",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert report["error_type"] == "InvalidDSE"
    assert not (tmp_path / "x.json").exists()


def test_bound_violation_is_domain_error(tmp_path, capsys, monkeypatch):
    import dsekit.decompose
    monkeypatch.setattr(dsekit.decompose, "distance", lambda a, b: F(1))
    f = write_dse(tmp_path / "ce.json", counterexample(3))
    code, report = run(capsys, "decompose", "--in", f, "--eps", "1/8",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert report["error_type"] == "BoundViolated"


def test_unexhausted_path_family_is_domain_error(tmp_path, capsys,
                                                 monkeypatch):
    import dsekit.pieces
    monkeypatch.setattr(dsekit.pieces, "_FAMILY_CAP", -1)
    f = write_dse(tmp_path / "sym.json", symmetrize(counterexample(6)))
    code, report = run(capsys, "split", "--in", f, "--eps", "1/8",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert report["error_type"] == "BoundViolated"
    assert "better-path family did not exhaust" in report["error"]


def test_unexhausted_extension_family_is_domain_error(tmp_path, capsys,
                                                      monkeypatch):
    import dsekit.pieces
    monkeypatch.setattr(dsekit.pieces, "_FAMILY_CAP", -1)
    f = write_dse(tmp_path / "ce.json", counterexample(3))
    code, report = run(capsys, "decompose", "--in", f, "--eps", "1/8",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert report["error_type"] == "BoundViolated"
    assert "extension family did not exhaust" in report["error"]


def test_decompose_large_cell_element_within_budget(tmp_path, capsys):
    # two random permutations of 2^10 cells, three in ten reflected
    d = random_cell_dse(random.Random(1024), 10, 2, reflections=True)
    f = write_dse(tmp_path / "cells.json", d)
    started = time.perf_counter()
    code, report = run(capsys, "decompose", "--in", f, "--eps", "1/16",
                       "--out", str(tmp_path / "autos.json"))
    elapsed = time.perf_counter() - started
    assert code == 0
    assert F(report["bounds"]["achieved_distance"]) < F(1, 16)
    assert elapsed < 10.0


def test_bvn_csv_decompose(tmp_path, capsys):
    f = tmp_path / "m.csv"
    f.write_text("1,1,0\n0,1,1\n1,0,1\n")
    code, report = run(capsys, "bvn", "--in", str(f), "--n", "2",
                       "--decompose")
    assert code == 0
    assert len(report["result"]["permutations"]) == 2


def test_bvn_rejects_irregular(tmp_path, capsys):
    f = tmp_path / "m.csv"
    f.write_text("1,1\n0,1\n")
    code, report = run(capsys, "bvn", "--in", str(f), "--n", "2")
    assert code == 2


def test_bvn_wrong_n(tmp_path, capsys):
    f = tmp_path / "m.csv"
    f.write_text("1,0\n0,1\n")
    code, report = run(capsys, "bvn", "--in", str(f), "--n", "3")
    assert code == 2


def test_demo_commands(tmp_path, capsys):
    for name in ("counterexample", "forest", "amplification"):
        code, report = run(capsys, "demo", "--name", name, "--level", "2")
        assert code == 0
        jsonschema.validate(report["result"], DSE_SCHEMA)
        d = ser.dse_from_json(report["result"])
        assert d.multiplicity == 2


def test_bad_eps_is_parse_error(tmp_path, capsys):
    f = write_dse(tmp_path / "ce.json", counterexample(1))
    code, report = run(capsys, "decompose", "--in", f, "--eps", "0.5",
                       "--out", str(tmp_path / "o.json"))
    assert code == 1


@pytest.mark.parametrize("eps", ["1/16\t", "\u20281/16", "\x1c1/16"],
                         ids=["tab", "line-separator", "file-separator"])
def test_eps_flag_takes_no_whitespace_but_spaces(eps, tmp_path, capsys):
    f = write_dse(tmp_path / "ce.json", counterexample(1))
    code, report = run(capsys, "decompose", "--in", f, "--eps", eps,
                       "--out", str(tmp_path / "o.json"))
    assert code == 1
    assert report["error"] == f"expected a 'p/q' rational, got {eps!r}"


@pytest.mark.parametrize("eps", [" 1/16 ", "  2/32"],
                         ids=["spaces-around", "leading-spaces"])
def test_spaced_eps_reports_the_parsed_tolerance(eps, tmp_path, capsys):
    """``run`` checks the report against the schema, whose ``bounds.eps``
    is a bare "p/q"; ``inputs.eps`` keeps the text as given."""
    f = write_dse(tmp_path / "ce.json", counterexample(2))
    code, report = run(capsys, "decompose", "--in", f, "--eps", eps,
                       "--out", str(tmp_path / "o.json"))
    assert code == 0
    assert report["inputs"]["eps"] == eps
    assert report["bounds"]["eps"] == "1/16"


@pytest.mark.parametrize("argv", [["validate"], ["bvn", "--n", "1"]],
                         ids=["validate", "bvn"])
def test_deeply_nested_json_is_parse_error(argv, tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 200_000 + "]" * 200_000)
    code = main(argv + ["--in", str(f)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {
        "command": argv[0], "error": f"{f}: JSON nested too deeply",
        "error_type": "ValueError"}
    assert captured.err == ""


def test_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    def build_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    f = write_dse(tmp_path / "ce.json", counterexample(2))
    for argv, code in [(["validate", "--in", f], 0),
                       (["distance", "--a", f, "--b", f], 0),
                       (["demo", "--name", "forest"], 0),
                       (["frobnicate"], 1), ([], 1)]:
        assert run(capsys, *argv)[0] == code


def test_missing_file_is_io_error(capsys):
    code, report = run(capsys, "validate", "--in", "/nonexistent/x.json")
    assert code == 1


@pytest.mark.parametrize("argv, command", [
    (["bvn", "--in", "x.csv", "--n", "abc"], "bvn"),
    (["decompose", "--in", "x.json", "--eps", "-1/2", "--out", "o.json"],
     "decompose"),
    (["frobnicate"], "frobnicate"),
    (["decompose", "--in", "x.json", "--eps", "1/2"], "decompose"),
    ([], ""),
], ids=["bad-int", "negative-eps", "unknown-command", "missing-flag",
        "no-command"])
def test_usage_error_is_json_parse_error(argv, command, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert code == 1
    assert report["command"] == command
    assert report["error_type"] == "ArgumentError"
    assert captured.err == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: dsekit" in capsys.readouterr().out


@pytest.mark.parametrize("level, code", [(256, 0), (257, 1)])
def test_demo_level_is_capped(level, code, capsys):
    got, report = run(capsys, "demo", "--name", "amplification",
                      "--level", str(level))
    assert got == code
    if code:
        assert report["error"] == "demo level must be at most 256"


def test_demo_deterministic(capsys):
    code1, rep1 = run(capsys, "demo", "--name", "counterexample", "--level", "3")
    code2, rep2 = run(capsys, "demo", "--name", "counterexample", "--level", "3")
    assert rep1["result"] == rep2["result"]


# -- bounded fuzz: one node of a small valid input swapped for a random JSON
# value.  Whatever the input, a run must print exactly one JSON object that
# is valid against the report schema and exit 0, 1 or 2; no exception may
# escape.  The search is derandomized, so every run tries the same examples.

CE2 = ser.dse_to_json(counterexample(2))
SYM_CE2 = ser.dse_to_json(symmetrize(counterexample(2)))
MATRIX = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]

# command -> (valid input, argv for an input file named "in.json"); the
# other operand of distance stays valid.
COMMANDS = {
    "validate": (CE2, ["validate", "--in", "in.json"]),
    "distance": (CE2, ["distance", "--a", "in.json", "--b", "ce2.json"]),
    "bvn": (MATRIX, ["bvn", "--in", "in.json", "--n", "2", "--decompose"]),
    "decompose": (CE2, ["decompose", "--in", "in.json", "--eps", "1/4",
                        "--out", "out.json"]),
    "split": (SYM_CE2, ["split", "--in", "in.json", "--eps", "1/4",
                        "--out", "out.json"]),
}

JSON_VALUES = st.one_of(
    st.floats(), st.booleans(), st.text(max_size=6), st.none(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.integers(2 ** 63, 2 ** 130), st.integers(-2 ** 130, -2 ** 63))


def paths(node, path=()):
    """Every node of a JSON tree, the root included, as a key path."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from paths(child, path + (key,))


@st.composite
def fuzzed_runs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    valid, argv = COMMANDS[command]
    path = draw(st.sampled_from(list(paths(valid))))
    return argv, replaced(valid, path, draw(JSON_VALUES))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(fuzzed_runs())
def test_main_reports_every_fuzzed_input(run):
    argv, payload = run
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("in.json").write_text(json.dumps(payload))
            Path("ce2.json").write_text(json.dumps(CE2))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
        finally:
            os.chdir(here)
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    jsonschema.validate(json.loads(lines[0]), REPORT_SCHEMA)


@pytest.mark.parametrize("cell", ["1_0", "١٠"],
                         ids=["underscore", "arabic-indic-digits"])
def test_bvn_csv_takes_only_ascii_digit_cells(cell, tmp_path, capsys):
    # int() reads both cells as 10; the CSV reader takes [0-9] digits only
    f = tmp_path / "m.csv"
    f.write_text(f"{cell},0\n0,{cell}\n", encoding="utf-8")
    code, report = run(capsys, "bvn", "--in", str(f), "--n", "10")
    assert code == 1
    assert report["error_type"] == "ValueError"
    f.write_text(" 10 , 0\n0,10 \n")
    code, report = run(capsys, "bvn", "--in", str(f), "--n", "10")
    assert code == 0


def test_bvn_validates_the_matrix_once(tmp_path, capsys, monkeypatch):
    import dsekit.bvn

    calls = []
    line_sums = dsekit.bvn._line_sums

    def counting(rows, widths):
        calls.append((rows, widths))
        return line_sums(rows, widths)

    monkeypatch.setattr(dsekit.bvn, "_line_sums", counting)
    for name, text in (("m.csv", "1,1,0\n0,1,1\n1,0,1\n"),
                       ("m.json", json.dumps(MATRIX))):
        calls.clear()
        f = tmp_path / name
        f.write_text(text)
        code, report = run(capsys, "bvn", "--in", str(f), "--n", "2",
                           "--decompose")
        assert code == 0
        assert len(report["result"]["permutations"]) == 2
        assert calls == [dsekit.bvn._check_square(MATRIX)]


# (name, matrix, n): golden's two bvn inputs, a 1x1 and a 2-regular 3x3
BVN_INPUTS = [("perm-sum-64", golden._permutation_sum(64), 3),
              ("amp3-level6", discretize(amplification(3)[0], 6), 2),
              ("one", [[1]], 1),
              ("three", MATRIX, 2)]


@pytest.mark.parametrize("name, a, n", BVN_INPUTS,
                         ids=[name for name, _, _ in BVN_INPUTS])
def test_bvn_report_bytes_match_json_dumps(name, a, n, tmp_path, capsys):
    """The rendered permutations give json.dumps's bytes, with the dense
    reference permutations in the report."""
    f = tmp_path / f"{name}.csv"
    f.write_text("\n".join(",".join(map(str, row)) for row in a) + "\n")
    assert main(["bvn", "--in", str(f), "--n", str(n), "--decompose"]) == 0
    out = capsys.readouterr().out
    head, sep, tail = out.rpartition(', "wall_time_seconds": ')
    assert sep and tail.endswith("}\n") and float(tail[:-2]) >= 0
    expected = {"command": "bvn", "inputs": {"in": str(f), "n": n},
                "outputs": {}, "bounds": {},
                "result": {"size": len(a), "n": n,
                           "permutations": reference_decompose_bvn(a)}}
    assert head + "}" == json.dumps(expected)


# (name, CSV text, --n, exit code, error_type, error) as the regex reader
# and the dense checks gave them; the last two cases succeed
BVN_ERRORS = [
    ("empty", "", "2", 1, "ValueError", "matrix must be square and non-empty"),
    ("ragged", "1,1\n1,1,0\n", "2", 1, "ValueError",
     "matrix must be square and non-empty"),
    ("non-square", "1,0,0\n0,1,0\n", "1", 1, "ValueError",
     "matrix must be square and non-empty"),
    ("negative", "2,-1\n-1,2\n", "1", 1, "ValueError",
     "entries must be nonnegative integers"),
    ("irregular-row", "1,1\n0,1\n", "2", 2, "NotDoublyStochastic",
     "row 1 sums to 1, expected 2"),
    ("irregular-column", "2,0\n2,0\n", "2", 2, "NotDoublyStochastic",
     "column 0 sums to 4, expected 2"),
    ("wrong-n", "1,0\n0,1\n", "3", 2, "DsekitError",
     "matrix is 1-regular, expected 3"),
    ("underscore", "1_0,0\n0,1_0\n", "10", 1, "ValueError",
     "CSV rows must be comma-separated integers"),
    ("crlf", "1,1\r\n1,1\r\n", "2", 0, None, None),
    ("file-separator", "1,0\x1c0,1", "1", 1, "ValueError",
     "CSV rows must be comma-separated integers"),
    ("line-separator", "1,0\u20280,1", "1", 1, "ValueError",
     "CSV rows must be comma-separated integers"),
    ("blank-lines", "1,1\n\n  \n1,1\n", "2", 0, None, None),
    ("separator-line", "1,0\n\x1c\n0,1", "1", 1, "ValueError",
     "CSV rows must be comma-separated integers"),
    ("trailing-separator", "1,0\n0,1\x1c", "1", 1, "ValueError",
     "CSV rows must be comma-separated integers"),
    ("tab-line", "1,0\n\t\n0,1", "1", 1, "ValueError",
     "CSV rows must be comma-separated integers"),
    # a text that starts with "[" is written to a .json file
    ("json-ragged", "[[1, 1], [1, 1, 0]]", "2", 1, "ValueError",
     "matrix must be square and non-empty"),
    ("json-non-square", "[[1, 0, 0], [0, 1, 0]]", "1", 1, "ValueError",
     "matrix must be square and non-empty"),
    ("json-negative", "[[2, -1], [-1, 2]]", "1", 1, "ValueError",
     "entries must be nonnegative integers"),
    ("json-irregular-row", "[[1, 1], [0, 1]]", "2", 2, "NotDoublyStochastic",
     "row 1 sums to 1, expected 2"),
    # the entry is reported before the shape
    ("json-non-square-float", "[[1, 0, 0], [0, 1.5, 0]]", "1", 1,
     "ValueError", "expected a JSON int, got float"),
]


@pytest.mark.parametrize("name, text, n, code, error_type, error", BVN_ERRORS,
                         ids=[case[0] for case in BVN_ERRORS])
def test_bvn_errors_are_unchanged(name, text, n, code, error_type, error,
                                  tmp_path, capsys):
    f = tmp_path / ("m.json" if text.startswith("[") else "m.csv")
    f.write_bytes(text.encode())
    got, report = run(capsys, "bvn", "--in", str(f), "--n", n, "--decompose")
    assert got == code
    assert report.get("error_type") == error_type
    assert report.get("error") == error
    if not code:
        assert report["result"]["permutations"] == [[[0, 1], [1, 0]],
                                                    [[1, 0], [0, 1]]]
