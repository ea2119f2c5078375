import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (DSE, Atom, PartialMap, decompose_bvn, discretize,
                    distance, extract_permutation, identity_map, lift,
                    pad_to_doubly_stochastic, symmetrize, validate)
import dsekit.bvn
from dsekit import serialize as ser
from dsekit.bvn import is_permutation, regularity
from dsekit.cli import main
from dsekit.errors import (BoundViolated, Infeasible, NotCellAligned,
                           NotDoublyStochastic, NotPermutation)
from dsekit.gallery import counterexample

from conftest import half_shift
from oracles import reference_decompose_bvn, reference_matrix_from_csv


def random_regular_matrix(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """Sum of n random permutation matrices: a guaranteed member of B_m^n."""
    out = [[0] * m for _ in range(m)]
    for _ in range(n):
        perm = list(range(m))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            out[i][j] += 1
    return out


def cyclic_matrix(m: int) -> list[list[int]]:
    """The 2-regular a[i][i] = a[i][i+1 mod m] = 1."""
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        a[i][i] = a[i][(i + 1) % m] = 1
    return a


def test_extract_from_scaled_identity():
    a = [[3, 0], [0, 3]]
    assert extract_permutation(a) == [[1, 0], [0, 1]]


def test_extract_permutation_small():
    a = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    p = extract_permutation(a)
    assert is_permutation(p)
    assert all(p[i][j] <= a[i][j] for i in range(3) for j in range(3))


def test_extract_rejects_zero_row():
    with pytest.raises(NotDoublyStochastic):
        extract_permutation([[0, 0], [1, 1]])


def test_decompose_single_permutation():
    a = [[0, 1], [1, 0]]
    assert decompose_bvn(a) == [a]


def test_decompose_small_example():
    a = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    perms = decompose_bvn(a)
    assert len(perms) == 2
    total = [[sum(p[i][j] for p in perms) for j in range(3)] for i in range(3)]
    assert total == a



def test_decompose_long_augmenting_path():
    # row m-1 reaches for column 0 first, so its augmenting path runs
    # through every other row: longer than the default recursion limit
    m = 1100
    a = cyclic_matrix(m)
    perms = decompose_bvn(a)
    assert len(perms) == 2
    assert all(is_permutation(p) for p in perms)
    total = [[perms[0][i][j] + perms[1][i][j] for j in range(m)]
             for i in range(m)]
    assert total == a


def test_decompose_random_matrices(rng):
    for _ in range(40):
        m = rng.randint(2, 16)
        n = rng.randint(1, 5)
        a = random_regular_matrix(rng, m, n)
        perms = decompose_bvn(a)
        assert len(perms) == n
        assert all(is_permutation(p) for p in perms)
        total = [[sum(p[i][j] for p in perms) for j in range(m)]
                 for i in range(m)]
        assert total == a


def test_decompose_matches_dense_reference(rng):
    """The sparse rounds return the dense matcher's permutations, in order;
    the sums of n permutations carry entries above 1 where they overlap."""
    cases = [random_regular_matrix(rng, rng.randint(1, 24), rng.randint(1, 6))
             for _ in range(120)]
    assert any(x > 1 for a in cases for row in a for x in row)
    for a in cases + [cyclic_matrix(1100)]:
        expected = reference_decompose_bvn(a)
        assert decompose_bvn(a) == expected
        assert extract_permutation(a) == expected[0]


def test_decompose_bvn_validates_once(monkeypatch):
    calls = []
    line_sums = dsekit.bvn._line_sums

    def counting(rows, widths):
        calls.append((rows, widths))
        return line_sums(rows, widths)

    monkeypatch.setattr(dsekit.bvn, "_line_sums", counting)
    a = random_regular_matrix(random.Random(3), 32, 5)
    assert len(decompose_bvn(a)) == 5
    assert calls == [dsekit.bvn._check_square(a)]


def test_library_and_cli_share_one_recount(monkeypatch, tmp_path, capsys):
    """Permutations that repeat a column fail the one recount, both in
    decompose_bvn and in ``dsekit bvn --decompose``."""
    monkeypatch.setattr(dsekit.bvn, "_permutations",
                        lambda rows: iter([[0] * len(rows)] * 2))
    with pytest.raises(BoundViolated, match="a permutation is not a bijection"):
        decompose_bvn([[1, 1], [1, 1]])
    f = tmp_path / "m.csv"
    f.write_text("1,1\n1,1\n")
    assert main(["bvn", "--in", str(f), "--n", "2", "--decompose"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error_type"] == "BoundViolated"
    assert report["error"] == "a permutation is not a bijection"


# -- the CSV reader against the regex reader it replaced ----------------------

CSV_PIECES = st.sampled_from(
    ["0", "0", "0,", "0,", "1", "7", "12", ",", " ", "-", "+", "_", "\t",
     "\n", "\r\n", "\x1c", "\u0661", "00", "-0", ",,", "\n\n", " 0 ",
     "9" * 4301, "0" * 4301])
# rows of cells, most of them valid, on any line break
CSV_CELLS = st.sampled_from(
    ["0", "0", "0", "0", "1", "2", "12", "00", "-0", " 0 ", " 3", "-1", "007",
     "9" * 4301, "0" * 4301, "", " ", "1_0", "+1", "\u0661", "1\t", "--1",
     "1 2", "0-"])
CSV_TEXTS = st.one_of(
    st.lists(CSV_PIECES, max_size=16).map("".join),
    st.tuples(st.lists(st.lists(CSV_CELLS, min_size=1, max_size=6)
                       .map(",".join), max_size=5),
              st.sampled_from(["\n", "\r\n", "\x1c", "\n\n", "\n \n"]))
    .map(lambda rows_sep: rows_sep[1].join(rows_sep[0])))


def outcome(call, *args):
    """What call returns, or the type and message of the error it raises."""
    try:
        return "value", call(*args)
    except (ValueError, NotDoublyStochastic) as exc:
        return type(exc).__name__, str(exc)


def read_both(text):
    """The outcomes of the CSV reader, densified, and of the regex reader."""
    got = outcome(ser.matrix_from_csv, text)
    if got[0] == "value":
        rows, widths = got[1]
        assert all(list(row) == sorted(row) and all(row.values())
                   for row in rows)
        got = "value", [[row.get(j, 0) for j in range(w)]
                        for row, w in zip(rows, widths)]
    return got, outcome(reference_matrix_from_csv, text)


@settings(max_examples=400, deadline=None)
@given(CSV_TEXTS, st.sampled_from(["", ",", "\n"]),
       st.sampled_from(["", ",", "\n"]))
def test_csv_reader_matches_the_regex_reader(body, before, after):
    text = before + body + after
    got, expected = read_both(text)
    assert got == expected
    if expected[0] == "value":
        # the same checks, and the same sparse form, after _check_square
        sparse = outcome(dsekit.bvn._check_square, expected[1])
        if sparse[0] == "value":
            assert ser.matrix_from_csv(text) == sparse[1]
        assert (outcome(dsekit.bvn._regular, *ser.matrix_from_csv(text))
                == outcome(regularity, expected[1]))


@pytest.mark.parametrize("text", [
    "1,0\n0,1", "0 , 1\n 1,0 \n", "00,1\n1,-0", "1,0,0\n0,1\n",
    ",1\n1,0", "1,,0\n", "1,0,\n0,1,", "1\n\n\n", "\u0661,0",
    "0" * 4301 + ",1\n1,0", "1,0\n" + "0" * 4301, "9" * 4301 + ",1 2",
    "1, 2 3", "--1,0"], ids=[
    "identity", "spaces", "zero-forms", "ragged", "leading-comma",
    "empty-cell", "trailing-comma", "blank-lines", "arabic-indic-digit",
    "long-zeros", "long-zeros-last", "long-digits-before-bad-cell",
    "inner-space", "double-minus"])
def test_csv_reader_fixed_cases(text):
    got, expected = read_both(text)
    assert got == expected


BAD_ENTRIES = [[[1, "x"], [0, 1]], [[None]], [[1, None], [None, 1]]]


@pytest.mark.parametrize("a", BAD_ENTRIES)
@pytest.mark.parametrize("call", [
    regularity, extract_permutation, decompose_bvn,
    lambda a: pad_to_doubly_stochastic(a, 2)],
    ids=["regularity", "extract_permutation", "decompose_bvn", "pad"])
def test_non_integer_entries_are_value_errors(call, a):
    with pytest.raises(ValueError, match="entries must be nonnegative integers"):
        call(a)


@pytest.mark.parametrize("a", BAD_ENTRIES)
def test_lift_rejects_non_integer_entries(a):
    with pytest.raises(NotPermutation):
        lift([a], len(a).bit_length() - 1)


def test_pad_already_regular():
    a = [[1, 1], [1, 1]]
    assert pad_to_doubly_stochastic(a, 2) == [[0, 0], [0, 0]]


def test_pad_zero_matrix_greedy_identity():
    assert pad_to_doubly_stochastic([[0, 0], [0, 0]], 1) == [[1, 0], [0, 1]]


def test_pad_forced_entry():
    assert pad_to_doubly_stochastic([[1, 0], [0, 0]], 1) == [[0, 0], [0, 1]]


def test_pad_infeasible():
    with pytest.raises(Infeasible):
        pad_to_doubly_stochastic([[2, 0], [0, 0]], 1)


def test_discretize_identity():
    d = DSE([identity_map()], 1)
    assert discretize(d, 1) == [[1, 0], [0, 1]]


def test_discretize_symmetrized_shift():
    d = symmetrize(DSE([half_shift()], 1))
    assert discretize(d, 1) == [[0, 2], [2, 0]]


def test_discretize_counterexample():
    a = discretize(counterexample(2), 4)
    assert all(sum(row) == 2 for row in a)
    assert all(sum(a[i][j] for i in range(16)) == 2 for j in range(16))


def test_discretize_reflections_align_cell_to_cell():
    d = DSE([PartialMap([Atom(0, 1, -1, 1)])], 1)
    assert discretize(d, 1) == [[0, 1], [1, 0]]


def test_discretize_needs_a_nonnegative_level():
    with pytest.raises(ValueError) as exc:
        discretize(DSE([half_shift()], 1), -1)
    assert str(exc.value) == "level must be nonnegative"


def test_discretize_rejects_misaligned():
    rotation = PartialMap([Atom(0, F(2, 3), 1, F(1, 3)),
                           Atom(F(2, 3), 1, 1, F(-2, 3))])
    d = DSE([rotation], 1)
    with pytest.raises(NotCellAligned) as exc:
        discretize(d, 2)
    assert exc.value.offending_atoms


def test_lift_identity():
    d = lift([[[1, 0], [0, 1]]], 1)
    assert d == DSE([identity_map()], 1)


def test_lift_two_cycle_is_shift():
    d = lift([[[0, 1], [1, 0]]], 1)
    assert d == DSE([half_shift()], 1)


def test_lift_rejects_non_permutation():
    with pytest.raises(NotPermutation):
        lift([[[1, 1], [0, 0]]], 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_roundtrip_counterexample(k):
    ce = counterexample(k)
    level = k + 1
    back = lift(decompose_bvn(discretize(ce, level)), level)
    assert validate(back).ok
    assert distance(ce, back) == 0


def test_roundtrip_random_translation_dse(rng):
    from conftest import random_cell_dse
    d = random_cell_dse(rng, 3, 3)
    back = lift(decompose_bvn(discretize(d, 3)), 3)
    assert distance(d, back) == 0
