"""Tests of the benchmark's oracles and tracer on closed forms.

Run from the repository root with ``python3 -m pytest bench``.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import dsekit.cli  # noqa: E402  (imports every layer for the tracer)
from dsekit.gallery import amplification, counterexample  # noqa: E402
from dsekit.serialize import map_to_json  # noqa: E402

from checks import (atoms_from_json, coverage, covers_exactly,  # noqa: E402
                    division_error, inverse, is_bijection,
                    is_permutation_matrix, l1_distance, symmetrized, weighted)
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import (COMMANDS, WORKLOADS, build, cell_map,  # noqa: E402
                       discretize, gallery_element, permutation_sum, rotation)

F = Fraction
HALF = F(1, 2)


@pytest.mark.parametrize("k", range(1, 8))
def test_counterexample_truncations_are_two_to_the_minus_k_apart(k):
    _, a = gallery_element(counterexample(k))
    _, b = gallery_element(counterexample(k + 1))
    assert l1_distance(weighted(a), weighted(b)) == F(1, 2 ** k)
    assert l1_distance(weighted(b), weighted(a)) == F(1, 2 ** k)


@pytest.mark.parametrize("k", range(1, 6))
def test_amplification_decomposes_at_distance_zero(k):
    d, pasting = amplification(k)
    n, maps = gallery_element(d)
    autos = [atoms_from_json(map_to_json(m)) for m in pasting]
    assert n == len(autos) == 2
    assert all(is_bijection(a) for a in autos)
    assert l1_distance(weighted(maps), weighted(autos)) == 0


def test_distance_counts_both_sides():
    identity = [(F(0), F(1), 1, F(0))]
    flip = [(F(0), F(1), -1, F(1))]
    assert l1_distance(weighted([identity]), weighted([identity])) == 0
    assert l1_distance(weighted([identity]), weighted([flip])) == 2
    doubled = weighted([identity], weight=2)
    assert l1_distance(doubled, weighted([identity])) == 1


@pytest.mark.parametrize("atoms", [
    [(F(0), F(1), 1, F(0))],
    [(F(0), F(1), -1, F(1))],
    rotation("3/11"),
    [(F(0), HALF, -1, F(1)), (HALF, F(1), -1, F(1))],
])
def test_bijections_are_accepted(atoms):
    assert is_bijection(atoms)


@pytest.mark.parametrize("atoms", [
    [(F(0), HALF, 1, F(0))],                                # misses [1/2, 1)
    [(F(0), HALF, 1, F(0)), (HALF, F(1), 1, -HALF)],        # images overlap
    [(F(0), F(1), 1, F(0)), (F(0), HALF, 1, HALF)],         # sources overlap
    [(F(0), F(1), 1, HALF)],                                # image leaves [0, 1)
    [(F(0), HALF, 1, F(0)), (HALF, F(1), 2, F(0))],         # slope 2
])
def test_non_bijections_are_rejected(atoms):
    assert not is_bijection(atoms)


def test_coverage_tiles_the_interval_and_finds_gaps():
    assert coverage([(F(0), HALF, 1)]) == [(F(0), HALF, 1), (HALF, F(1), 0)]
    assert covers_exactly([(F(0), HALF, 1), (HALF, F(1), 1)], 1)
    assert not covers_exactly([(F(0), HALF, 1)], 1)


def test_non_covers_are_rejected():
    # multiplicity 2 with a single identity map covers everything once
    identity = [(F(0), F(1), 1, F(0))]
    assert not covers_exactly(((lo, hi, 1) for lo, hi, _, _ in identity), 2)
    n, maps = gallery_element(counterexample(4))
    assert covers_exactly(((lo, hi, 1) for m in maps for lo, hi, _, _ in m), n)
    assert not covers_exactly(((lo, hi, 1) for m in maps[1:]
                               for lo, hi, _, _ in m), n)


def test_permutation_matrices():
    assert is_permutation_matrix([[0, 1], [1, 0]])
    assert not is_permutation_matrix([[1, 1], [0, 0]])
    assert not is_permutation_matrix([[2]])
    assert not is_permutation_matrix([[1, 0]])
    assert not is_permutation_matrix([])


def test_division_error_from_out_degrees():
    # the half shift on [0, 1/2) twice: out-degree 2 there and 0 elsewhere
    oriented = [(F(0), HALF, 1, HALF, 2)]
    assert division_error(oriented, 1) == 1
    # a rotation and its inverse, oriented one each way, are balanced
    rot = [a + (1,) for a in rotation("1/7")]
    assert division_error(rot, 1) == 0
    assert division_error(rot + [inverse(a) for a in rot], 1) == 1


def test_generated_inputs_have_the_stated_shape():
    import random
    rng = random.Random(7)
    for level in (2, 4):
        assert is_bijection(cell_map(rng, level, True))
    sym = symmetrized([cell_map(rng, 3, True), cell_map(rng, 3, False)])
    flipped = [inverse(a) for a in weighted(sym)]
    assert l1_distance(weighted(sym), flipped) == 0
    a = discretize(sym, 3)
    assert all(sum(row) == 4 for row in a)
    assert all(sum(a[i][j] for i in range(8)) == 4 for j in range(8))
    b = permutation_sum(rng, 16, 3)
    assert all(sum(row) == 3 for row in b)
    assert all(sum(b[i][j] for i in range(16)) == 3 for j in range(16))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_runs_every_command(workload, tmp_path):
    ops = build(workload, 1, tmp_path)
    assert {op.kind for op in ops} == set(COMMANDS)
    for op in ops:
        inputs = [v for flag, v in zip(op.argv, op.argv[1:])
                  if flag in ("--in", "--a", "--b")]
        assert inputs and all(Path(v).is_file() for v in inputs)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dsekit.cli.main(argv)
    return code, json.loads(buf.getvalue())


def test_tracer_wraps_importers_and_restores_them(tmp_path):
    import dsekit.decompose
    import dsekit.pieces
    original = dsekit.pieces.greedy_maximal_map
    (tmp_path / "ce.json").write_text(
        json.dumps(dsekit.serialize.dse_to_json(counterexample(3))))
    tr = Tracer()
    tr.install()
    try:
        assert dsekit.decompose.greedy_maximal_map is dsekit.pieces.greedy_maximal_map
        assert dsekit.decompose.greedy_maximal_map.__wrapped__ is original
        code, report = _run_cli(["decompose", "--in", str(tmp_path / "ce.json"),
                                 "--eps", "1/16", "--out", str(tmp_path / "o.json")])
    finally:
        tr.remove()
    assert code == 0 and report["command"] == "decompose"
    assert dsekit.decompose.greedy_maximal_map is original
    assert not hasattr(dsekit.cli.main, "__wrapped__")
    assert dsekit.cli.json.dumps is json.dumps

    roots = [i for i, p in enumerate(tr.parent) if p < 0]
    assert [tr.names[tr.name[i]] for i in roots] == ["cli.main"]
    root_time = tr.end[roots[0]] - tr.start[roots[0]]
    assert sum(tr.self_times()) == pytest.approx(root_time, rel=1e-9)
    m = layer_metrics(tr, tr.self_times())
    assert m["pieces.find_extension.calls"] > 0
    assert m["pieces.extensions"] <= m["pieces.find_extension.calls"]
    assert m["maps.preimage_of.calls"] > 0
    assert m["dse.normalize_cover.calls"] >= 1
    assert m["cli.json_io_s"] > 0
    assert sum(m[f"{layer}.self_s"] for layer in
               ("intervals", "maps", "multiset", "dse", "pieces", "decompose",
                "division", "bvn", "serialize", "cli")) \
        == pytest.approx(root_time, rel=1e-9)
