"""The benchmark's workloads: seeded inputs, CLI operations and their checks.

``build(workload, seed, work_dir)`` writes every input file of one workload
into ``work_dir`` and returns the operations of one round.  Seeded inputs
are generated here from raw atoms; the named examples (the counterexample
and amplification elements) come from ``dsekit.gallery``.  The CLI only
ever sees the written JSON and CSV files.  Each operation carries a check
that reads the CLI's report and artifact and verifies them against the
oracles in ``checks``, never against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from checks import (CheckFailed, atoms_from_json, coverage, covers_exactly,
                    division_error, element_from_json, entries_from_json,
                    image, inverse, is_bijection, is_permutation_matrix,
                    l1_distance, rational, require, symmetrized, weighted)

EPS = Fraction(1, 16)

# chain-counterexample: decompose and bvn levels; 6 and 8 run the deep
# extension chains.
CHAIN_LEVELS = (4, 6, 8)
# chain-counterexample: split and divide sym(ce(k)).
CHAIN_SYM_LEVELS = tuple(range(3, 12))
# chain-counterexample: validate ce(k) and measure its distance to ce(k+1).
CHAIN_PAIRS = tuple(range(33, 81))
# split-symmetric: (cell level, n, count) of seeded dyadic elements, split at
# multiplicity 2n, plus fixed rotation pairs with non-dyadic angles.
SPLIT_CELLS = ((4, 2, 32), (4, 3, 16))
SPLIT_ROTATIONS = (("1/7", "3/11"), ("1/7", "5/13"), ("3/11", "5/13"))
# bulk-cells: sizes of the large cell-aligned inputs.
BULK_READ = (10, 3, 16)         # level, n, count: validate and distance
BULK_DECOMPOSE = (7, 2, 6)      # level, n, count: decompose
# split/divide of sym(x) for x of n cell maps without reflections: the
# seeded kind whose split time varies least from input to input.
BULK_SPLIT = (4, 2, 16)         # level, n, count
# bvn of sums of random permutation matrices; at 512 rows no augmenting path
# of the recursive matching can reach the interpreter's recursion limit.
BULK_PERM_SUMS = (512, 3, 3)    # size, n, count
BULK_AMPLIFICATION = (7, 10)    # gallery level, grid level: bvn

WORKLOADS = ("chain-counterexample", "split-symmetric", "bulk-cells")
COMMANDS = ("decompose", "split", "divide", "distance", "validate", "bvn")


@dataclass
class Op:
    """One CLI call and the check of its report.

    ``check(report)`` raises ``CheckFailed`` on a wrong output and returns
    the number of atoms in the artifact the call wrote (0 for none).
    """

    kind: str
    argv: list[str]
    check: Callable[[dict], int]
    artifact: Path | None = None


# -- input generation -----------------------------------------------------------


def cell_map(rng: random.Random, level: int, reflections: bool) -> list[tuple]:
    """A random permutation of the 2^level dyadic cells as one map.

    With ``reflections`` about three cells in ten are carried reversed.
    """
    m = 2 ** level
    unit = Fraction(1, m)
    perm = list(range(m))
    rng.shuffle(perm)
    atoms = []
    for j, i in enumerate(perm):
        if reflections and rng.random() < 0.3:
            atoms.append((j * unit, (j + 1) * unit, -1, (i + j + 1) * unit))
        else:
            atoms.append((j * unit, (j + 1) * unit, 1, (i - j) * unit))
    return atoms


def rotation(angle: str) -> list[tuple]:
    """x -> x + angle mod 1, as two translation atoms."""
    a = rational(angle)
    return [(Fraction(0), 1 - a, 1, a), (1 - a, Fraction(1), 1, a - 1)]


def discretize(maps, level: int) -> list[list[int]]:
    """Cell-to-cell counts of a cell-aligned element on the 2^-level grid."""
    m = 2 ** level
    out = [[0] * m for _ in range(m)]
    for atoms in maps:
        for lo, hi, slope, offset in atoms:
            for j in range(int(lo * m), int(hi * m)):
                cell = (Fraction(j, m), Fraction(j + 1, m), slope, offset)
                i = image(cell)[0] * m
                require(i.denominator == 1, "element is not cell-aligned")
                out[int(i)][j] += 1
    return out


def permutation_sum(rng: random.Random, size: int, n: int) -> list[list[int]]:
    out = [[0] * size for _ in range(size)]
    for _ in range(n):
        perm = list(range(size))
        rng.shuffle(perm)
        for j, i in enumerate(perm):
            out[i][j] += 1
    return out


def gallery_element(d) -> tuple[int, list[list[tuple]]]:
    from dsekit.serialize import dse_to_json
    return element_from_json(dse_to_json(d))


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def write_element(path: Path, n: int, maps) -> str:
    payload = {"multiplicity": n,
               "maps": [[{"src": [_q(lo), _q(hi)], "slope": slope,
                          "offset": _q(offset)} for lo, hi, slope, offset in m]
                        for m in maps]}
    path.write_text(json.dumps(payload))
    return str(path)


def write_matrix(path: Path, a) -> str:
    path.write_text("\n".join(",".join(map(str, row)) for row in a) + "\n")
    return str(path)


# -- operations and their checks ------------------------------------------------


def _bound(report: dict, key: str) -> Fraction:
    return rational(report["bounds"][key])


def _artifact(src: str, kind: str) -> tuple[str, Path]:
    """The name of an input file and the artifact path of a command on it."""
    path = Path(src)
    return path.stem, path.with_suffix(f".{kind}.json")


def decompose_op(src: str, n: int, maps) -> Op:
    name, out = _artifact(src, "decompose")

    def check(report: dict) -> int:
        art = json.loads(out.read_text())
        autos = [atoms_from_json(m) for m in art["automorphisms"]]
        require(len(autos) == n, f"{name}: {len(autos)} maps, expected {n}")
        require(all(is_bijection(a) for a in autos),
                f"{name}: an emitted map is not a bijection of [0, 1)")
        dist = l1_distance(weighted(maps), weighted(autos))
        require(dist < EPS, f"{name}: distance {dist} is not below {EPS}")
        require(dist == _bound(report, "achieved_distance")
                == rational(art["achieved_distance"]),
                f"{name}: reported distance differs from the oracle's {dist}")
        return sum(len(a) for a in autos)

    return Op("decompose", ["decompose", "--in", src, "--eps", _q(EPS),
                            "--out", str(out)], check, out)


def split_op(src: str, n: int, maps) -> Op:
    """Split of a symmetric element of multiplicity n = 2h."""
    name, out = _artifact(src, "split")

    def check(report: dict) -> int:
        half, phi = element_from_json(json.loads(out.read_text()))
        require(2 * half == n, f"{name}: split has multiplicity {half}")
        require(covers_exactly(((lo, hi, 1) for m in phi
                                for lo, hi, _, _ in m), half)
                and covers_exactly(((*image(a), 1) for m in phi for a in m),
                                   half),
                f"{name}: split is not a valid multiplicity-{half} element")
        dist = l1_distance(weighted(maps), weighted(symmetrized(phi)))
        require(dist < EPS, f"{name}: distance {dist} is not below {EPS}")
        require(dist == _bound(report, "achieved_distance"),
                f"{name}: reported distance differs from the oracle's {dist}")
        return sum(len(m) for m in phi)

    return Op("split", ["split", "--in", src, "--eps", _q(EPS),
                        "--out", str(out)], check, out)


def divide_op(src: str, n: int, maps) -> Op:
    name, out = _artifact(src, "divide")

    def check(report: dict) -> int:
        art = json.loads(out.read_text())
        oriented = entries_from_json(art["oriented"])
        base = entries_from_json(art["base"])
        require(2 * int(art["degree"]) == n, f"{name}: degree {art['degree']}")
        both = oriented + [inverse(a) for a in oriented]
        require(l1_distance(both, weighted(maps)) == 0,
                f"{name}: orientation plus its flip is not the input")
        require(l1_distance(base, weighted(maps)) == 0,
                f"{name}: base is not the input")
        err = division_error(oriented, n // 2)
        require(err < EPS, f"{name}: division error {err} is not below {EPS}")
        require(err == _bound(report, "error") == rational(art["error"]),
                f"{name}: reported error differs from the oracle's {err}")
        return len(oriented) + len(base)

    return Op("divide", ["divide", "--in", src, "--eps", _q(EPS),
                         "--out", str(out)], check, out)


def distance_op(a_path: str, a_maps, b_path: str, b_maps,
                expected: Fraction | None = None) -> Op:
    def check(report: dict) -> int:
        got = rational(report["result"]["distance"])
        want = l1_distance(weighted(a_maps), weighted(b_maps))
        require(got == want, f"distance {got} differs from the oracle's {want}")
        require(expected is None or got == expected,
                f"distance {got} differs from the closed form {expected}")
        return 0

    return Op("distance", ["distance", "--a", a_path, "--b", b_path], check)


def validate_op(path: str, n: int, maps) -> Op:
    def check(report: dict) -> int:
        require(covers_exactly(((lo, hi, 1) for m in maps
                                for lo, hi, _, _ in m), n)
                and covers_exactly(((*image(a), 1) for m in maps for a in m), n),
                f"{path}: input does not cover exactly {n} times")
        result = report["result"]
        require(result["ok"] is True and result["multiplicity"] == n,
                f"{path}: validate did not accept a valid element")
        for key in ("domain_cells", "image_cells"):
            cells = [(rational(lo), rational(hi), int(v))
                     for lo, hi, v in result[key]]
            require(coverage((lo, hi, v) for lo, hi, v in cells)
                    == [(lo, hi, n) for lo, hi, _ in cells]
                    and all(v == n for _, _, v in cells),
                    f"{path}: {key} do not tile [0, 1) with coverage {n}")
        return 0

    return Op("validate", ["validate", "--in", path], check)


def bvn_op(path: str, a, n: int) -> Op:
    def check(report: dict) -> int:
        perms = report["result"]["permutations"]
        require(len(perms) == n, f"{path}: {len(perms)} permutations, expected {n}")
        require(all(is_permutation_matrix(p) for p in perms),
                f"{path}: an emitted matrix is not a permutation matrix")
        size = len(a)
        require(all(sum(p[i][j] for p in perms) == a[i][j]
                    for i in range(size) for j in range(size)),
                f"{path}: permutations do not sum to the input")
        return 0

    return Op("bvn", ["bvn", "--in", path, "--n", str(n), "--decompose"], check)


# -- workloads --------------------------------------------------------------------


def _chain(seed: int, work: Path) -> list[Op]:
    """Gallery inputs only; the seed does not change them."""
    from dsekit.gallery import counterexample
    levels = (set(CHAIN_LEVELS) | set(CHAIN_SYM_LEVELS) | set(CHAIN_PAIRS)
              | {k + 1 for k in CHAIN_PAIRS})
    elements = {k: gallery_element(counterexample(k)) for k in sorted(levels)}
    paths = {k: write_element(work / f"ce{k}.json", *elements[k])
             for k in elements}
    ops = []
    for k in CHAIN_LEVELS:
        n, maps = elements[k]
        matrix = discretize(maps, k + 1)
        ops += [decompose_op(paths[k], n, maps),
                bvn_op(write_matrix(work / f"ce{k}.csv", matrix), matrix, n)]
    for k in CHAIN_SYM_LEVELS:
        n, maps = elements[k]
        sym = symmetrized(maps)
        sym_path = write_element(work / f"sym-ce{k}.json", 2 * n, sym)
        ops += [split_op(sym_path, 2 * n, sym), divide_op(sym_path, 2 * n, sym)]
    for k in CHAIN_PAIRS:
        n, maps = elements[k]
        ops += [validate_op(paths[k], n, maps),
                distance_op(paths[k], maps, paths[k + 1], elements[k + 1][1],
                            Fraction(1, 2 ** k))]
    return ops


def _split(seed: int, work: Path) -> list[Op]:
    rng = random.Random(seed)
    inputs = []     # (name, n, maps, cell level or None)
    for level, n, count in SPLIT_CELLS:
        for c in range(count):
            maps = [cell_map(rng, level, True) for _ in range(n)]
            inputs.append((f"cells{level}-{n}-{c}", n, maps, level))
    for angles in SPLIT_ROTATIONS:
        name = "rot-" + "-".join(a.replace("/", "_") for a in angles)
        inputs.append((name, len(angles), [rotation(a) for a in angles], None))
    ops = []
    previous: dict[int, tuple[str, list]] = {}
    for name, n, maps, level in inputs:
        sym = symmetrized(maps)
        path = write_element(work / f"sym-{name}.json", 2 * n, sym)
        ops += [split_op(path, 2 * n, sym), divide_op(path, 2 * n, sym),
                validate_op(path, 2 * n, sym)]
        if n in previous:
            ops.append(distance_op(*previous[n], path, sym))
        previous[n] = (path, sym)
        if n == 2:
            # every map is a full automorphism, so no extension is searched
            ops.append(decompose_op(
                write_element(work / f"{name}.json", n, maps), n, maps))
        if level is not None:
            matrix = discretize(sym, level)
            ops.append(bvn_op(write_matrix(work / f"sym-{name}.csv", matrix),
                              matrix, 2 * n))
    return ops


def _bulk(seed: int, work: Path) -> list[Op]:
    from dsekit.gallery import amplification
    rng = random.Random(seed)
    ops = []
    level, n, count = BULK_READ
    read = []
    for c in range(count):
        maps = [cell_map(rng, level, True) for _ in range(n)]
        path = write_element(work / f"read-{c}.json", n, maps)
        read.append((path, maps))
        ops.append(validate_op(path, n, maps))
    for c in range(0, count - 1, 2):
        ops.append(distance_op(*read[c], *read[c + 1]))
    level, n, count = BULK_DECOMPOSE
    for c in range(count):
        maps = [cell_map(rng, level, True) for _ in range(n)]
        ops.append(decompose_op(
            write_element(work / f"dec-{c}.json", n, maps), n, maps))
    level, n, count = BULK_SPLIT
    for c in range(count):
        sym = symmetrized([cell_map(rng, level, False) for _ in range(n)])
        path = write_element(work / f"sym-{c}.json", 2 * n, sym)
        ops += [split_op(path, 2 * n, sym), divide_op(path, 2 * n, sym)]
    size, n, count = BULK_PERM_SUMS
    for c in range(count):
        a = permutation_sum(rng, size, n)
        ops.append(bvn_op(write_matrix(work / f"perms-{c}.csv", a), a, n))
    k, grid = BULK_AMPLIFICATION
    n, maps = gallery_element(amplification(k)[0])
    a = discretize(maps, grid)
    ops.append(bvn_op(write_matrix(work / f"amplification{k}.csv", a), a, n))
    return ops


_ROUNDS = {"chain-counterexample": _chain, "split-symmetric": _split,
             "bulk-cells": _bulk}


def build(workload: str, seed: int, work_dir: Path) -> list[Op]:
    """Write the workload's inputs into work_dir; return one round of ops."""
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = _ROUNDS[workload](seed, work_dir)
    missing = set(COMMANDS) - {op.kind for op in ops}
    if missing:
        raise CheckFailed(f"{workload} runs no {sorted(missing)}")
    return ops
