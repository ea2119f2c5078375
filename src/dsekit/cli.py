"""Command-line surface: batch runs, demos and report emission.

Every subcommand prints one JSON report to stdout and exits 0 on success,
2 on domain errors (validation failures and their kin) with a structured
error object, and 1 on I/O or parse problems.  Reported bounds are always
recomputed from the emitted artifacts, never copied from run state.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import bvn as bvn_mod
from . import serialize as ser
from .decompose import almost_decompose
from .division import error as division_error
from .division import near_perfect_division, symmetric_split
from .dse import DSE, distance, symmetrize, validate
from .errors import DsekitError, check
from .gallery import amplification, counterexample, forest_example
from .intervals import rat_str
from .maps import PartialMap


def _read_json(path: str):
    return json.loads(Path(path).read_text())


def _read_matrix(path: str) -> list[list[int]]:
    text = Path(path).read_text()
    if path.endswith(".json"):
        return ser.matrix_from_json(json.loads(text))
    return ser.matrix_from_csv(text)


def _report(command: str, inputs: dict, outputs: dict, bounds: dict,
            result, started: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "bounds": bounds,
        "result": result,
        "wall_time_seconds": round(time.monotonic() - started, 6),
    }


def _cmd_validate(args, started: float) -> tuple[dict, int]:
    d = ser.dse_from_json(_read_json(args.infile))
    report = validate(d, raise_on_fail=False)
    out = _report("validate", {"in": args.infile}, {}, {},
                  ser.coverage_report_to_json(report), started)
    return out, 0 if report.ok else 2


def _cmd_distance(args, started: float) -> tuple[dict, int]:
    a = ser.dse_from_json(_read_json(args.a))
    b = ser.dse_from_json(_read_json(args.b))
    value = distance(a, b)
    out = _report("distance", {"a": args.a, "b": args.b}, {}, {},
                  {"distance": rat_str(value)}, started)
    return out, 0


def _cmd_decompose(args, started: float) -> tuple[dict, int]:
    d = ser.dse_from_json(_read_json(args.infile))
    eps = ser.parse_eps(args.eps)
    dec = almost_decompose(d, eps)
    payload = {"automorphisms": [ser.map_to_json(a.map)
                                 for a in dec.automorphisms],
               "achieved_distance": rat_str(dec.achieved_distance)}
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    # recompute the bound from the artifact on disk
    emitted = _read_json(args.out)
    maps = [ser.map_from_json(m) for m in emitted["automorphisms"]]
    achieved = distance(d, DSE(maps, d.multiplicity))
    out = _report("decompose", {"in": args.infile, "eps": args.eps},
                  {"out": args.out},
                  {"eps": args.eps, "achieved_distance": rat_str(achieved)},
                  {"automorphisms": len(maps)}, started)
    return out, 0


def _cmd_divide(args, started: float) -> tuple[dict, int]:
    d = ser.dse_from_json(_read_json(args.infile))
    eps = ser.parse_eps(args.eps)
    div = near_perfect_division(d.matrix, eps)
    payload = {"base": ser.multiset_to_json(div.base),
               "oriented": ser.multiset_to_json(div.oriented),
               "degree": div.n,
               "error": rat_str(division_error(div))}
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    emitted = _read_json(args.out)
    from .division import Division
    redone = Division(ser.multiset_from_json(emitted["oriented"]),
                      ser.multiset_from_json(emitted["base"]),
                      int(emitted["degree"]))
    out = _report("divide", {"in": args.infile, "eps": args.eps},
                  {"out": args.out},
                  {"eps": args.eps, "error": rat_str(division_error(redone))},
                  {"families": len(list(redone.oriented.families()))}, started)
    return out, 0


def _cmd_split(args, started: float) -> tuple[dict, int]:
    d = ser.dse_from_json(_read_json(args.infile))
    eps = ser.parse_eps(args.eps)
    phi = symmetric_split(d, eps)
    Path(args.out).write_text(
        json.dumps(ser.dse_to_json(phi), indent=2) + "\n")
    emitted = ser.dse_from_json(_read_json(args.out))
    achieved = distance(d, symmetrize(emitted))
    out = _report("split", {"in": args.infile, "eps": args.eps},
                  {"out": args.out},
                  {"eps": args.eps, "achieved_distance": rat_str(achieved)},
                  {"multiplicity": emitted.multiplicity}, started)
    return out, 0


def _cmd_bvn(args, started: float) -> tuple[dict, int]:
    a = _read_matrix(args.infile)
    n = bvn_mod.regularity(a)
    if n != args.n:
        raise DsekitError(f"matrix is {n}-regular, expected {args.n}")
    result: dict = {"size": len(a), "n": n}
    if args.decompose:
        perms = bvn_mod.decompose_bvn(a)
        total = [[sum(p[i][j] for p in perms) for j in range(len(a))]
                 for i in range(len(a))]
        check(total == a, "permutations do not sum to the matrix")
        result["permutations"] = perms
    out = _report("bvn", {"in": args.infile, "n": args.n}, {}, {},
                  result, started)
    return out, 0


def _cmd_demo(args, started: float) -> tuple[dict, int]:
    if args.name == "counterexample":
        d = counterexample(args.level)
    elif args.name == "forest":
        d = DSE(forest_example(args.level), 2)
    else:
        d, _ = amplification(args.level)
    result = ser.dse_to_json(d)
    out = _report("demo", {"name": args.name, "level": args.level}, {}, {},
                  result, started)
    return out, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsekit",
        description="exact calculus for doubly stochastic elements of [0,1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the coverage of an element")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("distance", help="exact distance between two elements")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("decompose",
                       help="almost-decompose into automorphisms")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("divide", help="orient a symmetric element")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("split", help="halve a symmetric element")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bvn", help="finite Birkhoff-von Neumann tools")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--decompose", action="store_true")

    p = sub.add_parser("demo", help="emit a gallery element as JSON")
    p.add_argument("--name", required=True,
                   choices=["counterexample", "forest", "amplification"])
    p.add_argument("--level", type=int, default=2)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    handlers = {
        "validate": _cmd_validate,
        "distance": _cmd_distance,
        "decompose": _cmd_decompose,
        "divide": _cmd_divide,
        "split": _cmd_split,
        "bvn": _cmd_bvn,
        "demo": _cmd_demo,
    }
    try:
        report, code = handlers[args.command](args, started)
    except DsekitError as exc:
        print(json.dumps({"command": args.command, "error": str(exc),
                          "error_type": type(exc).__name__}))
        return 2
    except (OSError, ValueError, KeyError, ZeroDivisionError,
            json.JSONDecodeError) as exc:
        print(json.dumps({"command": args.command, "error": str(exc),
                          "error_type": type(exc).__name__}))
        return 1
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
