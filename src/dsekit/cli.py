"""Command-line surface: batch runs, demos and report emission.

Every subcommand prints one JSON report to stdout and exits 0 on success,
2 on domain errors (validation failures and their kin) with a structured
error object, and 1 on I/O or parse problems, command-line usage errors
included.  Reported bounds are always recomputed from the emitted
artifacts, never copied from run state.
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
from .division import Division, near_perfect_division, symmetric_split
from .dse import DSE, distance, symmetrize, validate
from .errors import DsekitError
from .gallery import amplification, counterexample, forest_example
from .intervals import rat_str


def _read_json(path: str):
    """The value of a JSON file; nesting too deep to parse is a ValueError."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _read_matrix(path: str) -> tuple[bvn_mod.Rows, list[int]]:
    """A matrix file as its sparse rows and row widths."""
    if path.endswith(".json"):
        return ser.matrix_from_json(_read_json(path))
    return ser.matrix_from_csv(Path(path).read_text())


def _report(command: str, inputs: dict, outputs: dict, bounds: dict,
            result, started: float) -> str:
    """The report as the JSON text that ``main`` prints."""
    return json.dumps({
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "bounds": bounds,
        "result": result,
        "wall_time_seconds": round(time.monotonic() - started, 6),
    })


def _cmd_validate(args, started: float) -> tuple[str, int]:
    d = ser.dse_from_json(_read_json(args.infile))
    report = validate(d, raise_on_fail=False)
    out = _report("validate", {"in": args.infile}, {}, {},
                  ser.coverage_report_to_json(report), started)
    return out, 0 if report.ok else 2


def _cmd_distance(args, started: float) -> tuple[str, int]:
    a = ser.dse_from_json(_read_json(args.a))
    b = ser.dse_from_json(_read_json(args.b))
    value = distance(a, b)
    out = _report("distance", {"a": args.a, "b": args.b}, {}, {},
                  {"distance": rat_str(value)}, started)
    return out, 0


def _run_decompose(d: DSE, eps, emit) -> tuple[dict, dict]:
    dec = almost_decompose(d, eps)
    emitted = emit({"automorphisms": [ser.map_to_json(m)
                                      for m in dec.automorphisms],
                    "achieved_distance": rat_str(dec.achieved_distance)})
    back = ser.dse_from_json({"multiplicity": d.multiplicity,
                              "maps": emitted["automorphisms"]})
    return ({"achieved_distance": rat_str(distance(d, back))},
            {"automorphisms": len(back.maps)})


def _run_divide(d: DSE, eps, emit) -> tuple[dict, dict]:
    validate(d)
    div = near_perfect_division(d.matrix, eps)
    emitted = emit({"base": ser.multiset_to_json(div.base),
                    "oriented": ser.multiset_to_json(div.oriented),
                    "degree": div.n,
                    "error": rat_str(div.error)})
    redone = Division(ser.multiset_from_json(emitted["oriented"]),
                      ser.multiset_from_json(emitted["base"]),
                      int(emitted["degree"]))
    return ({"error": rat_str(redone.error)},
            {"families": len(redone.oriented._fam)})


def _run_split(d: DSE, eps, emit) -> tuple[dict, dict]:
    emitted = ser.dse_from_json(emit(ser.dse_to_json(symmetric_split(d, eps))))
    achieved = distance(d, symmetrize(emitted))
    return ({"achieved_distance": rat_str(achieved)},
            {"multiplicity": emitted.multiplicity})


# name -> (help, run) of the commands that write one artifact to --out, run
# set as args.artifact.  run(d, eps, emit) passes its payload to emit, which
# writes it and returns it read back from disk; run recomputes from that.
_ARTIFACT_COMMANDS = {
    "decompose": ("almost-decompose into automorphisms", _run_decompose),
    "divide": ("orient a symmetric element", _run_divide),
    "split": ("halve a symmetric element", _run_split),
}


def _cmd_artifact(args, started: float) -> tuple[str, int]:
    d = ser.dse_from_json(_read_json(args.infile))
    eps = ser.parse_eps(args.eps)

    def emit(payload: dict):
        Path(args.out).write_text(ser.artifact_text(payload))
        return _read_json(args.out)

    bounds, result = args.artifact(d, eps, emit)
    out = _report(args.command, {"in": args.infile, "eps": args.eps},
                  {"out": args.out}, {"eps": rat_str(eps), **bounds}, result,
                  started)
    return out, 0


def _cmd_bvn(args, started: float) -> tuple[str, int]:
    rows, widths = _read_matrix(args.infile)
    n = bvn_mod._regular(rows, widths)
    if n != args.n:
        raise DsekitError(f"matrix is {n}-regular, expected {args.n}")
    m, text = len(rows), ""
    result: dict = {"size": m, "n": n}
    if args.decompose:
        perms = bvn_mod._decompose(rows)
        # their one-hot rows as JSON text, put in place of a NUL, which
        # json.dumps writes as "\u0000" and no path that was read holds
        text = "[" + ", ".join("[" + ", ".join(
            "[" + "0, " * j + "1" + ", 0" * (m - j - 1) + "]" for j in cols)
            + "]" for cols in perms) + "]"
        result["permutations"] = "\0"
    out = _report("bvn", {"in": args.infile, "n": args.n}, {}, {}, result,
                  started)
    return out.replace('"\\u0000"', text, 1), 0


_DEMOS = {
    "counterexample": counterexample,
    "forest": lambda level: DSE(forest_example(level), 2),
    "amplification": lambda level: amplification(level)[0],
}

# the output grows about quadratically with the level; at this cap the
# largest demo is a few hundred kilobytes
_DEMO_LEVEL_CAP = 256


def _cmd_demo(args, started: float) -> tuple[str, int]:
    if args.level > _DEMO_LEVEL_CAP:
        raise ValueError(f"demo level must be at most {_DEMO_LEVEL_CAP}")
    result = ser.dse_to_json(_DEMOS[args.name](args.level))
    out = _report("demo", {"name": args.name, "level": args.level}, {}, {},
                  result, started)
    return out, 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing them and exiting 2, so that
    ``main`` can report them as a JSON error object."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dsekit",
        description="exact calculus for doubly stochastic elements of [0,1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the coverage of an element")
    p.set_defaults(handler=_cmd_validate)
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("distance", help="exact distance between two elements")
    p.set_defaults(handler=_cmd_distance)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    for name, (help_text, run) in _ARTIFACT_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=_cmd_artifact, artifact=run)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--eps", required=True)
        p.add_argument("--out", required=True)

    p = sub.add_parser("bvn", help="finite Birkhoff-von Neumann tools")
    p.set_defaults(handler=_cmd_bvn)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--decompose", action="store_true")

    p = sub.add_parser("demo", help="emit a gallery element as JSON")
    p.set_defaults(handler=_cmd_demo)
    p.add_argument("--name", required=True, choices=list(_DEMOS))
    p.add_argument("--level", type=int, default=2)
    return parser


# parse_args leaves the parser as it was, so one serves every call of main
_PARSER = build_parser()


def _error(argv: list[str], exc: Exception) -> str:
    """The JSON error text; its command is the first argument, or ""."""
    return json.dumps({"command": argv[0] if argv else "", "error": str(exc),
                       "error_type": type(exc).__name__})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
        report, code = args.handler(args, time.monotonic())
    except DsekitError as exc:
        report, code = _error(argv, exc), 2
    except (argparse.ArgumentError, OSError, ValueError, KeyError,
            ZeroDivisionError) as exc:
        report, code = _error(argv, exc), 1
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
