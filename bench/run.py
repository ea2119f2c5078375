"""End-to-end and per-layer benchmark of the dsekit command line.

Run from the repository root:

    python3 bench/run.py --workload chain-counterexample --seed 1 \
        --seconds 15 --trace 0

The program under test is ``src/dsekit`` of the same checkout, called
in-process through ``dsekit.cli.main(argv)`` on one thread.  Each workload
is a closed loop with a single client: the operations of one round run one
after another, whole rounds repeat until ``--seconds`` have passed, and
every output is checked against the benchmark's own oracles outside the
timed region.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs one round with every layer wrapped in spans, then untraced rounds for
the rest of the run, and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

End-to-end times are given at a reference machine speed.  Shared machines
change speed by up to 2x in phases that last from seconds to minutes, so
while the timed part runs, a SIGALRM timer times a fixed pure-Python
workload (``reference_work``, no dsekit code) every ``SAMPLE_EVERY``
seconds.  A call's wall time, less the samples taken inside it, is scaled
by ``REFERENCE_S`` over the mean sample time from ``WINDOW`` seconds before
the call to ``WINDOW`` seconds after it.  The raw wall times and the scaled
ones are kept in ``bench/out/<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import re
import resource
import signal
import statistics
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
OUT = HERE / "out"
SETUP_REPEATS = 5
# Wall time of one reference_work() call at the reference speed: its fastest
# time on the 2-core x86-64 machine the reference figures come from.
REFERENCE_S = 0.0015
SAMPLE_EVERY = 0.05
WINDOW = 0.25

_DENOMINATOR = re.compile(r'"-?\d+/(\d+)"')


def reference_work() -> Fraction:
    """A fixed CPU-bound workload like dsekit's hot paths, sharing no code."""
    xs = [Fraction(i * 7919 % 1009, 1024) for i in range(200)]
    xs.sort()
    total = Fraction(0)
    seen: dict[Fraction, int] = {}
    for a, b in zip(xs, xs[1:]):
        if a < b:
            total += b - a
        seen[a] = seen.get(a, 0) + 1
    return total


class SpeedLog:
    """Speed samples of the machine, taken while the log is entered.

    Every SAMPLE_EVERY seconds a SIGALRM handler times one reference_work()
    call.  ``spent`` is the total time of the samples so far, so a timed
    region can take off the part that went to samples.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        # no collection inside a sample: it would scan the caller's objects
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            took = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.at.append(start)
        self.took.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedLog":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Factor from wall time in [start, end] to reference-speed time."""
        lo = bisect_left(self.at, start - WINDOW)
        hi = bisect_right(self.at, end + WINDOW)
        if lo == hi:        # no sample near: take the closest one
            lo, hi = max(lo - 1, 0), max(lo - 1, 0) + 1
        window = self.took[lo:hi]
        # a sample over twice the median was held up by something else
        typical = 2 * statistics.median(window)
        return REFERENCE_S / statistics.fmean(t for t in window if t <= typical)


def load_dsekit():
    """Import dsekit afresh from this checkout; return its cli module."""
    for name in [m for m in sys.modules
                 if m == "dsekit" or m.startswith("dsekit.")]:
        del sys.modules[name]
    cli = importlib.import_module("dsekit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"dsekit was imported from {cli.__file__}")
    return cli


def set_up(workload: str, seed: int, log: SpeedLog):
    """Import dsekit and write the inputs, SETUP_REPEATS times.

    Returns the cli module, one round of ops, and (start, end, seconds) of
    every repetition.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        spent = log.spent
        start = time.perf_counter()
        cli = load_dsekit()
        ops = workloads.build(workload, seed, WORK / workload)
        end = time.perf_counter()
        times.append((start, end, end - start - (log.spent - spent)))
    return cli, ops, times


def call(cli, argv: list[str], log: SpeedLog):
    """Run one CLI call.

    Returns (start, end, seconds, report, error): the wall time less the
    speed samples taken during the call, the parsed report, and an error
    message when the call failed.
    """
    buf = io.StringIO()
    spent = log.spent
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        # a traceback out of the CLI is a failed operation, not a crash here
        code, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    seconds = end - start - (log.spent - spent)
    if code is None:
        return start, end, seconds, None, error
    lines = buf.getvalue().strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return start, end, seconds, None, f"exit {code} without a JSON report"
    if code != 0:
        return start, end, seconds, report, f"exit {code}: {lines[-1]}"
    return start, end, seconds, report, None


class Tally:
    """Counts, timings and artifact figures of the rounds run so far."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = self.failed = 0
        self.correct = True
        # per op: (start, end, seconds) of every call that did not fail
        self.calls: list[list[tuple[float, float, float]]] = [[] for _ in ops]
        self.atoms: list[int] = []
        self.artifact_bytes = 0
        self.denominator_bits = 0

    def run_round(self, cli, log: SpeedLog,
                  tracer: Tracer | None = None) -> float:
        """Run every op once and check it; return the calls' summed time."""
        total = 0.0
        for op, calls in zip(self.ops, self.calls):
            gc.collect()
            if tracer is not None:
                tracer.next_op()
            start, end, seconds, report, error = call(cli, op.argv, log)
            self.attempted += 1
            total += seconds
            if error is not None:
                self.failed += 1
                print(f"failed: {' '.join(op.argv)}: {error}", file=sys.stderr)
                continue
            calls.append((start, end, seconds))
            try:
                if report.get("command") != op.kind:
                    raise ValueError(f"report is for {report.get('command')}")
                atoms = op.check(report)
            except Exception:
                self.correct = False
                print(f"wrong output: {' '.join(op.argv)}", file=sys.stderr)
                traceback.print_exc()
                continue
            if op.artifact is not None:
                self.atoms.append(atoms)
                text = op.artifact.read_text()
                self.artifact_bytes += len(text.encode())
                self.denominator_bits = max(
                    [self.denominator_bits]
                    + [int(q).bit_length() for q in _DENOMINATOR.findall(text)])
        return total


def timed_run(cli, ops, seconds: float, log: SpeedLog) -> Tally:
    tally = Tally(ops)
    start = time.perf_counter()
    while True:
        tally.run_round(cli, log)
        if time.perf_counter() - start >= seconds:
            return tally


def end_to_end_metrics(tally: Tally, setup, log: SpeedLog) -> dict:
    """Per command, the mean over its ops of each op's median scaled time
    over the rounds; ops_per_s is the ops of a round over their summed
    median times."""
    def scaled(calls):
        return [t * log.scale(start, end) for start, end, t in calls]

    medians = [statistics.median(scaled(c)) if c else None for c in tally.calls]
    metrics = {"setup_s": (statistics.median(scaled(setup)), "s")}
    for kind in workloads.COMMANDS:
        ts = [m for op, m in zip(tally.ops, medians)
              if op.kind == kind and m is not None]
        if ts:
            metrics[f"{kind}_s"] = (statistics.fmean(ts), "s")
    done = [m for m in medians if m is not None]
    metrics["ops_per_s"] = (len(done) / sum(done) if done else 0.0, "ops/s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["artifact_atoms"] = (
        statistics.fmean(tally.atoms) if tally.atoms else 0.0, "atoms")
    return metrics


def save_record(path: Path, tally: Tally, setup, log: SpeedLog) -> None:
    """Keep every call's wall and scaled time, and the speed samples."""
    def times(calls):
        return {"wall_s": [t for _, _, t in calls],
                "scaled_s": [t * log.scale(a, b) for a, b, t in calls]}

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "reference_s": REFERENCE_S,
        "samples_s": log.took,
        "setup": times(setup),
        "ops": [{"argv": op.argv, **times(c)}
                for op, c in zip(tally.ops, tally.calls)],
    }, indent=1) + "\n")


def traced_run(cli, ops, seconds: float, workload: str) -> tuple[Tally, dict]:
    """One round with every layer traced, then untraced rounds for the rest
    of the run as the reference for the tracing overhead.  Per-layer times
    are wall times, not scaled."""
    tally = Tally(ops)
    tr = Tracer()
    idle = SpeedLog()       # never entered, so it takes no samples
    start = time.perf_counter()
    tr.install()
    try:
        traced = tally.run_round(cli, idle, tr)
    finally:
        tr.remove()
    artifact_bytes = tally.artifact_bytes
    untraced = []
    while True:
        untraced.append(tally.run_round(cli, idle))
        if time.perf_counter() - start >= seconds:
            break
    own = tr.self_times()
    values = layer_metrics(tr, own)
    values.update({
        "serialize.artifact_bytes": artifact_bytes,
        "serialize.denominator_bits_max": tally.denominator_bits,
        "trace.traced_s": traced,
        "trace.untraced_s": statistics.median(untraced),
        "trace.overhead_s": traced - statistics.median(untraced),
        "trace.unaccounted_s": traced - sum(own),
    })
    tr.write(OUT / f"{workload}.spans.tsv.gz")
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    return tally, metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("yield"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith("atoms"):
        return "atoms"
    if "depth" in name or "length" in name:
        return "steps"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dsekit" / "cli.py").is_file():
        print(f"no dsekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    log = SpeedLog()
    with log:
        cli, ops, setup = set_up(args.workload, args.seed, log)
    gc.collect()
    gc.freeze()
    if args.trace:
        tally, metrics = traced_run(cli, ops, args.seconds, args.workload)
    else:
        with log:
            tally = timed_run(cli, ops, args.seconds, log)
        metrics = end_to_end_metrics(tally, setup, log)
        save_record(OUT / f"{args.workload}-seed{args.seed}.json",
                    tally, setup, log)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
