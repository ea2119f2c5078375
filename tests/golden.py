"""Golden artifacts: a fixed list of ``cli.main`` calls and their hashes.

Each call runs in-process in a scratch working directory on relative paths,
so reports carry no machine paths.  For every call the manifest
``golden.json`` holds the exit code, the sha256 of the report without
``wall_time_seconds`` and, for the commands that write one, the sha256 of
the artifact.  ``tests/test_golden.py`` replays the calls and compares.

Rewriting the manifest is an intended change of output; only running this
file does it::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from dsekit import DSE, discretize, rat, symmetrize
from dsekit import serialize as ser
from dsekit.cli import main
from dsekit.gallery import amplification, counterexample

from conftest import rotation

MANIFEST = Path(__file__).with_name("golden.json")
EPS = "1/16"
ROTATION_PAIRS = (("1/7", "3/11"), ("1/7", "5/13"), ("3/11", "5/13"))
GALLERY = ("counterexample", "forest", "amplification")


def _permutation_sum(size: int) -> list[list[int]]:
    """Sum of the permutations j -> (a*j + b) mod size for three odd a."""
    out = [[0] * size for _ in range(size)]
    for a, b in ((1, 1), (5, 3), (13, 7)):
        for j in range(size):
            out[(a * j + b) % size][j] += 1
    return out


def _write_dse(name: str, d: DSE) -> str:
    Path(name).write_text(json.dumps(ser.dse_to_json(d)))
    return name


def _write_csv(name: str, a: list[list[int]]) -> str:
    Path(name).write_text("\n".join(",".join(map(str, row)) for row in a)
                          + "\n")
    return name


def calls() -> list[tuple[str, list[str]]]:
    """Write the inputs into the current directory; return (name, argv)."""
    out = []
    for k in (3, 4, 5, 7):
        f = _write_dse(f"ce{k}.json", counterexample(k))
        out.append((f"decompose ce{k}",
                    ["decompose", "--in", f, "--eps", EPS,
                     "--out", f"ce{k}-autos.json"]))
    symmetric = [(f"sym-ce{k}", symmetrize(counterexample(k)))
                 for k in range(3, 9)]
    symmetric += [(f"sym-rot-{a}-{b}".replace("/", "_"),
                   symmetrize(DSE([rotation(rat(a)), rotation(rat(b))], 2)))
                  for a, b in ROTATION_PAIRS]
    for name, d in symmetric:
        f = _write_dse(f"{name}.json", d)
        for cmd in ("split", "divide"):
            out.append((f"{cmd} {name}",
                        [cmd, "--in", f, "--eps", EPS,
                         "--out", f"{name}-{cmd}.json"]))
    ce6 = _write_dse("ce6.json", counterexample(6))
    ce7 = _write_dse("ce7.json", counterexample(7))
    out.append(("validate ce6", ["validate", "--in", ce6]))
    out.append(("distance ce6 ce7", ["distance", "--a", ce6, "--b", ce7]))
    perms = _write_csv("perm-sum-64.csv", _permutation_sum(64))
    out.append(("bvn perm-sum-64",
                ["bvn", "--in", perms, "--n", "3", "--decompose"]))
    amp = _write_csv("amp3-level6.csv", discretize(amplification(3)[0], 6))
    out.append(("bvn amp3-level6",
                ["bvn", "--in", amp, "--n", "2", "--decompose"]))
    for name in GALLERY:
        out.append((f"demo {name}", ["demo", "--name", name, "--level", "3"]))
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(work: Path) -> dict[str, dict]:
    """Run every call in ``work`` and return its manifest entries."""
    here = os.getcwd()
    os.chdir(work)
    try:
        entries = {}
        for name, argv in calls():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            report = json.loads(buf.getvalue())
            report.pop("wall_time_seconds", None)
            entry = {"argv": argv, "exit": code,
                     "report": _sha256(json.dumps(report, sort_keys=True)
                                       .encode())}
            if "--out" in argv:
                artifact = Path(argv[argv.index("--out") + 1])
                entry["artifact"] = _sha256(artifact.read_bytes())
            entries[name] = entry
        return entries
    finally:
        os.chdir(here)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = replay(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(manifest)} entries to {MANIFEST}", file=sys.stderr)
