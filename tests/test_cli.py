import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest

from dsekit import Atom, DSE, PartialMap, distance, identity_map, symmetrize
from dsekit.cli import main
from dsekit.gallery import counterexample
from dsekit import serialize as ser

from conftest import half_shift, random_cell_dse

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
    maps = [ser.map_from_json(m) for m in emitted["automorphisms"]]
    redone = distance(counterexample(3), DSE(maps, 2))
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


def test_bound_violation_is_domain_error(tmp_path, capsys, monkeypatch):
    import dsekit.decompose
    monkeypatch.setattr(dsekit.decompose, "distance", lambda a, b: F(1))
    f = write_dse(tmp_path / "ce.json", counterexample(3))
    code, report = run(capsys, "decompose", "--in", f, "--eps", "1/8",
                       "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert report["error_type"] == "BoundViolated"


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


def test_missing_file_is_io_error(capsys):
    code, report = run(capsys, "validate", "--in", "/nonexistent/x.json")
    assert code == 1


def test_demo_deterministic(capsys):
    code1, rep1 = run(capsys, "demo", "--name", "counterexample", "--level", "3")
    code2, rep2 = run(capsys, "demo", "--name", "counterexample", "--level", "3")
    assert rep1["result"] == rep2["result"]
