import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

from dsekit import (DSE, FULL, Atom, IntervalSet, PartialMap, almost_decompose,
                    complete_to_automorphism, distance, equivalent,
                    identity_map, peel, validate)
from dsekit import decompose as decompose_mod
from dsekit.decompose import Automorphism, pair_profiles
from dsekit.errors import BoundViolated, InvalidDSE, PreconditionViolated
from dsekit.gallery import amplification, counterexample

from conftest import half_shift

iv = IntervalSet.interval


def test_complete_full_piece_is_itself():
    t = half_shift()
    assert complete_to_automorphism(t) == t


def test_complete_identity_half():
    half = identity_map().restrict(iv(0, F(1, 2)))
    assert complete_to_automorphism(half) == identity_map()


def test_complete_shift_half():
    half = PartialMap([Atom(0, F(1, 2), 1, F(1, 2))])
    assert complete_to_automorphism(half) == half_shift()


def test_automorphism_requires_fullness():
    with pytest.raises(ValueError):
        Automorphism(identity_map().restrict(iv(0, F(1, 2))))


def test_pair_profiles_reproduces_masses():
    src = ((F(0), F(1, 4), 2), (F(1, 2), F(3, 4), 1))
    dst = ((F(1, 4), F(1, 2), 1), (F(3, 4), F(1), 2))
    maps = pair_profiles(src, dst)
    from dsekit.intervals import step_sum
    rows = step_sum((lo, hi, 1) for m in maps for lo, hi in m.domain)
    cols = step_sum((lo, hi, 1) for m in maps for lo, hi in m.image)
    assert tuple(c for c in rows if c[2]) == src
    assert tuple(c for c in cols if c[2]) == dst


def test_peel_doubled_identity():
    d = DSE([identity_map(), identity_map()], 2)
    auto, rest, bound = peel(d, F(1, 4))
    assert bound == 0
    assert auto.map == identity_map()
    assert equivalent(rest, DSE([identity_map()], 1))


def test_peel_symmetrized_shift():
    t = half_shift()
    d = DSE([t, t.invert()], 2)
    auto, rest, bound = peel(d, F(1, 4))
    assert bound == 0
    assert auto.map == t
    assert equivalent(rest, DSE([t.invert()], 1))


def test_peel_counterexample():
    ce = counterexample(4)
    auto, rest, bound = peel(ce, F(1, 8))
    assert validate(rest).ok and rest.multiplicity == 1
    assert auto.map.domain == FULL
    recomputed = distance(ce, DSE(rest.maps + (auto.map,), 2))
    assert recomputed <= bound < F(1, 16)


def test_peel_needs_multiplicity_two():
    with pytest.raises(PreconditionViolated):
        peel(DSE([identity_map()], 1), F(1, 2))


def test_almost_decompose_identity():
    dec = almost_decompose(DSE([identity_map()], 1), F(1, 100))
    assert len(dec.automorphisms) == 1
    assert dec.achieved_distance == 0


def test_almost_decompose_amplification_exact():
    amp, _ = amplification(2)
    for eps in (F(2), F(1, 8), F(1, 1024)):
        dec = almost_decompose(amp, eps)
        assert len(dec.automorphisms) == 2
        assert dec.achieved_distance == 0


def test_almost_decompose_counterexample():
    dec = almost_decompose(counterexample(4), F(1, 8))
    assert len(dec.automorphisms) == 2
    assert dec.achieved_distance < F(1, 8)
    for auto in dec.automorphisms:
        assert auto.map.domain == FULL and auto.map.image == FULL
        assert validate(DSE([auto.map], 1)).ok


def test_decomposition_as_dse_validates():
    dec = almost_decompose(counterexample(3), F(1, 4))
    assert validate(dec.as_dse()).ok


def test_peel_diagnostics_record_top_up():
    diag = {}
    peel(counterexample(3), F(1, 8), diagnostics=diag)
    assert "top_up_fired" in diag
    assert diag["top_up_mass"] >= 0


def test_piece_and_extension_serialize():
    import json

    from dsekit import find_extension, FULL, EMPTY, maximal_piece
    from dsekit.serialize import extension_to_json, piece_to_json
    ce = counterexample(2)
    piece = maximal_piece(ce, FULL, EMPTY)
    ext = find_extension(ce, piece, 2)
    blob = json.dumps({"piece": piece_to_json(piece),
                       "extension": extension_to_json(ext)})
    decoded = json.loads(blob)
    assert decoded["extension"]["depth"] == ext.depth
    assert len(decoded["extension"]["sources"]) == ext.depth + 1


def test_almost_decompose_validates_input_first():
    with pytest.raises(InvalidDSE):
        almost_decompose(DSE([identity_map()], 2), F(1, 8))


def test_forced_bound_violation_raises_bound_violated(monkeypatch):
    monkeypatch.setattr(decompose_mod, "distance", lambda a, b: F(1))
    with pytest.raises(BoundViolated, match="peel distance"):
        almost_decompose(counterexample(3), F(1, 8))


def test_bound_checks_survive_optimize_flag():
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        import dsekit.decompose as dec
        from dsekit.errors import BoundViolated
        from dsekit.gallery import counterexample
        if not sys.flags.optimize:
            sys.exit(3)
        dec.distance = lambda a, b: Fraction(1)
        try:
            dec.almost_decompose(counterexample(3), Fraction(1, 8))
        except BoundViolated:
            sys.exit(0)
        sys.exit(4)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
