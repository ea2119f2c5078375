import hashlib
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

from dsekit import (DSE, FULL, Atom, IntervalSet, PartialMap, almost_decompose,
                    complete_to_automorphism, distance, identity_map, peel,
                    validate)
from dsekit import decompose as decompose_mod
from dsekit import serialize as ser
from dsekit.decompose import pair_profiles
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


def test_complete_to_automorphism_checks_fullness(monkeypatch):
    # the completion is full by construction; a map that is not is a defect
    monkeypatch.setattr(decompose_mod, "monotone_pairing",
                        lambda src, dst: PartialMap())
    with pytest.raises(BoundViolated, match="whole interval"):
        complete_to_automorphism(identity_map().restrict(iv(0, F(1, 2))))


def test_pair_profiles_needs_equal_total_mass():
    with pytest.raises(ValueError) as exc:
        pair_profiles(((0, 1, 1),), ((0, 2, 1),), 4)
    assert str(exc.value) == "profiles carry different total mass"


def test_pair_profiles_reproduces_masses():
    # profiles of grid numerators over d = 4
    src = ((0, 1, 2), (2, 3, 1))
    dst = ((1, 2, 1), (3, 4, 2))
    g = pair_profiles(src, dst, 4)
    assert g._d == 4
    rows, cols = g._degree(False), g._degree(True)
    assert tuple(c for c in rows if c[2]) == src
    assert tuple(c for c in cols if c[2]) == dst
    # the full steps, cells of level zero included, pair the same way
    assert pair_profiles(rows, cols, 4) == g


def test_peel_doubled_identity():
    d = DSE([identity_map(), identity_map()], 2)
    auto, rest, bound = peel(d, F(1, 4))
    assert bound == 0
    assert auto == identity_map()
    assert rest == DSE([identity_map()], 1)


def test_peel_symmetrized_shift():
    t = half_shift()
    d = DSE([t, t.invert()], 2)
    auto, rest, bound = peel(d, F(1, 4))
    assert bound == 0
    assert auto == t
    assert rest == DSE([t.invert()], 1)


def test_peel_counterexample():
    ce = counterexample(4)
    auto, rest, bound = peel(ce, F(1, 8))
    assert validate(rest).ok and rest.multiplicity == 1
    assert auto.domain == FULL and auto.image == FULL
    recomputed = distance(ce, DSE(rest.maps + (auto,), 2))
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
        assert isinstance(auto, PartialMap)
        assert auto.domain == FULL and auto.image == FULL
        assert validate(DSE([auto], 1)).ok


def test_decomposition_as_dse_validates():
    dec = almost_decompose(counterexample(3), F(1, 4))
    assert validate(DSE(dec.automorphisms, len(dec.automorphisms))).ok


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


def test_many_peels_do_not_hit_the_recursion_limit():
    """The peels run in a loop: 200 copies of the identity decompose under
    a recursion limit of 150, each an identity."""
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from dsekit import DSE, almost_decompose, identity_map
        sys.setrecursionlimit(150)
        dec = almost_decompose(DSE([identity_map()] * 200, 200),
                               Fraction(1, 16))
        ok = (len(dec.automorphisms) == 200 and dec.achieved_distance == 0
              and all(a == identity_map() for a in dec.automorphisms))
        sys.exit(0 if ok else 5)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# sha256 of the sorted-key JSON of almost_decompose(counterexample(32), 1/16),
# taken before the map operations were windowed
CE32_AUTOMORPHISMS_SHA256 = (
    "e63f56077e98312d132efe1004afe90a65d06284796244f43343dbf17ee8b72e")


def test_counterexample_32_automorphisms_are_pinned():
    result = almost_decompose(counterexample(32), F(1, 16))
    maps = result.automorphisms
    blob = json.dumps(ser.dse_to_json(DSE(maps, len(maps))), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == CE32_AUTOMORPHISMS_SHA256
