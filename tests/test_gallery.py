from fractions import Fraction as F

import pytest

from dsekit import (DSE, FULL, Atom, IntervalSet, PartialMap,
                    almost_decompose, compose, distance, glue, identity_map,
                    symmetrize, validate)
from dsekit.errors import MassMismatch, OrbitEscapes
from dsekit.gallery import (amplification, counterexample, forest_example,
                            forest_to_dse, orbit_visits_cells)

from conftest import half_shift
from oracles import brute_distance

iv = IntervalSet.interval


@pytest.mark.parametrize("k", [0, -1, 2.0])
def test_truncation_level_must_be_a_positive_integer(k):
    with pytest.raises(ValueError) as exc:
        counterexample(k)
    assert str(exc.value) == "truncation level must be a positive integer"


@pytest.mark.parametrize("k", range(1, 11))
def test_counterexample_validates(k):
    assert validate(counterexample(k)).ok


def test_counterexample_map_count():
    assert len(counterexample(1).maps) == 6


def test_counterexample_level_two_contraction():
    # psi_1^1 acts on (1/4, 3/8) by x - 1/8, landing on (1/8, 1/4)
    ce = counterexample(2)
    psi_11 = ce.maps[4]
    assert psi_11 == PartialMap([Atom(F(1, 4), F(3, 8), 1, F(-1, 8))])
    assert psi_11.image == iv(F(1, 8), F(1, 4))


@pytest.mark.parametrize("k", range(1, 7))
def test_truncation_distance(k):
    a, b = counterexample(k), counterexample(k + 1)
    expected = brute_distance(a, b)
    assert distance(a, b) == expected == F(1, 2 ** k)


def test_forest_values():
    phi1, phi2 = forest_example(1)
    assert phi1.apply(F(1, 4)) == F(3, 4)
    assert phi2.apply(F(5, 8)) == F(7, 8)
    assert phi2.apply(F(3, 4)) == F(3, 4)  # fixed point of the half flip


def test_forest_involutions():
    for level in (1, 3, 5):
        phi1, phi2 = forest_example(level)
        assert compose(phi1, phi1) == identity_map()
        assert compose(phi2, phi2) == identity_map()


def test_forest_composition_value():
    phi1, phi2 = forest_example(3)
    assert compose(phi2, phi1).apply(F(1, 8)) == F(5, 8)


def test_orbit_identity_never_covers():
    assert not orbit_visits_cells(identity_map(), F(1, 4), 1, 10)


def test_orbit_shift_covers_level_one():
    assert orbit_visits_cells(half_shift(), F(1, 4), 1, 4)


def test_orbit_odometer_covers_level_three():
    phi1, phi2 = forest_example(6)
    odometer = compose(phi2, phi1)
    assert orbit_visits_cells(odometer, F(1, 64), 3, 64)


def test_orbit_escape():
    half = identity_map().restrict(iv(0, F(1, 2)))
    with pytest.raises(OrbitEscapes):
        orbit_visits_cells(half, F(3, 4), 1, 3)


def test_amplification_validates():
    amp, _ = amplification(3)
    assert validate(amp).ok and amp.multiplicity == 2


def test_amplification_pastings_are_automorphisms():
    amp, (t1, t2) = amplification(2)
    for t in (t1, t2):
        assert t.domain == FULL and t.image == FULL
    assert distance(amp, DSE([t1, t2], 2)) == 0


def test_amplification_decomposes_exactly():
    amp, _ = amplification(2)
    assert almost_decompose(amp, F(1, 512)).achieved_distance == 0


def packed_shift_pieces():
    t = half_shift()
    return [t.restrict(iv(0, F(1, 2))), t.restrict(iv(F(1, 2), 1))]


def test_forest_to_dse_packed_shift():
    d = forest_to_dse(packed_shift_pieces())
    assert validate(d).ok
    # composing the pair of maps for each piece recovers the shift halves
    rec = glue([compose(d.maps[1].invert(), d.maps[0]),
                compose(d.maps[3].invert(), d.maps[2])])
    assert rec == half_shift()


def test_forest_to_dse_from_forest_pieces():
    phi1, phi2 = forest_example(3)
    pieces = []
    for m in (phi1, phi2):
        for a in m.atoms:
            pivot = a.offset / 2
            pieces.append(PartialMap([Atom(a.lo, pivot, -1, a.offset)]))
    d = forest_to_dse(pieces)
    assert validate(d).ok
    # the recovered composition support equals the forest support
    rec = DSE([compose(d.maps[2 * i + 1].invert(), d.maps[2 * i])
               for i in range(len(pieces))], 1)
    support = rec.matrix.add(rec.matrix.flip())
    forest = DSE([phi1, phi2], 2).matrix
    assert support == forest


def test_forest_to_dse_mass_mismatch():
    with pytest.raises(MassMismatch):
        forest_to_dse(packed_shift_pieces()[:1])


def test_decomposed_forest_is_generated_by_automorphism():
    # exactly decomposable input: the packed shift example
    d = forest_to_dse(packed_shift_pieces())
    dec = almost_decompose(d, F(1, 4))
    assert dec.achieved_distance == 0
    t1, t2 = dec.automorphisms
    gen = compose(t2.invert(), t1)
    line = DSE([gen], 1).matrix
    line = line.add(line.flip())
    target = DSE([half_shift(), half_shift().invert()], 2).matrix
    assert line == target
