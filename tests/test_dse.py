import random
from fractions import Fraction as F

import pytest

from dsekit import (DSE, Atom, GraphMultiset, IntervalSet, PartialMap,
                    associated_matrix, distance, equivalent, identity_map,
                    inverse, is_symmetric, neighbor_set, normalize_cover,
                    symmetrize, validate)
from dsekit.errors import InvalidDSE, MultiplicityMismatch, NotDoublyStochastic
from dsekit.gallery import counterexample

from conftest import half_shift, random_cell_dse, random_interval_set
from oracles import brute_distance

iv = IntervalSet.interval


def test_validate_identity():
    report = validate(DSE([identity_map()], 1))
    assert report.ok
    assert report.domain_cells == ((F(0), F(1), 1),)


def test_validate_counterexample():
    # hand-checked coverage of the k=2 truncation at multiplicity 2
    assert validate(counterexample(2)).ok


def test_validate_failure_lists_cells():
    bad = DSE([identity_map(), identity_map().restrict(iv(0, F(1, 2)))], 2)
    with pytest.raises(InvalidDSE) as exc:
        validate(bad)
    assert exc.value.bad_domain_cells == ((F(1, 2), F(1), 1),)
    report = validate(bad, raise_on_fail=False)
    assert not report.ok


def test_associated_matrix_identity():
    m = associated_matrix(DSE([identity_map()], 1))
    assert m == GraphMultiset([(Atom(0, 1, 1, 0), 1)])


def test_associated_matrix_doubling():
    t = half_shift()
    m = associated_matrix(DSE([t, t], 2))
    assert list(m.families()) == [
        ((1, F(-1, 2)), ((F(1, 2), F(1), 2),)),
        ((1, F(1, 2)), ((F(0), F(1, 2), 2),)),
    ]


def test_counterexample_total_mass():
    assert associated_matrix(counterexample(2)).mass() == 2


def test_distance_zero_on_self():
    ce = counterexample(3)
    assert distance(ce, ce) == 0


def test_distance_identity_vs_shift():
    i = identity_map()
    assert distance(DSE([i, i], 2), DSE([i, half_shift()], 2)) == 2


def test_distance_multiplicity_mismatch():
    with pytest.raises(MultiplicityMismatch):
        distance(DSE([identity_map()], 1), counterexample(1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_truncation_distance_against_oracle(k):
    a, b = counterexample(k), counterexample(k + 1)
    got = distance(a, b)
    assert got == brute_distance(a, b) == F(1, 2 ** k)


def test_distance_is_a_metric_on_random_triples(rng):
    for _ in range(12):
        a = random_cell_dse(rng, 3, 2)
        b = random_cell_dse(rng, 3, 2)
        c = random_cell_dse(rng, 3, 2)
        assert distance(a, b) == distance(b, a) == brute_distance(a, b)
        assert distance(a, c) <= distance(a, b) + distance(b, c)
        assert (distance(a, b) == 0) == equivalent(a, b)


def test_symmetrize_and_is_symmetric():
    s = symmetrize(DSE([half_shift()], 1))
    assert s.multiplicity == 2
    assert is_symmetric(s)


def test_inverse_involution():
    ce = counterexample(2)
    assert equivalent(inverse(inverse(ce)), ce)


def test_counterexample_not_symmetric():
    assert not is_symmetric(counterexample(2))


def test_neighbor_set_empty():
    from dsekit import EMPTY
    assert neighbor_set(counterexample(2), EMPTY).is_empty()


def test_neighbor_set_counterexample():
    n = neighbor_set(counterexample(2), iv(F(1, 2), 1))
    assert n == iv(F(1, 4), 1)
    assert n.measure() >= F(1, 2)


def test_neighbor_set_full():
    from dsekit import FULL
    assert neighbor_set(counterexample(3), FULL) == FULL


def test_hall_inequality_on_random_sets(rng):
    ce = counterexample(3)
    for _ in range(50):
        c = random_interval_set(rng, 5)
        assert neighbor_set(ce, c).measure() >= c.measure()


def test_normalize_cover_doubled_identity():
    m = GraphMultiset([(Atom(0, 1, 1, 0), 2)])
    d = normalize_cover(m, 2)
    assert validate(d).ok
    assert d == DSE([identity_map(), identity_map()], 2)


def test_normalize_cover_roundtrip():
    ce = counterexample(3)
    again = normalize_cover(associated_matrix(ce), 2)
    assert validate(again).ok
    assert equivalent(again, ce)


def test_normalize_cover_roundtrip_with_reflections(rng):
    d = random_cell_dse(rng, 3, 3, reflections=True)
    again = normalize_cover(associated_matrix(d), 3)
    assert validate(again).ok
    assert equivalent(again, d)


def test_normalize_cover_rejects_uneven_mass():
    m = GraphMultiset([(Atom(0, 1, 1, 0), 1),
                       (Atom(0, F(1, 2), 1, F(1, 2)), 1)])
    with pytest.raises(NotDoublyStochastic):
        normalize_cover(m, 2)


def test_dse_equality_is_equivalence():
    t = half_shift()
    split = PartialMap([Atom(0, F(1, 4), 1, F(1, 2))])
    rest = PartialMap([Atom(F(1, 4), F(1, 2), 1, F(1, 2)),
                       Atom(F(1, 2), 1, 1, F(-1, 2))])
    assert DSE([t], 1) == DSE([split, rest], 1)


def test_multiset_flip_involution(rng):
    m = associated_matrix(random_cell_dse(rng, 3, 2, reflections=True))
    assert m.flip().flip() == m
    assert m.flip().mass() == m.mass()


def test_multiset_contains_graph_needs_the_whole_atom():
    # family (1, 0) on [0, 1/4) + [1/2, 3/4) with a gap between; one
    # reflection family on [3/4, 1)
    g = GraphMultiset([(Atom(0, F(1, 4), 1, 0), 1),
                       (Atom(F(1, 2), F(3, 4), 1, 0), 2),
                       (Atom(F(3, 4), 1, -1, F(7, 4)), 1)])
    assert g.contains_graph(PartialMap([Atom(F(1, 8), F(1, 4), 1, 0),
                                        Atom(F(3, 4), F(7, 8), -1, F(7, 4))]))
    assert not g.contains_graph(PartialMap([Atom(0, F(3, 4), 1, 0)]))
    assert not g.contains_graph(PartialMap([Atom(F(1, 2), 1, 1, 0)]))
    assert not g.contains_graph(PartialMap([Atom(0, F(1, 4), 1, F(1, 2))]))
