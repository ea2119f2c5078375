import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsekit import (DSE, Atom, GraphMultiset, IntervalSet, PartialMap,
                    distance, identity_map, inverse, neighbor_set,
                    normalize_cover, symmetrize, validate)
from dsekit.errors import InvalidDSE, MultiplicityMismatch, NotDoublyStochastic
from dsekit.gallery import counterexample

from conftest import half_shift, random_cell_dse, random_interval_set
from oracles import brute_distance, reference_l1_distance

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


def test_multiplicity_must_be_positive():
    with pytest.raises(ValueError) as exc:
        DSE([identity_map()], 0)
    assert str(exc.value) == "multiplicity must be a positive integer"


def test_associated_matrix_identity():
    m = DSE([identity_map()], 1).matrix
    assert m == GraphMultiset([(Atom(0, 1, 1, 0), 1)])


def test_associated_matrix_doubling():
    t = half_shift()
    m = DSE([t, t], 2).matrix
    assert list(m.families()) == [
        ((1, F(-1, 2)), ((F(1, 2), F(1), 2),)),
        ((1, F(1, 2)), ((F(0), F(1, 2), 2),)),
    ]


def test_counterexample_total_mass():
    assert counterexample(2).matrix.mass() == 2


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
        assert (distance(a, b) == 0) == (a == b)


GRIDS = (3, 4, 6, 8)


def _keys(d: int) -> list[tuple[int, F]]:
    """The families (slope, offset) with offsets on the grid d."""
    return ([(1, F(k, d)) for k in range(-d + 1, d)]
            + [(-1, F(k, d)) for k in range(1, 2 * d)])


def _span(key, d: int) -> tuple[int, int]:
    """The numerators over d of the sources that the family maps into
    [0, 1); the offset's grid must divide d."""
    slope, off = key
    lo, hi = ((max(0, -off), min(1, 1 - off)) if slope == 1
              else (max(0, off - 1), min(1, off)))
    return int(lo * d), int(hi * d)


@st.composite
def atoms_on(draw, key, d, count):
    """count atoms of the family key with sources on the grid d."""
    start, stop = _span(key, d)
    out = []
    for _ in range(count):
        lo = draw(st.integers(start, stop - 1))
        hi = draw(st.integers(lo + 1, stop))
        out.append(Atom(F(lo, d), F(hi, d), *key))
    return out


@st.composite
def element_pairs(draw):
    """Two multiplicity-1 elements of single-atom maps, the first on the
    grid da and the second on db != da, with in every example: a family on
    each side only, one of them with the same atom in two maps; a family on
    both sides with equal atoms, in other orders; and one on both sides
    with different atoms, where one side has an atom whole and the other
    has it cut in two maps, plus 0 to 2 atoms of its own (with none the
    pair is equal up to cutting).  More families of either side's grid,
    reflections among them, may land on one side or on both."""
    da, db = draw(st.permutations(GRIDS))[:2]
    g = gcd(da, db)
    equal_key, cut_key = draw(st.permutations(_keys(g)))[:2]
    only_a = draw(st.sampled_from(
        [k for k in _keys(da) if k not in (equal_key, cut_key)]))
    only_b = draw(st.sampled_from(
        [k for k in _keys(db) if k not in (equal_key, cut_key, only_a)]))
    equal = draw(atoms_on(equal_key, g, draw(st.integers(1, 3))))
    (whole,) = draw(atoms_on(cut_key, g, 1))
    # the side on the finer grid gets the cut, at a point of its grid
    fine = max(da, db)
    lo, hi = int(whole.lo * fine), int(whole.hi * fine)
    at = F(draw(st.integers(lo + 1, hi - 1)), fine)
    cut = [Atom(whole.lo, at, *cut_key), Atom(at, whole.hi, *cut_key)]
    cut += draw(atoms_on(cut_key, fine, draw(st.integers(0, 2))))
    a = equal + draw(atoms_on(only_a, da, 1)) * 2
    b = equal[::-1] + draw(atoms_on(only_b, db, draw(st.integers(1, 2))))
    a, b = (a + [whole], b + cut) if fine == db else (a + cut, b + [whole])
    for side, d, avoid in ((a, da, only_b), (b, db, only_a)):
        free = [k for k in _keys(d) if k not in (equal_key, cut_key, avoid)]
        for key in draw(st.lists(st.sampled_from(free), max_size=3)):
            side += draw(atoms_on(key, d, draw(st.integers(1, 2))))
    return tuple(DSE(draw(st.permutations([PartialMap([t]) for t in side])),
                     1) for side in (a, b))


@settings(max_examples=200, deadline=None)
@given(element_pairs())
def test_distance_from_the_atoms_matches_the_matrix_sweep(pair):
    a, b = pair
    assert distance(a, b) == reference_l1_distance(a.matrix, b.matrix) > 0
    assert distance(b, a) == distance(a, b)


def _apart(pairs) -> bool:
    return all(p[1] <= q[0] for p, q in zip(pairs, pairs[1:]))


def family_cases(a: DSE, b: DSE) -> set:
    """How the distance kernel meets each family of two elements: on one
    side only, with equal sorted source pairs, with pairs apart on each
    side, or stacked on a side; "touching" when pairs apart on each side
    touch on a side."""
    sides = ({}, {})
    for fam, e in zip(sides, (a, b)):
        for m in e.maps:
            for t in m.atoms:
                fam.setdefault((t.slope, t.offset), []).append((t.lo, t.hi))
    cases = set()
    for key in sides[0].keys() | sides[1].keys():
        pa, pb = (sorted(fam.get(key, ())) for fam in sides)
        case = ("one-sided" if not pa or not pb else "equal" if pa == pb
                else "apart" if _apart(pa) and _apart(pb) else "stacked")
        cases.add(case)
        if case == "apart" and any(p[1] == q[0] for s in (pa, pb)
                                   for p, q in zip(s, s[1:])):
            cases.add("touching")
    return cases


@st.composite
def apart_atoms(draw, key, d, touching=False):
    """One or more atoms of the family key on the grid d, pairwise apart
    (touching allowed): drawn segments between drawn cut points, sorted;
    with touching, the first two segments, which touch, are both taken."""
    start, stop = _span(key, d)
    cuts = sorted(draw(st.sets(st.integers(start, stop),
                               min_size=2 + touching)))
    segs = [s for i, s in enumerate(zip(cuts, cuts[1:]))
            if touching and i < 2 or draw(st.booleans())]
    return [Atom(F(lo, d), F(hi, d), *key) for lo, hi in segs or [cuts[:2]]]


def _cell(draw, key, d: int) -> Atom:
    """An atom of the family key on one cell [k/d, (k + 1)/d) of the grid
    d; its own grid is d, as no factor of d above 1 divides k and k + 1."""
    start, stop = _span(key, d)
    k = draw(st.integers(start, stop - 1))
    return Atom(F(k, d), F(k + 1, d), *key)


@st.composite
def family_case_pairs(draw):
    """Two multiplicity-1 elements on two grids da != db whose common grid
    g is at least 2, with a family of each kernel case in every example: a
    family on each side only; one with equal atoms on both sides; one whose
    atoms lie apart on each side and differ between the sides, every other
    atom in a second map so that touching atoms stay two source pairs, two
    of them touching on the side of the finer grid; and one where side a
    stacks two overlapping atoms against one atom of side b.  The other
    maps are single atoms, in drawn order."""
    da, db = draw(st.sampled_from([(p, q) for p in GRIDS for q in GRIDS
                                   if p != q and gcd(p, q) > 1]))
    equal_key, apart_key, stack_key = draw(st.permutations(
        _keys(gcd(da, db))))[:3]
    shared = (equal_key, apart_key, stack_key)
    only_a = draw(st.sampled_from([k for k in _keys(da) if k not in shared]))
    only_b = draw(st.sampled_from([k for k in _keys(db)
                                   if k not in (*shared, only_a)]))
    # the family spans at least two cells of a grid finer than gcd(da, db)
    fine = da if da > gcd(da, db) else db
    apart = [draw(apart_atoms(apart_key, d, d == fine)) for d in (da, db)]
    assume(apart[0] != apart[1])
    apart = [[PartialMap(ts[::2])] + [PartialMap(ts[1::2])] * (len(ts) > 1)
             for ts in apart]
    (whole,) = draw(atoms_on(stack_key, da, 1))
    lo, hi = int(whole.lo * da), int(whole.hi * da)
    start, stop = _span(stack_key, da)
    top_lo = draw(st.integers(start, hi - 1))
    top_hi = draw(st.integers(max(top_lo, lo) + 1, stop))
    equal = draw(atoms_on(equal_key, gcd(da, db), draw(st.integers(1, 3))))
    # a one-sided cell of each grid puts each side on its own grid
    a = equal + [_cell(draw, only_a, da), whole,
                 Atom(F(top_lo, da), F(top_hi, da), *stack_key)]
    a += draw(atoms_on(only_a, da, draw(st.integers(0, 1))))
    b = (equal[::-1] + [_cell(draw, only_b, db)]
         + draw(atoms_on(stack_key, db, 1)))
    return tuple(DSE(draw(st.permutations(ms + [PartialMap([t]) for t in s])),
                     1) for ms, s in zip(apart, (a, b)))


@settings(max_examples=200, deadline=None)
@given(family_case_pairs())
def test_distance_meets_every_family_case_like_the_oracles(pair):
    a, b = pair
    assert a._d != b._d
    assert family_cases(a, b) == {"one-sided", "equal", "apart", "stacked",
                                  "touching"}
    want = brute_distance(a, b)
    assert distance(a, b) == distance(b, a) == want > 0
    assert want == reference_l1_distance(a.matrix, b.matrix)


def test_distance_is_zero_up_to_cutting():
    i, r = identity_map(), PartialMap([Atom(0, 1, -1, 1)])
    halves = [i.restrict(iv(0, F(1, 2))), i.restrict(iv(F(1, 2), 1)),
              r.restrict(iv(0, F(1, 3))), r.restrict(iv(F(1, 3), 1))]
    assert distance(DSE([i, r], 2), DSE(halves, 2)) == 0


def test_distance_builds_no_matrix(monkeypatch):
    from dsekit.serialize import dse_from_json, dse_to_json

    def refuse(self, fields):
        raise AssertionError("distance built a GraphMultiset")

    a, b = (dse_from_json(dse_to_json(counterexample(k))) for k in (3, 4))
    monkeypatch.setattr(GraphMultiset, "_set", refuse)
    assert distance(a, b) == F(1, 8)
    assert a._matrix is None and b._matrix is None


def test_symmetrize_and_is_symmetric():
    s = symmetrize(DSE([half_shift()], 1))
    assert s.multiplicity == 2
    assert s.matrix == s.matrix.flip()


def test_inverse_involution():
    ce = counterexample(2)
    assert inverse(inverse(ce)) == ce


def test_counterexample_not_symmetric():
    m = counterexample(2).matrix
    assert m != m.flip()


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
    again = normalize_cover(ce.matrix, 2)
    assert validate(again).ok
    assert again == ce


def test_normalize_cover_roundtrip_with_reflections(rng):
    d = random_cell_dse(rng, 3, 3, reflections=True)
    again = normalize_cover(d.matrix, 3)
    assert validate(again).ok
    assert again == d


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
    m = random_cell_dse(rng, 3, 2, reflections=True).matrix
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
