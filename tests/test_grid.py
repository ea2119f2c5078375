"""Operands on different grids against the Fraction membership oracle.

Every set and map stores grid numerators over its own denominator, and an
operation on two grids lifts both to the lcm.  These tests draw operands
whose denominators come from {2^k, 3, 5, 7, 12}, so most pairs disagree,
and check each operation point by point at the midpoints of the common
grid, where membership and map values are unambiguous.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (Atom, GraphMultiset, IntervalSet, PartialMap, compose,
                    glue)
from dsekit.errors import OverlapError

DENOMINATORS = (2, 4, 8, 16, 3, 5, 7, 12)

denominators = st.sampled_from(DENOMINATORS)


@st.composite
def grid_sets(draw):
    """A set of random cells of one grid 1/q."""
    q = draw(denominators)
    cells = draw(st.lists(st.booleans(), min_size=q, max_size=q))
    return q, IntervalSet((F(k, q), F(k + 1, q))
                          for k, on in enumerate(cells) if on)


@st.composite
def grid_maps(draw):
    """A partial permutation of the cells of one grid 1/q, some of them
    reflected."""
    q = draw(denominators)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    targets = list(range(q))
    rng.shuffle(targets)
    atoms = []
    for j, i in enumerate(targets):
        if rng.random() < 0.3:
            continue
        if rng.random() < 0.3:
            atoms.append(Atom(F(j, q), F(j + 1, q), -1, F(i + j + 1, q)))
        else:
            atoms.append(Atom(F(j, q), F(j + 1, q), 1, F(i - j, q)))
    return q, PartialMap(atoms)


def midpoints(*qs):
    n = lcm(*qs)
    return [F(2 * k + 1, 2 * n) for k in range(n)]


def member(s: IntervalSet, x) -> bool:
    return any(lo <= x < hi for lo, hi in s.pairs)


def assert_canonical(s: IntervalSet):
    pairs = s.pairs
    for lo, hi in pairs:
        assert 0 <= lo < hi <= 1
    for (_, prev_hi), (lo, _) in zip(pairs, pairs[1:]):
        assert prev_hi < lo


def assert_lifts(x):
    """x lifted to a multiple of its grid equals, and hashes like, x; on
    its own grid it is x itself."""
    assert x._lift(x._d) is x
    for k in (2, 3):
        y = x._lift(k * x._d)
        assert y._d == k * x._d
        assert y == x and x == y and hash(y) == hash(x)


def assert_same_on_a_fresh_grid(x):
    """x equals, and hashes like, its copy rebuilt from its read-outs, which
    sits on the grid of its own endpoints; x and its atoms lift."""
    if isinstance(x, IntervalSet):
        copy = IntervalSet(x.pairs)
    else:
        copy = PartialMap(Atom(a.lo, a.hi, a.slope, a.offset) for a in x.atoms)
        for a in x.atoms:
            assert_lifts(a)
    assert copy == x and x == copy
    assert hash(copy) == hash(x)
    assert_lifts(x)


@settings(max_examples=120, deadline=None)
@given(grid_sets(), grid_sets())
def test_set_ops_on_two_grids_match_membership_oracle(a, b):
    (qa, a), (qb, b) = a, b
    union, inter, diff = a.union(b), a.intersect(b), a.subtract(b)
    for s in (union, inter, diff):
        assert_canonical(s)
        assert_same_on_a_fresh_grid(s)
    points = midpoints(qa, qb)
    for x in points:
        pa, pb = member(a, x), member(b, x)
        assert member(union, x) == (pa or pb)
        assert member(inter, x) == (pa and pb)
        assert member(diff, x) == (pa and not pb)
    width = F(1, 2 * lcm(qa, qb))
    assert inter.measure() == width * 2 * sum(member(inter, x) for x in points)
    assert a.contains(b) == all(member(a, x) for x in points if member(b, x))


@settings(max_examples=120, deadline=None)
@given(grid_maps(), grid_maps(), grid_sets())
def test_map_ops_on_three_grids_match_membership_oracle(f, g, s):
    (qf, f), (qg, g), (qs, s) = f, g, s
    restricted = f.restrict(s)
    pre, img = f.preimage_of(s), f.image_of(s)
    fg = compose(f, g)
    for x in (restricted, pre, img, fg):
        assert_same_on_a_fresh_grid(x)
    for x in midpoints(qf, qg, qs):
        fx = f(x)
        assert restricted(x) == (fx if member(s, x) else None)
        assert member(pre, x) == (fx is not None and member(s, fx))
        back = f.invert()(x)
        assert member(img, x) == (back is not None and member(s, back))
        gx = g(x)
        assert fg(x) == (None if gx is None else f(gx))


@settings(max_examples=120, deadline=None)
@given(grid_maps(), grid_maps(), grid_sets())
def test_maps_keep_their_atoms_in_image_order(f, g, s):
    # preimage_of and compose walk a map's atoms in the image order it keeps
    # from its construction, on every path that builds a map
    (_, f), (_, g), (_, s) = f, g, s
    for m in (f, f.invert(), f.restrict(s), compose(f, g), glue([f]),
              f._lift(3 * f._d)):
        assert m._image_order == sorted(m.atoms, key=lambda a: a.invert().lo)


@st.composite
def supports(draw):
    """A map on one grid 1/q and a multiset on another, 1/r, over the map's
    families.  Each family holds random cells of 1/r (cut to where the
    family's atoms stay in [0, 1)) of multiplicity 1 or 2, so touching cells
    of different multiplicity and gaps between cells both occur; at random
    the map's own atoms of a family are added to its cells, or all of them
    to the whole multiset, so that some maps lie inside it."""
    q, m = draw(grid_maps())
    r = draw(denominators)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    whole = rng.random() < 0.3
    entries = []
    for s, o in sorted({(a.slope, a.offset) for a in m.atoms}):
        if s == 1:
            lo, hi = max(0, -o), min(1, 1 - o)
        else:
            lo, hi = max(0, o - 1), min(1, o)
        for k in range(r):
            clo, chi = max(lo, F(k, r)), min(hi, F(k + 1, r))
            if clo < chi and rng.random() < 0.5:
                entries.append((Atom(clo, chi, s, o), rng.choice((1, 2))))
        if whole or rng.random() < 0.3:
            entries += [(a, 1) for a in m.atoms if (a.slope, a.offset) == (s, o)]
    return lcm(q, r), m, GraphMultiset(entries)


@settings(max_examples=200, deadline=None)
@given(supports())
def test_support_reads_match_membership_oracle(drawn):
    # every endpoint lies on the grid 1/n, so the midpoints of that grid
    # decide both reads: x is in the support when a cell of the family of
    # m's atom at x holds x
    n, m, g = drawn
    cells = dict(g.families())
    clipped = g.clip_to_support(m)
    assert_same_on_a_fresh_grid(clipped)
    inside = []
    for x in midpoints(n):
        a = next((a for a in m.atoms if a.lo <= x < a.hi), None)
        held = a is not None and any(
            lo <= x < hi for lo, hi, _ in cells.get((a.slope, a.offset), ()))
        assert clipped(x) == (m(x) if held else None)
        if a is not None:
            inside.append(held)
    assert g.contains_graph(m) == all(inside)
    assert g.contains_graph(clipped)


@settings(max_examples=60, deadline=None)
@given(grid_maps(), grid_maps())
def test_multisets_on_two_grids_compare_by_value(f, g):
    (_, f), (_, g) = f, g
    m = GraphMultiset.from_maps([f, g])
    rebuilt = GraphMultiset((Atom(lo, hi, *key), mult)
                            for key, cells in m.families()
                            for lo, hi, mult in cells)
    assert rebuilt == m and hash(rebuilt) == hash(m)
    assert_lifts(m)
    assert m.subtract(GraphMultiset.from_maps([g])) == \
        GraphMultiset.from_maps([f])
    assert m.mass() == f.domain.measure() + g.domain.measure()
    assert glue([f]) == f


def test_public_constructors_take_no_grid():
    # numerators over a grid are read only by the private constructors, so
    # a public caller cannot pass values that are off the grid they name
    with pytest.raises(TypeError):
        Atom(0, F(1, 2), 1, 0, 3)
    with pytest.raises(TypeError):
        PartialMap([Atom(0, F(1, 2), 1, 0)], 3)
    f = PartialMap([Atom(0, F(1, 2), 1, 0), Atom(F(2, 3), F(5, 6), 1, F(1, 7))])
    assert f.domain.pairs == ((0, F(1, 2)), (F(2, 3), F(5, 6)))
    assert [(a.lo, a.hi, a.offset) for a in f.atoms] == [
        (0, F(1, 2), 0), (F(2, 3), F(5, 6), F(1, 7))]
    # the grid constructors reject what the public ones reject
    with pytest.raises(ValueError, match="leaves"):
        Atom(F(1, 2), 1, 1, F(1, 4))
    with pytest.raises(ValueError, match="leaves"):
        Atom._new(2, 4, 1, 1, 4)
    with pytest.raises(OverlapError, match="sources overlap"):
        PartialMap([Atom(0, F(1, 2), 1, 0), Atom(F(1, 4), F(3, 4), 1, 0)])
    with pytest.raises(OverlapError, match="sources overlap"):
        PartialMap._new([Atom._new(0, 2, 1, 0, 4), Atom._new(1, 3, 1, 0, 4)], 4)
