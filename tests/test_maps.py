from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (Atom, IntervalSet, PartialMap, compose, glue,
                    greedy_maximal_map, identity_map, monotone_pairing)
from dsekit.errors import OverlapError
from dsekit.gallery import counterexample, forest_example

from oracles import (_reference_image, reference_compose,
                     reference_greedy_maximal_map,
                     reference_image_of, reference_partial_map,
                     reference_preimage_of, reference_restrict)

iv = IntervalSet.interval


def reflection():
    return PartialMap([Atom(0, 1, -1, 1)])


def test_apply_identity():
    assert identity_map().apply(F(1, 3)) == F(1, 3)


def test_apply_shift_atom():
    m = PartialMap([Atom(0, F(1, 2), 1, F(1, 2))])
    assert m.apply(F(1, 4)) == F(3, 4)
    assert m.apply(F(3, 4)) is None


def test_apply_reflection():
    assert reflection().apply(F(1, 4)) == F(3, 4)


def test_invert_shift_atom():
    m = PartialMap([Atom(0, F(1, 2), 1, F(1, 2))])
    assert m.invert() == PartialMap([Atom(F(1, 2), 1, 1, F(-1, 2))])


def test_reflection_is_involution():
    r = reflection()
    assert r.invert() == r
    assert compose(r, r) == identity_map()


def test_invert_invert_roundtrip():
    m = PartialMap([Atom(0, F(1, 8), 1, F(1, 2)),
                    Atom(F(1, 4), F(3, 8), -1, F(3, 8)),
                    Atom(F(1, 2), F(3, 4), 1, F(-1, 4))])
    assert m.invert().invert() == m
    # composing with the inverse gives the identity on the domain
    back = compose(m.invert(), m)
    assert back == identity_map().restrict(m.domain)


def test_compose_identity_neutral():
    m = PartialMap([Atom(0, F(1, 2), 1, F(1, 2))])
    assert compose(identity_map(), m) == m
    assert compose(m, identity_map()) == m


def test_compose_forest_pieces():
    # flipping everything and then the right half shifts (1/2,3/4) down by 1/4
    phi1, phi2 = forest_example(3)
    comp = compose(phi2, phi1)
    piece = comp.restrict(iv(F(1, 2), F(3, 4)))
    assert piece == PartialMap([Atom(F(1, 2), F(3, 4), 1, F(-1, 4))])
    for x in (F(33, 64), F(9, 16), F(5, 8), F(43, 64), F(47, 64)):
        assert comp.apply(x) == x - F(1, 4)


def test_image_and_preimage():
    m = PartialMap([Atom(0, F(1, 2), 1, F(1, 2))])
    assert identity_map().image_of(iv(0, F(1, 4))) == iv(0, F(1, 4))
    assert m.image_of(iv(0, F(1, 4))) == iv(F(1, 2), F(3, 4))
    assert m.preimage_of(iv(F(1, 2), F(3, 4))) == iv(0, F(1, 4))


def test_image_of_reflection_reorients():
    r = reflection()
    assert r.image_of(iv(0, F(1, 4))) == iv(F(3, 4), 1)


def test_restrict():
    half = identity_map().restrict(iv(0, F(1, 2)))
    assert half == PartialMap([Atom(0, F(1, 2), 1, 0)])
    assert half.domain == iv(0, F(1, 2))


def test_glue_contraction_family():
    # the psi^1 family of the truncated element glues into one map
    ce = counterexample(4)
    family = [ce.maps[2 + 2 * n] for n in range(4)]
    glued = glue(family)
    assert glued.domain.measure() == sum(m.domain.measure() for m in family)
    assert iv(0, F(1, 2)).contains(glued.image)


def test_glue_overlap_raises():
    a = PartialMap([Atom(0, F(1, 2), 1, F(1, 2))])
    b = PartialMap([Atom(F(1, 2), 1, 1, 0)])
    with pytest.raises(OverlapError):
        glue([a, b])  # images both cover [1/2,1)


def test_monotone_pairing_needs_equal_measures():
    with pytest.raises(ValueError) as exc:
        monotone_pairing(iv(0, F(1, 2)), iv(F(1, 2), F(3, 4)))
    assert str(exc.value) == "monotone pairing needs equal measures"


def test_overlapping_sources_rejected():
    with pytest.raises(OverlapError):
        PartialMap([Atom(0, F(1, 2), 1, 0), Atom(F(1, 4), F(3, 4), 1, F(1, 4))])


levels = st.integers(min_value=0, max_value=15)


@st.composite
def cell_maps(draw):
    import random
    seed = draw(st.integers(0, 10 ** 9))
    rng = random.Random(seed)
    from conftest import random_cell_map
    return random_cell_map(rng, 3, reflections=True)


@settings(max_examples=60)
@given(cell_maps())
def test_measure_preservation(m):
    assert m.domain.measure() == m.image.measure()


@settings(max_examples=60)
@given(cell_maps())
def test_inverse_composition_is_identity(m):
    assert compose(m.invert(), m) == identity_map().restrict(m.domain)


@settings(max_examples=40)
@given(cell_maps(), st.integers(0, 7), st.integers(0, 7))
def test_image_distributes_over_union(m, i, j):
    a = iv(F(i, 8), F(i + 1, 8))
    b = iv(F(j, 8), F(j + 1, 8))
    lhs = m.image_of(a.union(b))
    assert lhs == m.image_of(a).union(m.image_of(b))


# -- the transport rule on partial maps with reflections ---------------------


@st.composite
def partial_maps(draw):
    """Some cells of a non-dyadic grid carried to other cells, a third of
    them reversed, so offsets such as 2/7 or 4/9 appear."""
    cells = draw(st.sampled_from([3, 5, 7, 9, 12]))
    sources = draw(st.lists(st.integers(0, cells - 1), unique=True,
                            max_size=cells))
    targets = draw(st.permutations(range(cells)))
    atoms = []
    for j, i in zip(sources, targets):
        if draw(st.integers(0, 2)) == 0:
            atoms.append(Atom(F(j, cells), F(j + 1, cells), -1,
                              F(i + j + 1, cells)))
        else:
            atoms.append(Atom(F(j, cells), F(j + 1, cells), 1,
                              F(i - j, cells)))
    return PartialMap(atoms)


@st.composite
def grid_sets(draw):
    """Runs of a random bitmap of 1/11 cells, which cut the map's cells."""
    bits = draw(st.lists(st.booleans(), min_size=11, max_size=11))
    return IntervalSet((F(k, 11), F(k + 1, 11))
                       for k, on in enumerate(bits) if on)


@settings(max_examples=80)
@given(partial_maps(), grid_sets())
def test_transport_rule(m, s):
    assert m.restrict(m.preimage_of(s)).image == m.image.intersect(s)
    assert m.preimage_of(s) == m.invert().image_of(s)
    for a in m.atoms:
        b = a.invert()
        assert (b.lo, b.hi) == _reference_image(a)
        assert _reference_image(b) == (a.lo, a.hi)
        assert b.invert() == a


# -- the windowed operations against the clip-every-atom oracle ---------------


@st.composite
def spread_sets(draw):
    """Up to four intervals on a grid of 2..30 cells, the empty set
    included, so they fall before, after, between and across the atoms."""
    cells = draw(st.integers(2, 30))
    ends = draw(st.lists(st.integers(0, cells), max_size=8, unique=True))
    ends.sort()
    return IntervalSet((F(lo, cells), F(hi, cells))
                       for lo, hi in zip(ends[::2], ends[1::2]))


def assert_windowed_ops_match_oracle(m, s):
    restricted = m.restrict(s)
    expected = reference_restrict(m, s)
    assert restricted.atoms == expected.atoms
    assert (restricted.domain, restricted.image) == (expected.domain,
                                                     expected.image)
    assert m.image_of(s) == reference_image_of(m, s)
    assert m.preimage_of(s) == reference_preimage_of(m, s)


@settings(max_examples=150)
@given(partial_maps(), spread_sets())
def test_windowed_ops_match_clipping_every_atom(m, s):
    assert_windowed_ops_match_oracle(m, s)


@settings(max_examples=40)
@given(cell_maps(), spread_sets())
def test_windowed_ops_match_oracle_on_dyadic_cells(m, s):
    assert_windowed_ops_match_oracle(m, s)


@pytest.mark.parametrize("s", [
    IntervalSet(), iv(0, F(1, 8)), iv(F(7, 8), 1), iv(F(3, 8), F(5, 8)),
    IntervalSet([(0, F(1, 16)), (F(3, 8), F(1, 2)), (F(15, 16), 1)]),
    iv(F(1, 4), F(3, 4)), iv(0, 1),
], ids=["empty", "before", "after", "between", "three-gaps", "across",
        "full"])
def test_windowed_ops_on_sets_around_the_atoms(s):
    """Atoms on [1/4, 3/8) and [5/8, 3/4), one reversed: the sets miss them,
    touch their ends or cover them."""
    m = PartialMap([Atom(F(1, 4), F(3, 8), -1, F(7, 8)),
                    Atom(F(5, 8), F(3, 4), 1, F(1, 8))])
    assert_windowed_ops_match_oracle(m, s)
    assert_windowed_ops_match_oracle(m.invert(), s)


@settings(max_examples=80)
@given(partial_maps(), partial_maps())
def test_compose_and_graph_intersect_match_all_pairs(f, g):
    assert compose(f, g) == reference_compose(f, g)


@settings(max_examples=40)
@given(partial_maps(), spread_sets())
def test_image_index_leaves_equality_and_hash(m, s):
    twin = PartialMap(m.atoms)
    before = hash(m)
    m.restrict(m.preimage_of(s))
    assert m == twin and twin == m
    assert hash(m) == before == hash(twin)


# -- the greedy kernel against the restrict route -----------------------------


@st.composite
def set_kinds(draw):
    """An empty, full, sparse (up to three intervals) or dense (a random
    bitmap of cells) set, on a grid of 4 to 60 cells."""
    kind = draw(st.sampled_from(["empty", "full", "sparse", "dense"]))
    if kind in ("empty", "full"):
        return IntervalSet() if kind == "empty" else iv(0, 1)
    cells = draw(st.sampled_from([4, 6, 11, 30, 60]))
    if kind == "sparse":
        ends = sorted(draw(st.lists(st.integers(0, cells), max_size=6,
                                    unique=True)))
        return IntervalSet((F(lo, cells), F(hi, cells))
                           for lo, hi in zip(ends[::2], ends[1::2]))
    bits = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
    return IntervalSet((F(k, cells), F(k + 1, cells))
                       for k, on in enumerate(bits) if on)


@st.composite
def endpoint_sets(draw, maps):
    """A ``set_kinds`` set plus up to four intervals cut at the maps' own
    source and image endpoints: an atom's source or image exactly, its
    middle half, a stretch ending where it starts or starting where it
    ends, or a span from the middle of one to the middle of another.
    Images then lie on, inside, across or next to the intervals, and taken
    sources split an interval at either end or in the middle.  Each
    interval reads one atom, so later maps are often on other grids."""
    spans = [span for m in maps for a in m.atoms
             for span in ((a.lo, a.hi), _reference_image(a))]
    pairs = list(draw(set_kinds()).pairs)
    for _ in range(draw(st.integers(0, 4)) if spans else 0):
        lo, hi = draw(st.sampled_from(spans))
        q = (hi - lo) / 4
        kind = draw(st.sampled_from(["on", "inside", "before", "after",
                                     "across"]))
        if kind == "on":
            pairs.append((lo, hi))
        elif kind == "inside":
            pairs.append((lo + q, hi - q))
        elif kind == "before":
            pairs.append((lo - min(lo, q), lo))
        elif kind == "after":
            pairs.append((hi, hi + min(1 - hi, q)))
        else:
            other = sum(draw(st.sampled_from(spans))) / 2
            pairs.append(tuple(sorted(((lo + hi) / 2, other))))
    return IntervalSet(pairs)


@st.composite
def greedy_cases(draw):
    """One to four maps, then ``allowed`` and ``forbidden``, each a
    ``set_kinds`` set or an ``endpoint_sets`` set of those maps."""
    maps = draw(st.lists(st.one_of(partial_maps(), cell_maps()), min_size=1,
                         max_size=4))
    sets = st.one_of(set_kinds(), endpoint_sets(maps))
    return maps, draw(sets), draw(sets)


@settings(max_examples=400, deadline=None)
@given(greedy_cases())
def test_greedy_kernel_matches_the_restrict_route(case):
    """One to four multi-atom maps with reflections, on non-dyadic grids or
    on 1/8 cells, against sets on grids of 4 to 60 cells or cut at the
    maps' own endpoints: the kernel's piece is the one the restrict route
    of the reference takes, with the same domain and image, and a one-shot
    iterator of the maps suffices."""
    maps, allowed, forbidden = case
    got = greedy_maximal_map(iter(maps), allowed, forbidden)
    want = reference_greedy_maximal_map(maps, allowed, forbidden)
    assert got == want
    assert (got.domain, got.image) == (want.domain, want.image)


# -- the one-pass constructor against the two-merge route ---------------------

GRID = 32


def grid_atom(lo, hi, slope, at):
    """The atom of slope ``slope`` on the 32nds [lo, hi) whose image starts
    at ``at``."""
    return Atom._new(lo, hi, slope, at - lo if slope == 1 else at + hi, GRID)


@st.composite
def atom_lists(draw):
    """Touching source segments of the grid, some dropped, whose images are
    laid out in a drawn order with drawn gaps and slopes, plus up to two
    free atoms that may overlap anything; all in a drawn order."""
    cuts = sorted(draw(st.sets(st.integers(0, GRID), max_size=9)))
    segs = [seg for seg in zip(cuts, cuts[1:]) if draw(st.booleans())]
    room, at, atoms = GRID - sum(hi - lo for lo, hi in segs), 0, []
    for lo, hi in draw(st.permutations(segs)):
        gap = draw(st.integers(0, room))
        room, at = room - gap, at + gap
        atoms.append(grid_atom(lo, hi, draw(st.sampled_from((1, -1))), at))
        at += hi - lo
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(st.integers(0, GRID - 1))
        hi = draw(st.integers(lo + 1, GRID))
        atoms.append(grid_atom(lo, hi, draw(st.sampled_from((1, -1))),
                               draw(st.integers(0, GRID - hi + lo))))
    return draw(st.permutations(atoms))


def built(atoms) -> tuple:
    """The grid fields of ``PartialMap._new(atoms, GRID)``, or its error."""
    try:
        m = PartialMap._new(atoms, GRID)
    except OverlapError as e:
        return type(e), str(e)
    assert (m._d, m.domain._d, m.image._d) == (GRID,) * 3
    return m.atoms, m.domain._iv, m.image._iv


def reference_built(atoms) -> tuple:
    try:
        return reference_partial_map(atoms, GRID)
    except OverlapError as e:
        return type(e), str(e)


CONSTRUCTOR_CASES = {
    "no atom": ([], ((), (), ())),
    "one atom": (
        [grid_atom(3, 9, 1, 20)],
        ((grid_atom(3, 9, 1, 20),), ((3, 9),), ((20, 26),))),
    "one reflection atom": (
        [grid_atom(0, 5, -1, 27)],
        ((grid_atom(0, 5, -1, 27),), ((0, 5),), ((27, 32),))),
    # three atoms of one family make one, closed where the next family starts
    "a run of three, then a touching atom of another family": (
        [grid_atom(2, 5, 1, 10), grid_atom(6, 8, -1, 0),
         grid_atom(0, 2, 1, 8), grid_atom(5, 6, 1, 13)],
        ((grid_atom(0, 6, 1, 8), grid_atom(6, 8, -1, 0)), ((0, 8),),
         ((0, 2), (8, 14)))),
    # runs closed by a gap and by the last atom
    "runs before a gap and at the end": (
        [grid_atom(12, 16, 1, 22), grid_atom(2, 4, 1, 10),
         grid_atom(10, 12, 1, 20), grid_atom(0, 2, 1, 8)],
        ((grid_atom(0, 4, 1, 8), grid_atom(10, 16, 1, 20)),
         ((0, 4), (10, 16)), ((8, 12), (20, 26)))),
    # 6-7 lies inside the run 0-8, past the end of the first atom kept
    "a source overlapping a merged run": (
        [grid_atom(0, 4, 1, 8), grid_atom(4, 8, 1, 12),
         grid_atom(6, 7, 1, 0)],
        (OverlapError, "sources overlap at 3/16")),
    # 0-4 and 4-8 both shift by 8: one atom
    "same family neighbours merge": (
        [grid_atom(4, 8, 1, 12), grid_atom(0, 4, 1, 8)],
        ((grid_atom(0, 8, 1, 8),), ((0, 8),), ((8, 16),))),
    # one domain interval, two atoms, two image intervals
    "touching atoms of different families": (
        [grid_atom(0, 4, 1, 8), grid_atom(4, 8, -1, 20)],
        ((grid_atom(0, 4, 1, 8), grid_atom(4, 8, -1, 20)), ((0, 8),),
         ((8, 12), (20, 24)))),
    # one offset, opposite slopes: still two families
    "touching atoms of one offset and opposite slopes": (
        [grid_atom(4, 8, -1, 0), grid_atom(0, 4, 1, 8)],
        ((grid_atom(0, 4, 1, 8), grid_atom(4, 8, -1, 0)), ((0, 8),),
         ((0, 4), (8, 12)))),
    # two domain intervals, one image interval
    "touching images": (
        [grid_atom(16, 20, -1, 12), grid_atom(0, 4, 1, 8)],
        ((grid_atom(0, 4, 1, 8), grid_atom(16, 20, -1, 12)),
         ((0, 4), (16, 20)), ((8, 16),))),
    "overlapping sources": (
        [grid_atom(0, 10, 1, 0), grid_atom(4, 6, 1, 20),
         grid_atom(2, 3, 1, 24)],
        (OverlapError, "sources overlap at 1/16")),
    "overlapping images": (
        [grid_atom(0, 4, 1, 8), grid_atom(20, 24, 1, 10)],
        (OverlapError, "images overlap (injectivity violated)")),
    "overlapping images of merged neighbours": (
        [grid_atom(0, 2, 1, 8), grid_atom(2, 4, 1, 10),
         grid_atom(8, 9, -1, 9)],
        (OverlapError, "images overlap (injectivity violated)")),
}


@pytest.mark.parametrize("case", CONSTRUCTOR_CASES)
def test_map_constructor_cases(case):
    atoms, expected = CONSTRUCTOR_CASES[case]
    assert built(atoms) == reference_built(atoms) == expected


@settings(max_examples=300, deadline=None)
@given(atom_lists())
def test_map_constructor_matches_the_two_merge_route(atoms):
    assert built(atoms) == reference_built(atoms)
