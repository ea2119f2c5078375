import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsekit import (DSE, EMPTY_MAP, Atom, Chain, GraphMultiset, IntervalSet,
                    PartialMap, apply_better_path, distance, find_better_path,
                    identity_map, improve_division, initial_division,
                    near_perfect_division, regular_graph_partial_automorphism,
                    symmetric_split, symmetrize, validate)
from dsekit.division import Division, _eliminate_short_paths, _take_by_rows
from dsekit.errors import (AlreadyPerfect, BoundViolated, InvalidPath,
                           NotDoublyStochastic, NotSymmetric,
                           PreconditionViolated, UnsplittableDiagonal)
from dsekit.gallery import counterexample

from conftest import cell_division, half_shift, random_cell_dse, shift
from oracles import reference_take_by_rows

iv = IntervalSet.interval


def sym_shift():
    return symmetrize(DSE([half_shift()], 1))


def test_initial_division_of_symmetrized_shift():
    div = initial_division(sym_shift().matrix)
    assert list(div.oriented.families()) == [
        ((1, F(1, 2)), ((F(0), F(1, 2), 2),))]
    assert div.error == 1
    assert div.p_plus == iv(0, F(1, 2))
    assert div.p_minus == iv(F(1, 2), 1)


def test_initial_division_even_diagonal():
    g = GraphMultiset([(Atom(0, 1, 1, 0), 2)])
    div = initial_division(g)
    assert div.error == 0


def test_initial_division_odd_diagonal():
    with pytest.raises(UnsplittableDiagonal):
        initial_division(GraphMultiset([(Atom(0, 1, 1, 0), 1)]))


def test_initial_division_not_symmetric():
    with pytest.raises(NotSymmetric):
        initial_division(counterexample(2).matrix)


def test_initial_division_needs_constant_row_mass():
    """Twice the identity on [0,1/2) is symmetric, of row mass 2 then 0."""
    g = GraphMultiset([(Atom(0, F(1, 2), 1, 0), 2)])
    with pytest.raises(NotDoublyStochastic) as exc:
        initial_division(g)
    assert str(exc.value) == "row mass is not constant"


def test_division_must_orient_its_base():
    h = GraphMultiset([(Atom(0, F(1, 2), 1, F(1, 2)), 1)])
    with pytest.raises(ValueError) as exc:
        Division(h, h, 1)
    assert str(exc.value) == "oriented part plus its flip is not the base"


def test_initial_division_splits_reflections():
    # both copies of the full reflection sit below the diagonal on [0, 1/2)
    r = PartialMap([Atom(0, 1, -1, 1)])
    g = GraphMultiset.from_maps([r, r])
    div = initial_division(g)
    assert list(div.oriented.families()) == [
        ((-1, F(1)), ((F(0), F(1, 2), 2),))]
    assert div.error == 1


def test_error_bracketing():
    div = initial_division(sym_shift().matrix)
    mu_plus = div.p_plus.measure()
    assert mu_plus <= div.error <= 2 * div.n * mu_plus


def test_find_better_path_perfect_division():
    g = GraphMultiset([(Atom(0, 1, 1, 0), 2)])
    assert find_better_path(initial_division(g), 3) is None


def test_find_better_path_on_symmetrized_shift():
    div = initial_division(sym_shift().matrix)
    path = find_better_path(div, 1)
    assert path is not None and path.length == 1
    assert path.sources[0] == iv(0, F(1, 2))
    assert path.targets[0] == iv(F(1, 2), 1)


def test_apply_better_path_error_identity():
    div = initial_division(sym_shift().matrix)
    path = find_better_path(div, 1)
    out = apply_better_path(div, path)
    assert out.error == div.error - 2 * path.sources[0].measure() == 0


def test_apply_better_path_rejects_empty_and_reuse():
    div = initial_division(sym_shift().matrix)
    path = find_better_path(div, 1)
    out = apply_better_path(div, path)
    with pytest.raises(InvalidPath):
        apply_better_path(out, path)  # edges were flipped away
    with pytest.raises(InvalidPath):
        apply_better_path(div, Chain((EMPTY_MAP,)))


def test_improve_division_bound():
    div = initial_division(sym_shift().matrix)
    improved = improve_division(div)
    assert improved.error == 0 <= 1 - F(1, 8) ** 2


def test_improve_division_already_perfect():
    g = GraphMultiset([(Atom(0, 1, 1, 0), 2)])
    with pytest.raises(AlreadyPerfect):
        improve_division(initial_division(g))


def test_improve_division_random_symmetric(rng):
    base = random_cell_dse(rng, 4, 2)
    g = symmetrize(base).matrix
    div = initial_division(g)
    if div.error == 0:
        return
    err = div.error
    improved = improve_division(div)
    assert err - improved.error >= (err / (7 * div.n ** 3 + err)) ** 2


def test_near_perfect_division_counterexample():
    g = symmetrize(counterexample(4)).matrix
    div = near_perfect_division(g, F(1, 16))
    assert div.error < F(1, 16)
    assert div.oriented.add(div.oriented.flip()) == g


def test_symmetric_split_shift_exact():
    psi = sym_shift()
    phi = symmetric_split(psi, F(1, 2))
    assert distance(psi, symmetrize(phi)) == 0
    assert phi == DSE([half_shift()], 1)


def test_symmetric_split_doubled_identity():
    psi = DSE([identity_map(), identity_map()], 2)
    phi = symmetric_split(psi, F(1, 3))
    assert phi == DSE([identity_map()], 1)


def test_symmetric_split_counterexample():
    psi = symmetrize(counterexample(4))
    phi = symmetric_split(psi, F(1, 8))
    assert phi.multiplicity == 2
    assert validate(phi).ok
    d = distance(psi, symmetrize(phi))
    assert d < F(1, 8)


def test_symmetric_split_requires_symmetry():
    with pytest.raises(NotSymmetric):
        symmetric_split(counterexample(2), F(1, 4))


def test_symmetric_split_random(rng):
    base = random_cell_dse(rng, 3, 2)
    psi = symmetrize(base)
    phi = symmetric_split(psi, F(1, 16))
    assert validate(phi).ok
    assert distance(psi, symmetrize(phi)) < F(1, 16)


def test_symmetric_split_reflection_forest():
    from dsekit.gallery import forest_example
    phi1, phi2 = forest_example(3)
    psi = DSE([phi1, phi2], 2)  # both maps are involutions
    phi = symmetric_split(psi, F(1, 8))
    assert distance(psi, symmetrize(phi)) < F(1, 8)


def test_symmetric_split_random_with_reflections(rng):
    psi = symmetrize(random_cell_dse(rng, 3, 2, reflections=True))
    phi = symmetric_split(psi, F(1, 16))
    assert validate(phi).ok
    assert distance(psi, symmetrize(phi)) < F(1, 16)


def test_regular_graph_identity():
    g = GraphMultiset([(Atom(0, 1, 1, 0), 2)])
    pm = regular_graph_partial_automorphism(g, F(1, 2))
    assert pm == identity_map()


def test_regular_graph_shift():
    g = sym_shift().matrix
    pm = regular_graph_partial_automorphism(g, F(1, 4))
    assert pm.domain.measure() == 1
    assert g.contains_graph(pm)


def test_regular_graph_counterexample():
    g = symmetrize(counterexample(4)).matrix
    pm = regular_graph_partial_automorphism(g, F(1, 16))
    assert pm.domain.measure() > F(15, 16)
    assert g.contains_graph(pm)


def test_regular_graph_odd_regularity_is_precondition_violation():
    g = GraphMultiset([(Atom(0, 1, 1, 0), 1)])
    with pytest.raises(PreconditionViolated, match="regularity must be even"):
        regular_graph_partial_automorphism(g, F(1, 2))


def test_take_by_rows_shortfall_raises_bound_violated():
    h = GraphMultiset([(Atom(0, F(1, 2), 1, F(1, 2)), 1)])
    with pytest.raises(BoundViolated, match="row selection"):
        _take_by_rows(h, ((0, h._d, 1),))


def _selection(take, h, need):
    try:
        return take(h, need)
    except BoundViolated:
        return "shortfall"


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 4),
       st.integers(0, 2 ** 32 - 1))
def test_take_by_rows_matches_reference(level, n, need_level, seed):
    """The cell-sweep selection equals the cut-and-overlap reference, on
    needs that are met and on needs that fall short alike."""
    rng = random.Random(seed)
    h = random_cell_dse(rng, level, n, reflections=True).matrix
    cells = 2 ** need_level
    need = tuple((F(i, cells), F(i + 1, cells), rng.randint(-1, n + 1))
                 for i in range(cells))
    want = _selection(reference_take_by_rows, h, need)
    g = h._lift(lcm(h._d, cells))
    on_grid = tuple((int(lo * g._d), int(hi * g._d), v) for lo, hi, v in need)
    assert _selection(_take_by_rows, g, on_grid) == want


# The initial division of sym(ce(2)) has P+ = [0,1/2), P- = [1/2,1) and
# orients the translations by +1/8 on [0,1/4), +1/4 on [1/8,1/2) and +1/2
# on [0,1/2); each case breaks one invariant and passes every check
# before it.
BROKEN_PATHS = {
    "no-pieces": ((), "path has an empty source set"),
    "empty-source": ((EMPTY_MAP,), "path has an empty source set"),
    "starts-outside-p-plus": ((shift(F(1, 2), F(3, 4), 0),),
                              "path does not start inside P+"),
    "ends-outside-p-minus": ((shift(0, F(1, 8), F(1, 8)),),
                             "path does not end inside P-"),
    "overlapping-sets": (
        (shift(0, F(1, 8), F(1, 8)), shift(F(1, 8), F(1, 4), -F(1, 8)),
         shift(0, F(1, 8), F(1, 2))),
        "path sets overlap"),
    "unchained-pieces": (
        (shift(0, F(1, 8), F(1, 8)), shift(F(1, 4), F(3, 8), F(1, 4))),
        "piece endpoints disagree with the path sets"),
    "outside-the-orientation": (
        (shift(0, F(1, 8), F(5, 8)),),
        "path is not inside the oriented part: "
        "multiplicity goes negative at 0"),
}


@pytest.mark.parametrize("pieces, message", BROKEN_PATHS.values(),
                         ids=BROKEN_PATHS.keys())
def test_apply_better_path_names_the_broken_invariant(pieces, message):
    div = initial_division(symmetrize(counterexample(2)).matrix)
    with pytest.raises(InvalidPath) as exc:
        apply_better_path(div, Chain(pieces))
    assert str(exc.value) == message


def fold(c) -> DSE:
    """x -> c - x on [0, c) and the identity on [c, 1), symmetrized."""
    return symmetrize(DSE([PartialMap([Atom(0, c, -1, c), Atom(c, 1, 1, 0)])],
                          1))


def test_initial_division_halves_the_pivot_exactly():
    # the reflection's fixed point 1/6 has a denominator the input lacks
    div = initial_division(fold(F(1, 3)).matrix)
    families = dict(div.oriented.families())
    assert families[(-1, F(1, 3))] == ((F(0), F(1, 6), 2),)
    assert families[(1, F(0))] == ((F(1, 3), F(1), 1),)
    psi = fold(F(1, 3))
    phi = symmetric_split(psi, F(1, 16))
    validate(phi)
    assert distance(psi, symmetrize(phi)) < F(1, 16)


@pytest.mark.parametrize("c", [F(3, 4), "3/4", F(1, 5), F(7, 12)])
def test_fold_with_an_odd_offset_numerator_splits(c):
    # the offset numerator of c over its own grid is odd
    psi = fold(c)
    families = dict(initial_division(psi.matrix).oriented.families())
    assert families[(-1, F(c))] == ((F(0), F(c) / 2, 2),)
    phi = symmetric_split(psi, F(1, 16))
    validate(phi)
    assert distance(psi, symmetrize(phi)) < F(1, 16)


def test_initial_division_pivot_check_catches_a_missing_lift(monkeypatch):
    # the division halves on twice the grid; without that lift the offset
    # 1/3 is the odd numerator 1 over 3, and the check fires, also under -O
    g = fold(F(1, 3)).matrix
    monkeypatch.setattr(GraphMultiset, "_lift", lambda self, d: self)
    with pytest.raises(BoundViolated, match="pivot leaves the grid"):
        initial_division(g)


def test_eliminate_short_paths_reverses_a_family_from_p_plus_into_p_minus():
    """Eighths 0 -> 1, 2 -> 3 and 4 -> 5 -> 6 -> 7, 4 -> 7 oriented.  P+ is
    eighths 0 and 4, P- eighths 3 and 7; only the edge 4 -> 7 maps P+ into
    P-, and it is reversed, while 0 reaches 3 by paths of two pieces."""
    div = cell_division(8, (0, 1), (0, 2), (1, 3), (2, 3),
                        (4, 5), (5, 6), (6, 7), (4, 7))
    edge = PartialMap([Atom(F(4, 8), F(5, 8), 1, F(3, 8))])
    assert div.p_plus == iv(0, F(1, 8)).union(iv(F(4, 8), F(5, 8)))
    assert div.p_minus == iv(F(3, 8), F(4, 8)).union(iv(F(7, 8), 1))
    out = _eliminate_short_paths(div)
    assert out.error == div.error - 2 * edge.domain.measure() == F(1, 4)
    assert out.p_plus == iv(0, F(1, 8))
    assert out.p_minus == iv(F(3, 8), F(4, 8))
    assert all(out.p_plus.intersect(fm.preimage_of(out.p_minus)).is_empty()
               for fm in out.maps)
    assert out.oriented.add(out.oriented.flip()) == out.base == div.base
    assert out.oriented == div.oriented.subtract(
        GraphMultiset.from_maps([edge])).add(
        GraphMultiset.from_maps([edge.invert()]))
