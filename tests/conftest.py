import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dsekit import (DSE, Atom, GraphMultiset, IntervalSet, PartialMap,
                    identity_map, symmetrize)
from dsekit.division import Division
from dsekit.gallery import counterexample


def half_shift() -> PartialMap:
    """x -> x + 1/2 mod 1, the standard two-cell rotation."""
    return PartialMap([Atom(0, Fraction(1, 2), 1, Fraction(1, 2)),
                       Atom(Fraction(1, 2), 1, 1, Fraction(-1, 2))])


def rotation(a) -> PartialMap:
    """x -> x + a mod 1, for a rational a in (0, 1)."""
    return PartialMap([Atom(0, 1 - a, 1, a), Atom(1 - a, 1, 1, a - 1)])


def rotations_3_5_7_and_ce4() -> DSE:
    """Rotations by 1/3, 1/5 and 1/7 plus the maps of counterexample(4):
    a non-dyadic element of multiplicity 5, the 3-rotation element of the
    scale runs."""
    return DSE([rotation(Fraction(1, k)) for k in (3, 5, 7)]
               + list(counterexample(4).maps), 5)


def rotations_3_5_and_ce4() -> DSE:
    """Rotations by 1/3 and 1/5 plus the maps of counterexample(4): a
    non-dyadic element of multiplicity 4."""
    return DSE([rotation(Fraction(1, k)) for k in (3, 5)]
               + list(counterexample(4).maps), 4)


def shift(lo, hi, offset) -> PartialMap:
    """x -> x + offset on [lo, hi)."""
    return PartialMap([Atom(lo, hi, 1, offset)])


def cell_division(k: int, *edges) -> Division:
    """The division of degree 1 whose oriented part has one atom per edge
    (i, j), carrying the cell [i/k, (i+1)/k) onto [j/k, (j+1)/k)."""
    h = GraphMultiset((Atom(Fraction(i, k), Fraction(i + 1, k), 1,
                            Fraction(j - i, k)), 1) for i, j in edges)
    return Division(h, h.add(h.flip()), 1)


def random_interval_set(rng: random.Random, level: int = 6) -> IntervalSet:
    cells = 2 ** level
    unit = Fraction(1, cells)
    chosen = [i for i in range(cells) if rng.random() < 0.4]
    return IntervalSet((i * unit, (i + 1) * unit) for i in chosen)


def random_cell_map(rng: random.Random, level: int,
                    reflections: bool = False) -> PartialMap:
    """A random permutation of the dyadic cells as a partial map."""
    cells = 2 ** level
    unit = Fraction(1, cells)
    perm = list(range(cells))
    rng.shuffle(perm)
    atoms = []
    for j, i in enumerate(perm):
        if reflections and rng.random() < 0.3:
            atoms.append(Atom(j * unit, (j + 1) * unit, -1,
                              (i + j + 1) * unit))
        else:
            atoms.append(Atom(j * unit, (j + 1) * unit, 1, (i - j) * unit))
    return PartialMap(atoms)


def random_cell_dse(rng: random.Random, level: int, n: int,
                    reflections: bool = False) -> DSE:
    return DSE([random_cell_map(rng, level, reflections) for _ in range(n)], n)


def symmetric_cells(seed: int, level: int, n: int) -> GraphMultiset:
    """A symmetric cell multiset with reflection families and a diagonal
    family of even multiplicity: a random cell element with the identity
    added, symmetrized."""
    d = random_cell_dse(random.Random(seed), level, n, reflections=True)
    return symmetrize(DSE(d.maps + (identity_map(),), n + 1)).matrix


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
