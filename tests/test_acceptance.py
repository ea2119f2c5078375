"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here; nothing is calibrated at run
time.  All comparisons are exact rational comparisons except the two
wall-clock budgets, which are part of the criteria themselves.
"""

import random
import time
from fractions import Fraction as F

from dsekit import (DSE, FULL, EMPTY, almost_decompose, apply_better_path,
                    compose, decompose_bvn, discretize, distance,
                    enlarge_piece, find_better_path, greedy_maximal_map,
                    identity_map, improve_division, initial_division, lift,
                    near_full_piece, near_perfect_division, neighbor_set,
                    regular_graph_partial_automorphism, symmetric_split,
                    symmetrize, validate)
from dsekit.bvn import is_permutation
from dsekit.gallery import (amplification, counterexample, forest_example,
                            orbit_visits_cells)
from dsekit.intervals import IntervalSet

from conftest import half_shift, random_interval_set
from oracles import brute_distance
from test_bvn import random_regular_matrix


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


def test_01_finite_birkhoff_von_neumann():
    rng = random.Random(1)
    started = time.monotonic()
    for _ in range(200):
        m = rng.randint(2, 32)
        n = rng.randint(1, 6)
        a = random_regular_matrix(rng, m, n)
        perms = decompose_bvn(a)
        assert len(perms) == n
        assert all(is_permutation(p) for p in perms)
        total = [[sum(p[i][j] for p in perms) for j in range(m)]
                 for i in range(m)]
        assert total == a
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(1, f"200 random matrices decomposed into n permutations "
              f"in {elapsed:.2f}s")


def test_02_hall_inequality():
    rng = random.Random(2)
    checked = 0
    for k in (2, 4, 6):
        ce = counterexample(k)
        for _ in range(100):
            c = random_interval_set(rng, level=k + 2)
            assert neighbor_set(ce, c).measure() >= c.measure()
            checked += 1
    report(2, f"mu(N(C)) >= mu(C) exactly on {checked} random sets")


def test_03_growth_bound():
    d = counterexample(6)
    piece, rounds = greedy_maximal_map(d.maps, FULL, EMPTY), 0
    while 1 - piece.domain.measure() >= F(1, 64):
        gap = 1 - piece.domain.measure()
        grown = enlarge_piece(d, piece)
        bound = (gap / (7 * d.multiplicity + gap)) ** 2
        assert grown.domain.measure() >= piece.domain.measure() + bound
        piece, rounds = grown, rounds + 1
    assert rounds, "no enlargement rounds were needed"
    report(3, f"every one of {rounds} enlargement rounds met "
              f"(gap/(7n+gap))^2 exactly")


def test_04_near_full_piece():
    started = time.monotonic()
    piece = near_full_piece(counterexample(6), F(1, 64))
    elapsed = time.monotonic() - started
    assert piece.domain.measure() >= F(63, 64)
    assert elapsed < 60.0
    report(4, f"piece of measure {piece.domain.measure()} >= 63/64 "
              f"in {elapsed:.2f}s")


def test_05_almost_decomposition():
    dec = almost_decompose(counterexample(8), F(1, 16))
    assert len(dec.automorphisms) == 2
    for auto in dec.automorphisms:
        assert auto.domain == FULL and auto.image == FULL
    assert dec.achieved_distance < F(1, 16)

    amp, _ = amplification(2)
    for eps in (F(1), F(1, 4), F(1, 64), F(1, 4096)):
        assert almost_decompose(amp, eps).achieved_distance == 0
    report(5, f"counterexample(8) within {dec.achieved_distance} < 1/16; "
              f"amplification decomposes exactly for every eps")


def test_06_division_identity():
    corpus = [
        symmetrize(DSE([half_shift()], 1)),
        symmetrize(counterexample(2)),
        symmetrize(counterexample(4)),
    ]
    rng = random.Random(6)
    from conftest import random_cell_dse
    corpus.append(symmetrize(random_cell_dse(rng, 4, 2)))
    applications = 0
    for psi in corpus:
        div = initial_division(psi.matrix)
        while div.error > 0:
            path = find_better_path(div, 7 * div.n ** 2 * 64)
            if path is None:
                break
            before = div.error
            div = apply_better_path(div, path)
            assert div.error == before - 2 * path.sources[0].measure()
            applications += 1
    assert applications > 0
    report(6, f"E(H1) = E(H) - 2 mu(V0) exactly across "
              f"{applications} path applications")


def test_07_division_improvement():
    g = symmetrize(counterexample(4)).matrix
    div = initial_division(g)
    rounds = 0
    while div.error >= F(1, 16):
        before = div.error
        div = improve_division(div)
        drop = before - div.error
        assert drop >= (before / (7 * div.n ** 3 + before)) ** 2
        rounds += 1
    assert div.error < F(1, 16)
    # the library loop reaches the same threshold
    direct = near_perfect_division(g, F(1, 16))
    assert direct.error < F(1, 16)
    report(7, f"improvement bound held for {rounds} rounds; "
              f"final error {div.error} < 1/16")


def test_08_symmetric_split():
    psi = symmetrize(counterexample(4))
    phi = symmetric_split(psi, F(1, 8))
    assert phi.multiplicity == 2
    assert validate(phi).ok
    achieved = distance(psi, symmetrize(phi))
    assert achieved < F(1, 8)

    st = symmetrize(DSE([half_shift()], 1))
    for eps in (F(1), F(1, 16), F(1, 1024)):
        perfect = symmetric_split(st, eps)
        assert distance(st, symmetrize(perfect)) == 0
    report(8, f"split of the symmetrized counterexample within {achieved} "
              f"< 1/8; shift splits exactly")


def test_09_regular_graph_application():
    g = symmetrize(counterexample(4)).matrix
    pm = regular_graph_partial_automorphism(g, F(1, 16))
    assert g.contains_graph(pm)
    assert pm.domain.measure() > F(15, 16)
    report(9, f"partial automorphism inside the support with measure "
              f"{pm.domain.measure()} > 15/16")


def test_10_oracle_equivalence():
    t = half_shift()
    corpus = [
        (DSE([identity_map()], 1), 1),
        (DSE([t, t.invert()], 2), 1),
        (counterexample(1), 2),
        (counterexample(2), 3),
        (counterexample(3), 4),
        (counterexample(4), 5),
        (counterexample(5), 6),
        (amplification(2)[0], 5),
        (amplification(3)[0], 6),
    ]
    for d, level in corpus:
        matrix = discretize(d, level)
        back = lift(decompose_bvn(matrix), level)
        assert distance(d, back) == 0
    report(10, f"interval pipeline and matrix oracle agree (distance 0) "
               f"on {len(corpus)} cell-aligned elements")


def test_11_truncation_distance():
    for k in range(1, 7):
        a, b = counterexample(k), counterexample(k + 1)
        oracle = brute_distance(a, b)
        assert distance(a, b) == oracle == F(1, 2 ** k)
    report(11, "distance(counterexample(k), counterexample(k+1)) = 2^-k "
               "for k = 1..6, matching the brute-force oracle")


def test_12_odometer_proxy():
    phi1, phi2 = forest_example(6)
    odometer = compose(phi2, phi1)
    assert orbit_visits_cells(odometer, F(1, 64), 3, 64)
    report(12, "64 odometer iterates of 1/64 visit all 8 level-3 cells")
