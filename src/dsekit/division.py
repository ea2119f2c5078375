"""Divisions of symmetric elements: orientation, error descent, splitting.

A symmetric multiset G of even regularity 2n is *divided* by choosing H
with H + flip(H) = G, an orientation of its edges.  The error integrates
|n - out-degree|; a *better path* is a chain of pieces inside H leading
from the over-oriented region P+ to the under-oriented region P-, and
reversing it lowers the error by exactly twice the source mass.  Better
paths are found by the chain-search engine that also finds extensions
(``pieces._chain_search``), with the identity as its link: a chain image
opens itself as a source set for the next step, where an extension opens
the piece's preimage of it.  Iterating maximal families of short better
paths drives the error below any threshold, after which pruning the
leftover degree excess and adding exact correction maps splits a
symmetric element of multiplicity 2n into one of multiplicity n whose
symmetrization is close to the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Sequence

from .dse import DSE, distance, normalize_cover, symmetrize, validate
from .errors import (AlreadyPerfect, InvalidPath, NotDoublyStochastic,
                     NotSymmetric, PreconditionViolated, UnsplittableDiagonal,
                     check)
from .intervals import (EMPTY, IntervalSet, Step, _sizes, positive_rat,
                        step_integral, step_where)
from .maps import PartialMap
from .multiset import GraphMultiset, _cells_sub
from .decompose import _rebalance, pair_profiles
from .pieces import (Chain, _chain_search, _disjoint, _harvest,
                     greedy_maximal_map, near_full_piece)


@dataclass(frozen=True)
class Division:
    """An orientation H of a symmetric multiset G: H + flip(H) = G.

    What is read off the out-degree is computed once, on first use, from
    the division's own oriented multiset, on its grid.
    """

    oriented: GraphMultiset
    base: GraphMultiset
    n: int

    def __post_init__(self):
        if self.oriented.add(self.oriented.flip()) != self.base:
            raise ValueError("oriented part plus its flip is not the base")

    @cached_property
    def _degrees(self) -> Step:
        """The out-degree of H as a step function of grid numerators."""
        return self.oriented._degree(False)

    @cached_property
    def error(self) -> Fraction:
        """Exact integral of |n - out-degree| over the interval."""
        return Fraction(step_integral(self._degrees, lambda v: abs(self.n - v)),
                        self.oriented._d)

    @cached_property
    def p_plus(self) -> IntervalSet:
        return step_where(self._degrees, lambda v: v > self.n,
                          self.oriented._d)

    @cached_property
    def p_minus(self) -> IntervalSet:
        return step_where(self._degrees, lambda v: v < self.n,
                          self.oriented._d)

    @cached_property
    def maps(self) -> tuple[PartialMap, ...]:
        """H's families as partial maps, in canonical order."""
        return tuple(map(self.oriented._family_map, self.oriented._fam))


def _regular_degree(g: GraphMultiset) -> int:
    """The constant row mass of g, which must be even."""
    masses = {v for _, _, v in g._degree(False)}
    if len(masses) != 1:
        raise NotDoublyStochastic("row mass is not constant")
    degree = masses.pop()
    if degree % 2:
        raise PreconditionViolated(f"regularity must be even, got {degree}")
    return degree


def initial_division(g: GraphMultiset) -> Division:
    """Orient below the natural order: keep the part of G under the diagonal.

    Positive-offset translation families lie below the diagonal and are
    kept whole; reflection families are split at their fixed point; a
    family on the diagonal itself is its own flip, so its multiplicity
    must be even and half of it is kept.  The division lives on twice the
    grid of g, where every offset is even and its half, the pivot, exact.
    """
    if g.flip() != g:
        raise NotSymmetric("multiset differs from its flip")
    g = g._lift(2 * g._d)
    d = g._d
    fam = {}
    for (slope, offset), cells in g._fam.items():
        if slope == 1:
            if offset > 0:
                fam[1, offset] = cells
            elif offset == 0:
                for lo, hi, m in cells:
                    if m % 2:
                        raise UnsplittableDiagonal(
                            f"diagonal cell [{Fraction(lo, d)},{Fraction(hi, d)})"
                            f" has odd multiplicity {m}")
                fam[1, 0] = tuple((lo, hi, m // 2) for lo, hi, m in cells)
        else:
            check(offset % 2 == 0, "reflection pivot leaves the grid")
            pivot = offset // 2
            fam[-1, offset] = tuple((lo, min(hi, pivot), m)
                                    for lo, hi, m in cells if lo < pivot)
    return Division(GraphMultiset._new(fam, d), g, _regular_degree(g) // 2)


def _smain_piece(hmaps: Sequence[PartialMap], n: int, a: IntervalSet,
                 b: IntervalSet, t: IntervalSet) -> PartialMap:
    """Maximal piece inside H from a+b landing outside a+b+t.

    For a in the over-oriented region and b balanced-or-over, counting both
    fibre masses of the oriented part gives the exact lower bound
    mu(V) >= mu(a)/(2n) - mu(t)/2, checked here times 2n, on the measures
    as integers over one grid.
    """
    piece = greedy_maximal_map(hmaps, sources := a.union(b), sources.union(t))
    v, a_size, t_size = _sizes(piece.domain, a, t)
    check(2 * n * v >= a_size - n * t_size, "oriented piece misses its bound")
    return piece


def find_better_path(d: Division, max_length: int,
                     consumed: IntervalSet = EMPTY) -> Chain | None:
    """A better path of length <= max_length avoiding consumed sets.

    Runs the chain-search engine of ``pieces`` with the identity link: the
    chain starts with a maximal piece of H from P+ and each step is a
    maximal piece of H from W_0 plus the images W_1..W_i reached so far
    into fresh territory; the exit is P-.  A chain that stays clear of P-
    for max_length steps certifies that the consumed family already
    carries the measure the improvement bound needs.
    """
    a = d.p_plus.subtract(consumed)
    start = _smain_piece(d.maps, d.n, a, EMPTY, consumed)
    step = partial(_smain_piece, d.maps, d.n, start.domain, t=consumed)
    return _chain_search(start, step, None, d.p_minus, max_length)


def apply_better_path(d: Division, *paths: Chain) -> Division:
    """Reverse the paths' edges; the error drops by exactly 2*mu(V_0),
    summed over the paths, whose sets must be pairwise disjoint.

    A reversal lowers the out-degree by one on V_0 in P+, raises it by one
    on V_k in P- and leaves it on V_1..V_{k-1}.  So a path reads and changes
    the division only on its own sets: on disjoint sets, one reversal
    multiset applies the family as reversing the paths one at a time
    would, and one check of the summed drop checks each path's.
    """
    sets = []
    for p in paths:
        if not p.pieces or p.sources[0].is_empty():
            raise InvalidPath("path has an empty source set")
        if not d.p_plus.contains(p.sources[0]):
            raise InvalidPath("path does not start inside P+")
        if not d.p_minus.contains(p.targets[-1]):
            raise InvalidPath("path does not end inside P-")
        sets += p.sources + p.targets[-1:]
    if not _disjoint(sets):
        raise InvalidPath("path sets overlap")
    if any(p.targets[:-1] != p.sources[1:] for p in paths):
        raise InvalidPath("piece endpoints disagree with the path sets")
    reversal = GraphMultiset.from_maps(pm for p in paths for pm in p.pieces)
    try:
        oriented = d.oriented.subtract(reversal).add(reversal.flip())
    except ValueError as exc:
        raise InvalidPath(f"path is not inside the oriented part: {exc}")
    out = Division(oriented, d.base, d.n)
    check(out.error == d.error - 2 * sum(p.gain() for p in paths),
          "error identity violated")
    return out


def improve_division(d: Division) -> Division:
    """Apply a maximal family of short better paths.

    The error decreases by at least (E / (7 n^3 + E))^2, checked exactly.
    """
    err = d.error
    if err == 0:
        raise AlreadyPerfect("division already balanced")
    max_length = int(Fraction(7 * d.n ** 2) / d.p_plus.measure())
    paths = _harvest(
        lambda consumed: find_better_path(d, max_length, consumed),
        lambda consumed, p: consumed.union(
            IntervalSet.union_all(p.sources + p.targets[-1:])),
        EMPTY, "better-path")
    out = apply_better_path(d, *paths)
    bound = (err / (7 * d.n ** 3 + err)) ** 2
    after = out.error
    check(after <= err - bound,
          f"improvement bound violated: {after} > {err} - {bound}")
    return out


def near_perfect_division(g: GraphMultiset, eps) -> Division:
    """A division with error below eps, by iterated improvement."""
    eps = positive_rat(eps)
    d = initial_division(g)
    while d.error >= eps:
        d = improve_division(d)
    return d


def _eliminate_short_paths(d: Division) -> Division:
    """Reverse every single edge family leading from P+ straight into P-."""
    while True:
        changed = False
        for key in list(d.oriented._fam):
            fm = d.oriented._family_map(key)
            src = d.p_plus.intersect(fm.preimage_of(d.p_minus))
            if src.is_empty():
                continue
            d = apply_better_path(d, Chain((fm.restrict(src),)))
            changed = True
        if not changed:
            return d


def _take_by_rows(h: GraphMultiset, need: Step) -> GraphMultiset:
    """A sub-multiset of h whose row profile equals the positive part of
    need, a step of grid numerators over h's grid, on which it is built.

    Families are taken in canonical order, each pointwise as much as is
    still needed: what is left after a family is the positive part of
    left - cells, and the family gives left - rest.
    """
    taken = {}
    left = _sparse(need)
    for key, cells in h._fam.items():
        if not left:
            break
        rest = _sparse(_cells_sub(left, cells, strict=False))
        taken[key] = _cells_sub(left, rest, True, h._d)
        left = rest
    check(not left, "row selection could not satisfy the profile")
    return GraphMultiset._new(taken, h._d)


def _sparse(step: Step) -> tuple:
    return tuple((lo, hi, v) for lo, hi, v in step if v > 0)


def symmetric_split(psi: DSE, eps) -> DSE:
    """Split a symmetric element of multiplicity 2n into one of multiplicity n
    whose symmetrization is within eps of the input (recomputed exactly).

    Pipeline: divide the base multiset with error below eps/4, reverse any
    remaining one-step paths from P+ to P-, prune the out-degree excess
    over P+ and the in-degree excess over P- (each of mass E/2), and add
    monotone-pairing correction maps with the matching mass profiles; the
    repaired orientation is exactly n-regular both ways and normalizes to
    the answer.  The input's coverage is validated first (InvalidDSE).
    """
    eps = positive_rat(eps)
    validate(psi)
    if psi.multiplicity % 2:
        raise PreconditionViolated("symmetric split needs even multiplicity")
    n = psi.multiplicity // 2

    div = near_perfect_division(psi.matrix, eps / 4)
    div = _eliminate_short_paths(div)

    h = div.oriented
    excess_out = tuple((lo, hi, v - n) for lo, hi, v in div._degrees if v > n)
    excess_in = tuple((lo, hi, n - v) for lo, hi, v in div._degrees if v < n)
    if excess_out or excess_in:
        # both selections are on h's grid, as are the profiles paired here
        r_out = _take_by_rows(h, excess_out)
        r_in = _take_by_rows(h.flip(), excess_in).flip()
        h = _rebalance(h, r_out, r_in).add(
            pair_profiles(r_in._degree(True), r_out._degree(False), h._d))
    phi = normalize_cover(h, n)
    achieved = distance(psi, symmetrize(phi))
    check(achieved < eps, f"split distance {achieved} is not below {eps}")
    return phi


def regular_graph_partial_automorphism(g: GraphMultiset, eps) -> PartialMap:
    """A partial automorphism inside a symmetric 2n-regular multiset with
    domain measure above 1 - eps."""
    eps = positive_rat(eps)
    degree = _regular_degree(g)
    psi = normalize_cover(g, degree)
    phi = symmetric_split(psi, eps)
    inside = g.clip_to_support(near_full_piece(phi, eps / 2))
    check(inside.domain.measure() > 1 - eps,
          "partial automorphism misses measure 1 - eps")
    return inside
