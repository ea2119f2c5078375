"""Divisions of symmetric elements: orientation, error descent, splitting.

A symmetric multiset G of even regularity 2n is *divided* by choosing H
with H + flip(H) = G, an orientation of its edges.  The error integrates
|n - out-degree|; a *better path* is a chain of pieces inside H leading
from the over-oriented region P+ to the under-oriented region P-, and
reversing it lowers the error by exactly twice the source mass.  Iterating
maximal families of short better paths drives the error below any
threshold, after which pruning the leftover degree excess and adding exact
correction maps splits a symmetric element of multiplicity 2n into one of
multiplicity n whose symmetrization is close to the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dse import DSE, distance, is_symmetric, normalize_cover, symmetrize
from .errors import (AlreadyPerfect, BoundViolated, InvalidPath,
                     NotDoublyStochastic, NotSymmetric, PreconditionViolated,
                     UnsplittableDiagonal, check)
from .intervals import (EMPTY, IntervalSet, Step, rat, step_integral,
                        step_where)
from .maps import Atom, PartialMap
from .multiset import GraphMultiset, overlay_cells
from .decompose import pair_profiles
from .pieces import greedy_maximal_map, near_full_piece

_PATH_CAP = 100_000


@dataclass(frozen=True)
class Division:
    """An orientation H of a symmetric multiset G: H + flip(H) = G."""

    oriented: GraphMultiset
    base: GraphMultiset
    n: int

    def __post_init__(self):
        if self.oriented.add(self.oriented.flip()) != self.base:
            raise ValueError("oriented part plus its flip is not the base")


@dataclass(frozen=True)
class DegreeProfile:
    cells: Step
    n: int

    def p_zero(self) -> IntervalSet:
        return step_where(self.cells, lambda v: v == self.n)

    def p_plus(self) -> IntervalSet:
        return step_where(self.cells, lambda v: v > self.n)

    def p_minus(self) -> IntervalSet:
        return step_where(self.cells, lambda v: v < self.n)


@dataclass(frozen=True)
class BetterPath:
    """Pieces phi_i: V_{i-1} -> V_i inside H, from P+ to P-."""

    pieces: tuple[PartialMap, ...]
    sets: tuple[IntervalSet, ...]

    @property
    def length(self) -> int:
        return len(self.pieces)


def degree_profile(d: Division) -> DegreeProfile:
    return DegreeProfile(d.oriented.row_step(), d.n)


def error(d: Division) -> Fraction:
    """Exact integral of |n - out-degree| over the interval."""
    n = d.n
    return step_integral(d.oriented.row_step(), lambda v: abs(n - v))


def initial_division(g: GraphMultiset) -> Division:
    """Orient below the natural order: keep the part of G under the diagonal.

    Positive-offset translation families lie below the diagonal and are
    kept whole; reflection families are split at their fixed point; a
    family on the diagonal itself is its own flip, so its multiplicity
    must be even and half of it is kept.
    """
    if g.flip() != g:
        raise NotSymmetric("multiset differs from its flip")
    entries: list[tuple[Atom, int]] = []
    for (slope, offset), cells in g.families():
        if slope == 1:
            if offset > 0:
                entries.extend((Atom(lo, hi, 1, offset), m) for lo, hi, m in cells)
            elif offset == 0:
                for lo, hi, m in cells:
                    if m % 2:
                        raise UnsplittableDiagonal(
                            f"diagonal cell [{lo},{hi}) has odd multiplicity {m}")
                    entries.append((Atom(lo, hi, 1, 0), m // 2))
        else:
            pivot = offset / 2
            for lo, hi, m in cells:
                cut = min(hi, max(lo, pivot))
                if lo < cut:
                    entries.append((Atom(lo, cut, -1, offset), m))
    row = g.row_step()
    masses = {v for _, _, v in row}
    if len(masses) != 1:
        raise NotDoublyStochastic("row mass is not constant")
    full = masses.pop()
    if full % 2:
        raise PreconditionViolated(
            f"row mass {full} is odd; need multiplicity 2n")
    return Division(GraphMultiset(entries), g, full // 2)


def _smain_piece(hmaps: Sequence[PartialMap], n: int, a: IntervalSet,
                 b: IntervalSet, t: IntervalSet) -> PartialMap:
    """Maximal piece inside H from a+b landing outside a+b+t.

    For a in the over-oriented region and b balanced-or-over, counting both
    fibre masses of the oriented part gives the exact lower bound
    mu(V) >= mu(a)/(2n) - mu(t)/2, checked here.
    """
    allowed = a.union(b)
    piece = greedy_maximal_map(hmaps, allowed, allowed.union(t))
    bound = a.measure() / (2 * n) - t.measure() / 2
    check(piece.domain.measure() >= bound, "oriented piece misses its bound")
    return piece


def find_better_path(d: Division, max_length: int,
                     consumed: IntervalSet = EMPTY) -> BetterPath | None:
    """A better path of length <= max_length avoiding consumed sets.

    Mirrors the extension search: a chain of maximal pieces inside H grows
    from P+ into fresh territory, and the first chain image meeting P- is
    backtracked (smallest usable index first) into a path.  A chain that
    stays clear of P- for max_length steps certifies that the consumed
    family already carries the measure the improvement bound needs.  The
    union of the chain images W_1..W_i is kept as a running union.
    """
    prof = degree_profile(d)
    p_plus = prof.p_plus()
    p_minus = prof.p_minus()
    if p_plus.is_empty():
        return None
    hmaps = [d.oriented.family_map(key) for key, _ in d.oriented.families()]
    n = d.n

    start = _smain_piece(hmaps, n, p_plus.subtract(consumed), EMPTY, consumed)
    if start.is_empty():
        return None
    chain = [start]
    wsets = [start.domain, start.image]
    hit = start.image.intersect(p_minus)
    if not hit.is_empty():
        return _backtrack_path(chain, wsets, hit)
    others = start.image
    for _ in range(max_length - 1):
        step = _smain_piece(hmaps, n, wsets[0], others, consumed)
        if step.is_empty():
            return None
        chain.append(step)
        wsets.append(step.image)
        hit = step.image.intersect(p_minus)
        if not hit.is_empty():
            return _backtrack_path(chain, wsets, hit)
        others = others.union(step.image)
    return None


def _backtrack_path(chain: list[PartialMap], wsets: list[IntervalSet],
                    hit: IntervalSet) -> BetterPath:
    j = len(chain)
    if j == 1:
        pm = chain[0].restrict(chain[0].preimage_of(hit))
        return BetterPath((pm,), (pm.domain, pm.image))
    indices = []
    cur_t, cur_i = hit, j
    while cur_i > 0:
        back = chain[cur_i - 1].preimage_of(cur_t)
        pick = None
        for t in range(cur_i):
            overlap = back.intersect(wsets[t])
            if not overlap.is_empty():
                pick = t
                break
        check(pick is not None, "descent lost the chain invariant")
        indices.append(cur_i)
        cur_t = overlap
        cur_i = pick
    indices.reverse()
    cur_set = cur_t                     # inside W_0, part of P+
    pieces = []
    sets = [cur_set]
    for idx in indices:
        pm = chain[idx - 1].restrict(cur_set)
        pieces.append(pm)
        cur_set = pm.image
        sets.append(cur_set)
    return BetterPath(tuple(pieces), tuple(sets))


def apply_better_path(d: Division, p: BetterPath) -> Division:
    """Reverse the path's edges; the error drops by exactly 2*mu(V_0)."""
    if not p.pieces or p.sets[0].is_empty():
        raise InvalidPath("path has an empty source set")
    prof = degree_profile(d)
    if not prof.p_plus().contains(p.sets[0]):
        raise InvalidPath("path does not start inside P+")
    if not prof.p_minus().contains(p.sets[-1]):
        raise InvalidPath("path does not end inside P-")
    union = EMPTY
    for s in p.sets:
        if not union.intersect(s).is_empty():
            raise InvalidPath("path sets overlap")
        union = union.union(s)
    for pm, src, dst in zip(p.pieces, p.sets, p.sets[1:]):
        if pm.domain != src or pm.image != dst:
            raise InvalidPath("piece endpoints disagree with the path sets")
    reversal = GraphMultiset.from_maps(p.pieces)
    try:
        oriented = d.oriented.subtract(reversal).add(reversal.flip())
    except ValueError as exc:
        raise InvalidPath(f"path is not inside the oriented part: {exc}")
    out = Division(oriented, d.base, d.n)
    drop = p.sets[0].measure()
    check(error(out) == error(d) - 2 * drop, "error identity violated")
    return out


def improve_division(d: Division) -> Division:
    """Apply a maximal family of short better paths.

    The error decreases by at least (E / (7 n^3 + E))^2, checked exactly.
    """
    err = error(d)
    if err == 0:
        raise AlreadyPerfect("division already balanced")
    mu_plus = degree_profile(d).p_plus().measure()
    max_length = int(Fraction(7 * d.n ** 2) / mu_plus)
    consumed = EMPTY
    paths: list[BetterPath] = []
    while True:
        p = find_better_path(d, max_length, consumed)
        if p is None:
            break
        paths.append(p)
        consumed = consumed.union(IntervalSet.union_all(p.sets))
        if len(paths) > _PATH_CAP:
            raise RuntimeError("better-path family did not exhaust")
    out = d
    for p in paths:
        out = apply_better_path(out, p)
    bound = (err / (7 * d.n ** 3 + err)) ** 2
    if error(out) > err - bound:
        raise BoundViolated(
            f"improvement bound violated: {error(out)} > {err} - {bound}")
    return out


def near_perfect_division(g: GraphMultiset, eps) -> Division:
    """A division with error below eps, by iterated improvement."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = initial_division(g)
    while error(d) >= eps:
        d = improve_division(d)
    return d


def _eliminate_short_paths(d: Division) -> Division:
    """Reverse every single edge family leading from P+ straight into P-."""
    while True:
        changed = False
        prof = degree_profile(d)
        p_plus = prof.p_plus()
        p_minus = prof.p_minus()
        for key, _ in list(d.oriented.families()):
            fm = d.oriented.family_map(key)
            src = fm.domain.intersect(p_plus).intersect(fm.preimage_of(p_minus))
            if src.is_empty():
                continue
            pm = fm.restrict(src)
            d = apply_better_path(d, BetterPath((pm,), (pm.domain, pm.image)))
            changed = True
            prof = degree_profile(d)
            p_plus = prof.p_plus()
            p_minus = prof.p_minus()
        if not changed:
            return d


def _take_by_rows(h: GraphMultiset, need: Step) -> GraphMultiset:
    """A sub-multiset of h whose row profile equals the positive part of need."""
    taken: list[tuple[Atom, int]] = []
    remaining = [[lo, hi, v] for lo, hi, v in need if v > 0]
    for (slope, offset), cells in h.families():
        if not remaining:
            break
        next_rem = []
        for rlo, rhi, rv in remaining:
            pieces = [(rlo, rhi, rv)]
            for lo, hi, m in cells:
                new_pieces = []
                for plo, phi, pv in pieces:
                    clo, chi = max(plo, lo), min(phi, hi)
                    if clo >= chi:
                        new_pieces.append((plo, phi, pv))
                        continue
                    take = min(m, pv)
                    taken.append((Atom(clo, chi, slope, offset), take))
                    if plo < clo:
                        new_pieces.append((plo, clo, pv))
                    if pv - take > 0:
                        new_pieces.append((clo, chi, pv - take))
                    if chi < phi:
                        new_pieces.append((chi, phi, pv))
                pieces = new_pieces
            next_rem.extend(pieces)
        remaining = [[lo, hi, v] for lo, hi, v in sorted(next_rem)]
    if remaining:
        raise RuntimeError("row selection could not satisfy the profile")
    return GraphMultiset(taken)


def _take_by_cols(h: GraphMultiset, need: Step) -> GraphMultiset:
    """A sub-multiset of h whose column profile equals the positive part."""
    flipped = _take_by_rows(h.flip(), need)
    return flipped.flip()


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
    the answer.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not is_symmetric(psi):
        raise NotSymmetric("element is not equivalent to its inverse")
    if psi.multiplicity % 2:
        raise PreconditionViolated("symmetric split needs even multiplicity")
    n = psi.multiplicity // 2

    div = near_perfect_division(psi.matrix, eps / 4)
    div = _eliminate_short_paths(div)

    prof = degree_profile(div)
    excess_out = tuple((lo, hi, v - n) for lo, hi, v in prof.cells if v > n)
    excess_in = tuple((lo, hi, n - v) for lo, hi, v in prof.cells if v < n)
    h2 = div.oriented
    if excess_out or excess_in:
        r_out = _take_by_rows(div.oriented, excess_out)
        r_in = _take_by_cols(div.oriented, excess_in)
        h2 = h2.subtract(r_out).subtract(r_in)
        theta_maps = pair_profiles(_sparse(r_in.row_step()),
                                   _sparse(r_out.col_step()))
        delta_maps = pair_profiles(_sparse(r_in.col_step()),
                                   _sparse(r_out.row_step()))
        h2 = h2.add_maps(theta_maps + delta_maps)
    phi = normalize_cover(h2, n)
    achieved = distance(psi, symmetrize(phi))
    check(achieved < eps, f"split distance {achieved} is not below {eps}")
    return phi


def regular_graph_partial_automorphism(g: GraphMultiset, eps) -> PartialMap:
    """A partial automorphism inside a symmetric 2n-regular multiset with
    domain measure above 1 - eps."""
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    row = g.row_step()
    masses = {v for _, _, v in row}
    if len(masses) != 1:
        raise NotDoublyStochastic("multiset is not regular")
    degree = masses.pop()
    if degree % 2:
        raise ValueError("regularity must be even")
    psi = normalize_cover(g, degree)
    phi = symmetric_split(psi, eps)
    piece = near_full_piece(phi, eps / 2)
    inside = g.clip_to_support(piece.map)
    check(inside.domain.measure() > 1 - eps,
          "partial automorphism misses measure 1 - eps")
    return inside
