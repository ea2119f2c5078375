"""Almost-decomposition of a doubly stochastic element into automorphisms.

One automorphism is peeled off at a time: a near-full piece is completed
to an automorphism by the monotone rearrangement of the leftover sets, the
residual matrix is repaired with exact correction maps so that it is again
doubly stochastic of multiplicity n-1, and the construction recurses with
a halved budget.  The achieved distance is always recomputed from the
output, never trusted from intermediate bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dse import DSE, distance, normalize_cover, validate
from .errors import PreconditionViolated, check
from .intervals import EMPTY, FULL, IntervalSet, rat
from .maps import Atom, PartialMap, glue, monotone_pairing
from .multiset import Cells, overlay_cells
from .pieces import Piece, greedy_maximal_map, near_full_piece


@dataclass(frozen=True)
class Automorphism:
    """A measure-preserving bijection of the whole interval."""

    map: PartialMap

    def __post_init__(self):
        if self.map.domain != FULL or self.map.image != FULL:
            raise ValueError("not defined on (or onto) the whole interval")


@dataclass(frozen=True)
class Decomposition:
    automorphisms: tuple[Automorphism, ...]
    achieved_distance: Fraction

    def as_dse(self, multiplicity: int | None = None) -> DSE:
        return DSE((a.map for a in self.automorphisms),
                   multiplicity or len(self.automorphisms))


def complete_to_automorphism(piece: "Piece | PartialMap") -> PartialMap:
    """Extend a piece to a full automorphism.

    The complement of the domain is carried onto the complement of the
    image by the unique monotone order isomorphism with slope +1 pieces.
    """
    m = piece.map if isinstance(piece, Piece) else piece
    rest_dom = m.domain.complement()
    if rest_dom.is_empty():
        return m
    return glue([m, monotone_pairing(rest_dom, m.image.complement())])


def pair_profiles(src: Cells, dst: Cells) -> list[PartialMap]:
    """Translation maps whose source/target multiplicity profiles are given.

    Both profiles are sparse integer cell lists of equal total mass.  They
    are peeled into layers (the k-th layer is where the profile is >= k)
    and the layered interval lists are paired by one monotone sweep; every
    matched chunk becomes its own single-atom map, so each emitted map is
    trivially injective while the sums of indicator functions reproduce
    the profiles exactly.
    """

    def expand(cells: Cells) -> list[tuple[Fraction, Fraction]]:
        out = []
        layer = 1
        while True:
            level = [(lo, hi) for lo, hi, m in cells if m >= layer]
            if not level:
                return out
            out.extend(level)
            layer += 1

    src_q = expand(src)
    dst_q = expand(dst)
    total = sum((hi - lo for lo, hi in src_q), Fraction(0))
    if total != sum((hi - lo for lo, hi in dst_q), Fraction(0)):
        raise ValueError("profiles carry different total mass")
    maps = []
    i = j = 0
    s_lo = src_q[0][0] if src_q else None
    d_lo = dst_q[0][0] if dst_q else None
    while i < len(src_q):
        step = min(src_q[i][1] - s_lo, dst_q[j][1] - d_lo)
        maps.append(PartialMap([Atom(s_lo, s_lo + step, 1, d_lo - s_lo)]))
        s_lo += step
        d_lo += step
        if s_lo == src_q[i][1]:
            i += 1
            if i < len(src_q):
                s_lo = src_q[i][0]
        if d_lo == dst_q[j][1]:
            j += 1
            if j < len(dst_q):
                d_lo = dst_q[j][0]
    return maps


def _cover_sources(d: DSE, region: IntervalSet) -> list[PartialMap]:
    """Pieces of the element whose domains partition the region."""
    out = []
    covered = EMPTY
    for m in d.maps:
        part = region.subtract(covered).intersect(m.domain)
        if not part.is_empty():
            out.append(m.restrict(part))
            covered = covered.union(part)
    check(covered == region, "element does not cover the region")
    return out


def _cover_targets(d: DSE, region: IntervalSet) -> list[PartialMap]:
    """Pieces of the element whose images partition the region."""
    out = []
    covered = EMPTY
    for m in d.maps:
        part = region.subtract(covered).intersect(m.image)
        if not part.is_empty():
            out.append(m.restrict_image(part))
            covered = covered.union(part)
    check(covered == region, "element does not cover the region")
    return out


def peel(d: DSE, eps, diagnostics: dict | None = None,
         ) -> tuple[Automorphism, DSE, Fraction]:
    """Split off one automorphism within distance 4*mu(A^c) < eps/2.

    A piece with domain measure above 1 - eps/8 is grown, topped up so that
    no piece leads from its domain complement into its image complement,
    and completed to an automorphism.  The leftover matrix mass is then
    rebalanced: covers of the two complements are removed and correction
    maps with matching mass profiles are added back, leaving an exactly
    doubly stochastic residual of multiplicity n - 1.  Pass a dict as
    ``diagnostics`` to learn whether the top-up pass found anything.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = d.multiplicity
    if n < 2:
        raise PreconditionViolated("peel needs multiplicity at least 2")

    theta = near_full_piece(d, eps / 8)
    top_up = greedy_maximal_map(d.maps, theta.domain.complement(), theta.image)
    tmap = glue([theta.map, top_up]) if not top_up.is_empty() else theta.map
    if diagnostics is not None:
        diagnostics["top_up_fired"] = not top_up.is_empty()
        diagnostics["top_up_mass"] = top_up.domain.measure()

    a_comp = tmap.domain.complement()
    b_comp = tmap.image.complement()
    auto = Automorphism(complete_to_automorphism(tmap))

    resid = d.matrix.subtract_maps([tmap])
    if not a_comp.is_empty():
        phis = _cover_sources(d, a_comp)
        psis = _cover_targets(d, b_comp)
        resid = resid.subtract_maps(phis).subtract_maps(psis)
        deltas = pair_profiles(
            overlay_cells((lo, hi, 1) for m in psis for lo, hi in m.domain),
            overlay_cells((lo, hi, 1) for m in phis for lo, hi in m.image))
        resid = resid.add_maps(deltas)
    rest = normalize_cover(resid, n - 1)

    bound = 4 * a_comp.measure()
    dist = distance(d, DSE(rest.maps + (auto.map,), n))
    check(dist <= bound < eps / 2,
          f"peel distance {dist} exceeds {bound} or eps/2 = {eps / 2}")
    return auto, rest, bound


def almost_decompose(d: DSE, eps) -> Decomposition:
    """n automorphisms whose element is within eps of the input.

    Each peel spends half of the remaining budget (the piece threshold
    eps/8 makes the peel distance at most eps/2) and the recursion halves
    the budget for the residual, so the total stays below eps.  A
    multiplicity-one element normalizes to a single automorphism exactly.
    The input's coverage is validated first (InvalidDSE on failure).
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    validate(d)
    autos = _decompose_rec(d, eps)
    final = DSE(tuple(a.map for a in autos), d.multiplicity)
    dist = distance(d, final)
    check(dist < eps, f"decomposition distance {dist} is not below {eps}")
    return Decomposition(tuple(autos), dist)


def _decompose_rec(d: DSE, eps: Fraction) -> list[Automorphism]:
    if d.multiplicity == 1:
        single = normalize_cover(d.matrix, 1)
        return [Automorphism(glue(single.maps))]
    auto, rest, _ = peel(d, eps)
    return _decompose_rec(rest, eps / 2) + [auto]
