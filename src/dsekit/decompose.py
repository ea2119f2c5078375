"""Almost-decomposition of a doubly stochastic element into automorphisms.

One automorphism is peeled off at a time: a near-full piece is completed
to an automorphism by the monotone rearrangement of the leftover sets, the
residual matrix is repaired with exact correction maps so that it is again
doubly stochastic of multiplicity n-1, and the construction repeats on it
with a halved budget; each automorphism is a plain map, made and checked
by ``complete_to_automorphism``.  The achieved distance is always
recomputed from the output, never trusted from intermediate bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dse import DSE, distance, normalize_cover, validate
from .errors import PreconditionViolated, check
from .intervals import FULL, IntervalSet, Step, _align, positive_rat
from .maps import PartialMap, glue, monotone_pairing, pair_chunks
from .multiset import GraphMultiset, _gather
from .pieces import greedy_maximal_map, near_full_piece


@dataclass(frozen=True)
class Decomposition:
    automorphisms: tuple[PartialMap, ...]
    achieved_distance: Fraction


def complete_to_automorphism(piece: PartialMap) -> PartialMap:
    """Extend a partial map to a full automorphism.

    The complement of the domain is carried onto the complement of the
    image by the unique monotone order isomorphism with slope +1 pieces.
    Every automorphism is made here: a result whose domain or image is not
    FULL is a defect (BoundViolated).
    """
    rest_dom = piece.domain.complement()
    auto = glue([piece, monotone_pairing(rest_dom, piece.image.complement())])
    check(auto.domain == FULL and auto.image == FULL,
          "completed map is not defined on (or onto) the whole interval")
    return auto


def pair_profiles(src: Step, dst: Step, d: int) -> GraphMultiset:
    """The translation multiset whose row/column mass profiles are given.

    Both profiles are integer cells of grid numerators over d, of equal
    total mass; cells of level zero or below carry nothing.  They are
    peeled into layers (the k-th layer is where the profile is >= k) and
    the layered interval lists are paired by the ``pair_chunks`` sweep of
    ``monotone_pairing``; every matched chunk is one unit cell of the
    translation family of its shift, so the sums of indicator functions
    reproduce the profiles exactly.
    """

    def expand(cells: Step) -> list[tuple[int, int]]:
        out = []
        for layer in range(1, max((m for _, _, m in cells), default=0) + 1):
            out.extend((lo, hi) for lo, hi, m in cells if m >= layer)
        return out

    src_q = expand(src)
    dst_q = expand(dst)
    if sum(hi - lo for lo, hi in src_q) != sum(hi - lo for lo, hi in dst_q):
        raise ValueError("profiles carry different total mass")
    return GraphMultiset._new(_gather(
        ((1, shift), ((lo, hi, 1),))
        for lo, hi, shift in pair_chunks(src_q, dst_q)), d)


def _rebalance(m: GraphMultiset, a: GraphMultiset,
               b: GraphMultiset) -> GraphMultiset:
    """m less a and b, plus the ``pair_profiles`` multiset carrying b's row
    profile onto a's column profile; a and b are aligned first."""
    a, b = _align(a, b)
    return m.subtract(a).subtract(b).add(
        pair_profiles(b._degree(False), a._degree(True), b._d))


def _cover(maps, region: IntervalSet, image: bool = False) -> list[PartialMap]:
    """Restrictions of the maps whose domains (images) tile the region."""
    out, left = [], region
    for m in maps:
        part = left.intersect(m.image if image else m.domain)
        if not part.is_empty():
            out.append(m.restrict(m.preimage_of(part) if image else part))
            left = left.subtract(part)
    check(left.is_empty(), "element does not cover the region")
    return out


def peel(d: DSE, eps) -> tuple[PartialMap, DSE, Fraction]:
    """Split off one automorphism within distance 4*mu(A^c) < eps/2.

    A piece with domain measure above 1 - eps/8 is grown, topped up so that
    no piece leads from its domain complement into its image complement,
    and completed to an automorphism.  The leftover matrix mass is then
    rebalanced: covers of the two complements are removed and correction
    cells with matching mass profiles are added back, leaving an exactly
    doubly stochastic residual of multiplicity n - 1.
    """
    eps = positive_rat(eps)
    n = d.multiplicity
    if n < 2:
        raise PreconditionViolated("peel needs multiplicity at least 2")

    theta = near_full_piece(d, eps / 8)
    top_up = greedy_maximal_map(d.maps, theta.domain.complement(), theta.image)
    tmap = glue([theta, top_up])

    a_comp = tmap.domain.complement()
    b_comp = tmap.image.complement()
    auto = complete_to_automorphism(tmap)

    resid = d.matrix.subtract(GraphMultiset.from_maps([tmap]))
    # a full piece leaves nothing to rebalance; skipping the covers and
    # rebalance is measurable on a decompose of automorphisms
    if not a_comp.is_empty():
        phis = GraphMultiset.from_maps(_cover(d.maps, a_comp))
        psis = GraphMultiset.from_maps(_cover(d.maps, b_comp, image=True))
        resid = _rebalance(resid, phis, psis)
    rest = normalize_cover(resid, n - 1)

    bound = 4 * a_comp.measure()
    dist = distance(d, DSE(rest.maps + (auto,), n))
    check(dist <= bound < eps / 2,
          f"peel distance {dist} exceeds {bound} or eps/2 = {eps / 2}")
    return auto, rest, bound


def almost_decompose(d: DSE, eps) -> Decomposition:
    """n automorphisms whose element is within eps of the input.

    Each peel spends half of the remaining budget (the piece threshold
    eps/8 makes the peel distance at most eps/2) and the loop halves the
    budget for the residual, so the total stays below eps.  The residual
    of multiplicity one normalizes to a single automorphism exactly.  The
    automorphisms are listed in reverse peel order, the last one first.
    The input's coverage is validated first (InvalidDSE on failure).
    """
    eps = positive_rat(eps)
    validate(d)
    autos = []
    rest, budget = d, eps
    while rest.multiplicity != 1:
        auto, rest, _ = peel(rest, budget)
        autos.append(auto)
        budget /= 2
    autos.append(complete_to_automorphism(
        glue(normalize_cover(rest.matrix, 1).maps)))
    autos.reverse()
    final = DSE(autos, d.multiplicity)
    dist = distance(d, final)
    check(dist < eps, f"decomposition distance {dist} is not below {eps}")
    return Decomposition(tuple(autos), dist)
