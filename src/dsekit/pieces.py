"""Pieces of a doubly stochastic element and the extension search.

A *piece* is a partial isomorphism whose graph sits inside the support of
the element's associated matrix.  A maximal piece admits no immediate
enlargement, but it can still be grown by an *extension*: an augmenting
chain of pieces that reroutes part of the piece so its domain gains a set
S_0 outside it and its image gains a set T_{k+1} outside the old image.
The search below builds such chains with a bounded depth k, harvests a
maximal disjoint family of them, and iterates until the piece covers all
but an arbitrarily small part of the space.  Every inequality claimed
here is checked in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dse import DSE
from .errors import (AlreadyFull, BoundViolated, InvalidExtension,
                     PreconditionViolated, check)
from .intervals import EMPTY, FULL, IntervalSet, rat
from .maps import EMPTY_MAP, PartialMap, glue

_FAMILY_CAP = 100_000


class Piece:
    """A partial isomorphism living inside the support of a host element."""

    __slots__ = ("map", "host")

    def __init__(self, map: PartialMap, host: DSE):
        if not host.matrix.contains_graph(map):
            raise ValueError("graph of the map leaves the support of the host")
        self.map = map
        self.host = host

    @property
    def domain(self) -> IntervalSet:
        return self.map.domain

    @property
    def image(self) -> IntervalSet:
        return self.map.image

    def measure(self) -> Fraction:
        return self.map.domain.measure()

    def __repr__(self) -> str:
        return f"Piece<mass {self.measure()}>"


@dataclass(frozen=True)
class Extension:
    """An augmenting chain phi_i: S_{i-1} -> T_i, i = 1..depth+1."""

    pieces: tuple[PartialMap, ...]
    sources: tuple[IntervalSet, ...]   # S_0 .. S_k
    targets: tuple[IntervalSet, ...]   # T_1 .. T_{k+1}

    @property
    def depth(self) -> int:
        return len(self.pieces) - 1

    def gain(self) -> Fraction:
        return self.sources[0].measure()


def greedy_maximal_map(maps: Sequence[PartialMap], allowed: IntervalSet,
                       forbidden: IntervalSet) -> PartialMap:
    """One greedy pass over the maps in list order.

    Each step absorbs the whole currently-available source set of the map
    whose image stays clear of the forbidden set and of what was already
    taken.  Domains and images only grow, so a single pass leaves no
    zero-depth enlargement.
    """
    dom = EMPTY
    img = forbidden
    parts = []
    for pm in maps:
        avail = allowed.subtract(dom).intersect(pm.domain)
        if avail.is_empty():
            continue
        cand = pm.restrict(avail)
        good = cand.image.subtract(img)
        if good.is_empty():
            continue
        cand = cand.restrict_image(good)
        parts.append(cand)
        dom = dom.union(cand.domain)
        img = img.union(cand.image)
    return glue(parts)


def maximal_piece(d: DSE, allowed_sources: IntervalSet,
                  forbidden_targets: IntervalSet) -> Piece:
    """A piece that admits no zero-depth enlargement within the constraints."""
    return Piece(greedy_maximal_map(d.maps, allowed_sources, forbidden_targets), d)


def lemma_piece(d: DSE, a: IntervalSet, b: IntervalSet,
                blocker: Piece | None = None) -> Piece:
    """Maximal piece from a avoiding b and the blocker's image.

    The returned piece has source S inside a, image outside b and outside
    the blocker's image, and its measure satisfies the exact lower bound
        mu(S) >= (mu(a) - mu(b))/2 - ((n-1)/(2n)) * mu(domain(blocker)),
    which follows from maximality by counting both fibre masses.
    """
    blocker_map = blocker.map if blocker is not None else EMPTY_MAP
    if not a.intersect(blocker_map.domain).is_empty():
        raise PreconditionViolated("a meets the blocker's domain")
    if not b.intersect(blocker_map.image).is_empty():
        raise PreconditionViolated("b meets the blocker's image")
    piece = maximal_piece(d, a, b.union(blocker_map.image))
    n = d.multiplicity
    bound = (a.measure() - b.measure()) / 2 \
        - Fraction(n - 1, 2 * n) * blocker_map.domain.measure()
    check(piece.measure() >= bound, "maximal piece misses its counting bound")
    return piece


def find_extension(d: DSE, piece: Piece, max_depth: int,
                   occupied: tuple[IntervalSet, IntervalSet] = (EMPTY, EMPTY),
                   ) -> Extension | None:
    """Search for an extension of depth <= max_depth avoiding occupied sets.

    A chain of maximal pieces is grown from the complement of the piece's
    domain; as soon as some chain image meets the complement of the piece's
    image, the chain is backtracked (always to the smallest usable index)
    into a genuine extension.  If the chain runs max_depth+1 steps entirely
    inside the image, or stalls on an empty piece, no extension is
    reported; in that state the accumulated family already carries the
    measure guaranteed by the counting argument.

    The search is incremental.  Each chain image T_i that stays inside the
    piece's image has its preimage theta^-1(T_i) computed once and cached;
    the sources allowed for the next step, theta^-1(T_1 + ... + T_i), are
    kept as a running union of those preimages (preimages distribute over
    unions), and so are the forbidden targets.  The backtracking reads the
    cached preimages, so theta.preimage_of runs at most twice per step.
    """
    theta = piece.map
    a_set, b_set = theta.domain, theta.image
    occ_src, occ_tgt = occupied
    b_comp = b_set.complement()

    chain: list[PartialMap] = []
    preimages: list[IntervalSet] = []
    first = lemma_piece(d, a_set.complement().subtract(occ_src), occ_tgt)
    if first.map.is_empty():
        return None
    chain.append(first.map)
    hit = first.map.image.intersect(b_comp)
    if not hit.is_empty():
        return _backtrack(theta, chain, preimages, hit)

    preimages.append(theta.preimage_of(first.map.image))
    allowed = preimages[0]
    # the blocker ``first`` keeps T_1 out; the later images are added here
    forbidden = occ_tgt
    for _ in range(max_depth):
        step = lemma_piece(d, allowed, forbidden, first)
        if step.map.is_empty():
            return None
        chain.append(step.map)
        image = step.map.image
        hit = image.intersect(b_comp)
        if not hit.is_empty():
            return _backtrack(theta, chain, preimages, hit)
        preimages.append(theta.preimage_of(image))
        allowed = allowed.union(preimages[-1])
        forbidden = forbidden.union(image)
    return None


def _backtrack(theta: PartialMap, chain: list[PartialMap],
               preimages: list[IntervalSet], hit: IntervalSet) -> Extension:
    """Turn a chain whose last image leaves the piece's image into an
    extension, descending through strictly decreasing chain indices.

    ``preimages[t - 1]`` is theta^-1(T_t) for the chain images T_t that
    stayed inside the piece's image (all but the last).
    """
    j = len(chain)
    if j == 1:
        pm = chain[0].restrict(chain[0].preimage_of(hit))
        return Extension((pm,), (pm.domain,), (pm.image,))

    stages: list[tuple[int, IntervalSet]] = []
    cur_t, cur_i = hit, j
    while cur_i > 1:
        back = chain[cur_i - 1].preimage_of(cur_t)
        pick = None
        for t in range(1, cur_i):
            overlap = back.intersect(preimages[t - 1])
            if not overlap.is_empty():
                pick = t
                hop = overlap
                break
        check(pick is not None, "descent lost the chain invariant")
        stages.append((cur_i, cur_t))
        cur_t = theta.image_of(hop)
        cur_i = pick
    stages.append((1, cur_t))

    stages.reverse()
    cur_set = chain[0].preimage_of(stages[0][1])
    pieces: list[PartialMap] = []
    sources = [cur_set]
    targets: list[IntervalSet] = []
    for pos, (idx, _) in enumerate(stages):
        pm = chain[idx - 1].restrict(cur_set)
        pieces.append(pm)
        targets.append(pm.image)
        if pos < len(stages) - 1:
            cur_set = theta.preimage_of(pm.image)
            sources.append(cur_set)
    return Extension(tuple(pieces), tuple(sources), tuple(targets))


def validate_extension(piece: Piece, ext: Extension) -> None:
    """Check every extension invariant against the piece; exact."""
    theta = piece.map
    a_set, b_set = theta.domain, theta.image
    k = ext.depth
    if len(ext.sources) != k + 1 or len(ext.targets) != k + 1:
        raise InvalidExtension("sources/targets do not match the depth")
    if ext.sources[0].measure() == 0:
        raise InvalidExtension("gain set S_0 has measure zero")
    if not a_set.complement().contains(ext.sources[0]):
        raise InvalidExtension("S_0 leaves the domain complement")
    if not b_set.complement().contains(ext.targets[-1]):
        raise InvalidExtension("final target leaves the image complement")
    union = EMPTY
    for s in ext.sources:
        if not union.intersect(s).is_empty():
            raise InvalidExtension("sources of the chain overlap")
        union = union.union(s)
    for i in range(1, k + 1):
        if not a_set.contains(ext.sources[i]):
            raise InvalidExtension(f"S_{i} leaves the domain")
        if not b_set.contains(ext.targets[i - 1]):
            raise InvalidExtension(f"T_{i} leaves the image")
        if theta.preimage_of(ext.targets[i - 1]) != ext.sources[i]:
            raise InvalidExtension(f"theta^-1(T_{i}) != S_{i}")
    host = piece.host.matrix
    for pm, src, tgt in zip(ext.pieces, ext.sources, ext.targets):
        if pm.domain != src or pm.image != tgt:
            raise InvalidExtension("piece endpoints disagree with S_i/T_i")
        if not host.contains_graph(pm):
            raise InvalidExtension("extension piece leaves the support")


def apply_extension(piece: Piece, ext: Extension) -> Piece:
    """Reroute the piece along the extension; the domain gains S_0."""
    validate_extension(piece, ext)
    theta = piece.map
    rerouted = IntervalSet.union_all(ext.sources[1:])
    base = theta.restrict(theta.domain.subtract(rerouted))
    return Piece(glue([base, *ext.pieces]), piece.host)


def enlarge_piece(d: DSE, piece: Piece) -> Piece:
    """Grow the piece by a maximal family of depth-bounded extensions.

    The growth is at least (gap / (7n + gap))^2 where gap is the measure
    of the domain complement; the inequality is checked exactly.
    """
    gap = FULL.measure() - piece.measure()
    if gap == 0:
        raise AlreadyFull("piece already covers the whole space")
    n = d.multiplicity
    depth_cap = int(Fraction(7 * n) / gap)
    occ_src, occ_tgt = EMPTY, EMPTY
    family: list[Extension] = []
    while True:
        ext = find_extension(d, piece, depth_cap, (occ_src, occ_tgt))
        if ext is None:
            break
        family.append(ext)
        occ_src = occ_src.union(IntervalSet.union_all(ext.sources))
        occ_tgt = occ_tgt.union(IntervalSet.union_all(ext.targets))
        if len(family) > _FAMILY_CAP:
            raise RuntimeError("extension family did not exhaust; "
                               "measure progress is pathologically slow")
    grown = piece
    for ext in family:
        grown = apply_extension(grown, ext)
    bound = (gap / (7 * n + gap)) ** 2
    if grown.measure() < piece.measure() + bound:
        raise BoundViolated(
            f"growth bound violated: {grown.measure()} < "
            f"{piece.measure()} + {bound}")
    return grown


def near_full_piece(d: DSE, eps, trace: list | None = None) -> Piece:
    """A piece whose domain has measure strictly above 1 - eps.

    Starts from the greedy maximal piece and applies enlarge_piece until
    the threshold is crossed; the growth bound of every round forces the
    domain measures toward one, so the loop terminates for any eps > 0.
    Pass a list as ``trace`` to record (before, after, bound) per round.
    """
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    piece = maximal_piece(d, FULL, EMPTY)
    while FULL.measure() - piece.measure() >= eps:
        before = piece.measure()
        gap = FULL.measure() - before
        piece = enlarge_piece(d, piece)
        if trace is not None:
            trace.append((before, piece.measure(),
                          (gap / (7 * d.multiplicity + gap)) ** 2))
    return piece
