"""Pieces of a doubly stochastic element and the chain-search engine.

A *piece* of an element is a ``PartialMap`` whose graph lies inside the
support of the element's associated matrix; it is a property of the map,
not a type.  Every piece built here is a restriction of the element's own
maps, so only a caller's map needs the support check, and it gets it
where it can enter and reach an output, ``validate_extension``.  A maximal
piece admits no immediate enlargement, but it can still be grown by an
*extension*: an augmenting chain of pieces that reroutes part of the piece
so its domain gains a set S_0 outside it and its image gains a set
T_{k+1} outside the old image.

Extensions and the better paths of ``division`` are both found by one
engine, ``_chain_search``: a chain of greedy maximal pieces grows until
an image meets an exit set, and is then backtracked through the smallest
usable index, which ``_backtrack`` bisects, into a genuine chain.  The
two searches differ only in their step, their exit and their *link*,
which turns a chain image into the sources it opens for the next step:
theta^-1 for an extension of the piece theta, the identity for a better
path.  An extension step takes only the *live* opened sources
(``find_extension``).  One loop, ``_harvest``, collects both maximal
disjoint families; the growth loop below applies families of
depth-bounded extensions until the piece covers all but an arbitrarily
small part of the space.  Every inequality is checked exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from .dse import DSE
from .errors import (AlreadyFull, InvalidExtension, PreconditionViolated,
                     check)
from .intervals import (EMPTY, FULL, IntervalSet, _HI, _LO, _merged, _minus,
                        _sizes, positive_rat)
from .maps import (EMPTY_MAP, Atom, PartialMap, _inverse_key, _move, _SHI,
                   _SLO, glue)

_FAMILY_CAP = 100_000


@dataclass(frozen=True)
class Chain:
    """A backtracked chain of pieces phi_i: S_{i-1} -> T_i, i = 1..length.

    An extension has depth length - 1 and its T_i, i <= depth, lie in the
    piece's image; a better path visits V_0 = S_0 and V_i = T_i.  The
    sources and targets are the pieces' domains and images.
    """

    pieces: tuple[PartialMap, ...]

    @cached_property
    def sources(self) -> tuple[IntervalSet, ...]:
        return tuple(pm.domain for pm in self.pieces)

    @cached_property
    def targets(self) -> tuple[IntervalSet, ...]:
        return tuple(pm.image for pm in self.pieces)

    @property
    def length(self) -> int:
        return len(self.pieces)

    def gain(self) -> Fraction:
        return self.sources[0].measure()


def greedy_maximal_map(maps: Sequence[PartialMap], allowed: IntervalSet,
                       forbidden: IntervalSet) -> PartialMap:
    """One greedy pass over the maps in list order, read once.

    Each step absorbs the whole currently-available source set of the map
    whose image stays clear of the forbidden set and of what was already
    taken.  Domains and images only grow, so a single pass leaves no
    zero-depth enlargement.  A step runs on grid integers, with the untaken
    sources ``left`` and the blocked image ``img`` (forbidden or taken) as
    canonical pair lists: ``_cut``'s source walk over ``left``, inlined,
    gives image pieces, and a piece inside one interval of ``img`` is
    dropped there by one bisection.  The rest are cut in one ``_minus`` walk
    against the window of ``img`` they span; each part left goes back
    through its atom, and only atoms taken are built.  A taking step
    splices its free parts into that window of ``img`` and cuts its sources
    out of the window of ``left`` they span.  A map's atoms have disjoint
    images."""
    d = lcm(allowed._d, forbidden._d)
    left, img = list(allowed._lift(d)._iv), list(forbidden._lift(d)._iv)
    taken = []
    for pm in maps:
        if not left:
            break
        if pm._d != d:
            e = lcm(pm._d, d)
            pm, f, d = pm._lift(e), e // d, e
            if f > 1:
                left, img = ([(lo * f, hi * f) for lo, hi in s]
                             for s in (left, img))
                taken = [a._lift(d) for a in taken]
        atoms = pm.atoms
        i = bisect_right(atoms, left[0][0], key=_SHI)
        n = bisect_left(atoms, left[-1][1], key=_SLO)
        j = bisect_right(left, atoms[i]._lo, key=_HI) if i < n else 0
        pieces = []
        while i < n and j < len(left):
            a, (blo, bhi) = atoms[i], left[j]
            alo, ahi = a._lo, a._hi
            lo, hi = alo if alo > blo else blo, ahi if ahi < bhi else bhi
            if lo < hi:
                lo, hi = _move(a.slope, a._off, lo, hi)
                t = bisect_right(img, lo, key=_HI)
                if t == len(img) or img[t][0] > lo or img[t][1] < hi:
                    pieces.append((lo, hi, a))
            if ahi < bhi:
                i += 1
            else:
                j += 1
        if not pieces:
            continue
        pieces.sort()
        i = bisect_left(img, pieces[0][0], key=_HI)
        k = bisect_right(img, pieces[-1][1], key=_LO)
        # not empty: no kept piece lies in one img interval, and none touch
        free = _minus([p[:2] for p in pieces], img[i:k])
        img[i:k] = _merged(img[i:k] + free)
        sources = []
        for lo, hi in free:
            a = pieces[bisect_left(pieces, hi, key=_HI)][2]
            sources.append(s := _move(*_inverse_key(a.slope, a._off), lo, hi))
            taken.append(a if s == (a._lo, a._hi)
                         else Atom._new(*s, a.slope, a._off, d))
        sources.sort()
        i = bisect_right(left, sources[0][0], key=_HI)
        k = bisect_left(left, sources[-1][1], key=_LO)
        left[i:k] = _minus(left[i:k], sources)
    return PartialMap._new(taken, d) if taken else EMPTY_MAP


def lemma_piece(d: DSE, a: IntervalSet, b: IntervalSet,
                blocker: PartialMap = EMPTY_MAP, *,
                live: IntervalSet | None = None) -> PartialMap:
    """Maximal piece from a avoiding b and the blocker's image.

    The returned piece has source S inside a, image outside b and outside
    the blocker's image, and its measure satisfies the exact lower bound
        mu(S) >= (mu(a) - mu(b))/2 - ((n-1)/(2n)) * mu(domain(blocker)),
    which follows from maximality by counting both fibre masses; it is
    checked times 2n, on the measures as integers over one grid.

    ``live``, a part of a, names the sources that can still be taken: every
    map sends each point of a outside it into b or the blocker's image.  The
    greedy step then runs over ``live`` alone and returns the same piece,
    while the precondition and bound checks read a itself.
    """
    if not a.intersect(blocker.domain).is_empty():
        raise PreconditionViolated("a meets the blocker's domain")
    if not b.intersect(blocker.image).is_empty():
        raise PreconditionViolated("b meets the blocker's image")
    piece = greedy_maximal_map(d.maps, a if live is None else live,
                               b.union(blocker.image))
    n = d.multiplicity
    s, a_size, b_size, blocked = _sizes(piece.domain, a, b, blocker.domain)
    check(2 * n * s >= n * (a_size - b_size) - (n - 1) * blocked,
          "maximal piece misses its counting bound")
    return piece


def find_extension(d: DSE, theta: PartialMap, max_depth: int,
                   occupied: tuple[IntervalSet, IntervalSet] = (EMPTY, EMPTY),
                   ) -> Chain | None:
    """Search for an extension of depth <= max_depth avoiding occupied sets.

    The chain starts with a maximal piece from the complement of theta's
    domain and is linked through theta: a chain image T_i inside theta's
    image opens the sources theta^-1(T_i) for the next step.
    Each step is a lemma piece with the first piece as its blocker and the
    occupied targets plus T_2..T_i forbidden, so its counting bound is the
    one proved for the chain.  The exit is the complement of the piece's
    image.  If the chain runs max_depth+1 steps entirely inside the image,
    or stalls on an empty piece, no extension is reported; in that state
    the accumulated family already carries the measure guaranteed by the
    counting argument.  A step's greedy pass runs over the *live* sources:
    the opened set less what the step before was offered and left, which
    every map still sends into the taken or forbidden set, as that set only
    grows and takes in each image.
    """
    occ_src, occ_tgt = occupied
    first = lemma_piece(d, theta.domain.complement().subtract(occ_src), occ_tgt)
    forbidden, offered, last = occ_tgt, EMPTY, EMPTY_MAP

    def step(opened: IntervalSet) -> PartialMap:
        nonlocal forbidden, offered, last
        live = opened.subtract(offered.subtract(last.domain))
        last = lemma_piece(d, opened, forbidden, first, live=live)
        forbidden, offered = forbidden.union(last.image), opened
        return last

    return _chain_search(first, step, theta, theta.image.complement(),
                         max_depth + 1)


def _chain_search(first: PartialMap, step, link: PartialMap | None,
                  exit_set: IntervalSet, max_len: int) -> Chain | None:
    """Grow a chain of maximal pieces until an image meets ``exit_set``, then
    backtrack it; None if the chain stalls or reaches max_len pieces.

    Every chain image W that misses the exit opens the source set
    link^-1(W) (W itself when ``link`` is None); preimages distribute over
    unions, so each image is linked once.  ``step(opened)`` returns the
    next piece given the running union ``opened`` of the opened sets; the
    first piece's domain plays the opened set of index 0.  Each running
    union is kept for the bisection of ``_backtrack``.
    """
    chain, unions = [first], [EMPTY]
    while not chain[-1].is_empty():
        image = chain[-1].image
        hit = image.intersect(exit_set)
        if not hit.is_empty():
            return _backtrack(chain, unions, link, hit)
        if len(chain) >= max_len:
            return None
        reached = image if link is None else link.preimage_of(image)
        unions.append(opened := unions[-1].union(reached))
        chain.append(step(opened))
    return None


def _backtrack(chain: list[PartialMap], unions: list[IntervalSet],
               link: PartialMap | None, hit: IntervalSet) -> Chain:
    """Descend from the exit hit through strictly decreasing chain indices,
    always to the smallest index whose opened set the current preimage
    meets, until index 0; then rebuild the chain forward from there.

    Index 0 is the first piece's domain, and ``unions[t]``, t >= 1, the
    union of the opened sets 1..t.  A level tests index 0, then bisects t
    over [1, i) on whether the preimage meets ``unions[t]``: the unions
    grow with t, so the first union met has the index of the first opened
    set met, and the preimage misses ``unions[t-1]``, so its part in
    ``unions[t]`` is its part in the opened set t, the hop; O(log i)
    intersections a level.  The last piece's image, which lies in the
    exit, is not linked.
    """
    indices = []
    cur, i = hit, len(chain)
    while True:
        back = chain[i - 1].preimage_of(cur)
        hop, t = back.intersect(chain[0].domain), 0
        if hop.is_empty():
            t = bisect_left(unions, True, 1, i,
                            key=lambda u: bool(back.intersect(u)))
            hop = back.intersect(unions[t]) if t < i else EMPTY
        check(not hop.is_empty(), "descent lost the chain invariant")
        indices.append(i)
        if t == 0:
            break
        cur, i = (hop if link is None else link.image_of(hop)), t
    pieces: list[PartialMap] = []
    source = hop
    for i in reversed(indices):
        if pieces:
            image = pieces[-1].image
            source = image if link is None else link.preimage_of(image)
        pieces.append(chain[i - 1].restrict(source))
    return Chain(tuple(pieces))


def _disjoint(sets: Sequence[IntervalSet]) -> bool:
    """Whether the sets are pairwise disjoint: exactly when the measure of
    their union is the sum of their measures, read as grid integers."""
    union, *sizes = _sizes(IntervalSet.union_all(sets), *sets)
    return union == sum(sizes)


def _harvest(find, occupy, occupied, kind: str) -> list[Chain]:
    """A maximal disjoint family of chains: ``find(occupied)`` until it
    returns None, where ``occupy(occupied, chain)`` grows the occupied sets
    by each chain found; more than _FAMILY_CAP chains is a BoundViolated."""
    family: list[Chain] = []
    while (chain := find(occupied)) is not None:
        family.append(chain)
        occupied = occupy(occupied, chain)
        check(len(family) <= _FAMILY_CAP, f"{kind} family did not exhaust; "
              "measure progress is pathologically slow")
    return family


def validate_extension(d: DSE, theta: PartialMap, *family: Chain) -> None:
    """ValueError unless theta is a piece of d, then ``_check_chains``."""
    if not d.matrix.contains_graph(theta):
        raise ValueError("graph of the map leaves the support of the host")
    _check_chains(d, theta, family)


def _check_chains(d: DSE, theta: PartialMap, family: Sequence[Chain]) -> None:
    """Every extension invariant of each chain against the piece theta, each
    chain piece in d's support, and the family's sources and final targets
    pairwise disjoint; exact.  A chain reads and changes the piece only on
    its own sets, so checking it against theta as given is checking it
    against the piece the chains before it leave."""
    a_set, b_set = theta.domain, theta.image
    for ext in family:
        if not ext.pieces or ext.sources[0].is_empty():
            raise InvalidExtension("gain set S_0 has measure zero")
        if not a_set.complement().contains(ext.sources[0]):
            raise InvalidExtension("S_0 leaves the domain complement")
        if not b_set.complement().contains(ext.targets[-1]):
            raise InvalidExtension("final target leaves the image complement")
    if not _disjoint([s for ext in family for s in ext.sources]):
        raise InvalidExtension("sources of the chain overlap")
    if not _disjoint([ext.targets[-1] for ext in family]):
        raise InvalidExtension("final targets of the family overlap")
    for ext in family:
        for i in range(1, ext.length):
            if not a_set.contains(ext.sources[i]):
                raise InvalidExtension(f"S_{i} leaves the domain")
            if not b_set.contains(ext.targets[i - 1]):
                raise InvalidExtension(f"T_{i} leaves the image")
            if theta.preimage_of(ext.targets[i - 1]) != ext.sources[i]:
                raise InvalidExtension(f"theta^-1(T_{i}) != S_{i}")
        for pm in ext.pieces:
            if not d.matrix.contains_graph(pm):
                raise InvalidExtension("extension piece leaves the support")


def apply_extension(d: DSE, theta: PartialMap, *family: Chain) -> PartialMap:
    """Reroute the piece theta of d along a family of extensions; the domain
    gains each S_0.  theta is checked first (``validate_extension``)."""
    validate_extension(d, theta)
    return _extended(d, theta, family)


def _extended(d: DSE, theta: PartialMap, family: Sequence[Chain]) -> PartialMap:
    """theta rerouted along the family, once ``_check_chains`` passes.  The
    chains' sets are disjoint, so one glue builds the piece that applying
    them one at a time would; it is a piece, as theta and each chain are."""
    _check_chains(d, theta, family)
    rerouted = IntervalSet.union_all(s for e in family for s in e.sources[1:])
    base = theta.restrict(theta.domain.subtract(rerouted))
    return glue([base, *(pm for e in family for pm in e.pieces)])


def enlarge_piece(d: DSE, theta: PartialMap) -> PartialMap:
    """Grow the piece theta by a maximal family of depth-bounded extensions.

    theta's support is checked before any chain is searched.  The growth
    is at least (gap / (7n + gap))^2 where gap is the measure of the
    domain complement; the inequality is checked exactly.
    """
    size = theta.domain.measure()
    gap = FULL.measure() - size
    if gap == 0:
        raise AlreadyFull("piece already covers the whole space")
    validate_extension(d, theta)
    n = d.multiplicity
    depth_cap = int(Fraction(7 * n) / gap)
    family = _harvest(
        lambda occ: find_extension(d, theta, depth_cap, occ),
        lambda occ, ext: (occ[0].union(IntervalSet.union_all(ext.sources)),
                          occ[1].union(IntervalSet.union_all(ext.targets))),
        (EMPTY, EMPTY), "extension")
    grown = _extended(d, theta, family)
    bound = (gap / (7 * n + gap)) ** 2
    check(grown.domain.measure() >= size + bound,
          f"growth bound violated: {grown.domain.measure()} < "
          f"{size} + {bound}")
    return grown


def near_full_piece(d: DSE, eps) -> PartialMap:
    """A piece whose domain has measure strictly above 1 - eps.

    Starts from the greedy maximal piece and applies enlarge_piece until
    the threshold is crossed; the growth bound that it checks in every
    round forces the measures toward one, so the loop ends for any eps > 0.
    """
    eps = positive_rat(eps)
    piece = greedy_maximal_map(d.maps, FULL, EMPTY)
    while FULL.measure() - piece.domain.measure() >= eps:
        piece = enlarge_piece(d, piece)
    return piece
