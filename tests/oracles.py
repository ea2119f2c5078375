"""Independent brute-force oracles the tests check production code against.

Nothing here reuses the package's multiset refinement machinery: expected
values are recomputed from raw atom lists by exhaustive scans.
"""

from fractions import Fraction


def brute_distance(a, b) -> Fraction:
    """L1 distance between associated matrices by brute common refinement.

    Groups atoms by (slope, offset) straight off the map lists, cuts each
    group at every endpoint that occurs anywhere, and counts covering atoms
    per elementary cell by scanning the whole list again.
    """
    legs: dict = {}
    for dse, sign in ((a, 1), (b, -1)):
        for m in dse.maps:
            for atom in m.atoms:
                legs.setdefault((atom.slope, atom.offset), []).append(
                    (atom.lo, atom.hi, sign))
    total = Fraction(0)
    for items in legs.values():
        cuts = sorted({x for lo, hi, _ in items for x in (lo, hi)})
        for i in range(len(cuts) - 1):
            lo, hi = cuts[i], cuts[i + 1]
            count = 0
            for alo, ahi, sign in items:
                if alo <= lo and hi <= ahi:
                    count += sign
            total += abs(count) * (hi - lo)
    return total


def brute_measure(pairs) -> Fraction:
    """Measure of a union of possibly-overlapping [lo, hi) pairs by scanning
    elementary cells."""
    pts = sorted({x for p in pairs for x in p})
    total = Fraction(0)
    for i in range(len(pts) - 1):
        lo, hi = pts[i], pts[i + 1]
        if any(alo <= lo and hi <= ahi for alo, ahi in pairs):
            total += hi - lo
    return total


def reference_normalize_cover(m, n):
    """The quadratic normalize_cover, kept as the reference for the sweep.

    Deals every cut by scanning every family for the cell holding it, and
    ranks every layer after cutting at the crossing of every slope +1 and
    slope -1 atom pair, rescanning the layer's atoms for every cell.
    """
    from dsekit.dse import DSE
    from dsekit.errors import NotDoublyStochastic
    from dsekit.intervals import ONE, ZERO, _fractions
    from dsekit.maps import Atom

    row = _fractions(m._degree(False), m._d)
    col = _fractions(m._degree(True), m._d)
    bad_rows = tuple(c for c in row if c[2] != n)
    bad_cols = tuple(c for c in col if c[2] != n)
    if bad_rows or bad_cols:
        raise NotDoublyStochastic(
            f"row/column mass is not constantly {n} "
            f"({len(bad_rows)} bad rows, {len(bad_cols)} bad columns)")

    families = list(m.families())
    cuts = sorted({x for _, cells in families
                   for lo, hi, _ in cells for x in (lo, hi)} | {ZERO, ONE})
    layers = [[] for _ in range(n)]
    for k in range(len(cuts) - 1):
        lo, hi = cuts[k], cuts[k + 1]
        idx = 0
        for (slope, offset), cells in families:
            mult = _reference_multiplicity_at(cells, lo)
            for _ in range(mult):
                layers[idx].append(Atom(lo, hi, slope, offset))
                idx += 1
    maps = []
    for layer in layers:
        maps.extend(reference_split_into_injective(layer))
    out = DSE(maps, n)
    assert out.matrix == m
    assert len(out.maps) <= n * len(families)
    return out


def _reference_multiplicity_at(cells, x) -> int:
    for lo, hi, mult in cells:
        if lo <= x < hi:
            return mult
    return 0


def reference_split_into_injective(atoms):
    """Rank a row-mass-one layer after cutting at all crossings."""
    from dsekit.intervals import ONE, ZERO
    from dsekit.maps import Atom, PartialMap

    if not atoms:
        return []
    images = [(a, *_reference_image(a)) for a in atoms]
    cuts = {x for _, lo, hi in images for x in (lo, hi)}
    for a in atoms:
        if a.slope != 1:
            continue
        for b in atoms:
            if b.slope == -1:
                y = (a.offset + b.offset) / 2
                if ZERO < y < ONE:
                    cuts.add(y)
    ordered = sorted(cuts)
    ranks = {}
    for k in range(len(ordered) - 1):
        lo, hi = ordered[k], ordered[k + 1]
        branches = [a for a, ilo, ihi in images if ilo <= lo and hi <= ihi]
        if not branches:
            continue
        mid = (lo + hi) / 2
        branches.sort(key=lambda a, m=mid: m - a.offset if a.slope == 1
                      else a.offset - m)
        for r, a in enumerate(branches):
            if a.slope == 1:
                piece = Atom(lo - a.offset, hi - a.offset, 1, a.offset)
            else:
                piece = Atom(a.offset - hi, a.offset - lo, -1, a.offset)
            ranks.setdefault(r, []).append(piece)
    return [PartialMap(v) for _, v in sorted(ranks.items())]


def reference_find_extension(d, theta, max_depth, occupied=None):
    """The extension search as it stood before the shared chain engine.

    Grows its own chain with a cached preimage per chain image and running
    unions of the allowed sources and forbidden targets, then backtracks
    with ``reference_backtrack``.
    """
    from dsekit.intervals import EMPTY
    from dsekit.pieces import lemma_piece

    a_set, b_set = theta.domain, theta.image
    occ_src, occ_tgt = occupied or (EMPTY, EMPTY)
    b_comp = b_set.complement()

    chain = []
    preimages = []
    first = lemma_piece(d, a_set.complement().subtract(occ_src), occ_tgt)
    if first.is_empty():
        return None
    chain.append(first)
    hit = first.image.intersect(b_comp)
    if not hit.is_empty():
        return reference_backtrack(theta, chain, preimages, hit)

    preimages.append(theta.preimage_of(first.image))
    allowed = preimages[0]
    forbidden = occ_tgt
    for _ in range(max_depth):
        step = lemma_piece(d, allowed, forbidden, first)
        if step.is_empty():
            return None
        chain.append(step)
        image = step.image
        hit = image.intersect(b_comp)
        if not hit.is_empty():
            return reference_backtrack(theta, chain, preimages, hit)
        preimages.append(theta.preimage_of(image))
        allowed = allowed.union(preimages[-1])
        forbidden = forbidden.union(image)
    return None


def reference_backtrack(theta, chain, preimages, hit):
    """Descend through the smallest usable chain index, then rebuild."""
    from dsekit.pieces import Chain

    j = len(chain)
    if j == 1:
        pm = chain[0].restrict(chain[0].preimage_of(hit))
        return Chain((pm,))

    stages = []
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
        assert pick is not None, "descent lost the chain invariant"
        stages.append((cur_i, cur_t))
        cur_t = theta.image_of(hop)
        cur_i = pick
    stages.append((1, cur_t))

    stages.reverse()
    cur_set = chain[0].preimage_of(stages[0][1])
    pieces = []
    for pos, (idx, _) in enumerate(stages):
        pm = chain[idx - 1].restrict(cur_set)
        pieces.append(pm)
        if pos < len(stages) - 1:
            cur_set = theta.preimage_of(pm.image)
    return Chain(tuple(pieces))


def reference_find_better_path(d, max_length, consumed=None):
    """The better-path search as it stood before the shared chain engine.

    Grows its own chain of oriented pieces with the chain images kept as a
    running union, then backtracks with ``reference_backtrack_path``.
    """
    from dsekit.division import _smain_piece
    from dsekit.intervals import EMPTY

    consumed = consumed if consumed is not None else EMPTY
    p_plus = d.p_plus
    p_minus = d.p_minus
    if p_plus.is_empty():
        return None
    hmaps = list(d.maps)
    n = d.n

    allowed = p_plus.subtract(consumed)
    start = _smain_piece(hmaps, n, allowed, EMPTY, consumed)
    if start.is_empty():
        return None
    chain = [start]
    wsets = [start.domain, start.image]
    hit = start.image.intersect(p_minus)
    if not hit.is_empty():
        return reference_backtrack_path(chain, wsets, hit)
    others = start.image
    for _ in range(max_length - 1):
        step = _smain_piece(hmaps, n, wsets[0], others, consumed)
        if step.is_empty():
            return None
        chain.append(step)
        wsets.append(step.image)
        hit = step.image.intersect(p_minus)
        if not hit.is_empty():
            return reference_backtrack_path(chain, wsets, hit)
        others = others.union(step.image)
    return None


def reference_backtrack_path(chain, wsets, hit):
    """Descend through the smallest usable chain index down to W_0."""
    from dsekit.pieces import Chain

    j = len(chain)
    if j == 1:
        pm = chain[0].restrict(chain[0].preimage_of(hit))
        return Chain((pm,))
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
        assert pick is not None, "descent lost the chain invariant"
        indices.append(cur_i)
        cur_t = overlap
        cur_i = pick
    indices.reverse()
    cur_set = cur_t
    pieces = []
    for idx in indices:
        pm = chain[idx - 1].restrict(cur_set)
        pieces.append(pm)
        cur_set = pm.image
    return Chain(tuple(pieces))


def reference_take_by_rows(h, need):
    """The cut-and-overlap row selection, kept as the reference for the
    cell-sweep ``division._take_by_rows``.

    Visits the families in canonical order and cuts every still-needed
    piece against every cell of the family, taking min(cell, need) on each
    overlap and keeping the uncovered and unmet parts for the next family.
    """
    from dsekit.errors import check
    from dsekit.maps import Atom
    from dsekit.multiset import GraphMultiset

    taken = []
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
    check(not remaining, "row selection could not satisfy the profile")
    return GraphMultiset(taken)


def reference_initial_division(g):
    """The oriented part of ``division.initial_division`` built the atom
    way: an Atom per kept cell of the base on twice its grid, then
    ``GraphMultiset(entries)``."""
    from dsekit.errors import UnsplittableDiagonal
    from dsekit.maps import Atom
    from dsekit.multiset import GraphMultiset

    g = g._lift(2 * g._d)
    d = g._d
    entries = []
    for (slope, offset), cells in g._fam.items():
        for lo, hi, m in cells:
            if slope == 1 and offset > 0:
                entries.append((Atom._new(lo, hi, 1, offset, d), m))
            elif slope == 1 and offset == 0:
                if m % 2:
                    raise UnsplittableDiagonal(
                        f"diagonal cell [{Fraction(lo, d)},{Fraction(hi, d)})"
                        f" has odd multiplicity {m}")
                entries.append((Atom._new(lo, hi, 1, 0, d), m // 2))
            elif slope == -1 and lo < offset // 2:
                entries.append((Atom._new(lo, min(hi, offset // 2), -1,
                                          offset, d), m))
    return GraphMultiset(entries)


def reference_pair_profiles(src, dst, d):
    """``decompose.pair_profiles`` built the map way: one single-atom map
    per paired chunk of the layered profiles, then ``from_maps``."""
    from dsekit.maps import Atom, PartialMap, pair_chunks
    from dsekit.multiset import GraphMultiset

    def expand(cells):
        top = max((m for _, _, m in cells), default=0)
        return [(lo, hi) for layer in range(1, top + 1)
                for lo, hi, m in cells if m >= layer]

    src_q, dst_q = expand(src), expand(dst)
    if sum(hi - lo for lo, hi in src_q) != sum(hi - lo for lo, hi in dst_q):
        raise ValueError("profiles carry different total mass")
    return GraphMultiset.from_maps(
        PartialMap([Atom(Fraction(lo, d), Fraction(hi, d), 1,
                         Fraction(shift, d))])
        for lo, hi, shift in pair_chunks(src_q, dst_q))


def reference_image_cover(maps, region):
    """The multiset of ``peel``'s maps whose images partition the region,
    built the map way: cover the region with the inverse maps, invert
    each restriction back, then ``from_maps``."""
    from dsekit.decompose import _cover
    from dsekit.multiset import GraphMultiset

    inverses = [m.invert() for m in maps]
    return GraphMultiset.from_maps(m.invert() for m in _cover(inverses, region))


def reference_lemma_bound(n, a, b, blocked):
    """The counting bound of ``pieces.lemma_piece`` in its Fraction form:
    (mu(a) - mu(b))/2 - ((n-1)/(2n)) * mu(domain of the blocker)."""
    return ((a.measure() - b.measure()) / 2
            - Fraction(n - 1, 2 * n) * blocked.measure())


def reference_oriented_bound(n, a, t):
    """The counting bound of ``division._smain_piece`` in its Fraction
    form: mu(a)/(2n) - mu(t)/2."""
    return a.measure() / (2 * n) - t.measure() / 2


def reference_extract_permutation(a):
    """The dense augmenting-path matcher, kept as the reference for the
    sparse rounds of ``bvn._permutations``.

    Validates the matrix, rebuilds every row's nonzero columns, matches
    rows in index order and scans columns in index order, with the path on
    an explicit stack.
    """
    from dsekit.bvn import regularity
    from dsekit.errors import NotDoublyStochastic

    regularity(a)
    m = len(a)
    cols = [[j for j, x in enumerate(row) if x > 0] for row in a]
    # match[j] = row matched to column j
    match = [None] * m
    for root in range(m):
        seen = [False] * m
        rows = [root]                  # rows on the current path
        scans = [iter(cols[root])]     # each row's remaining columns
        picked = []                    # column leading from rows[k] onward
        while scans:
            for j in scans[-1]:
                if not seen[j]:
                    break
            else:
                rows.pop()
                scans.pop()
                if picked:
                    picked.pop()
                continue
            seen[j] = True
            picked.append(j)
            if match[j] is None:
                for i, col in zip(rows, picked):
                    match[col] = i
                break
            rows.append(match[j])
            scans.append(iter(cols[match[j]]))
        else:
            raise NotDoublyStochastic(f"no perfect matching covers row {root}")
    p = [[0] * m for _ in range(m)]
    for j, i in enumerate(match):
        p[i][j] = 1
    return p


def reference_decompose_bvn(a):
    """The dense decomposition: one validated extraction per round, then a
    dense subtraction, until n permutations are taken."""
    from dsekit.bvn import regularity
    from dsekit.errors import check

    n = regularity(a)
    work = [row[:] for row in a]
    perms = []
    for _ in range(n):
        p = reference_extract_permutation(work)
        perms.append(p)
        for i in range(len(work)):
            for j in range(len(work)):
                work[i][j] -= p[i][j]
    check(all(x == 0 for row in work for x in row),
          "permutations do not sum to the matrix")
    return perms


def reference_matrix_from_csv(text):
    """The regex CSV reader: a dense row per line that is not spaces alone,
    each line matched whole against one pattern of spaced integer cells; a
    line ends at LF, CR LF or CR only."""
    import re

    row = re.compile(r" *-?[0-9]+ *(?:, *-?[0-9]+ *)*")
    rows = []
    for line in re.split(r"\r\n|\r|\n", text):
        if line.strip(" "):
            if not row.fullmatch(line):
                raise ValueError("CSV rows must be comma-separated integers")
            rows.append(list(map(int, line.split(","))))
    return rows


# -- map operations by clipping every atom -----------------------------------
#
# The map operations as they stood before the windowed walk: every atom of
# the map is clipped against the set, whatever the set's span.  They work on
# the public Fraction read-outs, not on grid numerators.


def _reference_move(slope, offset, lo, hi):
    """Image of [lo, hi) under x -> slope*x + offset, taken half-open."""
    return (lo + offset, hi + offset) if slope == 1 else (offset - hi,
                                                          offset - lo)


def _reference_image(a):
    """The image of the atom a, read off its public Fraction read-outs."""
    return _reference_move(a.slope, a.offset, a.lo, a.hi)


def _reference_back(a, lo, hi):
    """The source of the image part [lo, hi) of the atom a."""
    return _reference_move(a.slope, -a.offset if a.slope == 1 else a.offset,
                           lo, hi)


def _reference_clip(s, lo, hi):
    """Pairs of the set s inside the window [lo, hi)."""
    from dsekit.intervals import IntervalSet

    return s.intersect(IntervalSet.interval(lo, hi)).pairs


def reference_restrict(m, s):
    from dsekit.maps import Atom, PartialMap

    return PartialMap(Atom(lo, hi, a.slope, a.offset) for a in m.atoms
                      for lo, hi in _reference_clip(s, a.lo, a.hi))


def reference_image_of(m, s):
    from dsekit.intervals import IntervalSet

    return IntervalSet(_reference_move(a.slope, a.offset, lo, hi)
                       for a in m.atoms
                       for lo, hi in _reference_clip(s, a.lo, a.hi))


def reference_preimage_of(m, s):
    from dsekit.intervals import IntervalSet

    return IntervalSet(
        _reference_back(a, lo, hi) for a in m.atoms
        for lo, hi in _reference_clip(s, *_reference_image(a)))


def reference_restrict_image(m, s):
    from dsekit.maps import Atom, PartialMap

    return PartialMap(Atom(*_reference_back(a, lo, hi), a.slope, a.offset)
                      for a in m.atoms
                      for lo, hi in _reference_clip(s, *_reference_image(a)))


def reference_greedy_maximal_map(maps, allowed, forbidden):
    """The greedy pass as it stood before the set-level step: restrict each
    map to the allowed sources not yet taken, then to the images clear of
    the forbidden and taken targets, and subtract the whole taken domain
    from ``allowed`` at every step."""
    from dsekit.intervals import EMPTY
    from dsekit.maps import glue

    dom, img, parts = EMPTY, forbidden, []
    for pm in maps:
        avail = allowed.subtract(dom).intersect(pm.domain)
        if avail.is_empty():
            continue
        cand = reference_restrict(pm, avail)
        good = cand.image.subtract(img)
        if good.is_empty():
            continue
        cand = reference_restrict_image(cand, good)
        parts.append(cand)
        dom = dom.union(cand.domain)
        img = img.union(cand.image)
    return glue(parts)


def reference_compose(f, g):
    """f after g by meeting every atom of g's image with every atom of f."""
    from dsekit.maps import Atom, PartialMap

    out = []
    for ag in g.atoms:
        for af in f.atoms:
            ilo, ihi = _reference_image(ag)
            lo, hi = max(ilo, af.lo), min(ihi, af.hi)
            if lo < hi:
                out.append(Atom(*_reference_back(ag, lo, hi),
                                af.slope * ag.slope,
                                af.slope * ag.offset + af.offset))
    return PartialMap(out)


def reference_graph_intersect(f, g):
    """The common graph by meeting every atom of f with every atom of g."""
    from dsekit.maps import Atom, PartialMap

    return PartialMap(
        Atom(max(af.lo, ag.lo), min(af.hi, ag.hi), af.slope, af.offset)
        for af in f.atoms for ag in g.atoms
        if (af.slope, af.offset) == (ag.slope, ag.offset)
        and max(af.lo, ag.lo) < min(af.hi, ag.hi))


# -- readers and multiset families before their shortcuts -------------------
#
# The element reader as it stood before it parsed each distinct string once,
# and the multiset's families as they stood before a family was swept only
# where two of its cells can meet.  They work on grid numerators, as the
# code they replaced did.


def reference_atom_lists(lists):
    """JSON atom lists as (atoms, d), every value parsed where it occurs,
    in the order lo, hi, slope, offset of each atom, then its keys; a
    missing key is a KeyError only once the atom's keys are checked."""
    from math import lcm

    from dsekit.intervals import _expect, _ratio
    from dsekit.maps import Atom

    def keys(data):
        for key in data:
            if key not in ("src", "slope", "offset"):
                raise ValueError(f"unexpected key {key!r}")

    def read(data):
        try:
            lo, hi = _expect(_expect(data, dict)["src"], list)
            lo, hi, slope = _ratio(lo), _ratio(hi), _expect(data["slope"], int)
            atom = lo, hi, _ratio(data["offset"]), slope
        except KeyError:
            keys(data)
            raise
        keys(data)
        return atom

    rows = [[read(a) for a in _expect(m, list)] for m in lists]
    d = lcm(*(q for m in rows for row in m for _, q in row[:3]))
    return [([Atom._new(lo * (d // q), hi * (d // r), slope, off * (d // t), d)
              for (lo, q), (hi, r), (off, t), slope in m], d) for m in rows]


def _reference_families(grouped, d):
    """(families, d): every family's cells through one sparse sweep, the
    empty ones dropped, sorted by key."""
    from dsekit.intervals import sweep

    fam = {k: sweep(v, sparse=True) for k, v in grouped.items()}
    return dict(sorted((k, v) for k, v in fam.items() if v)), d


def reference_multiset_families(entries):
    """The families and grid of ``GraphMultiset(entries)``, each family's
    entries swept, a lone entry too."""
    from math import lcm

    entries = list(entries)
    d = lcm(*(atom._d for atom, _ in entries))
    grouped = {}
    for atom, mult in entries:
        if mult < 0:
            raise ValueError("negative multiplicity")
        if mult:
            a = atom._lift(d)
            grouped.setdefault((a.slope, a._off), []).append(
                (a._lo, a._hi, mult))
    return _reference_families(grouped, d)


def reference_flip_families(g):
    """The families and grid of ``g.flip()``, each inverse family's moved
    cells swept."""
    grouped = {}
    for (slope, offset), cells in g._fam.items():
        for lo, hi, m in cells:
            grouped.setdefault(
                (1, -offset) if slope == 1 else (-1, offset), []).append(
                (*_reference_move(slope, offset, lo, hi), m))
    return _reference_families(grouped, g._d)


def reference_l1_distance(g, h):
    """The L1 distance of the multisets g and h (the associated-matrix
    distance) by one signed sweep of every key of either."""
    from math import lcm

    from dsekit.multiset import _cells_sub

    d = lcm(g._d, h._d)
    g, h = g._lift(d), h._lift(d)
    total = 0
    for key in set(g._fam) | set(h._fam):
        diff = _cells_sub(g._fam.get(key, ()), h._fam.get(key, ()), False)
        total += sum((hi - lo) * abs(v) for lo, hi, v in diff)
    return Fraction(total, d)


# -- map and set constructors by sorting and merging twice ------------------
#
# The constructors as they stood before their one-pass builds: merge a map's
# atoms, then canonicalize its source and image pairs as two separate sets
# and compare their measures to find overlapping images.


def reference_merge_pairs(pairs):
    """Grid pairs, empty ones dropped, sorted and merged as a list of
    lists, then read back as tuples."""
    merged = []
    for lo, hi in sorted(p for p in pairs if p[0] < p[1]):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def reference_partial_map(atoms, d):
    """(atoms, domain pairs, image pairs) of ``PartialMap._new(atoms, d)``:
    sort by source, merge contiguous atoms of one (slope, offset), check
    the sources, canonicalize the source and image pairs apart and compare
    their measures.  Raises the OverlapError the constructor raises."""
    from dsekit.errors import OverlapError
    from dsekit.maps import Atom

    merged = []
    for a in sorted(atoms, key=lambda a: a._lo):
        if merged:
            p = merged[-1]
            if p.slope == a.slope and p._off == a._off and p._hi == a._lo:
                merged[-1] = Atom._new(p._lo, a._hi, a.slope, a._off, a._d)
                continue
        merged.append(a)
    for p, a in zip(merged, merged[1:]):
        if a._lo < p._hi:
            raise OverlapError(f"sources overlap at {a.lo}")
    domain = reference_merge_pairs([(a._lo, a._hi) for a in merged])
    image = reference_merge_pairs([(a._ilo, a._ihi) for a in merged])
    if sum(hi - lo for lo, hi in domain) != sum(hi - lo for lo, hi in image):
        raise OverlapError("images overlap (injectivity violated)")
    return tuple(merged), domain, image


# -- harvested families, one chain at a time ---------------------------------
#
# How the growth lemmas applied a harvested family before the family step:
# ``reduce`` over the chains, each validated against the piece or division
# the chains before it left, and a whole new piece or division built for it.


def reference_apply_extensions(d, theta, family):
    """Fold the extensions into the piece theta of d one at a time; each
    raises the InvalidExtension that the single-chain check raised, and
    each new piece is checked against d's support, as the piece wrapper
    did on construction."""
    from functools import reduce

    from dsekit.errors import InvalidExtension
    from dsekit.intervals import IntervalSet
    from dsekit.maps import glue

    def inside(theta):
        if not d.matrix.contains_graph(theta):
            raise ValueError("graph of the map leaves the support of the host")
        return theta

    def apply(theta, ext):
        a_set, b_set = theta.domain, theta.image
        if not ext.pieces or ext.gain() == 0:
            raise InvalidExtension("gain set S_0 has measure zero")
        if not a_set.complement().contains(ext.sources[0]):
            raise InvalidExtension("S_0 leaves the domain complement")
        if not b_set.complement().contains(ext.targets[-1]):
            raise InvalidExtension("final target leaves the image complement")
        if not all(s.intersect(t).is_empty() for i, s in enumerate(ext.sources)
                   for t in ext.sources[i + 1:]):
            raise InvalidExtension("sources of the chain overlap")
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
        rerouted = IntervalSet.union_all(ext.sources[1:])
        base = theta.restrict(theta.domain.subtract(rerouted))
        return inside(glue([base, *ext.pieces]))

    return reduce(apply, family, inside(theta))


def reference_apply_better_paths(d, paths):
    """Fold the paths into the division one at a time, checking each path's
    error drop; each raises the InvalidPath that the single-path check
    raised."""
    from functools import reduce

    from dsekit.division import Division
    from dsekit.errors import BoundViolated, InvalidPath
    from dsekit.multiset import GraphMultiset

    def apply(d, p):
        if not p.pieces or p.sources[0].is_empty():
            raise InvalidPath("path has an empty source set")
        sets = p.sources + p.targets[-1:]
        if not d.p_plus.contains(sets[0]):
            raise InvalidPath("path does not start inside P+")
        if not d.p_minus.contains(sets[-1]):
            raise InvalidPath("path does not end inside P-")
        if not all(s.intersect(t).is_empty() for i, s in enumerate(sets)
                   for t in sets[i + 1:]):
            raise InvalidPath("path sets overlap")
        if p.targets[:-1] != p.sources[1:]:
            raise InvalidPath("piece endpoints disagree with the path sets")
        reversal = GraphMultiset.from_maps(p.pieces)
        try:
            oriented = d.oriented.subtract(reversal).add(reversal.flip())
        except ValueError as exc:
            raise InvalidPath(f"path is not inside the oriented part: {exc}")
        out = Division(oriented, d.base, d.n)
        if out.error != d.error - 2 * p.sources[0].measure():
            raise BoundViolated("error identity violated")
        return out

    return reduce(apply, paths, d)
