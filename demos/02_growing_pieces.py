#!/usr/bin/env python3
"""Growing a partial isomorphism inside a doubly stochastic element.

The multiplicity-2 gallery element famous for being indecomposable in the
limit still admits pieces of measure as close to one as we like at every
finite truncation.  This script shows the greedy maximal piece getting
stuck, one augmenting extension rerouting it, and the full growth loop.
"""

from fractions import Fraction as F

from dsekit import (EMPTY, FULL, apply_extension, enlarge_piece,
                    find_extension, greedy_maximal_map, near_full_piece,
                    neighbor_set)
from dsekit.gallery import counterexample

ce = counterexample(4)
print("element: counterexample(4) with", len(ce.maps), "maps, multiplicity 2")

# a piece is a partial map whose graph lies inside the element's support
piece = greedy_maximal_map(ce.maps, FULL, EMPTY)
print("greedy maximal piece covers", piece.domain, "=",
      piece.domain.measure())

leftover = piece.domain.complement()
print("neighbours of the leftover", leftover, "are",
      neighbor_set(ce, leftover))
print("...all inside the piece's image, so no one-step enlargement exists")

ext = find_extension(ce, piece, max_depth=3)
print()
print(f"an extension of depth {ext.length - 1} reroutes the piece:")
print("  new source S0  =", ext.sources[0])
print("  final target   =", ext.targets[-1])
bigger = apply_extension(ce, piece, ext)
print("after applying it the piece covers", bigger.domain.measure())

print()
print("growth loop from the greedy piece up to measure 1 - 1/32:")
rounds = 0
while 1 - piece.domain.measure() >= F(1, 32):
    gap = 1 - piece.domain.measure()
    grown = enlarge_piece(ce, piece)
    bound = (gap / (7 * ce.multiplicity + gap)) ** 2
    assert grown.domain.measure() >= piece.domain.measure() + bound
    print(f"  {piece.domain.measure()} -> {grown.domain.measure()}   "
          f"(guaranteed gain {bound})")
    piece, rounds = grown, rounds + 1
print(f"reached measure {piece.domain.measure()} in {rounds} rounds; "
      f"near_full_piece(ce, 1/32) runs the same loop and reaches "
      f"{near_full_piece(ce, F(1, 32)).domain.measure()}")
