#!/usr/bin/env python3
"""Almost-decomposing elements into full automorphisms.

Every doubly stochastic element can be approximated, in the exact L1
distance on associated matrices, by a union of measure-preserving
bijections of the whole interval: plain partial maps whose domain and
image are both [0, 1).  The doubled-space example even decomposes on the
nose.
"""

from fractions import Fraction as F

from dsekit import DSE, almost_decompose, distance, peel, validate
from dsekit.gallery import amplification, counterexample

ce = counterexample(5)
print("peeling one automorphism off counterexample(5):")
auto, rest, bound = peel(ce, F(1, 8))
print("  automorphism with", len(auto.atoms), "atoms")
print("  residual multiplicity:", rest.multiplicity,
      "(valid:", validate(rest).ok, ")")
print("  guaranteed distance bound:", bound)

print()
dec = almost_decompose(ce, F(1, 16))
print("full decomposition:", len(dec.automorphisms), "automorphisms,")
print("  recomputed distance:", dec.achieved_distance, "< 1/16")

print()
amp, pasting = amplification(2)
print("the doubled-space element has", len(amp.maps), "maps; decomposing...")
dec = almost_decompose(amp, F(1, 1000))
print("  achieved distance:", dec.achieved_distance, "(exact)")
print("  matches the explicit pasting:",
      distance(amp, DSE(pasting, 2)) == 0)
