#!/usr/bin/env python3
"""Orienting a symmetric element and splitting it in half.

A symmetric element of multiplicity 2n is a 2n-regular measured graph.
Dividing it means choosing a direction for every edge; reversing "better
paths" balances the out-degrees, and once the imbalance is small the
orientation splits the element into a multiplicity-n half whose
symmetrization is close to the original.
"""

from fractions import Fraction as F

from dsekit import (apply_better_path, distance, find_better_path,
                    initial_division,
                    regular_graph_partial_automorphism, symmetric_split,
                    symmetrize)
from dsekit.gallery import counterexample

psi = symmetrize(counterexample(3))
print("symmetrized counterexample(3): multiplicity", psi.multiplicity)

div = initial_division(psi.matrix)
print("initial orientation error:", div.error)
print("  over-oriented region P+ :", div.p_plus)
print("  under-oriented region P-:", div.p_minus)

step = 0
while div.error > 0:
    path = find_better_path(div, 50)
    if path is None:
        break
    div = apply_better_path(div, path)
    step += 1
    print(f"  path {step}: length {path.length}, "
          f"source mass {path.gain()}, error now {div.error}")

print()
phi = symmetric_split(psi, F(1, 8))
print("split produces multiplicity", phi.multiplicity, "with",
      len(phi.maps), "maps")
print("recomputed distance d(psi, S(phi)) =",
      distance(psi, symmetrize(phi)))

print()
pm = regular_graph_partial_automorphism(psi.matrix, F(1, 16))
print("inside the 4-regular support lives a partial automorphism of measure",
      pm.domain.measure())
