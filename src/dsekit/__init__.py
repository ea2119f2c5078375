"""dsekit: exact calculus for doubly stochastic elements of [0, 1).

The package implements collections of measure-preserving partial
isomorphisms of the unit interval with constant coverage (doubly stochastic
elements), their exact distance calculus, constructive almost-decomposition
into automorphisms, symmetric division and splitting, and the finite
Birkhoff-von Neumann decomposition together with the dyadic discretization
bridge between the two worlds.  All arithmetic is exact rational.
"""

from .intervals import EMPTY, FULL, IntervalSet, rat, rat_str
from .maps import (Atom, EMPTY_MAP, PartialMap, compose, glue, identity_map,
                   monotone_pairing)
from .multiset import GraphMultiset
from .dse import (DSE, CoverageReport, distance, inverse, neighbor_set,
                  normalize_cover, symmetrize, validate)
from .pieces import (Chain, apply_extension, enlarge_piece, find_extension,
                     greedy_maximal_map, lemma_piece, near_full_piece)
from .decompose import (Decomposition, almost_decompose,
                        complete_to_automorphism, peel)
from .division import (Division, apply_better_path, find_better_path,
                       improve_division, initial_division,
                       near_perfect_division,
                       regular_graph_partial_automorphism, symmetric_split)
from .bvn import (decompose_bvn, discretize, extract_permutation, lift,
                  pad_to_doubly_stochastic)

__all__ = [
    "EMPTY", "FULL", "IntervalSet", "rat", "rat_str",
    "Atom", "EMPTY_MAP", "PartialMap", "compose", "glue", "identity_map",
    "monotone_pairing",
    "GraphMultiset",
    "DSE", "CoverageReport", "distance", "inverse", "neighbor_set",
    "normalize_cover", "symmetrize", "validate",
    "Chain", "apply_extension", "enlarge_piece", "find_extension",
    "greedy_maximal_map", "lemma_piece", "near_full_piece",
    "Decomposition", "almost_decompose", "complete_to_automorphism", "peel",
    "Division", "apply_better_path", "find_better_path", "improve_division",
    "initial_division", "near_perfect_division",
    "regular_graph_partial_automorphism", "symmetric_split",
    "decompose_bvn", "discretize", "extract_permutation", "lift",
    "pad_to_doubly_stochastic",
]
