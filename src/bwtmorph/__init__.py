"""Burrows-Wheeler run counts and the sensitivity of binary morphisms.

The package computes rotation-sorting Burrows-Wheeler transforms and their
run counts, classifies binary injective morphisms (primitivity-preserving,
recognizable, synchronizing, Sturmian, cyclic), decides run preservation in
polynomial time, and measures additive and multiplicative run sensitivity
exactly by necklace enumeration.
"""

# perfbench relies on the attribute bwtmorph.bwt being this function, not the module.
from .bwt import bwt

__version__ = "0.1.0"
