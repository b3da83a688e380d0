"""Coloring-space symmetry: orbits under relabelings and the color swap.

Partner-preserving relabelings (permute the n/2 pairs, swap within
pairs) and the global color swap act on colorings; quantities like
branch choice, extremal sizes, and diameter-2 coverability are constant
on each orbit.  Scan failure reports name colorings by their
canonical form, so isomorphic failures share one name.

Run:  python3 demos/04_symmetry_classes.py
"""

from partycover import (
    mask_to_compact,
    random_coloring,
    symmetry_classes,
    symmetry_group_order,
    symmetry_reduce,
)
from partycover.graphs import ColoredCocktail

print("group orders ((n/2)! pair permutations x 2^(n/2) in-pair swaps "
      "x color swap):")
for n in (2, 4, 6, 8):
    print(f"  n={n}: {symmetry_group_order(n)}")
print()

print("orbit representatives at n=4 (16 colorings fall into 4 classes):")
for mask in symmetry_classes(4):
    print(f"  {mask_to_compact(4, mask)}")
print()

classes6 = symmetry_classes(6)
print(f"n=6: 4096 colorings, {len(classes6)} classes")
print()

g = random_coloring(6, seed=7)
swapped = ColoredCocktail(6, g.blue, g.red)
print("canonical keys are invariant: a coloring and its color-swap twin")
print(f"  original:   {symmetry_reduce(g)}")
print(f"  color swap: {symmetry_reduce(swapped)}")
