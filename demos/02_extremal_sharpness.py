"""The n/2 bound on monochromatic 2-reachable subsets is sharp.

The cover construction guarantees one part of size at least n/2, so
every coloring has a monochromatic 2-reachable subset that large.  The
even/odd-split coloring (same-parity pairs red, cross pairs blue) shows
n/2 cannot be improved: red falls apart into two cliques with no 2-path
between them, and in blue every partner pair lacks a common neighbor, so
any n/2 + 1 vertices -- which must trap a partner pair -- fail in blue
too.

Run:  python3 demos/02_extremal_sharpness.py   (exit status 1 if the solver
and the enumeration disagree)
"""

from partycover import (
    BLUE,
    RED,
    brute_max_2reachable,
    build_sharp_example,
    max_2reachable,
    vertex_list,
)
from partycover.reach import dist_le2

print("largest monochromatic 2-reachable subset of the sharp coloring")
print(f"{'n':>4} {'red max':>8} {'blue max':>9} {'n/2':>5}   red witness")
for n in (4, 6, 8, 10, 12, 16):
    g = build_sharp_example(n)
    r, wr = max_2reachable(g, RED)
    b, _ = max_2reachable(g, BLUE)
    print(f"{n:>4} {r:>8} {b:>9} {n // 2:>5}   {vertex_list(wr)}")

print()
print("cross-check against plain subset enumeration at n = 10:")
g = build_sharp_example(10)
disagree = False
for c, label in ((RED, "red"), (BLUE, "blue")):
    solver = max_2reachable(g, c)[0]
    oracle = brute_max_2reachable(g, c)
    disagree |= solver != oracle
    tag = "agree" if solver == oracle else "DISAGREE"
    print(f"  {label}: solver {solver}, enumeration {oracle} -> {tag}")

print()
print("why n/2 + 1 fails: every partner pair is critical in both colors")
g = build_sharp_example(8)
for u in range(0, 8, 2):
    red_far = not dist_le2(g, RED, u, u + 1)
    blue_far = not dist_le2(g, BLUE, u, u + 1)
    print(f"  pair ({u}, {u + 1}): red distance > 2: {red_far}, "
          f"blue distance > 2: {blue_far}")
print("so a (n/2 + 1)-set, which must contain a partner pair, is")
print("2-reachable in neither color beyond its n/2-sized halves.")
raise SystemExit(1 if disagree else 0)
