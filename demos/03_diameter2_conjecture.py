"""Probe the open question: do two monochromatic diameter-2 parts cover V?

The guaranteed cover uses the relaxed notion (connecting middles may sit
outside the part).  Whether a cover by two parts of *induced* diameter
at most 2 always exists is open.  The two notions genuinely differ --
induced diameter 2 is not even subset-hereditary -- yet the complete
search has never found a coloring without such a cover.

Run:  python3 demos/03_diameter2_conjecture.py        (well under a second)
"""

from partycover import (
    BLUE,
    exists_diam2_cover,
    format_cover,
    from_compact,
    scan,
    vertex_list,
)
from partycover.reach import is_2reachable_set, is_diam2_subset

# the two notions differ: in the all-blue coloring on 4 vertices,
# {0,1,2} has induced blue diameter 2 but its subset {0,1} does not
# (the partner pair's only middles sit outside), while 2-reachability
# survives every subset.
g = from_compact("4:0")
s, sp = 0b0111, 0b0011
print("induced diameter 2 is not hereditary (coloring 4:0, blue):")
print(f"  S  = {vertex_list(s)}: diam2 {is_diam2_subset(g, BLUE, s)}, "
      f"2-reachable {is_2reachable_set(g, BLUE, s)}")
print(f"  S' = {vertex_list(sp)}: diam2 {is_diam2_subset(g, BLUE, sp)}, "
      f"2-reachable {is_2reachable_set(g, BLUE, sp)}")
print()

# the complete per-coloring search: constructive cover recheck, then all
# star pairs, then a full A/B/both assignment search
cov = exists_diam2_cover(g)
print("yet a diameter-2 cover exists for it:")
print(format_cover(cov), end="")
print()

print("exhaustive sweep, n = 6 (all 4096 colorings):")
report = scan(6, mode="exhaustive", check="diam2")
print(f"  covers found: {report.diam2_cover_found} / "
      f"{report.colorings_scanned}; counterexamples: "
      f"{len(report.diam2_failures)}")
print()

print("seeded random sweep, n = 8 (2000 colorings):")
report = scan(8, mode="random", check="diam2", samples=2000, seed=42)
print(f"  covers found: {report.diam2_cover_found} / "
      f"{report.colorings_scanned}; counterexamples: "
      f"{len(report.diam2_failures)}")
print()
print("a counterexample, if one ever appears, is listed verbatim in the")
print("report's failure lines as the compact form of its canonical "
      "coloring.")
