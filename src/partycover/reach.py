"""Monochromatic short-range reachability and critical pairs.

The central relaxation: u 2-reaches v in color c when they are joined by
a color-c edge or share a color-c neighbor *anywhere in the graph*.  A
vertex set all of whose pairs 2-reach each other in c is "2-reachable in
c"; the stricter "diameter <= 2 in c" additionally demands the middle
vertex lie inside the set.  Stars are the workhorse 2-reachable sets.

Every set predicate here runs on one kernel, ``_within2``, which clears
the pairs of a set by common middles.  Below PAIR_MATRIX_MIN_N it walks
one need mask per vertex; from it up to n = 64 it keeps all pairs still
in need in one packed pair matrix and strikes every pair inside a
middle's neighborhood at once.  Packing the matrix costs a few
microseconds a call, which the walk saves up to n = 30; from n = 32 the
strikes win.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

from .graphs import BLUE, RED, ColoredCocktail, _check_pair

#: Smallest order at which _within2 strikes pairs in a packed pair matrix
#: instead of walking need masks row by row.  solve plus check_cover and
#: both subset predicates on a random subset per color, per coloring,
#: matrix over walk (uniform and planted sharp colorings, best of 9
#: interleaved runs): 1.63 at n = 12, 1.47 at 16, 1.10 at 24, 1.03-1.06
#: at 28, 0.97-1.02 at 30, 0.78-0.83 at 32, 0.68 at 40 and 48 and 0.60
#: at 64.  At 28-30 the two are even within the noise, and no benchmark
#: workload lies between n = 10 and 64 to show a lower switch gaining.
PAIR_MATRIX_MIN_N = 32


def dist_le2(g: ColoredCocktail, c: int, u: int, v: int) -> bool:
    """True iff {u, v} is a color-c edge or u, v share a color-c neighbor.

    The middle vertex may lie anywhere in V -- this is the 2-reachable
    relaxation, not induced distance.
    """
    _check_pair(g.n, u, v)
    adj = g.adj(c)
    au = adj[u]
    return bool((au >> v) & 1) or bool(au & adj[v])


@dataclass(frozen=True)
class CriticalPair:
    """A pair at color-c distance > 2; is_edge is False exactly for partner pairs."""

    u: int
    v: int
    color: int
    is_edge: bool


def critical_pairs(g: ColoredCocktail, c: int) -> list[CriticalPair]:
    """All pairs u < v at color-c distance > 2, in lexicographic order.

    A critical *edge* of color c necessarily carries the other color; the
    partner pairs are the only possible critical non-edges.
    """
    pairs = []
    for u, row in enumerate(far_rows(g, c)):
        row >>= u + 1  # bit i now stands for v = u + 1 + i
        while row:
            low = row & -row
            v = u + low.bit_length()
            pairs.append(CriticalPair(u, v, c, is_edge=v != (u ^ 1)))
            row ^= low
    return pairs


def far_rows(g: ColoredCocktail, c: int) -> list[int]:
    """Row v is the mask of the vertices at color-c distance > 2 from v.

    The rows are symmetric, so their union is the set of far-pair ends.
    """
    far = [0] * g.n
    _within2(g.adj(c), (1 << g.n) - 1, -1, far)
    return far


def star(g: ColoredCocktail, c: int, center: int) -> int:
    """Closed color-c star of a vertex, as a mask: the center plus its c-neighbors."""
    return g.adj(c)[center] | (1 << center)


def _within2(adj: tuple[int, ...], members: int, middles: int,
             far: list[int] | None = None) -> bool:
    """Every pair inside members is an edge or has a common neighbor in middles.

    Below PAIR_MATRIX_MIN_N each u clears the later members it still
    needs one middle at a time: for the highest needed v, the highest
    middle w in adj[u] & middles & adj[v] is a common neighbor of u and
    every neighbor of w, so all of adj[w] is struck from the need mask at
    once (no such w means {u, v} is far).  A vertex costs about log(deg)
    steps, not one per far pair.  From PAIR_MATRIX_MIN_N up to n = 64,
    where a row fits one 64-bit word, the same strikes run on every row
    at once (``_strike_pairs``).

    Either way the pair examined is cleared explicitly, so each step
    clears at least one need and the loop ends even on an asymmetric
    ``validate=False`` table, where a strike through w need not reach
    the pair that chose w.

    With ``far`` None the walk returns False at the first far pair.  Given
    a list of one zero row per vertex, it sets bit v of row u and bit u of
    row v for every far pair {u, v} and walks on.
    """
    if PAIR_MATRIX_MIN_N <= len(adj) <= 64:
        return _strike_pairs(adj, members, middles, far)
    rest = members
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        au = adj[u]
        need = rest & ~au  # the neighbors of u are within 1 already
        while need:
            v = need.bit_length() - 1
            need ^= 1 << v
            hit = au & middles & adj[v]
            if hit:
                need &= ~adj[hit.bit_length() - 1]
            elif far is None:
                return False
            else:
                far[u] |= 1 << v
                far[v] |= low
    return True


@lru_cache(maxsize=None)  # at most one entry per n in [PAIR_MATRIX_MIN_N, 64]
def _pair_plan(n: int) -> tuple:
    """Row packer, column mask, strict upper triangle and member spreader
    of the n x 64 pair matrices, row u at bit 64 * u.

    The spreader maps a byte of a member mask to its 8 rows, each 1 where
    the bit is set, so joining the bytes' images is the member column.
    """
    col = sum(1 << 64 * u for u in range(n))
    full = (1 << n) - 1
    upper = sum((full ^ ((2 << u) - 1)) << 64 * u for u in range(n))
    spread = [sum(1 << 64 * i for i in range(8) if b >> i & 1)
              .to_bytes(64, "little") for b in range(256)]
    return struct.Struct(f"<{n}Q").pack, col, upper, spread.__getitem__


def _strike_pairs(adj: tuple[int, ...], members: int, middles: int,
                  far: list[int] | None) -> bool:
    """_within2 on one pair matrix, for 64-bit rows.

    nn holds bit 64 * u + v for each pair u < v of members that is not an
    edge: the member square minus the table, whose row u is adj[u] at bit
    64 * u.  Each step takes the highest pair, clears it, and strikes
    every pair inside adj[w] for its highest common middle w:
    ``table >> w & col`` is column w, the rows that list w, and times
    adj[w] it is adj[w] in each of them, carry-free since a row is 64 bits
    wide (the square of ``extremal.reach_adjacency``).
    """
    n = len(adj)
    pack, col, upper, spread = _pair_plan(n)
    table = int.from_bytes(pack(*adj), "little")
    rows = int.from_bytes(b"".join(map(spread, members.to_bytes(8, "little"))),
                          "little")
    nn = rows * members & upper & ~table
    while nn:
        p = nn.bit_length() - 1
        nn ^= 1 << p
        u, v = p >> 6, p & 63
        hit = adj[u] & adj[v] & middles
        if hit:
            w = hit.bit_length() - 1
            nn ^= nn & ((table >> w & col) * adj[w])
        elif far is None:
            return False
        else:
            far[u] |= 1 << v
            far[v] |= 1 << u
    return True


def is_2reachable_set(g: ColoredCocktail, c: int, members: int) -> bool:
    """Every pair inside the mask 2-reaches each other in color c.

    Middle vertices may lie anywhere in the graph, not just inside the set.
    """
    return _within2(g.adj(c), members, -1)


def is_diam2_subset(g: ColoredCocktail, c: int, members: int) -> bool:
    """Every pair inside the mask is a color-c edge or has a color-c middle *in the mask*."""
    return _within2(g.adj(c), members, members)


def mono_diam_le2(g: ColoredCocktail, c: int) -> bool:
    """The whole vertex set has diameter <= 2 in color c alone."""
    return is_diam2_subset(g, c, (1 << g.n) - 1)


# Re-exported next to the predicates they parameterize.
__all__ = [
    "RED",
    "BLUE",
    "CriticalPair",
    "critical_pairs",
    "dist_le2",
    "far_rows",
    "is_2reachable_set",
    "is_diam2_subset",
    "mono_diam_le2",
    "star",
]
