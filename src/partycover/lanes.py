"""solve's branches 1 and 2 bit-sliced over a block of colorings.

Lane i of every int here stands for coloring i of a block (Biham, *A
fast new DES implementation in software*, FSE 1997): an edge's lane int
has bit i set when coloring i colors that edge red.  ``covers`` settles
branch 1 (one color has diameter <= 2 on V) and branch 2 (a partner
pair is critical in one color) for every lane at once, and ``verify``
re-derives each cover it claims from the edge lanes.  lab.scan sends the
lanes neither branch covers through solve one coloring at a time.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import BLUE, COLORS, RED, _block_swap_steps, edge_list, flip


@lru_cache(maxsize=1)
def patterns(b: int) -> tuple[int, ...]:
    """Lane int of each mask bit k < b over the 2**b masks 0 .. 2**b - 1."""
    # bit k of i is set in the upper half of each aligned run of 2**(k+1)
    # lanes: that run's pattern, repeated by a repunit in base 2**(k+1)
    every = (1 << (1 << b)) - 1
    return tuple((((1 << (1 << k)) - 1) << (1 << k))
                 * (every // ((1 << (2 << k)) - 1))
                 for k in range(b))


def transpose(masks: list[int], m: int) -> list[int]:
    """The m edge lane ints of a list of masks: bit i of int k is bit k of
    masks[i].

    Each 64 masks, padded to a multiple of 64 bits, are the rows of one
    bit matrix whose 64 x 64 tiles are transposed in place by block swaps
    (graphs._block_swap_steps); edge k then sits in row k % 64 of tile
    k // 64, 64 lanes at a time, and its lane int joins those bytes.
    """
    if not m:
        return []
    row_bytes, steps, at = _transpose_plan(m)
    rows = [bytearray() for _ in range(m)]
    for first in range(0, len(masks), 64):
        x = int.from_bytes(b"".join([mask.to_bytes(row_bytes, "little")
                                     for mask in masks[first:first + 64]]),
                           "little")
        for shift, swap in steps:
            t = ((x >> shift) ^ x) & swap
            x ^= t ^ (t << shift)
        tiles = x.to_bytes(64 * row_bytes, "little")
        for row, k in zip(rows, at):
            row += tiles[k:k + 8]
    return [int.from_bytes(row, "little") for row in rows]


@lru_cache(maxsize=4)
def _transpose_plan(m: int) -> tuple[int, tuple[tuple[int, int], ...],
                                     tuple[int, ...]]:
    """Bytes per row, the tile block swaps, and each edge's byte offset."""
    width = -(-m // 64) * 64
    row_bytes = width // 8
    return (row_bytes, _block_swap_steps(64, width),
            tuple(k % 64 * row_bytes + k // 64 * 8 for k in range(m)))


def adjacency(n: int, edge_lanes: list[int],
              ones: int) -> dict[int, list[list[int]]]:
    """Per color, the n x n table of lane ints: [u][v] holds the lanes where
    {u, v} is an edge of that color (0 on the diagonal and partner pairs);
    ones holds every lane of the block."""
    red = [[0] * n for _ in range(n)]
    blue = [[0] * n for _ in range(n)]
    for (u, v), x in zip(edge_list(n), edge_lanes):
        red[u][v] = red[v][u] = x
        blue[u][v] = blue[v][u] = ones ^ x
    return {RED: red, BLUE: blue}


def _far(row_u: list[int], row_v: list[int], need: int) -> int:
    """The lanes of need where u and v have no common neighbor."""
    for x, y in zip(row_u, row_v):
        need &= ~(x & y)
        if not need:
            break
    return need


def covers(n: int, adj: dict[int, list[list[int]]],
           ones: int) -> tuple[dict[tuple[int, int | None], int], int]:
    """solve's branches 1 and 2 on every lane: (claims, residual lanes).

    A claim (c, None) holds the whole-c lanes, whose cover is V in color c;
    a claim (c, u) holds two-stars-c lanes covered by the closed c-stars of
    the partner pair (u, u + 1).  As in solve, color 1 is tried before
    color 2 in each branch, and a lane's pair is its first partner pair
    (u ascending) with no common neighbor in the other color.  The
    residual lanes are the ones neither branch covers.
    """
    pairs = range(0, n, 2)
    critical = {c: [_far(adj[c][u], adj[c][u + 1], ones) for u in pairs]
                for c in COLORS}
    claims: dict[tuple[int, int | None], int] = {}
    rest = ones
    for c in COLORS:
        # V has diameter <= 2 in c: no partner pair is far, nor is any edge
        table, whole = adj[c], rest
        for far in critical[c]:
            whole &= ~far
        for u, v in edge_list(n):
            if not whole:
                break
            need = whole & ~table[u][v]
            if need:
                whole &= ~_far(table[u], table[v], need)
        if whole:
            claims[c, None] = whole
            rest &= ~whole
    for c in COLORS:
        for u, far in zip(pairs, critical[c]):
            far &= rest
            if far:
                claims[flip(c), u] = far
                rest &= ~far
    return claims, rest


def verify(n: int, adj: dict[int, list[list[int]]],
           claims: dict[tuple[int, int | None], int]) -> tuple[int, int]:
    """Re-derive every claimed cover from the edge lanes: (rejected, small).

    A whole-c lane needs V 2-reachable in c: each pair an edge or with a
    common neighbor.  A two-stars lane needs the pair's two closed stars to
    cover V.  It does not re-test the criticality that solve's branch
    tests.  small holds the lanes where neither part has n/2 vertices,
    from a lane-wise count of each star.
    """
    rejected = small = 0
    need = n // 2 - 1  # neighbors of a star center that has n/2 vertices
    for (c, u), lanes in claims.items():
        table = adj[c]
        if u is None:
            for s in range(n):
                for t in range(s + 1, n):
                    miss = lanes & ~table[s][t]
                    for x, y in zip(table[s], table[t]):
                        if not miss:
                            break
                        miss &= ~(x & y)
                    rejected |= miss
            continue
        star_u, star_v = table[u], table[u + 1]
        for w in range(n):
            if w >> 1 != u >> 1:
                rejected |= lanes & ~(star_u[w] | star_v[w])
        small |= lanes & ~(_at_least(star_u, need) | _at_least(star_v, need))
    return rejected, small


def _at_least(row: list[int], count: int) -> int:
    """The lanes in which at least count of the lane ints in row are set."""
    at_least = [-1] + [0] * count  # at_least[j]: j or more set so far
    for x in row:
        if x:
            for j in range(count, 0, -1):
                at_least[j] |= at_least[j - 1] & x
    return at_least[count]


def indices(x: int) -> list[int]:
    """The set lanes of x, ascending."""
    bits = bin(x)[:1:-1]
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out
