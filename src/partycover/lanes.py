"""solve's four branches bit-sliced over a block of colorings.

Lane i of every int here stands for coloring i of a block (Biham, *A
fast new DES implementation in software*, FSE 1997): an edge's lane int
has bit i set when coloring i colors that edge red.  ``covers`` settles
branch 1 (one color has diameter <= 2 on V), branch 2 (a partner pair is
critical in one color) and branch 4 (the critical edges of the two
colors have disjoint ends) for every lane at once, from one far-edge
pass per color, and hands the lanes left to ``lemmas``, which settles
branch 3 (a red-critical and a blue-critical edge share a vertex) from
the same far edges.  Each claim names two monochromatic parts, and
``verify`` re-derives every claimed cover from the edge lanes.  The
lanes where branch 3 would raise InternalInconsistencyError are left to
solve.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_

from .graphs import BLUE, COLORS, RED, _block_swap_steps, edge_list, flip

#: Claimed covers: each claim (key, color_a, a, color_b, b) maps to the
#: lanes it covers, where key is solve's census key and the cover is part
#: a in color_a with part b in color_b.  a and b hold one lane int per
#: vertex, cut to the claim's lanes: under a key in _STARS the part's
#: one-hot center, whose closed star is the part, and otherwise the
#: part's members (whole-c: V and the empty set).
Claims = dict[tuple, int]

#: The census keys whose claims name star centers.
_STARS = frozenset({"two-stars-1", "two-stars-2", "lemma-i", "lemma-ii",
                    "lemma-iii", "lemma-vi"})


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
    """The lanes of need where the rows share no set entry: where u and v
    have no common neighbor, or none among the middles a row is cut to."""
    for x, y in zip(row_u, row_v):
        need ^= need & x & y  # no complement: a negative operand costs more
        if not need:
            break
    return need


def covers(n: int, adj: dict[int, list[list[int]]], ones: int
           ) -> tuple[Claims, int]:
    """solve's four branches on every lane: (claims, failed).

    One pass per color c finds, on the lanes still unclaimed with no far
    c partner pair, the lanes where each edge (edge_list order) is far in
    c.  The whole-c claim holds the lanes with no far c edge either,
    whose cover is V in color c.  A two-stars-c claim holds the lanes
    covered by the closed c-stars of one partner pair.  As in solve,
    color 1 is tried before color 2 in each branch, and a lane's pair is
    its first partner pair (u ascending) with no common neighbor in the
    other color.

    The residual lanes, which neither branch covers, have no far partner
    pair, so their c-far edges are the c-critical edges.  On them p[v]
    holds the lanes where v ends a red-critical edge and q[v] the same for
    blue.  The residual lanes where no vertex is in both get the one
    critical-complement claim, A = V - p in red and B = V - q in blue.
    On the others the critical edges share an end, and lemmas claims
    them or reports them failed.
    """
    pairs = range(0, n, 2)
    edges = edge_list(n)
    critical = {c: [_far(adj[c][u], adj[c][u + 1], ones) for u in pairs]
                for c in COLORS}
    paired = {c: reduce(or_, critical[c]) for c in COLORS}
    claims: Claims = {}
    far = ([], [])
    rest = ones
    for c, far_c in zip(COLORS, far):
        table, other = adj[c], adj[flip(c)]
        live = rest ^ (rest & paired[c])
        if not live:
            continue
        whole = live
        for u, v in edges:
            # an edge is not a c-edge where it has the other color
            need = live & other[u][v]
            x = _far(table[u], table[v], need) if need else 0
            far_c.append(x)
            whole ^= whole & x
        if whole:
            claims[f"whole-{c}", c, (whole,) * n, c, (0,) * n] = whole
            rest ^= whole
    for c in COLORS:
        s = flip(c)
        for u, x in zip(pairs, critical[c]):
            x &= rest
            if x:
                head, tail = (0,) * u, (0,) * (n - u - 2)
                claims[f"two-stars-{s}", s, head + (x, 0) + tail,
                       s, head + (0, x) + tail] = x
                rest ^= x
    if not rest:
        return claims, 0
    # a lane with far edges in both passes has no far partner pair and is
    # neither whole-1 nor whole-2: it is residual, so meet needs no cut
    p, q = ([0] * n, [0] * n)
    for (u, v), *xs in zip(edges, *far):
        for row, x in zip((p, q), xs):
            row[u] |= x
            row[v] |= x
    meet = reduce(or_, [x & y for x, y in zip(p, q)])
    found = rest ^ meet
    if found:
        a, b = (tuple(found ^ (found & x) for x in row) for row in (p, q))
        claims["critical-complement", RED, a, BLUE, b] = found
    more, failed = lemmas(n, adj, far, q, meet)
    claims.update(more)
    return claims, failed


def lemmas(n: int, adj: dict[int, list[list[int]]],
           far: tuple[list[int], ...], blue_ends: list[int],
           left: int) -> tuple[Claims, int]:
    """solve's branch 3 on the lanes covers leaves: (claims, failed).

    far and blue_ends are covers' per-edge far lanes and its q, the
    blue far-edge ends per vertex, of the same block.  In each lane e is
    the first red-critical edge (edge_list order) with an end on a
    blue-critical edge, f the first blue-critical edge through an end of
    e, x their shared end, y the other end of e and q the other end of f,
    as in solve.  xs[v] and ys[v] hold the lanes where x = v and y = v;
    the rows of x, y, x' and y' come from them, and from those the sets
    and the case split of cover._shared_vertex_cover, each a lane int per
    vertex.  failed holds the lanes where one of its
    InternalInconsistencyError conditions holds; they make no claim.  A
    star case claims its two one-hot centers, lemma-c5plus its two
    5-part blowups' members (see Claims).
    """
    if not left:
        return {}, 0
    edges = edge_list(n)
    red_far, blue_far = far
    e_ends = _first_edge_ends(edges, red_far, blue_ends, left)
    f_ends = _first_edge_ends(edges, blue_far, e_ends, left)
    # every lane set below lies in left, so lanes are cleared as x ^ (x & y),
    # or x ^ y where y lies in x: a complement copies a block-wide negative int
    xs = [e & f for e, f in zip(e_ends, f_ends)]
    ys = [e ^ x for e, x in zip(e_ends, xs)]
    xps = [xs[v ^ 1] for v in range(n)]
    yps = [ys[v ^ 1] for v in range(n)]
    # f must end at y': q = v with y = v ^ 1
    bad = left ^ reduce(or_, [(f ^ x) & yp
                              for f, x, yp in zip(f_ends, xs, yps)])
    red, blue = adj[RED], adj[BLUE]
    blue_x, red_x, blue_y = (_neighbors(blue, xs), _neighbors(red, xs),
                             _neighbors(blue, ys))
    red_xp, blue_xp, red_yp = (_neighbors(red, xps), _neighbors(blue, xps),
                               _neighbors(red, yps))
    x_set = [b ^ (b & y) for b, y in zip(blue_x, ys)]
    y_set = [b ^ (b & (bx | x | xp))
             for b, bx, x, xp in zip(blue_y, blue_x, xs, xps)]
    # red(x) = Y + {y'} and X lies in red(y'), as solve checks; that x,
    # x', y, y', X and Y partition V follows from red(x) = Y + {y'}.
    for rx, sx, sy, yp, ryp in zip(red_x, x_set, y_set, yps, red_yp):
        bad |= rx ^ (sy | yp) | sx ^ (sx & ryp)
    ok = left ^ bad
    case_i = ok & reduce(or_, [y & b for y, b in zip(ys, blue_xp)])
    case_ii = (ok ^ case_i) & reduce(or_, [yp & r
                                           for yp, r in zip(yps, red_xp)])
    x1 = [s & r for s, r in zip(x_set, red_xp)]
    x2 = [s & b for s, b in zip(x_set, blue_xp)]
    y1 = [s & r for s, r in zip(y_set, red_xp)]
    y2 = [s & b for s, b in zip(y_set, blue_xp)]
    rest = ok ^ case_i ^ case_ii
    # x and x' have the common red neighbors y1 and the blue ones x2
    common = reduce(or_, y1) & reduce(or_, x2)
    bad |= rest ^ (rest & common)
    rest &= common
    case_iii = rest ^ (rest & reduce(or_, x1))
    rest ^= case_iii
    case_vi = rest ^ (rest & reduce(or_, y2))
    c5plus = rest ^ case_vi
    # the two 5-part blowups: x, y, Y2, x', X2 in blue, x, y', X1, x', Y1 in red
    part_a = [x | y | xp | s | t for x, y, xp, s, t in zip(xs, ys, xps, y2, x2)]
    part_b = [x | y | xp | s | t for x, y, xp, s, t in zip(xs, yps, xps, x1, y1)]
    claims: Claims = {}
    for key, found, color_a, a, color_b, b in (
            ("lemma-i", case_i, RED, yps, BLUE, ys),
            ("lemma-ii", case_ii, RED, yps, BLUE, ys),
            ("lemma-iii", case_iii, BLUE, xps, BLUE, ys),
            ("lemma-vi", case_vi, RED, xps, RED, yps),
            ("lemma-c5plus", c5plus, BLUE, part_a, RED, part_b)):
        if found:
            claims[key, color_a, tuple(v & found for v in a),
                   color_b, tuple(v & found for v in b)] = found
    return claims, bad


def _first_edge_ends(edges: tuple[tuple[int, int], ...], far: list[int],
                     meets: list[int], lanes: int) -> list[int]:
    """Per vertex, the lanes of lanes whose first far edge (edge_list
    order) with an end in meets ends at it; meets[v] holds the lanes where
    v is in the set."""
    ends = [0] * len(meets)
    for (u, v), x in zip(edges, far):
        hit = x & lanes & (meets[u] | meets[v])
        if hit:
            ends[u] |= hit
            ends[v] |= hit
            lanes ^= hit
            if not lanes:
                break
    return ends


def _neighbors(table: list[list[int]], hot: list[int]) -> list[int]:
    """Per vertex w, the lanes where w is a table-neighbor of the vertex
    that the one-hot hot (a lane int per vertex) picks in each lane."""
    row = [0] * len(table)
    for h, neighbors in zip(hot, table):
        if h:
            row = [r | h & x for r, x in zip(row, neighbors)]
    return row


def verify(n: int, adj: dict[int, list[list[int]]],
           claims: Claims) -> tuple[int, int, int]:
    """Re-derive every claimed cover from the edge lanes: (rejected, small,
    wide).

    A claimed lane needs each part 2-reachable in its color: each pair of
    members an edge or with a common neighbor.  A star part is re-built
    here from its center as the closed star, which is within 2 through
    the center.  Then the two parts must cover V.  It does not re-test
    the criticality or the case conditions that solve tests.  small holds
    the lanes where neither part has n/2 vertices, from a lane-wise count
    of each part.  wide holds the lanes where a members part, V included,
    has a pair with no edge and no middle inside the part: the stage 1 of
    the diameter-2 search, which a closed star always passes.  All of V's
    middles lie in V, so a whole-c lane is wide only where it is rejected.
    """
    rejected = small = wide = 0
    half = n // 2
    for (key, color_a, a, color_b, b), lanes in claims.items():
        stars = key in _STARS
        parts = []
        for color, members in ((color_a, a), (color_b, b)):
            table = adj[color]
            if stars:
                members = [h | x for h, x in zip(members,
                                                 _neighbors(table, members))]
            else:
                far, out = _unreached(table, members)
                rejected |= far
                wide |= out
            parts.append(members)
        covered = short = lanes
        for x, y in zip(*parts):
            covered &= x | y
        rejected |= lanes ^ covered
        # short: the lanes where no part so far has n/2 vertices
        for members in parts:
            short ^= _at_least(members, half, short)
        small |= short
    return rejected, small, wide


def _unreached(table: list[list[int]], members: list[int]) -> tuple[int, int]:
    """(far, out): the lanes where two members have no edge and no common
    neighbor in table (far), and the lanes where two members have no edge
    and no common neighbor among the members (out).

    members[v] holds the lanes where v is a member.  A pair with no middle
    anywhere has none among the members either, so far lies in out, and
    only the lanes of out look for a middle anywhere.
    """
    far = out = 0
    for s, (row_s, here) in enumerate(zip(table, members)):
        if not here:
            continue
        inner = [x & m for x, m in zip(row_s, members)]  # middles in the set
        for t in range(s + 1, len(table)):
            miss = here & members[t]
            miss ^= miss & row_s[t]  # no complement, as in _far
            if miss:
                miss = _far(inner, table[t], miss)
                out |= miss
                far |= miss and _far(row_s, table[t], miss)
    return far, out


def _at_least(row: list[int], count: int, lanes: int) -> int:
    """The lanes of lanes in which at least count of the lane ints in row
    are set."""
    at_least = [lanes] + [0] * count  # at_least[j]: j or more set so far
    for x in row:
        if x:
            for j in range(count, 0, -1):
                at_least[j] |= at_least[j - 1] & x
            if at_least[count] == lanes:
                break
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
