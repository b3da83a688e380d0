"""Largest monochromatic 2-reachable subsets, and the matching lower bound.

A set is 2-reachable in color c exactly when it is a clique of the
auxiliary graph joining u and v whenever their color-c distance is at
most 2, so the extremal question is a maximum clique computation.  Both
searches are branch-and-bound over bitmasks with the greedy-coloring
bound of Tomita and Seki, and both return the clique they find.  The
witness is the lexicographically smallest maximum set (smallest sorted
vertex list): it is built lowest vertex first from a carried maximum
clique, searching again only where the next vertex is not in it, and
that search tries its low vertices first.  ``brute_max_2reachable`` is
the independent subset-enumeration oracle for small n.

``build_sharp_example`` produces the coloring showing n/2 cannot be
improved: both colors peak at exactly n/2 because every partner pair is
critical in both colors and any n/2 + 1 vertices contain a partner pair.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from .graphs import BLUE, RED, ColoredCocktail, from_red_set, vertex_mask
from .reach import is_2reachable_set

#: brute_max_2reachable enumerates all 2**n subsets; refuse beyond this.
BRUTE_FORCE_MAX_N = 16


def reach_adjacency(g: ColoredCocktail, c: int) -> tuple[int, ...]:
    """Aux-graph neighbor masks: u ~ v iff color-c distance <= 2 (u != v)."""
    adj = g.adj(c)
    out = []
    for u, au in enumerate(adj):
        mask = au
        rest = au
        while rest:  # everything one color-c step past a neighbor of u
            low = rest & -rest
            mask |= adj[low.bit_length() - 1]
            rest ^= low
        out.append(mask & ~(1 << u))
    return tuple(out)


def _color_sort(adj: tuple[int, ...], cand: int) -> tuple[list[int], list[int]]:
    """Greedy-color the candidates; returns vertices in nondecreasing color
    order with their color numbers (an upper bound on the clique they start)."""
    order: list[int] = []
    bounds: list[int] = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail &= ~adj[v] & ~low
            rest ^= low
            order.append(v)
            bounds.append(color)
    return order, bounds


def _max_clique(adj: tuple[int, ...], cand: int) -> tuple[int, int]:
    """(size, mask) of a maximum clique inside the candidate mask."""
    best = 0
    best_mask = 0

    def expand(clique: int, size: int, cand: int) -> None:
        nonlocal best, best_mask
        if not cand:
            if size > best:
                best, best_mask = size, clique
            return
        order, bounds = _color_sort(adj, cand)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            expand(clique | 1 << v, size + 1, cand & adj[v])
            cand &= ~(1 << v)

    expand(0, 0, cand)
    return best, best_mask


def _find_clique(adj: tuple[int, ...], cand: int, need: int) -> int | None:
    """Mask of a clique of exactly ``need`` vertices inside cand, or None.

    Only vertices whose greedy color is at least ``need`` can start one
    (the rest use fewer than ``need`` colors, so any such clique holds one
    of them); they are tried lowest vertex first, so low cliques come back.
    """
    if need <= 0:
        return 0
    order, bounds = _color_sort(adj, cand)
    for v in sorted(order[bisect_left(bounds, need):]):
        found = _find_clique(adj, cand & adj[v], need - 1)
        if found is not None:
            return found | 1 << v
        cand &= ~(1 << v)
    return None


def max_2reachable(g: ColoredCocktail, c: int) -> tuple[int, int]:
    """(size, witness mask) of a largest color-c 2-reachable subset.

    The witness is the lexicographically smallest maximum set.  It is
    built lowest vertex first while carrying a maximum clique that
    completes the vertices taken so far: a vertex in that clique is taken
    at once, any other is taken only if ``_find_clique`` returns a new
    completion through it, and is dropped otherwise.
    """
    adj = reach_adjacency(g, c)
    cand = (1 << g.n) - 1
    size, clique = _max_clique(adj, cand)
    members = 0
    need = size
    while need:  # invariant: clique & cand is a clique of need vertices
        low = cand & -cand
        v = low.bit_length() - 1
        if not clique & low:
            found = _find_clique(adj, cand & adj[v], need - 1)
            if found is None:
                cand ^= low
                continue
            clique = found | low
        members |= low
        cand &= adj[v]
        need -= 1
    return size, members


def brute_max_2reachable(g: ColoredCocktail, c: int,
                         max_n: int = BRUTE_FORCE_MAX_N) -> int:
    """Size of a largest color-c 2-reachable subset by direct enumeration.

    The independent oracle for max_2reachable: scans subsets in
    decreasing size, no clique machinery involved.  Refuses n > max_n.
    """
    n = g.n
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the brute-force bound {max_n}; pass max_n to override")
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            if is_2reachable_set(g, c, vertex_mask(combo)):
                return size
    return 0  # unreachable: singletons are always 2-reachable


def build_sharp_example(n: int) -> ColoredCocktail:
    """The coloring with no color-c 2-reachable set larger than n/2.

    Split the vertices into evens and odds; pairs within a side are red,
    cross pairs (other than the partner pairs, which are all cross) are
    blue.  Red then splits into two cliques with no 2-paths between
    them, and in blue every partner pair has no common neighbor, so both
    colors peak at n/2.
    """
    if n % 2 or n < 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    red_pairs = [
        (u, v)
        for u in range(n) for v in range(u + 1, n)
        if (u ^ v) & 1 == 0
    ]
    return from_red_set(n, red_pairs)


__all__ = [
    "BRUTE_FORCE_MAX_N",
    "brute_max_2reachable",
    "build_sharp_example",
    "max_2reachable",
    "reach_adjacency",
]
