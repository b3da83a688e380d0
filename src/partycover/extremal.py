"""Largest monochromatic 2-reachable subsets, and the matching lower bound.

A set is 2-reachable in color c exactly when it is a clique of the
auxiliary graph joining u and v whenever their color-c distance is at
most 2, so the extremal question is a maximum clique computation.
``reach_adjacency`` builds that graph as one boolean square: the color-c
rows packed side by side in one int, one shift, mask and multiply per
middle vertex.  One search answers every question asked of that graph:
``_find_clique`` returns a clique of at least a given size, or None,
by branch-and-bound over bitmasks with the greedy-coloring bound of
Tomita and Seki.  At every node it first moves the candidates adjacent
to all other candidates into the clique in one step; the auxiliary
graphs of near-extremal colorings are so dense that most candidates are
of that kind, and the search branches only over the rest.  The maximum
is found by growing each clique it returns to a maximal one and asking
for one vertex more, until no larger clique exists.  The witness is the
lexicographically smallest maximum set (smallest sorted vertex list): it
is built lowest vertex first from a carried maximum clique, searching
again only where the next vertex is not in it, and that search tries its
low vertices first.  Each step asks only whether some clique of the
needed size goes through the next vertex, so which clique a search
returns, the absorbed one included, does not change the witness.
``brute_max_2reachable`` is the independent subset-enumeration oracle
for small n.

``build_sharp_example`` produces the coloring showing n/2 cannot be
improved: both colors peak at exactly n/2 because every partner pair is
critical in both colors and any n/2 + 1 vertices contain a partner pair.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from .graphs import BLUE, RED, ColoredCocktail, from_red_set, vertex_list, vertex_mask
from .reach import is_2reachable_set

#: brute_max_2reachable enumerates all 2**n subsets; refuse beyond this.
BRUTE_FORCE_MAX_N = 16


def reach_adjacency(g: ColoredCocktail, c: int) -> tuple[int, ...]:
    """Aux-graph neighbor masks: u ~ v iff color-c distance <= 2 (u != v).

    Row u is ``adj[u] | OR(adj[w] for w in adj[u])`` minus u, the boolean
    square of the color-c table plus the table itself.  The rows lie in
    one int, row u at bit u * n, and the square is taken one middle w at
    a time: ``table >> w & col`` (col has one bit at the start of each
    row) holds bit u * n exactly where adj[u] holds w, that is column w,
    and multiplying it by adj[w] puts adj[w] into each of those rows.
    A row slot is n bits wide and adj[w] < 2**n, so the product has no
    carries, and no symmetry of the table is assumed.
    """
    adj = g.adj(c)
    n = g.n
    table = 0
    for row in reversed(adj):
        table = table << n | row
    col = ((1 << n * n) - 1) // ((1 << n) - 1)  # bit u * n for every u < n
    square = table
    for w, row in enumerate(adj):
        square |= (table >> w & col) * row
    full = (1 << n) - 1
    return tuple(square >> u * n & full & ~(1 << u) for u in range(n))


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


def _universal(adj: tuple[int, ...], cand: int) -> int:
    """Vertices of cand adjacent to every other vertex of cand.

    They are pairwise adjacent, so they form a clique, and each clique of
    the rest of cand stays one with all of them added.
    """
    univ = 0
    rest = cand
    while rest:
        low = rest & -rest
        if cand & ~adj[low.bit_length() - 1] == low:
            univ |= low
        rest ^= low
    return univ


def _find_clique(adj: tuple[int, ...], cand: int, need: int) -> int | None:
    """Mask of a clique of at least ``need`` vertices inside cand, or None.

    The universal vertices U of cand (``_universal``) extend every clique
    of the rest, so all of them are returned when there are at least
    ``need``, and otherwise ``need - |U|`` more are searched for among
    the rest.  There only vertices whose greedy color is at least that
    many can start one (the rest use fewer colors, so any such clique
    holds one of them); they are tried lowest vertex first.
    """
    if need <= 0:
        return 0
    univ = _universal(adj, cand)
    have = univ.bit_count()
    if have >= need:
        return univ
    need -= have
    cand ^= univ
    order, bounds = _color_sort(adj, cand)
    for v in sorted(order[bisect_left(bounds, need):]):
        found = _find_clique(adj, cand & adj[v], need - 1)
        if found is not None:
            return found | univ | 1 << v
        cand &= ~(1 << v)
    return None


def max_2reachable(g: ColoredCocktail, c: int) -> tuple[int, int]:
    """(size, witness mask) of a largest color-c 2-reachable subset.

    The maximum: grow a clique to a maximal one and ask ``_find_clique``
    for one vertex more, until it finds none; that last call is the
    optimality proof.  The witness is the lexicographically smallest
    maximum set.  It is built lowest vertex first while carrying a
    maximum clique that completes the vertices taken so far: a vertex in
    that clique is taken at once, any other is taken only if
    ``_find_clique`` returns a new completion through it, and is dropped
    otherwise.
    """
    adj = reach_adjacency(g, c)
    cand = (1 << g.n) - 1
    found: int | None = 0
    while found is not None:  # grow found to a maximal clique, ask for one more
        clique = found
        common = cand
        for u in vertex_list(clique):
            common &= adj[u]
        while common:
            low = common & -common
            clique |= low
            common &= adj[low.bit_length() - 1]
        size = clique.bit_count()
        found = _find_clique(adj, cand, size + 1)
    members = 0
    need = size
    while need:  # invariant: clique & cand holds a clique of >= need vertices
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
