"""Monochromatic short-range reachability and critical pairs.

The central relaxation: u 2-reaches v in color c when they are joined by
a color-c edge or share a color-c neighbor *anywhere in the graph*.  A
vertex set all of whose pairs 2-reach each other in c is "2-reachable in
c"; the stricter "diameter <= 2 in c" additionally demands the middle
vertex lie inside the set.  Stars are the workhorse 2-reachable sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import BLUE, RED, ColoredCocktail, _check_pair


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

    Each u clears the later members it still needs one middle at a time:
    for the highest needed v, the highest middle w in adj[u] & middles &
    adj[v] is a common neighbor of u and every neighbor of w, so all of
    adj[w] is struck from the need mask at once (no such w means {u, v}
    is far).  v itself is struck explicitly, so each step clears at least
    one bit and the loop ends even on an asymmetric ``validate=False``
    table.  A vertex costs about log(deg) steps, not one per far pair.

    With ``far`` None the walk returns False at the first far pair.  Given
    a list of one zero row per vertex, it sets bit v of row u and bit u of
    row v for every far pair {u, v} and walks on.
    """
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
