"""Monochromatic short-range reachability and critical pairs.

The central relaxation: u 2-reaches v in color c when they are joined by
a color-c edge or share a color-c neighbor *anywhere in the graph*.  A
vertex set all of whose pairs 2-reach each other in c is "2-reachable in
c"; the stricter "diameter <= 2 in c" additionally demands the middle
vertex lie inside the set.  Stars are the workhorse 2-reachable sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import BLUE, RED, ColoredCocktail, flip


def dist_le2(g: ColoredCocktail, c: int, u: int, v: int) -> bool:
    """True iff {u, v} is a color-c edge or u, v share a color-c neighbor.

    The middle vertex may lie anywhere in V -- this is the 2-reachable
    relaxation, not induced distance.
    """
    n = g.n
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range: ({u}, {v}) for n={n}")
    if u == v:
        raise ValueError(f"dist_le2 needs two distinct vertices, got {u} twice")
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

    @property
    def edge_color(self) -> int | None:
        """Color actually carried by the pair (the other color), None if non-edge."""
        return flip(self.color) if self.is_edge else None


def critical_pairs(g: ColoredCocktail, c: int) -> list[CriticalPair]:
    """All pairs u < v at color-c distance > 2, in lexicographic order.

    A critical *edge* of color c necessarily carries the other color; the
    partner pairs are the only possible critical non-edges.
    """
    out = []
    adj = g.adj(c)
    for u in range(g.n):
        au = adj[u]
        for v in range(u + 1, g.n):
            if (au >> v) & 1 or au & adj[v]:
                continue
            out.append(CriticalPair(u, v, c, is_edge=v != (u ^ 1)))
    return out


def star(g: ColoredCocktail, c: int, center: int) -> int:
    """Closed color-c star of a vertex, as a mask: the center plus its c-neighbors."""
    return g.adj(c)[center] | (1 << center)


def _within2(adj: tuple[int, ...], members: int, middles: int) -> bool:
    """Every pair inside members is an edge or has a common neighbor in middles."""
    rest = members
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        rest ^= low
        au = adj[u]
        others = rest & ~au  # the neighbors of u are within 1 already
        while others:
            lov = others & -others
            v = lov.bit_length() - 1
            others ^= lov
            if not au & adj[v] & middles:
                return False
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
    "is_2reachable_set",
    "is_diam2_subset",
    "mono_diam_le2",
    "star",
]
