"""Certified covers of the vertex set by two monochromatic 2-reachable parts.

``solve`` always succeeds: every 2-edge-coloring of a cocktail party
graph admits a cover of V by sets A and B, each 2-reachable in a single
color, and the construction emits a certificate naming which structural
branch produced it: its census ``key``, a ``describe()`` line and a
``check`` that re-derives the cover.  ``check_cover``/``verify_cover``
re-validate a cover from scratch, sharing with the solver only the
reachability primitives, the far rows (``reach.far_rows``) among them.

Branches, tried in order:

1.  one color alone already has diameter <= 2 on all of V;
2.  some partner pair is critical in a color: its two stars in the
    other color cover V;
3.  a critical edge of color 1 and one of color 2 share a vertex: a
    local case analysis around the shared vertex yields two stars
    (cases i, ii, iii and vi) or, in the richest case (c5plus), two
    cyclically-joined 5-part sets;
4.  otherwise the critical edges of the two colors touch disjoint
    vertex sets, and the two complements cover V.

Internal assertions that the mathematics guarantees (branch 3's endpoint
claim, the two neighborhood observations, the common neighbors of the
shared vertex's partner pair) raise
InternalInconsistencyError carrying the compact form of the offending
coloring instead of failing silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Union, get_args

from .graphs import (
    BLUE,
    COLORS,
    RED,
    ColoredCocktail,
    GraphFormatError,
    flip,
    parse_decimal,
    to_compact,
    vertex_list,
    vertex_mask,
    vertex_text,
)
from .reach import (
    far_rows,
    is_2reachable_set,
    is_diam2_subset,
    mono_diam_le2,
    star,
)


class InternalInconsistencyError(RuntimeError):
    """A step the construction's correctness argument guarantees has failed.

    Carries the compact form of the coloring so the failure can be
    replayed verbatim.
    """

    def __init__(self, message: str, g: ColoredCocktail):
        self.graph_compact = to_compact(g)
        super().__init__(f"{message} [coloring {self.graph_compact}]")

    def __reduce__(self):
        # args hold only the formatted message: skip __init__, restore the state
        return type(self).__new__, (type(self), *self.args), self.__dict__


@dataclass(frozen=True)
class WholeVertexSet:
    """V itself has diameter <= 2 in this color; the second part is empty."""

    color: int

    @property
    def key(self) -> str:
        return f"whole-{self.color}"

    def describe(self) -> str:
        return (f"{self.key}: every pair is within distance 2 in color "
                f"{self.color} already")

    def check(self, g: ColoredCocktail, cover: Cover) -> bool:
        """Relies on check_cover's set checks: A = V 2-reachable is diameter <= 2."""
        return (cover.a == (1 << g.n) - 1 and cover.b == 0
                and cover.color_a == self.color == cover.color_b)


@dataclass(frozen=True)
class TwoStars:
    """Stars of a partner pair that is critical in the other color."""

    color: int
    center1: int
    center2: int

    @property
    def key(self) -> str:
        return f"two-stars-{self.color}"

    def describe(self) -> str:
        return (f"{self.key}: color-{self.color} stars of the partner pair "
                f"({self.center1}, {self.center2}), which is critical in the "
                f"other color")

    def check(self, g: ColoredCocktail, cover: Cover) -> bool:
        """Relies on check_cover's set checks for valid cover colors."""
        if cover.color_a != self.color or cover.color_b != self.color:
            return False
        # the partner pair must really be critical in the other color
        other = g.adj(flip(self.color))
        return (self.center2 == (self.center1 ^ 1)
                and not other[self.center1] & other[self.center2]
                and cover.a == star(g, self.color, self.center1)
                and cover.b == star(g, self.color, self.center2))


@dataclass(frozen=True)
class LemmaWitness:
    """The vertices the shared-vertex case analysis revolves around.

    x is the shared vertex of the two critical edges, y the far end of
    the color-1-critical one, q the far end of the color-2-critical one;
    q is forced to equal y_prime, the partner of y.
    """

    x: int
    y: int
    x_prime: int
    y_prime: int
    q: int


@dataclass(frozen=True)
class LemmaStars:
    """Branch-3 outcome where both parts are single stars (cases i, ii, iii, vi)."""

    case: str
    color_a: int
    center_a: int
    color_b: int
    center_b: int
    witness: LemmaWitness

    @property
    def key(self) -> str:
        return f"lemma-{self.case}"

    def describe(self) -> str:
        w = self.witness
        return (f"{self.key}: star of {self.center_a} in color {self.color_a} "
                f"with star of {self.center_b} in color {self.color_b} "
                f"(critical edges share vertex {w.x}; far ends {w.y} and "
                f"{w.y_prime})")

    def check(self, g: ColoredCocktail, cover: Cover) -> bool:
        """Relies on check_cover's set checks for valid cover colors."""
        return (_witness_ok(g, self.witness)
                and cover.a == star(g, self.color_a, self.center_a)
                and cover.color_a == self.color_a
                and cover.b == star(g, self.color_b, self.center_b)
                and cover.color_b == self.color_b)


@dataclass(frozen=True)
class LemmaC5Plus:
    """Branch-3 outcome with two 5-part cyclic blowup sets.

    Each part tuple lists vertex masks in cyclic order; consecutive
    parts are completely joined in the part set's color, every part is
    nonempty, so the whole set has diameter <= 2 in that color.
    """

    parts_a: tuple[int, ...]
    parts_b: tuple[int, ...]
    witness: LemmaWitness

    key = "lemma-c5plus"

    def describe(self) -> str:
        pa = " | ".join(vertex_text(p) for p in self.parts_a)
        pb = " | ".join(vertex_text(p) for p in self.parts_b)
        return (f"{self.key}: cyclic 5-part sets around shared vertex "
                f"{self.witness.x}; A parts [{pa}], B parts [{pb}]")

    def check(self, g: ColoredCocktail, cover: Cover) -> bool:
        """Relies on check_cover's set checks for valid cover colors."""
        return (_witness_ok(g, self.witness)
                and _c5plus_ok(g, cover.color_a, self.parts_a, cover.a)
                and _c5plus_ok(g, cover.color_b, self.parts_b, cover.b))


@dataclass(frozen=True)
class CriticalComplement:
    """A = V minus the color-1-critical edge ends, B likewise for color 2."""

    p: int
    q: int

    key = "critical-complement"

    def describe(self) -> str:
        return (f"{self.key}: drop color-1-critical edge ends "
                f"({vertex_text(self.p)}) for A, color-2-critical ends "
                f"({vertex_text(self.q)}) for B")

    def check(self, g: ColoredCocktail, cover: Cover) -> bool:
        """Relies on check_cover's set checks for the cover's shape.

        p and q must be the unions of each color's far rows: with no far
        partner pair (branch 2), the ends of the critical edges."""
        full = (1 << g.n) - 1
        return (not self.p & self.q
                and cover.a == full & ~self.p and cover.b == full & ~self.q
                and cover.color_a == RED and cover.color_b == BLUE
                and self.p == reduce(or_, far_rows(g, RED))
                and self.q == reduce(or_, far_rows(g, BLUE)))


Certificate = Union[WholeVertexSet, TwoStars, LemmaStars, LemmaC5Plus,
                    CriticalComplement]


@dataclass(frozen=True)
class Cover:
    """Two vertex masks with colors; a.union(b) is claimed to be V."""

    n: int
    a: int
    color_a: int
    b: int
    color_b: int
    certificate: Certificate | None = None


#: Every branch the solver can take, in trial order; census keys.  lemma-iv and
#: lemma-v no longer fire; they keep the v1 report's and the benchmark's keys.
BRANCH_KEYS = (
    "whole-1",
    "whole-2",
    "two-stars-1",
    "two-stars-2",
    "lemma-i",
    "lemma-ii",
    "lemma-iii",
    "lemma-iv",
    "lemma-v",
    "lemma-vi",
    "lemma-c5plus",
    "critical-complement",
)


def branch_key(cert: Certificate) -> str:
    """Census key of the solver branch that produced a certificate."""
    if not isinstance(cert, get_args(Certificate)):
        raise ValueError(f"not a solver certificate: {cert!r}")
    return cert.key


def solve(g: ColoredCocktail) -> Cover:
    """Cover V by two monochromatic 2-reachable sets, with certificate."""
    n = g.n
    full = (1 << n) - 1

    for c in COLORS:
        if mono_diam_le2(g, c):
            return Cover(n, full, c, 0, c, WholeVertexSet(c))

    # A partner pair with no common c-neighbor is critical in c; every
    # other vertex then meets one of the pair in the other color.
    for c in COLORS:
        adj = g.adj(c)
        for u in range(0, n, 2):
            if not adj[u] & adj[u + 1]:
                sc = flip(c)
                return Cover(n, star(g, sc, u), sc, star(g, sc, u + 1), sc,
                             TwoStars(sc, u, u + 1))

    # Branch 2 returned on every critical partner pair: the far rows hold
    # critical edges only, and their union is the mask of those edges' ends.
    red_far, blue_far = far_rows(g, RED), far_rows(g, BLUE)
    p, q = reduce(or_, red_far), reduce(or_, blue_far)
    if p & q:
        # the lexicographically first red-critical edge meeting a
        # blue-critical one, and the first blue-critical edge through it
        u, v = _first_far_edge(red_far, q)
        return _shared_vertex_cover(
            g, (u, v), _first_far_edge(blue_far, (1 << u) | (1 << v)))
    return Cover(n, full & ~p, RED, full & ~q, BLUE, CriticalComplement(p, q))


def _first_far_edge(rows: list[int], meets: int) -> tuple[int, int]:
    """The lexicographically first far pair (u, v), u < v, of the far rows
    with an end in the mask ``meets``; solve calls it only when one exists."""
    for u, row in enumerate(rows):
        hit = row >> u + 1 << u + 1
        if not meets >> u & 1:
            hit &= meets
        if hit:
            return u, (hit & -hit).bit_length() - 1
    raise AssertionError("no far pair meets the mask")


def _shared_vertex_cover(g: ColoredCocktail, e: tuple[int, int],
                         f: tuple[int, int]) -> Cover:
    """Branch 3: the ends of a color-1-critical edge e and of a
    color-2-critical edge f, sharing a vertex."""
    n = g.n
    x, y = e if e[0] in f else e[::-1]
    q = f[0] + f[1] - x
    # col(x,y)=2 and col(x,q)=1 leave the partner of y as the only
    # placement for the far end of f: any other vertex would close a
    # 2-path killing one of the criticalities.
    if q != (y ^ 1):
        raise InternalInconsistencyError(
            "a color-2-critical edge through the shared vertex must end at "
            "the partner of the color-1-critical edge's far end", g)
    xp, yp = x ^ 1, y ^ 1
    wit = LemmaWitness(x, y, xp, yp, q)

    x_set = g.blue[x] & ~(1 << y)
    y_set = g.blue[y] & ~(g.blue[x] | (1 << x) | (1 << xp))
    if g.red[x] != (y_set | (1 << yp)):
        raise InternalInconsistencyError(
            "the red neighborhood of the shared vertex must be exactly "
            "Y plus the partner of y", g)
    if x_set & ~g.red[yp]:
        raise InternalInconsistencyError(
            "X must lie inside the red neighborhood of the partner of y", g)

    # (i)/(ii): one red star at y' picks up X, one blue star at y the rest.
    if (g.blue[xp] >> y) & 1:
        return Cover(n, star(g, RED, yp), RED, star(g, BLUE, y), BLUE,
                     LemmaStars("i", RED, yp, BLUE, y, wit))
    if (g.red[xp] >> yp) & 1:
        return Cover(n, star(g, RED, yp), RED, star(g, BLUE, y), BLUE,
                     LemmaStars("ii", RED, yp, BLUE, y, wit))

    # Now col(x',y)=1 and col(x',y')=2; split X and Y by their color to x'.
    x1, x2 = x_set & g.red[xp], x_set & g.blue[xp]
    y1, y2 = y_set & g.red[xp], y_set & g.blue[xp]
    # red(x) = Y + {y'} (checked above) and blue(x) = X + {y}, so x and x'
    # have the common red neighbors y1 and the common blue ones x2.  Branch
    # 2 returned unless every partner pair has both, so neither is empty.
    if not (y1 and x2):
        raise InternalInconsistencyError(
            "the shared vertex and its partner must have a common red "
            "neighbor in Y and a common blue neighbor in X", g)
    if not x1:
        return Cover(n, star(g, BLUE, xp), BLUE, star(g, BLUE, y), BLUE,
                     LemmaStars("iii", BLUE, xp, BLUE, y, wit))
    if not y2:
        return Cover(n, star(g, RED, xp), RED, star(g, RED, yp), RED,
                     LemmaStars("vi", RED, xp, RED, yp, wit))

    # All four pieces nonempty: two 5-part cyclic blowups, one per color.
    parts_a = (1 << x, 1 << y, y2, 1 << xp, x2)
    parts_b = (1 << x, 1 << yp, x1, 1 << xp, y1)
    a = (1 << x) | (1 << y) | y2 | (1 << xp) | x2
    b = (1 << x) | (1 << yp) | x1 | (1 << xp) | y1
    return Cover(n, a, BLUE, b, RED, LemmaC5Plus(parts_a, parts_b, wit))


def check_cover(g: ColoredCocktail, cover: Cover,
                require_diam2: bool = False) -> str | None:
    """Re-validate a cover from scratch; None if good, else a reason code.

    Reason codes: "bad shape", "not a cover", "A not 2-reachable",
    "B not 2-reachable", "A not diameter-2", "B not diameter-2",
    "certificate mismatch".
    """
    n = g.n
    full = (1 << n) - 1
    if cover.n != n or (cover.a | cover.b) & ~full:
        return "bad shape"
    if cover.color_a not in COLORS or cover.color_b not in COLORS:
        return "bad shape"
    if (cover.a | cover.b) != full:
        return "not a cover"
    # in-set middles are middles in V: a diameter-2 part is 2-reachable
    within2, name = ((is_diam2_subset, "diameter-2") if require_diam2
                     else (is_2reachable_set, "2-reachable"))
    if not within2(g, cover.color_a, cover.a):
        return f"A not {name}"
    if not within2(g, cover.color_b, cover.b):
        return f"B not {name}"
    if cover.certificate is not None and not cover.certificate.check(g, cover):
        return "certificate mismatch"
    return None


def verify_cover(g: ColoredCocktail, cover: Cover,
                 require_diam2: bool = False) -> bool:
    """True when check_cover finds nothing wrong."""
    return check_cover(g, cover, require_diam2=require_diam2) is None


def _witness_ok(g: ColoredCocktail, wit: LemmaWitness) -> bool:
    x, y, xp, yp = wit.x, wit.y, wit.x_prime, wit.y_prime
    if xp != (x ^ 1) or yp != (y ^ 1) or wit.q != yp:
        return False
    if (1 << y) & ((1 << x) | (1 << xp)):
        return False
    # the two critical edges carry the opposite colors
    return g.color_of(x, y) == BLUE and g.color_of(x, yp) == RED


def _c5plus_ok(g: ColoredCocktail, color: int, parts: tuple[int, ...],
               members: int) -> bool:
    """Five nonempty pairwise-disjoint parts, uniting to the set,
    consecutive parts completely joined in the color (cyclically).

    Exactly five: a blown-up 5-cycle has diameter <= 2, a longer cycle
    need not."""
    if len(parts) != 5:
        return False
    union = 0
    for part in parts:
        if not part or union & part:
            return False
        union |= part
    if union != members:
        return False
    adj = g.adj(color)
    for i in range(5):
        left, right = parts[i], parts[(i + 1) % 5]
        m = left
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            if right & ~adj[u]:
                return False
    return True


def format_cover(cover: Cover) -> str:
    """Two-line text form: 'A <color>: v v ...' then the same for B."""
    a = " ".join(str(v) for v in vertex_list(cover.a))
    b = " ".join(str(v) for v in vertex_list(cover.b))
    return (f"A {cover.color_a}:{' ' + a if a else ''}\n"
            f"B {cover.color_b}:{' ' + b if b else ''}\n")


def parse_cover(text: str, n: int) -> Cover:
    """Parse the two-line cover form (certificate-less)."""
    fields: dict[str, tuple[int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, rest = line.partition(":")
        parts = head.split()
        if not sep or len(parts) != 2 or parts[0] not in ("A", "B"):
            raise GraphFormatError(
                f"expected 'A <color>: vertices...' or 'B <color>: ...', got {line!r}",
                line=lineno)
        label = parts[0]
        if label in fields:
            raise GraphFormatError(f"duplicate part {label}", line=lineno)
        try:
            color = parse_decimal(parts[1])
        except ValueError:
            raise GraphFormatError(f"bad color {parts[1]!r}", line=lineno) from None
        if color not in COLORS:
            raise GraphFormatError(f"color must be 1 or 2, got {color}", line=lineno)
        try:
            verts = [parse_decimal(tok) for tok in rest.split()]
        except ValueError:
            raise GraphFormatError(f"bad vertex list {rest!r}", line=lineno) from None
        for v in verts:
            if not 0 <= v < n:
                raise GraphFormatError(f"vertex {v} out of range for n={n}",
                                       line=lineno)
        fields[label] = (vertex_mask(verts), color)
    if "A" not in fields or "B" not in fields:
        raise GraphFormatError("cover needs both an A line and a B line")
    (a, ca), (b, cb) = fields["A"], fields["B"]
    return Cover(n, a, ca, b, cb)
