"""2-edge-colored cocktail party graphs over bitmask adjacency tables.

A cocktail party graph on an even number n of vertices is the complete
graph minus a perfect matching.  Vertices are the integers 0..n-1 and the
deleted matching is fixed once and for all: the partner of v is v XOR 1,
so the non-adjacent pairs are {0,1}, {2,3}, ...  Every other pair is an
edge and carries exactly one of two colors, 1 (red) or 2 (blue).

Adjacency is stored as one integer bitmask per vertex and color, which is
the working currency of the whole package: vertex sets are plain Python
ints with bit v standing for vertex v.

Text format (one graph per file or string):

    line 1:             n
    every other line:   u v c        with 0 <= u < v < n and c in {1, 2}
    comments:           lines starting with '#'

Every non-partner pair must appear exactly once; partner pairs must not
appear.  A compact one-line form ``n:HEX`` is also accepted and emitted:
n is plain ASCII decimal digits, and HEX encodes the red-edge bitmask
over the fixed edge ordering (lexicographic on (u, v) with u < v, partner
pairs skipped), written as little-endian hex -- character i holds
red-edge bits 4i..4i+3, lowercase 0-9a-f, exactly ceil(m/4) characters
for m = n(n-2)/2 edges.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, Iterator

RED = 1
BLUE = 2
COLORS = (RED, BLUE)

#: Largest n accepted by exhaustive enumeration unless overridden
#: (n = 8 already means 2**24 colorings).
ENUMERATION_MAX_N = 8


class GraphFormatError(ValueError):
    """Malformed or invariant-violating graph input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def flip(color: int) -> int:
    """The other color: flip(1) = 2, flip(2) = 1."""
    if color not in (RED, BLUE):
        raise ValueError(f"color must be 1 or 2, got {color!r}")
    return 3 - color


def partner(v: int, n: int) -> int:
    """The unique vertex non-adjacent to v (pairing v <-> v XOR 1)."""
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")
    return v ^ 1


def num_edges(n: int) -> int:
    """Number of edges of the cocktail party graph: n(n-2)/2."""
    return n * (n - 2) // 2


#: Bound on the n-indexed edge-table caches: each entry holds O(n**2) items.
EDGE_CACHE_SIZE = 16


@lru_cache(maxsize=EDGE_CACHE_SIZE)
def edge_list(n: int) -> tuple[tuple[int, int], ...]:
    """All non-partner pairs (u, v), u < v, in the fixed lexicographic order."""
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    return tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if v != (u ^ 1)
    )


@lru_cache(maxsize=EDGE_CACHE_SIZE)
def edge_index(n: int) -> dict[tuple[int, int], int]:
    """Inverse of edge_list: normalized pair -> position in the edge ordering."""
    return {e: k for k, e in enumerate(edge_list(n))}


def vertex_mask(vertices: Iterable[int]) -> int:
    """Bitmask with the given vertex bits set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertex_list(mask: int) -> list[int]:
    """Sorted vertices of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def vertex_text(mask: int) -> str:
    """Sorted vertices of a bitmask, space-separated; '-' when empty."""
    return " ".join(str(v) for v in vertex_list(mask)) or "-"


def parse_decimal(text: str) -> int:
    """int() of ASCII decimal digits only (no sign, space, '_'); else ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)  # raises past int()'s digit limit too


class ColoredCocktail:
    """A 2-edge-colored cocktail party graph; immutable after construction.

    ``red[v]`` / ``blue[v]`` are the color-1 / color-2 neighbor masks of v.
    Invariants (checked on construction unless ``validate=False``):
    symmetry per color, no loops, the two colors partition the edge set,
    and each vertex sees everything except itself and its partner.
    """

    __slots__ = ("n", "red", "blue")

    def __init__(self, n: int, red: Iterable[int], blue: Iterable[int],
                 validate: bool = True):
        self.n = n
        self.red = tuple(red)
        self.blue = tuple(blue)
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = self.n
        if n < 2 or n % 2:
            raise ValueError(f"n must be even and >= 2, got {n}")
        if len(self.red) != n or len(self.blue) != n:
            raise ValueError("adjacency tables must have one mask per vertex")
        full = (1 << n) - 1
        for v in range(n):
            r, b = self.red[v], self.blue[v]
            if (r | b) & ~full:
                raise ValueError(f"vertex {v}: neighbor bits out of range")
            if (r | b) >> v & 1:
                raise ValueError(f"vertex {v}: loop")
            if r & b:
                raise ValueError(f"vertex {v}: edge in both colors")
            expected = full & ~(1 << v) & ~(1 << (v ^ 1))
            if (r | b) != expected:
                raise ValueError(
                    f"vertex {v}: colors must partition all non-partner pairs")
        for u in range(n):
            for adj in (self.red, self.blue):
                m = adj[u]
                while m:
                    low = m & -m
                    v = low.bit_length() - 1
                    if not (adj[v] >> u) & 1:
                        raise ValueError(f"asymmetric edge ({u}, {v})")
                    m ^= low

    def adj(self, color: int) -> tuple[int, ...]:
        """Neighbor masks for one color."""
        if color == RED:
            return self.red
        if color == BLUE:
            return self.blue
        raise ValueError(f"color must be 1 or 2, got {color!r}")

    def color_of(self, u: int, v: int) -> int | None:
        """Color of the edge {u, v}, or None for the partner non-edge."""
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range: ({u}, {v}) for n={n}")
        if u == v:
            raise ValueError(f"({u}, {v}) is not a pair")
        if v == (u ^ 1):
            return None
        if (self.red[u] >> v) & 1:
            return RED
        return BLUE

    def red_mask(self) -> int:
        """Red-edge bitmask over the fixed edge ordering."""
        mask = 0
        for k, (u, v) in enumerate(edge_list(self.n)):
            if (self.red[u] >> v) & 1:
                mask |= 1 << k
        return mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredCocktail):
            return NotImplemented
        return (self.n, self.red, self.blue) == (other.n, other.red, other.blue)

    def __hash__(self) -> int:
        return hash((self.n, self.red))

    def __repr__(self) -> str:
        return f"ColoredCocktail({to_compact(self)!r})"


def from_red_mask(n: int, mask: int) -> ColoredCocktail:
    """Build a coloring from its red-edge bitmask (edges not in it are blue)."""
    m = num_edges(n)
    if not 0 <= mask < (1 << m):
        raise ValueError(f"red mask {mask:#x} out of range for n={n}")
    red = [0] * n
    blue = [0] * n
    mm = mask
    for u, v in edge_list(n):
        if mm & 1:
            red[u] |= 1 << v
            red[v] |= 1 << u
        else:
            blue[u] |= 1 << v
            blue[v] |= 1 << u
        mm >>= 1
    return ColoredCocktail(n, red, blue, validate=False)


def from_red_set(n: int, red_pairs: Iterable[tuple[int, int]]) -> ColoredCocktail:
    """Build a coloring by listing the red edges; everything else is blue."""
    idx = edge_index(n)
    mask = 0
    for u, v in red_pairs:
        if u > v:
            u, v = v, u
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"invalid pair ({u}, {v}) for n={n}")
        if v == (u ^ 1):
            raise ValueError(f"partner pair ({u}, {v}) is not an edge")
        k = idx[(u, v)]
        if (mask >> k) & 1:
            raise ValueError(f"duplicate pair ({u}, {v})")
        mask |= 1 << k
    return from_red_mask(n, mask)


def all_red(n: int) -> ColoredCocktail:
    """Every edge color 1."""
    return from_red_mask(n, (1 << num_edges(n)) - 1)


def all_blue(n: int) -> ColoredCocktail:
    """Every edge color 2."""
    return from_red_mask(n, 0)


def enumerate_colorings(n: int, max_n: int = ENUMERATION_MAX_N) -> Iterator[ColoredCocktail]:
    """Yield every 2-coloring of the n-vertex cocktail party graph once.

    Order: the red-edge bitmask runs as a counter 0, 1, 2, ... over the
    fixed edge ordering; 2**(n(n-2)/2) colorings in total.
    """
    if n % 2 or n < 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the enumeration bound {max_n} "
            f"(2**{num_edges(n)} colorings); pass max_n to override")
    for mask in range(1 << num_edges(n)):
        yield from_red_mask(n, mask)


def random_coloring(n: int, seed: int) -> ColoredCocktail:
    """Uniform random coloring from a deterministic generator.

    Each non-partner pair is red or blue with probability 1/2.  The
    generator is the stdlib Mersenne Twister (``random.Random(seed)``);
    the red-edge bitmask is one ``getrandbits(m)`` draw, so equal seeds
    give bit-identical colorings on any platform.
    """
    if n % 2 or n < 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    return from_red_mask(n, random_red_mask(n, seed))


def random_red_mask(n: int, seed: int) -> int:
    """The red mask of random_coloring(n, seed), without building the graph."""
    return random.Random(seed).getrandbits(num_edges(n))


def serialize(g: ColoredCocktail) -> str:
    """Text form: header line n, then one 'u v c' line per edge, in edge order."""
    lines = [str(g.n)]
    for u, v in edge_list(g.n):
        c = RED if (g.red[u] >> v) & 1 else BLUE
        lines.append(f"{u} {v} {c}")
    return "\n".join(lines) + "\n"


def to_compact(g: ColoredCocktail) -> str:
    """Compact one-line form ``n:HEX`` (little-endian red-mask hex)."""
    return mask_to_compact(g.n, g.red_mask())


def mask_to_compact(n: int, mask: int) -> str:
    """Compact form of a red-edge bitmask without building the graph."""
    return f"{n}:{_mask_to_hex(mask, num_edges(n))}"


def from_compact(text: str) -> ColoredCocktail:
    """Parse the compact ``n:HEX`` form."""
    text = text.strip()
    head, sep, hexpart = text.partition(":")
    if not sep:
        raise GraphFormatError(f"compact form must look like 'n:HEX', got {text!r}")
    try:
        n = parse_decimal(head)
    except ValueError:
        raise GraphFormatError(f"bad vertex count {head!r}") from None
    if n % 2 or n < 2:
        raise GraphFormatError(f"n must be even and >= 2, got {n}")
    m = num_edges(n)
    ndigits = (m + 3) // 4
    if len(hexpart) != ndigits:
        raise GraphFormatError(
            f"expected {ndigits} hex digits for n={n}, got {len(hexpart)}")
    mask = _hex_to_mask(hexpart)
    if mask >> m:
        raise GraphFormatError("red mask has bits beyond the edge count")
    return from_red_mask(n, mask)


def _mask_to_hex(mask: int, m: int) -> str:
    digits = []
    for i in range((m + 3) // 4):
        digits.append(format((mask >> (4 * i)) & 0xF, "x"))
    return "".join(digits)


def _hex_to_mask(hexpart: str) -> int:
    for ch in hexpart:
        if ch not in "0123456789abcdef":
            raise GraphFormatError(f"bad hex digit {ch!r}")
    return int(hexpart[::-1], 16) if hexpart else 0


def parse(text: str) -> ColoredCocktail:
    """Parse either the text format or the compact ``n:HEX`` form.

    Validates every invariant and reports the offending pair: partner
    pairs, duplicates, pairs listed in both colors, and missing pairs all
    get distinct diagnostics.
    """
    lines = text.splitlines()
    content: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        content.append((lineno, stripped))
    if not content:
        raise GraphFormatError("empty input")

    first_no, first = content[0]
    if ":" in first:
        if len(content) > 1:
            raise GraphFormatError("compact form must be a single line",
                                   line=content[1][0])
        return from_compact(first)

    try:
        n = parse_decimal(first)
    except ValueError:
        raise GraphFormatError(f"bad vertex count {first!r}", line=first_no) from None
    if n % 2 or n < 2:
        raise GraphFormatError(f"n must be even and >= 2, got {n}", line=first_no)

    # Nothing here is sized by n alone: a bare header must not build the
    # O(n**2) edge tables before the pair lines are known to be complete.
    seen: dict[tuple[int, int], int] = {}
    for lineno, line in content[1:]:
        fields = line.split()
        if len(fields) != 3:
            raise GraphFormatError(f"expected 'u v c', got {line!r}", line=lineno)
        try:
            u, v, c = (parse_decimal(f) for f in fields)
        except ValueError:
            raise GraphFormatError(f"expected integers, got {line!r}",
                                   line=lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"pair ({u}, {v}) out of range for n={n}",
                                   line=lineno)
        if u >= v:
            raise GraphFormatError(f"pair ({u}, {v}) must satisfy u < v",
                                   line=lineno)
        if v == (u ^ 1):
            raise GraphFormatError(
                f"partner pair ({u}, {v}) must not be listed", line=lineno)
        if c not in (RED, BLUE):
            raise GraphFormatError(f"pair ({u}, {v}): color must be 1 or 2, got {c}",
                                   line=lineno)
        if (u, v) in seen:
            prev = seen[(u, v)]
            if prev != c:
                raise GraphFormatError(
                    f"pair ({u}, {v}) assigned both colors", line=lineno)
            raise GraphFormatError(f"duplicate pair ({u}, {v})", line=lineno)
        seen[(u, v)] = c

    if len(seen) < num_edges(n):
        # every pair before the first missing one was seen: a short walk
        for u in range(n):
            for v in range(u + 1, n):
                if v != (u ^ 1) and (u, v) not in seen:
                    raise GraphFormatError(f"pair ({u}, {v}) missing")
    mask = sum(1 << k for k, e in enumerate(edge_list(n)) if seen[e] == RED)
    return from_red_mask(n, mask)
