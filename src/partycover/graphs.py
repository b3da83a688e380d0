"""2-edge-colored cocktail party graphs over bitmask adjacency tables.

A cocktail party graph on an even number n of vertices is the complete
graph minus a perfect matching.  Vertices are the integers 0..n-1 and the
deleted matching is fixed once and for all: the partner of v is v XOR 1,
so the non-adjacent pairs are {0,1}, {2,3}, ...  Every other pair is an
edge and carries exactly one of two colors, 1 (red) or 2 (blue).

Adjacency is stored as one integer bitmask per vertex and color, which is
the working currency of the whole package: vertex sets are plain Python
ints with bit v standing for vertex v.

The order rule, n even and >= 2, lives in num_edges, which every builder
reaches; parse and from_compact restate it to raise GraphFormatError.

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
    _check_color(color)
    return 3 - color


def _check_color(color: int) -> None:
    """The one home of the color rule: ValueError unless color is 1 or 2."""
    if color not in (RED, BLUE):
        raise ValueError(f"color must be 1 or 2, got {color!r}")


def partner(v: int, n: int) -> int:
    """The unique vertex non-adjacent to v (pairing v <-> v XOR 1)."""
    num_edges(n)  # refuses a bad n
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")
    return v ^ 1


def _check_pair(n: int, u: int, v: int) -> None:
    """The one home of the vertex-pair rule: ValueError unless u and v are
    two distinct vertices of order n."""
    if not (0 <= u < n and 0 <= v < n) or u == v:
        raise ValueError(f"invalid pair ({u}, {v}) for n={n}")


def _check_red_mask(n: int, mask: int, limit: int = 0) -> None:
    """The one home of the red-mask rule: ValueError unless 0 <= mask <
    2**num_edges(n); a caller that has that bound cached passes it as
    limit."""
    if not 0 <= mask < (limit or 1 << num_edges(n)):
        raise ValueError(f"red mask {mask:#x} out of range for n={n}")


def num_edges(n: int) -> int:
    """Number of edges of the cocktail party graph: n(n-2)/2.

    The one home of the order rule: ValueError unless n is even and >= 2.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    return n * (n - 2) // 2


#: Bound on the n-indexed edge-table caches: each entry holds O(n**2) items.
EDGE_CACHE_SIZE = 16


@lru_cache(maxsize=EDGE_CACHE_SIZE)
def edge_list(n: int) -> tuple[tuple[int, int], ...]:
    """All non-partner pairs (u, v), u < v, in the fixed lexicographic order."""
    num_edges(n)  # refuses a bad n
    return tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if v != (u ^ 1)
    )


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
        num_edges(n)  # refuses a bad n before sizing anything by it
        if len(self.red) != n or len(self.blue) != n:
            raise ValueError("adjacency tables must have one mask per vertex")
        others = _red_mask_plan(n)[3]
        for v, (r, b, other) in enumerate(zip(self.red, self.blue, others)):
            # other holds no loop bit, no partner bit and no bit >= n
            if r & b:
                raise ValueError(f"vertex {v}: edge in both colors")
            if r | b != other:
                raise ValueError(
                    f"vertex {v}: colors must partition all non-partner pairs")
        # red_mask reads only the upper triangle, so red is symmetric iff it
        # round-trips; blue, its complement in the symmetric others, follows
        rebuilt = from_red_mask(n, self.red_mask()).red
        for u, (row, want) in enumerate(zip(self.red, rebuilt)):
            if row != want:
                v = ((row ^ want) & -(row ^ want)).bit_length() - 1
                raise ValueError(f"asymmetric edge ({v}, {u})")

    def adj(self, color: int) -> tuple[int, ...]:
        """Neighbor masks for one color."""
        if color == RED:
            return self.red
        if color == BLUE:
            return self.blue
        _check_color(color)  # neither color: raises

    def color_of(self, u: int, v: int) -> int | None:
        """Color of the edge {u, v}, or None for the partner non-edge."""
        _check_pair(self.n, u, v)
        if v == (u ^ 1):
            return None
        if (self.red[u] >> v) & 1:
            return RED
        return BLUE

    def red_mask(self) -> int:
        """Red-edge bitmask over the fixed edge ordering."""
        n = self.n
        mask = 0
        # the inverse of from_red_mask's runs: run u of the mask is row u
        # from its first edge's v up, and the runs lie end to end, run 0 lowest
        for u in range(n - 3, -1, -1):
            start = u + 2 - (u & 1)
            mask = mask << (n - start) | self.red[u] >> start
        return mask

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredCocktail):
            return NotImplemented
        return (self.n, self.red, self.blue) == (other.n, other.red, other.blue)

    def __hash__(self) -> int:
        return hash((self.n, self.red))

    def __repr__(self) -> str:
        return f"ColoredCocktail({to_compact(self)!r})"


@lru_cache(maxsize=EDGE_CACHE_SIZE)
def _red_mask_plan(n: int) -> tuple[tuple[tuple[int, int, int], ...],
                                    tuple[tuple[int, int], ...],
                                    tuple[int, ...], tuple[int, ...], int]:
    """The tables from_red_mask uses at n, for one W x W bit matrix held in
    one int, row r at bit r * W (W the next power of two >= n):

    - runs: (keep, at, length) per vertex u < n - 2, moving its run of
      mask bits (the edges (u, v), v > u) to row u;
    - steps: _block_swap_steps(W, W), which transpose the matrix;
    - rows: the bit offset of each row;
    - others: each vertex's non-partner mask;
    - limit: 2**num_edges(n), one past the largest red mask.
    """
    limit = 1 << num_edges(n)
    width = 1 << (n - 1).bit_length()
    runs = []
    for u in range(n - 2):
        # v starts at u + 2 (even u) or u + 1 (odd u): v != u ^ 1
        start = u + 2 - (u & 1)
        runs.append(((1 << (n - start)) - 1, u * width + start, n - start))
    full = (1 << n) - 1
    return (tuple(runs), _block_swap_steps(width, width),
            tuple(u * width for u in range(n)),
            tuple(full ^ (3 << (u & ~1)) for u in range(n)), limit)


@lru_cache(maxsize=EDGE_CACHE_SIZE)
def _block_swap_steps(size: int, width: int) -> tuple[tuple[int, int], ...]:
    """(shift, swap) steps transposing every size x size tile of a bit
    matrix held in one int, row r at bit r * width, size rows high.

    size is a power of two dividing width.  Step j = size/2, ..., 1 trades,
    in every 2j x 2j block, the top-right j x j block for the bottom-left
    one: bit (r, c) with r & j == 0 and c & j != 0 moves to (r + j, c - j),
    j * (width - 1) higher, and back.  Apply each step as
    ``t = ((x >> shift) ^ x) & swap; x ^= t ^ (t << shift)``.

    The log2(size) masks of size x width bits are cached, so the
    _red_mask_plan of every n with one W shares a single copy.
    """
    steps = []
    j = size >> 1
    while j:
        cols = sum(1 << c for c in range(width) if c & j)
        rows = sum(1 << (r * width) for r in range(size) if not r & j)
        steps.append((j * (width - 1), cols * rows))
        j >>= 1
    return tuple(steps)


def from_red_mask(n: int, mask: int) -> ColoredCocktail:
    """Build a coloring from its red-edge bitmask (edges not in it are blue).

    The edge order gives each vertex u < n - 2 one run of mask bits, its
    red neighbors v > u; each run is shifted into row u of one n x W bit
    matrix (W the next power of two >= n).  That matrix is the upper
    triangle of the red table; its mirror, the lower triangle, is its
    transpose, made by log2(W) block swaps of shift/xor/and steps on the
    whole matrix at once (Warren, *Hacker's Delight*, section 7-3).
    """
    runs, steps, rows, others, limit = _red_mask_plan(n)
    _check_red_mask(n, mask, limit)
    upper = 0
    for keep, at, length in runs:
        upper |= (mask & keep) << at
        mask >>= length
    lower = upper
    for shift, swap in steps:
        t = ((lower >> shift) ^ lower) & swap
        lower ^= t ^ (t << shift)
    table = upper | lower
    full = (1 << n) - 1
    red = [table >> at & full for at in rows]
    # every non-partner pair that is not red is blue
    blue = [o ^ r for o, r in zip(others, red)]
    return ColoredCocktail(n, red, blue, validate=False)


def from_red_set(n: int, red_pairs: Iterable[tuple[int, int]]) -> ColoredCocktail:
    """Build a coloring by listing the red edges; everything else is blue."""
    others = _red_mask_plan(n)[3]
    red = [0] * n
    for u, v in red_pairs:
        _check_pair(n, u, v)
        if u > v:
            u, v = v, u
        if v == (u ^ 1):
            raise ValueError(f"partner pair ({u}, {v}) is not an edge")
        if (red[u] >> v) & 1:
            raise ValueError(f"duplicate pair ({u}, {v})")
        red[u] |= 1 << v
        red[v] |= 1 << u
    blue = [o ^ r for o, r in zip(others, red)]
    return ColoredCocktail(n, red, blue, validate=False)


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
    m = num_edges(n)
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the enumeration bound {max_n} "
            f"(2**{m} colorings); pass max_n to override")
    for mask in range(1 << m):
        yield from_red_mask(n, mask)


def random_coloring(n: int, seed: int) -> ColoredCocktail:
    """Uniform random coloring from a deterministic generator.

    Each non-partner pair is red or blue with probability 1/2.  The
    generator is the stdlib Mersenne Twister (``random.Random(seed)``);
    the red-edge bitmask is one ``getrandbits(m)`` draw, so equal seeds
    give bit-identical colorings on any platform.
    """
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
    _check_red_mask(n, mask)
    digits = (num_edges(n) + 3) // 4
    return f"{n}:" + "".join([format(mask >> 4 * i & 15, "x") for i in range(digits)])


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
    for ch in hexpart:
        if ch not in "0123456789abcdef":
            raise GraphFormatError(f"bad hex digit {ch!r}")
    mask = int(hexpart[::-1], 16) if hexpart else 0
    if mask >> m:
        raise GraphFormatError("red mask has bits beyond the edge count")
    return from_red_mask(n, mask)


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
    return from_red_set(n, [e for e, c in seen.items() if c == RED])
