"""Empirical probing of the stronger diameter-2 cover question.

The constructive cover guarantees two monochromatic 2-reachable parts,
whose connecting middles may sit outside the parts.  Whether two parts
of diameter <= 2 *in the induced sense* always exist is open; this
module searches for such covers coloring by coloring and scans whole
coloring spaces, exhaustively or by seeded sampling, with optional
symmetry pruning and a deterministic machine-readable report.

Report determinism contract: ``machine_lines`` depends only on the scan
parameters and the mathematics -- never on worker count or timing -- so
runs with different ``workers`` values produce byte-identical reports.
Failure lines name colorings by the compact form of their canonical
(orbit-minimal) red mask, deduplicated and sorted, so pruned and
unpruned scans describe failures identically.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from operator import itemgetter
from typing import Iterator

from .cover import (
    BRANCH_KEYS,
    Cover,
    InternalInconsistencyError,
    branch_key,
    solve,
    verify_cover,
)
from .graphs import (
    BLUE,
    COLORS,
    ENUMERATION_MAX_N,
    RED,
    ColoredCocktail,
    edge_list,
    from_red_mask,
    mask_to_compact,
    num_edges,
    random_red_mask,
)
from .reach import is_diam2_subset, star

#: Complete diameter-2 cover search walks 3**n assignments; refuse beyond this.
DIAM2_SEARCH_MAX_N = 10

#: Per-sample seed stride for random scans: sample i of a scan with base
#: seed s uses seed s + 0x9E3779B9 * i.
SEED_STRIDE = 0x9E3779B9


# ---------------------------------------------------------------------------
# diameter-2 cover search for one coloring


def exists_diam2_cover(g: ColoredCocktail,
                       max_n: int = DIAM2_SEARCH_MAX_N) -> Cover | None:
    """A cover of V by two monochromatic diameter-<=2 subsets, or None.

    Complete: a None return means no such cover exists for any color
    pair.  Stages: (1) recheck the constructive 2-reachable cover under
    the stronger in-set middle requirement; (2) try every pair of closed
    stars (a closed star always has in-set diameter <= 2 through its
    center); (3) exhaustive assignment search putting each vertex in A,
    B, or both, for each of the four color pairs, pruning a branch only
    when a pair inside a part can never get an in-part middle even if
    all unassigned vertices join it.  The returned cover has no certificate.
    """
    n = g.n
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the diameter-2 search bound {max_n} "
            f"(3**n assignments); pass max_n to override")
    full = (1 << n) - 1

    try:
        cov = solve(g)
    except InternalInconsistencyError:
        cov = None  # the search must not die with the constructive route
    if cov is not None and is_diam2_subset(g, cov.color_a, cov.a) \
            and is_diam2_subset(g, cov.color_b, cov.b):
        return Cover(n, cov.a, cov.color_a, cov.b, cov.color_b)

    for ca in COLORS:
        stars_a = [star(g, ca, u) for u in range(n)]
        for cb in COLORS:
            stars_b = stars_a if cb == ca else [star(g, cb, v) for v in range(n)]
            for su in stars_a:
                for sv in stars_b:
                    if (su | sv) == full:
                        return Cover(n, su, ca, sv, cb)

    for ca, cb in ((RED, RED), (RED, BLUE), (BLUE, RED), (BLUE, BLUE)):
        found = _assignment_search(g, ca, cb)
        if found is not None:
            a, b = found
            return Cover(n, a, ca, b, cb)
    return None


def _assignment_search(g: ColoredCocktail, ca: int,
                       cb: int) -> tuple[int, int] | None:
    """First A/B/both assignment whose parts have in-set diameter <= 2."""
    n = g.n
    full = (1 << n) - 1
    adj_a, adj_b = g.adj(ca), g.adj(cb)

    def viable(adj: tuple[int, ...], v: int, members: int, pool: int) -> bool:
        # every earlier member must reach v by an edge or a middle that
        # could still end up in the part
        av = adj[v]
        rest = members & ~(1 << v)
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            if not ((av >> i) & 1 or av & adj[i] & pool):
                return False
        return True

    def rec(v: int, a_mask: int, b_mask: int) -> tuple[int, int] | None:
        if v == n:
            if is_diam2_subset(g, ca, a_mask) and is_diam2_subset(g, cb, b_mask):
                return (a_mask, b_mask)
            return None
        bit = 1 << v
        after = full & ~((bit << 1) - 1)
        for to_a, to_b in ((True, False), (False, True), (True, True)):
            na = a_mask | bit if to_a else a_mask
            nb = b_mask | bit if to_b else b_mask
            if to_a and not viable(adj_a, v, na, na | after):
                continue
            if to_b and not viable(adj_b, v, nb, nb | after):
                continue
            found = rec(v + 1, na, nb)
            if found is not None:
                return found
        return None

    return rec(0, 0, 0)


# ---------------------------------------------------------------------------
# the symmetry group: pair permutations x pair swaps x color swap


def symmetry_group_order(n: int) -> int:
    """(n/2)! * 2**(n/2) relabelings, doubled by the color swap."""
    if n % 2 or n < 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    half = n // 2
    return factorial(half) * (1 << half) * 2


@lru_cache(maxsize=None)
def _edge_perm_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """Nibble lookup table of each partner-preserving relabeling, identity first.

    A relabeling swaps within pairs, then permutes the pairs.  Entry
    16*c + d of its table is the image of the hex digit d at red-mask bits
    4c..4c+3 (m = n(n-2)/2 is a multiple of 4).  Images of different
    digits share no bit, so the relabeled mask is the sum of one entry per
    digit.  A digit's 16 images depend only on where its 4 edges go, and
    few such 4-sets occur (432 at n = 8), so tables share those blocks.
    """
    edges = edge_list(n)
    index = {}
    for k, (u, v) in enumerate(edges):
        index[u, v] = index[v, u] = k

    def edge_map(vmap: list[int]) -> list[int]:
        return [index[vmap[u], vmap[v]] for u, v in edges]

    half = n // 2
    swaps = [edge_map([v ^ (s >> (v >> 1) & 1) for v in range(n)])
             for s in range(1 << half)]
    perms = [[1 << k for k in edge_map([2 * p[v >> 1] + (v & 1) for v in range(n)])]
             for p in itertools.permutations(range(half))]
    blocks: dict[tuple[int, ...], list[int]] = {}
    tables = []
    for perm in perms:
        for swap in swaps:
            images = iter([perm[k] for k in swap])
            table: list[int] = []
            for quad in zip(images, images, images, images):
                block = blocks.get(quad)
                if block is None:
                    a, b, c, d = quad
                    block = blocks[quad] = [hi | lo for hi in (0, c, d, c | d)
                                            for lo in (0, a, b, a | b)]
                table += block
            tables.append(tuple(table))
    return tuple(tables)


def _relabeled_masks(n: int, mask: int) -> Iterator[int]:
    """The red mask under each relabeling, in table order."""
    tables = _edge_perm_tables(n)
    # digit i's entries start at base = 16*i; its bits start at 4*i = base >> 2
    digits = [base + (mask >> (base >> 2) & 15)
              for base in range(0, 4 * num_edges(n), 16)]
    if len(digits) > 1:
        return map(sum, map(itemgetter(*digits), tables))
    if digits:  # n = 4: a one-index itemgetter returns the entry, not a tuple
        return map(itemgetter(digits[0]), tables)
    return itertools.repeat(0, len(tables))  # n = 2: no edges


def canonical_red_mask(n: int, mask: int) -> int:
    """Smallest red mask in the orbit of a coloring (relabelings + color swap)."""
    images = list(_relabeled_masks(n, mask))
    # full - image is the image's color swap, smallest for the largest image
    return min(min(images), (1 << num_edges(n)) - 1 - max(images))


def is_canonical(n: int, mask: int) -> bool:
    """Is this red mask the smallest in its orbit?"""
    swapped = (1 << num_edges(n)) - 1 - mask
    if swapped < mask:  # the color swap alone settles half of all masks
        return False
    for pm in _relabeled_masks(n, mask):
        if not mask <= pm <= swapped:  # pm > swapped: pm's color swap < mask
            return False
    return True


def symmetry_classes(n: int, max_n: int = 6) -> list[int]:
    """Canonical representatives of all coloring classes of order n, sorted.

    Enumerates all 2**(n(n-2)/2) masks, so by default refuses n > 6.
    """
    if n % 2 or n < 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the class enumeration bound {max_n}; "
            f"pass max_n to override")
    return [m for m in range(1 << num_edges(n)) if is_canonical(n, m)]


def symmetry_reduce(g: ColoredCocktail) -> str:
    """Canonical key of a coloring: compact form of its orbit-minimal red mask.

    Equal keys mean the colorings are isomorphic under pair relabelings
    plus the color swap.
    """
    return mask_to_compact(g.n, canonical_red_mask(g.n, g.red_mask()))


# ---------------------------------------------------------------------------
# scanning coloring spaces


_CHECKS = ("reach", "diam2", "both")
_MODES = ("exhaustive", "random")


@dataclass
class _Partial:
    """Mergeable per-chunk tallies; all fields are worker-order independent."""

    scanned: int = 0
    examined: int = 0
    branch_counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(BRANCH_KEYS, 0))
    branch_first: dict[str, int] = field(default_factory=dict)
    reach_failures: set[int] = field(default_factory=set)
    assertion_failures: set[int] = field(default_factory=set)
    corollary_failures: set[int] = field(default_factory=set)
    diam2_found: int = 0
    diam2_failures: set[int] = field(default_factory=set)

    def merge(self, other: "_Partial") -> None:
        self.scanned += other.scanned
        self.examined += other.examined
        for key, cnt in other.branch_counts.items():
            self.branch_counts[key] += cnt
        for key, mask in other.branch_first.items():
            prev = self.branch_first.get(key)
            if prev is None or mask < prev:
                self.branch_first[key] = mask
        self.reach_failures |= other.reach_failures
        self.assertion_failures |= other.assertion_failures
        self.corollary_failures |= other.corollary_failures
        self.diam2_found += other.diam2_found
        self.diam2_failures |= other.diam2_failures


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a scan; machine form excludes timing and worker count."""

    n: int
    mode: str
    check: str
    prune: bool
    samples: int | None
    seed: int | None
    colorings_scanned: int
    reduced_classes: int | None
    branch_counts: dict[str, int]
    branch_first: dict[str, str]
    reach_failures: tuple[str, ...]
    assertion_failures: tuple[str, ...]
    corollary_failures: tuple[str, ...]
    diam2_cover_found: int | None
    diam2_failures: tuple[str, ...] | None
    wall_time: float
    workers: int

    @property
    def ok(self) -> bool:
        """No failures of any kind."""
        return not (self.reach_failures or self.assertion_failures
                    or self.corollary_failures or self.diam2_failures)

    def machine_lines(self) -> list[str]:
        """Deterministic key=value lines; byte-identical across worker counts."""
        lines = [
            "format=partycover-scan-v1",
            f"n={self.n}",
            f"mode={self.mode}",
        ]
        if self.mode == "random":
            lines.append(f"samples={self.samples}")
            lines.append(f"seed={self.seed}")
        lines.append(f"check={self.check}")
        lines.append(f"prune={'on' if self.prune else 'off'}")
        lines.append(f"colorings_scanned={self.colorings_scanned}")
        if self.prune:
            lines.append(f"reduced_classes={self.reduced_classes}")
        if self.check in ("reach", "both"):
            for key in BRANCH_KEYS:
                lines.append(f"branch.{key}={self.branch_counts[key]}")
            for key in BRANCH_KEYS:
                if key in self.branch_first:
                    lines.append(f"first.{key}={self.branch_first[key]}")
            lines.append(f"reach_failures={len(self.reach_failures)}")
            lines.append(f"assertion_failures={len(self.assertion_failures)}")
            lines.append(f"corollary_failures={len(self.corollary_failures)}")
        if self.check in ("diam2", "both"):
            lines.append(f"diam2_cover_found={self.diam2_cover_found}")
            lines.append(f"diam2_failures={len(self.diam2_failures or ())}")
        for label, items in (("reach", self.reach_failures),
                             ("assertion", self.assertion_failures),
                             ("corollary", self.corollary_failures),
                             ("diam2", self.diam2_failures or ())):
            for i, compact in enumerate(items):
                lines.append(f"failure.{label}.{i}={compact}")
        return lines

    def machine_text(self) -> str:
        return "\n".join(self.machine_lines()) + "\n"

    def to_text(self) -> str:
        """Human-readable report; includes timing, hence not byte-stable."""
        what = (f"{self.samples} seeded colorings" if self.mode == "random"
                else f"all {self.colorings_scanned} colorings")
        head = (f"scan: n={self.n}, {self.mode} over {what}, "
                f"check={self.check}, prune={'on' if self.prune else 'off'}")
        lines = [head, "-" * len(head)]
        if self.prune:
            lines.append("prune group: partner-pair permutations x in-pair "
                         "swaps x color swap")
        lines.extend(self.machine_lines()[1:])
        if self.check in ("reach", "both"):
            silent = [k for k in BRANCH_KEYS if not self.branch_counts[k]]
            lines.append("branches never fired at this n: "
                         + (" ".join(silent) if silent else "none"))
        lines.append(f"wall_time={self.wall_time:.2f}s")
        lines.append(f"workers={self.workers}")
        lines.append("result=ok" if self.ok else "result=FAILURES")
        return "\n".join(lines) + "\n"


def _examine(g: ColoredCocktail, mask: int, check: str, part: _Partial) -> None:
    part.examined += 1
    n = g.n
    if check in ("reach", "both"):
        try:
            cov = solve(g)
        except InternalInconsistencyError:
            part.assertion_failures.add(mask)
        else:
            key = branch_key(cov.certificate)
            part.branch_counts[key] += 1
            prev = part.branch_first.get(key)
            if prev is None or mask < prev:
                part.branch_first[key] = mask
            if not verify_cover(g, cov):
                part.reach_failures.add(mask)
            if max(cov.a.bit_count(), cov.b.bit_count()) < (n + 1) // 2:
                part.corollary_failures.add(mask)
    if check in ("diam2", "both"):
        if exists_diam2_cover(g) is not None:
            part.diam2_found += 1
        else:
            part.diam2_failures.add(mask)


def _scan_chunk(args: tuple) -> _Partial:
    n, mode, check, prune, seed, lo, hi = args
    part = _Partial()
    m = num_edges(n)
    edges = edge_list(n)
    if mode == "exhaustive":
        # Gray-code walk: counter i visits mask i ^ (i >> 1), flipping one
        # edge per step, so adjacency updates are O(1).
        mask = lo ^ (lo >> 1)
        base = from_red_mask(n, mask)
        red, blue = list(base.red), list(base.blue)
        for i in range(lo, hi):
            part.scanned += 1
            if not prune or is_canonical(n, mask):
                g = ColoredCocktail(n, red, blue, validate=False)
                _examine(g, mask, check, part)
            nxt = i + 1
            k = (nxt & -nxt).bit_length() - 1
            if k < m:
                u, v = edges[k]
                ub, vb = 1 << u, 1 << v
                if (red[u] >> v) & 1:
                    red[u] &= ~vb; red[v] &= ~ub
                    blue[u] |= vb; blue[v] |= ub
                else:
                    blue[u] &= ~vb; blue[v] &= ~ub
                    red[u] |= vb; red[v] |= ub
                mask ^= 1 << k
    else:
        for i in range(lo, hi):
            part.scanned += 1
            mask = random_red_mask(n, seed + SEED_STRIDE * i)
            _examine(from_red_mask(n, mask), mask, check, part)
    return part


def scan(n: int, mode: str = "exhaustive", check: str = "reach",
         samples: int | None = None, seed: int | None = None,
         prune: bool = False, workers: int = 1,
         max_exhaustive_n: int = ENUMERATION_MAX_N) -> ScanReport:
    """Run solve/verify and/or the diameter-2 search over a coloring space.

    mode "exhaustive" walks all 2**(n(n-2)/2) colorings (n capped by
    max_exhaustive_n); mode "random" draws ``samples`` colorings from
    ``seed`` (sample i uses seed + SEED_STRIDE*i).  prune restricts an
    exhaustive scan to canonical orbit representatives.  workers only
    splits the index range; every reported field is independent of the
    split.
    """
    if n % 2 or n < 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if check not in _CHECKS:
        raise ValueError(f"check must be one of {_CHECKS}, got {check!r}")
    if check in ("diam2", "both") and n > DIAM2_SEARCH_MAX_N:
        raise ValueError(
            f"check={check!r} needs n <= {DIAM2_SEARCH_MAX_N}, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if mode == "random":
        if prune:
            raise ValueError("prune only applies to exhaustive scans")
        if samples is None or samples < 1:
            raise ValueError("random mode needs samples >= 1")
        if seed is None:
            raise ValueError("random mode needs a seed")
        total = samples
    else:
        if samples is not None or seed is not None:
            raise ValueError("samples/seed only apply to random mode")
        if n > max_exhaustive_n:
            raise ValueError(
                f"n={n} exceeds the exhaustive bound {max_exhaustive_n} "
                f"(2**{num_edges(n)} colorings)")
        total = 1 << num_edges(n)

    start = time.monotonic()
    chunks = [(n, mode, check, prune, seed,
               total * w // workers, total * (w + 1) // workers)
              for w in range(workers)]
    chunks = [c for c in chunks if c[5] < c[6]]
    if len(chunks) <= 1:
        partials = [_scan_chunk(c) for c in chunks]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=len(chunks)) as pool:
            partials = pool.map(_scan_chunk, chunks)
    merged = _Partial()
    for p in partials:
        merged.merge(p)
    wall = time.monotonic() - start

    def canon(masks: set[int]) -> tuple[str, ...]:
        canonical = {canonical_red_mask(n, m) for m in masks}
        return tuple(mask_to_compact(n, m) for m in sorted(canonical))

    return ScanReport(
        n=n,
        mode=mode,
        check=check,
        prune=prune,
        samples=samples,
        seed=seed,
        colorings_scanned=merged.scanned,
        reduced_classes=merged.examined if prune else None,
        branch_counts=dict(merged.branch_counts),
        branch_first={k: mask_to_compact(n, v)
                      for k, v in sorted(merged.branch_first.items())},
        reach_failures=canon(merged.reach_failures),
        assertion_failures=canon(merged.assertion_failures),
        corollary_failures=canon(merged.corollary_failures),
        diam2_cover_found=(merged.diam2_found
                           if check in ("diam2", "both") else None),
        diam2_failures=(canon(merged.diam2_failures)
                        if check in ("diam2", "both") else None),
        wall_time=wall,
        workers=workers,
    )
