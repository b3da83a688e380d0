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
unpruned scans describe failures identically -- up to n = 10: above it
the orbit tables grow too large, and failures keep their own red mask.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
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
from .reach import _within2, is_diam2_subset, star

#: Complete diameter-2 cover search walks 3**n assignments; refuse beyond this.
DIAM2_SEARCH_MAX_N = 10

#: Per-sample seed stride for random scans: sample i of a scan with base
#: seed s uses seed s + 0x9E3779B9 * i.
SEED_STRIDE = 0x9E3779B9

#: Largest n whose scan failures are named by their canonical mask.
CANONICAL_NAMES_MAX_N = 10

#: Largest n the orbit functions accept: they build (n/2)! * 2**(n/2)
#: relabeling tables, 87 MB at n = 12 and about 1.7 GB at n = 14.
ORBIT_MAX_N = 12

#: Most workers a scan accepts: every worker past the first is a forked
#: process, and each one gets its own list of sub-ranges.
SCAN_MAX_WORKERS = 64

#: Equal sub-ranges per worker in a multi-worker scan.  Worker w takes every
#: workers-th sub-range from sub-range w, so each one samples the whole index
#: range -- the costly low masks of a pruned sweep included.
_SUBRANGES_PER_WORKER = 16

#: Color pairs (A, B) of the diameter-2 search; see _diam2_cover.
_COLOR_PAIRS = ((RED, RED), (RED, BLUE), (BLUE, BLUE))


# ---------------------------------------------------------------------------
# diameter-2 cover search for one coloring


def exists_diam2_cover(g: ColoredCocktail,
                       max_n: int = DIAM2_SEARCH_MAX_N) -> Cover | None:
    """A cover of V by two monochromatic diameter-<=2 subsets, or None.

    Complete: a None return means no such cover exists for any color
    pair.  Solves g once and searches from the constructive cover; see
    _diam2_cover for the stages.  The cover has no certificate.
    """
    n = g.n
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the diameter-2 search bound {max_n} "
            f"(3**n assignments); pass max_n to override")
    return _diam2_cover(g, _solve_or_none(g))


def _solve_or_none(g: ColoredCocktail) -> Cover | None:
    """solve(g), or None after an InternalInconsistencyError.

    The diameter-2 search must not die with the constructive route, and
    the scan records the failure instead of stopping.
    """
    try:
        return solve(g)
    except InternalInconsistencyError:
        return None


def _diam2_cover(g: ColoredCocktail, cov: Cover | None) -> Cover | None:
    """The diameter-2 search of exists_diam2_cover, given solve(g) or None.

    Stages: (1) recheck the constructive 2-reachable cover ``cov`` under
    the stronger in-set middle requirement -- both parts are re-checked
    whatever the certificate says; (2) try every pair of closed stars (a
    closed star always has in-set diameter <= 2 through its center); (3)
    exhaustive assignment search putting each vertex in A, B, or both,
    cutting a branch as soon as a pair inside a part has no edge and no
    middle among the part and the unassigned vertices (``_within2``), so
    every leaf it reaches is a cover.  Stages 2 and 3 skip (blue, red):
    its cover (A, B) is the (red, blue) cover (B, A), which they try
    first.
    """
    n = g.n
    full = (1 << n) - 1
    if cov is not None and is_diam2_subset(g, cov.color_a, cov.a) \
            and is_diam2_subset(g, cov.color_b, cov.b):
        return Cover(n, cov.a, cov.color_a, cov.b, cov.color_b)

    stars = {c: [star(g, c, v) for v in range(n)] for c in COLORS}
    for ca, cb in _COLOR_PAIRS:
        for su in stars[ca]:
            for sv in stars[cb]:
                if (su | sv) == full:
                    return Cover(n, su, ca, sv, cb)

    for ca, cb in _COLOR_PAIRS:
        found = _assignment_search(g, ca, cb)
        if found is not None:
            return Cover(n, found[0], ca, found[1], cb)
    return None


def _assignment_search(g: ColoredCocktail, ca: int,
                       cb: int) -> tuple[int, int] | None:
    """First A/B/both assignment whose parts have in-set diameter <= 2.

    Vertices are placed in order, each in A, then B, then both.  A branch
    is cut unless every pair inside each part has an edge or a middle
    among the part and the vertices not placed yet: a valid cover below
    it would need one.  At the last vertex nothing is left unplaced, so
    each leaf reached is a cover.
    """
    n = g.n
    full = (1 << n) - 1
    adj_a, adj_b = g.adj(ca), g.adj(cb)

    def rec(v: int, a_mask: int, b_mask: int) -> tuple[int, int] | None:
        if v == n:
            return (a_mask, b_mask)
        bit = 1 << v
        after = full & ~((bit << 1) - 1)
        for to_a, to_b in ((bit, 0), (0, bit), (bit, bit)):
            na, nb = a_mask | to_a, b_mask | to_b
            if _within2(adj_a, na, na | after) and _within2(adj_b, nb, nb | after):
                found = rec(v + 1, na, nb)
                if found is not None:
                    return found
        return None

    return rec(0, 0, 0)


# ---------------------------------------------------------------------------
# the symmetry group: pair permutations x pair swaps x color swap


def symmetry_group_order(n: int) -> int:
    """(n/2)! * 2**(n/2) relabelings, doubled by the color swap."""
    num_edges(n)  # refuses a bad n
    half = n // 2
    return factorial(half) * (1 << half) * 2


@lru_cache(maxsize=4)  # n = 10 holds 5 MB of tables, n = 12 87 MB
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
              for base in range(0, len(tables[0]), 16)]
    if len(digits) > 1:
        return map(sum, map(itemgetter(*digits), tables))
    if digits:  # n = 4: a one-index itemgetter returns the entry, not a tuple
        return map(itemgetter(digits[0]), tables)
    return itertools.repeat(0, len(tables))  # n = 2: no edges


@lru_cache(maxsize=ORBIT_MAX_N // 2)
def _orbit_full_mask(n: int) -> int:
    """All-red mask of order n, for the orbit functions: refuses n > ORBIT_MAX_N.

    Cached because is_canonical needs it for every mask a pruned scan walks.
    """
    if n > ORBIT_MAX_N:
        raise ValueError(
            f"n={n} exceeds the orbit bound ORBIT_MAX_N={ORBIT_MAX_N} "
            f"({symmetry_group_order(n) // 2} relabeling tables)")
    return (1 << num_edges(n)) - 1


def canonical_red_mask(n: int, mask: int) -> int:
    """Smallest red mask in the orbit of a coloring (relabelings + color swap).

    Refuses n > ORBIT_MAX_N.
    """
    full = _orbit_full_mask(n)
    if not 0 <= mask <= full:
        raise ValueError(f"red mask {mask:#x} out of range for n={n}")
    images = list(_relabeled_masks(n, mask))
    # full - image is the image's color swap, smallest for the largest image
    return min(min(images), full - max(images))


def is_canonical(n: int, mask: int) -> bool:
    """Is this red mask the smallest in its orbit?  Refuses n > ORBIT_MAX_N."""
    full = _orbit_full_mask(n)
    if not 0 <= mask <= full:
        raise ValueError(f"red mask {mask:#x} out of range for n={n}")
    swapped = full - mask
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
    m = num_edges(n)
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the class enumeration bound {max_n}; "
            f"pass max_n to override")
    return [mask for mask in range(1 << m) if is_canonical(n, mask)]


def symmetry_reduce(g: ColoredCocktail) -> str:
    """Canonical key of a coloring: compact form of its orbit-minimal red mask.

    Equal keys mean the colorings are isomorphic under pair relabelings
    plus the color swap.  Refuses n > ORBIT_MAX_N.
    """
    return mask_to_compact(g.n, canonical_red_mask(g.n, g.red_mask()))


# ---------------------------------------------------------------------------
# scanning coloring spaces


_CHECKS = ("reach", "diam2", "both")
_MODES = ("exhaustive", "random")


@dataclass
class _Partial:
    """Mergeable per-chunk tallies; all fields are worker-order independent."""

    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("examined", "diam2_found", *BRANCH_KEYS), 0))
    first: dict[str, int] = field(default_factory=dict)
    failed: dict[str, set[int]] = field(default_factory=lambda: {
        kind: set() for kind in ("reach", "assertion", "corollary", "diam2")})

    def merge(self, other: "_Partial") -> None:
        for key, cnt in other.counts.items():
            self.counts[key] += cnt
        for key, mask in other.first.items():
            if mask < self.first.get(key, mask + 1):
                self.first[key] = mask
        for kind, masks in other.failed.items():
            self.failed[kind] |= masks


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
    """Tally one coloring: g is solved once for every check.

    Under reach/both the cover is verified and its branch counted; under
    diam2/both the same cover (None after an assertion failure) seeds the
    diameter-2 search, whose stage 1 re-checks it rather than trusting it.
    """
    part.counts["examined"] += 1
    cov = _solve_or_none(g)
    if check in ("reach", "both"):
        if cov is None:
            part.failed["assertion"].add(mask)
        else:
            key = branch_key(cov.certificate)
            part.counts[key] += 1
            if mask < part.first.get(key, mask + 1):
                part.first[key] = mask
            if not verify_cover(g, cov):
                part.failed["reach"].add(mask)
            if max(cov.a.bit_count(), cov.b.bit_count()) < (g.n + 1) // 2:
                part.failed["corollary"].add(mask)
    if check in ("diam2", "both"):
        if _diam2_cover(g, cov) is not None:
            part.counts["diam2_found"] += 1
        else:
            part.failed["diam2"].add(mask)


def _scan_chunk(n: int, mode: str, check: str, prune: bool, seed: int | None,
                ranges: list[tuple[int, int]]) -> _Partial:
    """Tally the colorings of every index range [lo, hi) in ranges."""
    part = _Partial()
    if mode == "exhaustive":
        # Gray-code walk: counter i visits mask i ^ (i >> 1), flipping one
        # edge per step, so adjacency updates are O(1).  Each range restarts
        # the walk from its own first mask.
        edges = edge_list(n)
        for lo, hi in ranges:
            mask = lo ^ (lo >> 1)
            base = from_red_mask(n, mask)
            red, blue = list(base.red), list(base.blue)
            for i in range(lo, hi):
                if not prune or is_canonical(n, mask):
                    g = ColoredCocktail(n, red, blue, validate=False)
                    _examine(g, mask, check, part)
                nxt = i + 1
                if nxt < hi:  # edge k changes color: flip its bit in both tables
                    k = (nxt & -nxt).bit_length() - 1
                    u, v = edges[k]
                    ub, vb = 1 << u, 1 << v
                    red[u] ^= vb; red[v] ^= ub
                    blue[u] ^= vb; blue[v] ^= ub
                    mask ^= 1 << k
    else:
        for lo, hi in ranges:
            for i in range(lo, hi):
                mask = random_red_mask(n, seed + SEED_STRIDE * i)
                _examine(from_red_mask(n, mask), mask, check, part)
    return part


def _split(total: int, workers: int) -> list[list[tuple[int, int]]]:
    """Each worker's non-empty sub-ranges of [0, total), strided.

    [0, total) is cut into workers * _SUBRANGES_PER_WORKER near-equal
    sub-ranges; worker w holds sub-ranges w, w + workers, w + 2*workers, ...
    A worker may hold none when total is small.
    """
    k = workers * _SUBRANGES_PER_WORKER
    subs = [(total * j // k, total * (j + 1) // k) for j in range(k)]
    return [[(lo, hi) for lo, hi in subs[w::workers] if lo < hi]
            for w in range(workers)]


def _scan_job(conn, args: tuple, ranges: list[tuple[int, int]]) -> None:
    """Worker process: send the tally of ranges, or the exception it raised."""
    try:
        result = _scan_chunk(*args, ranges)
    except Exception as exc:
        # the caller re-raises it; an exception that cannot make the trip
        # (its __init__ takes other arguments) goes as type name and message
        try:
            result = pickle.loads(pickle.dumps(exc))
        except Exception:
            result = RuntimeError(f"{type(exc).__name__}: {exc}")
    with conn:
        conn.send(result)


def _scan_jobs(args: tuple, jobs: list[list[tuple[int, int]]]) -> _Partial:
    """Scan jobs[0] in this process and every later job in a child process.

    Each child sends its _Partial (or its exception) through a one-way pipe.
    The caller receives a child's tally before joining it -- joining first
    can deadlock on a tally larger than the pipe buffer -- and on any way
    out terminates and joins every child still running.
    """
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for ranges in jobs[1:]:
            recv, send = ctx.Pipe(duplex=False)
            with send:  # the child holds its own copy of the sending end
                proc = ctx.Process(target=_scan_job, args=(send, args, ranges))
                children.append((proc, recv))
                proc.start()
        merged = _scan_chunk(*args, jobs[0])
        for job, (proc, recv) in enumerate(children, 1):
            try:
                result = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"scan worker {job} exited with code {proc.exitcode} "
                    f"before sending its tally") from None
            proc.join()
            if isinstance(result, BaseException):
                raise result
            merged.merge(result)
        return merged
    finally:
        for proc, recv in children:
            recv.close()
            if proc.is_alive():
                proc.terminate()
            if proc.pid is not None:
                proc.join()


def scan(n: int, mode: str = "exhaustive", check: str = "reach",
         samples: int | None = None, seed: int | None = None,
         prune: bool = False, workers: int = 1,
         max_exhaustive_n: int = ENUMERATION_MAX_N) -> ScanReport:
    """Run solve/verify and/or the diameter-2 search over a coloring space.

    mode "exhaustive" walks all 2**(n(n-2)/2) colorings (n capped by
    max_exhaustive_n); mode "random" draws ``samples`` colorings from
    ``seed`` (sample i uses seed + SEED_STRIDE*i).  prune restricts an
    exhaustive scan to canonical orbit representatives.

    workers = 1 scans the whole index range in this process.  workers > 1
    (at most SCAN_MAX_WORKERS) cuts the range into workers * 16 equal
    sub-ranges and deals them out round-robin, so every worker samples the
    whole range; the caller scans the first worker's share itself while
    one forked process per further worker scans its own and pipes back the
    tallies.  An exception in a worker is re-raised here, and no worker
    outlives the call.  workers only splits the index range: every
    reported field is independent of the split.
    """
    edges = num_edges(n)
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if check not in _CHECKS:
        raise ValueError(f"check must be one of {_CHECKS}, got {check!r}")
    if check in ("diam2", "both") and n > DIAM2_SEARCH_MAX_N:
        raise ValueError(
            f"check={check!r} needs n <= {DIAM2_SEARCH_MAX_N}, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > SCAN_MAX_WORKERS:
        raise ValueError(f"workers={workers} exceeds the scan bound "
                         f"SCAN_MAX_WORKERS={SCAN_MAX_WORKERS}")
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
                f"(2**{edges} colorings)")
        total = 1 << edges

    start = time.monotonic()
    args = (n, mode, check, prune, seed)
    if workers == 1:
        merged = _scan_chunk(*args, [(0, total)])
    else:
        merged = _scan_jobs(args, [job for job in _split(total, workers) if job])
    wall = time.monotonic() - start

    name = canonical_red_mask if n <= CANONICAL_NAMES_MAX_N else lambda n, m: m
    failures = {kind: tuple(mask_to_compact(n, m)
                            for m in sorted({name(n, m) for m in masks}))
                for kind, masks in merged.failed.items()}
    diam2 = check in ("diam2", "both")
    return ScanReport(
        n=n,
        mode=mode,
        check=check,
        prune=prune,
        samples=samples,
        seed=seed,
        colorings_scanned=total,
        reduced_classes=merged.counts["examined"] if prune else None,
        branch_counts={k: merged.counts[k] for k in BRANCH_KEYS},
        branch_first={k: mask_to_compact(n, v)
                      for k, v in sorted(merged.first.items())},
        reach_failures=failures["reach"],
        assertion_failures=failures["assertion"],
        corollary_failures=failures["corollary"],
        diam2_cover_found=merged.counts["diam2_found"] if diam2 else None,
        diam2_failures=failures["diam2"] if diam2 else None,
        wall_time=wall,
        workers=workers,
    )
