"""Empirical probing of the stronger diameter-2 cover question.

The constructive cover guarantees two monochromatic 2-reachable parts,
whose connecting middles may sit outside the parts.  Whether two parts
of diameter <= 2 *in the induced sense* always exist is open; this
module searches for such covers coloring by coloring and scans whole
coloring spaces, exhaustively or by seeded sampling, with a
deterministic machine-readable report.

A scan up to n = 64 settles all four of solve's
branches (one color has diameter <= 2 on V; a partner pair is critical
in one color; a red-critical and a blue-critical edge share a vertex;
the critical edges of the two colors have disjoint ends) a block of
colorings at a time: lane i of one int per edge holds that edge's color
in coloring i, a lane verifier re-derives each claimed cover, and the
stage 1 of the diameter-2 search runs on the same lanes.  The colorings
whose branch 3 fails an internal assertion, and every coloring above
n = 64, go through solve and verify_cover one at a time.  A diameter-2
scan (n <= 10) sends the first of these, and each coloring whose lane
cover fails the lane verifier or the lane stage 1, to stages 2 and 3 of
the diameter-2 search one at a time.  The human report keeps the
message of each internal assertion failure; the machine report counts
them only.

Report determinism contract: ``machine_lines`` depends only on the scan
parameters and the mathematics -- never on worker count or timing -- so
runs with different ``workers`` values produce byte-identical reports.
Failure lines name colorings by the compact form of their canonical
(orbit-minimal) red mask, deduplicated and sorted, so isomorphic
failures share one name -- up to n = 10: above it the orbit tables grow
too large, and failures keep their own red mask.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from operator import itemgetter, ne
from typing import Iterator, Sequence

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
    _check_red_mask,
    edge_list,
    from_red_mask,
    mask_to_compact,
    num_edges,
    random_red_mask,
)
from . import lanes
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

#: Most workers a scan accepts; each one past the first that has a block
#: of the index range is a forked process.
SCAN_MAX_WORKERS = 64

#: Most low mask bits an exhaustive lane block spans: 2**16 colorings.
_LANE_BITS = 16

#: Most masks a random lane block holds.
_RANDOM_LANES = 1 << 12

#: Largest n whose scans take the lane path.  A block holds two n x n
#: tables of lane ints, 18 MB for 4 096 colorings at n = 128, and its cost
#: per lane grows with n, as its far-pair loops grow as n**3.
_LANE_MAX_N = 64

#: Color pairs (A, B) of the diameter-2 search; see _diam2_cover.
_COLOR_PAIRS = ((RED, RED), (RED, BLUE), (BLUE, BLUE))


# ---------------------------------------------------------------------------
# diameter-2 cover search for one coloring


def exists_diam2_cover(g: ColoredCocktail,
                       max_n: int = DIAM2_SEARCH_MAX_N) -> Cover | None:
    """A cover of V by two monochromatic diameter-<=2 subsets, or None.

    Complete: a None return means no such cover exists for any color
    pair.  Stage 1 re-checks solve's cover under the stronger in-set
    middle requirement: its parts must unite to V and both pass
    is_diam2_subset, whatever the certificate says.  When they do not, or
    solve fails an internal assertion, _diam2_cover runs stages 2 and 3.
    The cover has no certificate.
    """
    n = g.n
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the diameter-2 search bound {max_n} "
            f"(3**n assignments); pass max_n to override")
    try:
        cov = solve(g)
    except InternalInconsistencyError:
        pass  # the search must not die with the constructive route
    else:
        if (cov.a | cov.b) == (1 << n) - 1 \
                and is_diam2_subset(g, cov.color_a, cov.a) \
                and is_diam2_subset(g, cov.color_b, cov.b):
            return Cover(n, cov.a, cov.color_a, cov.b, cov.color_b)
    return _diam2_cover(g)


def _diam2_cover(g: ColoredCocktail) -> Cover | None:
    """Stages 2 and 3 of the diameter-2 search, which need no cover.

    (2) try every pair of closed stars (a closed star always has in-set
    diameter <= 2 through its center); (3) exhaustive assignment search
    putting each vertex in A, B, or both, cutting a branch as soon as a
    pair inside a part has no edge and no middle among the part and the
    unassigned vertices (``_within2``), so every leaf it reaches is a
    cover.  Both skip (blue, red): its cover (A, B) is the (red, blue)
    cover (B, A), which they try first.  Complete on its own, so a scan
    sends here the colorings whose constructive cover it did not accept.
    """
    n = g.n
    full = (1 << n) - 1
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
    """Nibble lookup table of each partner-preserving relabeling, fewest
    edges moved first.

    A relabeling swaps within pairs, then permutes the pairs.  Entry
    16*c + d of its table is the image of the hex digit d at red-mask bits
    4c..4c+3 (m = n(n-2)/2 is a multiple of 4).  Images of different
    digits share no bit, so the relabeled mask is the sum of one entry per
    digit.  A digit's 16 images depend only on where its 4 edges go, and
    few such 4-sets occur (432 at n = 8), so tables share those blocks.

    The tables are sorted by the number of edges each relabeling moves,
    ties in permutations x swaps order, so the identity comes first.  A
    relabeling that moves few edges, such as one pair swap or one pair
    transposition, is the one most likely to map a mask below itself, and
    is_canonical stops at the first such image.  canonical_red_mask takes
    the min and max of every image, so no answer depends on the order.
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
    bits = [1 << k for k in range(len(edges))]
    perms = [[bits[k] for k in edge_map([2 * p[v >> 1] + (v & 1) for v in range(n)])]
             for p in itertools.permutations(range(half))]
    blocks: dict[tuple[int, ...], list[int]] = {}
    ranked = []
    for perm in perms:
        for swap in swaps:
            images = [perm[k] for k in swap]  # images[k]: the bit edge k goes to
            quads = iter(images)
            table: list[int] = []
            for quad in zip(quads, quads, quads, quads):
                block = blocks.get(quad)
                if block is None:
                    a, b, c, d = quad
                    block = blocks[quad] = [hi | lo for hi in (0, c, d, c | d)
                                            for lo in (0, a, b, a | b)]
                table += block
            ranked.append((sum(map(ne, images, bits)), tuple(table)))
    ranked.sort(key=itemgetter(0))  # stable, so ties keep their order
    return tuple(table for _, table in ranked)


@lru_cache(maxsize=ORBIT_MAX_N // 2)
def _orbit_digits(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """All-red mask of order n, and the bit shift 4*i and table offset
    16*i of each hex digit i of a red mask, for the orbit functions.

    Refuses n > ORBIT_MAX_N before any table is built.  Cached because a
    class sweep calls is_canonical once per mask; it holds no table, so it
    keeps none alive that _edge_perm_tables has evicted.
    """
    if n > ORBIT_MAX_N:
        raise ValueError(
            f"n={n} exceeds the orbit bound ORBIT_MAX_N={ORBIT_MAX_N} "
            f"({symmetry_group_order(n) // 2} relabeling tables)")
    m = num_edges(n)
    return (1 << m) - 1, tuple((4 * i, 16 * i) for i in range(m // 4))


def canonical_red_mask(n: int, mask: int) -> int:
    """Smallest red mask in the orbit of a coloring (relabelings + color swap).

    Refuses n > ORBIT_MAX_N.
    """
    full, digits = _orbit_digits(n)
    _check_red_mask(n, mask, full + 1)
    tables = _edge_perm_tables(n)
    index = [base + (mask >> shift & 15) for shift, base in digits]
    if len(index) > 1:
        images = list(map(sum, map(itemgetter(*index), tables)))
    elif index:  # n = 4: a one-index itemgetter returns the entry, not a tuple
        images = [table[index[0]] for table in tables]
    else:  # n = 2: no edges
        images = [0]
    # full - image is the image's color swap, smallest for the largest image
    return min(min(images), full - max(images))


def is_canonical(n: int, mask: int) -> bool:
    """Is this red mask the smallest in its orbit?  Refuses n > ORBIT_MAX_N.

    Rejects a mask above its color swap at once, and otherwise stops at
    the first relabeled mask below it or above its color swap.  The walk
    skips the identity, which _edge_perm_tables puts first, and meets the
    relabelings that move fewest edges, the likeliest to reject, next.
    """
    full, digits = _orbit_digits(n)
    _check_red_mask(n, mask, full + 1)
    swapped = full - mask
    if swapped < mask:  # the color swap alone settles half of all masks
        return False
    if len(digits) < 2:  # n <= 4: an itemgetter of < 2 indices returns no tuple
        return canonical_red_mask(n, mask) == mask
    image = itemgetter(*[base + (mask >> shift & 15) for shift, base in digits])
    for table in itertools.islice(_edge_perm_tables(n), 1, None):
        pm = sum(image(table))
        if pm < mask or pm > swapped:  # pm > swapped: pm's color swap < mask
            return False
    return True


def symmetry_classes(n: int, max_n: int = 6) -> list[int]:
    """Canonical representatives of all coloring classes of order n, sorted.

    Walks the masks below 2**(m-1), m = n(n-2)/2: a mask at or above it
    is above its color swap, so is not canonical.  That is 2**(m-1)
    is_canonical calls, so by default it refuses n > 6.
    """
    m = num_edges(n)
    if n > max_n:
        raise ValueError(
            f"n={n} exceeds the class enumeration bound {max_n}; "
            f"pass max_n to override")
    # n = 2: m = 0, and its one mask 0 is canonical
    return [mask for mask in range(1 << m >> 1 or 1) if is_canonical(n, mask)]


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
        ("diam2_found", *BRANCH_KEYS), 0))
    first: dict[str, int] = field(default_factory=dict)
    failed: dict[str, set[int]] = field(default_factory=lambda: {
        kind: set() for kind in ("reach", "assertion", "corollary", "diam2")})
    #: The message of each assertion failure, by mask.
    reasons: dict[int, str] = field(default_factory=dict)

    def merge(self, other: "_Partial") -> None:
        for key, cnt in other.counts.items():
            self.counts[key] += cnt
        for key, mask in other.first.items():
            if mask < self.first.get(key, mask + 1):
                self.first[key] = mask
        for kind, masks in other.failed.items():
            self.failed[kind] |= masks
        self.reasons.update(other.reasons)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a scan; machine form excludes timing and worker count."""

    n: int
    mode: str
    check: str
    samples: int | None
    seed: int | None
    colorings_scanned: int
    branch_counts: dict[str, int]
    branch_first: dict[str, str]
    reach_failures: tuple[str, ...]
    assertion_failures: tuple[str, ...]
    corollary_failures: tuple[str, ...]
    diam2_cover_found: int | None
    diam2_failures: tuple[str, ...] | None
    wall_time: float
    workers: int
    #: The InternalInconsistencyError message of each assertion failure,
    #: in assertion_failures order; human report only.
    assertion_reasons: tuple[str, ...] = ()

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
        lines.append("prune=off")  # v1 keeps the line of an option since removed
        lines.append(f"colorings_scanned={self.colorings_scanned}")
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
                f"check={self.check}")
        lines = [head, "-" * len(head)]
        lines.extend(self.machine_lines()[1:])
        for i, reason in enumerate(self.assertion_reasons):
            lines.append(f"failure.assertion.{i}.reason={reason}")
        if self.check in ("reach", "both"):
            silent = [k for k in BRANCH_KEYS if not self.branch_counts[k]]
            lines.append("branches never fired at this n: "
                         + (" ".join(silent) if silent else "none"))
        lines.append(f"wall_time={self.wall_time:.2f}s")
        lines.append(f"workers={self.workers}")
        lines.append("result=ok" if self.ok else "result=FAILURES")
        return "\n".join(lines) + "\n"


def _examine(g: ColoredCocktail, mask: int, part: _Partial) -> None:
    """Tally the reach side of one coloring: solve it, then count its
    branch, verify the cover and test the corollary, or keep the
    assertion failure's message.  The diameter-2 side never comes here:
    _tally_lanes sends those colorings to _diam2_cover, and no
    diameter-2 scan goes above _LANE_MAX_N.
    """
    try:
        cov = solve(g)
    except InternalInconsistencyError as exc:
        part.failed["assertion"].add(mask)
        part.reasons[mask] = str(exc)
        return
    key = branch_key(cov.certificate)
    part.counts[key] += 1
    if mask < part.first.get(key, mask + 1):
        part.first[key] = mask
    if not verify_cover(g, cov):
        part.failed["reach"].add(mask)
    if max(cov.a.bit_count(), cov.b.bit_count()) < (g.n + 1) // 2:
        part.failed["corollary"].add(mask)


def _scan_chunk(n: int, mode: str, check: str, seed: int | None, total: int,
                count: int, blocks: Sequence[int]) -> _Partial:
    """Tally the colorings of each block j in blocks, one of count blocks
    over the index range [0, total) (_block_count).

    Scans up to _LANE_MAX_N go a lane block at a time (_tally_lanes);
    above it, where only reach scans go, each coloring of a block is
    examined one at a time.
    """
    part = _Partial()
    for masks, edge_lanes in _lane_blocks(n, mode, seed, total, count, blocks):
        if edge_lanes is None:
            for mask in masks:
                _examine(from_red_mask(n, mask), mask, part)
        else:
            _tally_lanes(n, check, masks, edge_lanes, part)
    return part


def _lane_blocks(n: int, mode: str, seed: int | None, total: int, count: int,
                 blocks: Sequence[int]
                 ) -> Iterator[tuple[Sequence[int], list[int] | None]]:
    """(masks, edge_lanes) of each block j in blocks: the colorings of the
    indices [total*j // count, total*(j+1) // count).

    edge_lanes[k] is edge k's lane int: bit i is set when masks[i] colors
    edge k red.  count is a power of two in an exhaustive scan, so block j
    is the aligned run of 2**b masks whose high bits are j: each of its b
    low edges is a fixed lane pattern, and edge b + k all or none by bit k
    of j.  A random block's draws are sorted (so the lowest lane of a set
    is its smallest mask) and transposed; above _LANE_MAX_N its edge_lanes
    is None.
    """
    m = num_edges(n)
    if mode == "random":
        for j in blocks:
            masks = sorted(random_red_mask(n, seed + SEED_STRIDE * i) for i in
                           range(total * j // count, total * (j + 1) // count))
            yield masks, lanes.transpose(masks, m) if n <= _LANE_MAX_N else None
        return
    b = (total // count).bit_length() - 1
    patterns = list(lanes.patterns(b))
    ones = (1 << (1 << b)) - 1
    for j in blocks:
        yield range(j << b, (j + 1) << b), patterns + [
            ones if j >> k & 1 else 0 for k in range(m - b)]


def _tally_lanes(n: int, check: str, masks: Sequence[int],
                 edge_lanes: list[int], part: _Partial) -> None:
    """Tally one lane block: the lane path for all four branches, then
    _examine and _diam2_cover for the colorings it leaves.

    lanes.covers claims a cover for each lane, or reports it failed, and
    lanes.verify re-derives every claimed cover.  A claimed cover the
    lane verifier rejects is a reach failure.  One it accepts counts as a
    diameter-2 cover too when both parts pass the lane stage 1, the
    in-set check of every members part (a closed star always passes, and
    V fails only where it is rejected).  The failed lanes, where branch 3
    fails an internal assertion, go to _examine under reach/both, which
    reports the message.  Under diam2/both the rejected, failed and wide
    lanes go to _diam2_cover alone, whose answer does not depend on the
    stage 1 they skip.
    """
    ones = (1 << len(masks)) - 1
    adj = lanes.adjacency(n, edge_lanes, ones)
    claims, failed = lanes.covers(n, adj, ones)
    rejected, small, wide = lanes.verify(n, adj, claims)
    if check in ("reach", "both"):
        for claim, x in claims.items():
            key = claim[0]
            part.counts[key] += x.bit_count()
            mask = masks[(x & -x).bit_length() - 1]
            if mask < part.first.get(key, mask + 1):
                part.first[key] = mask
        part.failed["reach"].update(masks[i] for i in lanes.indices(rejected))
        part.failed["corollary"].update(masks[i] for i in lanes.indices(small))
        for i in lanes.indices(failed):
            _examine(from_red_mask(n, masks[i]), masks[i], part)
    if check in ("diam2", "both"):
        # every lane but the failed ones has a claim
        alone = rejected | wide | failed
        part.counts["diam2_found"] += (ones ^ alone).bit_count()
        for i in lanes.indices(alone):
            if _diam2_cover(from_red_mask(n, masks[i])) is not None:
                part.counts["diam2_found"] += 1
            else:
                part.failed["diam2"].add(masks[i])


def _block_count(n: int, mode: str, total: int, workers: int) -> int:
    """How many blocks a scan cuts its index range [0, total) into.

    Block j holds the indices [total*j // count, total*(j+1) // count).
    Workers deal whole blocks and never shrink them: an exhaustive plan is
    aligned runs of 2**_LANE_BITS masks (one block below that), and a
    random one gives each of min(workers, ceil(total / _RANDOM_LANES))
    jobs the same number of blocks of at most _RANDOM_LANES.
    """
    if mode == "random":
        jobs = min(workers, -(-total // _RANDOM_LANES))
        return jobs * -(-total // (jobs * _RANDOM_LANES))
    return 1 << max(0, num_edges(n) - _LANE_BITS)


def _scan_job(conn, args: tuple, blocks: range) -> None:
    """Worker process: send the tally of blocks, or the exception it raised."""
    try:
        result = _scan_chunk(*args, blocks)
    except Exception as exc:
        # the caller re-raises it; an exception that cannot make the trip
        # (its __init__ takes other arguments) goes as type name and message
        try:
            result = pickle.loads(pickle.dumps(exc))
        except Exception:
            result = RuntimeError(f"{type(exc).__name__}: {exc}")
    with conn:
        conn.send(result)


def _scan_jobs(args: tuple, jobs: list[range]) -> _Partial:
    """Scan the blocks of jobs[0] in this process and those of every later
    job in a child process; a lone job starts none.

    args ends with the caller's plan (total, count), which a child never
    recomputes, whatever start method made it.  Each child sends its
    _Partial (or its exception) through a one-way pipe.  The caller
    receives a child's tally before joining it -- joining first can
    deadlock on a tally larger than the pipe buffer -- and on any way out
    terminates and joins every child still running.
    """
    if len(jobs) == 1:
        return _scan_chunk(*args, jobs[0])
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for blocks in jobs[1:]:
            recv, send = ctx.Pipe(duplex=False)
            with send:  # the child holds its own copy of the sending end
                proc = ctx.Process(target=_scan_job, args=(send, args, blocks))
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
         workers: int = 1) -> ScanReport:
    """Run solve/verify and/or the diameter-2 search over a coloring space.

    mode "exhaustive" walks all 2**(n(n-2)/2) colorings (n at most
    ENUMERATION_MAX_N); mode "random" draws ``samples`` colorings from
    ``seed`` (sample i uses seed + SEED_STRIDE*i).

    Up to n = 64 the colorings of all four of solve's
    branches (whole-c, two-stars-c, lemma-* and critical-complement) are
    classified and verified a lane block at a time (_tally_lanes) and
    never reach solve or verify_cover; those whose branch 3 fails an
    internal assertion, and every coloring above n = 64, are solved and
    verified one at a time.

    The index range is cut into whole blocks (_block_count), and worker w
    (of at most SCAN_MAX_WORKERS) takes blocks w, w + workers, ..., so
    every worker samples the whole range.  The caller scans worker 0's
    blocks itself while one forked process per further worker with a
    block scans its own and pipes back the tallies: a one-block scan
    forks none.  An exception in a worker is re-raised here, and no
    worker outlives the call.  Every reported field is independent of
    workers.
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
        if samples is None or samples < 1:
            raise ValueError("random mode needs samples >= 1")
        if seed is None:
            raise ValueError("random mode needs a seed")
        total = samples
    else:
        if samples is not None or seed is not None:
            raise ValueError("samples/seed only apply to random mode")
        if n > ENUMERATION_MAX_N:
            raise ValueError(
                f"n={n} exceeds the exhaustive bound {ENUMERATION_MAX_N} "
                f"(2**{edges} colorings)")
        total = 1 << edges

    start = time.monotonic()
    count = _block_count(n, mode, total, workers)
    merged = _scan_jobs((n, mode, check, seed, total, count),
                        [range(w, count, workers)
                         for w in range(min(workers, count))])
    wall = time.monotonic() - start

    name = canonical_red_mask if n <= CANONICAL_NAMES_MAX_N else lambda n, m: m
    failures = {kind: tuple(mask_to_compact(n, m)
                            for m in sorted({name(n, m) for m in masks}))
                for kind, masks in merged.failed.items()}
    # a failure name's reason is that of its smallest mask
    reasons: dict[str, str] = {}
    for mask, reason in sorted(merged.reasons.items()):
        reasons.setdefault(mask_to_compact(n, name(n, mask)), reason)
    diam2 = check in ("diam2", "both")
    return ScanReport(
        n=n,
        mode=mode,
        check=check,
        samples=samples,
        seed=seed,
        colorings_scanned=total,
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
        assertion_reasons=tuple(reasons[f] for f in failures["assertion"]),
    )
