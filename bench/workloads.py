"""The benchmark's four workloads.

Each workload turns (seed, batch index) into one fixed-size batch of
inputs, runs the program on it, and checks the outputs afterwards, outside
the timed region.  ``run`` is the untraced path; ``traced`` does the same
calls through a Tracer namespace so every call into the program is a span
under the item's root span; ``probe`` then times a few extra calls on the
same colorings (outside the traced wall time) and tags the spans.

An item is one coloring (scan-n10, certify-n64), one walked mask
(prune-n8) or one graph with both colors (maxreach-n48).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import replace

import partycover as pc

from inputs import batch_rng, gray_window, planted_mask, sharp_mask, uniform_masks
from tracing import Tracer

COLORS = (pc.RED, pc.BLUE)


def _probe_coloring(tr: Tracer, parent: int, g: pc.ColoredCocktail) -> None:
    """Time the reach primitives the solver and the verifier build on."""
    for c in COLORS:
        tr.under(parent, "reach.mono_diam_le2", pc.mono_diam_le2, g, c)
        tr.under(parent, "reach.critical_pairs", pc.critical_pairs, g, c)


def _tag_solve(tr: Tracer, span: int, cov: pc.Cover) -> None:
    tr.tag[span] = pc.BRANCH_KEYS.index(pc.branch_key(cov.certificate))


def _probe_cover(tr: Tracer, parent: int, g: pc.ColoredCocktail,
                 cov: pc.Cover) -> None:
    """check_cover without the certificate: the set checks alone."""
    tr.under(parent, "cover.check_sets", pc.check_cover, g,
             replace(cov, certificate=None))


def diam2_stage(g: pc.ColoredCocktail) -> int:
    """Stage of exists_diam2_cover that answers, classified from outside.

    1: the constructive cover's parts already have in-set diameter 2;
    2: some pair of closed stars covers V; 3: the assignment search.
    """
    cov = pc.solve(g)
    if pc.is_diam2_subset(g, cov.color_a, cov.a) and \
            pc.is_diam2_subset(g, cov.color_b, cov.b):
        return 1
    full = (1 << g.n) - 1
    stars = [pc.star(g, c, v) for c in COLORS for v in range(g.n)]
    if any((s | t) == full for s in stars for t in stars):
        return 2
    return 3


class Workload:
    """Seeded batches of items, the program calls made per item, and the
    checks on their outputs.  With two workers a batch is split over the
    benchmark's own pool of two processes."""

    name: str
    why: str
    n: int
    batch_items: int
    #: Batches per second of --seconds in a traced run, sized so that a
    #: traced run lasts about half of --seconds on a 2-core Xeon.
    trace_batches_per_s: float
    #: Program functions called per item: attribute -> span name.
    calls: dict[str, str]
    warm_input: int = 0
    #: True when a batch is one lab.scan call, which runs its own workers.
    calls_scan = False

    @staticmethod
    def item(api, x):
        raise NotImplementedError

    def inputs(self, seed: int, b: int) -> list[int]:
        raise NotImplementedError

    def size(self, batch) -> int:
        return len(batch)

    def run_items(self, api, xs: list[int]) -> list:
        item = self.item
        return [item(api, x) for x in xs]

    def run(self, batch, workers: int, pool):
        if workers == 1:
            return self.run_items(pc, batch)
        # Alternate items go to the two workers; inputs() orders each batch
        # so that both halves hold the same mix.
        left, right = pool.map(run_in_worker, [(self.name, batch[0::2]),
                                               (self.name, batch[1::2])],
                               chunksize=1)
        out = [None] * len(batch)
        out[0::2], out[1::2] = left, right
        return out

    def warm(self) -> None:
        """The first call: builds the program's lazy tables for this n."""
        self.run_items(pc, [self.warm_input])

    def fingerprint(self, outputs) -> bytes:
        return hashlib.sha256(repr(outputs).encode()).digest()

    def traced(self, tr: Tracer, api, batch) -> list:
        item = tr.wrap("item", self.item)
        return [item(api, x) for x in batch]

    def check_traced(self, batch, outputs, counts: Counter) -> int:
        return self.check(batch, outputs, counts)

    def check(self, batch, outputs, counts: Counter) -> int:
        raise NotImplementedError

    def probe(self, tr: Tracer, batch, outputs, since: int) -> None:
        raise NotImplementedError


def run_in_worker(args: tuple[str, list[int]]) -> list:
    name, xs = args
    return WORKLOADS[name].run_items(pc, xs)


class ScanN10(Workload):
    name = "scan-n10"
    why = ("lab.scan(10, random, both): the sweep entry point at the diameter-2 "
           "frontier; uniform n=10 fires every live solver branch and all layers "
           "take a share")
    n = 10
    batch_items = 300
    trace_batches_per_s = 3.5
    calls_scan = True
    calls = {"from_red_mask": "graphs.from_red_mask", "solve": "cover.solve",
             "check_cover": "cover.check_cover",
             "exists_diam2_cover": "lab.exists_diam2_cover"}

    def inputs(self, seed: int, b: int) -> int:
        return batch_rng(self.name, seed, b).getrandbits(48)

    def size(self, batch) -> int:
        return self.batch_items

    def run(self, batch, workers: int, pool):
        return pc.scan(self.n, "random", "both", samples=self.batch_items,
                       seed=batch, workers=workers)

    def warm(self) -> None:
        pc.scan(self.n, "random", "both", samples=1, seed=0)

    def fingerprint(self, report) -> str:
        return report.machine_text()

    @staticmethod
    def item(api, mask):
        g = api.from_red_mask(10, mask)
        cov = api.solve(g)
        return cov, api.check_cover(g, cov), api.exists_diam2_cover(g)

    def traced(self, tr: Tracer, api, batch) -> list:
        # The mask draws stay inside the timed loop, as they are inside scan.
        item = tr.wrap("item", self.item)
        return [item(api, x)
                for x in uniform_masks(self.n, batch, self.batch_items)]

    def check(self, batch, report, counts: Counter) -> int:
        counts.update({f"branch.{k}": v for k, v in report.branch_counts.items()})
        counts["diam2_found"] += report.diam2_cover_found
        failed = (len(report.reach_failures) + len(report.assertion_failures)
                  + len(report.corollary_failures))
        if report.colorings_scanned != self.batch_items:
            failed = self.batch_items
        failed += report.colorings_scanned - report.diam2_cover_found
        if not report.ok:
            failed = max(failed, 1)
        return min(failed, self.batch_items)

    def check_traced(self, batch, outputs, counts: Counter) -> int:
        failed = 0
        for cov, reason, d2 in outputs:
            counts[f"branch.{pc.branch_key(cov.certificate)}"] += 1
            counts["diam2_found"] += d2 is not None
            if (reason is not None or d2 is None
                    or max(cov.a.bit_count(), cov.b.bit_count()) < self.n // 2):
                failed += 1
        return failed

    def probe(self, tr: Tracer, batch, outputs, since: int) -> None:
        masks = uniform_masks(self.n, batch, self.batch_items)
        for root, mask, (cov, _, _) in zip(tr.roots(since, "item"), masks,
                                           outputs):
            kids = tr.children(root)
            g = pc.from_red_mask(self.n, mask)
            _tag_solve(tr, kids["cover.solve"][0], cov)
            tr.tag[kids["lab.exists_diam2_cover"][0]] = diam2_stage(g)
            _probe_cover(tr, root, g, cov)
            _probe_coloring(tr, root, g)


class CertifyN64(Workload):
    name = "certify-n64"
    why = ("from_red_mask, solve, check_cover at n=64 on uniform and planted "
           "masks alternating; planted ones reach whole-2, two-stars and "
           "critical-complement; construction and verify dominate")
    n = 64
    batch_items = 8
    trace_batches_per_s = 8.0
    calls = {"from_red_mask": "graphs.from_red_mask", "solve": "cover.solve",
             "check_cover": "cover.check_cover"}
    flip_p = 0.1

    def inputs(self, seed: int, b: int) -> list[int]:
        rng = batch_rng(self.name, seed, b)
        half = self.batch_items // 2
        uniform = uniform_masks(self.n, rng.getrandbits(48), half)
        planted = [planted_mask(self.n, self.flip_p, rng) for _ in range(half)]
        # u p p u u p p u: each worker of a two-way split gets both kinds.
        return [m for k, pair in enumerate(zip(uniform, planted))
                for m in (pair if k % 2 == 0 else pair[::-1])]

    @staticmethod
    def item(api, mask):
        g = api.from_red_mask(64, mask)
        cov = api.solve(g)
        return cov, api.check_cover(g, cov)

    def check(self, batch, outputs, counts: Counter) -> int:
        failed = 0
        for cov, reason in outputs:
            counts[f"branch.{pc.branch_key(cov.certificate)}"] += 1
            if reason is not None or \
                    max(cov.a.bit_count(), cov.b.bit_count()) < self.n // 2:
                failed += 1
        return failed

    def probe(self, tr: Tracer, batch, outputs, since: int) -> None:
        for root, mask, (cov, _) in zip(tr.roots(since, "item"), batch, outputs):
            g = pc.from_red_mask(self.n, mask)
            _tag_solve(tr, tr.children(root)["cover.solve"][0], cov)
            _probe_cover(tr, root, g, cov)
            _probe_coloring(tr, root, g)


class PruneN8(Workload):
    name = "prune-n8"
    why = ("per-mask work of scan(8, exhaustive, diam2, prune=True) on Gray-order "
           "windows at stratified uniform starts: almost all is_canonical, which "
           "optimising other layers must not move")
    n = 8
    #: One short window per stratum of the 2**24 masks: a window's cost
    #: depends on where it starts (masks below 2**21 cost up to 500x more),
    #: so stratified starts keep every batch a like sample of the sweep.
    windows = 256
    window_masks = 16
    batch_items = windows * window_masks
    trace_batches_per_s = 2.0
    calls = {"is_canonical": "lab.is_canonical",
             "from_red_mask": "graphs.from_red_mask",
             "exists_diam2_cover": "lab.exists_diam2_cover"}
    #: Every this-many-th rejected mask is re-checked against canonical_red_mask.
    reject_check_stride = 1024

    def inputs(self, seed: int, b: int) -> list[int]:
        rng = batch_rng(self.name, seed, b)
        stratum = (1 << pc.num_edges(self.n)) // self.windows
        return [mask for k in range(self.windows)
                for mask in gray_window(
                    k * stratum + rng.randrange(stratum - self.window_masks),
                    self.window_masks)]

    @staticmethod
    def item(api, mask):
        """False when pruned, else the diameter-2 cover (None if none exists)."""
        if not api.is_canonical(8, mask):
            return False
        return api.exists_diam2_cover(api.from_red_mask(8, mask))

    def check(self, batch, outputs, counts: Counter) -> int:
        failed = 0
        rejected = 0
        for mask, out in zip(batch, outputs):
            if out is False:
                rejected += 1
                if rejected % self.reject_check_stride == 0 and \
                        pc.canonical_red_mask(self.n, mask) == mask:
                    failed += 1
                continue
            counts["canonical_accepts"] += 1
            g = pc.from_red_mask(self.n, mask)
            if (pc.canonical_red_mask(self.n, mask) != mask or out is None
                    or pc.check_cover(g, out, require_diam2=True) is not None):
                failed += 1
        return failed

    def probe(self, tr: Tracer, batch, outputs, since: int) -> None:
        for root, mask, out in zip(tr.roots(since, "item"), batch, outputs):
            kids = tr.children(root)
            tr.tag[kids["lab.is_canonical"][0]] = out is not False
            if out is False:
                continue
            g = pc.from_red_mask(self.n, mask)
            tr.tag[kids["lab.exists_diam2_cover"][0]] = diam2_stage(g)
            _probe_coloring(tr, root, g)


class MaxreachN48(Workload):
    name = "maxreach-n48"
    why = ("max_2reachable for both colors on planted n=48 colorings, flip "
           "probability cycling 0.01/0.03/0.1 by batch, so maxima spread over "
           "n/2..n; the only workload that runs extremal")
    n = 48
    #: Flip probability of batch b is flip_ps[b % 3]; one per batch keeps
    #: the two halves of a two-worker split alike.
    flip_ps = (0.01, 0.03, 0.1)
    batch_items = 2
    trace_batches_per_s = 8.0
    calls = {"from_red_mask": "graphs.from_red_mask",
             "max_2reachable": "extremal.max_2reachable"}

    @property
    def warm_input(self) -> int:
        return sharp_mask(self.n)

    def inputs(self, seed: int, b: int) -> list[int]:
        rng = batch_rng(self.name, seed, b)
        flip_p = self.flip_ps[b % len(self.flip_ps)]
        return [planted_mask(self.n, flip_p, rng) for _ in range(self.batch_items)]

    @staticmethod
    def item(api, mask):
        g = api.from_red_mask(48, mask)
        return api.max_2reachable(g, 1), api.max_2reachable(g, 2)

    def check(self, batch, outputs, counts: Counter) -> int:
        failed = 0
        for mask, sizes in zip(batch, outputs):
            g = pc.from_red_mask(self.n, mask)
            ok = max(size for size, _ in sizes) >= self.n // 2
            for c, (size, witness) in zip(COLORS, sizes):
                counts[f"max.{c}.{size}"] += 1
                ok = ok and witness.bit_count() == size \
                    and pc.is_2reachable_set(g, c, witness)
            failed += not ok
        return failed

    def probe(self, tr: Tracer, batch, outputs, since: int) -> None:
        for root, mask in zip(tr.roots(since, "item"), batch):
            g = pc.from_red_mask(self.n, mask)
            for c in COLORS:
                tr.under(root, "extremal.reach_adjacency", pc.reach_adjacency, g, c)
            _probe_coloring(tr, root, g)


WORKLOADS: dict[str, Workload] = {
    wl.name: wl for wl in (ScanN10(), CertifyN64(), PruneN8(), MaxreachN48())}
