#!/usr/bin/env python3
"""partycover benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload certify-n64 --seed 3 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 24

Run it from the root of a checkout; the program is imported from ./src.
Each workload is a closed loop in one process: the next fixed-size batch
starts when the previous one has finished, and its outputs are checked
between batches, outside the timed region.

--trace 0 reports the end-to-end metrics with tracing off.  It runs
ROUNDS rounds; each runs the same batches with one worker and then with
two, for half the time each, and each batch keeps its best time.
--trace 1 is the separate traced run: a fixed number of batches (scaled
by --seconds, so its exact counts repeat for a seed), each run untraced,
then again with a span around every call into the program, then probe
calls on the same colorings.  It reports the per-layer metrics and
writes its spans to .bench_out/spans-<workload>-seed<seed>.csv.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  ``--workload all`` runs every workload
in its own process and prints a table instead.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Share of --seconds for one worker; the two-worker replay gets the rest.
W1_SHARE = 0.5
#: Times each batch is run in an untraced run; its best time is kept.  The
#: CPU speed of a shared host drifts by up to 1.7x in phases of seconds,
#: so the best of several far-apart runs measures the program, not the
#: neighbours.
ROUNDS = 10
#: Enough batches for a tail percentile with ten batches beyond it.
MIN_BATCHES = 20
MIN_W2_BATCHES = 4
#: Keeps the fingerprints and best times small on a much faster host.
MAX_BATCHES = 2000
#: Fresh interpreters timed for setup_s per round; the median is reported.
SETUP_PER_ROUND = 2
#: Bound on one subprocess (a setup probe or one workload under --workload all).
CHILD_TIMEOUT_S = 170


def import_program():
    """partycover from this checkout's src/, or exit without a result."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import partycover
    except ImportError as exc:
        sys.exit(f"bench: cannot import partycover from {SRC}: {exc}")
    if Path(partycover.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: partycover came from {partycover.__file__}, not {SRC}")
    return partycover


def setup_seconds(name: str) -> float:
    out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), name],
                         cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.split()[-1])


@contextmanager
def worker_pool(wl):
    """Two workers for workloads the benchmark splits itself.

    Forked, like scan's own pool: the process has no threads yet, the
    workers inherit the warmed tables, and no semaphore tracker process
    outlives the run.
    """
    if wl.calls_scan:
        yield None
        return
    pool = multiprocessing.get_context("fork").Pool(2)
    try:
        yield pool
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()


class BestTimes:
    """Best time so far of each batch a workload runs with one worker count.

    The first outputs of batch b are fingerprinted into prints[b] (shared
    between worker counts); every later run of b must match them.
    """

    def __init__(self, wl, seed: int, workers: int, pool, prints: list):
        self.wl, self.seed, self.workers, self.pool = wl, seed, workers, pool
        self.prints = prints
        self.best: list[float] = []
        self.items = self.attempted = self.failed = 0

    def _run(self, b: int) -> float:
        wl = self.wl
        batch = wl.inputs(self.seed, b)
        t0 = perf_counter()
        out = wl.run(batch, self.workers, self.pool)
        elapsed = perf_counter() - t0
        bad = wl.check(batch, out, Counter())
        if b == len(self.prints):
            self.prints.append(wl.fingerprint(out))
        elif wl.fingerprint(out) != self.prints[b]:
            bad = wl.size(batch)
        self.failed += bad
        self.attempted += wl.size(batch)
        if b == len(self.best):
            self.items += wl.size(batch)
        return elapsed

    def first_pass(self, budget: float, min_batches: int, limit: int) -> None:
        """New batches for budget seconds: at least min_batches, at most limit."""
        deadline = perf_counter() + budget
        while len(self.best) < limit and (len(self.best) < min_batches
                                          or perf_counter() < deadline):
            self.best.append(self._run(len(self.best)))

    def next_pass(self, deadline: float) -> None:
        """Every batch again, in order, until the deadline."""
        for b, elapsed in enumerate(self.best):
            if perf_counter() > deadline:
                return
            self.best[b] = min(elapsed, self._run(b))


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    from metrics import percentile, tail_percentile

    wl.warm()
    prints: list = []
    setup: list[float] = []
    deadline = perf_counter() + seconds
    # Rounds alternate one and two workers over the same batches, so both
    # worker counts sample the host across the whole run.
    with worker_pool(wl) as pool:
        w1 = BestTimes(wl, seed, 1, None, prints)
        w2 = BestTimes(wl, seed, 2, pool, prints)
        for r in range(ROUNDS):
            setup += [setup_seconds(wl.name) for _ in range(SETUP_PER_ROUND)]
            if r == 0:
                w1.first_pass(W1_SHARE * seconds / ROUNDS, MIN_BATCHES, MAX_BATCHES)
                w2.first_pass((1 - W1_SHARE) * seconds / ROUNDS,
                              MIN_W2_BATCHES, len(w1.best))
            else:
                w1.next_pass(deadline)
                w2.next_pass(deadline)

    pct = tail_percentile(len(w1.best))
    metrics = {
        "throughput": w1.items / sum(w1.best),
        "throughput_w2": w2.items / sum(w2.best),
        "batch_p50_ms": median(w1.best) * 1e3,
        "batch_tail_ms": percentile(w1.best, pct) * 1e3,
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"{len(w1.best)} batches of {wl.batch_items} items with 1 worker, "
             f"the first {len(w2.best)} of them also with 2; best of up to "
             f"{ROUNDS} rounds each",
             f"batch_tail_ms is p{pct} of {len(w1.best)} batches",
             f"setup_s is the median of {len(setup)} fresh interpreters"]
    return (metrics, w1.attempted + w2.attempted, w1.failed + w2.failed,
            notes)


def layers(wl, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    import partycover as pc
    from metrics import layer_metrics
    from tracing import Tracer

    wl.warm()
    batches = max(2, round(seconds * wl.trace_batches_per_s))
    tr = Tracer()
    api = tr.api(pc, wl.calls)
    attempted = failed = 0
    counts_untraced: Counter = Counter()
    counts_traced: Counter = Counter()
    wall_untraced = wall_traced = 0.0
    # Each batch runs untraced and then traced back to back, so both see
    # the host in the same state and their wall times compare.
    for b in range(batches):
        batch = wl.inputs(seed, b)
        t0 = perf_counter()
        out = wl.run(batch, 1, None)
        wall_untraced += perf_counter() - t0
        failed += wl.check(batch, out, counts_untraced)

        since = len(tr)
        t0 = perf_counter()
        out = wl.traced(tr, api, batch)
        wall_traced += perf_counter() - t0
        failed += wl.check_traced(batch, out, counts_traced)
        attempted += 2 * wl.size(batch)
        wl.probe(tr, batch, out, since)

    notes = [f"{batches} batches of {wl.batch_items} items, each untraced "
             f"then traced"]
    # Both passes saw the same inputs, so every exact count must agree.
    if counts_traced != counts_untraced:
        failed += batches * wl.batch_items
        notes.append("MISMATCH between traced and untraced counts: "
                     f"{sorted((counts_traced - counts_untraced).items())} / "
                     f"{sorted((counts_untraced - counts_traced).items())}")
    calls = tuple(wl.calls.values())
    stats = tr.stats()
    metrics = layer_metrics(stats, calls, wall_untraced, wall_traced,
                            scan=wl.calls_scan)
    for name in calls:
        share = stats.get((name, None), (0, 0.0))[1] / wall_traced
        notes.append(f"share of traced time in {name}: {share:.3f}")
    spans = OUT / f"spans-{wl.name}-seed{seed}.csv"
    tr.write_csv(spans)
    notes.append(f"{len(tr)} spans written to {spans.relative_to(ROOT)}")
    return metrics, attempted, failed, notes


def run_all(args) -> int:
    """Every workload in its own process; a table of their metrics."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        print(f"   {'error_frac':32s} {result['failed'] / result['attempted']:.6g} frac")
        for metric, v in result["metrics"].items():
            print(f"   {metric:32s} {v['value']:.6g} {v['unit']}")
        status |= not result["correct"]
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    from metrics import UNITS
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    measure = layers if args.trace else end_to_end
    metrics, attempted, failed, notes = measure(wl, args.seed, args.seconds)
    for note in notes:
        print(f"# {wl.name}: {note}")
    print(f"# {wl.name}: error_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} items)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
