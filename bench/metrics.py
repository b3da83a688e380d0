"""Metric names, units and how each is computed.

BENCHMARK.json lists the same names; ``selftest.py`` checks that they agree.
"""

from __future__ import annotations

import math

from partycover import BRANCH_KEYS

from tracing import SpanStats

#: (name, unit, better): reported by --trace 0.
END_TO_END = (
    ("throughput", "1/s", "higher"),
    ("throughput_w2", "1/s", "higher"),
    ("batch_p50_ms", "ms", "lower"),
    ("batch_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_SOLVE_FAMILIES = {
    "whole": ("whole-1", "whole-2"),
    "two-stars": ("two-stars-1", "two-stars-2"),
    "lemma": tuple(k for k in BRANCH_KEYS if k.startswith("lemma-")),
    "critical-complement": ("critical-complement",),
}

#: (name, unit, better): reported by --trace 1.  A time is the mean per
#: call in microseconds, 0 where the workload makes no such call.  The
#: branch and stage counts are exact checks; their direction is nominal.
PER_LAYER = (
    ("graphs.from_red_mask.calls", "count", "lower"),
    ("graphs.from_red_mask.us", "us", "lower"),
    ("cover.solve.us", "us", "lower"),
    *((f"cover.solve.us.{fam}", "us", "lower") for fam in _SOLVE_FAMILIES),
    ("cover.check_cover.us", "us", "lower"),
    ("cover.check_sets.us", "us", "lower"),
    ("cover.check_cert.us", "us", "lower"),
    ("cover.verify_ratio", "ratio", "lower"),
    *((f"cover.branch.{key}", "count", "higher") for key in BRANCH_KEYS),
    ("reach.mono_diam_le2.us", "us", "lower"),
    ("reach.critical_pairs.us", "us", "lower"),
    ("lab.exists_diam2_cover.us", "us", "lower"),
    *((f"lab.exists_diam2_cover.us.stage{s}", "us", "lower") for s in (1, 2, 3)),
    *((f"lab.diam2.stage{s}", "count", "higher") for s in (1, 2, 3)),
    ("lab.is_canonical.calls", "count", "lower"),
    ("lab.is_canonical.us", "us", "lower"),
    ("lab.is_canonical.accept_frac", "frac", "higher"),
    ("lab.scan.other_frac", "frac", "lower"),
    ("extremal.reach_adjacency.us", "us", "lower"),
    ("extremal.max_2reachable.us", "us", "lower"),
    ("extremal.clique.us", "us", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten of ``count`` samples beyond it."""
    for pct in range(99, 0, -1):
        if count - math.ceil(pct * count / 100) >= 10:
            return pct
    raise ValueError(f"{count} batches leave no percentile with 10 beyond it")


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(pct * len(ordered) / 100) - 1]


def layer_metrics(st: SpanStats, calls: tuple[str, ...], wall_untraced: float,
                  wall_traced: float, scan: bool) -> dict[str, float]:
    """Per-layer metrics from the span statistics of a traced run.

    ``calls`` names the program spans of the workload's item loop; their
    summed time is the layers' busy time.  ``scan`` says the untraced
    wall time was spent in ``lab.scan``, so the rest is its own share.
    """

    def count(name: str, tag: int | None = None) -> int:
        return int(st.get((name, tag), (0, 0.0))[0])

    def us(name: str, tags: tuple[int | None, ...] = (None,)) -> float:
        n = sum(st.get((name, t), (0, 0.0))[0] for t in tags)
        total = sum(st.get((name, t), (0, 0.0))[1] for t in tags)
        return total / n * 1e6 if n else 0.0

    m: dict[str, float] = {
        "graphs.from_red_mask.calls": count("graphs.from_red_mask"),
        "graphs.from_red_mask.us": us("graphs.from_red_mask"),
        "cover.solve.us": us("cover.solve"),
    }
    for fam, keys in _SOLVE_FAMILIES.items():
        m[f"cover.solve.us.{fam}"] = us(
            "cover.solve", tuple(BRANCH_KEYS.index(k) for k in keys))
    check, sets = us("cover.check_cover"), us("cover.check_sets")
    m["cover.check_cover.us"] = check
    m["cover.check_sets.us"] = sets
    m["cover.check_cert.us"] = check - sets
    m["cover.verify_ratio"] = check / m["cover.solve.us"] if m["cover.solve.us"] else 0.0
    for i, key in enumerate(BRANCH_KEYS):
        m[f"cover.branch.{key}"] = count("cover.solve", i)
    m["reach.mono_diam_le2.us"] = us("reach.mono_diam_le2")
    m["reach.critical_pairs.us"] = us("reach.critical_pairs")
    m["lab.exists_diam2_cover.us"] = us("lab.exists_diam2_cover")
    for s in (1, 2, 3):
        m[f"lab.exists_diam2_cover.us.stage{s}"] = us("lab.exists_diam2_cover", (s,))
    for s in (1, 2, 3):
        m[f"lab.diam2.stage{s}"] = count("lab.exists_diam2_cover", s)
    canon = count("lab.is_canonical")
    m["lab.is_canonical.calls"] = canon
    m["lab.is_canonical.us"] = us("lab.is_canonical")
    m["lab.is_canonical.accept_frac"] = (
        count("lab.is_canonical", 1) / canon if canon else 0.0)
    busy = sum(st.get((name, None), (0, 0.0))[1] for name in calls)
    m["lab.scan.other_frac"] = 1.0 - busy / wall_untraced if scan else 0.0
    adjacency, best = us("extremal.reach_adjacency"), us("extremal.max_2reachable")
    m["extremal.reach_adjacency.us"] = adjacency
    m["extremal.max_2reachable.us"] = best
    m["extremal.clique.us"] = best - adjacency if best else 0.0
    m["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
    return m

