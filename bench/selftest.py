#!/usr/bin/env python3
"""Self-test of the benchmark itself; exits 0 when every check passes.

    python3 bench/selftest.py

- Inputs: one seed gives identical batches twice, two seeds differ.
- The uniform generator replays scan's random stream exactly.
- Exact counts (branch census, diameter-2 stages, canonical accepts) of
  a traced run repeat exactly for one seed, and the run reports every
  per-layer metric; a short untraced run reports every end-to-end metric.
- BENCHMARK.json names the same workloads and metrics as the code.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter

from run import BENCH, ROOT, end_to_end, import_program, layers

EXACT_PREFIXES = ("cover.branch.", "lab.diam2.stage", "lab.is_canonical.calls",
                  "graphs.from_red_mask.calls")


def main() -> int:
    pc = import_program()
    from inputs import gray_window, planted_mask, uniform_masks
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for wl in WORKLOADS.values():
        first = [wl.inputs(7, b) for b in range(3)]
        check(first == [wl.inputs(7, b) for b in range(3)],
              f"{wl.name}: seed 7 gives the same batches twice")
        check(first != [wl.inputs(8, b) for b in range(3)],
              f"{wl.name}: seeds 7 and 8 give different batches")
    check(uniform_masks(10, 5, 50) == uniform_masks(10, 5, 50)
          and uniform_masks(10, 5, 50) != uniform_masks(10, 6, 50),
          "uniform_masks depends on its seed alone")
    check(planted_mask(64, 0.1, random.Random(1))
          == planted_mask(64, 0.1, random.Random(1))
          != planted_mask(64, 0.1, random.Random(2)),
          "planted_mask depends on its generator alone")
    check(planted_mask(48, 0.0, random.Random(1))
          == pc.build_sharp_example(48).red_mask(),
          "planted_mask with flip probability 0 is the sharp example")
    walk = gray_window(6, 64)
    check(walk[:4] == [5, 4, 12, 13]
          and all((a ^ b).bit_count() == 1 for a, b in zip(walk, walk[1:])),
          "gray_window follows i ^ (i >> 1), one edge flip per step")

    seed, samples = 11, 400
    report = pc.scan(10, "random", "reach", samples=samples, seed=seed)
    census: Counter = Counter()
    first: dict[str, int] = {}
    for mask in uniform_masks(10, seed, samples):
        key = pc.branch_key(pc.solve(pc.from_red_mask(10, mask)).certificate)
        census[key] += 1
        first[key] = min(first.get(key, mask), mask)
    check(+Counter(report.branch_counts) == census
          and report.branch_first == {k: pc.mask_to_compact(10, m)
                                      for k, m in sorted(first.items())},
          "uniform_masks replays scan's stream (census and first masks)")

    layer_names = {name for name, _, _ in PER_LAYER}
    for wl in WORKLOADS.values():
        runs = [layers(wl, 3, 2.0) for _ in range(2)]
        exact = [{k: v for k, v in m.items() if k.startswith(EXACT_PREFIXES)}
                 for m, _, _, _ in runs]
        check(all(failed == 0 for _, _, failed, _ in runs),
              f"{wl.name}: traced run checks pass")
        check(exact[0] == exact[1], f"{wl.name}: exact counts repeat for one seed")
        check(set(runs[0][0]) == layer_names,
              f"{wl.name}: traced run reports every per-layer metric")
    metrics, _, failed, _ = end_to_end(WORKLOADS["certify-n64"], 3, 0.5)
    check(failed == 0 and set(metrics) == {name for name, _, _ in END_TO_END},
          "untraced run reports every end-to-end metric")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(spec["paths"] == [BENCH.name], "BENCHMARK.json paths name this directory")
    check({w["name"]: w["why"] for w in spec["workloads"]}
          == {wl.name: wl.why for wl in WORKLOADS.values()},
          "BENCHMARK.json workloads match workloads.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
          == list(END_TO_END), "BENCHMARK.json end_to_end matches metrics.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == list(PER_LAYER), "BENCHMARK.json per_layer matches metrics.py")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
