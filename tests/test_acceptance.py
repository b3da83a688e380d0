"""Acceptance gate: one test and one pass/fail summary line per criterion.

The heavy fixtures (the full n=8 sweep, the large random batches) are
module-scoped and shared; the whole suite runs in under a minute.
Tests touching them carry the ``heavy`` marker so ``-m "not heavy"``
still gives a quick partial gate.
"""

import itertools
import pathlib
import random

import pytest

import conftest
from partycover.cover import branch_key, solve, verify_cover
from partycover.extremal import (
    brute_max_2reachable,
    build_sharp_example,
    max_2reachable,
)
from partycover.graphs import (
    BLUE,
    RED,
    enumerate_colorings,
    from_compact,
    from_red_mask,
    mask_to_compact,
    num_edges,
)
from partycover.lab import scan
from partycover.reach import dist_le2, is_2reachable_set, is_diam2_subset

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: Frozen base seed for every randomized acceptance batch.
BASE_SEED = 20260823

#: Orders for the large random solve/verify batches, 100000 colorings each.
RANDOM_ORDERS = (10, 12, 16, 32, 64)
RANDOM_SAMPLES = 100_000


def record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# --- shared scan fixtures -------------------------------------------------


@pytest.fixture(scope="module")
def small_reports():
    return {n: scan(n, mode="exhaustive", check="reach") for n in (2, 4, 6)}


@pytest.fixture(scope="module")
def n8_report():
    return scan(8, mode="exhaustive", check="reach", workers=2)


@pytest.fixture(scope="module")
def random_reports():
    return {
        n: scan(n, mode="random", check="reach", samples=RANDOM_SAMPLES,
                seed=BASE_SEED + n)
        for n in RANDOM_ORDERS
    }


@pytest.fixture(scope="module")
def diam2_small_reports():
    return {n: scan(n, mode="exhaustive", check="diam2") for n in (4, 6)}


@pytest.fixture(scope="module")
def diam2_n8_report():
    return scan(8, mode="random", check="diam2", samples=10_000,
                seed=BASE_SEED + 8)


# --- criteria -------------------------------------------------------------


@pytest.mark.heavy
def test_criterion_1_exhaustive_solve_verify(small_reports, n8_report):
    """Every coloring at n = 2, 4, 6, 8 is solved and re-verified."""
    reports = dict(small_reports)
    reports[8] = n8_report
    bad = []
    for n, rep in sorted(reports.items()):
        if rep.colorings_scanned != 1 << num_edges(n):
            bad.append(f"n={n} scanned {rep.colorings_scanned}")
        if rep.reach_failures or rep.assertion_failures:
            bad.append(f"n={n} failures {rep.reach_failures + rep.assertion_failures}")
    seconds = n8_report.wall_time
    if seconds >= 30 * 60:
        bad.append(f"n=8 took {seconds:.1f} s, budget is 30 min")
    record(1, not bad,
           f"exhaustive solve+verify n=2,4,6,8 "
           f"({sum(r.colorings_scanned for r in reports.values())} colorings, "
           f"0 failures; n=8 full sweep in {seconds:.1f} s)"
           + (f" -- {bad}" if bad else ""))


@pytest.mark.heavy
def test_criterion_2_random_solve_verify(random_reports):
    """100000 seeded random colorings at each larger order, zero failures."""
    bad = []
    for n, rep in sorted(random_reports.items()):
        if rep.colorings_scanned != RANDOM_SAMPLES:
            bad.append(f"n={n} scanned {rep.colorings_scanned}")
        if rep.reach_failures or rep.assertion_failures:
            bad.append(f"n={n} failures {rep.reach_failures + rep.assertion_failures}")
    record(2, not bad,
           f"random solve+verify, {RANDOM_SAMPLES} colorings at each "
           f"n in {RANDOM_ORDERS}, 0 failures"
           + (f" -- {bad}" if bad else ""))


@pytest.mark.heavy
def test_criterion_3_half_cover_and_extremal_oracle(small_reports, n8_report,
                                                    random_reports):
    """Some cover part always reaches ceil(n/2); the extremal solver agrees
    with the subset-enumeration oracle on every n=6 coloring and color."""
    bad = []
    for rep in [*small_reports.values(), n8_report, *random_reports.values()]:
        if rep.corollary_failures:
            bad.append(f"n={rep.n} small covers {rep.corollary_failures}")
    disagreements = 0
    for g in enumerate_colorings(6):
        for c in (RED, BLUE):
            if max_2reachable(g, c)[0] != brute_max_2reachable(g, c):
                disagreements += 1
    if disagreements:
        bad.append(f"{disagreements} extremal oracle disagreements at n=6")
    scanned = (sum(r.colorings_scanned for r in small_reports.values())
               + n8_report.colorings_scanned
               + sum(r.colorings_scanned for r in random_reports.values()))
    record(3, not bad,
           f"max(|A|,|B|) >= n/2 on all {scanned} covers; "
           f"max_2reachable == brute oracle on all 4096 n=6 colorings, "
           f"both colors" + (f" -- {bad}" if bad else ""))


def test_criterion_4_sharpness():
    """The even/odd-split coloring pins both maxima to exactly n/2, and for
    n <= 12 every set of n/2 + 1 vertices contains a partner pair that is
    critical in both colors."""
    bad = []
    for n in (4, 6, 8, 10, 12, 16):
        g = build_sharp_example(n)
        for c in (RED, BLUE):
            size = max_2reachable(g, c)[0]
            if size != n // 2:
                bad.append(f"n={n} color {c} max {size}")
    for n in (4, 6, 8, 10, 12):
        g = build_sharp_example(n)
        crit = {u for u in range(0, n, 2)
                if not dist_le2(g, RED, u, u + 1)
                and not dist_le2(g, BLUE, u, u + 1)}
        if len(crit) != n // 2:
            bad.append(f"n={n}: only {len(crit)} partner pairs critical "
                       f"in both colors")
        for combo in itertools.combinations(range(n), n // 2 + 1):
            chosen = set(combo)
            if not any(u in chosen and (u + 1) in chosen for u in crit):
                bad.append(f"n={n} subset {combo} misses every critical pair")
                break
    record(4, not bad,
           "sharp coloring maxima exactly n/2 for n=4,6,8,10,12,16; every "
           "(n/2+1)-subset traps a both-colors-critical partner pair "
           "(exhaustive, n<=12)" + (f" -- {bad}" if bad else ""))


@pytest.mark.heavy
def test_criterion_5_internal_assertions(small_reports, n8_report):
    """The construction's always-on internal assertions never fire."""
    bad = []
    total = 0
    for rep in [*small_reports.values(), n8_report]:
        total += rep.colorings_scanned
        if rep.assertion_failures:
            bad.append(f"n={rep.n}: {rep.assertion_failures}")
    record(5, not bad,
           f"0 internal assertion failures across all {total} colorings "
           f"with n <= 8" + (f" -- {bad}" if bad else ""))


@pytest.mark.heavy
def test_criterion_6_branch_census(small_reports, n8_report):
    """Smallest order reaching each solver branch matches the frozen census,
    and each recorded first coloring still reaches its branch."""
    reports = dict(small_reports)
    reports[8] = n8_report
    live = {}
    for n in sorted(reports):
        rep = reports[n]
        for key, count in rep.branch_counts.items():
            if count and key not in live:
                live[key] = (str(n), rep.branch_first[key])
    frozen = {}
    for line in (FIXTURES / "branch_census.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, smallest, compact = line.split()
        frozen[key] = (smallest, compact)
    bad = []
    for key, (smallest, compact) in frozen.items():
        if smallest == "never":
            if key in live:
                bad.append(f"{key} fired at n={live[key][0]}, census says never")
            continue
        if live.get(key) != (smallest, compact):
            bad.append(f"{key}: live {live.get(key)}, census ({smallest}, {compact})")
        g = from_compact(compact)
        if branch_key(solve(g).certificate) != key or not verify_cover(g, solve(g)):
            bad.append(f"{key}: fixture coloring {compact} no longer reaches it")
    golden = (FIXTURES / "scan_n8_reach.txt").read_text()
    if n8_report.machine_text() != golden:
        bad.append("n=8 machine report drifted from the frozen fixture")
    never = sorted(k for k, (s, _) in frozen.items() if s == "never")
    record(6, not bad,
           f"branch census frozen and reproduced: smallest n per branch "
           f"verified, n=8 report byte-equal to fixture, "
           f"{' and '.join(never)} proven never to fire for n<=8"
           + (f" -- {bad}" if bad else ""))


@pytest.mark.heavy
def test_criterion_7_diam2_cover_search(diam2_small_reports, diam2_n8_report):
    """The complete diameter-2 cover search succeeds on every coloring tried;
    a counterexample would be listed verbatim in the failure lines."""
    bad = []
    for rep in [*diam2_small_reports.values(), diam2_n8_report]:
        if rep.diam2_failures:
            bad.append(f"n={rep.n} counterexamples: {rep.diam2_failures}")
        if rep.diam2_cover_found != rep.colorings_scanned:
            bad.append(f"n={rep.n}: {rep.diam2_cover_found} of "
                       f"{rep.colorings_scanned} covered")
    record(7, not bad,
           "diameter-2 covers found for all 4096+16 exhaustive n=4,6 "
           "colorings and 10000 random n=8 colorings; 0 counterexamples"
           + (f" -- {bad}" if bad else ""))


def test_criterion_8_non_heredity_and_monotonicity():
    """Induced diameter 2 is not subset-hereditary (first witness in scan
    order is frozen), while plain 2-reachability is, on 10000 seeded
    (coloring, S, S') triples."""
    witness = None
    for n in (2, 4, 6, 8):
        for mask in range(1 << num_edges(n)):
            g = from_red_mask(n, mask)
            for c in (RED, BLUE):
                for s in range(1 << n):
                    if not is_diam2_subset(g, c, s):
                        continue
                    for sp in range(1 << n):
                        if sp & ~s == 0 and not is_diam2_subset(g, c, sp):
                            witness = (n, mask_to_compact(n, mask), c, s, sp)
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    bad = []
    if witness != (4, "4:0", BLUE, 0b0111, 0b0011):
        bad.append(f"witness drifted: {witness}")
    else:
        g = from_compact(witness[1])
        if not (is_2reachable_set(g, BLUE, 0b0111)
                and is_2reachable_set(g, BLUE, 0b0011)):
            bad.append("witness sets are not both 2-reachable")

    rng = random.Random(BASE_SEED)
    violations = 0
    for _ in range(10_000):
        n = rng.choice((4, 6, 8, 10))
        g = from_red_mask(n, rng.getrandbits(num_edges(n)))
        c = rng.choice((RED, BLUE))
        s = rng.getrandbits(n)
        sp = s & rng.getrandbits(n)
        if is_2reachable_set(g, c, s) and not is_2reachable_set(g, c, sp):
            violations += 1
    if violations:
        bad.append(f"{violations} monotonicity violations")
    record(8, not bad,
           "induced diameter 2 is not hereditary (witness 4:0, color 2, "
           "S={0,1,2}, S'={0,1}); 2-reachability monotone on 10000 seeded "
           "subset triples" + (f" -- {bad}" if bad else ""))


def test_criterion_9_report_determinism(small_blocks):
    """Scan reports are byte-identical across worker counts.

    small_blocks cuts n = 6 into 16 blocks, so workers 4 and 8 fork 3 and
    7 children; at the default one block a scan of n = 6 forks none."""
    texts = {w: scan(6, mode="exhaustive", check="reach",
                     workers=w).machine_text() for w in (1, 4, 8)}
    golden = (FIXTURES / "scan_n6_reach.txt").read_text()
    bad = []
    if len(set(texts.values())) != 1:
        bad.append("worker counts 1, 4, 8 disagree")
    if texts[1] != golden:
        bad.append("n=6 report drifted from the frozen fixture")
    if len(small_blocks) != 3 + 7:
        bad.append(f"{len(small_blocks)} worker processes started, not 10")
    record(9, not bad,
           "n=6 machine reports byte-identical for workers 1, 4, 8 (16 blocks, "
           "10 worker processes) and equal to the frozen fixture"
           + (f" -- {bad}" if bad else ""))
