"""Diameter-2 cover search, symmetry machinery, coloring-space scans."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import colorings
from partycover.cover import check_cover
from partycover.extremal import build_sharp_example
from partycover.graphs import (
    BLUE,
    RED,
    ColoredCocktail,
    all_blue,
    all_red,
    enumerate_colorings,
    from_red_mask,
    from_red_set,
    mask_to_compact,
    num_edges,
    random_coloring,
    random_red_mask,
    vertex_list,
)
from partycover.lab import (
    DIAM2_SEARCH_MAX_N,
    SEED_STRIDE,
    ScanReport,
    _assignment_search,
    canonical_red_mask,
    exists_diam2_cover,
    is_canonical,
    scan,
    symmetry_classes,
    symmetry_group_order,
    symmetry_reduce,
)

# --- diameter-2 cover search


def test_diam2_cover_whole_set():
    g = all_red(6)
    cov = exists_diam2_cover(g)
    assert cov is not None
    assert (cov.a, cov.b) == (0b111111, 0)
    assert cov.certificate is None
    assert check_cover(g, cov, require_diam2=True) is None


def test_diam2_cover_sharp_is_the_star_pair():
    g = build_sharp_example(8)
    cov = exists_diam2_cover(g)
    assert cov is not None
    assert vertex_list(cov.a) == [0, 3, 5, 7]
    assert vertex_list(cov.b) == [1, 2, 4, 6]
    assert cov.color_a == cov.color_b == BLUE
    assert cov.certificate is None
    assert check_cover(g, cov, require_diam2=True) is None


def test_diam2_cover_exists_for_all_n4():
    for g in enumerate_colorings(4):
        cov = exists_diam2_cover(g)
        assert cov is not None
        assert check_cover(g, cov, require_diam2=True) is None


@given(colorings(min_n=6, max_n=6))
@settings(max_examples=40)
def test_diam2_cover_exists_n6(g):
    cov = exists_diam2_cover(g)
    assert cov is not None
    assert check_cover(g, cov, require_diam2=True) is None


def test_diam2_search_bound():
    with pytest.raises(ValueError, match="diameter-2 search bound"):
        exists_diam2_cover(build_sharp_example(12))
    assert DIAM2_SEARCH_MAX_N == 10
    # override works; the constructive-cover stage settles this one instantly
    assert exists_diam2_cover(all_red(12), max_n=12) is not None


def test_assignment_search_negative():
    # no red edges: any red part with two vertices already fails
    assert _assignment_search(all_blue(4), RED, RED) is None


def test_assignment_search_positive():
    assert _assignment_search(all_blue(4), BLUE, BLUE) == (0b1111, 0)


# --- symmetry group


def test_symmetry_group_order():
    assert symmetry_group_order(2) == 4
    assert symmetry_group_order(4) == 16
    assert symmetry_group_order(6) == 96
    assert symmetry_group_order(8) == 768
    with pytest.raises(ValueError):
        symmetry_group_order(5)


def _relabel(g, vmap):
    pairs = []
    for u in range(g.n):
        for v in vertex_list(g.red[u]):
            if u < v:
                a, b = sorted((vmap[u], vmap[v]))
                pairs.append((a, b))
    return from_red_set(g.n, pairs)


@given(colorings(max_n=6), st.data())
@settings(max_examples=40)
def test_symmetry_reduce_invariant_under_group(g, data):
    key = symmetry_reduce(g)
    # color swap
    assert symmetry_reduce(ColoredCocktail(g.n, g.blue, g.red)) == key
    # swap within one partner pair
    p = data.draw(st.integers(min_value=0, max_value=g.n // 2 - 1))
    vmap = list(range(g.n))
    vmap[2 * p], vmap[2 * p + 1] = vmap[2 * p + 1], vmap[2 * p]
    assert symmetry_reduce(_relabel(g, vmap)) == key
    # permute the partner pairs
    perm = data.draw(st.permutations(range(g.n // 2)))
    vmap = [0] * g.n
    for i, target in enumerate(perm):
        vmap[2 * i], vmap[2 * i + 1] = 2 * target, 2 * target + 1
    assert symmetry_reduce(_relabel(g, vmap)) == key


def test_symmetry_reduce_key_is_compact_of_canonical_mask():
    g = build_sharp_example(6)
    key = symmetry_reduce(g)
    assert key == mask_to_compact(6, canonical_red_mask(6, g.red_mask()))
    assert key.startswith("6:")


def test_canonical_mask_agrees_with_is_canonical_n4():
    for m in range(1 << num_edges(4)):
        assert is_canonical(4, m) == (canonical_red_mask(4, m) == m)


def _orbit_min(n, mask):
    """Orbit-minimal red mask by relabeling the whole graph, without lab's tables."""
    g = from_red_mask(n, mask)
    full = (1 << num_edges(n)) - 1
    best = mask
    for perm in itertools.permutations(range(n // 2)):
        for swaps in range(1 << (n // 2)):
            vmap = [2 * perm[v // 2] + ((v % 2) ^ ((swaps >> (v // 2)) & 1))
                    for v in range(n)]
            image = _relabel(g, vmap).red_mask()
            best = min(best, image, image ^ full)
    return best


def _assert_matches_orbit_oracle(n, masks):
    for mask in masks:
        low = _orbit_min(n, mask)
        assert canonical_red_mask(n, mask) == low, (n, mask)
        assert is_canonical(n, mask) == (mask == low), (n, mask)
        assert is_canonical(n, low) and canonical_red_mask(n, low) == low


def test_orbit_tables_match_oracle_n2_n4_exhaustive():
    for n in (2, 4):
        _assert_matches_orbit_oracle(n, range(1 << num_edges(n)))


@given(st.integers(min_value=0, max_value=(1 << num_edges(6)) - 1))
@settings(max_examples=60, deadline=None)
def test_orbit_tables_match_oracle_n6(mask):
    _assert_matches_orbit_oracle(6, [mask])


#: Canonical n = 8 masks, frozen from the edge-permutation implementation.
N8_CANONICAL = (1226138, 0x32e569, 0x34b56a)


def test_orbit_tables_match_oracle_n8_stratified():
    rng = random.Random(8)
    masks = [(k << 19) | rng.getrandbits(19) for k in range(32)]
    masks += [rng.getrandbits(21) for _ in range(6)]  # below 2**21: slow rejects
    masks += [rng.getrandbits(12) for _ in range(2)]
    _assert_matches_orbit_oracle(8, masks + list(N8_CANONICAL))
    assert all(is_canonical(8, m) for m in N8_CANONICAL)


def test_canonical_count_among_first_n8_masks_frozen():
    assert sum(is_canonical(8, m) for m in range(1 << 16)) == 4030


def test_symmetry_classes_frozen_values():
    assert symmetry_classes(2) == [0]
    assert symmetry_classes(4) == [0, 1, 3, 6]
    assert len(symmetry_classes(6)) == 76


def test_symmetry_classes_cover_every_orbit_n4():
    reps = {canonical_red_mask(4, m) for m in range(16)}
    assert sorted(reps) == symmetry_classes(4)


def test_symmetry_classes_bound():
    with pytest.raises(ValueError, match="class enumeration bound"):
        symmetry_classes(8)
    with pytest.raises(ValueError):
        symmetry_classes(3)
    assert symmetry_classes(4, max_n=4) == [0, 1, 3, 6]


# --- scan parameter validation


@pytest.mark.parametrize("kwargs,frag", [
    (dict(n=5), "even"),
    (dict(n=4, mode="sweep"), "mode"),
    (dict(n=4, check="everything"), "check"),
    (dict(n=12, check="diam2"), "needs n <= 10"),
    (dict(n=4, workers=0), "workers"),
    (dict(n=4, mode="random", samples=5, seed=1, prune=True), "prune"),
    (dict(n=4, mode="random", seed=1), "samples"),
    (dict(n=4, mode="random", samples=5), "seed"),
    (dict(n=4, samples=5), "only apply to random"),
    (dict(n=10), "exhaustive bound"),
])
def test_scan_rejects_bad_parameters(kwargs, frag):
    with pytest.raises(ValueError, match=frag):
        scan(**kwargs)


# --- scan behavior

N4_MACHINE_GOLDEN = """\
format=partycover-scan-v1
n=4
mode=exhaustive
check=reach
prune=off
colorings_scanned=16
branch.whole-1=1
branch.whole-2=1
branch.two-stars-1=4
branch.two-stars-2=10
branch.lemma-i=0
branch.lemma-ii=0
branch.lemma-iii=0
branch.lemma-iv=0
branch.lemma-v=0
branch.lemma-vi=0
branch.lemma-c5plus=0
branch.critical-complement=0
first.whole-1=4:f
first.whole-2=4:0
first.two-stars-1=4:7
first.two-stars-2=4:1
reach_failures=0
assertion_failures=0
corollary_failures=0
"""


def test_scan_n4_machine_golden():
    report = scan(4)
    assert report.machine_text() == N4_MACHINE_GOLDEN
    assert report.ok


def test_scan_n6_matches_fixture():
    import pathlib
    golden = (pathlib.Path(__file__).parent / "fixtures"
              / "scan_n6_reach.txt").read_text()
    assert scan(6).machine_text() == golden


def test_scan_workers_do_not_change_the_report():
    texts = {scan(6, workers=w).machine_text() for w in (1, 2, 3)}
    assert len(texts) == 1


def test_scan_random_is_reproducible():
    a = scan(6, mode="random", check="reach", samples=40, seed=123)
    b = scan(6, mode="random", check="reach", samples=40, seed=123)
    assert a.machine_text() == b.machine_text()
    c = scan(6, mode="random", check="reach", samples=40, seed=124)
    assert c.machine_text() != a.machine_text()


def test_scan_random_seed_derivation():
    report = scan(4, mode="random", check="reach", samples=3, seed=7)
    assert report.colorings_scanned == 3
    from partycover.cover import branch_key, solve
    from partycover.graphs import from_red_mask
    expected = {}
    for i in range(3):
        mask = random_red_mask(4, 7 + SEED_STRIDE * i)
        key = branch_key(solve(from_red_mask(4, mask)).certificate)
        expected[key] = expected.get(key, 0) + 1
    got = {k: v for k, v in report.branch_counts.items() if v}
    assert got == expected


def test_random_red_mask_contract():
    import random as stdlib_random
    assert random_red_mask(6, 99) == stdlib_random.Random(99).getrandbits(12)
    assert random_red_mask(2, 5) == 0
    assert random_coloring(6, 99).red_mask() == random_red_mask(6, 99)


def test_scan_n2_random():
    report = scan(2, mode="random", check="reach", samples=2, seed=1)
    assert report.branch_counts["two-stars-2"] == 2
    assert report.ok


def test_scan_prune_visits_one_representative_per_class():
    report = scan(6, prune=True)
    assert report.colorings_scanned == 4096
    assert report.reduced_classes == 76
    assert sum(report.branch_counts.values()) == 76
    assert report.ok
    assert "reduced_classes=76" in report.machine_lines()


def test_scan_diam2_modes():
    r4 = scan(4, check="diam2")
    assert r4.diam2_cover_found == 16
    assert r4.diam2_failures == ()
    assert r4.ok
    both = scan(6, mode="random", check="both", samples=20, seed=5)
    assert both.diam2_cover_found == 20
    assert sum(both.branch_counts.values()) == 20
    assert "diam2_cover_found=20" in both.machine_lines()


def test_scan_branch_counts_sum_to_scanned():
    report = scan(6)
    assert sum(report.branch_counts.values()) == report.colorings_scanned


def test_machine_lines_exclude_timing_and_workers():
    report = scan(4, workers=2)
    text = report.machine_text()
    assert "wall_time" not in text and "workers" not in text
    assert report.wall_time >= 0 and report.workers == 2


def test_to_text_extras():
    text = scan(4).to_text()
    assert "branches never fired at this n: lemma-i lemma-ii" in text
    assert "wall_time=" in text and "workers=1" in text
    assert text.rstrip().endswith("result=ok")
    pruned = scan(4, prune=True).to_text()
    assert "prune group: partner-pair permutations" in pruned


def test_failed_report_formatting():
    # a hand-built report with a failure: the ok flag and result line flip
    report = ScanReport(
        n=4, mode="exhaustive", check="reach", prune=False, samples=None,
        seed=None, colorings_scanned=16, reduced_classes=None,
        branch_counts=dict.fromkeys(
            ("whole-1", "whole-2", "two-stars-1", "two-stars-2", "lemma-i",
             "lemma-ii", "lemma-iii", "lemma-iv", "lemma-v", "lemma-vi",
             "lemma-c5plus", "critical-complement"), 0),
        branch_first={}, reach_failures=("4:3",), assertion_failures=(),
        corollary_failures=(), diam2_cover_found=None, diam2_failures=None,
        wall_time=0.0, workers=1)
    assert not report.ok
    assert "failure.reach.0=4:3" in report.machine_lines()
    assert report.to_text().rstrip().endswith("result=FAILURES")
