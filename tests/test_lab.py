"""Diameter-2 cover search, symmetry machinery, coloring-space scans."""

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import multiprocessing
import operator
import os
import pathlib
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import colorings
from partycover import cli, lab, lanes
from partycover.cover import (
    Cover,
    InternalInconsistencyError,
    _first_far_edge,
    _shared_vertex_cover,
    branch_key,
    check_cover,
    solve,
    verify_cover,
)
from partycover.extremal import build_sharp_example
from partycover.graphs import (
    BLUE,
    COLORS,
    RED,
    ColoredCocktail,
    all_blue,
    all_red,
    edge_list,
    enumerate_colorings,
    from_compact,
    from_red_mask,
    from_red_set,
    mask_to_compact,
    num_edges,
    random_coloring,
    random_red_mask,
    vertex_list,
)
from partycover.lab import (
    CANONICAL_NAMES_MAX_N,
    DIAM2_SEARCH_MAX_N,
    ORBIT_MAX_N,
    SCAN_MAX_WORKERS,
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
from partycover.reach import is_2reachable_set, is_diam2_subset, star

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

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


@given(colorings(min_n=2, max_n=8))
@settings(max_examples=40, deadline=None)
def test_assignment_search_blue_red_mirrors_red_blue(g):
    # why exists_diam2_cover never searches (BLUE, RED): its covers are the
    # (RED, BLUE) covers with the parts swapped
    blue_red = _assignment_search(g, BLUE, RED)
    red_blue = _assignment_search(g, RED, BLUE)
    assert (blue_red is None) == (red_blue is None)
    if blue_red is not None:
        a, b = blue_red
        assert check_cover(g, Cover(g.n, b, RED, a, BLUE),
                           require_diam2=True) is None


def _first_assignment(g, ca, cb):
    """Brute reference for _assignment_search: walk all 3**n A/B/both
    assignments in the search's order (vertex 0 outermost, A before B
    before both) and return the first whose parts both have in-set
    diameter <= 2."""
    for places in itertools.product(((1, 0), (0, 1), (1, 1)), repeat=g.n):
        a = sum(1 << v for v, (in_a, _) in enumerate(places) if in_a)
        b = sum(1 << v for v, (_, in_b) in enumerate(places) if in_b)
        if is_diam2_subset(g, ca, a) and is_diam2_subset(g, cb, b):
            return (a, b)
    return None


def test_assignment_search_matches_brute_walk():
    """Stage 3 never runs inside exists_diam2_cover at n <= 8, so the
    n = 6 digest does not reach it: compare the search itself with the
    brute walk on every n = 4 coloring and seeded n = 6 colorings, for
    every color pair the search can be given."""
    rng = random.Random(36)
    graphs = list(enumerate_colorings(4))
    graphs += [from_red_mask(6, rng.getrandbits(num_edges(6))) for _ in range(40)]
    answers = []
    for g in graphs:
        for ca, cb in lab._COLOR_PAIRS + ((BLUE, RED),):
            expected = _first_assignment(g, ca, cb)
            assert _assignment_search(g, ca, cb) == expected
            answers.append(expected is None)
    assert any(answers) and not all(answers)


#: Uniform n = 10 colorings that need the assignment search (stage 3), and
#: the (a, color_a, b, color_b) it returns, frozen from the four-pair search.
STAGE3_COVERS = {
    "10:710726e5b6": (1019, RED, 4, RED),
    "10:29a2dd0e73": (363, RED, 660, RED),
    "10:56232d2dd2": (219, RED, 804, RED),
}


@pytest.mark.parametrize("compact", sorted(STAGE3_COVERS))
def test_diam2_cover_stage3_goldens(compact):
    g = from_compact(compact)
    full = (1 << g.n) - 1
    stars = [star(g, c, v) for c in COLORS for v in range(g.n)]
    assert not any(s | t == full for s in stars for t in stars)
    cov = exists_diam2_cover(g)
    assert check_cover(g, cov, require_diam2=True) is None
    assert (cov.a, cov.color_a, cov.b, cov.color_b) == STAGE3_COVERS[compact]


def test_diam2_cover_digest_all_n6():
    digest = hashlib.sha256()
    for mask in range(1 << num_edges(6)):
        cov = exists_diam2_cover(from_red_mask(6, mask))
        digest.update(f"{cov.a} {cov.color_a} {cov.b} {cov.color_b}\n".encode())
    # frozen from the four-pair search
    assert digest.hexdigest() == (
        "dace921013d30b2af02cf8517889271e2fe375b9d2fb339b6cfa6eb2d2cc0852")


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


def test_orbit_tables_match_oracle_n10():
    # the sharp example's canonical mask is accepted only after every table
    rng = random.Random(10)
    masks = [rng.getrandbits(num_edges(10)) for _ in range(3)]
    masks += [rng.getrandbits(24)]  # far below its color swap: a slow reject
    _assert_matches_orbit_oracle(10, masks + [build_sharp_example(10).red_mask()])


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_orbit_tables_put_fewest_moved_edges_first(n):
    # no answer depends on the order, only is_canonical's speed: the
    # relabelings moving fewest edges reject most masks
    m = num_edges(n)
    tables = lab._edge_perm_tables(n)
    assert tables[0] == tuple(d << 4 * c for c in range(m // 4) for d in range(16))
    # edge k = 4c + j goes to the bit at entry 16*c + 2**j
    moved = [sum(t[16 * (k >> 2) + (1 << (k & 3))] != 1 << k for k in range(m))
             for t in tables]
    assert moved == sorted(moved)


@pytest.mark.parametrize("orbit_fn", [canonical_red_mask, is_canonical])
@pytest.mark.parametrize("mask", [0b10011, 1 << 16, -1])
def test_orbit_functions_reject_out_of_range_masks(orbit_fn, mask):
    with pytest.raises(ValueError, match="out of range"):
        orbit_fn(4, mask)


def test_every_red_mask_check_raises_the_same_error():
    """from_red_mask, mask_to_compact and the orbit functions share one
    red-mask rule: -1 and 2**m are refused with the same message."""
    for n in (4, 6):
        for mask in (-1, 1 << num_edges(n)):
            for check in (from_red_mask, mask_to_compact, canonical_red_mask,
                          is_canonical):
                with pytest.raises(ValueError) as info:
                    check(n, mask)
                assert str(info.value) == \
                    f"red mask {mask:#x} out of range for n={n}"


def test_orbit_table_cache_is_bounded():
    assert lab._edge_perm_tables.cache_info().maxsize == 4


@pytest.mark.parametrize("orbit_fn", [
    lambda n, mask: canonical_red_mask(n, mask),
    lambda n, mask: is_canonical(n, mask),
    lambda n, mask: symmetry_reduce(from_red_mask(n, mask)),
], ids=["canonical_red_mask", "is_canonical", "symmetry_reduce"])
@pytest.mark.parametrize("mask", [0, (1 << num_edges(14)) - 1])
def test_orbit_functions_refuse_n_above_bound(orbit_fn, mask):
    assert ORBIT_MAX_N == 12
    misses = lab._edge_perm_tables.cache_info().misses
    with pytest.raises(ValueError, match="ORBIT_MAX_N"):
        orbit_fn(14, mask)
    assert lab._edge_perm_tables.cache_info().misses == misses


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
    (dict(n=4, mode="random", samples=0, seed=1), "samples"),
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
    golden = (FIXTURES / "scan_n6_reach.txt").read_text()
    assert scan(6).machine_text() == golden


@pytest.mark.parametrize("kwargs,fixture", [
    (dict(n=6), "scan_n6_reach.txt"),
    (dict(n=10, mode="random", check="both", samples=300, seed=2),
     "scan_n10_random_both.txt"),
    (dict(n=10, mode="random", check="both", samples=300, seed=2, workers=2),
     "scan_n10_random_both.txt"),
    (dict(n=6, workers=2), "scan_n6_reach.txt"),
    (dict(n=6, workers=3), "scan_n6_reach.txt"),
    (dict(n=10, mode="random", check="both", samples=300, seed=2, workers=3),
     "scan_n10_random_both.txt"),
    (dict(n=8, mode="random", check="both", samples=20000, seed=5),
     "scan_n8_random_both.txt"),
    (dict(n=8, mode="random", check="both", samples=20000, seed=5, workers=2),
     "scan_n8_random_both.txt"),
    (dict(n=16, mode="random", samples=40, seed=4), "scan_n16_random_reach.txt"),
    (dict(n=16, mode="random", samples=40, seed=4, workers=2),
     "scan_n16_random_reach.txt"),
    (dict(n=32, mode="random", samples=3000, seed=3),
     "scan_n32_random_reach.txt"),
    (dict(n=32, mode="random", samples=3000, seed=3, workers=2),
     "scan_n32_random_reach.txt"),
])
def test_scan_report_goldens(kwargs, fixture):
    assert scan(**kwargs).machine_text() == (FIXTURES / fixture).read_text()


@pytest.mark.heavy
def test_scan_n8_both_report_golden():
    # every one of the 2**24 n = 8 colorings has a diameter-2 cover, and
    # the census is that of the reach sweep
    golden = (FIXTURES / "scan_n8_both.txt").read_text()
    assert scan(8, check="both", workers=2).machine_text() == golden
    census = [line for line in golden.splitlines()
              if line.startswith(("branch.", "first."))]
    assert census == [
        line for line in (FIXTURES / "scan_n8_reach.txt").read_text().splitlines()
        if line.startswith(("branch.", "first."))]
    assert "diam2_cover_found=16777216\ndiam2_failures=0\n" in golden


def _failing_masks(n, samples, seed):
    return {random_red_mask(n, seed + SEED_STRIDE * i) for i in range(samples)}


#: Census keys of branches 1 and 2; the other colorings, the residual
#: ones, take branch 4 or 3.
LANE_KEYS = ("whole-1", "whole-2", "two-stars-1", "two-stars-2")
COMPLEMENT = "critical-complement"
#: The lemma-* keys that fire; lemma-iv and lemma-v never do.
LEMMA_KEYS = ("lemma-i", "lemma-ii", "lemma-iii", "lemma-vi", "lemma-c5plus")


def _is_residual(n, mask):
    """Is this coloring a residual one, of branch 3 or 4?"""
    key = branch_key(lab.solve(from_red_mask(n, mask)).certificate)
    return key not in LANE_KEYS


def _examine_every_residual(monkeypatch):
    """Send every block's residual colorings to _examine, as failed lanes:
    lanes.covers reports every lane of a branch-3 or branch-4 claim as
    failing an internal assertion."""
    real = lanes.covers

    def covers(n, adj, ones):
        claims, failed = real(n, adj, ones)
        for claim in [c for c in claims if c[0] not in LANE_KEYS]:
            failed |= claims.pop(claim)
        return claims, failed

    monkeypatch.setattr(lanes, "covers", covers)


def _reject_every_cover(monkeypatch):
    """Fail both verifiers: verify_cover for residual colorings, and the
    lane verifier for every cover the lane kernel claims."""
    monkeypatch.setattr(lab, "verify_cover", lambda g, cov: False)

    def reject_lanes(n, adj, claims):
        rejected = 0
        for claimed in claims.values():
            rejected |= claimed
        return rejected, 0, 0

    monkeypatch.setattr(lanes, "verify", reject_lanes)


def test_scan_failure_names_canonical_up_to_the_bound(monkeypatch):
    _reject_every_cover(monkeypatch)
    n = CANONICAL_NAMES_MAX_N
    report = scan(n, "random", "reach", samples=2, seed=1, workers=1)
    names = {canonical_red_mask(n, m) for m in _failing_masks(n, 2, 1)}
    assert report.reach_failures == tuple(
        mask_to_compact(n, m) for m in sorted(names))
    assert not report.ok


def test_scan_failure_names_raw_above_the_bound(monkeypatch):
    # one of the two colorings is a lane coloring, the other residual
    assert [_is_residual(12, m) for m in sorted(_failing_masks(12, 2, 1))] \
        in ([True, False], [False, True])
    _reject_every_cover(monkeypatch)
    misses = lab._edge_perm_tables.cache_info().misses
    report = scan(12, "random", "reach", samples=2, seed=1, workers=1)
    assert report.reach_failures == tuple(
        mask_to_compact(12, m) for m in sorted(_failing_masks(12, 2, 1)))
    assert "failure.reach.1=" + report.reach_failures[1] in report.machine_lines()
    # no relabeling table was built for n = 12
    assert lab._edge_perm_tables.cache_info().misses == misses


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_scan_report_goldens_under_start_method(monkeypatch, small_blocks,
                                                 method):
    # the workers rebuild their state from a fresh import, not a fork
    ctx = multiprocessing.get_context(method)
    monkeypatch.setattr(lab.multiprocessing, "get_context", lambda _: ctx)
    for kwargs, fixture in [
        (dict(n=6), "scan_n6_reach.txt"),
        (dict(n=10, mode="random", check="both", samples=300, seed=2),
         "scan_n10_random_both.txt"),
    ]:
        report = scan(workers=2, **kwargs)
        assert report.machine_text() == (FIXTURES / fixture).read_text()
    assert len(small_blocks) == 2
    # the children scan the caller's plan of 44 blocks; one that rebuilt
    # it from its own import of _RANDOM_LANES would count 1
    monkeypatch.setattr(lab, "_RANDOM_LANES", 7)
    assert lab._block_count(10, "random", 300, 2) == 44
    report = scan(10, "random", "both", samples=300, seed=2, workers=2)
    assert report.machine_text() == \
        (FIXTURES / "scan_n10_random_both.txt").read_text()
    assert len(small_blocks) == 3


def _scan_solve_calls(monkeypatch, samples):
    """The masks scan(10, "random", "both") solves one at a time, sorted."""
    calls = []
    real = lab.solve

    def counting_solve(g):
        calls.append(g.red_mask())
        return real(g)

    monkeypatch.setattr(lab, "solve", counting_solve)
    scan(10, "random", "both", samples=samples, seed=3)
    return sorted(calls)


def test_scan_both_solves_each_coloring_once(monkeypatch):
    # lane colorings never reach solve; each residual one sent to _examine
    # reaches it once
    masks = [random_red_mask(10, 3 + SEED_STRIDE * i) for i in range(20)]
    residual = sorted(m for m in masks if _is_residual(10, m))
    _examine_every_residual(monkeypatch)
    assert _scan_solve_calls(monkeypatch, 20) == residual
    assert 0 < len(residual) < 20 / 2


def test_scan_both_solves_only_branch3_colorings_of_a_dense_block(monkeypatch):
    # the lane passes settle every residual coloring of a block, the
    # 20-coloring one with a few as well as the 300 one: only a branch-3
    # lane that fails an internal assertion would reach solve, and none of
    # these does
    for samples in (20, 300):
        assert _scan_solve_calls(monkeypatch, samples) == []


def _diam2_lines(text):
    return [line for line in text.splitlines()
            if line.startswith(("diam2", "failure.diam2"))]


def test_scan_diam2_searches_the_failed_lanes_without_solve(monkeypatch):
    # under diam2 the residual lanes, reported failed, go straight to the
    # search, which needs no cover: nothing is solved, and the answers are
    # those of the both golden
    _examine_every_residual(monkeypatch)
    calls = []
    real = lab.solve

    def counting_solve(g):
        calls.append(g.red_mask())
        return real(g)

    monkeypatch.setattr(lab, "solve", counting_solve)
    report = scan(10, "random", "diam2", samples=300, seed=2)
    assert calls == []
    assert _diam2_lines(report.machine_text()) == _diam2_lines(
        (FIXTURES / "scan_n10_random_both.txt").read_text())


@pytest.mark.parametrize("kwargs", [
    dict(n=6),
    dict(n=10, mode="random", samples=500, seed=4),
], ids=["n6-exhaustive", "n10-random"])
def test_scan_both_is_reach_plus_diam2(kwargs):
    def lines(check):
        return dict(line.split("=", 1)
                    for line in scan(check=check, **kwargs).machine_lines())

    both, reach, diam2 = lines("both"), lines("reach"), lines("diam2")
    assert both == {**reach, **diam2, "check": "both"}


def test_scan_both_searches_on_after_an_assertion_failure(monkeypatch):
    n, seed, samples = 10, 3, 160
    masks = [random_red_mask(n, seed + SEED_STRIDE * i) for i in range(samples)]
    # sample 154's constructive cover has in-set diameter 2 but no pair of
    # stars covers V: without the cover only the assignment search finds one
    real = lab.solve
    g154 = from_red_mask(n, masks[154])
    cov = real(g154)
    assert is_diam2_subset(g154, cov.color_a, cov.a)
    assert is_diam2_subset(g154, cov.color_b, cov.b)
    full = (1 << n) - 1
    stars = [star(g154, c, v) for c in COLORS for v in range(n)]
    assert not any(s | t == full for s in stars for t in stars)
    broken = {masks[2], masks[7], masks[154]}
    # critical-complement colorings: they reach solve when _examine takes
    # the whole residual
    assert all(_is_residual(n, m) for m in broken)
    _examine_every_residual(monkeypatch)

    def failing_solve(g):
        if g.red_mask() in broken:
            raise InternalInconsistencyError("injected", g)
        return real(g)

    clean = scan(n, "random", "both", samples=samples, seed=seed)
    monkeypatch.setattr(lab, "solve", failing_solve)
    report = scan(n, "random", "both", samples=samples, seed=seed)
    assert report.assertion_failures == tuple(
        mask_to_compact(n, m)
        for m in sorted({canonical_red_mask(n, m) for m in broken}))
    assert report.diam2_cover_found == samples
    assert report.diam2_failures == ()
    expected = dict(clean.branch_counts)
    for m in broken:
        expected[branch_key(real(from_red_mask(n, m)).certificate)] -= 1
    assert report.branch_counts == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_keeps_the_message_of_an_assertion_failure(monkeypatch,
                                                        small_blocks, workers):
    """The human report gives each assertion failure's message; the
    machine report stays as it was."""
    n, seed, samples = 10, 3, 160
    masks = [random_red_mask(n, seed + SEED_STRIDE * i) for i in range(samples)]
    lemma = [m for m in masks
             if branch_key(solve(from_red_mask(n, m)).certificate)
             .startswith("lemma")]
    broken = {canonical_red_mask(n, m): m for m in lemma[:3]}
    assert len(broken) == 3
    # lemma-* colorings reach solve when _examine takes the whole residual
    _examine_every_residual(monkeypatch)
    real = lab.solve

    def failing_solve(g):
        if g.red_mask() in broken.values():
            raise InternalInconsistencyError(f"injected at {g.red_mask():x}", g)
        return real(g)

    monkeypatch.setattr(lab, "solve", failing_solve)
    report = scan(n, "random", "both", samples=samples, seed=seed,
                  workers=workers)
    assert len(small_blocks) == workers - 1
    names = sorted(broken)
    assert report.assertion_failures == tuple(
        mask_to_compact(n, c) for c in names)
    assert report.assertion_reasons == tuple(
        f"injected at {broken[c]:x} [coloring {mask_to_compact(n, broken[c])}]"
        for c in names)
    text = report.to_text()
    for i, reason in enumerate(report.assertion_reasons):
        assert f"failure.assertion.{i}.reason={reason}\n" in text
    assert dataclasses.replace(report, assertion_reasons=()).machine_lines() \
        == report.machine_lines()
    assert not any("reason" in line for line in report.machine_lines())


def test_scan_gives_each_failure_name_the_reason_of_its_smallest_mask(
        monkeypatch, small_blocks):
    # every n = 6 critical-complement coloring fails; isomorphic ones
    # share a failure name
    n = 6
    real = lab.solve
    _examine_every_residual(monkeypatch)
    masks = [m for m in range(1 << num_edges(n))
             if branch_key(real(from_red_mask(n, m)).certificate) == COMPLEMENT]
    smallest = {}
    for m in masks:
        smallest.setdefault(canonical_red_mask(n, m), m)
    assert len(smallest) < len(masks)

    def failing_solve(g):
        cov = real(g)
        if branch_key(cov.certificate) == COMPLEMENT:
            raise InternalInconsistencyError(f"injected at {g.red_mask():x}", g)
        return cov

    monkeypatch.setattr(lab, "solve", failing_solve)
    report = scan(n, workers=2)
    assert len(small_blocks) == 1
    assert report.assertion_reasons == tuple(
        f"injected at {m:x} [coloring {mask_to_compact(n, m)}]"
        for _, m in sorted(smallest.items()))


def _solve_is_diam2(n, mask):
    """Do both parts of solve's cover have in-set diameter <= 2?"""
    g = from_red_mask(n, mask)
    cov = solve(g)
    return is_diam2_subset(g, cov.color_a, cov.a) \
        and is_diam2_subset(g, cov.color_b, cov.b)


def _scan_fails_through_the_cli(capsys, report, kind, names, workers):
    """The report names exactly names as failures of kind, and the CLI
    run of the same scan prints them and exits with 1."""
    assert getattr(report, f"{kind}_failures") == names
    assert not report.ok
    argv = ["scan", "--n", str(report.n), "--check", report.check,
            "--workers", str(workers)]
    if report.mode == "random":
        argv += ["--mode", f"random:{report.samples}:{report.seed}"]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    for i, name in enumerate(names):
        assert f"failure.{kind}.{i}={name}\n" in out
    assert out.endswith("result=FAILURES\n")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", ["lanes", "failed"])
def test_scan_reports_the_colorings_with_no_diam2_cover(
        monkeypatch, capsys, small_blocks, path, workers):
    """A coloring the diameter-2 search finds no cover for is a diam2
    failure, named canonically, whether it reached the search as a lane
    that fails the lane stage 1 or as one that lanes.covers reports
    failed."""
    n, samples, seed = 10, 300, 2
    masks = [random_red_mask(n, seed + SEED_STRIDE * i) for i in range(samples)]
    if path == "lanes":
        # critical-complement lanes whose cover is not diameter-2
        picked = [m for m in masks if not _solve_is_diam2(n, m)]
    else:
        _examine_every_residual(monkeypatch)
        picked = [m for m in masks if _is_residual(n, m)]
    bad = set(picked[:3])
    names = tuple(mask_to_compact(n, c)
                  for c in sorted({canonical_red_mask(n, m) for m in bad}))
    assert len(names) == 3
    real = lab._diam2_cover

    def diam2_cover(g):
        return None if g.red_mask() in bad else real(g)

    monkeypatch.setattr(lab, "_diam2_cover", diam2_cover)
    report = scan(n, "random", "both", samples=samples, seed=seed,
                  workers=workers)
    assert len(small_blocks) == workers - 1
    assert report.diam2_cover_found + len(report.diam2_failures) == samples
    assert report.reach_failures == report.corollary_failures == ()
    _scan_fails_through_the_cli(capsys, report, "diam2", names, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_reports_a_cover_with_both_parts_below_half(
        monkeypatch, capsys, small_blocks, workers):
    """A cover from solve whose parts both have fewer than n/2 vertices
    is a corollary failure; parts of one vertex each do not cover V, so
    it is a reach failure too."""
    n, samples, seed = 10, 300, 2
    masks = [random_red_mask(n, seed + SEED_STRIDE * i) for i in range(samples)]
    _examine_every_residual(monkeypatch)
    bad = {m for m in masks if _is_residual(n, m)}
    names = tuple(mask_to_compact(n, c)
                  for c in sorted({canonical_red_mask(n, m) for m in bad}))
    real = lab.solve

    def small_solve(g):
        cov = real(g)
        if g.red_mask() in bad:
            return dataclasses.replace(cov, a=1, b=2)
        return cov

    monkeypatch.setattr(lab, "solve", small_solve)
    report = scan(n, "random", "reach", samples=samples, seed=seed,
                  workers=workers)
    assert len(small_blocks) == workers - 1
    assert report.reach_failures == names
    assert sum(report.branch_counts.values()) == samples
    _scan_fails_through_the_cli(capsys, report, "corollary", names, workers)


def test_exists_diam2_cover_answers_when_solve_raises(monkeypatch):
    # sample 154 of seed 3 at n = 10 needs the assignment search: no pair
    # of closed stars covers V
    graphs = [*enumerate_colorings(4),
              from_red_mask(10, random_red_mask(10, 3 + SEED_STRIDE * 154))]

    def failing_solve(g):
        raise InternalInconsistencyError("injected", g)

    monkeypatch.setattr(lab, "solve", failing_solve)
    for g in graphs:
        found = exists_diam2_cover(g)
        assert found is not None
        assert check_cover(g, found, require_diam2=True) is None


def test_exists_diam2_cover_refuses_a_solver_cover_that_misses_v(monkeypatch):
    # parts {0} and {1} each have in-set diameter <= 2, but they do not
    # unite to V, so stage 1 must not return them
    g = from_compact("6:743")
    real = lab.solve
    monkeypatch.setattr(lab, "solve",
                        lambda g: dataclasses.replace(real(g), a=1, b=2))
    found = exists_diam2_cover(g)
    assert found is not None
    assert check_cover(g, found, require_diam2=True) is None


def test_scan_workers_do_not_change_the_report(small_blocks):
    texts = {scan(6, workers=w).machine_text() for w in (1, 2, 3)}
    assert texts == {(FIXTURES / "scan_n6_reach.txt").read_text()}
    assert len(small_blocks) == 1 + 2
    assert multiprocessing.active_children() == []


def _refuse_processes(monkeypatch):
    def no_processes(*args):
        raise AssertionError("scan planned its blocks or started a process")

    monkeypatch.setattr(lab.multiprocessing, "get_context", no_processes)
    monkeypatch.setattr(lab, "_block_count", no_processes)


def test_scan_refuses_workers_above_the_bound(monkeypatch):
    _refuse_processes(monkeypatch)
    assert SCAN_MAX_WORKERS == 64
    for workers in (SCAN_MAX_WORKERS + 1, 3_000_000):
        with pytest.raises(ValueError, match=(
                f"workers={workers} exceeds the scan bound "
                f"SCAN_MAX_WORKERS={SCAN_MAX_WORKERS}")):
            scan(6, workers=workers)


def test_scan_at_the_workers_bound_runs_in_process():
    # n = 2 has one coloring, so only one of the 64 workers has work
    report = scan(2, workers=SCAN_MAX_WORKERS)
    assert report.machine_text() == scan(2).machine_text()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kwargs,small,children", [
    (dict(n=2, workers=SCAN_MAX_WORKERS), False, 0),
    (dict(n=4, workers=SCAN_MAX_WORKERS), False, 0),
    (dict(n=6, workers=SCAN_MAX_WORKERS), False, 0),
    (dict(n=6, workers=3), False, 0),
    (dict(n=10, mode="random", check="both", samples=300, seed=2,
          workers=2), False, 0),
    (dict(n=16, mode="random", samples=40, seed=4, workers=3), False, 0),
    (dict(n=6, workers=3), True, 2),
    (dict(n=8, mode="random", check="both", samples=20000, seed=5,
          workers=3), False, 2),
], ids=["n2-w64", "n4-w64", "n6-w64", "n6-w3", "n10-random-w2",
        "n16-random-w3", "n6-w3-small-blocks", "n8-random-w3"])
def test_scan_starts_a_child_per_job_past_the_first(request, started, kwargs,
                                                      small, children):
    # up to n = 6 and 4 096 samples a scan is one block, scanned in the
    # caller whatever workers is; n = 6 in 16 small blocks and 20 000
    # samples in 6 blocks deal one job to each of three workers
    if small:
        request.getfixturevalue("small_blocks")
    scan(**kwargs)
    assert len(started) == children
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n,mode,total,workers", [
    *((10, "random", total, workers) for total, workers in [
        (5, 2), (31, 2), (32, 2), (33, 2), (4096, 2), (1000, 3), (48, 3),
        (1, 2), (3, 8), (63, 64), (4097, 2), (8192, 3), (12000, 2),
        (20000, 3), (1 << 24, SCAN_MAX_WORKERS)]),
    *((n, "exhaustive", 1 << num_edges(n), workers)
      for n in (2, 4, 6, 8) for workers in (1, 2, 3, SCAN_MAX_WORKERS))])
def test_scan_block_count_deals_whole_blocks(n, mode, total, workers):
    count = lab._block_count(n, mode, total, workers)
    if mode == "exhaustive":
        # the plan comes from n alone
        assert count == 2 ** max(0, num_edges(n) - 16)
    else:
        # every worker with a job gets the same number of blocks
        assert count % min(workers, -(-total // 4096)) == 0
    if total <= 4096:
        assert count == 1
    blocks = [(total * j // count, total * (j + 1) // count)
              for j in range(count)]
    # the blocks partition [0, total), none empty and none above its cap
    assert blocks[0][0] == 0 and blocks[-1][1] == total
    assert all(lo < hi for lo, hi in blocks)
    cap = lab._RANDOM_LANES if mode == "random" else 1 << lab._LANE_BITS
    assert all(hi - lo <= cap for lo, hi in blocks)
    if mode == "exhaustive":
        # aligned runs of a power of two masks
        size = total // count
        assert size & (size - 1) == 0
        assert all(lo % size == 0 and hi - lo == size for lo, hi in blocks)
    # worker w takes blocks w, w + workers, ...: the shares differ by one
    # block at most
    shares = [len(range(w, count, workers)) for w in range(workers)]
    assert max(shares) - min(shares) <= 1


@contextlib.contextmanager
def _returns_within(seconds):
    def stalled(signum, frame):
        # not an OSError: Popen.poll would swallow one raised in waitpid
        pytest.fail(f"scan did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _first_residual_mask_of_job(n, workers, job):
    """The lowest residual mask of a job's blocks in an exhaustive scan."""
    total = 1 << num_edges(n)
    count = lab._block_count(n, "exhaustive", total, workers)
    return min(m for masks, _ in lab._lane_blocks(
        n, "exhaustive", None, total, count, range(job, count, workers))
        for m in masks if _is_residual(n, m))


def _examine_failing_at(monkeypatch, bad, fail):
    """Send the residual colorings to _examine, and call fail there on the
    coloring with mask bad."""
    _examine_every_residual(monkeypatch)
    real = lab._examine

    def examine(g, mask, part):
        if mask == bad:
            fail(g, mask)
        real(g, mask, part)

    monkeypatch.setattr(lab, "_examine", examine)


@pytest.mark.parametrize("job", [0, 1])
def test_scan_worker_exception_reaches_the_caller(monkeypatch, small_blocks,
                                                  job):
    bad = _first_residual_mask_of_job(6, 2, job)

    def fail(g, mask):
        raise LookupError(f"injected at mask {mask}")

    _examine_failing_at(monkeypatch, bad, fail)
    with pytest.raises(LookupError, match=f"^injected at mask {bad}$") as exc:
        scan(6, workers=2)
    assert type(exc.value) is LookupError
    assert len(small_blocks) == 1
    assert multiprocessing.active_children() == []


def test_scan_worker_internal_inconsistency_reaches_the_caller(monkeypatch,
                                                               small_blocks):
    bad = _first_residual_mask_of_job(6, 2, 1)

    def fail(g, mask):
        raise InternalInconsistencyError("injected", g)

    _examine_failing_at(monkeypatch, bad, fail)
    with pytest.raises(InternalInconsistencyError,
                       match=r"^injected \[coloring 6:") as exc:
        scan(6, workers=2)
    assert type(exc.value) is InternalInconsistencyError
    assert exc.value.graph_compact == mask_to_compact(6, bad)
    assert len(small_blocks) == 1
    assert multiprocessing.active_children() == []


class _TwoArgumentError(Exception):
    def __init__(self, message, mask):
        super().__init__(f"{message} at mask {mask}")


def test_scan_worker_exception_that_cannot_be_unpickled(monkeypatch,
                                                        small_blocks):
    # the exception's __init__ takes two arguments but its args hold one,
    # so the worker sends its type name and message instead
    def fail(g, mask):
        raise _TwoArgumentError("injected", mask)

    bad = _first_residual_mask_of_job(6, 2, 1)
    _examine_failing_at(monkeypatch, bad, fail)
    with pytest.raises(RuntimeError,
                       match=f"^_TwoArgumentError: injected at mask {bad}$") as exc:
        scan(6, workers=2)
    assert type(exc.value) is RuntimeError
    assert len(small_blocks) == 1
    assert multiprocessing.active_children() == []


def test_scan_worker_that_dies_is_reported_with_its_exit_code(monkeypatch,
                                                              small_blocks):
    _examine_failing_at(monkeypatch, _first_residual_mask_of_job(6, 3, 2),
                        lambda g, mask: os._exit(3))
    with pytest.raises(RuntimeError,
                       match="scan worker 2 exited with code 3 before sending"):
        with _returns_within(30):
            scan(6, workers=3)
    assert len(small_blocks) == 2
    assert multiprocessing.active_children() == []


def test_scan_receives_a_large_tally_before_joining(monkeypatch, small_blocks):
    # the worker's tally is far larger than a pipe buffer, so it blocks in
    # send until the caller reads: joining it first would never return.
    # The worker's residual colorings all go to _examine.
    _examine_every_residual(monkeypatch)
    caller = os.getpid()
    extra = range(1 << 40, (1 << 40) + 20_000)
    real = lab._examine

    def examine(g, mask, part):
        real(g, mask, part)
        if os.getpid() != caller:
            part.failed["reach"].update(extra)

    monkeypatch.setattr(lab, "_examine", examine)
    with _returns_within(30):
        report = scan(12, "random", "reach", samples=64, seed=1, workers=2)
    assert report.reach_failures == tuple(mask_to_compact(12, m) for m in extra)
    assert len(small_blocks) == 1
    assert multiprocessing.active_children() == []


def test_scan_caller_failure_terminates_the_workers(monkeypatch, small_blocks):
    stall = _first_residual_mask_of_job(6, 2, 1)
    bad = _first_residual_mask_of_job(6, 2, 0)
    real = lab._examine

    def examine(g, mask, part):
        if mask == stall:
            time.sleep(60)
        if mask == bad:
            raise LookupError("injected in the caller's own share")
        real(g, mask, part)

    _examine_every_residual(monkeypatch)
    monkeypatch.setattr(lab, "_examine", examine)
    # the stalled worker is terminated, not waited for
    with pytest.raises(LookupError, match="caller's own share"):
        with _returns_within(30):
            scan(6, workers=2)
    assert len(small_blocks) == 1
    assert multiprocessing.active_children() == []


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


def test_failed_report_formatting():
    # a hand-built report with a failure: the ok flag and result line flip
    report = ScanReport(
        n=4, mode="exhaustive", check="reach", samples=None, seed=None,
        colorings_scanned=16,
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


# --- the bit-sliced branches of scan against the per-coloring oracle


def _claim_parts(claim, lanes_of):
    """Per lane of lanes_of, (color_a, a, color_b, b) of a lanes claim, with
    the parts as vertex masks: a star part (lanes._STARS) as its one
    center."""
    key, color_a, a, color_b, b = claim
    parts = {i: [0, 0] for i in lanes.indices(lanes_of)}
    for side, rows in enumerate((a, b)):
        for v, x in enumerate(rows):
            for i in lanes.indices(x & lanes_of):
                parts[i][side] |= 1 << v
    if key in lanes._STARS:
        assert all(x.bit_count() == 1 for ab in parts.values() for x in ab)
    return {i: (color_a, pa, color_b, pb) for i, (pa, pb) in parts.items()}


def _solver_parts(cov):
    """(color_a, a, color_b, b) of a cover from solve, in _claim_parts's
    form."""
    cert = cov.certificate
    a, b = cov.a, cov.b
    if cert.key.startswith("two-stars"):
        a, b = 1 << cert.center1, 1 << cert.center2
    elif cert.key in lanes._STARS:
        a, b = 1 << cert.center_a, 1 << cert.center_b
    return cov.color_a, a, cov.color_b, b


def _claim_covers(graphs, claim, lanes_of):
    """Per lane of lanes_of, the Cover a lanes claim stands for in that
    lane's graph: a star part is the closed star of its center."""
    stars = claim[0] in lanes._STARS
    out = {}
    for i, (ca, a, cb, b) in _claim_parts(claim, lanes_of).items():
        g = graphs[i]
        if stars:
            a, b = (star(g, ca, a.bit_length() - 1),
                    star(g, cb, b.bit_length() - 1))
        out[i] = Cover(g.n, a, ca, b, cb)
    return out


def _lane_outcomes(n, masks, edge_lanes):
    """Per lane: None for a lane that fails a branch-3 assertion, else
    (key, parts, rejected, small, wide) from lanes.covers, all four
    branches, and the lane verifier; parts is the claim's _claim_parts."""
    ones = (1 << len(masks)) - 1
    adj = lanes.adjacency(n, edge_lanes, ones)
    claims, failed = lanes.covers(n, adj, ones)
    assert [c[0] for c in claims].count(COMPLEMENT) <= 1
    rejected, small, wide = lanes.verify(n, adj, claims)
    out = dict.fromkeys(lanes.indices(failed))
    for claim, x in claims.items():
        for i, parts in _claim_parts(claim, x).items():
            assert i not in out
            out[i] = (claim[0], parts, bool(rejected >> i & 1),
                      bool(small >> i & 1), bool(wide >> i & 1))
    assert sorted(out) == list(range(len(masks)))
    return [out[i] for i in range(len(masks))]


def _oracle_outcome(n, mask):
    """What solve, verify_cover, the corollary and the stage 1 of the
    diameter-2 search say of one coloring, in _lane_outcomes's form; a
    cover of closed stars or of V, and a lemma-c5plus cover, has in-set
    diameter <= 2 in both parts."""
    g = from_red_mask(n, mask)
    try:
        cov = solve(g)
    except InternalInconsistencyError:
        return None
    key = branch_key(cov.certificate)
    diam2 = (is_diam2_subset(g, cov.color_a, cov.a)
             and is_diam2_subset(g, cov.color_b, cov.b))
    assert diam2 or key == COMPLEMENT
    small = max(cov.a.bit_count(), cov.b.bit_count()) < (n + 1) // 2
    return (key, _solver_parts(cov), not verify_cover(g, cov), small,
            not diam2)


def _assert_blocks_match_oracle(n, blocks):
    """Each lane's outcome, and each block's tally of counts and first
    masks, forced through the lane passes, against the oracle."""
    keys = set()
    for masks, edge_lanes in blocks:
        assert len(edge_lanes) == num_edges(n)
        counts = dict.fromkeys(lab.BRANCH_KEYS, 0)
        first = {}
        for mask, got in zip(masks, _lane_outcomes(n, masks, edge_lanes)):
            assert got == _oracle_outcome(n, mask), (n, mask)
            keys.add(got and got[0])
            if got is not None:
                counts[got[0]] += 1
                first[got[0]] = min(first.get(got[0], mask), mask)
        part = lab._Partial()
        lab._tally_lanes(n, "reach", masks, edge_lanes, part)
        assert {k: part.counts[k] for k in lab.BRANCH_KEYS} == counts
        assert part.first == first
    return keys


@pytest.mark.parametrize("n", [2, 4, 6])
def test_lane_path_matches_the_oracle_on_every_coloring(n):
    total = 1 << num_edges(n)
    blocks = list(lab._lane_blocks(n, "exhaustive", None, total, 1, range(1)))
    assert [list(masks) for masks, _ in blocks] == [list(range(total))]
    keys = _assert_blocks_match_oracle(n, blocks)
    # n = 6 is the smallest order with a critical-complement coloring, and
    # no order up to 6 has a branch-3 one
    assert keys == {2: {"two-stars-2"}, 4: set(LANE_KEYS),
                    6: {*LANE_KEYS, COMPLEMENT}}[n]
    # the report: counts, first colorings and the diameter-2 tally
    counts = dict.fromkeys(lab.BRANCH_KEYS, 0)
    first = {}
    for mask in range(total):
        key = branch_key(solve(from_red_mask(n, mask)).certificate)
        counts[key] += 1
        first.setdefault(key, mask_to_compact(n, mask))
    report = scan(n, check="both")
    assert report.branch_counts == counts
    assert report.branch_first == first
    assert report.diam2_cover_found == total and report.ok


def test_lane_path_matches_the_oracle_on_n8_blocks():
    """A whole 2**16-lane block at seeded high bits, and seeded aligned
    blocks of 2**12 and 2**4 lanes."""
    rng = random.Random(88)
    total = 1 << num_edges(8)
    blocks = []
    for count in (1 << 8, 1 << 12, 1 << 20):
        j = rng.getrandbits(count.bit_length() - 1)
        (masks, edge_lanes), = lab._lane_blocks(8, "exhaustive", None, total,
                                                count, [j])
        size = total // count
        assert list(masks) == list(range(j * size, (j + 1) * size))
        blocks.append((masks, edge_lanes))
    keys = _assert_blocks_match_oracle(8, blocks)
    assert {*LANE_KEYS, COMPLEMENT} < keys <= {*LANE_KEYS, COMPLEMENT, *LEMMA_KEYS}


@pytest.mark.parametrize("n,hi", [(6, 1 << 12), (8, 1 << 16)])
def test_lane_path_matches_the_oracle_on_pruned_blocks(n, hi):
    # one sparse sorted block: the canonical masks below hi, one per class
    # at n = 6, transposed as a random share is
    masks = [m for m in range(hi) if is_canonical(n, m)]
    assert len(masks) <= lab._RANDOM_LANES
    if n == 6:
        assert masks == symmetry_classes(n)
    keys = _assert_blocks_match_oracle(
        n, [(masks, lanes.transpose(masks, num_edges(n)))])
    # the color swap leaves no whole-1 class at n = 6
    assert keys == {6: {"whole-2", "two-stars-1", "two-stars-2", COMPLEMENT},
                    8: {*LANE_KEYS, COMPLEMENT, "lemma-i", "lemma-ii"}}[n]


def _assert_random_share_matches_oracle(n, samples):
    seed = 1000 + samples
    blocks = list(lab._lane_blocks(n, "random", seed, samples, 1, range(1)))
    assert [masks for masks, _ in blocks] == [sorted(
        random_red_mask(n, seed + SEED_STRIDE * i) for i in range(samples))]
    keys = _assert_blocks_match_oracle(n, blocks)
    every = {*LANE_KEYS, COMPLEMENT, *LEMMA_KEYS}
    if samples >= 300 and n <= 16:
        assert {*LANE_KEYS, COMPLEMENT} < keys <= every
    if samples >= 4000:
        assert keys == every
    return keys


@pytest.mark.parametrize("samples", [1, 2, 63, 64, 65, 300])
def test_lane_path_matches_the_oracle_on_n10_random_shares(samples):
    _assert_random_share_matches_oracle(10, samples)


@pytest.mark.parametrize("n,samples", [
    (8, 500), (16, 300), (8, 4000), (64, 1), (32, 2000)])
def test_lane_path_matches_the_oracle_on_n8_and_n16_random_shares(n, samples):
    # n = 64: a one-lane block; n = 32: a block with fewer residual
    # colorings than vertices, a critical-complement one among them
    keys = _assert_random_share_matches_oracle(n, samples)
    if n == 32:
        assert COMPLEMENT in keys


@pytest.mark.parametrize("m,count", [
    (1, 1), (12, 63), (40, 64), (64, 65), (65, 130), (130, 200)])
def test_transpose_masks_matches_the_bitwise_definition(m, count):
    rng = random.Random(m * 1000 + count)
    masks = [rng.getrandbits(m) for _ in range(count)]
    assert lanes.transpose(masks, m) == [
        sum(1 << i for i, mask in enumerate(masks) if mask >> k & 1)
        for k in range(m)]


@pytest.mark.parametrize("n,samples,seed", [
    (8, 2000, 87), (10, 1000, 88), (16, 300, 89)])
def test_covers_claims_have_the_one_shape(n, samples, seed):
    """Every claim of lanes.covers is (key, color_a, a, color_b, b): a
    census key, two colors and two parts of n lane ints cut to the
    claim's lanes, one-hot in each of them under a star key; the claims'
    lanes partition the lanes that did not fail."""
    (masks, edge_lanes), = lab._lane_blocks(n, "random", seed,
                                            samples, 1, range(1))
    ones = (1 << len(masks)) - 1
    adj = lanes.adjacency(n, edge_lanes, ones)
    claims, failed = lanes.covers(n, adj, ones)
    covered = failed
    for (key, color_a, a, color_b, b), x in claims.items():
        assert key in lab.BRANCH_KEYS
        assert color_a in COLORS and color_b in COLORS
        for rows in (a, b):
            assert len(rows) == n
            assert not functools.reduce(operator.or_, rows) & ~x
            if key in lanes._STARS:
                assert sum(r.bit_count() for r in rows) == x.bit_count()
                assert functools.reduce(operator.or_, rows) == x
        assert x and not covered & x
        covered |= x
    assert covered == ones
    assert {*LANE_KEYS, COMPLEMENT} <= {claim[0] for claim in claims}
    assert lanes.verify(n, adj, {}) == (0, 0, 0)
    assert lanes.verify(n, adj, claims)[:2] == (0, 0)


@pytest.mark.parametrize("n,mode,total", [
    (2, "exhaustive", 1), (4, "exhaustive", 16), (6, "exhaustive", 4096),
    (8, "random", 300), (10, "random", 300), (12, "random", 300)])
def test_unreached_matches_the_per_coloring_predicates(n, mode, total):
    """lanes._unreached on V, the empty set, every singleton and seeded
    random member sets, lane by lane against the per-coloring predicates:
    far exactly where the set is not 2-reachable, out exactly where it
    does not have in-set diameter <= 2, and so far only within out."""
    (masks, edge_lanes), = lab._lane_blocks(n, mode, n, total, 1, range(1))
    graphs = [from_red_mask(n, mask) for mask in masks]
    ones = (1 << len(masks)) - 1
    adj = lanes.adjacency(n, edge_lanes, ones)
    rng = random.Random(n)
    sets = [[ones] * n, [0] * n,
            *([ones if w == v else 0 for w in range(n)] for v in range(n)),
            *([rng.getrandbits(len(masks)) for _ in range(n)]
              for _ in range(10))]
    for c in COLORS:
        for members in sets:
            far, out = lanes._unreached(adj[c], members)
            assert not far & ~out
            for i, g in enumerate(graphs):
                s = sum(1 << v for v, x in enumerate(members) if x >> i & 1)
                assert bool(far >> i & 1) == (not is_2reachable_set(g, c, s))
                assert bool(out >> i & 1) == (not is_diam2_subset(g, c, s))


def _verify_against_check_cover(n, adj, graphs, claim, found):
    """The lane verifier on claim, in every lane of found, against the
    per-coloring checks: it rejects a lane exactly when check_cover
    rejects its cover, flags it small exactly when neither part has n/2
    vertices, and wide exactly when a part fails is_diam2_subset.  Returns
    check_cover's reasons."""
    rejected, small, wide = lanes.verify(n, adj, {claim: found})
    assert not (rejected | small | wide) & ~found
    reasons = set()
    for i, cov in _claim_covers(graphs, claim, found).items():
        g = graphs[i]
        reason = check_cover(g, cov)
        assert bool(rejected >> i & 1) == (reason is not None)
        too_small = max(cov.a.bit_count(), cov.b.bit_count()) < n // 2
        assert bool(small >> i & 1) == too_small
        diam2 = (is_diam2_subset(g, cov.color_a, cov.a)
                 and is_diam2_subset(g, cov.color_b, cov.b))
        assert bool(wide >> i & 1) == (not diam2)
        reasons.add(reason)
    return reasons


def _forgeries(n, claim, found):
    """Claims of claim's key that the kernel never makes, each in every lane
    of found at once.  A star part's center moves to any vertex.  A
    members part gets one vertex moved into or out of it, or two moved
    into it together, and both parts are cut to n/2 and to n/2 - 1
    vertices.  Under critical-complement, moving v out of B where it is
    out of A leaves it uncovered, and moving both ends of a critical edge
    into its part breaks the part."""
    key, color_a, a, color_b, b = claim

    def forged(rows_a, rows_b):
        return key, color_a, tuple(rows_a), color_b, tuple(rows_b)

    for side in (0, 1):
        for v in range(n):
            rows = [list(a), list(b)]
            if key in lanes._STARS:
                rows[side] = [found if w == v else 0 for w in range(n)]
            else:
                rows[side][v] ^= found
            yield forged(*rows)
    if key in lanes._STARS:
        return
    for u, w in itertools.combinations(range(n), 2):
        for side in (0, 1):
            rows = [list(a), list(b)]
            rows[side][u] = rows[side][w] = found
            yield forged(*rows)
    for k in (n // 2, n // 2 + 1):
        yield forged((0,) * k + a[k:], (0,) * k + b[k:])


def test_lane_verifier_rejects_every_forged_cover():
    """Claim every cover the kernel could claim -- V in either color, or
    the two closed c-stars of any partner pair -- for every n = 6
    coloring, and check each against check_cover: a wrong key or a wrong
    pair is caught."""
    n = 6
    (masks, edge_lanes), = lab._lane_blocks(n, "exhaustive", None,
                                            1 << num_edges(n), 1, range(1))
    graphs = [from_red_mask(n, mask) for mask in masks]
    ones = (1 << len(masks)) - 1
    adj = lanes.adjacency(n, edge_lanes, ones)
    for c in COLORS:
        claims = [(f"whole-{c}", c, (ones,) * n, c, (0,) * n)]
        for u in range(0, n, 2):
            head, tail = (0,) * u, (0,) * (n - u - 2)
            claims.append((f"two-stars-{c}", c, head + (ones, 0) + tail,
                           c, head + (0, ones) + tail))
        for claim in claims:
            reasons = _verify_against_check_cover(n, adj, graphs, claim, ones)
            # some lanes are rejected and some are not
            assert None in reasons and len(reasons) > 1


@pytest.mark.parametrize("n,samples,seed", [(8, 400, 81), (10, 200, 82)])
def test_lane_verifier_rejects_every_forged_complement(n, samples, seed):
    """The verifier judges each forged critical-complement lane as the
    per-coloring checks do (_verify_against_check_cover)."""
    (masks, edge_lanes), = lab._lane_blocks(n, "random", seed,
                                            samples, 1, range(1))
    graphs = [from_red_mask(n, mask) for mask in masks]
    ones = (1 << len(masks)) - 1
    adj = lanes.adjacency(n, edge_lanes, ones)
    claims = lanes.covers(n, adj, ones)[0]
    (claim, found), = [(c, x) for c, x in claims.items() if c[0] == COMPLEMENT]
    assert lanes.verify(n, adj, {claim: found})[0] == 0
    outcomes = set()
    for forged in _forgeries(n, claim, found):
        outcomes |= _verify_against_check_cover(n, adj, graphs, forged, found)
    # an uncovered vertex, a critical edge inside a part, and one end of a
    # critical edge moved into its part alone, which is no error
    assert {"not a cover", "A not 2-reachable", "B not 2-reachable",
            None} <= outcomes


@pytest.mark.parametrize("n,samples,seed", [(8, 3000, 85), (10, 2000, 86)])
def test_lemmas_match_the_case_analysis_on_forged_far_edges(n, samples, seed):
    """lanes.lemmas on far edges forged by flipping sparse random lanes, on
    every lane where the forged ends of the two colors meet, against the
    case analysis of cover._shared_vertex_cover on the edges solve would
    pick from the same far edges: the same lanes fail, with every one of
    its assertions firing somewhere, and the others get the same claim."""
    (masks, edge_lanes), = lab._lane_blocks(n, "random", seed,
                                            samples, 1, range(1))
    ones = (1 << len(masks)) - 1
    adj = lanes.adjacency(n, edge_lanes, ones)
    # every lane's far edges, not just those covers keeps
    far = [[lanes._far(adj[c][u], adj[c][v], ones & ~adj[c][u][v])
            for u, v in edge_list(n)] for c in COLORS]
    rng = random.Random(seed)

    def sparse():
        return (rng.getrandbits(len(masks)) & rng.getrandbits(len(masks))
                & rng.getrandbits(len(masks)) & rng.getrandbits(len(masks)))

    forged = [[x ^ sparse() for x in rows] for rows in far]
    ends = [[0] * n, [0] * n]
    for (u, v), *xs in zip(edge_list(n), *forged):
        for row, x in zip(ends, xs):
            row[u] |= x
            row[v] |= x
    meet = 0
    for x, y in zip(*ends):
        meet |= x & y
    claims, failed = lanes.lemmas(n, adj, forged, ends[1], meet)
    got = dict.fromkeys(lanes.indices(failed))
    for claim, x in claims.items():
        got.update({i: (claim[0], parts)
                    for i, parts in _claim_parts(claim, x).items()})
    assert sorted(got) == lanes.indices(meet)
    seen = set()
    for i in lanes.indices(meet):
        rows = [[0] * n, [0] * n]
        for (u, v), *xs in zip(edge_list(n), *forged):
            for row, x in zip(rows, xs):
                if x >> i & 1:
                    row[u] |= 1 << v
                    row[v] |= 1 << u
        e = _first_far_edge(rows[0], functools.reduce(operator.or_, rows[1]))
        f = _first_far_edge(rows[1], 1 << e[0] | 1 << e[1])
        g = from_red_mask(n, masks[i])
        try:
            cov = _shared_vertex_cover(g, e, f)
        except InternalInconsistencyError as exc:
            assert got[i] is None
            seen.add(str(exc).split(" [")[0])
            continue
        key = cov.certificate.key
        assert got[i] == (key, _solver_parts(cov))
        seen.add(key)
    assert len(seen) == 4 + len(LEMMA_KEYS)


@pytest.mark.parametrize("n,samples,seed", [(8, 2000, 83), (10, 1000, 84)])
def test_lane_verifier_rejects_every_forged_lemma_claim(n, samples, seed):
    """The verifier judges each forged lemma-* lane as the per-coloring
    checks do (_verify_against_check_cover)."""
    (masks, edge_lanes), = lab._lane_blocks(n, "random", seed,
                                            samples, 1, range(1))
    graphs = [from_red_mask(n, mask) for mask in masks]
    ones = (1 << len(masks)) - 1
    adj = lanes.adjacency(n, edge_lanes, ones)
    claims, failed = lanes.covers(n, adj, ones)
    assert failed == 0
    claims = {c: x for c, x in claims.items() if c[0] in LEMMA_KEYS}
    assert {claim[0] for claim in claims} == set(LEMMA_KEYS)
    assert lanes.verify(n, adj, claims) == (0, 0, 0)
    outcomes = set()
    for claim, found in claims.items():
        for forged in _forgeries(n, claim, found):
            c5plus = forged[0] == "lemma-c5plus"
            outcomes |= {(c5plus, reason) for reason in
                         _verify_against_check_cover(n, adj, graphs, forged,
                                                     found)}
    # a wrong center uncovers a vertex; a vertex moved out of a part
    # uncovers it, and one moved into a part can break it
    assert {(False, "not a cover"), (False, None), (True, "not a cover"),
            (True, None)} <= outcomes
    assert outcomes & {(True, "A not 2-reachable"), (True, "B not 2-reachable")}


def test_scan_examines_the_lanes_lemmas_reports_failing(monkeypatch):
    """Lanes that lanes.covers reports as failing an internal assertion
    make no claim and reach _examine: solved there, they tally as before,
    and when solve raises, each keeps its reason."""
    n, seed, samples = 10, 2, 300
    real_covers, real_solve = lanes.covers, lab.solve
    moved_keys = ("lemma-i", "lemma-c5plus")

    def failing_covers(n, adj, ones):
        claims, failed = real_covers(n, adj, ones)
        for claim in [c for c in claims if c[0] in moved_keys]:
            failed |= claims.pop(claim)
        return claims, failed

    calls = []

    def counting_solve(g):
        calls.append(g.red_mask())
        return real_solve(g)

    masks = [random_red_mask(n, seed + SEED_STRIDE * i) for i in range(samples)]
    moved = sorted(m for m in masks
                   if branch_key(solve(from_red_mask(n, m)).certificate)
                   in moved_keys)
    monkeypatch.setattr(lanes, "covers", failing_covers)
    monkeypatch.setattr(lab, "solve", counting_solve)
    report = scan(n, "random", "both", samples=samples, seed=seed)
    assert sorted(calls) == moved and len(moved) == 17
    assert report.machine_text() == \
        (FIXTURES / "scan_n10_random_both.txt").read_text()

    def failing_solve(g):
        if g.red_mask() in moved:
            raise InternalInconsistencyError(f"injected at {g.red_mask():x}", g)
        return real_solve(g)

    monkeypatch.setattr(lab, "solve", failing_solve)
    report = scan(n, "random", "both", samples=samples, seed=seed)
    smallest = {}
    for m in moved:
        smallest.setdefault(canonical_red_mask(n, m), m)
    assert report.assertion_failures == tuple(
        mask_to_compact(n, c) for c in sorted(smallest))
    assert report.assertion_reasons == tuple(
        f"injected at {m:x} [coloring {mask_to_compact(n, m)}]"
        for _, m in sorted(smallest.items()))
    assert report.diam2_cover_found == samples


def test_scan_searches_alone_the_lanes_that_fail_the_lane_stage1(monkeypatch):
    """_diam2_cover runs only for the critical-complement lanes whose
    cover is not diameter-2; every other lane, the branch-3 ones
    included, is settled by the lane passes."""
    n, samples, seed = 10, 300, 2
    masks = [random_red_mask(n, seed + SEED_STRIDE * i) for i in range(samples)]
    expected = []
    for m in masks:
        g = from_red_mask(n, m)
        cov = solve(g)
        key = branch_key(cov.certificate)
        if not (is_diam2_subset(g, cov.color_a, cov.a)
                and is_diam2_subset(g, cov.color_b, cov.b)):
            assert key == COMPLEMENT
            expected.append(m)
    calls = []
    real = lab._diam2_cover

    def counting(g):
        calls.append(g.red_mask())
        return real(g)

    monkeypatch.setattr(lab, "_diam2_cover", counting)
    report = scan(n, "random", "both", samples=samples, seed=seed)
    assert sorted(calls) == sorted(expected)
    assert expected
    assert report.machine_text() == \
        (FIXTURES / "scan_n10_random_both.txt").read_text()


def test_scan_counts_lanes_the_verifier_rejects_as_reach_failures(monkeypatch):
    # forge one claim: every whole-1 lane is claimed whole-2 instead
    real = lanes.covers

    def forged(n, adj, ones):
        claims, failed = real(n, adj, ones)
        for claim in [c for c in claims if c[0] == "whole-1"]:
            _, _, a, _, b = claim
            claims["whole-2", BLUE, a, BLUE, b] = claims.pop(claim)
        return claims, failed

    clean = scan(6, check="both")
    monkeypatch.setattr(lanes, "covers", forged)
    report = scan(6, check="both")
    whole1 = {m for m in range(1 << num_edges(6))
              if branch_key(solve(from_red_mask(6, m)).certificate) == "whole-1"}
    assert report.reach_failures == tuple(
        mask_to_compact(6, m)
        for m in sorted({canonical_red_mask(6, m) for m in whole1}))
    assert report.branch_counts["whole-1"] == 0
    assert report.branch_counts["whole-2"] == \
        clean.branch_counts["whole-1"] + clean.branch_counts["whole-2"]
    # the rejected colorings still get the diameter-2 search
    assert report.diam2_cover_found == 1 << num_edges(6)


@pytest.mark.parametrize("n", [lab._LANE_MAX_N, lab._LANE_MAX_N + 2])
def test_scan_takes_the_lane_path_up_to_its_bound(monkeypatch, n):
    """Above _LANE_MAX_N every coloring is solved one at a time; at the
    bound only a branch-3 one that fails an internal assertion would be."""
    masks = [random_red_mask(n, 5 + SEED_STRIDE * i) for i in range(3)]
    keys = [branch_key(solve(from_red_mask(n, m)).certificate) for m in masks]
    calls = []
    real = lab.solve

    def counting_solve(g):
        calls.append(g.red_mask())
        return real(g)

    monkeypatch.setattr(lab, "solve", counting_solve)
    report = scan(n, "random", "reach", samples=3, seed=5)
    assert sorted(calls) == sorted(masks if n > lab._LANE_MAX_N else [])
    assert {k: v for k, v in report.branch_counts.items() if v} == \
        {k: keys.count(k) for k in keys}
    assert report.ok


@pytest.mark.parametrize("block", [1, 7, 64, 65])
def test_scan_random_blocks_of_any_size_match_the_golden(monkeypatch, block):
    # a share drawn in several sorted blocks: first.<key> is the least
    # lowest lane over the blocks
    monkeypatch.setattr(lab, "_RANDOM_LANES", block)
    report = scan(10, mode="random", check="both", samples=300, seed=2)
    assert report.machine_text() == \
        (FIXTURES / "scan_n10_random_both.txt").read_text()


@pytest.mark.parametrize("block", [1, 7, 64, 65])
def test_scan_lane_pass_on_every_block_matches_the_golden(monkeypatch, block):
    # the same at n = 16, whose blocks hold few residual colorings, down to
    # a lone critical-complement or lemma-i lane: first.<key> is the least
    # lowest lane
    monkeypatch.setattr(lab, "_RANDOM_LANES", block)
    report = scan(16, mode="random", check="reach", samples=40, seed=4)
    assert report.machine_text() == \
        (FIXTURES / "scan_n16_random_reach.txt").read_text()
