"""Diameter-2 cover search, symmetry machinery, coloring-space scans."""

import hashlib
import itertools
import multiprocessing
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import colorings
from partycover import lab
from partycover.cover import (
    Cover,
    InternalInconsistencyError,
    branch_key,
    check_cover,
)
from partycover.extremal import build_sharp_example
from partycover.graphs import (
    BLUE,
    COLORS,
    RED,
    ColoredCocktail,
    all_blue,
    all_red,
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
from partycover.reach import is_diam2_subset, star

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


@pytest.mark.parametrize("orbit_fn", [canonical_red_mask, is_canonical])
@pytest.mark.parametrize("mask", [0b10011, 1 << 16, -1])
def test_orbit_functions_reject_out_of_range_masks(orbit_fn, mask):
    with pytest.raises(ValueError, match="out of range"):
        orbit_fn(4, mask)


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
    golden = (FIXTURES / "scan_n6_reach.txt").read_text()
    assert scan(6).machine_text() == golden


@pytest.mark.parametrize("kwargs,fixture", [
    (dict(n=6, check="both", prune=True), "scan_n6_both_pruned.txt"),
    (dict(n=10, mode="random", check="both", samples=300, seed=2),
     "scan_n10_random_both.txt"),
    (dict(n=10, mode="random", check="both", samples=300, seed=2, workers=2),
     "scan_n10_random_both.txt"),
])
def test_scan_report_goldens(kwargs, fixture):
    assert scan(**kwargs).machine_text() == (FIXTURES / fixture).read_text()


def _failing_masks(n, samples, seed):
    return {random_red_mask(n, seed + SEED_STRIDE * i) for i in range(samples)}


def test_scan_failure_names_canonical_up_to_the_bound(monkeypatch):
    monkeypatch.setattr(lab, "verify_cover", lambda g, cov: False)
    n = CANONICAL_NAMES_MAX_N
    report = scan(n, "random", "reach", samples=2, seed=1, workers=1)
    names = {canonical_red_mask(n, m) for m in _failing_masks(n, 2, 1)}
    assert report.reach_failures == tuple(
        mask_to_compact(n, m) for m in sorted(names))
    assert not report.ok


def test_scan_failure_names_raw_above_the_bound(monkeypatch):
    monkeypatch.setattr(lab, "verify_cover", lambda g, cov: False)
    misses = lab._edge_perm_tables.cache_info().misses
    report = scan(12, "random", "reach", samples=2, seed=1, workers=1)
    assert report.reach_failures == tuple(
        mask_to_compact(12, m) for m in sorted(_failing_masks(12, 2, 1)))
    assert "failure.reach.1=" + report.reach_failures[1] in report.machine_lines()
    # no relabeling table was built for n = 12
    assert lab._edge_perm_tables.cache_info().misses == misses


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_scan_report_goldens_under_start_method(monkeypatch, method):
    # the workers rebuild their state from a fresh import, not a fork
    ctx = multiprocessing.get_context(method)
    monkeypatch.setattr(lab.multiprocessing, "get_context", lambda _: ctx)
    for kwargs, fixture in [
        (dict(n=6, check="both", prune=True), "scan_n6_both_pruned.txt"),
        (dict(n=10, mode="random", check="both", samples=300, seed=2),
         "scan_n10_random_both.txt"),
    ]:
        report = scan(workers=2, **kwargs)
        assert report.machine_text() == (FIXTURES / fixture).read_text()


def test_scan_both_solves_each_coloring_once(monkeypatch):
    calls = []
    real = lab.solve

    def counting_solve(g):
        calls.append(g.red_mask())
        return real(g)

    monkeypatch.setattr(lab, "solve", counting_solve)
    scan(10, "random", "both", samples=50, seed=3)
    assert len(calls) == 50


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
    broken = {masks[0], masks[7], masks[154]}

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
