"""Extremal 2-reachable sets: clique solver vs brute oracle, sharpness."""

import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import colorings
from partycover.extremal import (
    BRUTE_FORCE_MAX_N,
    _find_clique,
    _max_clique,
    brute_max_2reachable,
    build_sharp_example,
    max_2reachable,
    reach_adjacency,
)
from partycover.graphs import (
    BLUE,
    RED,
    all_red,
    enumerate_colorings,
    from_compact,
    from_red_mask,
    vertex_list,
    vertex_mask,
)
from partycover.reach import dist_le2, is_2reachable_set


def test_reach_adjacency_definition():
    g = build_sharp_example(6)
    for c in (RED, BLUE):
        adj = reach_adjacency(g, c)
        for u in range(6):
            assert not (adj[u] >> u) & 1
            for v in range(6):
                if v != u:
                    assert bool((adj[u] >> v) & 1) == dist_le2(g, c, u, v)
            for v in vertex_list(adj[u]):
                assert (adj[v] >> u) & 1  # symmetric


def test_all_red_whole_set():
    g = all_red(6)
    size, members = max_2reachable(g, RED)
    assert size == 6 and members == 0b111111
    assert brute_max_2reachable(g, RED) == 6
    size_b, members_b = max_2reachable(g, BLUE)
    assert size_b == 1 and members_b == 1  # no blue edges at all


def test_n2_singletons():
    g = from_red_mask(2, 0)
    for c in (RED, BLUE):
        assert max_2reachable(g, c) == (1, 0b01)
        assert brute_max_2reachable(g, c) == 1


def test_solver_matches_oracle_exhaustively_n4():
    for g in enumerate_colorings(4):
        for c in (RED, BLUE):
            size, members = max_2reachable(g, c)
            assert size == brute_max_2reachable(g, c)
            assert is_2reachable_set(g, c, members)
            assert members.bit_count() == size


@given(colorings(min_n=6, max_n=10), st.sampled_from((RED, BLUE)))
@settings(max_examples=60)
def test_solver_matches_oracle_random(g, c):
    size, members = max_2reachable(g, c)
    assert size == brute_max_2reachable(g, c)
    assert is_2reachable_set(g, c, members)
    assert members.bit_count() == size


def _lex_first_max(g, c):
    """(size, mask) of the first largest 2-reachable set in combinations order,
    which is the lexicographically smallest sorted vertex list."""
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if is_2reachable_set(g, c, vertex_mask(combo)):
                return size, vertex_mask(combo)
    return 0, 0


def test_witness_is_lex_smallest_n4():
    for g in enumerate_colorings(4):
        for c in (RED, BLUE):
            assert max_2reachable(g, c) == _lex_first_max(g, c)


def test_witness_is_lex_smallest_n6():
    for g in enumerate_colorings(6):
        for c in (RED, BLUE):
            assert max_2reachable(g, c) == _lex_first_max(g, c)


@given(colorings(max_n=10), st.sampled_from((RED, BLUE)))
@settings(max_examples=80)
def test_witness_is_lex_smallest_random(g, c):
    assert max_2reachable(g, c) == _lex_first_max(g, c)


GOLDENS = pathlib.Path(__file__).parent / "fixtures" / "maxreach_goldens.txt"


def test_large_n_goldens():
    """(size, witness) at n = 48 and 64, where the brute oracle cannot go."""
    rows = [line.split() for line in GOLDENS.read_text().splitlines()
            if not line.startswith("#")]
    graphs = [from_compact(row[0]) for row in rows]
    assert [g.n for g in graphs] == [48] * 12 + [64] * 4
    for g, (compact, *expected) in zip(graphs, rows):
        for c, field in zip((RED, BLUE), expected):
            size, witness = field.split(":")
            assert max_2reachable(g, c) == (int(size), int(witness, 16)), compact


def _is_clique(adj, mask):
    return all(mask & ~(1 << v) & ~adj[v] == 0 for v in vertex_list(mask))


@given(colorings(max_n=10), st.sampled_from((RED, BLUE)),
       st.integers(min_value=0, max_value=(1 << 10) - 1),
       st.integers(min_value=0, max_value=11))
@settings(max_examples=150)
def test_clique_searches_agree(g, c, cand, need):
    adj = reach_adjacency(g, c)
    cand &= (1 << g.n) - 1
    size, clique = _max_clique(adj, cand)
    assert clique & ~cand == 0 and clique.bit_count() == size
    assert _is_clique(adj, clique)
    verts = vertex_list(cand)
    assert size == max(k for k in range(len(verts) + 1)
                       if any(_is_clique(adj, vertex_mask(combo))
                              for combo in itertools.combinations(verts, k)))
    found = _find_clique(adj, cand, need)
    if size < need:
        assert found is None
    else:
        assert found is not None and found & ~cand == 0
        assert found.bit_count() == need and _is_clique(adj, found)


@given(colorings(max_n=12), st.sampled_from((RED, BLUE)))
@settings(max_examples=60)
def test_reach_adjacency_matches_dist_le2(g, c):
    adj = reach_adjacency(g, c)
    for u in range(g.n):
        assert adj[u] == vertex_mask(
            v for v in range(g.n) if v != u and dist_le2(g, c, u, v))


def test_sharp_example_maxima():
    for n in (4, 6, 8, 10, 12):
        g = build_sharp_example(n)
        for c in (RED, BLUE):
            assert max_2reachable(g, c)[0] == n // 2


def test_sharp_example_witnesses():
    g = build_sharp_example(8)
    assert max_2reachable(g, RED) == (4, vertex_mask([0, 2, 4, 6]))
    assert max_2reachable(g, BLUE) == (4, vertex_mask([0, 2, 4, 6]))
    g4 = build_sharp_example(4)
    assert max_2reachable(g4, RED) == (2, vertex_mask([0, 2]))
    assert max_2reachable(g4, BLUE) == (2, vertex_mask([0, 3]))


def test_sharp_example_oracle_n12():
    assert brute_max_2reachable(build_sharp_example(12), RED) == 6


def test_sharp_partner_pairs_critical_both_colors():
    g = build_sharp_example(10)
    for u in range(0, 10, 2):
        for c in (RED, BLUE):
            assert not dist_le2(g, c, u, u + 1)


def test_sharp_every_larger_subset_contains_partner_pair():
    # pigeonhole at n=8: 5 vertices among 4 partner pairs
    n = 8
    for combo in itertools.combinations(range(n), n // 2 + 1):
        assert any((u ^ 1) in combo for u in combo)


def test_brute_refuses_large_n():
    g = build_sharp_example(18)
    with pytest.raises(ValueError, match="brute-force bound"):
        brute_max_2reachable(g, RED)
    assert BRUTE_FORCE_MAX_N == 16
    # explicit override is allowed
    assert brute_max_2reachable(build_sharp_example(4), RED, max_n=4) == 2


def test_build_sharp_example_rejects_bad_n():
    with pytest.raises(ValueError):
        build_sharp_example(5)
    with pytest.raises(ValueError):
        build_sharp_example(0)


@given(colorings(max_n=10), st.sampled_from((RED, BLUE)))
@settings(max_examples=60)
def test_max_at_least_half_when_solver_says_so(g, c):
    """The cover construction guarantees one part of size >= n/2, so the
    color carrying it has a 2-reachable set that large; the extremal
    solver can never report less than what any cover part achieves."""
    from partycover.cover import solve
    cov = solve(g)
    size_by_color = {RED: 0, BLUE: 0}
    for members, col in ((cov.a, cov.color_a), (cov.b, cov.color_b)):
        size_by_color[col] = max(size_by_color[col], members.bit_count())
    if size_by_color[c]:
        assert max_2reachable(g, c)[0] >= size_by_color[c]
