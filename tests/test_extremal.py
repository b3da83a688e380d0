"""Extremal 2-reachable sets: clique solver vs brute oracle, sharpness."""

import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import colorings
from partycover.extremal import (
    BRUTE_FORCE_MAX_N,
    _find_clique,
    _universal,
    brute_max_2reachable,
    build_sharp_example,
    max_2reachable,
    reach_adjacency,
)
from partycover.graphs import (
    BLUE,
    RED,
    ColoredCocktail,
    all_red,
    enumerate_colorings,
    from_compact,
    from_red_mask,
    num_edges,
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


def _clique_number(adj, cand):
    """Largest k such that some k vertices of cand are pairwise adjacent."""
    verts = vertex_list(cand)
    return max(k for k in range(len(verts) + 1)
               if any(_is_clique(adj, vertex_mask(combo))
                      for combo in itertools.combinations(verts, k)))


def _check_find_clique(adj, cand, need, omega):
    """None exactly when need exceeds the clique number, otherwise a
    clique inside cand with at least need vertices."""
    found = _find_clique(adj, cand, need)
    if need > omega:
        assert found is None
    else:
        assert found is not None and found & ~cand == 0
        assert found.bit_count() >= need and _is_clique(adj, found)
    return found


@given(colorings(max_n=10), st.sampled_from((RED, BLUE)),
       st.integers(min_value=0, max_value=(1 << 10) - 1),
       st.integers(min_value=0, max_value=11))
@settings(max_examples=150)
def test_clique_searches_agree(g, c, cand, need):
    adj = reach_adjacency(g, c)
    cand &= (1 << g.n) - 1
    omega = _clique_number(adj, cand)
    _check_find_clique(adj, cand, need, omega)
    _check_find_clique(adj, cand, omega, omega)
    _check_find_clique(adj, cand, omega + 1, omega)


def _planted(n, p, rng):
    """The sharp example with each edge flipped with probability p."""
    flips = sum(1 << k for k in range(num_edges(n)) if rng.random() < p)
    return from_red_mask(n, build_sharp_example(n).red_mask() ^ flips)


def test_reach_adjacency_matches_dist_le2():
    """Every even n up to 66, so the packed square runs at every row
    width from 2 to 66, past one 64-bit word: the empty and full red
    masks, the last edge alone, uniform masks and planted near-extremal
    colorings."""
    rng = random.Random(66)
    for n in range(2, 68, 2):
        m = num_edges(n)
        masks = {0, (1 << m) - 1, 1 << m >> 1, rng.getrandbits(m),
                 rng.getrandbits(m)}
        graphs = [from_red_mask(n, mask) for mask in sorted(masks)]
        graphs += [_planted(n, p, rng) for p in (0.03, 0.1)]
        for g in graphs:
            for c in (RED, BLUE):
                adj = reach_adjacency(g, c)
                for u in range(n):
                    assert adj[u] == vertex_mask(
                        v for v in range(n) if v != u and dist_le2(g, c, u, v))


def _row_or(adj, u):
    """adj[u] and everything one step past a neighbor of u, minus u."""
    mask = adj[u]
    for w in vertex_list(adj[u]):
        mask |= adj[w]
    return mask & ~(1 << u)


def test_reach_adjacency_on_asymmetric_tables():
    """Unchecked tables that are not symmetric and may hold loops: row u
    is still adj[u] OR the rows adj[u] lists, minus u."""
    g = ColoredCocktail(4, (0b0100, 0b0100, 0, 0b0100), (0, 0, 0, 0),
                        validate=False)
    assert reach_adjacency(g, RED) == (0b0100, 0b0100, 0, 0b0100)
    rng = random.Random(5)
    for n in (2, 8, 30, 64, 66):
        rows = [tuple(rng.getrandbits(n) & rng.getrandbits(n)
                      for _ in range(n)) for _ in range(2)]
        g = ColoredCocktail(n, *rows, validate=False)
        for c in (RED, BLUE):
            adj = g.adj(c)
            assert reach_adjacency(g, c) == tuple(
                _row_or(adj, u) for u in range(n))


def _with_universal(n, k, rng):
    """A symmetric random graph on n vertices in which k random vertices
    are adjacent to all others."""
    adj = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    full = (1 << n) - 1
    for u in rng.sample(range(n), k):
        adj[u] = full ^ 1 << u
        for v in range(n):
            if v != u:
                adj[v] |= 1 << u
    return tuple(adj)


def test_clique_searches_absorb_universal_vertices():
    """Dense auxiliary graphs, where many candidates are universal: for
    need up to their number _find_clique returns all of them, above it
    it searches the other candidates for the rest."""
    rng = random.Random(12)
    tables = []
    for n in (4, 8, 12):
        tables += [reach_adjacency(all_red(n), c) for c in (RED, BLUE)]
        tables += [reach_adjacency(_planted(n, p, rng), c)
                   for p in (0.03, 0.1, 0.3) for c in (RED, BLUE)]
        tables += [_with_universal(n, k, rng) for k in (1, n // 3, n // 2)]
    branches = set()
    for adj in tables:
        n = len(adj)
        full = (1 << n) - 1
        for cand in (full, rng.getrandbits(n) | rng.getrandbits(n)):
            univ = _universal(adj, cand)
            assert univ == vertex_mask(v for v in vertex_list(cand)
                                       if cand & ~adj[v] == 1 << v)
            omega = _clique_number(adj, cand)
            for need in range(1, cand.bit_count() + 2):
                found = _check_find_clique(adj, cand, need, omega)
                if need <= univ.bit_count():
                    assert found == univ
                    branches.add("universal")
                elif univ and found is not None:
                    branches.add("search")
    assert branches == {"universal", "search"}


@pytest.mark.parametrize("n", [12, 14, 16])
def test_oracles_on_planted_colorings(n):
    """The benchmark's family at sizes the oracles reach: the sharp
    example flipped at p = 0.01, 0.03 and 0.1, whose auxiliary graphs are
    far from complete."""
    rng = random.Random(n)
    for p in (0.01, 0.03, 0.1):
        g = _planted(n, p, rng)
        for c in (RED, BLUE):
            size, witness = max_2reachable(g, c)
            assert size == brute_max_2reachable(g, c)
            assert (size, witness) == _lex_first_max(g, c)


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
