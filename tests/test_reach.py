"""Distance-2 predicates, critical pairs, stars, subset checks."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import colorings, colorings_with_subset
from partycover.extremal import build_sharp_example
from partycover.graphs import (
    BLUE,
    RED,
    all_red,
    enumerate_colorings,
    flip,
    from_compact,
    vertex_list,
    vertex_mask,
)
from partycover.reach import (
    CriticalPair,
    critical_pairs,
    dist_le2,
    is_2reachable_set,
    is_diam2_subset,
    mono_diam_le2,
    star,
)


def test_dist_le2_all_red_partner_pair():
    # (0,1) non-adjacent but middle 2 serves
    assert dist_le2(all_red(4), 1, 0, 1)


def test_dist_le2_sharp_partner_pair_is_far_in_both_colors():
    """In the sharpness coloring the partner pairs are critical in both
    colors: no red path at all across the split, and every blue middle
    would have to sit on both sides of the split at once."""
    g = build_sharp_example(8)
    assert vertex_list(g.red[0]) == [2, 4, 6]
    assert vertex_list(g.red[1]) == [3, 5, 7]
    assert not dist_le2(g, RED, 0, 1)
    assert not dist_le2(g, BLUE, 0, 1)


def test_dist_le2_errors():
    g = all_red(4)
    with pytest.raises(ValueError):
        dist_le2(g, 1, 2, 2)
    with pytest.raises(ValueError):
        dist_le2(g, 1, 0, 4)


@given(colorings(max_n=10), st.data())
def test_dist_le2_symmetric(g, data):
    u = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1).filter(
        lambda w: w != u))
    c = data.draw(st.sampled_from((RED, BLUE)))
    assert dist_le2(g, c, u, v) == dist_le2(g, c, v, u)


def test_critical_pairs_all_red():
    g = all_red(4)
    assert critical_pairs(g, 1) == []
    pairs = critical_pairs(g, 2)
    assert len(pairs) == 6
    assert {(p.u, p.v) for p in pairs} == {(0, 1), (0, 2), (0, 3),
                                           (1, 2), (1, 3), (2, 3)}


def test_critical_pairs_sharp_red_is_the_cross_pairs():
    g = build_sharp_example(8)
    pairs = critical_pairs(g, RED)
    assert len(pairs) == 16
    assert all((p.u ^ p.v) & 1 for p in pairs)  # one even, one odd
    assert sum(not p.is_edge for p in pairs) == 4  # the partner pairs
    # blue criticality is exactly the partner pairs
    bpairs = critical_pairs(g, BLUE)
    assert [(p.u, p.v) for p in bpairs] == [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert all(not p.is_edge for p in bpairs)


def test_critical_pairs_n2():
    from partycover.graphs import from_red_mask
    g = from_red_mask(2, 0)
    for c in (RED, BLUE):
        assert critical_pairs(g, c) == [CriticalPair(0, 1, c, is_edge=False)]


@given(colorings(max_n=8))
def test_critical_pair_structure(g):
    """is_edge iff not a partner pair; critical edges carry the other color."""
    for c in (RED, BLUE):
        for p in critical_pairs(g, c):
            assert p.u < p.v
            assert p.is_edge == (p.v != (p.u ^ 1))
            if p.is_edge:
                assert g.color_of(p.u, p.v) == flip(c)
                assert p.edge_color == flip(c)
            else:
                assert p.edge_color is None
            assert not dist_le2(g, c, p.u, p.v)


def test_is_2reachable_trivia():
    g = build_sharp_example(8)
    for c in (RED, BLUE):
        assert is_2reachable_set(g, c, 0)
        for v in range(8):
            assert is_2reachable_set(g, c, 1 << v)
    assert is_2reachable_set(g, RED, vertex_mask([0, 2, 4, 6]))
    assert not is_2reachable_set(g, RED, vertex_mask([0, 2, 4, 6, 1]))


@given(colorings_with_subset(max_n=10), st.sampled_from((RED, BLUE)))
def test_subset_predicates_match_pairwise_definitions(gs, c):
    g, members = gs
    verts = vertex_list(members)
    pairs = list(itertools.combinations(verts, 2))
    assert is_2reachable_set(g, c, members) == all(
        dist_le2(g, c, u, v) for u, v in pairs)
    assert is_diam2_subset(g, c, members) == all(
        g.color_of(u, v) == c
        or any(g.color_of(u, w) == c == g.color_of(v, w)
               for w in verts if w not in (u, v))
        for u, v in pairs)


def test_diam2_implies_2reachable_exhaustive_n4():
    for g in enumerate_colorings(4):
        for c in (RED, BLUE):
            for members in range(16):
                if is_diam2_subset(g, c, members):
                    assert is_2reachable_set(g, c, members)


@given(colorings_with_subset(max_n=10), st.sampled_from((RED, BLUE)))
def test_diam2_implies_2reachable(gs, c):
    g, members = gs
    if is_diam2_subset(g, c, members):
        assert is_2reachable_set(g, c, members)


@given(colorings_with_subset(max_n=10), st.data())
def test_2reachable_monotone_under_subsets(gs, data):
    g, members = gs
    sub = members & data.draw(st.integers(min_value=0,
                                          max_value=(1 << g.n) - 1))
    c = data.draw(st.sampled_from((RED, BLUE)))
    if is_2reachable_set(g, c, members):
        assert is_2reachable_set(g, c, sub)


def test_diam2_not_monotone_regression():
    """Frozen witness: first (coloring, color, S, S') in search order with
    diam2(S) true but diam2(S') false for S' subset of S."""
    g = from_compact("4:0")
    s = vertex_mask([0, 1, 2])
    sp = vertex_mask([0, 1])
    assert is_diam2_subset(g, BLUE, s)
    assert not is_diam2_subset(g, BLUE, sp)
    # the relaxation doesn't care: middle 2 may sit outside S'
    assert is_2reachable_set(g, BLUE, sp)


def test_star_contents():
    g = all_red(4)
    assert vertex_list(star(g, RED, 0)) == [0, 2, 3]
    g = build_sharp_example(8)
    assert vertex_list(star(g, BLUE, 0)) == [0, 3, 5, 7]


@given(colorings(max_n=10), st.data())
def test_star_size_and_diam2(g, data):
    v = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    c = data.draw(st.sampled_from((RED, BLUE)))
    s = star(g, c, v)
    assert s.bit_count() == 1 + g.adj(c)[v].bit_count()
    # a closed star has in-set diameter <= 2 through its center
    assert is_diam2_subset(g, c, s)
    assert is_2reachable_set(g, c, s)


def test_mono_diam_le2():
    assert mono_diam_le2(all_red(4), RED)
    assert not mono_diam_le2(all_red(4), BLUE)
    assert mono_diam_le2(all_red(6), RED)
    g = build_sharp_example(8)
    assert not mono_diam_le2(g, RED)
    assert not mono_diam_le2(g, BLUE)


@given(colorings(max_n=8), st.sampled_from((RED, BLUE)))
def test_mono_diam_iff_no_critical_pairs(g, c):
    assert mono_diam_le2(g, c) == (not critical_pairs(g, c))


def test_diam2_subset_of_whole_v_equals_mono():
    g = build_sharp_example(8)
    for c in (RED, BLUE):
        assert is_diam2_subset(g, c, (1 << 8) - 1) == mono_diam_le2(g, c)
