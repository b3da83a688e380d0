"""Solver branches, certificates, cover verification, cover text format."""

import dataclasses
import io
import pickle
import random

import pytest
from hypothesis import given, settings

from conftest import colorings
from partycover import cli
from partycover import cover as cover_module
from partycover.cover import (
    BRANCH_KEYS,
    Cover,
    CriticalComplement,
    InternalInconsistencyError,
    LemmaC5Plus,
    LemmaStars,
    LemmaWitness,
    TwoStars,
    WholeVertexSet,
    _shared_vertex_cover,
    apply_lemma,
    branch_key,
    check_cover,
    format_cover,
    parse_cover,
    solve,
    verify_cover,
)
from partycover.extremal import build_sharp_example
from partycover.graphs import (
    BLUE,
    RED,
    GraphFormatError,
    all_blue,
    all_red,
    enumerate_colorings,
    from_compact,
    from_red_mask,
    num_edges,
    vertex_list,
    vertex_mask,
)
from partycover.reach import CriticalPair, critical_pairs


def test_solve_all_red():
    g = all_red(4)
    cov = solve(g)
    assert cov == Cover(4, 0b1111, RED, 0, RED, WholeVertexSet(RED))
    assert verify_cover(g, cov)


def test_solve_all_blue():
    cov = solve(all_blue(4))
    assert cov.certificate == WholeVertexSet(BLUE)
    assert cov.a == 0b1111 and cov.b == 0


def test_solve_sharp_is_two_stars():
    g = build_sharp_example(8)
    cov = solve(g)
    assert cov.certificate == TwoStars(BLUE, 0, 1)
    assert vertex_list(cov.a) == [0, 3, 5, 7]
    assert vertex_list(cov.b) == [1, 2, 4, 6]
    assert cov.color_a == cov.color_b == BLUE
    assert verify_cover(g, cov)


def test_solve_n2():
    g = from_red_mask(2, 0)
    cov = solve(g)
    assert cov.certificate == TwoStars(BLUE, 0, 1)
    assert (cov.a, cov.b) == (0b01, 0b10)
    assert verify_cover(g, cov)


def test_branch_census_n4():
    census = {}
    for g in enumerate_colorings(4):
        cov = solve(g)
        assert verify_cover(g, cov)
        key = branch_key(cov.certificate)
        census[key] = census.get(key, 0) + 1
    assert census == {"whole-1": 1, "whole-2": 1,
                      "two-stars-1": 4, "two-stars-2": 10}


def test_branch_census_n6_no_shared_vertex_branch():
    # the shared-vertex case analysis needs n >= 8 to fire at all
    census = {}
    for g in enumerate_colorings(6):
        key = branch_key(solve(g).certificate)
        census[key] = census.get(key, 0) + 1
    assert census == {"whole-1": 470, "whole-2": 470, "two-stars-1": 1080,
                      "two-stars-2": 2060, "critical-complement": 16}
    assert not any(k.startswith("lemma") for k in census)


@given(colorings(max_n=12))
@settings(max_examples=150)
def test_solve_verifies_and_covers_half(g):
    cov = solve(g)
    assert branch_key(cov.certificate) in BRANCH_KEYS
    assert verify_cover(g, cov)
    assert max(cov.a.bit_count(), cov.b.bit_count()) >= g.n // 2


def test_branch_keys_fixed():
    assert len(BRANCH_KEYS) == 12
    assert BRANCH_KEYS[0] == "whole-1"
    assert BRANCH_KEYS[-1] == "critical-complement"
    assert branch_key(WholeVertexSet(2)) == "whole-2"
    assert branch_key(CriticalComplement(0, 0)) == "critical-complement"
    with pytest.raises(ValueError):
        branch_key(LemmaWitness(0, 2, 1, 3, 3))
    with pytest.raises(ValueError):
        branch_key(None)


# --- solver branch regression fixtures: smallest coloring reaching each branch

FIRSTS = {
    "whole-1": "4:f",
    "whole-2": "4:0",
    "two-stars-1": "4:7",
    "two-stars-2": "2:",
    "lemma-i": "8:6f0300",
    "lemma-ii": "8:3b0300",
    "lemma-iii": "8:6b2310",
    "lemma-vi": "8:ab1310",
    "lemma-c5plus": "8:1b5310",
    "critical-complement": "6:743",
}


@pytest.mark.parametrize("key,compact", sorted(FIRSTS.items()))
def test_branch_first_colorings(key, compact):
    g = from_compact(compact)
    cov = solve(g)
    assert branch_key(cov.certificate) == key
    assert verify_cover(g, cov)


#: Full `partycover solve --certificate` output for each FIRSTS coloring.
CERTIFICATE_GOLDENS = {
    "whole-1": "A 1: 0 1 2 3\nB 1:\n"
               "certificate: whole-1: every pair is within distance 2 in "
               "color 1 already\n",
    "whole-2": "A 2: 0 1 2 3\nB 2:\n"
               "certificate: whole-2: every pair is within distance 2 in "
               "color 2 already\n",
    "two-stars-1": "A 1: 0 2 3\nB 1: 1 2\n"
                   "certificate: two-stars-1: color-1 stars of the partner "
                   "pair (0, 1), which is critical in the other color\n",
    "two-stars-2": "A 2: 0\nB 2: 1\n"
                   "certificate: two-stars-2: color-2 stars of the partner "
                   "pair (0, 1), which is critical in the other color\n",
    "lemma-i": "A 1: 0 2 4\nB 2: 0 1 3 5 6 7\n"
               "certificate: lemma-i: star of 4 in color 1 with star of 5 in "
               "color 2 (critical edges share vertex 0; far ends 5 and 4)\n",
    "lemma-ii": "A 1: 0 2 3 6 7\nB 2: 1 2 4 5 6 7\n"
                "certificate: lemma-ii: star of 0 in color 1 with star of 1 "
                "in color 2 (critical edges share vertex 2; far ends 1 and "
                "0)\n",
    "lemma-iii": "A 2: 1 2 4 6 7\nB 2: 0 3 5 6 7\n"
                 "certificate: lemma-iii: star of 1 in color 2 with star of "
                 "5 in color 2 (critical edges share vertex 0; far ends 5 "
                 "and 4)\n",
    "lemma-vi": "A 1: 1 2 3 4\nB 1: 0 3 5 6 7\n"
                "certificate: lemma-vi: star of 4 in color 1 with star of 0 "
                "in color 1 (critical edges share vertex 5; far ends 1 and "
                "0)\n",
    "lemma-c5plus": "A 2: 0 1 3 5 7\nB 1: 0 1 2 4 6\n"
                    "certificate: lemma-c5plus: cyclic 5-part sets around "
                    "shared vertex 0; A parts [0 | 3 | 7 | 1 | 5], B parts "
                    "[0 | 2 | 4 | 1 | 6]\n",
    "critical-complement": "A 1: 0 2 4\nB 2: 1 3 5\n"
                           "certificate: critical-complement: drop "
                           "color-1-critical edge ends (1 3 5) for A, "
                           "color-2-critical ends (0 2 4) for B\n",
}


@pytest.mark.parametrize("key,compact", sorted(FIRSTS.items()))
def test_solve_certificate_cli_goldens(key, compact, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(compact + "\n"))
    assert cli.main(["solve", "-", "--certificate"]) == 0
    assert capsys.readouterr().out == CERTIFICATE_GOLDENS[key]


def test_critical_complement_certificate_contents():
    g = from_compact("6:743")
    cov = solve(g)
    cert = cov.certificate
    assert vertex_list(cert.p) == [1, 3, 5]
    assert vertex_list(cert.q) == [0, 2, 4]
    assert cov.a == vertex_mask([0, 2, 4]) and cov.color_a == RED
    assert cov.b == vertex_mask([1, 3, 5]) and cov.color_b == BLUE


def test_c5plus_parts_need_not_be_independent():
    """Regression: a 5-part set can contain a same-color edge inside one
    part; the cover is still valid (only the consecutive complete joins
    are load-bearing for diameter 2)."""
    g = from_compact("10:a02b46ef22")
    cov = solve(g)
    cert = cov.certificate
    assert isinstance(cert, LemmaC5Plus)
    part = vertex_mask([0, 8])
    assert part in cert.parts_a
    assert cov.color_a == BLUE and g.color_of(0, 8) == BLUE
    assert verify_cover(g, cov)


def test_c5plus_certificate_needs_exactly_five_parts():
    """Splitting a part of a valid c5plus certificate gives a cyclic
    6-part chain over the same set.  The parts still pass the set checks
    but a blown-up 6-cycle need not have diameter 2, so the certificate
    must be refused."""
    g = from_compact("10:c9d54450ae")
    cov = solve(g)
    cert = cov.certificate
    assert cert.parts_a == (256, 1, 8, 512, 20)
    assert check_cover(g, cov, require_diam2=True) is None
    forged = dataclasses.replace(cert, parts_a=(256, 1, 8, 512, 4, 16))
    forged_cov = dataclasses.replace(cov, certificate=forged)
    assert check_cover(g, forged_cov) == "certificate mismatch"
    assert check_cover(g, forged_cov, require_diam2=True) == \
        "certificate mismatch"


# --- apply_lemma: the public entry to the shared-vertex case analysis


def _first_shared_pair(g):
    blue_crit = [f for f in critical_pairs(g, BLUE) if f.is_edge]
    for e in critical_pairs(g, RED):
        for f in blue_crit:
            if e.is_edge and {e.u, e.v} & {f.u, f.v}:
                return e, f
    raise AssertionError("no shared-vertex pair")


def test_apply_lemma_matches_solve():
    """solve's branch-3 pair is the first (e, f) in lexicographic
    nested-loop order: on the census's first coloring of each live lemma
    key and on the seeded uniform n = 8, 10 and 16 colorings that reach
    branch 3.  No n = 6 coloring does; the census's smallest lemma order
    is 8."""
    graphs = [from_compact(compact) for compact in (
        "8:6f0300", "8:3b0300", "8:6b2310", "8:ab1310", "8:1b5310")]
    for n, tries in ((8, 600), (10, 600), (16, 3000)):
        rng = random.Random(n)
        graphs += [from_red_mask(n, rng.getrandbits(num_edges(n)))
                   for _ in range(tries)]
    keys = []
    for g in graphs:
        cov = solve(g)
        if isinstance(cov.certificate, (LemmaStars, LemmaC5Plus)):
            e, f = _first_shared_pair(g)
            assert apply_lemma(g, e, f) == cov
            keys.append(cov.certificate.key)
    assert set(keys) == {"lemma-i", "lemma-ii", "lemma-iii", "lemma-vi",
                         "lemma-c5plus"}
    assert len(keys) > 100


def test_apply_lemma_rejects_bad_inputs():
    g = from_compact("8:6f0300")
    e, f = _first_shared_pair(g)
    with pytest.raises(ValueError, match="must be a CriticalPair"):
        apply_lemma(g, (e.u, e.v), f)
    with pytest.raises(ValueError, match="critical in color 1"):
        apply_lemma(g, f, e)  # colors swapped
    with pytest.raises(ValueError, match="must be an edge"):
        apply_lemma(g, CriticalPair(0, 1, RED, is_edge=False), f)
    # (0,2) carries blue here but red-reaches in two steps: not critical
    with pytest.raises(ValueError, match="not critical"):
        apply_lemma(g, CriticalPair(0, 2, RED, is_edge=True), f)


def test_apply_lemma_rejects_disjoint_edges():
    g = from_compact("6:743")
    e = CriticalPair(1, 3, RED, is_edge=True)
    f = CriticalPair(0, 2, BLUE, is_edge=True)
    with pytest.raises(ValueError, match="share exactly one vertex"):
        apply_lemma(g, e, f)


#: Colorings with a red-critical edge e and a blue-critical edge f sharing
#: a vertex whose partner pair lacks a common neighbor in one color, so
#: branch 2 applies and the shared-vertex lemma does not.
BRANCH2_WITNESSES = [
    ("8:a61f8d", (0, 4), (0, 5)),
    ("8:e316dc", (2, 4), (3, 4)),
]


@pytest.mark.parametrize("compact,e,f", BRANCH2_WITNESSES)
def test_apply_lemma_rejects_when_branch2_applies(compact, e, f):
    g = from_compact(compact)
    e = CriticalPair(*e, RED, is_edge=True)
    f = CriticalPair(*f, BLUE, is_edge=True)
    with pytest.raises(ValueError, match="no common color-. neighbor"):
        apply_lemma(g, e, f)


@pytest.mark.parametrize("compact,e,f", BRANCH2_WITNESSES)
def test_shared_vertex_cover_asserts_partner_common_neighbors(compact, e, f):
    g = from_compact(compact)
    e = CriticalPair(*e, RED, is_edge=True)
    f = CriticalPair(*f, BLUE, is_edge=True)
    with pytest.raises(InternalInconsistencyError, match=compact) as info:
        _shared_vertex_cover(g, e, f)
    assert info.value.graph_compact == compact


def test_lemma_witness_far_end_is_forced():
    g = from_compact("8:6f0300")
    cov = solve(g)
    wit = cov.certificate.witness
    assert wit.q == wit.y_prime == (wit.y ^ 1)
    assert g.color_of(wit.x, wit.y) == BLUE
    assert g.color_of(wit.x, wit.y_prime) == RED


def test_internal_inconsistency_error_carries_coloring():
    g = build_sharp_example(4)
    err = InternalInconsistencyError("boom", g)
    assert err.graph_compact == "4:9"
    assert "4:9" in str(err) and "boom" in str(err)


def test_internal_inconsistency_error_survives_pickling():
    err = InternalInconsistencyError("boom", build_sharp_example(4))
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is InternalInconsistencyError
    assert str(copy) == str(err) == "boom [coloring 4:9]"
    assert copy.graph_compact == "4:9"


# --- check_cover reason codes


def test_check_cover_accepts_solver_output():
    for g in enumerate_colorings(4):
        assert check_cover(g, solve(g)) is None


def test_check_cover_bad_shape():
    g = all_red(4)
    good = solve(g)
    assert check_cover(g, dataclasses.replace(good, n=6)) == "bad shape"
    assert check_cover(g, dataclasses.replace(good, a=1 << 5)) == "bad shape"
    assert check_cover(g, dataclasses.replace(good, color_a=3)) == "bad shape"
    assert check_cover(g, dataclasses.replace(good, color_b=0)) == "bad shape"


def test_check_cover_not_a_cover():
    g = all_red(4)
    cov = Cover(4, vertex_mask([0, 1, 2]), RED, 0, RED)
    assert check_cover(g, cov) == "not a cover"
    assert not verify_cover(g, cov)


def test_check_cover_not_2reachable():
    g = build_sharp_example(8)
    bad = vertex_mask([0, 1, 2, 4, 6])   # mixed-parity red set
    fine = vertex_mask([1, 3, 5, 7])     # odd side, blue middles exist
    assert check_cover(g, Cover(8, bad, RED, fine, BLUE)) == "A not 2-reachable"
    assert check_cover(g, Cover(8, fine, BLUE, bad, RED)) == "B not 2-reachable"


def test_check_cover_diam2_reasons():
    g = all_blue(4)
    cov = Cover(4, vertex_mask([0, 1]), BLUE, vertex_mask([2, 3]), BLUE)
    # relaxed notion is happy: the middles may live outside the part
    assert check_cover(g, cov) is None
    assert check_cover(g, cov, require_diam2=True) == "A not diameter-2"
    cov2 = Cover(4, (1 << 4) - 1, BLUE, vertex_mask([2, 3]), BLUE)
    assert check_cover(g, cov2, require_diam2=True) == "B not diameter-2"


def test_check_cover_diam2_skips_the_2reachable_walks(monkeypatch):
    """A part with in-set middles has middles in V: once both parts pass
    the diameter-2 check, the 2-reachable walks cannot fail."""
    calls = []
    real = cover_module.is_2reachable_set
    monkeypatch.setattr(cover_module, "is_2reachable_set",
                        lambda *args: calls.append(args) or real(*args))
    g = build_sharp_example(8)
    cov = solve(g)
    assert check_cover(g, cov, require_diam2=True) is None
    assert calls == []
    assert check_cover(g, cov) is None
    assert len(calls) == 2


def test_check_cover_certificate_mismatch():
    g = all_red(4)
    good = solve(g)
    tampered = dataclasses.replace(good, certificate=WholeVertexSet(BLUE))
    assert check_cover(g, tampered) == "certificate mismatch"

    g2 = build_sharp_example(8)
    cov2 = solve(g2)
    wrong_centers = dataclasses.replace(cov2, certificate=TwoStars(BLUE, 2, 3))
    assert check_cover(g2, wrong_centers) == "certificate mismatch"
    # a certificate-less cover with the same parts is still fine
    assert check_cover(g2, dataclasses.replace(cov2, certificate=None)) is None


# --- cover text format


def test_format_cover_goldens():
    assert format_cover(solve(build_sharp_example(8))) == (
        "A 2: 0 3 5 7\nB 2: 1 2 4 6\n")
    assert format_cover(solve(all_red(4))) == "A 1: 0 1 2 3\nB 1:\n"


def test_parse_cover_roundtrip_solver_outputs():
    for g in enumerate_colorings(4):
        cov = solve(g)
        back = parse_cover(format_cover(cov), 4)
        assert (back.a, back.color_a, back.b, back.color_b) == (
            cov.a, cov.color_a, cov.b, cov.color_b)
        assert back.certificate is None
        assert verify_cover(g, back)


def test_parse_cover_tolerates_comments_and_order():
    cov = parse_cover("# covers\nB 1: 2 3\n\nA 2: 0 1\n", 4)
    assert cov == Cover(4, 0b0011, BLUE, 0b1100, RED)


@pytest.mark.parametrize("text,frag", [
    ("A 2: 0 1\n", "both an A line and a B line"),
    ("C 2: 0 1\nB 1: 2 3\n", "expected"),
    ("A 2 0 1\nB 1: 2 3\n", "expected"),
    ("A 2: 0 1\nA 1: 2 3\nB 1:\n", "duplicate part"),
    ("A x: 0 1\nB 1: 2 3\n", "bad color"),
    ("A 3: 0 1\nB 1: 2 3\n", "color must be 1 or 2"),
    ("A 2: 0 9\nB 1: 2 3\n", "out of range"),
    ("A 2: 0 one\nB 1: 2 3\n", "bad vertex list"),
])
def test_parse_cover_diagnostics(text, frag):
    with pytest.raises(GraphFormatError, match=frag):
        parse_cover(text, 4)
