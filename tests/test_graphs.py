"""Graph core: construction invariants, enumeration, serialization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import colorings
from partycover.cover import parse_cover
from partycover.extremal import build_sharp_example
from partycover.graphs import (
    BLUE,
    EDGE_CACHE_SIZE,
    RED,
    ColoredCocktail,
    GraphFormatError,
    all_blue,
    all_red,
    edge_list,
    enumerate_colorings,
    flip,
    from_compact,
    from_red_mask,
    from_red_set,
    mask_to_compact,
    num_edges,
    parse,
    partner,
    random_coloring,
    random_red_mask,
    serialize,
    to_compact,
    vertex_list,
    vertex_mask,
    _red_mask_plan,
)
from partycover.lab import scan, symmetry_classes, symmetry_group_order


def test_partner_convention():
    assert partner(0, 6) == 1
    assert partner(5, 6) == 4
    for n in (2, 4, 6, 8):
        for v in range(n):
            assert partner(partner(v, n), n) == v
            assert partner(v, n) != v


def test_partner_range_errors():
    with pytest.raises(ValueError):
        partner(6, 6)
    with pytest.raises(ValueError):
        partner(-1, 4)
    with pytest.raises(ValueError):
        partner(0, 5)


def test_flip():
    assert flip(1) == 2
    assert flip(2) == 1
    assert flip(flip(1)) == 1
    with pytest.raises(ValueError):
        flip(3)


def test_num_edges():
    assert [num_edges(n) for n in (2, 4, 6, 8)] == [0, 4, 12, 24]


def test_edge_list_is_lexicographic_and_partner_free():
    for n in (2, 4, 6, 8):
        edges = edge_list(n)
        assert len(edges) == num_edges(n)
        assert list(edges) == sorted(edges)
        for u, v in edges:
            assert u < v and v != (u ^ 1)


def test_color_of_basic():
    g = all_red(4)
    assert g.color_of(0, 2) == RED
    assert g.color_of(2, 3) is None  # partner pair
    with pytest.raises(ValueError):
        g.color_of(1, 1)
    with pytest.raises(ValueError):
        g.color_of(0, 4)


def test_from_red_set_small():
    g = from_red_set(4, [])
    assert g == all_blue(4)
    assert g.color_of(0, 2) == BLUE
    g = from_red_set(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert g == all_red(4)
    # order of endpoints does not matter
    assert from_red_set(4, [(2, 0)]) == from_red_set(4, [(0, 2)])


def test_from_red_set_rejects_bad_pairs():
    with pytest.raises(ValueError, match="partner"):
        from_red_set(4, [(0, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        from_red_set(4, [(0, 2), (2, 0)])
    with pytest.raises(ValueError, match="invalid"):
        from_red_set(4, [(0, 4)])


@given(colorings(max_n=10))
def test_construction_invariants(g):
    """Symmetry, disjointness, completeness, no loops, degree sum n-2."""
    n = g.n
    full = (1 << n) - 1
    for v in range(n):
        r, b = g.red[v], g.blue[v]
        assert not r & b
        assert (r | b) == full & ~(1 << v) & ~(1 << (v ^ 1))
        assert r.bit_count() + b.bit_count() == n - 2
        for u in vertex_list(r):
            assert (g.red[u] >> v) & 1
        for u in vertex_list(b):
            assert (g.blue[u] >> v) & 1
    # revalidation agrees
    ColoredCocktail(n, g.red, g.blue)


def test_validation_rejects_broken_tables():
    g = all_red(4)
    red = list(g.red)
    blue = list(g.blue)
    red[0] &= ~(1 << 2)   # recolor (0,2) at vertex 0 only...
    blue[0] |= 1 << 2     # ...so each vertex still partitions its pairs
    with pytest.raises(ValueError, match="asymmetric"):
        ColoredCocktail(4, red, blue)
    with pytest.raises(ValueError, match="both colors"):
        ColoredCocktail(4, g.red, g.red)
    missing = list(g.red)
    missing[0] &= ~(1 << 2)  # edge (0,2) dropped from both tables
    missing[2] &= ~1
    with pytest.raises(ValueError, match="partition"):
        ColoredCocktail(4, missing, g.blue)


def _tables_are_valid(n, red, blue):
    """Pairwise reference for the table invariants ColoredCocktail checks."""
    for u in range(n):
        if red[u] >> n or blue[u] >> n:  # a neighbor at or above n
            return False
        for v in range(n):
            r, b = red[u] >> v & 1, blue[u] >> v & 1
            if r != red[v] >> u & 1 or b != blue[v] >> u & 1:
                return False  # asymmetric in one color
            if v in (u, u ^ 1):
                if r or b:  # a loop, or a colored partner pair
                    return False
            elif r + b != 1:  # uncolored, or in both colors
                return False
    return True


@st.composite
def flipped_tables(draw, n):
    """The tables of a random coloring of order n after 1-3 flips.

    A flip picks red, blue or both, a row u and a column v < n + 2 (v == u
    is a loop bit, v >= n is out of range) and flips bit v of row u, and
    maybe bit u of row v.  One side in both colors recolors half an edge:
    asymmetric, yet every row still partitions.  Both sides in both colors
    recolor the edge, which keeps the tables valid.
    """
    g = from_red_mask(n, draw(st.integers(0, (1 << num_edges(n)) - 1)))
    tables = [list(g.red), list(g.blue)]
    for _ in range(draw(st.integers(1, 3))):
        colors = draw(st.sampled_from(((0,), (1,), (0, 1))))
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n + 1))
        mirror = v < n and v != u and draw(st.booleans())
        for c in colors:
            tables[c][u] ^= 1 << v
            if mirror:
                tables[c][v] ^= 1 << u
    return tables


def _assert_validator_matches_reference(n, red, blue):
    if _tables_are_valid(n, red, blue):
        ColoredCocktail(n, red, blue)
    else:
        with pytest.raises(ValueError):
            ColoredCocktail(n, red, blue)


@settings(max_examples=300)
@given(st.integers(1, 8).flatmap(
    lambda half: st.tuples(st.just(2 * half), flipped_tables(2 * half))))
def test_validation_matches_a_pairwise_reference(case):
    n, (red, blue) = case
    _assert_validator_matches_reference(n, red, blue)


@settings(max_examples=20)
@given(flipped_tables(64))
def test_validation_matches_a_pairwise_reference_at_64(tables):
    _assert_validator_matches_reference(64, *tables)


_ORDER_CHECKED = {
    "num_edges": num_edges,
    "from_red_mask": lambda n: from_red_mask(n, 0),
    "from_red_set": lambda n: from_red_set(n, []),
    "all_red": all_red,
    "all_blue": all_blue,
    "random_coloring": lambda n: random_coloring(n, 1),
    "random_red_mask": lambda n: random_red_mask(n, 1),
    "mask_to_compact": lambda n: mask_to_compact(n, 0),
    "enumerate_colorings": lambda n: next(enumerate_colorings(n)),
    "build_sharp_example": build_sharp_example,
    "edge_list": edge_list,
    "partner": lambda n: partner(0, n),
    "symmetry_group_order": symmetry_group_order,
    "symmetry_classes": symmetry_classes,
    "scan": scan,
    "ColoredCocktail": lambda n: ColoredCocktail(n, [], []),
}


@pytest.mark.parametrize("n", [-2, 0, 1, 3, 5])
@pytest.mark.parametrize("name", list(_ORDER_CHECKED))
def test_every_builder_refuses_a_bad_order(name, n):
    with pytest.raises(ValueError, match=f"^n must be even and >= 2, got {n}$"):
        _ORDER_CHECKED[name](n)


def test_enumerate_counts():
    assert len(list(enumerate_colorings(2))) == 1
    assert len(list(enumerate_colorings(4))) == 16
    seen = {g.red_mask() for g in enumerate_colorings(6)}
    assert len(seen) == 4096


def test_enumerate_order_is_the_mask_counter():
    masks = [g.red_mask() for g in enumerate_colorings(4)]
    assert masks == list(range(16))


def test_enumerate_bound():
    with pytest.raises(ValueError, match="bound"):
        next(enumerate_colorings(10))
    # explicit override is allowed
    next(enumerate_colorings(10, max_n=10))
    with pytest.raises(ValueError):
        next(enumerate_colorings(5))


def test_random_coloring_deterministic():
    a = random_coloring(8, 12345)
    b = random_coloring(8, 12345)
    assert a == b
    # documented generator contract: one Mersenne Twister draw
    assert a.red_mask() == random.Random(12345).getrandbits(24)


def test_random_coloring_seed_pairs_differ():
    # 100 seed pairs: collisions essentially never happen at n=8
    differing = sum(
        random_coloring(8, 2 * i) != random_coloring(8, 2 * i + 1)
        for i in range(100))
    assert differing == 100


@given(colorings(max_n=8))
def test_serialize_parse_roundtrip(g):
    assert parse(serialize(g)) == g


@given(colorings(max_n=8))
def test_compact_roundtrip(g):
    assert from_compact(to_compact(g)) == g
    assert parse(to_compact(g)) == g  # parse auto-detects the compact form


def test_roundtrip_all_n4():
    for g in enumerate_colorings(4):
        assert parse(serialize(g)) == g


def test_compact_format_bit_order():
    # little-endian hex: digit i holds red-edge bits 4i..4i+3
    assert to_compact(from_red_mask(2, 0)) == "2:"
    assert to_compact(all_red(4)) == "4:f"
    assert to_compact(from_red_mask(6, 1)) == "6:100"
    assert to_compact(from_red_mask(6, 0x800)) == "6:008"
    assert mask_to_compact(8, 0x123456) == "8:654321"
    assert from_compact("6:100").red_mask() == 1


def test_compact_rejects_wrong_shapes():
    with pytest.raises(GraphFormatError, match="hex digits"):
        from_compact("6:1")
    with pytest.raises(GraphFormatError, match="hex digit"):
        from_compact("4:z")
    with pytest.raises(GraphFormatError, match="even"):
        from_compact("5:0")
    with pytest.raises(GraphFormatError):
        from_compact("40")


@pytest.mark.parametrize("text,frag", [
    ("4:F", "hex digit 'F'"),
    ("+4:f", "vertex count '\\+4'"),
    ("\u0664:f", "vertex count"),  # ARABIC-INDIC DIGIT FOUR
    ("4:\u0663", "hex digit"),  # ARABIC-INDIC DIGIT THREE
    ("4 :f", "vertex count"),
    ("4_0:" + "0" * 380, "vertex count"),
], ids=["upper-hex", "plus-sign", "arabic-indic-n", "arabic-indic-hex",
        "space", "underscore"])
def test_compact_accepts_only_ascii_digits_and_lowercase_hex(text, frag):
    with pytest.raises(GraphFormatError, match=frag):
        from_compact(text)
    with pytest.raises(GraphFormatError, match=frag):
        parse(text)


def _parse_cover4(text):
    return parse_cover(text, 4)


@pytest.mark.parametrize("parser,text,frag", [
    (parse, "+4\n0 2 1\n0 3 2\n1 2 1\n1 3 2\n", "bad vertex count"),
    (parse, "0_4\n0 2 1\n0 3 2\n1 2 1\n1 3 2\n", "bad vertex count"),
    (parse, "\u0664\n0 2 1\n0 3 2\n1 2 1\n1 3 2\n", "bad vertex count"),
    (parse, "4\n0 2 +1\n0 3 2\n1 2 1\n1 3 2\n", "expected integers"),
    (parse, "4\n0_0 2 1\n0 3 2\n1 2 1\n1 3 2\n", "expected integers"),
    (parse, "4\n0 \u0662 1\n0 3 2\n1 2 1\n1 3 2\n", "expected integers"),
    (_parse_cover4, "A +1: 0 1\nB 1: 2 3\n", "bad color"),
    (_parse_cover4, "A 1: 0_1 2\nB 1: 2 3\n", "bad vertex list"),
    (_parse_cover4, "A 1: \u0660 1\nB 1: 2 3\n", "bad vertex list"),
], ids=["header-sign", "header-underscore", "header-non-ascii",
        "pair-sign", "pair-underscore", "pair-non-ascii",
        "cover-sign", "cover-underscore", "cover-non-ascii"])
def test_text_parsers_accept_only_ascii_digits(parser, text, frag):
    with pytest.raises(GraphFormatError, match=frag):
        parser(text)


def test_parse_bare_header_builds_no_edge_table():
    edge_list.cache_clear()
    with pytest.raises(GraphFormatError, match=r"pair \(0, 2\) missing"):
        parse("2000\n")
    with pytest.raises(GraphFormatError, match=r"pair \(0, 3\) missing"):
        parse("2000\n0 2 1\n")
    assert edge_list.cache_info().currsize == 0


def test_edge_table_caches_are_bounded():
    for cached in (edge_list, _red_mask_plan):
        bound = cached.cache_info().maxsize
        assert bound == EDGE_CACHE_SIZE
        for n in range(2, 2 * bound + 6, 2):
            cached(n)
        assert cached.cache_info().currsize == bound


@st.composite
def near_miss_texts(draw):
    """A header with a few pair lines, a compact form or a cover, plus noise."""
    n = draw(st.integers(min_value=-1, max_value=9))
    kind = draw(st.sampled_from(("pairs", "compact", "cover")))
    small = st.integers(min_value=-1, max_value=10)
    if kind == "pairs":
        rows = draw(st.lists(st.tuples(small, small, st.integers(0, 3)), max_size=8))
        text = "\n".join([str(n)] + [f"{u} {v} {c}" for u, v, c in rows])
    elif kind == "compact":
        text = f"{n}:" + draw(st.text("0123456789abcdefABCDEF:+- ", max_size=12))
    else:
        text = "\n".join(
            f"{label} {draw(st.integers(0, 3))}: "
            + " ".join(map(str, draw(st.lists(small, max_size=5))))
            for label in draw(st.lists(st.sampled_from("AB"), max_size=3)))
    noise = draw(st.text(max_size=3))
    at = draw(st.integers(min_value=0, max_value=len(text)))
    return text[:at] + noise + text[at:]


@settings(max_examples=300)
@given(st.one_of(st.text(), near_miss_texts()))
def test_parsers_raise_only_graph_format_errors(text):
    for parser in (parse, from_compact, lambda t: parse_cover(t, 6)):
        try:
            parser(text)
        except GraphFormatError:
            pass


def test_serialize_format():
    text = serialize(from_red_mask(4, 0b0101))
    assert text == "4\n0 2 1\n0 3 2\n1 2 1\n1 3 2\n"


def test_parse_accepts_comments_and_blank_lines():
    g = parse("# a comment\n\n4\n0 2 1\n# another\n0 3 2\n1 2 1\n1 3 2\n")
    assert g.red_mask() == 0b0101


def test_parse_diagnostics():
    head = "4\n0 2 1\n0 3 2\n1 2 1\n"
    with pytest.raises(GraphFormatError, match=r"partner pair \(0, 1\)"):
        parse(head + "1 3 2\n0 1 1\n")
    with pytest.raises(GraphFormatError, match=r"both colors"):
        parse(head + "1 3 2\n0 2 2\n")
    with pytest.raises(GraphFormatError, match=r"duplicate pair \(0, 2\)"):
        parse(head + "1 3 2\n0 2 1\n")
    with pytest.raises(GraphFormatError, match=r"\(1, 3\) missing"):
        parse(head)
    with pytest.raises(GraphFormatError, match="out of range"):
        parse("4\n0 9 1\n")
    with pytest.raises(GraphFormatError, match="u < v"):
        parse("4\n2 0 1\n")
    with pytest.raises(GraphFormatError, match="color must be 1 or 2"):
        parse(head + "1 3 3\n")
    with pytest.raises(GraphFormatError, match="empty"):
        parse("# nothing\n")
    with pytest.raises(GraphFormatError, match="line 5"):
        parse(head + "0 1 1\n")


def test_parse_line_numbers_in_diagnostics():
    err = None
    try:
        parse("4\n0 2 1\nbogus line here\n")
    except GraphFormatError as e:
        err = e
    assert err is not None and err.line == 3


def test_vertex_mask_roundtrip():
    assert vertex_mask([0, 3, 5]) == 0b101001
    assert vertex_list(0b101001) == [0, 3, 5]
    assert vertex_list(0) == []


@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_vertex_mask_list_inverse(mask):
    assert vertex_mask(vertex_list(mask)) == mask


def test_sharp_example_edge_colors():
    # cross non-partner pairs are blue in the sharpness coloring
    from partycover.extremal import build_sharp_example
    g = build_sharp_example(8)
    assert g.color_of(0, 3) == BLUE
    assert g.color_of(0, 2) == RED
    assert g.color_of(1, 3) == RED
    assert g.color_of(0, 1) is None


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=8).flatmap(lambda half: st.tuples(
    st.just(2 * half), st.integers(0, (1 << num_edges(2 * half)) - 1))))
def test_from_red_mask_blue_is_every_other_edge(n_mask):
    n, mask = n_mask
    g = from_red_mask(n, mask)
    ColoredCocktail(n, g.red, g.blue)  # validates the partition invariants
    for k, (u, v) in enumerate(edge_list(n)):
        red = bool(mask >> k & 1)
        assert (g.red[u] >> v & 1, g.blue[u] >> v & 1) == (red, not red)


def _per_edge_tables(n, mask):
    """Reference red and blue rows, set one edge at a time in edge order."""
    red, blue = [0] * n, [0] * n
    for u, v in edge_list(n):
        rows = red if mask & 1 else blue
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        mask >>= 1
    return red, blue


# n = 18-66 take the transpose through widths 32, 64 and 128
@pytest.mark.parametrize("n", range(2, 68, 2))
def test_from_red_mask_equals_per_edge_reference(n):
    rng = random.Random(n)
    m = num_edges(n)
    top = 1 << (m - 1) if m else 0
    for mask in [0, (1 << m) - 1, top] + [rng.getrandbits(m) for _ in range(50)]:
        g = from_red_mask(n, mask)
        assert (list(g.red), list(g.blue)) == _per_edge_tables(n, mask), mask


@settings(max_examples=60)
@given(colorings(min_n=2, max_n=64))
def test_red_mask_roundtrip(g):
    assert from_red_mask(g.n, g.red_mask()) == g
