"""Covers of 2-edge-colored cocktail party graphs by monochromatic
2-reachable sets: a certified constructive solver, an independent
verifier, extremal subset computations with a brute-force oracle, and a
scanning laboratory for the stronger diameter-2 cover question.
"""

from .cover import (
    BRANCH_KEYS,
    apply_lemma,
    Cover,
    CriticalComplement,
    InternalInconsistencyError,
    LemmaC5Plus,
    LemmaStars,
    LemmaWitness,
    TwoStars,
    WholeVertexSet,
    branch_key,
    check_cover,
    format_cover,
    parse_cover,
    solve,
    verify_cover,
)
from .extremal import (
    brute_max_2reachable,
    build_sharp_example,
    max_2reachable,
    reach_adjacency,
)
from .graphs import (
    BLUE,
    RED,
    ColoredCocktail,
    GraphFormatError,
    all_blue,
    all_red,
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
    serialize,
    to_compact,
    vertex_list,
    vertex_mask,
)
from .lab import (
    ScanReport,
    canonical_red_mask,
    exists_diam2_cover,
    is_canonical,
    scan,
    symmetry_classes,
    symmetry_group_order,
    symmetry_reduce,
)
from .reach import (
    CriticalPair,
    critical_pairs,
    dist_le2,
    is_2reachable_set,
    is_diam2_subset,
    mono_diam_le2,
    star,
)

__version__ = "0.1.0"
