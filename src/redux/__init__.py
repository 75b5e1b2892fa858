"""Reduced decompositions, commutation classes, and tilings of Elnitsky's
polygon, with brute-force verification utilities at small sizes."""

from .permcore import (
    Perm,
    check_perm,
    code_and_shape,
    diagram,
    format_perm,
    identity,
    inversions,
    length,
    longest_element,
    parse_perm,
    right_mult_adjacent,
    syt_count,
)
from .patterns import (
    ObstructionReport,
    analyze_321,
    is_freely_braided,
    is_vexillary,
    occurrences,
)
from .redwords import (
    BudgetError,
    Word,
    enumerate_R,
    evaluate,
    find_shift_factor,
    format_word,
    shift,
)
from .commutation import (
    CommutationClass,
    FlipGraph,
    classes,
    cycle_space_generated_by_4_8_cycles,
    graph,
    graphs_isomorphic,
    is_path,
    is_tree,
    rotate_prefix,
    rotate_suffix,
    trace_key,
)
from .vexalg import VexError, embed_reduced_word, nonvex_witness
from .tilings import (
    Tiling,
    TilingPoset,
    decreasing_tile_check,
    enumerate_rhombic,
    enumerate_zonotopal,
    flip_graph_from_tilings,
    freely_braided_structure,
    has_unique_max,
    level2_cycle_correspondence,
    mono,
    poset,
    uniform_2k_tiling_exists,
)
from .verify import VerifyResult, run as verify_theorem

__all__ = [name for name in dir() if not name.startswith("_")]
