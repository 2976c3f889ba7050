"""Burling graphs: recognition, frame representations, and exact
maximum-weight independent sets."""

from .core import (
    BurlingSet,
    ElementClassification,
    VerificationReport,
    Violation,
    classify_elements,
    induced_graph,
    inner_join,
    outer_join,
    restrict,
    verify_axioms,
)
from .errors import ContractError, InputError
from .frames import (
    Frame,
    FrameFamily,
    build_frames,
    extract_burling,
    frames_intersect,
    horizontal_constraints,
    horizontal_order,
    intersection_graph,
    verify_strict,
    vertical_order,
)
from .generator import GeneratorConfig, SplitMix64, gen_burling
from .graph import Graph, components, is_triangle_free, neighborhood, nesting_order
from .io import (
    dump_burling_json,
    dump_frames_json,
    frame_records,
    load_burling_json,
    load_frames_json,
    parse_graph_text,
    parse_weights,
)
from .mis import (
    chordal_relation,
    max_weight_independent_set,
    mwis_chordal,
    solve_indep,
)
from .oracles import brute_force_mwis, exhaustive_recognize
from .recognition import RecognitionStats, recognize, recognize_with_stats
from .svg import render_svg

__all__ = [
    "BurlingSet",
    "ContractError",
    "ElementClassification",
    "Frame",
    "FrameFamily",
    "GeneratorConfig",
    "Graph",
    "InputError",
    "RecognitionStats",
    "SplitMix64",
    "VerificationReport",
    "Violation",
    "brute_force_mwis",
    "build_frames",
    "chordal_relation",
    "classify_elements",
    "components",
    "dump_burling_json",
    "dump_frames_json",
    "exhaustive_recognize",
    "extract_burling",
    "frame_records",
    "frames_intersect",
    "gen_burling",
    "horizontal_constraints",
    "horizontal_order",
    "induced_graph",
    "inner_join",
    "intersection_graph",
    "is_triangle_free",
    "load_burling_json",
    "load_frames_json",
    "max_weight_independent_set",
    "mwis_chordal",
    "neighborhood",
    "nesting_order",
    "outer_join",
    "parse_graph_text",
    "parse_weights",
    "recognize",
    "recognize_with_stats",
    "render_svg",
    "restrict",
    "solve_indep",
    "verify_axioms",
    "verify_strict",
    "vertical_order",
]
