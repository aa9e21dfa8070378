"""Incremental map construction and repair for text-game walkthroughs."""

from .conflict_detector import (
    Conflict, Detection, detect, detect_all, unreachable_nodes,
)
from .error_localizer import (
    CandidateEdge, PathPair, PathTree, candidate_edges, minimal_path_pair,
    score_candidates, shortest_path_tree,
)
from .graph_core import (
    DIRECTIONS, Edge, NavGraph, displacement, is_direction, normalize_name,
    reverse_direction,
)
from .position_inference import PositionMap, extend_positions, \
    infer_positions, position_overlaps
from .repair_engine import (
    AdvisorContext, RepairAction, RepairSession, ToolConfig, apply_action,
    localize, run_repair, run_session,
)
from .transcript_parser import construct_graph, parse_transcript
from .version_store import Commit, EdgeDelta, VersionChain, add, remove

__version__ = "0.1.0"

__all__ = [
    "CandidateEdge", "Commit", "Conflict", "DIRECTIONS", "Detection", "Edge",
    "EdgeDelta", "AdvisorContext", "NavGraph", "PathPair", "PathTree",
    "PositionMap", "RepairAction", "RepairSession", "ToolConfig",
    "VersionChain", "add", "apply_action", "candidate_edges",
    "construct_graph", "detect", "detect_all", "displacement",
    "extend_positions", "infer_positions", "is_direction", "localize",
    "minimal_path_pair", "normalize_name", "parse_transcript",
    "position_overlaps", "remove", "reverse_direction", "run_repair",
    "run_session", "score_candidates", "shortest_path_tree",
    "unreachable_nodes",
]
