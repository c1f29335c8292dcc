"""Hamilton decompositions of dense nearly-bipartite graphs.

Constructive, property-checked implementations of the balancing machinery
(frameworks, balanced exceptional systems, fictive edges) and of the robust
decomposition contract, with explicit desk-scale parameters, brute-force
referees, and two end-to-end pipelines.
"""

from .balance import Framework, is_D_balanced, validate_framework
from .graphs import (
    Graph,
    LabelledPartition,
    OrientedGraph,
    PathSystem,
)
from .pipeline import PipelineConstants, run_theorem_1factbip, run_theorem_NWbip
from .report import DecompositionReport, emit_report

__all__ = [
    "DecompositionReport",
    "Framework",
    "Graph",
    "LabelledPartition",
    "OrientedGraph",
    "PathSystem",
    "PipelineConstants",
    "emit_report",
    "is_D_balanced",
    "run_theorem_1factbip",
    "run_theorem_NWbip",
    "validate_framework",
]

__version__ = "0.1.0"
