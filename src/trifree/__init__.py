"""Minimum edge counts of triangle-free graphs with bounded independence.

The package tabulates and rechecks lower and upper bounds for the least
number of edges a triangle-free graph on n vertices can have when its
independence number stays below l, together with the witness
constructions, degree-distribution feasibility tests and small-order
exhaustive searches that support those bounds.
"""

from .bounds import (
    INF,
    BoundsTable,
    CellRecord,
    DataConflictError,
    EBound,
    cells_from_json,
    conjectured_lower,
    default_table,
    formula_floor,
    lower_bound_basic,
    lower_bound_global,
    lower_bound_steep,
    lower_bound_steeper,
)
from .constructions import PatternSummary, circulant, pattern_predict, twisted_tesseract, w13
from .feasibility import (
    ALL_REFINEMENTS,
    DEFAULT_REFINEMENTS,
    DefectReport,
    DegreeDistribution,
    UnknownRegionError,
    degree_cap,
    enumerate_feasible,
    iter_feasible,
    raise_lower_bound,
    total_defect,
)
from .graph import (
    Graph,
    Graph6Error,
    GraphClass,
    classify,
    decode_graph6,
    edge_slack,
    find_induced_k24,
    independence_number,
    is_triangle_free,
    parse_graph6,
    reduced_graph,
    second_degree,
    write_graph6,
)
from .oracle import (
    DEFAULT_BUDGET,
    CrossReport,
    InconclusiveError,
    OracleMismatchError,
    OracleResult,
    cross_validate,
    min_edges_exhaustive,
    naive_min_edges,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_REFINEMENTS",
    "BoundsTable",
    "CellRecord",
    "CrossReport",
    "DEFAULT_BUDGET",
    "DEFAULT_REFINEMENTS",
    "DataConflictError",
    "DefectReport",
    "DegreeDistribution",
    "EBound",
    "Graph",
    "Graph6Error",
    "GraphClass",
    "INF",
    "InconclusiveError",
    "OracleMismatchError",
    "OracleResult",
    "PatternSummary",
    "UnknownRegionError",
    "cells_from_json",
    "circulant",
    "classify",
    "conjectured_lower",
    "cross_validate",
    "decode_graph6",
    "default_table",
    "degree_cap",
    "edge_slack",
    "enumerate_feasible",
    "find_induced_k24",
    "formula_floor",
    "independence_number",
    "is_triangle_free",
    "iter_feasible",
    "lower_bound_basic",
    "lower_bound_global",
    "lower_bound_steep",
    "lower_bound_steeper",
    "min_edges_exhaustive",
    "naive_min_edges",
    "parse_graph6",
    "pattern_predict",
    "raise_lower_bound",
    "reduced_graph",
    "second_degree",
    "total_defect",
    "twisted_tesseract",
    "w13",
    "write_graph6",
]
