"""Minimum edge counts of triangle-free graphs with bounded independence.

The package tabulates and rechecks lower and upper bounds for the least
number of edges a triangle-free graph on n vertices can have when its
independence number stays below l, together with the witness
constructions, degree-distribution feasibility tests and small-order
exhaustive searches that support those bounds.

Submodules load on first use (PEP 562): ``import trifree`` imports none
of them, and ``trifree.default_table`` imports only ``trifree.bounds``.
"""

import importlib

__version__ = "0.1.0"

# each public name, under the submodule that defines it
_EXPORTS = {
    "bounds": (
        "INF", "BoundsTable", "CellRecord", "DataConflictError", "EBound", "cells_from_json",
        "conjectured_lower", "default_table", "formula_floor", "lower_bound_basic",
        "lower_bound_global", "lower_bound_steep", "lower_bound_steeper",
    ),
    "constructions": ("PatternSummary", "circulant", "pattern_predict", "twisted_tesseract", "w13"),
    "feasibility": (
        "ALL_REFINEMENTS", "DEFAULT_REFINEMENTS", "DefectReport", "DegreeDistribution",
        "UnknownRegionError", "degree_cap", "enumerate_feasible", "iter_feasible",
        "raise_lower_bound", "total_defect",
    ),
    "graph": (
        "Graph", "Graph6Error", "GraphClass", "classify", "decode_graph6", "edge_slack",
        "find_induced_k24", "independence_number", "is_triangle_free", "parse_graph6",
        "reduced_graph", "second_degree", "write_graph6",
    ),
    "oracle": (
        "DEFAULT_BUDGET", "CrossReport", "InconclusiveError", "OracleMismatchError",
        "OracleResult", "cross_validate", "min_edges_exhaustive", "naive_min_edges",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
