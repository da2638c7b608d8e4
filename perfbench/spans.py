"""Tracing from outside the program: timing wrappers and in-memory spans.

The tracer rebinds public functions of the trifree modules to wrappers
that record one span per call: name, start, end, parent span and an
optional tag taken from the arguments or the result.  The package's
internal calls look these names up at call time (module globals, class
attributes), so the wrappers also see calls made from inside the
program.  Private ``_`` helpers are not traced.

Spans stay in memory; ``write`` dumps them when the run ends.  A layer's
self time is its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager

INF = float("inf")


def _tag_search(args, result):
    return (args[0], args[1], result.nodes)


def _tag_nodes(args, result):
    return result.nodes


def _tag_len(args, result):
    return len(result)


def _tag_finite(args, result):
    return result != INF


def _tag_subcommand(args, result):
    argv = args[0] if args else None
    return argv[0] if argv else None


# (span name, module, attribute path, tag function)
TARGETS = (
    ("bounds.from_file", "trifree.bounds", "BoundsTable.from_file", None),
    ("bounds.lookup", "trifree.bounds", "BoundsTable.lookup", None),
    ("bounds.general_value", "trifree.bounds", "general_value", None),
    ("bounds.emit", "trifree.bounds", "BoundsTable.emit", None),
    ("graph.alpha", "trifree.graph", "independence_number", None),
    ("graph.triangle", "trifree.graph", "is_triangle_free", None),
    ("graph.classify", "trifree.graph", "classify", None),
    ("graph.g6_decode", "trifree.graph", "parse_graph6", None),
    ("graph.g6_encode", "trifree.graph", "write_graph6", None),
    ("graph.k24", "trifree.graph", "find_induced_k24", None),
    ("canon", "trifree.oracle", "canonical_key", None),
    ("oracle.search", "trifree.oracle", "min_edges_exhaustive", _tag_search),
    ("oracle.xv", "trifree.oracle", "cross_validate", _tag_nodes),
    ("feasible.enumerate", "trifree.feasibility", "enumerate_feasible", _tag_len),
    ("feasible.raise", "trifree.feasibility", "raise_lower_bound", _tag_finite),
    ("cli.main", "trifree.cli", "main", _tag_subcommand),
)

START, END, PARENT, NAME, TAG = 0, 1, 2, 3, 4


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.recording = True
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [clock(), 0.0, stack[-1] if stack else -1, name, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if tag is not None:
                span[TAG] = tag(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.absent = []
        loaded = [m for k, m in sys.modules.items() if k == "trifree" or k.startswith("trifree.")]
        for name, module_name, path, tag in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue  # not imported by this workload, so never called
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.absent.append(f"{module_name}.{path}")
                continue
            raw = vars(owner)[attr]
            if owner_name:
                # a method: patch the class; classmethods keep their binding
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(name, raw.__func__, tag)))
                else:
                    self._set(owner, attr, self._wrap(name, raw, tag))
                continue
            wrapper = self._wrap(name, raw, tag)
            # rebind every module-level alias, e.g. names imported into cli
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


@contextmanager
def paused(tracer: Tracer | None):
    """Stop recording spans, e.g. while the benchmark checks outputs."""
    if tracer is None:
        yield
        return
    tracer.recording = False
    try:
        yield
    finally:
        tracer.recording = True


def write(path, passes: list[list[list]]) -> None:
    """Dump the spans of every traced pass as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["start", "end", "parent", "name", "tag"], "passes": passes}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _has_ancestor(spans, i, test) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if test(spans[p]):
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans: list[list], deep_cells, verified_graphs: int) -> dict[str, float]:
    """Counts and busy times per layer, in milliseconds, for one pass."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    ms: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    for s, t in zip(spans, own):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        ms[name] = ms.get(name, 0.0) + (s[END] - s[START]) * 1e3
        self_ms[name] = self_ms.get(name, 0.0) + t * 1e3

    def top(name):
        # spans of an oracle entry point not nested in another oracle call
        return [
            i for i, s in enumerate(spans)
            if s[NAME] == name and not _has_ancestor(spans, i, lambda p: p[NAME].startswith("oracle."))
        ]

    oracle_top = top("oracle.xv") + top("oracle.search")
    oracle_ms = sum((spans[i][END] - spans[i][START]) * 1e3 for i in oracle_top)
    nodes = sum(spans[i][TAG] if spans[i][NAME] == "oracle.xv" else spans[i][TAG][2] for i in oracle_top)
    cell_ms = {}
    for i in top("oracle.search"):
        l, n, _ = spans[i][TAG]
        key = f"{l}_{n}"
        cell_ms[key] = cell_ms.get(key, 0.0) + (spans[i][END] - spans[i][START]) * 1e3

    in_raise = [
        i for i, s in enumerate(spans)
        if s[NAME] == "feasible.enumerate" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "feasible.raise"
    ]
    raise_set = set(in_raise)
    listing = [i for i, s in enumerate(spans) if s[NAME] == "feasible.enumerate" and i not in raise_set]
    raise_cells = calls.get("feasible.raise", 0)
    raise_found = sum(1 for s in spans if s[NAME] == "feasible.raise" and s[TAG])
    built = sum(spans[i][TAG] for i in in_raise)

    def span_ms(idx):
        return sum((spans[i][END] - spans[i][START]) * 1e3 for i in idx)

    def in_verify(i):
        return _has_ancestor(spans, i, lambda p: p[NAME] == "cli.main" and p[TAG] == "verify")

    alpha_in_verify = sum(1 for i, s in enumerate(spans) if s[NAME] == "graph.alpha" and in_verify(i))
    canon_ms = ms.get("canon", 0.0)

    out = {
        "bounds.lookup_calls": calls.get("bounds.lookup", 0),
        "bounds.lookup_ms": ms.get("bounds.lookup", 0.0),
        "bounds.general_value_calls": calls.get("bounds.general_value", 0),
        "bounds.emit_ms": ms.get("bounds.emit", 0.0),
        "graph.alpha_calls": calls.get("graph.alpha", 0),
        "graph.alpha_ms": ms.get("graph.alpha", 0.0),
        "graph.alpha_calls_per_graph": alpha_in_verify / verified_graphs if verified_graphs else 0.0,
        "graph.triangle_ms": ms.get("graph.triangle", 0.0),
        "graph.g6_decode_ms": ms.get("graph.g6_decode", 0.0),
        "graph.g6_encode_ms": ms.get("graph.g6_encode", 0.0),
        "graph.k24_ms": ms.get("graph.k24", 0.0),
        "canon.calls": calls.get("canon", 0),
        "canon.ms": canon_ms,
        "canon.share": canon_ms / oracle_ms if oracle_ms else 0.0,
        "oracle.nodes": nodes,
        "oracle.xv_ms": ms.get("oracle.xv", 0.0),
        "oracle.self_ms": self_ms.get("oracle.search", 0.0),
        "feasible.raise.calls": len(in_raise),
        "feasible.raise.ms": span_ms(in_raise),
        "feasible.raise.survivors": built,
        "feasible.list.calls": len(listing),
        "feasible.list.ms": span_ms(listing),
        "feasible.list.survivors": sum(spans[i][TAG] for i in listing),
        "raise.cells": raise_cells,
        "raise.steps_per_cell": len(in_raise) / raise_cells if raise_cells else 0.0,
        "raise.survivors_built": built,
        "raise.useful_ratio": raise_found / built if built else 0.0,
    }
    for l, n in deep_cells:
        out[f"oracle.cell_ms.{l}_{n}"] = cell_ms.get(f"{l}_{n}", 0.0)
    mains: dict[str, list[float]] = {}
    for s in spans:
        if s[NAME] == "cli.main":
            mains.setdefault(s[TAG], []).append((s[END] - s[START]) * 1e3)
    for sub in ("bounds", "table", "construct", "feasible", "raise", "verify"):
        out[f"cli.main_ms.{sub}"] = statistics.median(mains[sub]) if sub in mains else 0.0
    return out
