"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {oracle,counting,cli} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run it from the repository root; the package is imported from ``src``
(and run as ``python -m trifree.cli`` with PYTHONPATH=src for subprocess
calls).  With ``--trace 0`` it prints the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics from a traced
run.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--smoke`` shrinks
every workload to a few seconds for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 2
PROBE_REPEATS = 5
clock = time.perf_counter


@dataclass
class Context:
    root: Path
    src: Path
    work: Path
    env: dict


def fresh_import(with_cli: bool):
    """Import trifree from scratch, so every set-up pays the import cost."""
    for name in [k for k in sys.modules if k == "trifree" or k.startswith("trifree.")]:
        del sys.modules[name]
    tf = importlib.import_module("trifree")
    if with_cli:
        importlib.import_module("trifree.cli")
    return tf


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_refs() -> dict:
    with open(HERE / "refs.json", encoding="utf-8") as fh:
        return json.load(fh)


def setup(name: str, seed: int, smoke: bool, refs: dict, ctx: Context):
    """Set up SETUP_REPEATS times (import, table load, inputs, warm-up); keep the last."""
    cls = workloads.WORKLOADS[name]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        tf = fresh_import(cls.needs_cli)
        tf.bounds.default_table()
        w = cls(tf, seed, smoke, refs, ctx)
        times.append(clock() - t0)
    w.expect()
    return w, statistics.median(times)


def end_to_end(name: str, w, times: dict, setup_s: float) -> dict:
    # one latency per operation, its median over the run: the oracle's four
    # deep cells differ twofold in cost, and a percentile taken over raw
    # samples would fall into the gap between two of them
    ops_ms = [statistics.median(times[op.key]) * 1e3 for op in w.ops if op.phase == w.latency_phase]
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    a, b = workloads.phase_seconds(w.ops, times)
    return {
        "setup_s": setup_s,
        "solve_s": a + b,
        "phase_a_s": a,
        "phase_b_s": b,
        "op_ms_p50": statistics.median(ops_ms),
        "op_ms_p90": statistics.quantiles(ops_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def subprocess_ms(ctx: Context, code: str) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        subprocess.run([sys.executable, "-c", code], env=ctx.env, cwd=ctx.root, check=True, timeout=60)
        times.append((clock() - t0) * 1e3)
    return statistics.median(times)


def probes(w, ctx: Context, traced) -> dict:
    """Per-layer numbers measured directly rather than from spans."""
    tf = w.tf
    data = ctx.src / "trifree" / "data" / "bounds_table.json"
    loads = []
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        tf.bounds.BoundsTable.from_file(data)
        loads.append((clock() - t0) * 1e3)
    interp = subprocess_ms(ctx, "pass")
    out = {
        "bounds.load_ms": statistics.median(loads),
        "cli.interp_ms": interp,
        "cli.import_ms": subprocess_ms(ctx, "import trifree.cli") - interp,
        "cli.verify_ms_per_graph": 0.0,
        "feasible.raise.peak_mb": 0.0,
        "feasible.list.peak_mb": 0.0,
    }
    if isinstance(w, workloads.Cli):
        out["cli.verify_ms_per_graph"] = statistics.median(traced[workloads.CORPUS_KEY]) * 1e3 / len(w.corpus_items)
    if isinstance(w, workloads.Counting):
        out.update(w.peak_probes())
    return out


def traced_run(name: str, w, seed: int, seconds: float, checks, ctx: Context) -> dict:
    """Full passes until the time is up; each operation runs untraced and traced.

    Running the two back to back keeps machine drift out of the tracing
    overhead.  The second run of an operation finds a warmer allocator, so
    which one goes first alternates.  Per-layer values are medians over
    the traced passes.
    """
    ops = w.trace_ops
    base = {op.key: array("d") for op in ops}
    traced = {op.key: array("d") for op in ops}
    tracer = spans.Tracer()
    recorded = []
    start = clock()
    while not recorded or clock() - start < seconds:
        for i, op in enumerate(ops):
            for with_trace in (False, True) if (i + len(recorded)) % 2 == 0 else (True, False):
                if not with_trace:
                    base[op.key].append(workloads.timed(op, checks))
                    continue
                tracer.install()
                try:
                    traced[op.key].append(workloads.timed(op, checks, tracer))
                finally:
                    tracer.uninstall()
        recorded.append(tracer.take())
    for what in tracer.absent:
        print(f"trace: {what} is absent; its layer reads 0", file=sys.stderr)
    graphs = w.graphs_verified() if isinstance(w, workloads.Cli) else 0
    per_pass = [spans.layer_metrics(r, gen.DEEP_CELLS, graphs) for r in recorded]
    layer = {k: statistics.median(r[k] for r in per_pass) for k in per_pass[0]}
    layer.update(probes(w, ctx, traced))
    untraced_s = sum(workloads.phase_seconds(ops, base))
    traced_s = sum(workloads.phase_seconds(ops, traced))
    layer.update({
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": statistics.median(len(r) for r in recorded),
        "trace.absent": len(tracer.absent),
    })
    ctx.work.mkdir(parents=True, exist_ok=True)
    spans.write(ctx.work / f"trace-{name}-seed{seed}.json", recorded)
    return layer


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, refs: dict | None = None) -> dict:
    """Set up, measure and check one workload; return the result object and report lines."""
    spec = load_spec()
    refs = load_refs() if refs is None else refs
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ctx = Context(root=ROOT, src=SRC, work=ROOT / ".perfbench", env=env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    w, setup_s = setup(name, seed, smoke, refs, ctx)
    checks = workloads.Checks()
    lines = []
    if trace:
        values = traced_run(name, w, seed, seconds, checks, ctx)
        wanted = spec["per_layer"]
    else:
        times = workloads.measure(w.ops, checks, seconds, MIN_PASSES)
        values = end_to_end(name, w, times, setup_s)
        wanted = spec["end_to_end"]
        runs = sum(len(t) for t in times.values())
        lines.append(f"# {name} seed={seed}: {runs} operations, {runs / len(w.ops):.2f} passes")
        for alias, value, unit, note in w.aliases(values, times):
            lines.append(f"{alias:24s} {value:.6g} {unit}  {note}")
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in wanted})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for key, m in metrics.items():
        lines.append(f"{key:24s} {m['value']:.6g} {m['unit']}")
    lines.append(f"failed_ratio             {checks.failed}/{checks.attempted} failed or wrong ops")
    lines += [f"FAILED: {note}" for note in checks.notes]
    result = {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed, "metrics": metrics}
    return {"result": result, "lines": lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "trifree" / "__init__.py").is_file():
        print(f"error: no trifree package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
