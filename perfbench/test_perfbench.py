"""Self-checks of the benchmark, on tiny inputs.

    python3 -m pytest perfbench

Each workload runs in smoke mode (a few seconds), traced and untraced;
a wrong reference value must show up in ``failed``; the entry point must
refuse to run without the package.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys

import pytest

import gen
import run

WORKLOADS = ("oracle", "counting", "cli")
SPEC = run.load_spec()


def smoke(workload, trace=False, refs=None):
    return run.run(workload, seed=7, seconds=0.05, trace=trace, smoke=True, refs=refs)["result"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload):
    res = smoke(workload)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_reports_every_layer(workload):
    res = smoke(workload, trace=True)
    assert res["correct"]
    values = {k: m["value"] for k, m in res["metrics"].items()}
    assert list(values) == [m["name"] for m in SPEC["per_layer"]]
    assert values["trace.absent"] == 0 and values["trace.spans"] > 0
    if workload == "oracle":
        assert values["canon.share"] > 0.5 and values["oracle.nodes"] > 0
        assert values["feasible.raise.calls"] == values["feasible.list.calls"] == 0
    if workload == "counting":
        assert values["canon.calls"] == 0 and values["raise.cells"] == 5
        assert values["feasible.list.survivors"] == 1304
    if workload == "cli":
        # classify and edge_slack each run alpha; graphs with a triangle skip edge_slack
        assert 1.5 < values["graph.alpha_calls_per_graph"] <= 2.0
        assert values["cli.main_ms.verify"] > 0


@pytest.mark.parametrize(
    "workload, section, key",
    [
        ("counting", "raise", "5,13"),
        ("counting", "list", "11,41,139"),
        ("oracle", "oracle", "4,8"),
        ("cli", "raise", "8,15"),
    ],
)
def test_wrong_reference_is_counted_as_failed(workload, section, key):
    refs = copy.deepcopy(run.load_refs())
    if section == "list":
        refs[section][key]["count"] += 1
    else:
        refs[section][key] += 1
    if workload == "cli":
        # make every cli raise/feasible call use the tampered cell
        monkey = pytest.MonkeyPatch()
        monkey.setattr(gen, "CLI_CELLS", ((8, 15),))
        try:
            res = smoke(workload, refs=refs)
        finally:
            monkey.undo()
    else:
        res = smoke(workload, refs=refs)
    assert res["failed"] >= 1 and not res["correct"]


def test_generators_are_seeded_and_sound():
    tf = run.fresh_import(False)
    for n in (5, 23, 70):
        edges = gen.maximal_triangle_free(random.Random(n), n)
        assert edges == gen.maximal_triangle_free(random.Random(n), n)
        g = tf.graph.Graph(n, edges)
        assert tf.graph.is_triangle_free(g)
        # maximal: every missing pair closes a triangle
        assert all(g.adj[a] & g.adj[b] for a in range(n) for b in range(a + 1, n) if not g.has_edge(a, b))
        # the benchmark's own graph6 encoder agrees with the program's
        assert gen.graph6(n, edges) == tf.graph.write_graph6(g)
    for k in gen.ANDRASFAI_K:
        n, offs = gen.andrasfai(k)
        g = tf.graph.Graph(n, gen.circulant_edges(n, offs))
        assert tf.graph.classify(g).alpha == k and tf.graph.is_triangle_free(g)


def test_entry_point_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "counting", "--seed", "1", "--seconds", "0", "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in res["metrics"].values())


def test_refuses_to_run_without_the_package():
    bare = run.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_missing_traced_name_is_reported_absent():
    tf = run.fresh_import(False)
    original = tf.oracle.canonical_key
    del tf.oracle.canonical_key
    tracer = run.spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == ["trifree.oracle.canonical_key"]
        assert hasattr(tf.graph.independence_number, "__wrapped__")  # other layers still traced
    finally:
        tracer.uninstall()
        tf.oracle.canonical_key = original
    assert not hasattr(tf.graph.independence_number, "__wrapped__")
