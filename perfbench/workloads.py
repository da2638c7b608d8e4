"""The three benchmark workloads: oracle, counting and cli.

A workload is a list of operations in seeded order.  Each operation is
one call into the program, belongs to phase ``a`` or ``b``, and has a
check that runs after it, untimed and with tracing paused.  Every check
counts towards ``attempted`` and, when it fails, ``failed``.  All calls
into the program go through module attributes, so the tracer's wrappers
see them.

A pass runs every operation once; a run repeats operations in order
until its time is up (``measure``).  The phases are interleaved within a
pass, so each phase samples the whole run rather than one stretch of it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from array import array
from dataclasses import dataclass, field
from typing import Callable

import gen
from spans import paused

clock = time.perf_counter
INF = float("inf")


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


@dataclass
class Op:
    key: str
    phase: str  # "a" or "b"
    run: Callable[[], object]
    check: Callable[[Checks, object], None]


def timed(op: Op, checks: Checks, tracer=None) -> float:
    """Seconds one operation takes; its output is checked afterwards, untimed.

    An exception is a failed operation, not a crash of the benchmark.
    """
    a = clock()
    try:
        result = op.run()
    except Exception:
        seconds = clock() - a
        checks.check(False, f"{op.key}: {traceback.format_exc(limit=2).strip().splitlines()[-1]}")
        return seconds
    seconds = clock() - a
    with paused(tracer):
        op.check(checks, result)
    return seconds


def measure(ops: list, checks: Checks, seconds: float, min_passes: int) -> dict:
    """Run the operations in order, cyclically, until the time is up.

    Returns every operation's timings.  At least ``min_passes`` full
    passes run; the last pass may be partial.  Timings go into arrays of
    doubles: a float object kept from every call would be scattered over
    the allocator's arenas, pin them, and make peak RSS depend on the
    seeded operation order.
    """
    times = {op.key: array("d") for op in ops}
    start = clock()
    i = 0
    while i < min_passes * len(ops) or clock() - start < seconds:
        op = ops[i % len(ops)]
        times[op.key].append(timed(op, checks))
        i += 1
    return times


def phase_seconds(ops: list, times: dict) -> tuple[float, float]:
    """Each phase as the sum over its operations of their median time.

    A burst of contention that slows one sample of an operation drops out
    of its median.
    """
    total = {"a": 0.0, "b": 0.0}
    for op in ops:
        total[op.phase] += statistics.median(times[op.key])
    return total["a"], total["b"]


def finite_cells(table) -> list:
    """Table cells with a finite upper bound: the cells a raise sweep covers."""
    return [(l, n) for l, n, c in table.cells() if c.upper not in (None, INF)]


def listing_digest(reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(f"{rep.distribution}|{rep.defect}|{rep.caps}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# oracle: exhaustive search from a cold cache


class Oracle:
    """cross_validate(5, 10) (phase a) and the deep cells (phase b), each from a cold cache."""

    needs_cli = False
    latency_phase = "b"  # one operation per deep cell

    def __init__(self, tf, seed: int, smoke: bool, refs: dict, ctx) -> None:
        self.tf = tf
        self.refs = refs
        rng = random.Random(seed)
        self.xv = (3, 7) if smoke else (5, 10)
        self.cells = [(4, 7), (4, 8)] if smoke else list(gen.DEEP_CELLS)
        ops = [Op(f"cross_validate{self.xv}", "a", self.run_xv, self.check_xv)]
        for l, n in self.cells:
            # the witness is only known after the search, so draw its relabelling seed now
            perm_seed = rng.getrandbits(32)
            ops.append(Op(
                f"min_edges_exhaustive({l},{n})", "b",
                lambda l=l, n=n: self.run_cell(l, n),
                lambda checks, res, l=l, n=n, s=perm_seed: self.check_cell(checks, l, n, s, res),
            ))
        self.ops = self.trace_ops = gen.shuffled(rng, ops)

    def expect(self) -> None:
        pass

    def run_xv(self):
        oracle = self.tf.oracle
        # every operation starts cold: each fresh process pays for the cache
        oracle.clear_cache()
        return oracle.cross_validate(*self.xv)

    def run_cell(self, l: int, n: int):
        oracle = self.tf.oracle
        oracle.clear_cache()
        return oracle.min_edges_exhaustive(l, n)

    def check_xv(self, checks: Checks, report) -> None:
        for entry in report.entries:
            checks.check(entry.ok, f"cross_validate cell ({entry.l},{entry.n})")

    def check_cell(self, checks: Checks, l: int, n: int, perm_seed: int, res) -> None:
        tf = self.tf
        cell = tf.bounds.default_table().lookup(l, n)
        expected = self.refs["oracle"][f"{l},{n}"]
        checks.check(
            cell.status == "exact" and res.value == cell.lower == expected,
            f"oracle ({l},{n}) gave {res.value}, table {cell.display()}, reference {expected}",
        )
        w = res.witness
        checks.check(w is not None and tf.graph.classify(w).matches(l, n, res.value), f"witness ({l},{n})")
        if w is None:
            return
        moved = tf.graph.Graph(n, gen.relabel(random.Random(perm_seed), n, w.edges()))
        checks.check(
            tf.graph.classify(moved).matches(l, n, res.value)
            and tf.oracle.canonical_key(moved.adj, n) == tf.oracle.canonical_key(w.adj, n),
            f"relabelled witness ({l},{n})",
        )

    def aliases(self, m: dict, times: dict) -> list:
        return [
            ("xv_s", m["phase_a_s"], "s", f"cross_validate{self.xv}, cold cache"),
            ("deep_s", m["phase_b_s"], "s", f"deep cells {self.cells}"),
            ("cell_ms_p50", m["op_ms_p50"], "ms", f"over {len(self.cells)} deep cells, each the median of {min(len(times[op.key]) for op in self.ops)}+ runs"),
        ]


# ---------------------------------------------------------------------------
# counting: the raise sweep (decision) and listing


class Counting:
    """raise_lower_bound on every finite table cell plus off-table draws (phase a); listings (phase b)."""

    needs_cli = False
    latency_phase = "a"  # one operation per raise cell

    def __init__(self, tf, seed: int, smoke: bool, refs: dict, ctx) -> None:
        self.tf = tf
        self.refs = refs
        rng = random.Random(seed)
        if smoke:
            cells = [(5, 13), (8, 25), (9, 30), (4, 8), (6, 12)]
            self.lists = [(11, 41, 139)]
            self.probe_raise, self.probe_list = (8, 25), (11, 41, 139)
        else:
            cells = finite_cells(tf.bounds.default_table())
            cells += gen.draw(rng, gen.OFF_TABLE_BAND, gen.RAISE_EXTRA)
            self.lists = gen.draw(rng, gen.LIST_BAND, gen.LIST_DRAWS)
            self.probe_raise, self.probe_list = (10, 31), (12, 36, 75)
        self.cells = cells
        feas = tf.feasibility
        ops = [
            Op(f"raise_lower_bound({l},{n})", "a",
               lambda l=l, n=n: feas.raise_lower_bound(l, n),
               lambda checks, v, l=l, n=n: self.check_raise(checks, l, n, v))
            for l, n in sorted(cells)
        ]
        # A fixed order, not a seeded one: peak RSS depends on the order
        # through allocator fragmentation (77-112 MB over six shuffled
        # orders, 84-86 MB over four seeds in this one).  The listings sit
        # at fixed points in the sweep, so both phases sample the whole run.
        for k, cell in enumerate(self.lists, start=1):
            # the check keeps only a digest, so one listing is alive at a time
            ops.insert(k * len(ops) // (len(self.lists) + 1), Op(
                f"enumerate_feasible{cell}", "b",
                lambda cell=cell: feas.enumerate_feasible(*cell),
                lambda checks, reps, cell=cell: self.check_list(checks, cell, reps),
            ))
        self.ops = self.trace_ops = ops

    def expect(self) -> None:
        pass

    def check_raise(self, checks: Checks, l: int, n: int, v) -> None:
        bounds = self.tf.bounds
        if bounds.L_MIN <= l <= bounds.L_MAX and bounds.N_MIN <= n <= bounds.N_MAX:
            table = bounds.default_table()
            lo, hi = table.finite_lower(l, n), table.lookup(l, n).upper
        else:
            lo, hi = bounds.formula_floor(l - 1, n), INF
        # soundness: a raised bound never passes a known upper bound
        checks.check(lo <= v <= hi, f"raise ({l},{n}) = {v} outside [{lo}, {hi}]")
        ref = self.refs["raise"][f"{l},{n}"]
        checks.check(v == (INF if ref == "inf" else ref), f"raise ({l},{n}) = {v}, reference {ref}")

    def check_list(self, checks: Checks, cell, reps) -> None:
        l, n, e = cell
        ref = self.refs["list"][f"{l},{n},{e}"]
        checks.check(len(reps) == ref["count"], f"listing {cell} has {len(reps)} survivors, reference {ref['count']}")
        checks.check(listing_digest(reps) == ref["digest"], f"listing {cell} digest differs from reference")

    def peak_probes(self) -> dict:
        """tracemalloc peak of one fixed call per phase.

        tracemalloc slows this code about sevenfold, so it wraps one
        mid-sized call of each kind rather than the whole phase.
        """
        feas = self.tf.feasibility
        out = {}
        for key, fn, args in (
            ("feasible.raise.peak_mb", feas.raise_lower_bound, self.probe_raise),
            ("feasible.list.peak_mb", feas.enumerate_feasible, self.probe_list),
        ):
            tracemalloc.start()
            try:
                fn(*args)
                out[key] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return out

    def aliases(self, m: dict, times: dict) -> list:
        runs = min(len(times[op.key]) for op in self.ops)
        return [
            ("raise_s", m["phase_a_s"], "s", f"{len(self.cells)} cells"),
            ("list_s", m["phase_b_s"], "s", f"listings {self.lists}"),
            ("raise_ms_p50", m["op_ms_p50"], "ms", f"over {len(self.cells)} raise calls, each the median of {runs}+ runs"),
            ("raise_ms_p90", m["op_ms_p90"], "ms", f"over {len(self.cells)} raise calls, each the median of {runs}+ runs"),
        ]


# ---------------------------------------------------------------------------
# cli: short subprocess calls plus one verify call over a graph6 corpus


@dataclass
class Command:
    kind: str
    argv: list
    stdin: bytes | None = None
    code: int | None = None  # expected exit code, filled in by expect()
    check: object = None  # stdout text -> bool, filled in by expect()


CORPUS_KEY = "verify corpus"


def _graph_item(label, n, edges, alpha=None):
    return {"label": label, "n": n, "edges": edges, "alpha": alpha}


class Cli:
    """One closed-loop client: each call starts after the previous one exits.

    Phase a is the short calls, phase b the verify call over the corpus.
    The traced run replays the same commands in-process through cli.main.
    """

    needs_cli = True
    latency_phase = "a"  # one operation per short call
    CLAIM_L = 25  # the corpus call claims independence below this

    def __init__(self, tf, seed: int, smoke: bool, refs: dict, ctx) -> None:
        self.tf = tf
        self.refs = refs
        self.ctx = ctx
        rng = random.Random(seed)
        ctx.work.mkdir(parents=True, exist_ok=True)
        self.data_copy = ctx.work / "bounds_copy.json"
        shutil.copyfile(ctx.src / "trifree" / "data" / "bounds_table.json", self.data_copy)
        commands = self.make_commands(rng, 10 if smoke else 50)
        self.corpus_items = self.make_corpus(rng, smoke)
        lines = [gen.graph6(it["n"], it["edges"]) for it in self.corpus_items]
        # planted parse error: a record with its last byte cut off
        lines.insert(rng.randrange(len(lines) + 1), gen.graph6(13, gen.circulant_edges(13, (1, 5)))[:-1])
        corpus = Command("verify_corpus", ["verify", "--format", "json", "--l", str(self.CLAIM_L)], b"\n".join(lines) + b"\n")
        self.commands = gen.shuffled(rng, commands + [corpus])
        self.ops = [self.op(i, cmd, self.call) for i, cmd in enumerate(self.commands)]
        self.trace_ops = [self.op(i, cmd, self.call_in_process) for i, cmd in enumerate(self.commands)]
        self.call(commands[0])  # untimed warm-up: fills the bytecode cache

    def op(self, i: int, cmd: Command, runner) -> Op:
        if cmd.kind == "verify_corpus":
            return Op(CORPUS_KEY, "b", lambda: runner(cmd), self.check_corpus)
        # the same command can be drawn twice, so the position makes the key unique
        return Op(f"{i}: {' '.join(cmd.argv)}", "a", lambda: runner(cmd), lambda checks, res: self.check_call(checks, cmd, res))

    # -- inputs

    def make_commands(self, rng: random.Random, count: int) -> list:
        data = ["--data", str(self.data_copy)]
        out = []
        kinds = ["bounds", "bounds_bad", "table", "construct", "feasible", "raise", "verify"]
        weights = {"bounds": 8, "bounds_bad": 2, "table": 9, "construct": 7, "feasible": 8, "raise": 8, "verify": 8}
        plan = [k for k in kinds for _ in range(weights[k] * count // 50)]
        for i, kind in enumerate(plan):
            fmt_json = i % 2 == 0
            extra = data if i % 3 == 0 else []
            stdin = None
            if kind == "bounds":
                l, n = rng.randint(2, 13), rng.randint(1, 43)
                argv = ["bounds", "--l", str(l), "--n", str(n)] + extra + (["--format", "json"] if fmt_json else [])
            elif kind == "bounds_bad":
                argv = ["bounds", "--l", str(rng.randint(14, 30)), "--n", str(rng.randint(1, 43))]
            elif kind == "table":
                l0, n0 = rng.randint(2, 10), rng.randint(1, 32)
                span_l, span_n = f"{l0}-{l0 + rng.randint(0, 3)}", f"{n0}-{n0 + rng.randint(0, 11)}"
                argv = ["table", "--l", span_l, "--n", span_n, "--format", ("md", "csv", "json")[i % 3]] + extra
            elif kind == "construct":
                pick = i % 3
                if pick == 0:
                    argv = ["construct", "w13"]
                elif pick == 1:
                    argv = ["construct", "tesseract"]
                else:
                    n, offs = gen.andrasfai(rng.choice(gen.ANDRASFAI_K))
                    argv = ["construct", "circulant", "--n", str(n), "--offsets", ",".join(map(str, offs))]
                argv += ["--format", "json"] if fmt_json else []
            elif kind in ("feasible", "raise"):
                l, n = rng.choice(gen.CLI_CELLS)
                ref = self.refs["raise"][f"{l},{n}"]
                if kind == "feasible":
                    argv = ["feasible", "--l", str(l), "--n", str(n), "--e", str(ref - rng.randint(0, 1))]
                else:
                    argv = ["raise", "--l", str(l), "--n", str(n)]
                argv += extra + (["--format", "json"] if fmt_json else [])
            else:
                argv, stdin = self.small_verify(rng, i % 4)
            out.append(Command(kind, argv, stdin))
        return out

    def small_verify(self, rng: random.Random, case: int):
        """Planted exit-code cases: 0 pass, 1 triangle, 1 false --l claim, 2 malformed."""
        k = rng.choice(gen.ANDRASFAI_K)
        n, offs = gen.andrasfai(k)
        edges = gen.relabel(rng, n, gen.circulant_edges(n, offs))
        if case == 1:
            edges = gen.add_triangle(rng, n, edges)
        line = gen.graph6(n, edges)
        if case == 3:
            line = line[:-1]
        claim_l = k if case == 2 else k + 1
        return ["verify", "--l", str(claim_l), "--n", str(n)], line + b"\n"

    def make_corpus(self, rng: random.Random, smoke: bool) -> list:
        items = []
        orders = gen.MTF_ORDERS[::10] if smoke else gen.MTF_ORDERS
        for n in orders:
            for copy in range(gen.MTF_PER_ORDER):
                items.append(_graph_item(f"mtf{n}.{copy}", n, gen.maximal_triangle_free(rng, n)))
        items.append(_graph_item("w13", 13, gen.relabel(rng, 13, gen.circulant_edges(13, (1, 5))), 4))
        tess = self.tf.constructions.twisted_tesseract()
        items.append(_graph_item("tesseract", 16, gen.relabel(rng, 16, tess.edges()), 5))
        for k in gen.ANDRASFAI_K:
            n, offs = gen.andrasfai(k)
            items.append(_graph_item(f"and{k}", n, gen.relabel(rng, n, gen.circulant_edges(n, offs)), k))
        for n in (9, 16, 25):
            items.append(_graph_item(f"cycle{n}", n, gen.relabel(rng, n, gen.circulant_edges(n, (1,))), n // 2))
        for key, wit in sorted(self.refs["witnesses"].items()):
            g = self.tf.graph.parse_graph6(wit["graph6"])[0]
            items.append(_graph_item(f"witness{key}", g.n, gen.relabel(rng, g.n, g.edges()), wit["alpha"]))
        # planted failures: an added triangle, and a graph breaking the --l claim
        base = gen.maximal_triangle_free(rng, 30)
        items.append(_graph_item("triangle", 30, gen.add_triangle(rng, 30, base)))
        half = self.CLAIM_L
        items.append(_graph_item("bipartite", 2 * half, gen.complete_bipartite(half, half), half))
        rng.shuffle(items)
        return items

    def expect(self) -> None:
        """Expected outputs from the library in-process, computed once and untimed."""
        tf = self.tf
        table = tf.bounds.default_table()
        for cmd in self.commands:
            if cmd.kind != "verify_corpus":
                cmd.code, cmd.check = self.expectation(tf, table, cmd)
        self.expected = [tf.graph.classify(tf.graph.Graph(it["n"], it["edges"])) for it in self.corpus_items]

    def expectation(self, tf, table, cmd: Command):
        a = cmd.argv
        opt = {a[i]: a[i + 1] for i in range(1, len(a) - 1) if a[i].startswith("--")}
        as_json = opt.get("--format") == "json"
        if cmd.kind == "bounds":
            cell = table.lookup(int(opt["--l"]), int(opt["--n"]))
            if as_json:
                def check(out, cell=cell):
                    got = json.loads(out)
                    return got["display"] == cell.display() and got["status"] == cell.status
            else:
                def check(out, cell=cell):
                    return out.splitlines()[:2] == [cell.display(), f"status: {cell.status}"]
            return 0, check
        if cmd.kind == "bounds_bad":
            return 2, None
        if cmd.kind == "table":
            def span(text):
                lo, hi = text.split("-")
                return int(lo), int(hi)
            want = table.emit(span(opt["--l"]), span(opt["--n"]), opt["--format"])
            return 0, lambda out, want=want: out == want
        if cmd.kind == "construct":
            if a[1] == "w13":
                n, g6 = 13, gen.graph6(13, gen.circulant_edges(13, (1, 5)))
            elif a[1] == "tesseract":
                g = tf.constructions.twisted_tesseract()
                n, g6 = g.n, gen.graph6(g.n, g.edges())
            else:
                n = int(opt["--n"])
                g6 = gen.graph6(n, gen.circulant_edges(n, [int(s) for s in opt["--offsets"].split(",")]))
            g6 = g6.decode("ascii")
            if as_json:
                return 0, lambda out, n=n, g6=g6: json.loads(out)["graph6"] == g6 and json.loads(out)["n"] == n
            return 0, lambda out, g6=g6: out.strip() == g6
        if cmd.kind == "feasible":
            l, n, e = int(opt["--l"]), int(opt["--n"]), int(opt["--e"])
            count = len(tf.feasibility.enumerate_feasible(l, n, e))
            if as_json:
                return (0 if count else 1), lambda out, c=count: len(json.loads(out)["distributions"]) == c
            return (0 if count else 1), lambda out, c=count: out.rstrip().splitlines()[-1].startswith(f"{c} feasible")
        if cmd.kind == "raise":
            ref = self.refs["raise"][f"{opt['--l']},{opt['--n']}"]
            if as_json:
                return 0, lambda out, ref=ref: json.loads(out)["value"] == ref
            return 0, lambda out, ref=ref: out.splitlines()[0] == f"raised lower bound: {ref}"
        # small verify: the planted case decides the exit code
        line = cmd.stdin.strip()
        try:
            g = tf.graph.parse_graph6(line)[0]
        except tf.graph.Graph6Error:
            return 2, None
        cls = tf.graph.classify(g)
        return (0 if cls.matches(int(opt["--l"]), int(opt["--n"]), cls.e) else 1), None

    # -- running

    def call(self, cmd: Command):
        proc = subprocess.run(
            [sys.executable, "-m", "trifree.cli", *cmd.argv],
            input=cmd.stdin,
            capture_output=True,
            env=self.ctx.env,
            cwd=self.ctx.root,
            timeout=120,
        )
        return proc.returncode, proc.stdout.decode("utf-8", "replace")

    def call_in_process(self, cmd: Command):
        stdin = io.TextIOWrapper(io.BytesIO(cmd.stdin or b""), encoding="ascii")
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = stdin
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.tf.cli.main(list(cmd.argv))
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    def check_call(self, checks: Checks, cmd: Command, res) -> None:
        code, out = res
        ok = code == cmd.code
        if ok and cmd.check is not None:
            try:
                ok = bool(cmd.check(out))
            except (ValueError, KeyError, IndexError):
                ok = False
        checks.check(ok, f"{' '.join(cmd.argv)}: exit {code}, expected {cmd.code}")

    def check_corpus(self, checks: Checks, res) -> None:
        code, out = res
        checks.check(code == 2, f"verify corpus: exit {code}, expected 2 for the malformed line")
        try:
            payload = json.loads(out)
            records = payload["records"]
        except (ValueError, KeyError):
            checks.check(False, "verify corpus: output is not the JSON report")
            return
        checks.check(payload["summary"]["parse_errors"] == 1, "verify corpus: parse error count")
        checks.check(len(records) == len(self.corpus_items), f"verify corpus: {len(records)} records")
        for rec, it, cls in zip(records, self.corpus_items, self.expected):
            want_verdict = cls.triangle_free and cls.alpha < self.CLAIM_L
            checks.check(
                (rec["n"], rec["e"], rec["alpha"], rec["triangle_free"]) == (cls.n, cls.e, cls.alpha, cls.triangle_free)
                and rec["e"] == len(it["edges"])
                and (it["alpha"] is None or rec["alpha"] == it["alpha"])
                and rec["verdict"] == ("pass" if want_verdict else "fail"),
                f"verify record for {it['label']} (line {rec.get('line')})",
            )

    def graphs_verified(self) -> int:
        small = sum(1 for c in self.commands if c.kind == "verify" and c.code != 2)
        return len(self.corpus_items) + small

    def aliases(self, m: dict, times: dict) -> list:
        calls = [len(times[op.key]) for op in self.ops if op.phase == "a"]
        graphs = len(self.corpus_items)
        note = f"over {len(calls)} short calls, each the median of {min(calls)}+ runs ({sum(calls)} calls made)"
        return [
            ("call_ms_p50", m["op_ms_p50"], "ms", note),
            ("call_ms_p90", m["op_ms_p90"], "ms", note),
            ("verify_graphs_per_s", graphs / m["phase_b_s"], "graphs/s", f"{graphs} graphs per verify call"),
        ]


WORKLOADS = {"oracle": Oracle, "counting": Counting, "cli": Cli}
