"""Command-line front end for the table, verifier, constructions and search.

Each subcommand imports only the layer it runs, so a short call such as
``trifree bounds`` never loads the graph core or the oracle, and a failing
call is classified from the modules already loaded, so it loads nothing
more.  Refinement names are checked by the counting engine.

Exit codes follow a scripting contract: 0 success, 1 a negative result
(a failed verification, an empty feasibility answer), 2 usage, parse or
domain errors, 3 internal data conflicts or an exhausted search budget.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

SCHEMA_VERSION = 1

# errors that exit 3, as (module, class); a class whose module is not
# loaded cannot have been raised, so classifying an error imports nothing
_INTERNAL_ERRORS = (
    ("trifree.bounds", "DataConflictError"),
    ("trifree.oracle", "InconclusiveError"),
    ("trifree.oracle", "OracleMismatchError"),
)


# ---------------------------------------------------------------------------
# shared argument helpers


def _parse_span(text: str) -> tuple[int, int]:
    s = text.strip()
    head, sep, tail = s.partition("-")
    try:
        if sep and tail:
            lo, hi = int(head), int(tail)
        else:
            lo = hi = int(s)
    except ValueError:
        raise ValueError(f"bad range {text!r}: expected N or LO-HI") from None
    return lo, hi


def _parse_offsets(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad offsets {text!r}: expected comma-separated integers") from None


def _parse_refinements(text: str | None) -> frozenset[str]:
    """The names selected by --refine; the counting engine rejects unknown ones."""
    from .feasibility import ALL_REFINEMENTS, DEFAULT_REFINEMENTS

    if text is None:
        return DEFAULT_REFINEMENTS
    s = text.strip().lower()
    if s == "none":
        return frozenset()
    if s == "all":
        return ALL_REFINEMENTS
    names = frozenset(p.strip() for p in s.split(",") if p.strip())
    if not names:
        raise ValueError(f"--refine {text!r} names no refinement; use --refine none to run without one")
    return names


def _load_table(args):
    from .bounds import BoundsTable, default_table

    if getattr(args, "data", None):
        return BoundsTable.from_file(args.data)
    return default_table()


def _print_json(payload: dict, indent: int | None = None) -> None:
    print(json.dumps({"version": SCHEMA_VERSION, **payload}, ensure_ascii=False, indent=indent))


def _stream_json(payload: dict, key: str, items, after: dict) -> int:
    """Print what _print_json({**payload, key: list(items), **after}, indent=2) prints, an item at a time.

    after is read once the items run out, so they may still fill it in.
    Return the item count.
    """
    head = json.dumps({"version": SCHEMA_VERSION, **payload, key: []}, ensure_ascii=False, indent=2).rsplit("[]", 1)[0]
    count = 0
    for item in items:
        print("," if count else head + "[", end="\n    ")
        print(json.dumps(item, ensure_ascii=False, indent=2).replace("\n", "\n    "), end="")
        count += 1
    whole = json.dumps({"version": SCHEMA_VERSION, **payload, key: [], **after}, ensure_ascii=False, indent=2)
    print("\n  ]" + whole[len(head) + 2 :] if count else whole)
    return count


def _fmt_value(v) -> str:
    from .bounds import INF

    if v == INF:
        return "∞"
    if v is None:
        return "unknown"
    return str(v)


def _report_payload(rep) -> dict:
    return {
        "distribution": {str(d): c for d, c in rep.distribution.counts},
        "defect": rep.defect,
        "caps": {str(d): cap for d, cap in rep.caps},
        "cap_sources": {str(d): src for d, src in rep.cap_sources},
    }


def _print_report(rep) -> None:
    print(f"{rep.distribution}  defect={rep.defect}")
    sources = dict(rep.cap_sources)
    for d, cap in rep.caps:
        print(f"  degree {d}: second-degree cap {cap} [{sources[d]}]")


# ---------------------------------------------------------------------------
# subcommands


def cmd_bounds(args) -> int:
    from .bounds import cell_to_json

    table = _load_table(args)
    cell = table.lookup(args.l, args.n)
    if args.format == "json":
        _print_json(cell_to_json(args.l, args.n, cell))
    else:
        print(cell.display())
        print(f"status: {cell.status}")
        print(f"lower: {_fmt_value(cell.lower)}")
        print(f"upper: {_fmt_value(cell.upper)}")
        print("provenance: " + ", ".join(cell.provenance))
    return 0


def cmd_table(args) -> int:
    table = _load_table(args)
    out = table.emit(_parse_span(args.l), _parse_span(args.n), args.format)
    sys.stdout.write(out)
    return 0


def cmd_construct(args) -> int:
    from .constructions import circulant, twisted_tesseract, w13
    from .graph import write_graph6

    if args.kind == "circulant":
        if args.n is None or args.offsets is None:
            raise ValueError("circulant needs --n and --offsets")
        g = circulant(args.n, _parse_offsets(args.offsets))
    else:
        if args.n is not None or args.offsets is not None:
            raise ValueError("--n and --offsets only apply to circulant")
        g = w13() if args.kind == "w13" else twisted_tesseract()
    g6 = write_graph6(g).decode("ascii")
    if args.format == "json":
        _print_json({"kind": args.kind, "n": g.n, "e": g.edge_count(), "graph6": g6})
    else:
        print(g6)
    return 0


def _verify_one(line_no: int, g, l: int | None, n_claim: int | None, e_claim: int | None) -> dict:
    """Checked facts about one graph6 line, plus the verdict on any claims."""
    from .graph import classify, write_graph6

    cls = classify(g)
    reasons = []
    if not cls.triangle_free:
        reasons.append("triangle found")
    if l is not None and cls.alpha >= l:
        reasons.append(f"independence {cls.alpha} >= {l}")
    if n_claim is not None and cls.n != n_claim:
        reasons.append(f"vertex count {cls.n} != {n_claim}")
    if e_claim is not None and cls.e != e_claim:
        reasons.append(f"edge count {cls.e} != {e_claim}")
    degs = g.degrees()
    seconds = g.second_degrees()
    return {
        "line": line_no,
        "graph6": write_graph6(g).decode("ascii"),
        "n": cls.n,
        "e": cls.e,
        "alpha": cls.alpha,
        "triangle_free": cls.triangle_free,
        "slack": cls.slack,
        "degree_min": min(degs) if degs else None,
        "degree_max": max(degs) if degs else None,
        "second_degree_min": min(seconds) if seconds else None,
        "second_degree_max": max(seconds) if seconds else None,
        "verdict": "fail" if reasons else "pass",
        "reasons": reasons,
    }


def _record_line(rec: dict) -> str:
    bits = ["line {line}: n={n} e={e} alpha={alpha}".format_map(rec)]
    bits.append("triangle-free" if rec["triangle_free"] else "has-triangle")
    if rec["slack"] is not None:
        bits.append(f"slack={rec['slack']}")
    if rec["degree_min"] is not None:
        bits.append("deg={degree_min}..{degree_max} deg2={second_degree_min}..{second_degree_max}".format_map(rec))
    bits.append("FAIL (" + "; ".join(rec["reasons"]) + ")" if rec["reasons"] else "pass")
    return " ".join(bits)


def _verify_records(args, summary: dict):
    """Yield the record of each graph6 line as it is read, counting it into summary."""
    from .graph import Graph6Error, decode_graph6, find_induced_k24

    if args.file in (None, "-"):
        source = contextlib.nullcontext(sys.stdin.buffer)
    else:
        source = open(args.file, "rb")
    with source as stream:
        for no, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                g = decode_graph6(line, where=f" (line {no})")
            except Graph6Error as exc:
                summary["parse_errors"] += 1
                print(f"error: {exc}", file=sys.stderr)
                continue
            rec = _verify_one(no, g, args.l, args.n, args.e)
            summary["graphs"] += 1
            summary[rec["verdict"]] += 1
            low = rec["degree_min"]
            if low is not None and (summary["min_degree"] is None or low < summary["min_degree"]):
                summary["min_degree"] = low
            k24 = find_induced_k24(g) is not None
            summary["induced_k24_everywhere"] = k24 and summary["induced_k24_everywhere"] is not False
            yield rec


def cmd_verify(args) -> int:
    summary = {"graphs": 0, "pass": 0, "fail": 0, "parse_errors": 0, "min_degree": None, "induced_k24_everywhere": None}
    records = _verify_records(args, summary)
    # either format prints each record as its line is read, never held as a list
    if args.format == "json":
        _stream_json({}, "records", records, {"summary": summary})
    else:
        for rec in records:
            print(_record_line(rec))
        print("graphs: {graphs}  pass: {pass}  fail: {fail}  parse errors: {parse_errors}".format_map(summary))
        print(f"minimum degree over corpus: {summary['min_degree'] if summary['graphs'] else 'n/a'}")
        k24 = {True: "yes", False: "no", None: "n/a"}[summary["induced_k24_everywhere"]]
        print(f"induced K2,4 in every graph: {k24}")
    if summary["parse_errors"]:
        return 2
    return 1 if summary["fail"] else 0


def cmd_feasible(args) -> int:
    from .feasibility import iter_feasible

    table = _load_table(args)
    refinements = _parse_refinements(args.refine)
    reports = iter_feasible(args.l, args.n, args.e, table=table, refinements=refinements)
    # either format prints the reports as the walk yields them, never held as a list
    if args.format == "json":
        head = {"l": args.l, "n": args.n, "e": args.e, "refinements": sorted(refinements)}
        return 0 if _stream_json(head, "distributions", map(_report_payload, reports), {}) else 1
    count = 0
    for rep in reports:
        _print_report(rep)
        count += 1
    print(f"{count} feasible distribution(s) at l={args.l} n={args.n} e={args.e}")
    return 0 if count else 1


def cmd_raise(args) -> int:
    from .bounds import INF, endpoint_to_json
    from .feasibility import iter_feasible, raise_lower_bound

    table = _load_table(args)
    refinements = _parse_refinements(args.refine)
    value = raise_lower_bound(args.l, args.n, table=table, refinements=refinements)
    first = None
    if value != INF:
        first = next(iter_feasible(args.l, args.n, int(value), table=table, refinements=refinements))
    if args.format == "json":
        payload = {
            "l": args.l,
            "n": args.n,
            "refinements": sorted(refinements),
            "value": endpoint_to_json(value),
            "first_distribution": _report_payload(first) if first else None,
        }
        _print_json(payload, indent=2)
    else:
        print(f"raised lower bound: {_fmt_value(value)}")
        if first is not None:
            print(f"first feasible distribution: {first.distribution}  defect={first.defect}")
        else:
            print("no degree distribution is feasible at any edge count")
    return 0


def cmd_oracle(args) -> int:
    from .bounds import endpoint_to_json
    from .graph import write_graph6
    from .oracle import DEFAULT_BUDGET, min_edges_exhaustive

    res = min_edges_exhaustive(args.l, args.n, DEFAULT_BUDGET if args.budget is None else args.budget)
    g6 = write_graph6(res.witness).decode("ascii") if res.witness is not None else None
    if args.emit_witness:
        if g6 is None:
            print("no witness to emit (value is ∞)", file=sys.stderr)
        else:
            with open(args.emit_witness, "w", encoding="ascii") as fh:
                fh.write(g6 + "\n")
    if args.format == "json":
        _print_json({"l": args.l, "n": args.n, "value": endpoint_to_json(res.value), "nodes": res.nodes, "graph6": g6})
    else:
        print(f"value: {_fmt_value(res.value)}")
        print(f"nodes: {res.nodes}")
        if g6 is not None:
            print(f"witness: {g6}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifree",
        description="Bounds, certificates and searches for minimum-size triangle-free graphs with bounded independence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("bounds", help="look up one cell of the bounds table")
    q.add_argument("--l", type=int, required=True, help="independence threshold")
    q.add_argument("--n", type=int, required=True, help="vertex count")
    q.add_argument("--data", metavar="FILE", help="alternative bounds data file")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_bounds)

    q = sub.add_parser("table", help="render a window of the bounds table")
    q.add_argument("--l", required=True, metavar="LO-HI", help="column range, e.g. 7-10")
    q.add_argument("--n", required=True, metavar="LO-HI", help="row range, e.g. 22-34")
    q.add_argument("--data", metavar="FILE")
    q.add_argument("--format", choices=("md", "csv", "json"), default="md")
    q.set_defaults(func=cmd_table)

    q = sub.add_parser("verify", help="check graph6 certificates against claims")
    q.add_argument("file", nargs="?", help="graph6 file, one graph per line (default stdin)")
    q.add_argument("--l", type=int, help="require independence number below L")
    q.add_argument("--n", type=int, help="require exactly N vertices")
    q.add_argument("--e", type=int, help="require exactly E edges")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("construct", help="emit a named witness graph as graph6")
    q.add_argument("kind", choices=("w13", "tesseract", "circulant"))
    q.add_argument("--n", type=int, help="circulant order")
    q.add_argument("--offsets", metavar="A,B,...", help="circulant connection offsets")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_construct)

    q = sub.add_parser("feasible", help="degree distributions the counting test allows")
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--e", type=int, required=True)
    q.add_argument("--refine", metavar="r1,r2,r3|none|all", help="refinement selection (default r1)")
    q.add_argument("--data", metavar="FILE")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_feasible)

    q = sub.add_parser("raise", help="push the lower bound up by feasibility scanning")
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--refine", metavar="r1,r2,r3|none|all")
    q.add_argument("--data", metavar="FILE")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_raise)

    q = sub.add_parser("oracle", help="exact small values by exhaustive search")
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--budget", type=int, help="search node limit")
    q.add_argument("--emit-witness", metavar="FILE", help="write the witness graph6 here")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 0 after --help and 2 on a usage error
        return exc.code
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        internal = tuple(getattr(sys.modules[m], c) for m, c in _INTERNAL_ERRORS if m in sys.modules)
        if isinstance(exc, internal):
            code = 3
        elif isinstance(exc, RuntimeError):
            raise
        else:
            # Graph6Error and the domain errors all derive from ValueError
            code = 2
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
