"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes perfbench/refs.json: raise values for every finite table cell and
the off-table band, survivor counts and digests of the listing cells,
the oracle's deep-cell values, and oracle witnesses (graph6 plus
independence number) that the cli corpus relabels.  Rerun it only when
a change is meant to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from workloads import finite_cells, listing_digest  # noqa: E402

from trifree import INF, classify, default_table, enumerate_feasible, raise_lower_bound, write_graph6  # noqa: E402
from trifree import oracle  # noqa: E402

SMOKE_LISTS = ((11, 41, 139),)
SMOKE_ORACLE = ((4, 7), (4, 8))
WITNESS_CELLS = ((4, 8), (5, 10), (6, 11), (7, 12))


def main() -> None:
    raised = {}
    for l, n in finite_cells(default_table()) + list(gen.OFF_TABLE_BAND):
        v = raise_lower_bound(l, n)
        raised[f"{l},{n}"] = "inf" if v == INF else v
    listings = {}
    for l, n, e in gen.LIST_BAND + SMOKE_LISTS:
        reps = enumerate_feasible(l, n, e)
        listings[f"{l},{n},{e}"] = {"count": len(reps), "digest": listing_digest(reps)}
    values, witnesses = {}, {}
    for l, n in gen.DEEP_CELLS + SMOKE_ORACLE + WITNESS_CELLS:
        res = oracle.min_edges_exhaustive(l, n)
        values[f"{l},{n}"] = res.value
        if (l, n) in WITNESS_CELLS:
            witnesses[f"{l},{n}"] = {"graph6": write_graph6(res.witness).decode("ascii"), "alpha": classify(res.witness).alpha}
    refs = {"raise": raised, "list": listings, "oracle": values, "witnesses": witnesses}
    with open(HERE / "refs.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
