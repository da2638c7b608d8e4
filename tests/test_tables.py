import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trifree.bounds import (
    INF,
    BoundsTable,
    CellRecord,
    DataConflictError,
    EBound,
    cells_from_json,
    default_table,
    endpoint_from_json,
    endpoint_to_json,
    formula_floor,
    general_value,
)

FIXTURES = Path(__file__).parent / "fixtures"

RAMSEY = {
    2: (3, 3),
    3: (6, 6),
    4: (9, 9),
    5: (14, 14),
    6: (18, 18),
    7: (23, 23),
    8: (28, 28),
    9: (36, 36),
    10: (40, 42),
    11: (44, None),
    12: (44, None),
    13: (44, None),
}


@pytest.fixture(scope="module")
def table():
    return default_table()


class TestLookup:
    def test_named_cells(self, table):
        checks = {
            (10, 33): (90, 90, "exact", ("sporadic-table",)),
            (11, 35): (84, 85, "range", ("formula", "sporadic-table")),
            (9, 36): (INF, INF, "infinite", ("ramsey",)),
            (12, 43): (129, 134, "range", ("sporadic-table",)),
            (7, 22): (60, 60, "exact", ("sporadic-table",)),
            (9, 28): (68, 68, "exact", ("formula", "sporadic-table")),
            (13, 41): (94, 94, "exact", ("formula", "sporadic-table")),
            (10, 40): (161, INF, "open-above", ("sporadic-table", "ramsey")),
            (10, 41): (172, INF, "open-above", ("sporadic-table", "ramsey")),
            (10, 42): (INF, INF, "infinite", ("ramsey",)),
            (11, 41): (139, 150, "range", ("sporadic-table", "preliminary-upper")),
            (12, 35): (68, 68, "exact", ("formula",)),
            (5, 13): (26, 26, "exact", ("formula",)),
            (6, 16): (32, 32, "exact", ("formula",)),
            (6, 17): (40, 40, "exact", ("formula",)),
            (2, 2): (1, 1, "exact", ("formula",)),
            (2, 3): (INF, INF, "infinite", ("ramsey",)),
        }
        for (l, n), (lo, up, status, prov) in checks.items():
            cell = table.lookup(l, n)
            assert (cell.lower, cell.upper, cell.status, cell.provenance) == (
                lo,
                up,
                status,
                prov,
            ), (l, n, cell)

    def test_displays(self, table):
        assert table.lookup(12, 43).display() == "129–134"
        assert table.lookup(10, 37).display() == "128–(132)"
        assert table.lookup(11, 43).display() == "159–(171)"
        assert table.lookup(10, 40).display() == "161–∞"
        assert table.lookup(7, 23).display() == "∞"

    def test_out_of_domain(self, table):
        for l, n in [(1, 5), (14, 5), (5, 0), (5, 44)]:
            with pytest.raises(ValueError):
                table.lookup(l, n)

    def test_known_and_finite_lower(self, table):
        assert table.lookup(11, 41).lower == 139
        assert table.lookup(7, 23).lower == INF
        assert table.finite_lower(7, 23) == formula_floor(6, 23)
        assert table.finite_lower(11, 41) == 139

    def test_finite_lower_is_the_formula_floor_raised_by_a_finite_record(self, table):
        # at any order, and past the horizon an explicit infinite record sets
        ramsey = dict(RAMSEY)
        ramsey[11] = (40, None)
        infinite = make_table([CellRecord(11, 41, INF, INF, False, "check")], ramsey)
        assert infinite.bound(11, 41).lower == INF
        for t in (table, infinite):
            records = {(r.l, r.n): r.lower for r in t.records() if r.lower != INF}
            for l in range(2, 17):
                for n in range(1, 81):
                    assert t.finite_lower(l, n) == max(formula_floor(l - 1, n), records.get((l, n), 0)), (l, n)

    def test_bound_at_any_order(self, table):
        for l, n, cell in table.cells():
            assert table.bound(l, n) is cell
        assert table.bound(14, 50) == general_value(13, 50)
        assert table.bound(10, 44).status == "infinite"
        assert table.bound(12, 60).status == "open-above"
        with pytest.raises(ValueError):
            table.bound(1, 5)
        with pytest.raises(ValueError):
            table.bound(5, 0)

    def test_default_is_cached(self, table):
        assert default_table() is table


class TestTableInvariants:
    def test_row_monotonicity(self, table):
        for l in range(2, 14):
            prev = 0
            for n in range(1, 44):
                cell = table.lookup(l, n)
                assert cell.lower >= prev, (l, n)
                prev = cell.lower

    def test_infinite_column_tail(self, table):
        for l in range(2, 14):
            seen_inf = False
            for n in range(1, 44):
                cell = table.lookup(l, n)
                if seen_inf:
                    assert cell.status == "infinite", (l, n)
                if cell.status == "infinite":
                    seen_inf = True

    def test_upper_never_below_lower(self, table):
        for l, n, cell in table.cells():
            if cell.upper is not None and cell.upper != INF:
                assert cell.lower <= cell.upper, (l, n)

    def test_sporadic_never_weaker_than_formula(self, table):
        for rec in table.records():
            if rec.lower != INF:
                assert rec.lower >= formula_floor(rec.l - 1, rec.n), rec

    def test_preliminary_cells(self, table):
        flagged = {
            (l, n)
            for l, n, cell in table.cells()
            if "preliminary-upper" in cell.provenance
        }
        assert flagged == {(10, 37), (10, 38), (11, 41), (11, 42), (11, 43)}

    def test_record_count(self, table):
        assert sum(1 for _ in table.records()) == 41


class TestEmit:
    def test_markdown_fixtures(self, table):
        got = table.emit((7, 10), (22, 34))
        want = (FIXTURES / "table_n22_34.md").read_text(encoding="utf-8")
        assert got == want
        got = table.emit((9, 13), (35, 43))
        want = (FIXTURES / "table_n35_43.md").read_text(encoding="utf-8")
        assert got == want

    def test_csv(self, table):
        out = table.emit((7, 8), (22, 24), fmt="csv")
        assert out.splitlines() == ["n,7,8", "22,60,42", "23,∞,49", "24,,56"]

    def test_json_round_trip(self, table):
        text = table.emit((7, 13), (22, 43), fmt="json")
        cells = cells_from_json(text)
        for (l, n), cell in cells.items():
            assert cell == table.lookup(l, n), (l, n)
        payload = json.loads(text)
        assert payload["version"] == 1
        assert len(payload["cells"]) == 7 * 22

    @given(st.integers(2, 13), st.integers(2, 13), st.integers(1, 43), st.integers(1, 43))
    def test_json_round_trip_any_window(self, l1, l2, n1, n2):
        table = default_table()
        l_span, n_span = (min(l1, l2), max(l1, l2)), (min(n1, n2), max(n1, n2))
        cells = cells_from_json(table.emit(l_span, n_span, fmt="json"))
        assert len(cells) == (l_span[1] - l_span[0] + 1) * (n_span[1] - n_span[0] + 1)
        for (l, n), cell in cells.items():
            assert cell == table.lookup(l, n), (l, n)

    @pytest.mark.parametrize("l, n", [(7, 22), (10, 35), (10, 40), (10, 42), (11, 43)])
    def test_json_status_must_match_the_endpoints(self, table, l, n):
        payload = json.loads(table.emit((l, l), (n, n), fmt="json"))
        cell = payload["cells"][0]
        for status in {"exact", "range", "open-above", "infinite"} - {cell["status"]}:
            cell["status"] = status
            with pytest.raises(DataConflictError, match=f"has status '{status}'"):
                cells_from_json(json.dumps(payload))

    def test_endpoint_codec(self):
        for value in (None, 0, 139, INF):
            assert endpoint_from_json(endpoint_to_json(value)) == value
        assert endpoint_to_json(INF) == "inf"
        for bad in ("139", 1.5, True, "infinity"):
            with pytest.raises(DataConflictError):
                endpoint_from_json(bad)

    def test_empty_window(self, table):
        assert table.emit((8, 7), (22, 24)) == ""
        assert table.emit((8, 7), (22, 24), fmt="csv") == ""
        # the same indented, newline-terminated JSON as any other window
        want = '{\n  "version": 1,\n  "l_range": [\n    8,\n    7\n  ],\n  "n_range": [\n    22,\n    24\n  ],\n  "cells": []\n}\n'
        assert table.emit((8, 7), (22, 24), fmt="json") == want
        # an empty window is not checked against the domain
        assert table.emit((30, 20), (0, 99)) == ""

    def test_bad_requests(self, table):
        with pytest.raises(ValueError):
            table.emit((7, 10), (22, 34), fmt="html")
        with pytest.raises(ValueError):
            table.emit((7, 14), (22, 34))
        with pytest.raises(ValueError):
            table.emit((7, 10), (0, 34))


def make_table(records, ramsey=None):
    return BoundsTable(ramsey or dict(RAMSEY), records)


class TestConstructionValidation:
    def test_minimal(self):
        t = make_table([CellRecord(7, 22, 60, 60, False, "check")])
        assert t.lookup(7, 22).lower == 60

    def test_duplicate_record(self):
        rec = CellRecord(7, 22, 60, 60, False, "check")
        with pytest.raises(DataConflictError):
            make_table([rec, rec])

    def test_lower_above_upper(self):
        with pytest.raises(DataConflictError):
            make_table([CellRecord(7, 22, 61, 60, False, "check")])

    def test_finite_record_in_infinite_region(self):
        # R(3,7) = 23 makes every n >= 23 cell infinite
        with pytest.raises(DataConflictError):
            make_table([CellRecord(7, 23, 60, 60, False, "check")])

    def test_record_out_of_domain(self):
        with pytest.raises(ValueError):
            make_table([CellRecord(14, 22, 60, 60, False, "check")])

    def test_explicit_infinite_record_tightens_horizon(self):
        ramsey = dict(RAMSEY)
        ramsey[11] = (40, None)
        t = make_table([CellRecord(11, 41, INF, INF, False, "check")], ramsey)
        assert t.lookup(11, 41).status == "infinite"
        assert t.lookup(11, 42).status == "infinite"
        assert t.lookup(11, 40).status == "open-above"
        # the record settles R(3,11) <= 41, past the tabulated rows too
        assert t.ramsey_range(11) == (40, 41)
        assert t.bound(11, 44).status == "infinite"

    def test_infinite_record_below_ramsey_floor(self):
        with pytest.raises(DataConflictError):
            make_table([CellRecord(11, 41, INF, INF, False, "check")])

    def test_upper_conflicts_with_open_region(self):
        # a finite upper bound inside the Ramsey uncertainty window claims
        # existence that the interval cannot support
        with pytest.raises(DataConflictError):
            make_table([CellRecord(10, 41, 172, 180, False, "check")])

    def test_ramsey_tail_follows_the_data(self):
        ramsey = dict(RAMSEY)
        ramsey[13] = (46, None)
        t = make_table([], ramsey)
        assert t.ramsey_range(14) == (46, None)
        assert t.ramsey_range(50) == (46, None)
        # off the table the formulas see the overridden interval, so (13,44)
        # is below R(3,13) and no longer open above
        assert default_table().bound(13, 44).status == "open-above"
        assert t.bound(13, 44).status == "range"

    def test_ramsey_coverage_required(self):
        bad = dict(RAMSEY)
        del bad[7]
        with pytest.raises(DataConflictError):
            make_table([], bad)

    @pytest.mark.parametrize("l, interval", [(14, (50, 60)), (1, (9, 3)), (0, (1, 1))])
    def test_ramsey_interval_outside_the_domain(self, l, interval):
        # an interval the table would never read is an error, not a silent no-op
        with pytest.raises(DataConflictError, match=f"ramsey interval for l={l} outside the table domain"):
            make_table([], {**RAMSEY, l: interval})


class TestFileLoading:
    def test_override_file(self, tmp_path):
        data = {
            "version": 1,
            "ramsey": {str(l): [lo, hi] for l, (lo, hi) in RAMSEY.items()},
            "cells": [
                {"l": 7, "n": 22, "lower": 61, "upper": 61, "source": "private run"}
            ],
        }
        path = tmp_path / "alt.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        t = BoundsTable.from_file(path)
        assert t.lookup(7, 22).lower == 61

    def test_conflicting_file(self, tmp_path):
        data = {
            "version": 1,
            "ramsey": {str(l): [lo, hi] for l, (lo, hi) in RAMSEY.items()},
            "cells": [{"l": 7, "n": 22, "lower": 62, "upper": 61, "source": "typo"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(DataConflictError):
            BoundsTable.from_file(path)

    @pytest.mark.parametrize("key", ["7", "07", " 7", "+7"])
    def test_duplicate_ramsey_key(self, tmp_path, key):
        # each key names l = 7, so one of the two intervals would silently win
        ramsey = json.dumps({str(l): [lo, hi] for l, (lo, hi) in RAMSEY.items()})
        ramsey = ramsey[:-1] + f', "{key}": [23, 24]}}'
        path = tmp_path / "dup.json"
        path.write_text(f'{{"version": 1, "ramsey": {ramsey}, "cells": []}}', encoding="utf-8")
        with pytest.raises(DataConflictError, match="duplicate ramsey interval for l=7|key '7' repeated"):
            BoundsTable.from_file(path)

    def test_repeated_key_in_a_record(self, tmp_path):
        ramsey = json.dumps({str(l): [lo, hi] for l, (lo, hi) in RAMSEY.items()})
        cells = '[{"l": 7, "n": 22, "lower": 60, "upper": 61, "lower": 62}]'
        path = tmp_path / "dup.json"
        path.write_text(f'{{"version": 1, "ramsey": {ramsey}, "cells": {cells}}}', encoding="utf-8")
        with pytest.raises(DataConflictError, match="key 'lower' repeated"):
            BoundsTable.from_file(path)

    @pytest.mark.parametrize(
        "lower, upper, fault",
        [
            ("inf", None, "an infinite lower bound needs an infinite upper"),
            ("inf", 60, "an infinite lower bound needs an infinite upper"),
            (-5, None, "a finite lower bound must be an int >= 0, got -5"),
            (62, 61, "upper must be None, infinity or an int >= lower, got 61"),
        ],
    )
    def test_record_interval_follows_the_ebound_rule(self, tmp_path, lower, upper, fault):
        # one rule decides a valid interval, for a loaded record and an EBound
        # alike; (10, 41) is past the Ramsey floor 40, so an infinite record
        # there would otherwise be taken as a proof that R(3, 10) <= 41
        data = {
            "version": 1,
            "ramsey": {str(l): [lo, hi] for l, (lo, hi) in RAMSEY.items()},
            "cells": [{"l": 10, "n": 41, "lower": lower, "upper": upper}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(DataConflictError, match=rf"record \(10,41\): {fault}"):
            BoundsTable.from_file(path)
        with pytest.raises(ValueError, match=fault):
            EBound(endpoint_from_json(lower), endpoint_from_json(upper))

    def test_bad_endpoint_text(self, tmp_path):
        data = {
            "version": 1,
            "ramsey": {str(l): [lo, hi] for l, (lo, hi) in RAMSEY.items()},
            "cells": [{"l": 7, "n": 22, "lower": "sixty", "upper": 60, "source": "typo"}],
        }
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(DataConflictError):
            BoundsTable.from_file(path)
