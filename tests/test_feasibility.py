import hashlib
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st

import trifree.feasibility as feasibility
from trifree.bounds import BoundsTable, default_table
from trifree.constructions import twisted_tesseract, w13
from trifree.feasibility import (
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

from helpers import every_class

INF = math.inf


class TestDegreeDistribution:
    def test_from_dict_and_back(self):
        d = DegreeDistribution.from_dict({5: 2, 6: 21})
        assert d.vertex_count == 23
        assert d.degree_sum == 136
        assert d.as_dict() == {5: 2, 6: 21}
        assert str(d) == "{5:2, 6:21}"

    def test_from_graph(self):
        d = DegreeDistribution.from_graph(w13())
        assert d.as_dict() == {4: 13}
        d = DegreeDistribution.from_graph(twisted_tesseract())
        assert d.as_dict() == {4: 16}

    def test_counts_is_canonical(self):
        a = DegreeDistribution.from_dict({6: 21, 5: 2})
        b = DegreeDistribution.from_dict({5: 2, 6: 21, 7: 0})
        assert a == b
        assert a.counts == b.counts

    def test_validation(self):
        with pytest.raises(ValueError):
            DegreeDistribution.from_dict({-1: 3})
        with pytest.raises(ValueError):
            DegreeDistribution.from_dict({3: -2})
        with pytest.raises(ValueError):
            DegreeDistribution(((5, 2), (5, 3)))
        with pytest.raises(ValueError):
            DegreeDistribution(((5, 0),))
        assert DegreeDistribution.from_dict({}).vertex_count == 0


class TestDegreeCap:
    def test_reference_point(self):
        # at l=7, n=23, e=68 a degree-6 vertex leaves a 16-vertex reduced
        # graph needing at least 32 edges, so its second degree is at most 36
        assert degree_cap(7, 23, 68, 6) == 36
        assert degree_cap(7, 23, 68, 5) == 28
        assert degree_cap(7, 23, 68, 4) is None

    def test_domain(self):
        with pytest.raises(ValueError):
            degree_cap(7, 23, 68, 7)
        with pytest.raises(ValueError):
            degree_cap(7, 23, 68, -1)
        with pytest.raises(UnknownRegionError):
            degree_cap(1, 23, 68, 4)

    def test_outside_tabulated_window_uses_formula(self):
        # the reduced graph falls outside the curated table, so the budget
        # comes from the closed-form floor
        assert degree_cap(14, 50, 200, 13) == 140


class TestDataOverrideOffTable:
    """A data file's Ramsey interval governs floors past the tabulated rows too."""

    @pytest.fixture
    def table(self, tmp_path):
        # R(3,11) = 43 makes e(11, n) infinite for every n >= 43; the l=11
        # records it contradicts are dropped
        text = resources.files("trifree").joinpath("data/bounds_table.json").read_text(encoding="utf-8")
        data = json.loads(text)
        data["ramsey"]["11"] = [43, 43]
        data["cells"] = [c for c in data["cells"] if not (c["l"] == 11 and c["n"] >= 43)]
        path = tmp_path / "r311.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return BoundsTable.from_file(path)

    def test_degree_cap(self, table):
        # a degree-0 vertex leaves a 44-vertex reduced graph at l = 11
        assert degree_cap(12, 45, 140, 0) == -4
        assert degree_cap(12, 45, 140, 0, table=table) is None

    def test_total_defect(self, table):
        dist = DegreeDistribution.from_dict({0: 1, 6: 28, 7: 16})
        rep = total_defect(dist, 12, 45, 140, table=table)
        assert rep.eliminated_by == "impossible-degree:0"
        assert dict(rep.caps)[0] is None
        assert dict(rep.cap_sources)[0] == "ramsey"


FIVE_AT_41 = [
    ({6: 11, 7: 30}, 3),
    ({6: 12, 7: 28, 8: 1}, 1),
    ({5: 1, 6: 9, 7: 31}, 2),
    ({5: 2, 6: 7, 7: 32}, 1),
    ({5: 3, 6: 5, 7: 33}, 0),
]


class TestTotalDefect:
    def test_reference_distributions(self):
        for counts, want in FIVE_AT_41:
            dist = DegreeDistribution.from_dict(counts)
            rep = total_defect(dist, 11, 41, 138)
            assert rep.defect == want, counts
            assert rep.feasible
            assert rep.eliminated_by is None

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError):
            total_defect(DegreeDistribution.from_dict({6: 23}), 11, 41, 69)

    def test_edge_sum_mismatch(self):
        with pytest.raises(ValueError):
            total_defect(DegreeDistribution.from_dict({6: 11, 7: 30}), 11, 41, 137)

    def test_impossible_degree(self):
        # a degree-4 vertex would leave an 18-vertex reduced graph at
        # independence 6, and none exists
        rep = total_defect(DegreeDistribution.from_dict({4: 1, 6: 22}), 7, 23, 68)
        assert rep.defect is None
        assert not rep.feasible
        assert rep.eliminated_by == "impossible-degree:4"
        assert dict(rep.caps)[4] is None

    def test_negative_defect(self):
        rep = total_defect(DegreeDistribution.from_dict({5: 18, 6: 5}), 7, 23, 60)
        assert rep.defect == -130
        assert not rep.feasible
        assert rep.eliminated_by == "negative-defect"

    def test_verdict_is_read_off_caps_and_defect(self):
        dist = DegreeDistribution.from_dict({4: 1, 6: 2})
        cases = [
            (((4, None), (6, None)), None, False, "impossible-degree:4"),
            (((4, 20), (6, None)), None, False, "impossible-degree:6"),
            (((4, 20), (6, 36)), -1, False, "negative-defect"),
            (((4, 20), (6, 36)), 0, True, None),
        ]
        for caps, defect, feasible, eliminated_by in cases:
            rep = DefectReport(dist, caps, defect, ())
            assert (rep.feasible, rep.eliminated_by) == (feasible, eliminated_by), caps

    def test_cap_sources_present(self):
        rep = total_defect(DegreeDistribution.from_dict({5: 2, 6: 21}), 7, 23, 68)
        assert [d for d, _ in rep.cap_sources] == [5, 6]
        assert all(src for _, src in rep.cap_sources)


class TestEnumerateFeasible:
    def test_reference_run(self):
        reports = enumerate_feasible(11, 41, 138)
        assert [r.distribution.as_dict() for r in reports] == [c for c, _ in FIVE_AT_41]
        assert [r.defect for r in reports] == [g for _, g in FIVE_AT_41]
        assert all(r.feasible for r in reports)

    def test_deterministic(self):
        a = enumerate_feasible(11, 41, 138)
        b = enumerate_feasible(11, 41, 138)
        assert [r.distribution for r in a] == [r.distribution for r in b]

    def test_no_refinements_keeps_the_filtered_one(self):
        reports = enumerate_feasible(11, 41, 138, refinements=frozenset())
        dists = [r.distribution.as_dict() for r in reports]
        assert {5: 1, 6: 10, 7: 29, 8: 1} in dists
        assert len(dists) == 6

    def test_unknown_refinement(self):
        with pytest.raises(ValueError, match="^unknown refinements: r9$"):
            enumerate_feasible(11, 41, 138, refinements=frozenset({"r9"}))

    def test_refinement_name_sets(self):
        assert DEFAULT_REFINEMENTS == frozenset({"r1"})
        assert ALL_REFINEMENTS == frozenset({"r1", "r2", "r3"})

    def test_empty_result(self):
        assert enumerate_feasible(7, 23, 60) == []

    def test_report_fields(self):
        reports = enumerate_feasible(7, 23, 68)
        assert len(reports) == 1
        rep = reports[0]
        assert isinstance(rep, DefectReport)
        assert rep.distribution.as_dict() == {5: 2, 6: 21}
        assert rep.defect == 6
        assert rep.caps == ((5, 28), (6, 36))
        assert rep.eliminated_by is None

    def test_stronger_refinements_at_35(self):
        # the documented frontier case one edge below the best known bound:
        # with every refinement on, only the two distributions with four
        # degree-3 vertices survive from the minimum-degree-3 family
        survivors = {
            tuple(sorted(r.distribution.as_dict().items()))
            for r in enumerate_feasible(11, 35, 83, refinements=ALL_REFINEMENTS)
        }
        assert ((3, 4), (4, 1), (5, 30)) in survivors
        assert ((3, 1), (4, 7), (5, 27)) not in survivors
        assert ((3, 2), (4, 5), (5, 28)) not in survivors
        assert ((3, 3), (4, 3), (5, 29)) not in survivors
        # the default refinement alone rejects none of the four
        with_default = {
            tuple(sorted(r.distribution.as_dict().items()))
            for r in enumerate_feasible(11, 35, 83)
        }
        for counts in [
            ((3, 1), (4, 7), (5, 27)),
            ((3, 2), (4, 5), (5, 28)),
            ((3, 3), (4, 3), (5, 29)),
            ((3, 4), (4, 1), (5, 30)),
        ]:
            assert counts in with_default

    def test_r3_rejects_when_no_split_fits_the_budget(self):
        # a degree-2 vertex has second degree at least 2 + 2 = 4, whatever
        # mix of degree-2 and degree-3 neighbours it has, over its budget of 3
        assert feasibility._r3_eliminates(((2, 3), (3, 2)), {2: 3, 3: 9})

    def test_refinements_never_reject_known_graphs(self):
        from trifree.graph import classify

        for g in (w13(), twisted_tesseract()):
            about = classify(g)
            dist = DegreeDistribution.from_graph(g)
            reports = enumerate_feasible(
                about.alpha + 1, g.n, g.edge_count(), refinements=ALL_REFINEMENTS
            )
            assert dist in [r.distribution for r in reports]

    def test_reports_share_caps_and_sources_per_support(self):
        # a support fixes caps and cap_sources at one edge count: 19,225
        # reports share 317 objects of each, and the list fits in 5 MiB
        default_table()
        tracemalloc.start()
        try:
            reports = enumerate_feasible(13, 43, 109)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = {}
        for rep in reports:
            held.setdefault(rep.caps, set()).add((id(rep.caps), id(rep.cap_sources)))
        assert len(reports) == 19225
        assert len(held) == 317 and all(len(objects) == 1 for objects in held.values())
        assert len({id(rep.cap_sources) for rep in reports}) == 317
        assert peak < 5 * 2**20


def _count_vector(dist, l, n):
    counts = dist.as_dict()
    return tuple(counts.get(d, 0) for d in range(min(l - 1, n - 1) + 1))


def _all_distributions(l, n, e):
    """Every degree multiset over 0..min(l-1, n-1) with n vertices and degree sum 2e."""
    top = min(l - 1, n - 1)

    def rec(d, left_n, left_s):
        if d > top:
            if left_n == 0 and left_s == 0:
                yield {}
            return
        for c in range(left_n + 1):
            if c * d > left_s:
                break
            for rest in rec(d + 1, left_n - c, left_s - c * d):
                yield {d: c, **rest} if c else rest

    for counts in rec(0, n, 2 * e):
        yield DegreeDistribution.from_dict(counts)


@st.composite
def near_floor_cells(draw, n_max):
    """(l, n, e) with e within 4 edges of the best finite lower bound."""
    l = draw(st.integers(2, 9))
    n = draw(st.integers(1, n_max))
    floor = default_table().finite_lower(l, n)
    e = draw(st.integers(max(0, floor - 4), floor + 4))
    return l, n, e


class TestIterFeasible:
    def test_bad_arguments_raise_at_the_call(self):
        with pytest.raises(ValueError):
            iter_feasible(11, 41, 138, refinements={"r9"})
        with pytest.raises(UnknownRegionError):
            iter_feasible(1, 5, 0)
        with pytest.raises(ValueError):
            iter_feasible(5, 5, -1)

    @settings(max_examples=60, deadline=None)
    @given(cell=near_floor_cells(24), refinements=st.sets(st.sampled_from(sorted(ALL_REFINEMENTS))))
    def test_reports_agree_with_total_defect(self, cell, refinements):
        l, n, e = cell
        vectors = []
        for rep in iter_feasible(l, n, e, refinements=refinements):
            raw = total_defect(rep.distribution, l, n, e)
            assert raw.feasible and rep.feasible
            assert (rep.defect, rep.caps, rep.cap_sources) == (raw.defect, raw.caps, raw.cap_sources)
            vectors.append(_count_vector(rep.distribution, l, n))
        assert all(a < b for a, b in zip(vectors, vectors[1:]))

    @settings(max_examples=60, deadline=None)
    @given(cell=near_floor_cells(12))
    def test_unrefined_walk_misses_no_survivor(self, cell):
        # with no refinement, the survivors are exactly the distributions
        # whose raw defect is nonnegative
        l, n, e = cell
        walked = [rep.distribution for rep in iter_feasible(l, n, e, refinements=())]
        brute = [d for d in _all_distributions(l, n, e) if total_defect(d, l, n, e).feasible]
        assert set(walked) == set(brute) and len(walked) == len(brute)


def small_graph_cells():
    """Every cell with l <= 5 whose graphs exist, and l = 6 up to m = 10, the last one slow."""
    for l, last in [(2, 2), (3, 5), (4, 8), (5, 13), (6, 10)]:
        for m in range(1, last + 1):
            marks = [pytest.mark.slow] if (l, m) == (6, 10) else []
            yield pytest.param(l, m, marks=marks, id=f"{l}-{m}")


class TestSoundnessOnEverySmallGraph:
    # every triangle-free graph with alpha < l, one per class, must keep its
    # edge count and degree distribution alive under every refinement

    @pytest.mark.parametrize("l, m", small_graph_cells())
    def test_every_realised_distribution_survives(self, l, m):
        survivors = {}
        rejected = []
        for rows in every_class(l, m):
            degrees = [row.bit_count() for row in rows]
            e = sum(degrees) // 2
            if e not in survivors:
                survivors[e] = {r.distribution for r in iter_feasible(l, m, e, refinements=ALL_REFINEMENTS)}
            dist = DegreeDistribution.from_dict(Counter(degrees))
            if dist not in survivors[e]:
                rejected.append((e, str(dist)))
        assert every_class(l, m)
        assert not rejected


def _best_gain(degs, contrib, v, s):
    """Largest sum x_j * contrib[j] over integers x_j >= 0 with sum x_j = v and
    sum x_j * degs[j] = s, or None when no such x exists."""
    if not degs:
        return 0 if v == 0 and s == 0 else None
    best = None
    for c in range(v + 1):
        if c * degs[0] > s:
            break
        rest = _best_gain(degs[1:], contrib[1:], v - c, s - c * degs[0])
        if rest is not None and (best is None or c * contrib[0] + rest > best):
            best = c * contrib[0] + rest
    return best


def _relaxed_gain(degs, contrib, v, s):
    """The same maximum over real x_j >= 0, or None when infeasible.

    A two-constraint linear program peaks at a vertex with at most two
    nonzero variables, so trying every pair of degrees finds it.
    """
    if v == 0:
        return 0 if s == 0 else None
    gains = [Fraction(v * ca) for a, ca in zip(degs, contrib) if a * v == s]
    for j, (a, ca) in enumerate(zip(degs, contrib)):
        for b, cb in zip(degs[j + 1:], contrib[j + 1:]):
            if a * v <= s <= b * v:
                gains.append(Fraction(ca * (b * v - s) + cb * (s - a * v), b - a))
    return max(gains, default=None)


@st.composite
def hull_cases(draw):
    """A few ascending degrees with integer contributions, and a query (g, v, s)."""
    degs = sorted(draw(st.sets(st.integers(0, 12), min_size=1, max_size=5)))
    contrib = [draw(st.integers(-60, 60)) for _ in degs]
    v = draw(st.integers(0, 7))
    s = draw(st.integers(0, v * degs[-1] + 2))
    g = draw(st.integers(-150, 150))
    return degs, contrib, g, v, s


class TestHullBound:
    @settings(max_examples=400, deadline=None)
    @given(case=hull_cases())
    def test_admits_every_integer_completion(self, case):
        degs, contrib, g, v, s = case
        hulls = feasibility._hulls(degs, contrib)
        assert hulls[-1] == []
        for i, hull in enumerate(hulls):
            fits = feasibility._fits(hull, g, v, s)
            best = _best_gain(degs[i:], contrib[i:], v, s)
            if best is not None and g + best >= 0:
                assert fits
            if v == 0:
                assert fits == (s == 0 and g >= 0)
            # and it is exactly the linear relaxation, never looser
            relaxed = _relaxed_gain(degs[i:], contrib[i:], v, s)
            assert fits == (relaxed is not None and g + relaxed >= 0)

    @settings(max_examples=200, deadline=None)
    @given(case=hull_cases(), k=st.integers(-40, 40), cell=near_floor_cells(24))
    def test_a_shift_moves_the_hulls_without_changing_their_corners(self, case, k, cell):
        # the walk builds its hulls at e = 0 and reads them at every e
        degs, contrib, g, v, s = case
        shifted = feasibility._hulls(degs, [c + k for c in contrib])
        for hull, moved in zip(feasibility._hulls(degs, contrib), shifted):
            assert moved == [(d, c + k) for d, c in hull]
            assert feasibility._fits(moved, g, v, s) == feasibility._fits(hull, g + v * k, v, s)
        l, n, e = cell
        for d in range(min(l - 1, n - 1) + 1):
            cap = degree_cap(l, n, e, d)
            assert degree_cap(l, n, e + abs(k), d) == (None if cap is None else cap + abs(k))

    @settings(max_examples=400, deadline=None)
    @given(case=hull_cases(), k=st.integers(-60, 60), data=st.data())
    def test_a_level_passes_an_interval_of_counts_from_its_start(self, case, k, data):
        # a level of degree d below the hull's degrees, adding k per vertex:
        # the walk starts at the degree-sum floor and backs up at the first
        # failure after a pass, so no passing count may lie outside that run
        degs, contrib, g, v, s = case
        a = degs[0]
        assume(a > 0)
        d = data.draw(st.integers(0, a - 1))
        hull = feasibility._hulls(degs, contrib)[0]
        passing = [
            c for c in range(v + 1) if s - c * d >= 0 and feasibility._fits(hull, g + c * k, v - c, s - c * d)
        ]
        if passing:
            assert passing == list(range(passing[0], passing[-1] + 1))
            assert passing[0] >= max(0, -((s - a * v) // (a - d)))

    def test_collinear_and_dominated_points_leave_the_hull(self):
        hull = feasibility._hulls([0, 1, 2, 3], [0, 1, 2, -5])[0]
        assert hull == [(0, 0), (2, 2), (3, -5)]
        assert feasibility._hulls([4], [7]) == [[(4, 7)], []]

    def test_pinned_beyond_the_brute_force_range(self):
        # past brute-force reach: recorded with an exact search over every
        # vertex count and degree sum, independent of the hull bound
        reports = enumerate_feasible(11, 41, 139)
        h = hashlib.sha256()
        for rep in reports:
            h.update(f"{rep.distribution}|{rep.defect}|{rep.caps}\n".encode())
        assert len(reports) == 1304
        assert h.hexdigest() == "7c610cfa7a9dcfba1fffb159aad0b560589caae5acdfff37db7caecb681e992e"
        assert raise_lower_bound(12, 60) == 263
        assert raise_lower_bound(13, 60) == 240
        assert raise_lower_bound(13, 49) == 157

    @pytest.mark.parametrize(
        "cell, refinements, count, digest",
        [
            ((13, 43, 109), DEFAULT_REFINEMENTS, 19225, "a82dd871fc178553e4c7a904347c0144c0b5c414e5ce61a4685157c24cab938c"),
            ((11, 41, 139), ALL_REFINEMENTS, 991, "ca24cbfd717b6491dafaa46858f345fdb336b7c0eff42d64d6343c1c6704032a"),
        ],
        ids=["13-43-109-r1", "11-41-139-all"],
    )
    def test_pinned_whole_reports(self, cell, refinements, count, digest):
        # every field of every report, cap_sources included, as the walk
        # built them before survivors shared their prefix tuples
        h = hashlib.sha256()
        reports = enumerate_feasible(*cell, refinements=refinements)
        for rep in reports:
            h.update(repr(rep).encode() + b"\n")
        assert len(reports) == count
        assert h.hexdigest() == digest


class TestRaiseLowerBound:
    def test_stops_at_the_first_survivor(self, monkeypatch):
        built = []

        class CountedReport(DefectReport):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                built.append(1)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(feasibility, "DefectReport", CountedReport)
        value = raise_lower_bound(10, 34)
        assert value == 99
        scanned = value - default_table().finite_lower(10, 34) + 1
        assert 0 < len(built) <= scanned

    def test_reference_point(self):
        assert raise_lower_bound(7, 23) == 68

    def test_insensitive_to_refinements_here(self):
        assert raise_lower_bound(7, 23, refinements=frozenset()) == 68

    def test_small_exact_cases(self):
        assert raise_lower_bound(4, 8) == 10
        assert raise_lower_bound(6, 17) == 40
        assert raise_lower_bound(5, 3) == 0

    def test_infinite_when_no_distribution_fits(self):
        assert raise_lower_bound(3, 6) == INF
        assert raise_lower_bound(4, 9) == INF
        assert raise_lower_bound(5, 14) == INF
        assert raise_lower_bound(6, 18) == INF

    @pytest.mark.parametrize("l, n, name", [(3, 6, "r9"), (4, 9, "bogus"), (7, 23, "r9")])
    def test_unknown_refinement_raises_even_when_nothing_is_scanned(self, l, n, name):
        # (3, 6) and (4, 9) start past their last edge count, so no edge count is walked
        with pytest.raises(ValueError, match=f"^unknown refinements: {name}$"):
            raise_lower_bound(l, n, refinements={name})

    @pytest.mark.parametrize("l, n, want", [(8, 29, INF), (10, 42, 189), (7, 23, 69)])
    def test_one_shot_refinements_apply_at_every_edge_count(self, l, n, want):
        names = ["r1", "r2", "r3"]
        assert raise_lower_bound(l, n, refinements=names) == want
        assert raise_lower_bound(l, n, refinements=iter(names)) == want

    def test_pinned_over_an_order_grid(self):
        # every (l, n) with l 3..14 and n 1..80, most of it past the table,
        # under no refinement, the default one and all three
        h = hashlib.sha256()
        for refinements in ((), DEFAULT_REFINEMENTS, ALL_REFINEMENTS):
            for l in range(3, 15):
                for n in range(1, 81):
                    h.update(f"{raise_lower_bound(l, n, refinements=refinements)}\n".encode())
        assert h.hexdigest() == "c76addcab5ed761fcf5b0194b25349417fdf613278d19d2163c8c53d77695dfa"

    def test_domain(self):
        with pytest.raises(UnknownRegionError):
            raise_lower_bound(1, 5)
        with pytest.raises(ValueError):
            raise_lower_bound(5, 0)
