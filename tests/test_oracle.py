import hashlib
import json
import math
import random
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import trifree.oracle as oracle
from trifree.bounds import BoundsTable, EBound, default_table
from trifree.constructions import circulant, twisted_tesseract, w13
from trifree.graph import Graph, GraphClass, classify, is_triangle_free, write_graph6
from trifree.oracle import (
    DEFAULT_BUDGET,
    CrossEntry,
    CrossReport,
    InconclusiveError,
    OracleMismatchError,
    canonical_key,
    clear_cache,
    cross_validate,
    min_edges_exhaustive,
    naive_min_edges,
)

from helpers import brute_alpha, complete_bipartite, cycle, every_class, graphs, induced, random_triangle_free

INF = math.inf
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


class TestNaive:
    def test_spot_values(self):
        assert naive_min_edges(2, 1) == 0
        assert naive_min_edges(2, 2) == 1
        assert naive_min_edges(2, 3) == INF
        assert naive_min_edges(3, 3) == 1
        assert naive_min_edges(3, 4) == 2
        assert naive_min_edges(3, 5) == 5
        assert naive_min_edges(3, 6) == INF
        assert naive_min_edges(3, 7) == INF
        assert naive_min_edges(4, 5) == 2
        assert naive_min_edges(4, 7) == 6

    def test_trivially_zero_when_l_exceeds_n(self):
        assert naive_min_edges(8, 7) == 0
        assert naive_min_edges(5, 4) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            naive_min_edges(3, 0)
        with pytest.raises(ValueError):
            naive_min_edges(3, 8)
        with pytest.raises(ValueError):
            naive_min_edges(1, 5)


def all_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def relabelled(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestCanonicalKey:
    # unlabeled triangle-free graph counts on n = 1..6 vertices
    COUNTS = {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38}

    def test_class_counts(self):
        for n, want in self.COUNTS.items():
            keys = {
                canonical_key(g.adj, g.n)
                for g in all_graphs(n)
                if is_triangle_free(g)
            }
            assert len(keys) == want, n

    def test_relabel_invariance(self):
        rng = random.Random(20260818)
        for _ in range(120):
            n = rng.randint(1, 12)
            g = random_triangle_free(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(g.adj, n) == canonical_key(relabelled(g, perm).adj, n)

    def test_isolated_vertices_affect_only_order(self):
        # C5 plus two isolated vertices keys alike wherever they sit, and
        # apart from C5 plus a disjoint edge on the same seven vertices
        c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        keys = set()
        for isolated in combinations(range(7), 2):
            spots = [v for v in range(7) if v not in isolated]
            keys.add(canonical_key(Graph(7, [(spots[u], spots[v]) for u, v in c5]).adj, 7))
        assert len(keys) == 1
        with_edge = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)])
        assert canonical_key(with_edge.adj, 7) not in keys

    def test_keys_pinned(self):
        # the keys themselves, not only their equalities: a rewrite of the
        # certificate or the search tree must give the same largest leaf
        pinned = {
            "W13": w13(),
            "tesseract": twisted_tesseract(),
            "3xC5": disjoint_union([cycle(5)] * 3),
            "20xK2": Graph(40, [(2 * i, 2 * i + 1) for i in range(20)]),
        }
        digests = {name: hashlib.sha256(repr(canonical_key(g.adj, g.n)).encode()).hexdigest() for name, g in pinned.items()}
        assert digests == {
            "W13": "d165eb86fa7b863164fc3fbc2cad7f840365de42d0c77a5db5afc87aa2b135d5",
            "tesseract": "77fde4864e16d5619d771a71711d9ab2113b931717171617fc0ed044a923ba3f",
            "3xC5": "d3e1b2fc33c5827db188834dc56ba19c29b868835c4703f373ca16fec7554d9c",
            "20xK2": "de881d146517578376d95f987e081e5aa5a2879de697782936a4e75408315620",
        }


def andrasfai(k):
    n = 3 * k - 1
    return circulant(n, range(1, n // 2 + 1, 3))


def disjoint_union(parts):
    edges, offset = [], 0
    for g in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph(offset, edges)


# families whose large automorphism groups exercise the search's pruning,
# alone and in disjoint unions, where components of one degree share a cell
SYMMETRIC_PART = st.one_of(
    st.integers(1, 8).map(lambda k: Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])),
    st.tuples(st.integers(1, 7), st.integers(1, 7)).map(lambda ab: complete_bipartite(*ab)),
    st.integers(3, 20).map(cycle),
    st.integers(2, 7).map(andrasfai),
    st.sampled_from([w13(), twisted_tesseract()]),
)
SYMMETRIC = st.lists(SYMMETRIC_PART, min_size=1, max_size=3).map(disjoint_union).filter(lambda g: g.n <= 40)


@pytest.fixture(scope="module")
def triangle_free_classes():
    """One representative per isomorphism class of triangle-free graphs, n = 1..8.

    Each order extends every representative of the order below by a vertex
    joined to an independent set, and keeps the first graph of each key.
    """
    reps = {1: [(0,)]}
    for n in range(1, 8):
        found = {}
        for adj in reps[n]:
            for nbhd in range(1 << n):
                if any(nbhd >> v & 1 and adj[v] & nbhd for v in range(n)):
                    continue
                child = [row | (nbhd >> v & 1) << n for v, row in enumerate(adj)] + [nbhd]
                found.setdefault(canonical_key(child, n + 1), tuple(child))
        reps[n + 1] = list(found.values())
    return reps


class TestCanonicalKeyAgainstNetworkx:
    def test_atlas_keys_distinct_and_relabel_invariant(self):
        rng = random.Random(1301)
        keys = set()
        atlas = nx.graph_atlas_g()
        assert len(atlas) == 1253
        for h in atlas:
            g = Graph(h.number_of_nodes(), h.edges())
            key = canonical_key(g.adj, g.n)
            keys.add(key)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(relabelled(g, perm).adj, g.n) == key
        assert len(keys) == len(atlas)

    def test_triangle_free_class_counts(self, triangle_free_classes):
        # OEIS A006785
        counts = {n: len(reps) for n, reps in triangle_free_classes.items()}
        assert counts == {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107, 8: 410}

    def test_representatives_pairwise_non_isomorphic(self, triangle_free_classes):
        by_degrees = {}
        for adj in triangle_free_classes[8]:
            g = Graph.from_adj(adj)
            h = nx.empty_graph(g.n)
            h.add_edges_from(g.edges())
            by_degrees.setdefault(tuple(sorted(g.degrees())), []).append(h)
        for group in by_degrees.values():
            for a, b in combinations(group, 2):
                assert not nx.is_isomorphic(a, b)

    @settings(max_examples=150, deadline=None)
    @given(g=SYMMETRIC, data=st.data())
    def test_relabel_invariance_symmetric_families(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        assert canonical_key(relabelled(g, perm).adj, g.n) == canonical_key(g.adj, g.n)


class TestAlphaScan:
    @settings(max_examples=300, deadline=None)
    @given(g=graphs(12), data=st.data())
    def test_restricted_scan_matches_brute_force(self, g, data):
        # the search scans the parent outside a child's neighbourhood, starting
        # from the parent's alpha minus one; best may be -1 at the empty parent.
        # With stop the scan is exact below stop and at least stop otherwise
        avail = data.draw(st.integers(0, (1 << g.n) - 1))
        best = data.draw(st.integers(-1, 12))
        stop = data.draw(st.none() | st.integers(0, g.n + 1))
        result = oracle._alpha_scan(g.adj, avail, best, stop)
        want = max(best, brute_alpha(induced(g, avail)))
        if stop is None:
            assert result == want
        else:
            assert min(result, stop) == min(want, stop)

    def test_scan_returns_once_the_incumbent_reaches_stop(self):
        # a path with its middle vertex lowest: the first branch takes the
        # middle, an independent set of one, and alpha is 2
        path = [0b110, 0b001, 0b001]
        assert [oracle._alpha_scan(path, None, 0, stop) for stop in (None, 3, 2, 1)] == [2, 2, 2, 1]


def equitable(adj):
    """The equitable partition, refined as canonical_key starts."""
    cells = [list(range(len(adj)))]
    oracle._refine(adj, cells, [(1 << len(adj)) - 1])
    return cells


def first_cell(adj):
    return set(equitable(adj)[0])


def quotient(adj):
    return oracle._quotient(adj, equitable(adj))


class TestLeastInvariant:
    # the search keeps a child only when its new vertex is in the first cell

    @settings(max_examples=200, deadline=None)
    @given(g=graphs(12), data=st.data())
    def test_relabelling_maps_the_first_cell(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        assert first_cell(relabelled(g, perm).adj) == {perm[v] for v in first_cell(g.adj)}

    @settings(max_examples=200, deadline=None)
    @given(g=graphs(12))
    def test_first_cell_holds_only_least_degree(self, g):
        degs = g.degrees()
        assert {degs[v] for v in first_cell(g.adj)} <= {min(degs, default=0)}


class TestQuotient:
    # the search keys a child only when its quotient collides with another's

    @settings(max_examples=200, deadline=None)
    @given(g=graphs(12).filter(lambda g: g.n), data=st.data())
    def test_relabelling_keeps_the_quotient(self, g, data):
        # a child always has a vertex, so the empty graph is never quotiented
        perm = data.draw(st.permutations(range(g.n)))
        assert quotient(relabelled(g, perm).adj) == quotient(g.adj)

    def test_equal_keys_give_equal_quotients(self, triangle_free_classes):
        # every labelled extension of the 107 classes at n = 7, so each of
        # the 410 classes at n = 8 arrives in many labellings
        quotients = {}
        for adj in triangle_free_classes[7]:
            for nbhd in range(1 << 7):
                if any(nbhd >> v & 1 and adj[v] & nbhd for v in range(7)):
                    continue
                child = [row | (nbhd >> v & 1) << 7 for v, row in enumerate(adj)] + [nbhd]
                quotients.setdefault(canonical_key(child, 8), set()).add(quotient(child))
        assert len(quotients) == 410
        assert all(len(found) == 1 for found in quotients.values())


def oracle_fixture_cells():
    """Cells of the recorded value fixture, with the slow ones marked.

    The values were recorded before the search dropped children whose new
    vertex is not of least invariant.  Each slow cell costs over half a
    second on top of the cells below it, and each ends its column, so no
    cell left in the default run has to climb through one.
    """
    slow = {(5, 12), (6, 12), (7, 14)}
    values = json.loads((FIXTURES / "oracle_values.json").read_text())["values"]
    for l, column in values.items():
        for n, value in enumerate(column):
            marks = [pytest.mark.slow] if (int(l), n) in slow else []
            yield pytest.param(int(l), n, INF if value is None else value, marks=marks, id=f"{l}-{n}")


class TestExhaustive:
    @pytest.mark.parametrize(
        "l, n, value, nodes, keyed, graph6",
        [
            pytest.param(6, 11, 8, 1593, 128, b"JqK?G?@???_", id="6-11"),
            pytest.param(7, 12, 6, 728, 33, b"K`?G?C??G??@", id="7-12"),
        ],
    )
    def test_cold_search_pinned(self, monkeypatch, l, n, value, nodes, keyed, graph6):
        # the key classes, and so the search order, witnesses and node counts,
        # must not depend on how canonical_key computes its keys; keyed counts
        # the labelled children the search had to key, those whose quotient
        # collides with another child's at their level.  Witnesses and keyed
        # counts depend on _refine's partition, which picks the children kept
        # and their quotients; values never do
        calls = []
        original = oracle.canonical_key

        def counted(adj, n):
            calls.append(n)
            return original(adj, n)

        monkeypatch.setattr(oracle, "canonical_key", counted)
        clear_cache()
        res = min_edges_exhaustive(l, n)
        assert (res.value, res.nodes, len(calls), write_graph6(res.witness)) == (value, nodes, keyed, graph6)

    @pytest.mark.parametrize("l, n", [(6, 11), (7, 12), (4, 8), (5, 10), (8, 13)])
    def test_keying_every_child_changes_nothing(self, monkeypatch, l, n):
        # with one quotient for all, every child collides and is keyed: the
        # buckets only skip keys, they never change what the search keeps
        clear_cache()
        want = min_edges_exhaustive(l, n)
        monkeypatch.setattr(oracle, "_quotient", lambda adj, cells: 0)
        clear_cache()
        try:
            assert min_edges_exhaustive(l, n) == want
        finally:
            clear_cache()

    @pytest.mark.parametrize(
        "l, n, value, nodes, graph6",
        [
            pytest.param(4, 8, 10, 359, b"Gr_Y@C", id="4-8"),
            pytest.param(5, 10, 10, 1500, b"IqK?GGA?W", id="5-10"),
            pytest.param(8, 13, 6, 883, b"L`?G?C??G??@??", id="8-13"),
            pytest.param(9, 14, 6, 1039, b"M`?G?C??G??@?????", id="9-14"),
            # R(3, 5) = 14, from the search alone: e(5, 13) = 26 puts the
            # floor of order 14 at 31, past the 28 edges any graph there may have
            pytest.param(5, 14, INF, 21636, None, id="5-14"),
            pytest.param(5, 12, 20, 13940, b"Kr_[IO`OGO_X", id="5-12", marks=pytest.mark.slow),
            pytest.param(5, 13, 26, 21636, b"Lr_[IObP@AaPAL", id="5-13", marks=pytest.mark.slow),
            pytest.param(6, 12, 11, 8428, b"KqK?GGA?W??@", id="6-12", marks=pytest.mark.slow),
            pytest.param(6, 13, 15, 84290, b"Lr_Y@C??G@?A?B", id="6-13", marks=pytest.mark.slow),
        ],
    )
    def test_search_pinned(self, l, n, value, nodes, graph6):
        # nodes counts the children built: one per twin-minimal neighbourhood
        # that gives the new vertex the least degree and stays below independence l
        clear_cache()
        try:
            res = min_edges_exhaustive(l, n)
        finally:
            clear_cache()
        found = None if res.witness is None else write_graph6(res.witness)
        assert (res.value, res.nodes, found) == (value, nodes, graph6)

    @pytest.mark.parametrize("l, n, value", oracle_fixture_cells())
    def test_recorded_value(self, l, n, value):
        # the cells share the memo, so each column is climbed once
        res = min_edges_exhaustive(l, n)
        assert res.value == value
        if value == INF:
            assert res.witness is None
        else:
            assert classify(res.witness).matches(l, n, value)

    def test_budget_message_pinned(self):
        clear_cache()
        try:
            with pytest.raises(InconclusiveError) as info:
                min_edges_exhaustive(6, 11, budget=1000)
        finally:
            clear_cache()
        assert str(info.value) == "budget 1000 exhausted while settling order 11 at independence 6"

    def test_negative_budget_rejected_before_the_cache(self):
        min_edges_exhaustive(4, 8)
        with pytest.raises(ValueError, match="need budget >= 0, got -5"):
            min_edges_exhaustive(4, 8, budget=-5)
        with pytest.raises(ValueError, match="need budget >= 0, got -1"):
            cross_validate(3, 4, budget=-1)

    def test_reference_value_and_witness(self):
        res = min_edges_exhaustive(4, 8)
        assert res.value == 10
        about = classify(res.witness)
        assert about.matches(4, 8, 10)

    def test_nonexistence(self):
        res = min_edges_exhaustive(4, 9)
        assert res.value == INF
        assert res.witness is None

    def test_stops_at_the_first_order_with_no_graph(self):
        # R(3,4) = 9, so the climb ends at order 9 however large n is
        clear_cache()
        res = min_edges_exhaustive(4, 10**8)
        assert res.value == INF
        assert res.witness is None
        assert not [m for l, m in oracle._CACHE if l == 4 and m > 9]

    def test_memoized(self):
        min_edges_exhaustive(4, 8)
        again = min_edges_exhaustive(4, 8)
        assert again.value == 10
        assert again.nodes == 0

    def test_budget_exhaustion(self):
        clear_cache()
        try:
            with pytest.raises(InconclusiveError, match="budget 3 exhausted"):
                min_edges_exhaustive(4, 8, budget=3)
        finally:
            clear_cache()

    def test_witness_deterministic(self):
        clear_cache()
        first = write_graph6(min_edges_exhaustive(4, 8).witness)
        clear_cache()
        second = write_graph6(min_edges_exhaustive(4, 8).witness)
        assert first == second

    def test_empty_order(self):
        res = min_edges_exhaustive(5, 0)
        assert res.value == 0
        assert res.witness is not None
        assert res.witness.n == 0

    def test_agrees_with_naive(self):
        for l in range(2, 6):
            for n in range(1, 7):
                assert min_edges_exhaustive(l, n).value == naive_min_edges(l, n), (l, n)

    def test_domain(self):
        with pytest.raises(ValueError):
            min_edges_exhaustive(1, 5)
        with pytest.raises(ValueError):
            min_edges_exhaustive(3, -1)


class TestEveryClass:
    # _round at the largest edge target yields each class of the cell once

    def test_yields_every_class_once(self, triangle_free_classes):
        for m, reps in triangle_free_classes.items():
            alphas = {canonical_key(adj, m): brute_alpha(Graph.from_adj(list(adj))) for adj in reps}
            for l in range(2, m + 2):
                keys = [canonical_key(rows, m) for rows in every_class(l, m)]
                assert len(set(keys)) == len(keys), (l, m)
                assert set(keys) == {key for key, alpha in alphas.items() if alpha < l}, (l, m)

    def test_class_counts_pinned(self):
        assert [len(every_class(4, m)) for m in range(1, 9)] == [1, 2, 3, 6, 9, 15, 9, 3]
        assert (len(every_class(5, 11)), len(every_class(5, 12))) == (105, 12)


class TestCrossValidate:
    def test_small_window_clean(self):
        report = cross_validate(4, 9)
        assert isinstance(report, CrossReport)
        assert len(report.entries) == 3 * 9
        assert report.all_ok()
        lines = report.lines()
        assert lines[0] == "l=2 n=1: oracle 0, table 0: ok"
        assert "l=4 n=9: oracle inf, table ∞: ok" in lines

    def test_cold_window_pinned(self):
        # every cell of the window settled from a cold cache, as one call
        clear_cache()
        try:
            report = cross_validate(5, 10)
        finally:
            clear_cache()
        assert (len(report.entries), report.nodes, report.all_ok()) == (40, 1979, True)

    def test_table_claiming_nonexistence_too_early(self):
        # shrink the l=4 horizon so the table calls the 8-vertex cell
        # impossible; the oracle's 10-edge witness contradicts it
        ramsey = dict(RAMSEY)
        ramsey[4] = (8, 8)
        lying = BoundsTable(ramsey, [])
        with pytest.raises(OracleMismatchError) as info:
            cross_validate(4, 8, table=lying)
        assert info.value.witness is not None
        assert classify(info.value.witness).matches(4, 8, 10)

    def test_table_claiming_existence_too_long(self):
        # stretch the l=4 horizon past the truth; the table then asserts a
        # 9-vertex graph exists and the oracle proves otherwise
        ramsey = dict(RAMSEY)
        ramsey[4] = (10, 10)
        lying = BoundsTable(ramsey, [])
        with pytest.raises(OracleMismatchError) as info:
            cross_validate(4, 9, table=lying)
        assert info.value.witness is None

    def test_default_table_used(self):
        report = cross_validate(3, 6, table=default_table())
        assert report.all_ok()

    @pytest.mark.parametrize(
        "args, budget, message",
        [
            ((1, 5), -1, "need l_max >= 2 and n_max >= 1, got 1 and 5"),
            ((3, 0), DEFAULT_BUDGET, "need l_max >= 2 and n_max >= 1, got 3 and 0"),
        ],
    )
    def test_domain(self, args, budget, message):
        # checked before any search, so an empty window cannot pass vacuously
        with pytest.raises(ValueError, match=message):
            cross_validate(*args, budget=budget)

    def test_witness_failing_reverification(self, monkeypatch):
        # a classifier that puts alpha at n passes the one-vertex cell, then
        # must stop the run at the first witness it rejects, carrying that witness
        monkeypatch.setattr(oracle, "classify", lambda g: GraphClass(True, g.n, g.n, g.edge_count()))
        with pytest.raises(OracleMismatchError, match=r"witness for \(2,2\) fails re-verification") as info:
            cross_validate(3, 4)
        assert classify(info.value.witness).matches(2, 2, 1)

    @pytest.mark.parametrize(
        "value, bound, ok",
        [
            (10, EBound(10, 10), True),
            (9, EBound(10, 10), False),
            (11, EBound(10, 10), False),
            (INF, EBound(10, 10), False),
            (INF, EBound(INF, INF), True),
            (10, EBound(INF, INF), False),
            (9, EBound(10, INF), False),
            (10, EBound(10, INF), True),
            (INF, EBound(10, INF), True),
            (9, EBound(10, 12), False),
            (10, EBound(10, 12), True),
            (12, EBound(10, 12), True),
            (13, EBound(10, 12), False),
            (INF, EBound(10, 12), False),
            (9, EBound(10, None), False),
            (10**6, EBound(10, None), True),
            (INF, EBound(10, None), False),
        ],
    )
    def test_consistency_on_both_sides_of_each_bound(self, value, bound, ok):
        assert bound.admits(value) is ok
        assert CrossEntry(3, 5, value, bound).ok is ok
