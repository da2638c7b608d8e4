import math
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import trifree.oracle as oracle
from trifree.bounds import STATUS_EXACT, STATUS_INFINITE, STATUS_OPEN, STATUS_RANGE, BoundsTable, EBound, default_table
from trifree.constructions import circulant, twisted_tesseract, w13
from trifree.graph import Graph, GraphClass, classify, is_triangle_free, write_graph6
from trifree.oracle import (
    DEFAULT_BUDGET,
    CrossReport,
    InconclusiveError,
    OracleMismatchError,
    canonical_key,
    clear_cache,
    cross_validate,
    min_edges_exhaustive,
    naive_min_edges,
)

from helpers import brute_alpha, complete_bipartite, cycle, graphs, random_triangle_free

INF = math.inf

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
        c5 = [0b00110, 0b01001, 0b10001, 0b00010, 0b00100]
        padded = list(c5) + [0, 0]
        k5 = canonical_key(c5, 5)
        k7 = canonical_key(padded, 7)
        assert k5[0] == 5 and k7[0] == 7
        assert k5[1:] == k7[1:]


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


def induced(g, mask):
    verts = [v for v in range(g.n) if mask >> v & 1]
    index = {v: i for i, v in enumerate(verts)}
    return Graph(len(verts), [(index[u], index[v]) for u, v in g.edges() if u in index and v in index])


class TestAlphaScan:
    @settings(max_examples=300, deadline=None)
    @given(g=graphs(12), data=st.data())
    def test_restricted_scan_matches_brute_force(self, g, data):
        # the search scans the parent outside a child's neighbourhood, starting
        # from the parent's alpha minus one; best may be -1 at the empty parent
        avail = data.draw(st.integers(0, (1 << g.n) - 1))
        best = data.draw(st.integers(-1, 12))
        assert oracle._alpha_scan(g.adj, avail, best) == max(best, brute_alpha(induced(g, avail)))


class TestExhaustive:
    @pytest.mark.parametrize(
        "l, n, value, nodes, keyed, graph6",
        [(6, 11, 8, 7352, 3319, b"J?AA@?Oa?W?"), (7, 12, 6, 3398, 1416, b"K??CA?_C?O?_")],
    )
    def test_cold_search_pinned(self, monkeypatch, l, n, value, nodes, keyed, graph6):
        # the key classes, and so the search order, witnesses and node counts,
        # must not depend on how canonical_key computes its keys; keyed counts
        # the labelled children the search had to key
        calls = []
        original = oracle.canonical_key

        def counted(adj, n):
            calls.append(n)
            return original(adj, n)

        monkeypatch.setattr(oracle, "canonical_key", counted)
        clear_cache()
        res = min_edges_exhaustive(l, n)
        assert (res.value, res.nodes, len(calls), write_graph6(res.witness)) == (value, nodes, keyed, graph6)

    @pytest.mark.parametrize(
        "l, n, value, nodes, graph6",
        [(4, 8, 10, 1115, b"GCQb`o"), (5, 10, 10, 7073, b"I?`DA_gD?"), (8, 13, 6, 4442, b"L??CA?_C?O?_??")],
    )
    def test_search_pinned(self, l, n, value, nodes, graph6):
        # values and witnesses recorded before the search reused its parents'
        # twins and alpha must not move; nodes counts the children built,
        # one per twin-minimal neighbourhood kept below independence l
        clear_cache()
        res = min_edges_exhaustive(l, n)
        assert (res.value, res.nodes, write_graph6(res.witness)) == (value, nodes, graph6)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "l, n, value, nodes, graph6",
        [
            (5, 12, 20, 81363, b"K?`DAaSY@YBo"),
            (6, 12, 11, 48924, b"K?AA@AOQ?g@O"),
            (6, 13, 15, 462694, b"L?AA@AOQ?gDOAo"),
        ],
    )
    def test_larger_search_pinned(self, l, n, value, nodes, graph6):
        clear_cache()
        try:
            res = min_edges_exhaustive(l, n)
        finally:
            clear_cache()
        assert (res.value, res.nodes, write_graph6(res.witness)) == (value, nodes, graph6)

    def test_budget_message_pinned(self):
        clear_cache()
        try:
            with pytest.raises(InconclusiveError) as info:
                min_edges_exhaustive(6, 11, budget=5000)
        finally:
            clear_cache()
        assert str(info.value) == "budget 5000 exhausted while settling order 11 at independence 6"

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


class TestCrossValidate:
    def test_small_window_clean(self):
        report = cross_validate(4, 9)
        assert isinstance(report, CrossReport)
        assert len(report.entries) == 3 * 9
        assert report.all_ok()
        lines = report.lines()
        assert lines[0] == "l=2 n=1: oracle 0, table 0: ok"
        assert "l=4 n=9: oracle inf, table ∞: ok" in lines

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
            (10, EBound(10, 10, STATUS_EXACT), True),
            (9, EBound(10, 10, STATUS_EXACT), False),
            (11, EBound(10, 10, STATUS_EXACT), False),
            (INF, EBound(10, 10, STATUS_EXACT), False),
            (INF, EBound(INF, INF, STATUS_INFINITE), True),
            (10, EBound(INF, INF, STATUS_INFINITE), False),
            (9, EBound(10, INF, STATUS_OPEN), False),
            (10, EBound(10, INF, STATUS_OPEN), True),
            (INF, EBound(10, INF, STATUS_OPEN), True),
            (9, EBound(10, 12, STATUS_RANGE), False),
            (10, EBound(10, 12, STATUS_RANGE), True),
            (12, EBound(10, 12, STATUS_RANGE), True),
            (13, EBound(10, 12, STATUS_RANGE), False),
            (INF, EBound(10, 12, STATUS_RANGE), False),
            (9, EBound(10, None, STATUS_RANGE), False),
            (10**6, EBound(10, None, STATUS_RANGE), True),
            (INF, EBound(10, None, STATUS_RANGE), False),
        ],
    )
    def test_consistency_on_both_sides_of_each_bound(self, value, bound, ok):
        assert oracle._consistent(value, bound) is ok
