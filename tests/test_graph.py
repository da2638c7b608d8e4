import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from trifree import graph
from trifree.constructions import circulant, twisted_tesseract, w13
from trifree.graph import (
    Graph,
    _clique_cover,
    classify,
    edge_slack,
    find_induced_k24,
    independence_number,
    is_triangle_free,
)
from trifree.oracle import _alpha_scan

from helpers import (
    brute_alpha,
    complete,
    complete_bipartite,
    cycle,
    double_c5,
    graphs,
    induced,
    maximal_triangle_free,
    petersen,
    random_graph,
    random_triangle_free,
    scan_k24,
    to_nx,
)


def nx_alpha(g: Graph) -> int:
    """Clique number of the complement, by networkx."""
    return max((len(c) for c in nx.find_cliques(nx.complement(to_nx(g)))), default=0)


CIRCULANTS = st.integers(5, 32).flatmap(
    lambda n: st.sets(st.integers(1, n // 2), min_size=1, max_size=4).map(lambda offs: circulant(n, offs))
)
MAXIMAL_TRIANGLE_FREE = st.builds(maximal_triangle_free, st.integers(0, 2**32).map(random.Random), st.integers(20, 45))
SMALL_TRIANGLE_FREE = st.builds(random_triangle_free, st.integers(0, 2**32).map(random.Random), st.integers(0, 12))


class TestGraphBasics:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0
        assert g.edge_count() == 0
        assert g.edges() == []

    def test_edge_bookkeeping(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.edge_count() == 3
        assert g.degree(1) == 2
        assert list(g.degrees()) == [1, 2, 2, 1]
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.neighbors(2) == (1, 3)
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(-1)
        with pytest.raises(ValueError):
            Graph(129)
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_from_adj(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert Graph.from_adj(list(g.adj)) == g
        with pytest.raises(ValueError, match="asymmetric adjacency between 0 and 1"):
            Graph.from_adj([2, 0])
        with pytest.raises(ValueError, match=r"adjacency row 0 has bits outside 0\.\.1"):
            Graph.from_adj([4, 0])
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            Graph.from_adj([0, 2])

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 2)])
        assert a != Graph(4, [(0, 1)])


class TestTriangleFree:
    def test_known(self):
        assert is_triangle_free(cycle(5))
        assert is_triangle_free(petersen())
        assert is_triangle_free(complete_bipartite(3, 3))
        assert not is_triangle_free(complete(3))
        assert not is_triangle_free(complete(4))
        assert is_triangle_free(Graph(0))

    def test_classify_scans_once(self, monkeypatch):
        # alpha reads the answer classify's triangle test left on the graph
        calls = []
        scan = graph._scan_triangle_free
        monkeypatch.setattr(graph, "_scan_triangle_free", lambda adj: calls.append(adj) or scan(adj))
        for g in (w13(), complete(4), Graph(0)):
            classify(g)
            independence_number(g)
            assert is_triangle_free(g) == scan(g.adj)
        assert len(calls) == 3

    def test_against_brute(self):
        rng = random.Random(101)
        for _ in range(200):
            g = random_graph(rng, rng.randrange(1, 9))
            brute = any(
                g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
                for a in range(g.n)
                for b in range(a + 1, g.n)
                for c in range(b + 1, g.n)
            )
            assert is_triangle_free(g) == (not brute)


class TestIndependenceNumber:
    def test_known(self):
        assert independence_number(Graph(0)) == 0
        assert independence_number(Graph(6)) == 6
        assert independence_number(complete(7)) == 1
        assert independence_number(cycle(5)) == 2
        assert independence_number(cycle(7)) == 3
        assert independence_number(petersen()) == 4
        assert independence_number(double_c5()) == 4
        assert independence_number(w13()) == 4
        assert independence_number(twisted_tesseract()) == 5
        assert independence_number(complete_bipartite(2, 4)) == 4

    def test_against_brute(self):
        rng = random.Random(202)
        for _ in range(250):
            n = rng.randrange(1, 11)
            g = random_graph(rng, n, p=rng.choice([0.1, 0.3, 0.6, 0.9]))
            assert independence_number(g) == brute_alpha(g)

    def test_sparse_reduction_paths(self):
        # graphs full of degree-0 and degree-1 vertices drive the reduction rules
        rng = random.Random(303)
        for _ in range(150):
            n = rng.randrange(1, 13)
            g = random_graph(rng, n, p=0.08)
            assert independence_number(g) == brute_alpha(g)

    @settings(max_examples=300, deadline=None)
    @given(g=graphs(14))
    def test_matches_brute_force(self, g):
        assert independence_number(g) == brute_alpha(g)

    @settings(max_examples=200, deadline=None)
    @given(g=graphs(22))
    def test_matches_oracle_scan(self, g):
        # the oracle keeps its own alpha so that the two can check each other
        assert independence_number(g) == _alpha_scan(g.adj)

    @settings(max_examples=60, deadline=None)
    @given(g=st.one_of(CIRCULANTS, MAXIMAL_TRIANGLE_FREE))
    def test_matches_networkx(self, g):
        assert independence_number(g) == nx_alpha(g)

    def test_maximal_triangle_free_pinned(self):
        # values recorded with the plain greedy cover, before the
        # triangle-free incumbent and the augmented cover
        rng = random.Random(2501)
        alphas = []
        for n in range(30, 61, 5):
            g = maximal_triangle_free(rng, n)
            alphas.append(independence_number(g))
            assert alphas[-1] == _alpha_scan(g.adj)
        assert alphas == [10, 13, 13, 14, 15, 17, 17]


class TestCliqueCover:
    def test_path_through_a_matched_edge(self):
        # the greedy cover is {0, 1}, {2}, {3}; the path 2-0-1-3 trades
        # those three cliques for the edges 02 and 13
        assert _clique_cover(Graph(4, [(0, 1), (0, 2), (1, 3)]).adj, 0b1111) == 2

    @settings(max_examples=300, deadline=None)
    @given(g=st.one_of(graphs(12), SMALL_TRIANGLE_FREE), data=st.data())
    def test_bounds_alpha(self, g, data):
        avail = data.draw(st.integers(0, (1 << g.n) - 1))
        assert _clique_cover(g.adj, avail) >= brute_alpha(induced(g, avail))


class TestAlphaTimeGuard:
    """Exact alpha on large sparse and symmetric graphs stays fast.

    The whole set takes about 1 s of CPU.  Without the degree-one rule,
    circulant(100, (1, 4)) alone takes about 5 s; branching on the lowest
    vertex instead of a maximum-degree one, about 25 s.  Colour-ordered
    branching (Tomita-style colouring bounds) was faster on the verify
    corpus but did not finish the random tree or circulant(100, (1, 4))
    within 20 s, so it must not replace them.  Two more designs were
    rejected against the 102 maximal triangle-free graphs (n 20-70) of the
    verify benchmark's corpus, where the augmented cover and the two
    triangle-free facts take about 0.2 s: Ostergard's Russian-doll search
    took 0.16 s there but 293 s, against 2 ms, on three triangle-free
    G(80, 0.05) graphs; a bound that packs disjoint 5-cycles (each holds at
    most two independent vertices) halved the nodes but took 0.33 s.  The
    70-vertex maximal triangle-free graph and the dense G(80, 0.5) below
    guard both sides of the triangle test.  With a separate greedy start
    (least remaining degree first, one Python key call per vertex per
    step) each 128-vertex graph here that the search settles in one node
    took 1.1-1.4 ms, and 0.05-0.8 ms without; it was deleted.  Deleting it
    while the include branch still ran first took circulant(100, (1, 4))
    from 0.76 to 0.97 s (25,085 to 41,491 nodes) and circulant(128,
    (1, 10)) from 21 to 45 ms; with the exclude branch first, the first
    dive is the max-degree-deletion greedy and they take 0.68 s and 20 ms.
    C128 and two G(120, 0.05) graphs extend the guard to a long cycle and
    to sparse graphs with triangles above 100 vertices.
    """

    def test_large_graphs(self):
        rng = random.Random(128)
        tree = Graph(128, [(v, rng.randrange(v)) for v in range(1, 128)])
        # Koenig: a bipartite graph's alpha is n minus its maximum matching
        tree_alpha = 128 - len(nx.bipartite.maximum_matching(to_nx(tree))) // 2
        cases = [
            (Graph(128, [(v, v + 1) for v in range(127)]), 64),
            (Graph(128, [(2 * v, 2 * v + 1) for v in range(64)]), 64),
            (complete_bipartite(64, 64), 64),
            (tree, tree_alpha),
            (circulant(100, (1, 4)), 40),
            (circulant(128, (1, 10)), 58),
            (maximal_triangle_free(random.Random(70), 70), 19),
            (random_graph(random.Random(80), 80, p=0.5), 9),
            (cycle(128), 64),
            (random_graph(random.Random(120), 120, p=0.05), 48),
            (random_graph(random.Random(121), 120, p=0.05), 46),
        ]
        start = time.process_time()
        for g, alpha in cases:
            assert independence_number(g) == alpha
        assert time.process_time() - start < 4.0


class TestSecondDegree:
    def test_values(self):
        assert cycle(5).second_degrees() == (4,) * 5
        star = Graph(5, [(0, i) for i in range(1, 5)])
        assert star.second_degrees() == (4,) * 5
        assert w13().second_degrees() == (16,) * 13

    def test_all_at_once_matches_per_vertex(self):
        rng = random.Random(405)
        graphs = [Graph(0), w13(), twisted_tesseract(), Graph(5, [(0, i) for i in range(1, 5)])]
        graphs += [random_graph(rng, rng.randrange(1, 20)) for _ in range(60)]
        for g in graphs:
            assert g.second_degrees() == tuple(sum(g.degree(w) for w in g.neighbors(v)) for v in range(g.n))


def reduced(g, v):
    """Subgraph induced outside the closed neighbourhood of v."""
    return induced(g, ((1 << g.n) - 1) & ~(g.adj[v] | 1 << v))


class TestReducedGraph:
    def test_c5(self):
        h = reduced(cycle(5), 0)
        assert h.n == 2
        assert h.edge_count() == 1

    def test_edge_drop_matches_second_degree(self):
        # in a triangle-free graph a neighbourhood carries no edge, so deleting
        # the closed neighbourhood of v drops exactly v's second degree edges
        rng = random.Random(404)
        graphs = [w13(), twisted_tesseract(), petersen()]
        graphs += [random_triangle_free(rng, rng.randrange(1, 15)) for _ in range(120)]
        for g in graphs:
            seconds = g.second_degrees()
            for v in range(g.n):
                h = reduced(g, v)
                assert h.edge_count() == g.edge_count() - seconds[v]
                assert h.n == g.n - 1 - g.degree(v)


class TestEdgeSlack:
    def test_values(self):
        assert edge_slack(cycle(5)) == 1
        assert edge_slack(w13()) == 0
        assert edge_slack(twisted_tesseract()) == 1
        assert edge_slack(petersen()) == 7

    def test_requires_triangle_free(self):
        with pytest.raises(AssertionError):
            edge_slack(complete(3))

    def test_classify_slack(self):
        rng = random.Random(505)
        cases = [cycle(5), w13(), twisted_tesseract(), petersen(), Graph(0)]
        cases += [random_triangle_free(rng, rng.randrange(1, 15)) for _ in range(60)]
        for g in cases:
            assert classify(g).slack == edge_slack(g)
        assert classify(complete(3)).slack is None


class TestClassify:
    def test_witnesses(self):
        c = classify(w13())
        assert (c.triangle_free, c.alpha, c.n, c.e) == (True, 4, 13, 26)
        c = classify(twisted_tesseract())
        assert (c.triangle_free, c.alpha, c.n, c.e) == (True, 5, 16, 32)

    def test_matches(self):
        c = classify(w13())
        assert c.matches(5, 13, 26)
        assert not c.matches(4, 13, 26)  # alpha 4 is not below 4
        assert not c.matches(5, 13, 25)
        assert not classify(complete(3)).matches(2, 3, 3)


class TestInducedK24:
    def test_positive(self):
        g = complete_bipartite(2, 4)
        hit = find_induced_k24(g)
        assert hit is not None
        (a1, a2), bs = hit
        assert not g.has_edge(a1, a2)
        assert len(set(bs)) == 4
        for b in bs:
            assert g.has_edge(a1, b) and g.has_edge(a2, b)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not g.has_edge(bs[i], bs[j])

    def test_embedded(self):
        # K2,4 plus a pendant path hanging off one side
        g = Graph(8, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (5, 6), (6, 7)])
        assert find_induced_k24(g) is not None

    def test_negative(self):
        assert find_induced_k24(cycle(5)) is None
        assert find_induced_k24(w13()) is None
        assert find_induced_k24(complete_bipartite(2, 3)) is None
        # adding the edge between the two high-degree vertices kills inducedness
        g = Graph(6, [(0, 1)] + [(0, 2 + j) for j in range(4)] + [(1, 2 + j) for j in range(4)])
        assert find_induced_k24(g) is None

    @settings(max_examples=300, deadline=None)
    @given(g=graphs(14))
    def test_matches_subset_scan(self, g):
        assert find_induced_k24(g) == scan_k24(g)

    def test_dense_common_neighbourhoods_time_guard(self):
        # every 4-subset scan is about n^5 on these: minutes at 128 vertices
        cocktail_party = Graph(128, [(u, v) for u in range(128) for v in range(u + 1, 128) if v != u ^ 1])
        # 0 and 1 see three disjoint 42-cliques, which hold no 4 independent vertices
        cliques = [range(2 + 42 * i, 44 + 42 * i) for i in range(3)]
        three_cliques = Graph(
            128,
            [(a, b) for a in (0, 1) for b in range(2, 128)]
            + [(u, v) for c in cliques for u in c for v in c if u < v],
        )
        start = time.process_time()
        assert find_induced_k24(cocktail_party) is None
        assert find_induced_k24(three_cliques) is None
        assert time.process_time() - start < 2.0
