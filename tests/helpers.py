"""Shared test utilities: reference graphs and brute-force checks."""

import random
from functools import lru_cache
from itertools import combinations

import networkx as nx
from hypothesis import strategies as st

from trifree.graph import Graph
from trifree.oracle import DEFAULT_BUDGET, _round, min_edges_exhaustive


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def brute_alpha(g: Graph) -> int:
    """Independence number by scanning all vertex subsets.  Only for n <= 16."""
    best = 0
    for mask in range(1 << g.n):
        ok = True
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if g.adj[v] & mask:
                ok = False
                break
            m ^= low
        if ok and mask.bit_count() > best:
            best = mask.bit_count()
    return best


def induced(g: Graph, mask: int) -> Graph:
    """Subgraph induced by the vertices in mask, relabelled in ascending order."""
    verts = [v for v in range(g.n) if mask >> v & 1]
    index = {v: i for i, v in enumerate(verts)}
    return Graph(len(verts), [(index[u], index[v]) for u, v in g.edges() if u in index and v in index])


def scan_k24(g: Graph):
    """Reference for find_induced_k24: scan every 4-subset of each common neighbourhood."""
    adj = g.adj
    for a1 in range(g.n):
        for a2 in range(a1 + 1, g.n):
            if (adj[a1] >> a2) & 1:
                continue
            common = adj[a1] & adj[a2]
            if common.bit_count() < 4:
                continue
            cands = [v for v in range(g.n) if common >> v & 1]
            for quad in combinations(cands, 4):
                if all(not (adj[x] >> y) & 1 for x, y in combinations(quad, 2)):
                    return ((a1, a2), quad)
    return None


@lru_cache(maxsize=None)
def every_class(l: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Adjacency rows of every triangle-free graph on m vertices with alpha < l, one per class.

    The oracle's generator at edge target m(l - 1)/2, which no such graph
    exceeds, with the floors of the smaller orders from the oracle itself.
    """
    floors = [min_edges_exhaustive(l, r).value for r in range(m)]
    return tuple(_round(l, m, m * (l - 1) // 2, floors, [0], DEFAULT_BUDGET, {}, {}))


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [pair for pair in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_triangle_free(rng: random.Random, n: int) -> Graph:
    """Insert shuffled pairs, skipping any whose endpoints share a neighbor."""
    adj = [0] * n
    edges = []
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    density = rng.random()
    for a, b in pairs:
        if adj[a] & adj[b]:
            continue
        if rng.random() > density:
            continue
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        edges.append((a, b))
    return Graph(n, edges)


def maximal_triangle_free(rng: random.Random, n: int) -> Graph:
    """Insert every shuffled pair whose endpoints share no neighbor."""
    adj = [0] * n
    edges = []
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    for a, b in pairs:
        if not adj[a] & adj[b]:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
            edges.append((a, b))
    return Graph(n, edges)


@st.composite
def graphs(draw, max_n: int) -> Graph:
    """Hypothesis strategy: a graph on 0..max_n vertices at any edge density."""
    n = draw(st.integers(0, max_n))
    tenths = draw(st.integers(0, 10))
    return random_graph(random.Random(draw(st.integers(0, 2**32))), n, p=tenths / 10)


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


def double_c5() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    return Graph(10, edges)


def complete(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
