"""Named witness graphs and the vertex-extension counting pattern.

The circulants here are the workhorses: W13 = circulant(13, {1, 5}) is the
classical 4-regular witness with independence number 4, and the twisted
tesseract glues two copies of circulant(8, {1, 4}) along a shifted perfect
matching to get 16 vertices, 32 edges and independence number 5.

pattern_predict turns a small "extension pattern" summary into the
parameters of the graph grown from it: pattern vertices become the
independent core, every pattern vertex gets a private neighbor pair, and
each pattern edge contributes a connector vertex.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .graph import MAX_VERTICES, Graph, is_triangle_free


def circulant(n: int, offsets: Iterable[int]) -> Graph:
    """Circulant graph: vertex v is joined to v +- s (mod n) for each offset s.

    Offsets must lie in 1..n/2; the antipodal offset n/2 (n even) yields a
    single edge per vertex pair and is counted once.
    """
    if n < 3:
        raise ValueError(f"circulant needs at least 3 vertices, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    offs = sorted(set(int(s) for s in offsets))
    for s in offs:
        if not 1 <= s <= n // 2:
            raise ValueError(f"offset {s} out of range 1..{n // 2}")
    edges = []
    for v in range(n):
        for s in offs:
            edges.append((v, (v + s) % n))
    return Graph(n, edges)


def w13() -> Graph:
    """The 13-vertex, 26-edge circulant with offsets {1, 5}."""
    return circulant(13, (1, 5))


def twisted_tesseract() -> Graph:
    """Two copies of circulant(8, {1, 4}) joined by the matching i -> 5i mod 8.

    16 vertices, 32 edges, 4-regular, triangle-free, independence number 5.
    """
    base = circulant(8, (1, 4))
    edges = []
    for u in range(8):
        for v in base.neighbors(u):
            if u < v:
                edges.append((u, v))
                edges.append((8 + u, 8 + v))
    for i in range(8):
        edges.append((i, 8 + (5 * i) % 8))
    return Graph(16, edges)


class PatternSummary(namedtuple("PatternSummary", ("vertex_count", "edge_count", "degree_square_sum"))):
    """Counting summary of an extension pattern.

    vertex_count, edge_count and the sum of squared degrees are all the
    prediction needs; the pattern graph itself can be forgotten.  The
    admissibility checks reject summaries no triangle-free pattern with
    max degree 4 could produce.
    """

    __slots__ = ()

    def __new__(cls, vertex_count: int, edge_count: int, degree_square_sum: int) -> PatternSummary:
        t, m, q = vertex_count, edge_count, degree_square_sum
        if t < 1:
            raise ValueError("pattern needs at least one vertex")
        if m < 0 or q < 0:
            raise ValueError("negative pattern counts")
        if m > 2 * t:
            # max degree 4 forces e <= 4t/2
            raise ValueError(f"inadmissible pattern: {m} edges on {t} vertices exceeds degree-4 budget")
        if q * t < (2 * m) ** 2:
            # Cauchy-Schwarz on the degree sequence
            raise ValueError("inadmissible pattern: degree squares too small for the edge count")
        return super().__new__(cls, t, m, q)

    @classmethod
    def from_graph(cls, g: Graph) -> "PatternSummary":
        if not is_triangle_free(g):
            raise ValueError("extension patterns must be triangle-free")
        degs = g.degrees()
        if degs and max(degs) > 4:
            raise ValueError("extension patterns must have maximum degree 4")
        return cls(g.n, g.edge_count(), sum(d * d for d in degs))


def pattern_predict(pattern: PatternSummary) -> tuple[int, int, int]:
    """Parameters (alpha, n, e) of the graph grown from an extension pattern.

    alpha = t, n = 2t + m, e = t + 2m + q/2 for a pattern with t vertices,
    m edges and squared-degree sum q.  q is always even for a real degree
    sequence; an odd q is rejected rather than rounded.
    """
    t, m, q = pattern.vertex_count, pattern.edge_count, pattern.degree_square_sum
    if q % 2:
        raise ValueError("degree square sum must be even (degree sums always are)")
    return (t, 2 * t + m, t + 2 * m + q // 2)
