from fractions import Fraction

import pytest

from trifree.bounds import conjectured_lower, lower_bound_steeper
from trifree.constructions import (
    PatternSummary,
    circulant,
    pattern_predict,
    twisted_tesseract,
    w13,
)
from trifree.graph import Graph, classify, is_triangle_free

from helpers import complete, cycle, petersen


class TestCirculant:
    def test_cycle(self):
        assert circulant(5, (1,)) == cycle(5)
        assert circulant(7, (1,)) == cycle(7)

    def test_antipodal_offset_is_matching(self):
        g = circulant(8, (4,))
        assert g.edge_count() == 4
        assert set(g.degrees()) == {1}

    def test_mixed_offsets(self):
        g = circulant(8, (1, 4))
        assert set(g.degrees()) == {3}
        assert is_triangle_free(g)

    def test_validation(self):
        with pytest.raises(ValueError):
            circulant(2, (1,))
        with pytest.raises(ValueError):
            circulant(8, (0,))
        with pytest.raises(ValueError):
            circulant(8, (5,))
        assert circulant(8, ()) == Graph(8)  # no offsets, no edges

    def test_duplicate_offsets_collapse(self):
        assert circulant(9, (2, 2)) == circulant(9, (2,))


class TestWitnesses:
    def test_thirteen_vertex_witness(self):
        g = w13()
        c = classify(g)
        assert (c.triangle_free, c.alpha, c.n, c.e) == (True, 4, 13, 26)
        assert set(g.degrees()) == {4}
        assert g.second_degrees() == (16,) * 13

    def test_twisted_tesseract(self):
        g = twisted_tesseract()
        c = classify(g)
        assert (c.triangle_free, c.alpha, c.n, c.e) == (True, 5, 16, 32)
        assert set(g.degrees()) == {4}
        # two halves joined by a perfect matching
        cross = [(u, v) for u, v in g.edges() if u < 8 <= v]
        assert len(cross) == 8
        assert sorted(v - 8 for _, v in cross) == list(range(8))


class TestPatternSummary:
    def test_from_graph(self):
        s = PatternSummary.from_graph(petersen())
        assert (s.vertex_count, s.edge_count, s.degree_square_sum) == (10, 15, 90)
        s = PatternSummary.from_graph(Graph(1))
        assert (s.vertex_count, s.edge_count, s.degree_square_sum) == (1, 0, 0)

    def test_from_graph_rejects(self):
        with pytest.raises(ValueError):
            PatternSummary.from_graph(complete(3))  # has a triangle
        star5 = Graph(6, [(0, i) for i in range(1, 6)])
        with pytest.raises(ValueError):
            PatternSummary.from_graph(star5)  # degree 5 exceeds the pattern limit

    def test_validation(self):
        with pytest.raises(ValueError):
            PatternSummary(0, 0, 0)
        with pytest.raises(ValueError):
            PatternSummary(1, 3, 9)  # more than 2t edges
        with pytest.raises(ValueError):
            PatternSummary(4, 4, 15)  # violates q*t >= (2m)^2

    def test_predict_known(self):
        assert pattern_predict(PatternSummary(10, 15, 90)) == (10, 35, 85)
        assert pattern_predict(PatternSummary(1, 0, 0)) == (1, 2, 1)
        assert pattern_predict(PatternSummary(4, 4, 16)) == (4, 12, 20)

    def test_predict_rejects_odd_square_sum(self):
        # degree-square sums of graphs are even; an odd value is a typo
        with pytest.raises(ValueError):
            pattern_predict(PatternSummary(4, 4, 17))

    def test_predict_tracks_steeper_bound(self):
        # the predicted edge count sits exactly sum((d-3)(d-4)/2) above the
        # steeper linear bound, so 3,4-regular-ish patterns achieve equality
        patterns = [
            petersen(),
            circulant(8, (1, 4)),
            circulant(10, (1, 4)),
            w13(),
            twisted_tesseract(),
            cycle(5),
            Graph(1),
        ]
        for t in patterns:
            s = PatternSummary.from_graph(t)
            alpha, n, e = pattern_predict(s)
            assert alpha == t.n
            assert n == 2 * t.n + t.edge_count()
            excess = sum((d - 3) * (d - 4) for d in t.degrees())
            assert excess % 2 == 0
            assert e - lower_bound_steeper(n, alpha) == Fraction(excess, 2)
            if set(t.degrees()) <= {3, 4}:
                assert e == conjectured_lower(n, alpha)
