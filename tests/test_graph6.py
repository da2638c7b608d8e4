import random

import networkx as nx
import pytest
from hypothesis import given, settings

from trifree.constructions import w13
from trifree.graph import GRAPH6_HEADER, Graph, Graph6Error, decode_graph6, parse_graph6, write_graph6

from helpers import complete_bipartite, cycle, graphs, random_graph, to_nx


class TestRoundTrip:
    def test_small_known(self):
        assert write_graph6(Graph(0)) == b"?"
        assert write_graph6(Graph(1)) == b"@"
        assert write_graph6(Graph(2)) == b"A?"
        assert write_graph6(Graph(2, [(0, 1)])) == b"A_"
        assert parse_graph6(b"A_") == [Graph(2, [(0, 1)])]
        assert parse_graph6(b"?") == [Graph(0)]

    def test_random(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randrange(0, 21)
            g = random_graph(rng, n, p=rng.random())
            assert parse_graph6(write_graph6(g)) == [g]

    def test_long_form_boundary(self):
        rng = random.Random(12)
        for n in (62, 63, 64, 100, 128):
            g = random_graph(rng, n, p=0.1)
            data = write_graph6(g)
            if n >= 63:
                assert data.startswith(b"~")
            assert parse_graph6(data) == [g]

    @settings(max_examples=200, deadline=None)
    @given(g=graphs(128))
    def test_round_trip_property(self, g):
        data = write_graph6(g)
        # orders up to 62 take one byte, larger ones the 4-byte form
        assert (data[0] == 126) == (g.n > 62)
        assert decode_graph6(data) == g
        assert parse_graph6(data) == [g]
        assert parse_graph6(GRAPH6_HEADER + data + b"\n") == [g]

    def test_decode_one_record(self):
        g = w13()
        assert decode_graph6(write_graph6(g)) == g
        assert decode_graph6(b">>graph6<<" + write_graph6(g)) == g
        with pytest.raises(Graph6Error, match=r"\(line 7\)"):
            decode_graph6(b"A", where=" (line 7)")
        with pytest.raises(Graph6Error, match="^empty graph6 record$"):
            decode_graph6(b">>graph6<<")

    def test_multi_line_and_header(self):
        chunk = b">>graph6<<A_\nA?\n\nDhc\n"
        graphs = parse_graph6(chunk)
        assert len(graphs) == 3
        assert graphs[0] == Graph(2, [(0, 1)])
        assert graphs[1] == Graph(2)

    def test_string_input(self):
        assert parse_graph6("A_") == [Graph(2, [(0, 1)])]


class TestAgainstNetworkx:
    def test_encoding_matches(self):
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randrange(1, 30)
            g = random_graph(rng, n, p=rng.random())
            ours = write_graph6(g).decode("ascii")
            theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode("ascii").strip()
            assert ours == theirs

    def test_decoding_matches(self):
        rng = random.Random(14)
        for _ in range(150):
            n = rng.randrange(1, 30)
            g = random_graph(rng, n, p=rng.random())
            data = nx.to_graph6_bytes(to_nx(g))  # includes the standard header
            parsed = parse_graph6(data)
            assert parsed == [g]

    def test_named_graphs(self):
        for g in (cycle(5), w13(), complete_bipartite(2, 4)):
            back = nx.from_graph6_bytes(write_graph6(g))
            assert set(back.edges()) == {tuple(e) for e in g.edges()}
            assert back.number_of_nodes() == g.n


class TestErrors:
    def test_truncated(self):
        full = write_graph6(cycle(5))
        with pytest.raises(Graph6Error):
            parse_graph6(full[:-1])

    def test_trailing_garbage(self):
        full = write_graph6(cycle(5))
        with pytest.raises(Graph6Error):
            parse_graph6(full + b"AA")

    def test_bad_alphabet(self):
        with pytest.raises(Graph6Error):
            parse_graph6(b"A\x1f")
        with pytest.raises(Graph6Error):
            parse_graph6(bytes([200, 200]))

    def test_nonzero_padding(self):
        # K2 with an edge sets the top bit; force stray bits in the padding
        with pytest.raises(Graph6Error):
            parse_graph6(b"A~")

    def test_truncated_count(self):
        with pytest.raises(Graph6Error):
            parse_graph6(b"~?")

    def test_too_many_vertices(self):
        # order 129 is one past the supported maximum
        data = bytes([126, 63 + 0, 63 + 2, 63 + 1])
        with pytest.raises(Graph6Error):
            parse_graph6(data + b"?" * 2752)

    def test_eight_byte_form_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6(b"~~" + b"?" * 6)

    def test_line_number_in_error(self):
        full = write_graph6(cycle(5))
        with pytest.raises(Graph6Error, match=r"line 2"):
            parse_graph6(full + b"\n" + full[:-1])

    def test_error_is_value_error(self):
        assert issubclass(Graph6Error, ValueError)

    def test_empty_input(self):
        assert parse_graph6(b"") == []
        assert parse_graph6(b"\n\n") == []
