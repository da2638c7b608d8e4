"""Exact graph primitives on adjacency bitsets.

Vertices are labeled 0..n-1 and every adjacency row is a Python int used
as a bitset, so the hot operations (common neighborhoods, independence
tests, triangle checks) are single AND/popcount steps.  Graphs are
immutable after construction and safe to share; a graph only keeps the
answer of its first triangle test, so that the test runs once.

Triangle-freeness is deliberately not a construction invariant: the
verifier has to be able to load arbitrary graphs.  Operations that only
make sense on triangle-free input say so and assert it in debug mode.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

MAX_VERTICES = 128

GRAPH6_HEADER = b">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    The zero-vertex graph is allowed; deleting a closed neighborhood can
    empty a graph out entirely.
    """

    __slots__ = ("n", "adj", "_triangle_free")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self._triangle_free = None  # filled in by the first triangle test

    @classmethod
    def from_adj(cls, adj: Sequence[int]) -> "Graph":
        """Build from raw adjacency bitmasks; symmetry and loops are checked."""
        n = len(adj)
        g = cls(n)
        mask_all = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~mask_all:
                raise ValueError(f"adjacency row {v} has bits outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(adj):
            for w in _bits(row):
                if not (adj[w] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {w}")
        g.adj = tuple(adj)
        return g

    # basic accessors

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def second_degrees(self) -> tuple[int, ...]:
        """Sum of the neighbours' degrees of every vertex, as the sum over
        degrees d of d times the number of neighbours of degree d: one
        popcount per degree class instead of a step per neighbour."""
        classes: dict[int, int] = {}
        for v, row in enumerate(self.adj):
            d = row.bit_count()
            classes[d] = classes.get(d, 0) | 1 << v
        return tuple(sum(d * (row & mask).bit_count() for d, mask in classes.items()) for row in self.adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for off in _bits(rest):
                out.append((u, u + 1 + off))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.edge_count()})"


class GraphClass(NamedTuple):
    """Classification record: what kind of graph is this.

    A caller asking "is g a witness for (l, n, e)?" tests matches(l, n, e),
    which requires triangle-freeness and independence number below l.
    """

    triangle_free: bool
    alpha: int
    n: int
    e: int

    def matches(self, l: int, n: int, e: int) -> bool:
        return self.triangle_free and self.alpha < l and self.n == n and self.e == e

    @property
    def slack(self) -> int | None:
        """The linear invariant e - 6n + 13*alpha; None when there is a triangle."""
        return self.e - 6 * self.n + 13 * self.alpha if self.triangle_free else None


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are mutually adjacent."""
    return _triangle_free(g)


def _triangle_free(g: Graph) -> bool:
    """The triangle test, run once per graph: classify asks it, and so does
    independence_number, which uses two facts that hold only without
    triangles."""
    known = g._triangle_free
    if known is None:
        known = g._triangle_free = _scan_triangle_free(g.adj)
    return known


def _scan_triangle_free(adj: Sequence[int]) -> bool:
    for u, row in enumerate(adj):
        rest = row >> (u + 1)
        base = u + 1
        while rest:
            low = rest & -rest
            if row & adj[base + low.bit_length() - 1]:
                return False
            rest ^= low
    return True


def _clique_cover(adj: Sequence[int], avail: int) -> int:
    """Size of a clique cover of avail, an upper bound on its independence number.

    Each clique meets an independent set in at most one vertex.  The cover
    is greedy.  When all its cliques are edges and single vertices (always so
    without triangles) the edges form a matching, and each path u-a-b-w
    from a single vertex through a matched edge {a, b} to another single
    vertex trades the three cliques {u}, {a, b} and {w} for the two edges
    ua and bw.
    """
    cover = 0
    singles = 0
    pairs: list[tuple[int, int]] | None = []
    rest = avail
    while rest:
        cover += 1
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        cand = adj[v] & rest
        if not cand:
            singles |= low
            continue
        wlow = cand & -cand
        rest ^= wlow
        w = wlow.bit_length() - 1
        cand &= adj[w]
        if pairs is not None:
            if cand:
                pairs = None
            else:
                pairs.append((v, w))
        while cand:
            wlow = cand & -cand
            rest ^= wlow
            cand &= adj[wlow.bit_length() - 1]
    if pairs and singles:
        for a, b in pairs:
            u = adj[a] & singles
            if u:
                u &= -u
                w = adj[b] & singles & ~u
                if w:
                    singles ^= u | (w & -w)
                    cover -= 1
    return cover


def independence_number(g: Graph) -> int:
    """Exact independence number via branch and bound on bitsets.

    The incumbent starts from a greedy independent set that always takes
    a vertex of least remaining degree.  Each node takes vertices of
    degree at most one (always optimal), prunes with a clique cover of
    the rest, and branches on a maximum-degree vertex: either exclude it,
    or include it and delete its closed neighborhood.  The reduction pass
    that takes nothing has seen every degree, so it also names that
    vertex.  Without triangles two facts come free: that vertex's
    neighbourhood is independent, so it raises the incumbent, and every
    clique is at most an edge, so the cover is computed only when half of
    the remaining vertices could not beat the incumbent anyway.  Always
    exact; intended for n <= 128.
    """
    adj = g.adj
    triangle_free = _triangle_free(g)
    best = 0
    avail = (1 << g.n) - 1
    while avail:
        v = min(_bits(avail), key=lambda u: (adj[u] & avail).bit_count())
        avail &= ~(adj[v] | 1 << v)
        best += 1

    def bb(avail: int, size: int) -> None:
        nonlocal best
        while True:
            changed = False
            v_pick, d_pick = -1, 1
            scan = avail
            while scan:
                low = scan & -scan
                scan ^= low
                if not avail & low:
                    continue
                v = low.bit_length() - 1
                nb = adj[v] & avail
                if nb & (nb - 1) == 0:
                    # degree at most one: taking v is always optimal
                    avail &= ~(low | nb)
                    size += 1
                    changed = True
                elif not changed:
                    d = nb.bit_count()
                    if d > d_pick:
                        v_pick, d_pick = v, d
            if not changed:
                break
        if avail == 0:
            if size > best:
                best = size
            return
        count = avail.bit_count()
        if size + count <= best:
            return
        if triangle_free:
            # v_pick's neighbourhood is independent, and cliques of at most
            # two vertices need at least half as many as avail has vertices
            if size + d_pick > best:
                best = size + d_pick
            if size + (count + 1) // 2 <= best and size + _clique_cover(adj, avail) <= best:
                return
        elif size + _clique_cover(adj, avail) <= best:
            return
        vbit = 1 << v_pick
        bb(avail & ~(adj[v_pick] | vbit), size + 1)
        bb(avail & ~vbit, size)

    bb((1 << g.n) - 1, 0)
    return best


def classify(g: Graph) -> GraphClass:
    return GraphClass(
        triangle_free=is_triangle_free(g),
        alpha=independence_number(g),
        n=g.n,
        e=g.edge_count(),
    )


def edge_slack(g: Graph) -> int:
    """classify(g).slack; nonnegative on triangle-free graphs."""
    slack = classify(g).slack
    if slack is None:
        # raised explicitly so that python -O keeps the check
        raise AssertionError("edge_slack is only meaningful on triangle-free graphs")
    return slack


def find_induced_k24(g: Graph):
    """First induced complete bipartite K_{2,4}, or None.

    Returns ((a1, a2), (b1, b2, b3, b4)): the a-side is a nonadjacent pair,
    the b-side four of their pairwise-nonadjacent common neighbors, both
    the first in lexicographic order.  In a triangle-free graph both
    independence conditions are automatic, but they are checked here so
    arbitrary graphs can be probed too.  The b-side is found by branch and
    bound on bitsets, pruned by a greedy clique cover, so dense common
    neighbourhoods cost no scan of every 4-subset.
    """
    adj = g.adj

    def first(avail: int, need: int) -> tuple[int, ...] | None:
        # lexicographically first need pairwise nonadjacent vertices of avail:
        # take the lowest vertex or skip it, cut when too few vertices are left
        # or a greedy clique cover of them is too small
        if need == 0:
            return ()
        while avail.bit_count() >= need and _clique_cover(adj, avail) >= need:
            low = avail & -avail
            v = low.bit_length() - 1
            avail ^= low
            rest = first(avail & ~adj[v], need - 1)
            if rest is not None:
                return (v, *rest)
        return None

    for a1 in range(g.n):
        for a2 in range(a1 + 1, g.n):
            if not (adj[a1] >> a2) & 1:
                quad = first(adj[a1] & adj[a2], 4)
                if quad is not None:
                    return ((a1, a2), quad)
    return None


# graph6 I/O, bit-exact per the published format description.
# Column-major upper triangle; 6-bit groups offset by 63; optional
# ">>graph6<<" header; one graph per line.  Both directions hold the bit
# stream as one int whose bit k is the stream's k-th bit, so column j,
# the pairs (0, j) .. (j-1, j), is a j-bit slice equal to the low bits
# of adj[j].

_ALPHABET = bytes(range(63, 127))
# graph6 byte -> its six bits, first bit first; the value of six bits -> byte
_DIGIT_BITS = ("",) * 63 + tuple(format(v, "06b") for v in range(64))
_BITS_DIGIT = {bits: 63 + v for v, bits in enumerate(_DIGIT_BITS[63:])}


def _encode_count(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    # the 4-byte form covers everything up to our 128-vertex cap
    return bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])


def write_graph6(g: Graph) -> bytes:
    """Encode one graph as a graph6 line (no trailing newline)."""
    stream = 0
    pos = 0
    for j in range(1, g.n):
        stream |= (g.adj[j] & ((1 << j) - 1)) << pos
        pos += j
    width = -(-pos // 6) * 6
    # format writes the last stream bit first, so reversed its string is
    # the stream, zero padded to whole digits
    bits = format(stream, f"0{width}b")[::-1] if width else ""
    return _encode_count(g.n) + bytes([_BITS_DIGIT[bits[k:k + 6]] for k in range(0, width, 6)])


def decode_graph6(line: bytes, where: str = "") -> Graph:
    """Decode one graph6 record, with or without the >>graph6<< header.

    The line must already be stripped of whitespace.  where is appended
    to every error message, e.g. " (line 7)".
    """
    s = line
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise Graph6Error(f"empty graph6 record{where}")
    bad = s.translate(None, _ALPHABET)
    if bad:
        raise Graph6Error(f"byte {bad[0]} outside graph6 alphabet{where}")
    if s[0] == 126:
        if len(s) >= 2 and s[1] == 126:
            raise Graph6Error(f"8-byte vertex counts not supported{where}")
        if len(s) < 4:
            raise Graph6Error(f"truncated vertex count{where}")
        n = ((s[1] - 63) << 12) | ((s[2] - 63) << 6) | (s[3] - 63)
        body = s[4:]
    else:
        n = s[0] - 63
        body = s[1:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} exceeds {MAX_VERTICES}{where}")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(body) < need:
        raise Graph6Error(f"truncated bit stream ({len(body)} of {need} bytes){where}")
    if len(body) > need:
        raise Graph6Error(f"trailing data after bit stream{where}")
    stream = int("".join(map(_DIGIT_BITS.__getitem__, body))[::-1], 2) if body else 0
    if stream >> npairs:
        raise Graph6Error(f"nonzero padding bits{where}")
    adj = [0] * n
    for j in range(1, n):
        col = stream & ((1 << j) - 1)
        stream >>= j
        adj[j] |= col
        # mirror each pair (i, j) into row i
        jbit = 1 << j
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= jbit
            col ^= low
    g = Graph(n)
    g.adj = tuple(adj)
    return g


def parse_graph6(data: bytes | str) -> list[Graph]:
    """Parse graph6 text, one graph per line.  Empty input gives []."""
    if isinstance(data, str):
        data = data.encode("ascii")
    graphs = []
    for no, raw in enumerate(data.split(b"\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        graphs.append(decode_graph6(line, where=f" (line {no})"))
    return graphs
