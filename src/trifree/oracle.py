"""Independent exhaustive oracles for small minimum-edge values.

Two tiers deliberately share no code with the bounds machinery:

* naive_min_edges scans every edge subset on up to 7 vertices.  Slow and
  obviously correct; it exists to check the clever tier.
* min_edges_exhaustive settles each order m in turn.  A generator, _round,
  grows graphs one vertex at a time under an edge target t and yields
  every triangle-free graph on m vertices with alpha below l and at most
  t edges, one per isomorphism class; the first t at which it yields is
  e(l, m).  The targets start at ceil(m e(l, m - 1) / (m - 2)), a floor
  the oracle proves from its own value one order below, never the table.
  Each child is its parent plus one vertex, and the parent settles two
  things: the child's independence number is max(alpha(parent), 1 +
  alpha(parent minus the new vertex's neighbourhood)), so alpha scans only
  that smaller graph, and only until the child is shown to reach
  independence l; and a neighbourhood that uses higher-indexed open twins
  of the parent where lower ones are free would give a child isomorphic
  to one built from the lower ones, so such neighbourhoods are never
  generated.  A child is kept only when its new vertex is in the first
  cell of the child's equitable partition, the refinement canonical_key
  starts from.  That cell holds only vertices of least degree and moves
  with any relabelling, so deleting a first-cell vertex again and again
  leads from any graph back to the empty one through graphs the search
  keeps: the first half of McKay's canonical construction path
  ("Isomorph-free exhaustive generation", 1998).  The kept children of a
  level are bucketed by the quotient of that partition, an isomorphism
  invariant, and canonical_key (equitable refinement plus
  individualisation-refinement, the core of nauty) runs only on children
  whose quotients collide, so most classes are never keyed.  Every target
  and order replays the same levels, so one call memoizes each labelled
  graph's quotient hash (None for one the first-cell rule drops) and the
  canonical key of each graph it had to key; the memos grow with the
  whole call, so only the node budget bounds them.

Values confirmed here feed cross_validate, which compares them against
the published table and re-verifies every witness through the graph-core
classifier (a third, separately written code path).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .bounds import INF, BoundsTable, EBound, default_table
from .graph import Graph, _bits, classify, write_graph6

DEFAULT_BUDGET = 5_000_000


class InconclusiveError(RuntimeError):
    """The search budget ran out before the value was settled."""


class OracleMismatchError(RuntimeError):
    """Oracle value disagrees with the table; carries the witness if any."""

    def __init__(self, message: str, witness: Graph | None = None) -> None:
        super().__init__(message)
        self.witness = witness


class OracleResult(NamedTuple):
    value: int | float
    witness: Graph | None
    nodes: int


# ---------------------------------------------------------------------------
# small helpers shared by both tiers


def _alpha_scan(adj: Sequence[int], avail: int | None = None, best: int = 0, stop: int | None = None) -> int:
    """Larger of best and the independence number of the graph induced by avail.

    avail defaults to every vertex.  Plain take/skip branching on the lowest
    bit; a branch that cannot beat the incumbent best is cut, so a high
    starting incumbent prunes most of the scan.  With stop given the scan
    returns as soon as the incumbent reaches it: the result is exact below
    stop and at least stop otherwise.  Kept intentionally separate from
    graph.independence_number so the two implementations can check each
    other.
    """
    if stop is None:
        stop = len(adj) + 1

    def go(avail: int, size: int) -> None:
        nonlocal best
        while avail:
            if size + avail.bit_count() <= best:
                return
            low = avail & -avail
            v = low.bit_length() - 1
            go(avail & ~(adj[v] | low), size + 1)
            if best >= stop:
                return
            avail ^= low
        if size > best:
            best = size

    go((1 << len(adj)) - 1 if avail is None else avail, 0)
    return best


def _refine(adj: Sequence[int], cells: list[list[int]], queue: list[int]) -> None:
    """Refine the ordered partition cells in place until it is equitable.

    queue holds splitter vertex masks.  Each splitter splits every cell by
    neighbour count into it, fragments in ascending count order, and the
    fragments join the queue.  The first largest fragment is left out: it
    is the split cell minus the others, and the split cell is a splitter
    already (queued, done, or itself the difference of such).  Every step
    depends only on the partition and the counts, so the outcome commutes
    with relabelling.
    """
    m = len(adj)
    while queue and len(cells) < m:
        s = queue.pop()
        out = []
        for cell in cells:
            if len(cell) > 1:
                counts = [(adj[v] & s).bit_count() for v in cell]
                if counts.count(counts[0]) != len(counts):
                    groups: dict[int, list[int]] = {}
                    for v, k in zip(cell, counts):
                        if k in groups:
                            groups[k].append(v)
                        else:
                            groups[k] = [v]
                    frags = [groups[k] for k in sorted(groups)]
                    out += frags
                    big = max(frags, key=len)
                    for frag in frags:
                        if frag is not big:
                            mask = 0
                            for v in frag:
                                mask |= 1 << v
                            queue.append(mask)
                    continue
            out.append(cell)
        cells[:] = out


def _quotient(adj: Sequence[int], cells: list[list[int]]) -> int:
    """Hash of the quotient of the equitable partition cells.

    The quotient is the cell sizes in order, then each cell's neighbour
    count into every cell; cells is equitable, so one vertex per cell gives
    the counts, and every cell must hold one.  _refine commutes with
    relabelling, so isomorphic graphs have equal quotients.
    """
    masks = [sum(1 << v for v in cell) for cell in cells]
    return hash((*map(len, cells), *[(adj[cell[0]] & mask).bit_count() for cell in cells for mask in masks]))


def _certificate(nbrs: Sequence[Sequence[int]], order: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows of the graph with neighbour lists nbrs relabelled so that
    order[i] becomes vertex i."""
    bit = [0] * len(order)  # bit[v] is the mask of v's new label
    for i, v in enumerate(order):
        bit[v] = 1 << i
    rows = []
    for v in order:
        row = 0
        for w in nbrs[v]:
            row |= bit[w]
        rows.append(row)
    return tuple(rows)


def _orbits(m: int, gens: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Least vertex of each vertex's orbit under the group gens generate.

    A generator is given by its moves (v, image of v), fixed points left out.
    """
    root = list(range(m))
    for moves in gens:
        for v, w in moves:
            while root[v] != v:
                v = root[v]
            while root[w] != w:
                w = root[w]
            if v < w:
                root[w] = v
            elif w < v:
                root[v] = w
    for v in range(m):
        root[v] = root[root[v]]
    return root


def _twins(adj: Sequence[int], cell: Sequence[int]) -> bool:
    """Whether the vertices of cell share their open or their closed neighbourhood."""
    row = adj[cell[0]]
    if all(adj[v] == row for v in cell):
        return True
    row |= 1 << cell[0]
    return all(adj[v] | 1 << v == row for v in cell)


def _best_certificate(adj: Sequence[int], cells: list[list[int]]) -> tuple[int, ...]:
    """Largest leaf certificate of the individualisation-refinement tree.

    cells is the equitable partition at the root.  Twins may swap freely,
    so every order inside a cell of twins gives the same certificate: a
    node whose cells all hold twins (singletons included) is a leaf.  Any
    other node individualises each vertex of its first cell not of twins
    in turn, and refines with that singleton as the only splitter.

    Two leaves with equal certificates give an automorphism mapping one
    root path onto the other, so the later leaf's subtree below their
    common ancestor repeats certificates already seen: the search jumps
    back to that ancestor.  The automorphisms found so far that fix a
    node's path pointwise prune its children to one per orbit.
    """
    m = len(adj)
    # every leaf's certificate reads these neighbour lists; a _bits generator
    # per row would cost the oracle's small graphs more than their leaves save
    nbrs = []
    for row in adj:
        ws = []
        while row:
            low = row & -row
            ws.append(low.bit_length() - 1)
            row ^= low
        nbrs.append(ws)
    gens: list[tuple[int, list[tuple[int, int]]]] = []  # (mask of moved vertices, moves)
    leaves: list[tuple[tuple[int, ...], list[int], list[int]]] = []  # first and best leaf

    def dive(cells: list[list[int]], path: list[int], fixed: int) -> int:
        """Search below a node; return the depth at which the search resumes."""
        depth = len(path)
        for i, cell in enumerate(cells):
            if len(cell) > 1 and not _twins(adj, cell):
                break
        else:
            order = [v for cell in cells for v in cell]
            cert = _certificate(nbrs, order)
            if not leaves:
                leaves[:] = [(cert, order, path)] * 2
                return depth
            for ref_cert, ref_order, ref_path in leaves:
                if cert == ref_cert:
                    moves = [(a, b) for a, b in zip(ref_order, order) if a != b]
                    moved = 0
                    for a, _ in moves:
                        moved |= 1 << a
                    gens.append((moved, moves))
                    d = 0
                    while path[d] == ref_path[d]:
                        d += 1
                    return d
            if cert > leaves[1][0]:
                leaves[1] = (cert, order, path)
            return depth
        done: set[int] = set()  # orbit representatives of the children searched
        orbit = list(range(m))
        known = 0
        for w in cell:
            if done and known < len(gens):
                known = len(gens)
                orbit = _orbits(m, [moves for moved, moves in gens if not moved & fixed])
                done = {orbit[x] for x in done}
            if orbit[w] in done:
                continue
            done.add(orbit[w])
            child = cells[:i] + [[w], [v for v in cell if v != w]] + cells[i + 1 :]
            _refine(adj, child, [1 << w])
            back = dive(child, path + [w], fixed | 1 << w)
            if back < depth:
                return back
        return depth

    dive(cells, [], 0)
    return leaves[1][0]


def canonical_key(adj: Sequence[int], n: int) -> tuple:
    """Isomorphism-invariant key: equal keys if and only if isomorphic.

    adj holds the n adjacency rows.  The vertices are refined to an
    equitable ordered partition, which is then searched by
    individualisation-refinement with automorphism pruning (McKay &
    Piperno, "Practical graph isomorphism, II", 2014).  The key is
    (n, *rows), where rows is the largest relabelled adjacency certificate
    over the leaves of the search tree.  The tree, and so the key, does
    not depend on the labelling.  Isolated vertices are twins in a cell of
    their own, so they are never individualised.

    Its root refinement is also the search's vertex invariant and graph
    invariant: _round keeps a child only when the new vertex is in the
    first cell, and keys it only when the quotient of that partition
    collides with another child's at its level.  So a change to _refine
    moves the witnesses the search returns and the graphs it keys, never
    its values.
    """
    cells = [list(range(n))]
    _refine(adj, cells, [(1 << n) - 1])
    return (n, *_best_certificate(adj, cells))


# ---------------------------------------------------------------------------
# tier 1: brute force over all edge subsets


def naive_min_edges(l: int, n: int) -> int | float:
    """Reference value by scanning all 2^C(n,2) graphs; only for n <= 7."""
    if not 1 <= n <= 7:
        raise ValueError(f"naive tier handles 1 <= n <= 7, got n={n}")
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    pairs = list(combinations(range(n), 2))
    bit = {p: 1 << i for i, p in enumerate(pairs)}
    indep_masks = []
    if l <= n:
        for sub in combinations(range(n), l):
            pm = 0
            for p in combinations(sub, 2):
                pm |= bit[p]
            indep_masks.append(pm)
    tri_masks = [
        bit[(a, b)] | bit[(a, c)] | bit[(b, c)]
        for a, b, c in combinations(range(n), 3)
    ]
    best = None
    for mask in range(1 << len(pairs)):
        if best is not None and mask.bit_count() >= best:
            continue
        ok = True
        for pm in indep_masks:
            if mask & pm == 0:
                ok = False
                break
        if ok:
            for tm in tri_masks:
                if mask & tm == tm:
                    ok = False
                    break
        if ok:
            best = mask.bit_count()
            if best == 0:
                break
    return INF if best is None else best


# ---------------------------------------------------------------------------
# tier 2: vertex extension with isomorph rejection


_CACHE: dict[tuple[int, int], tuple[int | float, tuple[int, ...] | None]] = {}


def clear_cache() -> None:
    _CACHE.clear()


def _round(
    l: int,
    m: int,
    t: int,
    floors: Sequence[int],
    counter: list[int],
    budget: int,
    keys: dict[tuple[int, ...], int | None],
    canon: dict[tuple[int, ...], tuple],
) -> Iterator[tuple[int, ...]]:
    """Yield every m-vertex graph with alpha < l and <= t edges, one per class.

    Each yield is the adjacency rows of the first graph of a new class to
    arrive at the last level.  Every level below the last keeps one graph
    per class of the (l, p)-graphs that can still grow within t.

    A state is a parent graph's adjacency rows and its independence number
    ap; one pass over the rows gives the parent's degrees, and they give
    its edge count, its least degree low, the mask must of its vertices of
    degree low, and its eligible vertices, those below degree l - 1.  Its
    children join a new vertex p to each twin-minimal independent set S of
    eligible vertices, the sets of each size in lexicographic order, while
    the edge count plus |S| plus the floors of the orders still to come is
    within t:

    * alpha(child) = max(ap, 1 + alpha(parent - S)), so alpha scans only the
      parent outside S, with ap - 1 as the starting incumbent, and stops
      once it reaches l - 1: the child is rejected either way.
    * Eligible vertices with equal rows (open twins) are never adjacent, and
      swapping two of them is an automorphism of the parent, so a set that
      skips a lower twin for a higher one gives a child isomorphic to one
      that does not.  A vertex joins S only when the eligible open twin
      just below it is in S already.
    * A child is kept only if p is in the first cell of its equitable
      partition, refined by _refine from one cell of all vertices with the
      full vertex mask as the only splitter, as canonical_key starts.  The
      first split is by degree, ascending, and later splits keep the order
      of the fragments, so the first cell holds only vertices of least
      degree.  p has degree |S|, and a parent vertex gains one only if it
      is in S, so |S| is at most cap = low + 1, and a set of size cap must
      hold must; both are applied before any alpha scan.  The sizes stop at
      cap, or sooner when the edge budget or the sets run out: l - 1 is
      below cap only when no vertex is eligible.  The empty parent has
      low = -1, so it admits only the empty set.

    counter counts the children built, those that pass the alpha test.
    Dropping p when it is not in the first cell loses no class.  Take any
    graph F with at most t edges and alpha < l, and delete a first-cell
    vertex again and again.  Each graph on that chain is an induced
    subgraph of F, so it passes the edge test, the degree cap and the alpha
    test of its level.  Its neighbourhood is made twin-minimal by twin
    swaps, which are parent automorphisms fixing p, so they keep p in the
    first cell; and each refinement step depends only on the partition and
    the counts, so relabelling a graph permutes its first cell with it.  So
    the chain is found level by level up to isomorphism, and F's class is
    yielded.

    A kept child joins the next level, or is yielded, only if it is
    isomorphic to none before it.  Children are bucketed by the hash of
    their quotient (_quotient), which isomorphic graphs share: a child
    alone in its bucket is new, and one that shares a bucket is compared
    with the bucket's children by canonical_key.  Each class is kept, or
    yielded, at its first child to arrive, so the buckets change nothing
    the search returns.

    keys maps labelled adjacency tuples to the hash of their quotient, or
    to None for a child dropped by the first-cell rule, and canon maps the
    children that shared a bucket to their canonical keys, so a replayed
    round neither refines nor keys a child twice.  Both are shared by
    every round of one search.
    """
    kmax = l - 1
    states: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for p in range(m):
        rem = m - p - 1
        below = (1 << p) - 1
        nxt: list[tuple[tuple[int, ...], int]] = []
        buckets: dict[int, list[tuple[int, ...]]] = {}  # quotient hash -> one child per class
        for rows, ap in states:
            degs = [row.bit_count() for row in rows]
            edges = sum(degs) // 2
            low = min(degs, default=-1)
            cap = low + 1
            must = 0
            # eligible vertices, each with the mask of its open twin just below, or 0
            elig = []
            last: dict[int, int] = {}
            for v, d in enumerate(degs):
                if d == low:
                    must |= 1 << v
                if d < kmax:
                    elig.append((v, last.get(rows[v], 0)))
                    last[rows[v]] = 1 << v
            level = [0]
            size = 0
            while edges + size + floors[rem] <= t:
                if size == cap:
                    level = [smask for smask in level if smask & must == must]
                for smask in level:
                    a2 = 1 + _alpha_scan(rows, below & ~smask, ap - 1, kmax)
                    if a2 >= l:
                        continue
                    counter[0] += 1
                    if counter[0] > budget:
                        raise InconclusiveError(
                            f"budget {budget} exhausted while settling order {m} at independence {l}"
                        )
                    child = list(rows)
                    for v in _bits(smask):
                        child[v] |= 1 << p
                    child.append(smask)
                    labelled = tuple(child)
                    if labelled in keys:
                        quot = keys[labelled]
                    else:
                        cells = [list(range(p + 1))]
                        _refine(child, cells, [(1 << p + 1) - 1])
                        quot = keys[labelled] = _quotient(child, cells) if p in cells[0] else None
                    if quot is None:
                        continue
                    reps = buckets.get(quot)
                    if reps is None:
                        buckets[quot] = [labelled]
                    else:
                        for g in (labelled, *reps):
                            if g not in canon:
                                canon[g] = canonical_key(g, p + 1)
                        key = canon[labelled]
                        if any(canon[g] == key for g in reps):
                            continue
                        reps.append(labelled)
                    if rem:
                        nxt.append((labelled, a2))
                    else:
                        yield labelled
                if size == cap:
                    break
                bigger = []
                for smask in level:
                    start = smask.bit_length()
                    for v, twin in elig:
                        if v >= start and rows[v] & smask == 0 and smask & twin == twin:
                            bigger.append(smask | (1 << v))
                if not bigger:
                    break
                level = bigger
                size += 1
        states = nxt


def _solve(
    l: int,
    m: int,
    counter: list[int],
    budget: int,
    keys: dict[tuple[int, ...], int | None],
    canon: dict[tuple[int, ...], tuple],
) -> tuple[int | float, tuple[int, ...] | None]:
    if m == 0:
        return 0, ()
    floors = [_CACHE[(l, r)][0] for r in range(m)]
    start = int(floors[-1])
    if m >= 3:
        # summing e(G - v) over all v counts each edge m - 2 times
        start = -(-m * start // (m - 2))
    tmax = min(m * (l - 1) // 2, m * m // 4)
    for t in range(start, tmax + 1):
        rows = next(_round(l, m, t, floors, counter, budget, keys, canon), None)
        if rows is not None:
            return t, rows
    return INF, None


def min_edges_exhaustive(l: int, n: int, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact minimum edge count at independence below l on n vertices.

    Climbs the orders m = 0..n.  At each, the edge target starts at the
    floor proved from e(l, m - 1) and rises until _round yields a graph:
    that graph is minimal, and it is the witness.  Values and witnesses
    are memoized per (l, m) up to the first order with no graph, where the
    climb stops; nodes counts only the work done by this call.  The memos
    of _round live for this call only, so memory too is bounded only
    through budget.  budget caps nodes, the children built: one per
    twin-minimal neighbourhood that gives the new vertex the least degree
    and keeps the child below independence l.  It must be nonnegative.
    """
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    counter = [0]
    keys: dict[tuple[int, ...], int | None] = {}
    canon: dict[tuple[int, ...], tuple] = {}
    for m in range(n + 1):
        if (l, m) not in _CACHE:
            _CACHE[(l, m)] = _solve(l, m, counter, budget, keys, canon)
        value, wadj = _CACHE[(l, m)]
        if value == INF:
            # no graph at order m means none at any larger order either
            break
    witness = None
    if wadj is not None:
        witness = Graph.from_adj(list(wadj))
    return OracleResult(value=value, witness=witness, nodes=counter[0])


# ---------------------------------------------------------------------------
# cross-validation against the table


class CrossEntry(NamedTuple):
    l: int
    n: int
    value: int | float
    bound: EBound

    @property
    def ok(self) -> bool:
        return self.bound.admits(self.value)


class CrossReport(NamedTuple):
    entries: tuple[CrossEntry, ...]
    nodes: int

    def all_ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    def lines(self) -> list[str]:
        out = []
        for entry in self.entries:
            val = "inf" if entry.value == INF else str(entry.value)
            mark = "ok" if entry.ok else "MISMATCH"
            out.append(f"l={entry.l} n={entry.n}: oracle {val}, table {entry.bound.display()}: {mark}")
        return out


def cross_validate(
    l_max: int,
    n_max: int,
    table: BoundsTable | None = None,
    budget: int = DEFAULT_BUDGET,
) -> CrossReport:
    """Compare the oracle against the table on every cell l <= l_max, n <= n_max.

    Every finite witness is re-verified through the graph-core classifier.
    Any inconsistency raises OracleMismatchError with the witness attached;
    the returned report lists every cell checked.  The window must hold a
    cell and budget must be nonnegative.
    """
    if l_max < 2 or n_max < 1:
        raise ValueError(f"need l_max >= 2 and n_max >= 1, got {l_max} and {n_max}")
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    if table is None:
        table = default_table()
    entries = []
    nodes = 0
    for l in range(2, l_max + 1):
        for n in range(1, n_max + 1):
            res = min_edges_exhaustive(l, n, budget)
            nodes += res.nodes
            bound = table.bound(l, n)
            ok = bound.admits(res.value)
            if ok and res.value != INF:
                cls = classify(res.witness)
                if not cls.matches(l, n, res.value):
                    raise OracleMismatchError(
                        f"witness for ({l},{n}) fails re-verification: "
                        f"alpha={cls.alpha} n={cls.n} e={cls.e} "
                        f"graph6={write_graph6(res.witness).decode('ascii')}",
                        witness=res.witness,
                    )
            entries.append(CrossEntry(l=l, n=n, value=res.value, bound=bound))
            if not ok:
                g6 = ""
                if res.witness is not None:
                    g6 = " witness " + write_graph6(res.witness).decode("ascii")
                raise OracleMismatchError(
                    f"cell ({l},{n}): oracle {res.value} contradicts table {bound.display()}{g6}",
                    witness=res.witness,
                )
    return CrossReport(entries=tuple(entries), nodes=nodes)
