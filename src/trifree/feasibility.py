"""Degree-distribution feasibility via neighborhood-deletion counting.

Deleting the closed neighborhood of a degree-d vertex from a triangle-free
graph with independence below l leaves a triangle-free graph on n - 1 - d
vertices with independence below l - 1, and removes exactly deg2(v) edges
(the sum of the neighbor degrees).  So every degree-d vertex must satisfy
deg2(v) <= cap(d) := e - f(d), where the floor f(d) is any lower bound on
the reduced graph's edges, e(l - 1, n - 1 - d).  Summing the per-vertex
constraint against the cheapest conceivable second degrees gives the defect

    gamma = sum_d n_d * (cap(d) - d^2) = n * e - sum_d n_d * (f(d) + d^2) >= 0,

a necessary condition on the degree distribution (n_d) of any such graph.
A negative defect, or one of the optional refinements below, rules the
distribution out.  iter_feasible walks all distributions with the right
vertex and degree sums and yields the survivors; enumerate_feasible lists
them, and raise_lower_bound bounds e(l, n) from below by scanning edge
counts up to the first one with a survivor.  The walk prunes with the
defect's linear relaxation, the upper concave envelope of (d, -f(d) - d^2),
built once per (l, n): adding e to every point moves each hull without
changing its corners.  At one level of the walk the counts of its degree
that pass this bound form an interval, since the bound is concave along
the line the count moves on and its domain test is linear in the count;
so each level starts at the least count whose degree sum the later
degrees can absorb and stops at the first failure after a pass.  At one
edge count a survivor's support, the degrees it uses, fixes its caps and
cap_sources, so the walk builds the two tuples once per support and each
(degree, count) pair once, and all reports share them: a listing holds one
per distinct support or pair it yielded, not one per report.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from typing import Iterable, Iterator, Mapping, NamedTuple

from .bounds import INF, BoundsTable, default_table

DEFAULT_REFINEMENTS = frozenset({"r1"})


class UnknownRegionError(ValueError):
    """No edge floor is available for the requested reduced graphs."""


class DegreeDistribution(namedtuple("DegreeDistribution", ("counts",))):
    """Degree multiset as ((degree, count), ...) in ascending degree order.

    Absent degrees mean count zero; stored counts are always positive.
    """

    __slots__ = ()

    def __new__(cls, counts: tuple[tuple[int, int], ...]) -> DegreeDistribution:
        last = -1
        for d, c in counts:
            if d <= last:
                raise ValueError("degrees must be strictly ascending")
            if d < 0 or c < 1:
                raise ValueError(f"bad entry ({d},{c}): need degree >= 0, count >= 1")
            last = d
        return super().__new__(cls, counts)

    @classmethod
    def from_dict(cls, mapping: Mapping[int, int]) -> "DegreeDistribution":
        items = []
        for d, c in sorted(mapping.items()):
            if c < 0:
                raise ValueError(f"negative count for degree {d}")
            if c:
                items.append((int(d), int(c)))
        return cls(tuple(items))

    @classmethod
    def from_graph(cls, g) -> "DegreeDistribution":
        return cls.from_dict(Counter(g.degrees()))

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    @property
    def vertex_count(self) -> int:
        return sum(c for _, c in self.counts)

    @property
    def degree_sum(self) -> int:
        return sum(d * c for d, c in self.counts)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{d}:{c}" for d, c in self.counts) + "}"


class DefectReport(NamedTuple):
    """Outcome of the counting test for one distribution.

    caps pair each present degree with its second-degree budget (None when
    the degree is outright impossible), defect is the raw counting slack
    before any refinement (None when some budget is), and cap_sources
    records where each budget's edge floor came from.  The verdict is read
    off caps and defect.
    """

    distribution: DegreeDistribution
    caps: tuple[tuple[int, int | None], ...]
    defect: int | None
    cap_sources: tuple[tuple[int, str], ...]

    @property
    def feasible(self) -> bool:
        """Whether every budget exists and the defect is nonnegative."""
        return self.defect is not None and self.defect >= 0

    @property
    def eliminated_by(self) -> str | None:
        """impossible-degree:d for the first degree without a budget, negative-defect, or None."""
        for d, cap in self.caps:
            if cap is None:
                return f"impossible-degree:{d}"
        return "negative-defect" if self.defect < 0 else None


def _check_order(l: int, n: int, e: int = 0) -> None:
    if l < 2:
        raise UnknownRegionError(f"reduced graphs need l >= 2, got l={l}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if e < 0:
        raise ValueError(f"need e >= 0, got {e}")


def _floor(l: int, n: int, d: int, table: BoundsTable) -> tuple[int | float, str]:
    """Floor f(d) on e(l - 1, n - 1 - d), INF when no such graph exists, and its source."""
    if not 0 <= d <= min(l - 1, n - 1):
        raise ValueError(f"degree {d} outside 0..min(l-1, n-1) = {min(l - 1, n - 1)}")
    m = n - 1 - d
    if m == 0:
        return 0, "trivial"
    if l == 2:
        # a single vertex is already an independent set
        return INF, "trivial"
    cell = table.bound(l - 1, m)
    return cell.lower, ",".join(cell.provenance)


def _budget(e: int, floor: int | float) -> int | None:
    """Every second-degree budget is e - f(d); None when the reduced graph cannot exist."""
    return None if floor == INF else e - floor


def degree_cap(l: int, n: int, e: int, d: int, table: BoundsTable | None = None) -> int | None:
    """Second-degree budget for a degree-d vertex, or None when impossible.

    None means no graph of the reduced order exists at independence l - 1,
    so no vertex of degree d can occur at all.  The budget may be negative;
    that alone already dooms any distribution using the degree.
    """
    if table is None:
        table = default_table()
    _check_order(l, n, e)
    return _budget(e, _floor(l, n, d, table)[0])


def total_defect(
    dist: DegreeDistribution,
    l: int,
    n: int,
    e: int,
    table: BoundsTable | None = None,
) -> DefectReport:
    """Raw counting test for one distribution; refinements are not applied."""
    if table is None:
        table = default_table()
    if dist.vertex_count != n:
        raise ValueError(f"distribution covers {dist.vertex_count} vertices, not {n}")
    if dist.degree_sum != 2 * e:
        raise ValueError(f"distribution degree sum {dist.degree_sum} != 2e = {2 * e}")
    _check_order(l, n, e)
    floors = [(d, *_floor(l, n, d, table)) for d, _ in dist.counts]
    caps = tuple((d, _budget(e, floor)) for d, floor, _ in floors)
    gamma = None
    if all(cap is not None for _, cap in caps):
        gamma = sum(c * (cap - d * d) for (d, c), (_, cap) in zip(dist.counts, caps))
    return DefectReport(dist, caps, gamma, tuple((d, src) for d, _, src in floors))


# ---------------------------------------------------------------------------
# refinements
#
# Each refinement is a further necessary condition on realizable
# distributions; none may ever reject the distribution of an actual
# (l, n, e)-graph.


def _r1_eliminates(present: tuple[tuple[int, int], ...], caps: Mapping[int, int]) -> bool:
    """Single-max-vertex sharpening of the caps.

    A vertex cannot neighbor itself, so when the top degree occurs once,
    the neighbors of that vertex have degrees at most the next class down.
    Every budget also caps at d times the best available neighbor degree.
    """
    delta = present[0][0]
    dmax, cmax = present[-1]
    if cmax == 1:
        # the unique top vertex can only neighbor the next class down
        alt = present[-2][0] if len(present) >= 2 else 0
    else:
        alt = dmax
    gamma_eff = 0
    for d, c in present:
        other = dmax if (cmax >= 2 or d != dmax) else alt
        ecap = min(caps[d], d * other)
        if d * delta > ecap:
            return True
        gamma_eff += c * (ecap - d * d)
    return gamma_eff < 0


def _r2_eliminates(present: tuple[tuple[int, int], ...], caps: Mapping[int, int]) -> bool:
    """Minimum-degree neighbor sufficiency.

    A minimum-degree vertex needs delta neighbors drawn from the other
    vertices; even the cheapest choice of neighbor degrees must fit under
    its budget.
    """
    delta = present[0][0]
    budget = caps[delta]
    take = delta
    total = 0
    for d, c in present:
        avail = c - 1 if d == delta else c
        use = min(avail, take)
        total += use * d
        take -= use
        if take == 0:
            break
    assert take == 0, "degree exceeds vertex count, ruled out earlier"
    return total > budget


def _r3_eliminates(present: tuple[tuple[int, int], ...], caps: Mapping[int, int]) -> bool:
    """Matching bound on edges inside the minimum-degree class.

    If every minimum-degree vertex needs at least q neighbors of minimum
    degree to fit its budget, the class spans at least q*n_delta/2 edges;
    triangle-freeness caps the class at floor(n_delta^2/4) edges.
    """
    delta, cdelta = present[0]
    budget = caps[delta]
    d2 = present[1][0] if len(present) >= 2 else delta
    q = None
    for t in range(delta + 1):
        if t * delta + (delta - t) * d2 <= budget:
            q = t
            break
    if q is None:
        return True
    if q == 0:
        return False
    return q * cdelta > 2 * (cdelta * cdelta // 4)


_REFINEMENT_TESTS = {"r1": _r1_eliminates, "r2": _r2_eliminates, "r3": _r3_eliminates}
ALL_REFINEMENTS = frozenset(_REFINEMENT_TESTS)


def _refinement_tests(refinements: Iterable[str]) -> tuple:
    """Elimination tests of the named refinements; an unknown name raises ValueError."""
    names = frozenset(refinements)
    unknown = names - ALL_REFINEMENTS
    if unknown:
        raise ValueError(f"unknown refinements: {', '.join(sorted(unknown))}")
    return tuple(test for name, test in _REFINEMENT_TESTS.items() if name in names)


def iter_feasible(
    l: int,
    n: int,
    e: int,
    table: BoundsTable | None = None,
    refinements: Iterable[str] = DEFAULT_REFINEMENTS,
) -> Iterator[DefectReport]:
    """Degree distributions the counting test cannot rule out, one at a time.

    Walks every (n_d) with sum n_d = n and sum d*n_d = 2e over the possible
    degrees and yields the reports of those with nonnegative defect that
    survive the enabled refinements, in lexicographic order of the count
    vectors (ascending degrees).  This is the only enumeration of degree
    distributions; a consumer that stops early walks only up to its stop.

    Arguments are checked and the floors and hull bounds built at the call,
    so bad input raises here, not at the first next().
    """
    if table is None:
        table = default_table()
    tests = _refinement_tests(refinements)
    _check_order(l, n, e)
    return _walk(_model(l, n, table), tests, n, e)


def _model(l: int, n: int, table: BoundsTable) -> tuple:
    """What the walk at every edge count of (l, n) reads: possible degrees ascending,
    ({d: f(d)}, {d: source}), their defect terms at e = 0, -f(d) - d^2, and _hulls of those."""
    floors, sources = {}, {}
    for d in range(min(l - 1, n - 1) + 1):
        floor, sources[d] = _floor(l, n, d, table)
        if floor != INF:
            floors[d] = floor
    degs = list(floors)
    contrib = [-floors[d] - d * d for d in degs]
    return degs, (floors, sources), contrib, _hulls(degs, contrib)


def _hulls(degs, contrib) -> list[list[tuple[int, int]]]:
    """hulls[i]: corners of the upper concave envelope H_i of the points
    (degs[j], contrib[j]), j >= i, by ascending degree (degs ascend strictly).

    v vertices of total degree s over degs[i:] add at most v * H_i(s / v).
    """
    hulls = [[]]
    for d, c in zip(reversed(degs), reversed(contrib)):
        h = hulls[-1]
        # drop the next corner while it lies on or below the chord from (d, c)
        while len(h) >= 2 and (h[0][1] - c) * (h[1][0] - d) <= (h[1][1] - c) * (h[0][0] - d):
            h = h[1:]
        hulls.append([(d, c)] + h)
    hulls.reverse()
    return hulls


def _fits(hull, g: int, v: int, s: int) -> bool:
    """Whether g + v * H(s / v) >= 0 for the hull's envelope H; exact at v = 0."""
    if v == 0:
        return s == 0 and g >= 0
    if not hull or not hull[0][0] * v <= s <= hull[-1][0] * v:
        return False
    a, ca = hull[0]
    for b, cb in hull[1:]:
        if s <= b * v:
            # H is the chord from (a, ca) to (b, cb); cross-multiply by b - a
            return (g + v * ca) * (b - a) + (cb - ca) * (s - v * a) >= 0
        a, ca = b, cb
    return g + v * ca >= 0


def _walk(model: tuple, tests: tuple, n: int, e: int) -> Iterator[DefectReport]:
    """Depth-first walk over count vectors, one frame with an explicit stack.

    Level i chooses counts[i], the number of vertices of degree degs[i];
    left_n, left_s and gamma hold the vertices and degree sum still to place
    and n * e plus the defect terms collected on entry to the level.  A child
    is entered only when its hull bound leaves room for a nonnegative defect.
    The bound is exact once every vertex is placed, so a level that places
    the last one ends a count vector (zero for the later degrees) with degree
    sum 2e and gamma >= 0, and ends its level: one more vertex would not fit.

    The counts that pass at one level form an interval: the bound is concave
    along the line the count moves the child on, and its domain test is
    linear in the count.  So a level starts at the least count that leaves
    no more than the later degrees can absorb (each has degree at least
    degs[i + 1]) and backs up at the first failure after a pass.  Each level
    also holds the nonzero (degree, count) pairs placed before it and the
    mask of their degree indices, its support.

    At one edge count the support fixes a report's caps and cap_sources, so
    the two tuples are built at the first report on each support and shared
    by every later one; the (degree, count) pairs of the reports are shared
    the same way.  Each of the two tables holds one entry per distinct
    support or pair among the reports yielded, and nothing else.
    """
    degs, (floors, sources), contrib, hulls = model
    if not _fits(hulls[0], n * e, n, 2 * e):
        return
    caps = {d: e - floor for d, floor in floors.items()}  # _budget, as every floor here is finite
    shared = {}  # support mask -> (caps, cap_sources) of its reports
    pairs = {}  # (degree, count) -> the one such pair the reports hold
    # the counts are ascending and positive by construction, so the reports
    # skip DegreeDistribution's checks
    new_dist = tuple.__new__
    nd = len(degs)
    last = nd - 1
    counts = [0] * nd
    passed = [False] * nd
    left_n = [n] * nd
    left_s = [2 * e] * nd
    gamma = [n * e] * nd
    present = [()] * nd
    support = [0] * nd
    # a level starts one below its least count; the last degree takes every
    # vertex still unplaced, so its level tries that one count only
    counts[0] = n - 1 if last == 0 else max(0, -((2 * e - degs[1] * n) // (degs[1] - degs[0]))) - 1
    i = 0
    while i >= 0:
        c = counts[i] + 1
        d = degs[i]
        vn = left_n[i] - c
        vs = left_s[i] - c * d
        if vn < 0 or vs < 0:
            i -= 1
            continue
        counts[i] = c
        g = gamma[i] + c * contrib[i]
        if not _fits(hulls[i + 1], g, vn, vs):
            if passed[i]:
                i -= 1
            continue
        passed[i] = True
        if vn == 0:
            pres = present[i] + ((d, c),)
            for test in tests:
                if test(pres, caps):
                    break
            else:
                mask = support[i] | 1 << i
                if mask not in shared:
                    shared[mask] = tuple([(a, caps[a]) for a, _ in pres]), tuple([(a, sources[a]) for a, _ in pres])
                capped, sourced = shared[mask]
                dist = new_dist(DegreeDistribution, (tuple(map(pairs.setdefault, pres, pres)),))
                yield DefectReport(dist, capped, g, sourced)
            i -= 1
            continue
        if c:
            present[i + 1] = present[i] + ((d, c),)
            support[i + 1] = support[i] | 1 << i
        else:
            present[i + 1] = present[i]
            support[i + 1] = support[i]
        i += 1
        left_n[i] = vn
        left_s[i] = vs
        gamma[i] = g
        passed[i] = False
        counts[i] = vn - 1 if i == last else max(0, -((vs - degs[i + 1] * vn) // (degs[i + 1] - degs[i]))) - 1


def enumerate_feasible(
    l: int,
    n: int,
    e: int,
    table: BoundsTable | None = None,
    refinements: Iterable[str] = DEFAULT_REFINEMENTS,
) -> list[DefectReport]:
    """All degree distributions the counting test cannot rule out.

    The reports of iter_feasible as a list, in the same lexicographic
    order.  An empty result proves no (l, n, e)-graph exists.
    """
    return list(iter_feasible(l, n, e, table, refinements))


def raise_lower_bound(
    l: int,
    n: int,
    table: BoundsTable | None = None,
    refinements: Iterable[str] = DEFAULT_REFINEMENTS,
) -> int | float:
    """Smallest edge count the counting test cannot rule out.

    Scans upward from the best finite lower bound already known and stops
    at the first edge count with a surviving distribution, walking each
    edge count only up to its first survivor.  The result is a sound lower
    bound on e(l, n) whenever a graph exists; INF means the scan emptied
    the whole degree-sum range, which proves no (l, n)-graph exists at all.
    """
    if table is None:
        table = default_table()
    tests = _refinement_tests(refinements)
    _check_order(l, n)
    model = _model(l, n, table)
    start = table.finite_lower(l, n)
    # max degree l-1 and simple-graph limits bound the scan
    stop = min(n * (l - 1), n * (n - 1)) // 2
    for e in range(start, stop + 1):
        if next(_walk(model, tests, n, e), None) is not None:
            return e
    return INF
