"""Edge-count bounds for triangle-free graphs with bounded independence.

Throughout, e(l, n) denotes the minimum number of edges in a triangle-free
graph on n vertices whose independence number is below l, with the
convention e(l, n) = infinity when no such graph exists (that is, when
n >= R(3, l)).  The convenience variable k = l - 1 is the largest
independent set actually allowed.

Everything here is exact and float-free: the merge and the window case
use integers only, Fraction comes only from the four public rational
floors, and math.inf is used purely as the "no such graph" sentinel.

The Ramsey intervals, the table domain and the JSON endpoint format are
known only to this module; other modules ask a BoundsTable.  The intervals
live in the bounds data file and nowhere in code, so a table loaded from
another file governs every floor it serves, inside the tabulated domain
and beyond it.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from functools import lru_cache
from importlib import resources
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

INF = math.inf

L_MIN, L_MAX = 2, 13
N_MIN, N_MAX = 1, 43

STATUS_EXACT = "exact"
STATUS_RANGE = "range"
STATUS_OPEN = "open-above"
STATUS_INFINITE = "infinite"

# canonical provenance tag order for EBound records
PROVENANCE_TAGS = ("formula", "sporadic-table", "ramsey", "preliminary-upper")


class DataConflictError(ValueError):
    """The bounds data contradicts itself, the formulas, or the Ramsey map."""


# ---------------------------------------------------------------------------
# closed-form floors


def lower_bound_basic(n: int, k: int) -> int:
    """Piecewise-linear floor max(0, n-k, 3n-5k, 5n-10k, 6n-13k).

    Valid for every triangle-free graph on n vertices with independence
    number at most k.  The steepest piece 6n - 13k is the active one as
    soon as n >= 3k.
    """
    if n < 0 or k < 1:
        raise ValueError(f"need n >= 0 and k >= 1, got n={n} k={k}")
    return max(0, n - k, 3 * n - 5 * k, 5 * n - 10 * k, 6 * n - 13 * k)


def lower_bound_steep(n: int, k: int) -> Fraction:
    """The slope-8 floor 8n - 39k/2, exact over the rationals."""
    from fractions import Fraction

    return Fraction(16 * n - 39 * k, 2)


def lower_bound_steeper(n: int, k: int) -> Fraction:
    """The slope-9 floor 9n - 23k."""
    from fractions import Fraction

    return Fraction(9 * n - 23 * k)


def _global_fifths(n: int, k: int) -> int:
    return 34 * n - 78 * k


def lower_bound_global(n: int, k: int) -> Fraction:
    """The floor 34n/5 - 78k/5, proven for all n and k (no window restriction)."""
    from fractions import Fraction

    return Fraction(_global_fifths(n, k), 5)


def conjectured_lower(n: int, k: int) -> Fraction:
    """Conjectured floor max of the slope-8 and slope-9 lines.

    Unproven; returned raw (possibly negative), callers clamp to 0 where
    a count is needed.  Kept strictly out of the bound computations.
    """
    return max(lower_bound_steep(n, k), lower_bound_steeper(n, k))


# ---------------------------------------------------------------------------
# the window case split


def _window_case(n: int, k: int) -> tuple[int, bool]:
    """(floor, is_exact) for e(k+1, n), assuming a graph exists at this order.

    The case variable is x = n - 13k/4.  Up to x = 3/2 the basic floor
    plus a small constant is exact; past that only a lower bound is known,
    and the all-orders slope-34/5 line can overtake the local one.
    """
    x4 = 4 * n - 13 * k  # 4x, so every threshold below is an integer
    base = lower_bound_basic(n, k)
    if x4 <= -4 or x4 == 0:
        return base, True
    if x4 < 0:
        return base + 1, True
    if x4 <= 2:
        return base + 2, True
    if x4 <= 6:
        return base + 3, True
    # the strict step past the window is only established for k <= 12;
    # beyond that just non-exactness is claimed
    bump = 4 if k <= 12 else 1
    return max(base + bump, -(-_global_fifths(n, k) // 5)), False  # ceil(lower_bound_global)


def formula_floor(k: int, n: int) -> int:
    """Best closed-form lower bound on e(k+1, n).

    Defined for every order; when no graph exists at (k+1, n) the value is
    vacuous but still finite, which is exactly what bound-raising scans
    want as a starting point.
    """
    if k < 1 or n < 0:
        raise ValueError(f"need k >= 1 and n >= 0, got k={k} n={n}")
    value, _ = _window_case(n, k)
    return value


# ---------------------------------------------------------------------------
# bound records


def _interval_fault(lower, upper) -> str:
    """Why lower..upper is no valid interval of e(l, n), or "" when it is one.

    An infinite lower needs an infinite upper; a finite lower is an int
    >= 0; upper is None, infinity or an int >= lower.
    """
    if lower == INF:
        return "" if upper == INF else "an infinite lower bound needs an infinite upper"
    if not _is_int(lower) or lower < 0:
        return f"a finite lower bound must be an int >= 0, got {lower!r}"
    if upper is not None and upper != INF and (not _is_int(upper) or upper < lower):
        return f"upper must be None, infinity or an int >= lower, got {upper!r}"
    return ""


class EBound(namedtuple("EBound", ("lower", "upper", "provenance"))):
    """One cell of knowledge about e(l, n): an interval and where it came from.

    upper is None when no finite upper bound is known but existence is
    settled, and infinity when even existence is open above the lower
    bound.  The status is read off the endpoints; admits says which values
    of e(l, n) the interval allows.
    """

    __slots__ = ()

    def __new__(cls, lower: int | float, upper: int | float | None, provenance: tuple[str, ...] = ()) -> EBound:
        for tag in provenance:
            if tag not in PROVENANCE_TAGS:
                raise ValueError(f"unknown provenance tag {tag!r}")
        order = [t for t in PROVENANCE_TAGS if t in provenance]
        if list(provenance) != order:
            raise ValueError("provenance tags out of canonical order")
        fault = _interval_fault(lower, upper)
        if fault:
            raise ValueError(fault)
        return super().__new__(cls, lower, upper, provenance)

    @property
    def status(self) -> str:
        """infinite, open-above, exact or range, in that order of precedence."""
        if self.lower == INF:
            return STATUS_INFINITE
        if self.upper == INF:
            return STATUS_OPEN
        if self.upper == self.lower:
            return STATUS_EXACT
        return STATUS_RANGE

    def admits(self, value: int | float) -> bool:
        """Whether e(l, n) = value fits this cell; value INF means no graph exists.

        An upper of None asserts a graph exists, so only an infinite upper
        admits INF.
        """
        if value == INF:
            return self.upper == INF
        return self.lower <= value and (self.upper is None or value <= self.upper)

    def display(self) -> str:
        """Human form: 60, 107–108, 128–(132), 161–∞, ∞."""
        status = self.status
        if status == STATUS_INFINITE:
            return "∞"
        if status == STATUS_EXACT:
            return str(self.lower)
        if status == STATUS_OPEN:
            return f"{self.lower}–∞"
        if self.upper is None:
            return f"{self.lower}–?"
        up = f"({self.upper})" if "preliminary-upper" in self.provenance else str(self.upper)
        return f"{self.lower}–{up}"


def _merge(l: int, n: int, ramsey: tuple[int, int | None], rec: CellRecord | None) -> EBound:
    """Bound on e(l, n) from the formulas, the Ramsey interval and an optional record.

    This is the one place where the three meet and the endpoints are
    settled; general_value is the record-free case.
    """
    k = l - 1
    lo_r, hi_r = ramsey

    if hi_r is not None and n >= hi_r:
        if rec is not None and rec.lower != INF:
            raise DataConflictError(f"finite record ({l},{n}) inside the infinite region (n >= {hi_r})")
        tags = ("sporadic-table", "ramsey") if rec is not None else ("ramsey",)
        return EBound(INF, INF, tags)

    floor, exact = _window_case(n, k)
    rec_lower = rec.lower if rec is not None else 0
    if rec_lower == INF:
        # an infinite record below hi_r is impossible by construction
        raise DataConflictError(f"record ({l},{n}) infinite below the effective threshold")
    lower = max(floor, rec_lower)

    tags = []
    if lower == floor:
        tags.append("formula")
    if rec is not None:
        tags.append("sporadic-table")

    if n >= lo_r:
        # existence window: no graph may exist at this order at all
        if rec is not None and rec.upper not in (None, INF):
            raise DataConflictError(
                f"record ({l},{n}) claims a witness inside the unresolved existence window"
            )
        tags.append("ramsey")
        return EBound(lower, INF, tuple(tags))

    uppers = []
    if exact:
        uppers.append(floor)
    if rec is not None and rec.upper is not None and rec.upper != INF:
        uppers.append(rec.upper)
    upper = min(uppers) if uppers else None
    if upper is not None and lower > upper:
        raise DataConflictError(f"cell ({l},{n}) merged to lower {lower} above upper {upper}")

    if rec is not None and rec.preliminary and upper is not None and upper != lower and upper == rec.upper:
        tags.append("preliminary-upper")
    return EBound(lower, upper, tuple(tags))


def general_value(k: int, n: int, ramsey: tuple[int, int | None] | None = None) -> EBound:
    """Formula-only bound on e(k+1, n), usable at any order.

    ramsey is the existence interval for R(3, k + 1); by default it is
    read from the packaged table.  BoundsTable.bound passes its own.
    """
    if k < 1 or n < 1:
        raise ValueError(f"need k >= 1 and n >= 1, got k={k} n={n}")
    if ramsey is None:
        ramsey = default_table().ramsey_range(k + 1)
    return _merge(k + 1, n, ramsey, None)


# ---------------------------------------------------------------------------
# the merged bounds table


class CellRecord(NamedTuple):
    """One raw data record before merging with the formulas."""

    l: int
    n: int
    lower: int | float
    upper: int | float | None
    preliminary: bool = False
    source: str = ""


def endpoint_to_json(value: int | float | None) -> int | str | None:
    """JSON form of a bound endpoint: infinity becomes "inf", None stays null."""
    return "inf" if value == INF else value


def endpoint_from_json(value, what: str = "bound") -> int | float | None:
    """Inverse of endpoint_to_json; anything but null, "inf" or an int is an error."""
    if value is None:
        return None
    if value == "inf":
        return INF
    if _is_int(value):
        return value
    raise DataConflictError(f"bad {what} endpoint {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of the bounds data; a repeated key would silently drop a value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DataConflictError(f"key {key!r} repeated in one object of the bounds data")
        obj[key] = value
    return obj


def _ramsey_from_json(raw) -> dict[int, tuple[int, int | None]]:
    """The 'ramsey' entry: l -> [lo, hi] with lo an int and hi an int or null."""
    if not isinstance(raw, dict):
        raise DataConflictError(f"'ramsey' must map l to [lo, hi], got {raw!r}")
    ramsey = {}
    for key, pair in raw.items():
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and _is_int(pair[0])
            and (pair[1] is None or _is_int(pair[1]))
        ):
            raise DataConflictError(f"ramsey interval for l={key} must be [int, int or null], got {pair!r}")
        try:
            l = int(key)
        except ValueError:
            raise DataConflictError(f"bad ramsey key {key!r}") from None
        if l in ramsey:
            raise DataConflictError(f"duplicate ramsey interval for l={l} (key {key!r})")
        ramsey[l] = (pair[0], pair[1])
    return ramsey


def _record_from_json(obj: dict) -> CellRecord:
    try:
        l = int(obj["l"])
        n = int(obj["n"])
    except (KeyError, TypeError, ValueError) as ex:
        raise DataConflictError(f"cell record missing l/n: {obj!r}") from ex
    lower = endpoint_from_json(obj.get("lower"), "lower")
    upper = endpoint_from_json(obj.get("upper"), "upper")
    if lower is None:
        raise DataConflictError(f"cell ({l},{n}) has no lower endpoint")
    preliminary = obj.get("preliminary", False)
    if not isinstance(preliminary, bool):
        raise DataConflictError(f"cell ({l},{n}) has a non-boolean preliminary flag {preliminary!r}")
    return CellRecord(
        l=l,
        n=n,
        lower=lower,
        upper=upper,
        preliminary=preliminary,
        source=str(obj.get("source", "")),
    )


class BoundsTable:
    """Formulas, Ramsey thresholds and sporadic records merged per cell.

    This is the one source of bounds facts at every order: lookup serves
    the tabulated domain strictly, while bound and finite_lower also answer
    beyond it from the formulas and this table's Ramsey intervals.

    The merge is eager: every cell in 2 <= l <= 13, 1 <= n <= 43 is
    computed at load time and any contradiction (a sporadic lower above a
    sporadic upper, a finite record inside the infinite region, duplicate
    records, a Ramsey interval outside the domain) raises DataConflictError
    immediately rather than surfacing as a quietly wrong bound later.
    """

    def __init__(
        self,
        ramsey: dict[int, tuple[int, int | None]],
        records: Iterable[CellRecord],
        notes: tuple[str, ...] = (),
        version: int = 1,
    ) -> None:
        self.version = version
        self.notes = tuple(notes)
        for l in ramsey:
            if not L_MIN <= l <= L_MAX:
                raise DataConflictError(f"ramsey interval for l={l} outside the table domain l {L_MIN}..{L_MAX}")
        self._ramsey = {}
        for l in range(L_MIN, L_MAX + 1):
            if l not in ramsey:
                raise DataConflictError(f"ramsey interval missing for l={l}")
            lo, hi = ramsey[l]
            if hi is not None and hi < lo:
                raise DataConflictError(f"ramsey interval for l={l} is empty")
            self._ramsey[l] = (lo, hi)

        self._records: dict[tuple[int, int], CellRecord] = {}
        for rec in records:
            if not (L_MIN <= rec.l <= L_MAX and N_MIN <= rec.n <= N_MAX):
                raise DataConflictError(f"record ({rec.l},{rec.n}) outside the table domain")
            key = (rec.l, rec.n)
            if key in self._records:
                raise DataConflictError(f"duplicate record for ({rec.l},{rec.n})")
            fault = _interval_fault(rec.lower, rec.upper)
            if fault:
                raise DataConflictError(f"record ({rec.l},{rec.n}): {fault}")
            self._records[key] = rec

        # an explicit infinite record at (l, n) proves R(3, l) <= n, so it
        # pulls the upper end of the column's interval down
        for (rl, rn), rec in self._records.items():
            if rec.lower == INF:
                lo, hi = self._ramsey[rl]
                if rn < lo:
                    raise DataConflictError(
                        f"record ({rl},{rn}) claims nonexistence below the Ramsey floor {lo}"
                    )
                if hi is None or rn < hi:
                    self._ramsey[rl] = (lo, rn)

        self._cells: dict[tuple[int, int], EBound] = {}
        for l in range(L_MIN, L_MAX + 1):
            for n in range(N_MIN, N_MAX + 1):
                self._cells[(l, n)] = _merge(l, n, self._ramsey[l], self._records.get((l, n)))

    # construction helpers

    @classmethod
    def _from_json_text(cls, text: str) -> "BoundsTable":
        try:
            obj = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as ex:
            raise DataConflictError(f"bounds data is not valid JSON: {ex}") from ex
        try:
            ramsey_raw = obj["ramsey"]
            cells_raw = obj["cells"]
        except (KeyError, TypeError) as ex:
            raise DataConflictError("bounds data needs 'ramsey' and 'cells' entries") from ex
        if not isinstance(cells_raw, list):
            raise DataConflictError(f"'cells' must be a list of records, got {cells_raw!r}")
        notes = obj.get("notes", [])
        if not (isinstance(notes, list) and all(isinstance(t, str) for t in notes)):
            raise DataConflictError(f"'notes' must be a list of strings, got {notes!r}")
        version = obj.get("version", 1)
        if not _is_int(version):
            raise DataConflictError(f"bounds data version must be an int, got {version!r}")
        return cls(
            _ramsey_from_json(ramsey_raw),
            [_record_from_json(c) for c in cells_raw],
            notes=tuple(notes),
            version=version,
        )

    @classmethod
    def from_file(cls, path) -> "BoundsTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls._from_json_text(fh.read())

    # queries

    def ramsey_range(self, l: int) -> tuple[int, int | None]:
        """Known interval lo <= R(3, l) <= hi; hi is None when unbounded above.

        hi already reflects any explicit infinite record in the column.
        Past the last tabulated column its lower bound carries upward, since
        R(3, l) grows with l.
        """
        if l < L_MIN:
            raise ValueError(f"Ramsey interval needs l >= {L_MIN}, got {l}")
        if l > L_MAX:
            return self._ramsey[L_MAX][0], None
        return self._ramsey[l]

    def bound(self, l: int, n: int) -> EBound:
        """Best known bound on e(l, n) at any order.

        Inside the tabulated domain this is the merged cell; outside it, the
        formulas under this table's Ramsey interval for l.
        """
        cell = self._cells.get((l, n))
        if cell is not None:
            return cell
        return general_value(l - 1, n, self.ramsey_range(l))

    def lookup(self, l: int, n: int) -> EBound:
        try:
            return self._cells[(l, n)]
        except KeyError:
            raise ValueError(
                f"({l},{n}) outside the tabulated domain l {L_MIN}..{L_MAX}, n {N_MIN}..{N_MAX}"
            ) from None

    def finite_lower(self, l: int, n: int) -> int:
        """Largest finite lower bound known, ignoring nonexistence knowledge.

        This is the right scan floor for feasibility searches: if a graph
        exists at all it has at least this many edges.  It is the lower end
        of bound(l, n), or the formula floor where that end is infinite.
        """
        lower = self.bound(l, n).lower
        return formula_floor(l - 1, n) if lower == INF else lower

    def records(self) -> Iterator[CellRecord]:
        for key in sorted(self._records):
            yield self._records[key]

    def cells(self) -> Iterator[tuple[int, int, EBound]]:
        for (l, n) in sorted(self._cells):
            yield l, n, self._cells[(l, n)]

    # rendering

    def emit(
        self,
        l_span: tuple[int, int],
        n_span: tuple[int, int],
        fmt: str = "md",
    ) -> str:
        """Render a rectangular window as markdown, CSV or JSON.

        Markdown and CSV follow the published table conventions: columns
        are l, rows are n, and within each rendered column only the
        topmost infinite cell prints its infinity sign; the cells below it
        are left blank.  JSON carries the full structured cells instead,
        with nothing suppressed, so it round-trips exactly.
        """
        if fmt not in ("md", "csv", "json"):
            raise ValueError(f"unknown table format {fmt!r}")
        l_lo, l_hi = l_span
        n_lo, n_hi = n_span
        if l_lo > l_hi or n_lo > n_hi:
            # an empty window has no cells to check against the domain
            if fmt != "json":
                return ""
        elif not (L_MIN <= l_lo and l_hi <= L_MAX and N_MIN <= n_lo and n_hi <= N_MAX):
            raise ValueError(
                f"window l {l_lo}..{l_hi}, n {n_lo}..{n_hi} outside the domain "
                f"l {L_MIN}..{L_MAX}, n {N_MIN}..{N_MAX}"
            )
        ls = range(l_lo, l_hi + 1)
        ns = range(n_lo, n_hi + 1)

        if fmt == "json":
            cells = []
            for l in ls:
                for n in ns:
                    cells.append(cell_to_json(l, n, self._cells[(l, n)]))
            payload = {
                "version": self.version,
                "l_range": [l_lo, l_hi],
                "n_range": [n_lo, n_hi],
                "cells": cells,
            }
            return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"

        text: dict[tuple[int, int], str] = {}
        for l in ls:
            seen_inf = False
            for n in ns:
                cell = self._cells[(l, n)]
                if cell.status == STATUS_INFINITE:
                    text[(l, n)] = "" if seen_inf else "∞"
                    seen_inf = True
                else:
                    text[(l, n)] = cell.display()

        lines = []
        if fmt == "md":
            lines.append("| n\\l | " + " | ".join(str(l) for l in ls) + " |")
            lines.append("| --- | " + " | ".join("---" for _ in ls) + " |")
            for n in ns:
                lines.append("| " + " | ".join([str(n)] + [text[(l, n)] for l in ls]) + " |")
        else:
            lines.append("n," + ",".join(str(l) for l in ls))
            for n in ns:
                lines.append(",".join([str(n)] + [text[(l, n)] for l in ls]))
        return "\n".join(lines) + "\n"


def cell_to_json(l: int, n: int, cell: EBound) -> dict:
    """One cell as a JSON object; cells_from_json reads a list of these back."""
    return {
        "l": l,
        "n": n,
        "lower": endpoint_to_json(cell.lower),
        "upper": endpoint_to_json(cell.upper),
        "status": cell.status,
        "provenance": list(cell.provenance),
        "display": cell.display(),
    }


def cells_from_json(text: str) -> dict[tuple[int, int], EBound]:
    """Parse emit(..., fmt="json") output back into structured cells."""
    obj = json.loads(text)
    out = {}
    for cell in obj["cells"]:
        l, n = int(cell["l"]), int(cell["n"])
        bound = EBound(
            endpoint_from_json(cell["lower"], "lower"),
            endpoint_from_json(cell["upper"], "upper"),
            tuple(cell["provenance"]),
        )
        if cell["status"] != bound.status:
            raise DataConflictError(f"cell ({l},{n}) has status {cell['status']!r} but {bound.status!r} endpoints")
        out[(l, n)] = bound
    return out


@lru_cache(maxsize=1)
def default_table() -> BoundsTable:
    """The packaged table, loaded once."""
    text = resources.files("trifree").joinpath("data/bounds_table.json").read_text(encoding="utf-8")
    return BoundsTable._from_json_text(text)
