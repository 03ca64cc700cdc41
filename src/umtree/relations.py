"""Relation tables: bounds-consistent <, <= and 2/3-way equality.

Triples and fans decompose onto these: a triple (xy)z becomes one strict
inequality plus one binary equality over matrix cells, a fan becomes a
ternary equality. Every relation here is min-closed (the pointwise
minimum of two satisfying tuples satisfies it), which is what lets the
supertree model read a solution straight off the lower bounds.

An engine holds at most one table per relation kind, a single
propagator that keeps every atom of that kind as a row: `Less` and
`LessEq` rows (a, b) read b >= a + d with d = 1 and d = 0, and `Equal`
rows are groups of 2 or 3 variables that must be equal. A table indexes
each row under the variables whose bound moves can make it narrow:
`after_min[v]` lists the rows whose lower-bound rule reads lb(v) and
`after_max[v]` those whose upper-bound rule reads ub(v). A wake applies
the rows posted since the last wake in full, then, for each changed
variable, only the rows indexed under the bound that moved; the engine
hands every event to every table, and a wake skips the variables that
no row is indexed under. Restoring an engine checkpoint drops the
rows posted since. The three kinds stay three classes, each with its
own `wake`, because `perfbench/tracing.py` times the wakes of each
class by name.
"""

from __future__ import annotations

from typing import Optional

from .engine import Engine, Propagator
from .store import Event, Store
from .phylo import Fan, Triple
from .ultrametric import MrcaMatrix

_MIN = Event.MIN
_MAX = Event.MAX

Row = tuple[int, ...]


class _Table(Propagator):
    """The rows of one relation kind on one engine.

    `MIN_KEYS` and `MAX_KEYS` slice a row to the variables it is indexed
    under in `after_min` and `after_max`. A list of either map may be
    empty once `truncate` dropped its rows.
    """

    __slots__ = ("rows", "after_min", "after_max", "_applied")

    MIN_KEYS = MAX_KEYS = slice(None)

    def __init__(self):
        super().__init__()
        self.rows: list[Row] = []
        self.after_min: dict[int, list[Row]] = {}
        self.after_max: dict[int, list[Row]] = {}
        self._applied = 0  # rows[:_applied] have had their full wake

    @classmethod
    def of(cls, engine: Engine):
        """The engine's table of this kind, registered on first use."""
        for p in engine.propagators:
            if type(p) is cls:
                return p
        table = cls()
        engine.register(table)
        return table

    def post(self, engine: Engine, row: Row):
        """Add a row and schedule its full wake. No-op on a failed store."""
        if engine.store.failed:
            return self
        for v in row[self.MIN_KEYS]:
            self.after_min.setdefault(v, []).append(row)
        for v in row[self.MAX_KEYS]:
            self.after_max.setdefault(v, []).append(row)
        self.rows.append(row)
        engine.schedule(self)
        return self

    def _fresh_rows(self) -> list[Row]:
        """The rows posted since the last wake, which it applies in full."""
        fresh = self.rows[self._applied:]
        self._applied = len(self.rows)
        return fresh

    def size(self) -> int:
        return len(self.rows)

    def truncate(self, size: int) -> None:
        rows, after_min, after_max = self.rows, self.after_min, self.after_max
        dropped = rows[size:]
        del rows[size:]
        self._applied = min(self._applied, size)
        for row in reversed(dropped):  # each row sits at the tail of its lists
            for v in row[self.MIN_KEYS]:
                after_min[v].pop()
            for v in row[self.MAX_KEYS]:
                after_max[v].pop()


class _Order(_Table):
    """Rows (a, b) with b >= a + OFFSET: lb(a) pushes lb(b) up, and ub(b)
    pushes ub(a) down."""

    __slots__ = ()

    MIN_KEYS, MAX_KEYS = slice(0, 1), slice(1, 2)
    OFFSET = 0

    def _apply(self, store: Store, changed: dict[Optional[int], int]) -> None:
        d = self.OFFSET
        lbs, ubs = store.lbs, store.ubs
        tighten_lb, tighten_ub = store.tighten_lb, store.tighten_ub
        for a, b in self._fresh_rows():
            if lbs[b] < lbs[a] + d:
                tighten_lb(b, lbs[a] + d)
            if ubs[a] > ubs[b] - d:
                tighten_ub(a, ubs[b] - d)
        after_min, after_max = self.after_min, self.after_max
        for v, ev in changed.items():
            if ev & _MIN and v in after_min:
                lo = lbs[v] + d
                for _, b in after_min[v]:
                    if lbs[b] < lo:
                        tighten_lb(b, lo)
            if ev & _MAX and v in after_max:
                hi = ubs[v] - d
                for a, _ in after_max[v]:
                    if ubs[a] > hi:
                        tighten_ub(a, hi)


class Less(_Order):
    """Rows (a, b): a < b."""

    __slots__ = ()

    OFFSET = 1

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> None:
        self._apply(store, changed)


class LessEq(_Order):
    """Rows (a, b): a <= b."""

    __slots__ = ()

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> None:
        self._apply(store, changed)


class Equal(_Table):
    """Rows are groups of 2 or 3 variables that must be equal, indexed
    under every member in both maps."""

    __slots__ = ()

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> None:
        lbs, ubs = store.lbs, store.ubs
        tighten_lb, tighten_ub = store.tighten_lb, store.tighten_ub
        for group in self._fresh_rows():
            lo = max(map(lbs.__getitem__, group))
            hi = min(map(ubs.__getitem__, group))
            for u in group:
                if lbs[u] < lo:
                    tighten_lb(u, lo)
                if ubs[u] > hi:
                    tighten_ub(u, hi)
        after_min, after_max = self.after_min, self.after_max
        for v, ev in changed.items():
            if ev & _MIN and v in after_min:
                lo = lbs[v]
                for group in after_min[v]:
                    for u in group:
                        if lbs[u] < lo:
                            tighten_lb(u, lo)
            if ev & _MAX and v in after_max:
                hi = ubs[v]
                for group in after_max[v]:
                    for u in group:
                        if ubs[u] > hi:
                            tighten_ub(u, hi)


def post_lt(engine: Engine, a: int, b: int) -> Less:
    return Less.of(engine).post(engine, (a, b))


def post_le(engine: Engine, a: int, b: int) -> LessEq:
    return LessEq.of(engine).post(engine, (a, b))


def post_eq2(engine: Engine, a: int, b: int) -> Equal:
    return Equal.of(engine).post(engine, (a, b))


def post_eq3(engine: Engine, a: int, b: int, c: int) -> Equal:
    return Equal.of(engine).post(engine, (a, b, c))


def post_triple(engine: Engine, matrix: MrcaMatrix, t: Triple) -> None:
    """(xy)z: the pair's cell sits strictly deeper than the two others.

    Posts cell(x,z) < cell(x,y) and cell(x,z) = cell(y,z). Unknown
    species raise KeyError (model-construction error).
    """
    mxy = matrix.cell_by_label(t.x, t.y)
    mxz = matrix.cell_by_label(t.x, t.z)
    myz = matrix.cell_by_label(t.y, t.z)
    post_lt(engine, mxz, mxy)
    post_eq2(engine, mxz, myz)


def post_fan(engine: Engine, matrix: MrcaMatrix, f: Fan) -> None:
    """(xyz): all three pairwise cells equal."""
    post_eq3(
        engine,
        matrix.cell_by_label(f.x, f.y),
        matrix.cell_by_label(f.x, f.z),
        matrix.cell_by_label(f.y, f.z),
    )


def post_atom(engine: Engine, matrix: MrcaMatrix, atom: Triple | Fan) -> None:
    if isinstance(atom, Triple):
        post_triple(engine, matrix, atom)
    else:
        post_fan(engine, matrix, atom)
