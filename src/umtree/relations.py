"""Primitive bounds-consistency propagators: <, <=, and 2/3-way equality.

Triples and fans decompose onto these: a triple (xy)z becomes one strict
inequality plus one binary equality over matrix cells, a fan becomes a
ternary equality. Every relation here is min-closed (the pointwise
minimum of two satisfying tuples satisfies it), which is what lets the
supertree model read a solution straight off the lower bounds. Each wake
filters from the current bounds of all its variables, so it ignores
which of them changed.
"""

from __future__ import annotations

from typing import Optional

from .engine import Engine, Propagator
from .store import Store
from .phylo import Fan, Triple
from .ultrametric import MrcaMatrix


class Less(Propagator):
    """a < b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        super().__init__((a, b))
        self.a, self.b = a, b

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> None:
        a, b = self.a, self.b
        store.tighten_lb(b, store.lbs[a] + 1)
        store.tighten_ub(a, store.ubs[b] - 1)


class LessEq(Propagator):
    """a <= b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        super().__init__((a, b))
        self.a, self.b = a, b

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> None:
        a, b = self.a, self.b
        store.tighten_lb(b, store.lbs[a])
        store.tighten_ub(a, store.ubs[b])


class Equal(Propagator):
    """All listed variables equal (used with 2 or 3 variables)."""

    __slots__ = ("vars",)

    def __init__(self, *vars_: int):
        super().__init__(vars_)
        self.vars = vars_

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> None:
        vs = self.vars
        lo = max(map(store.lbs.__getitem__, vs))
        hi = min(map(store.ubs.__getitem__, vs))
        for v in vs:
            store.tighten_lb(v, lo)
            store.tighten_ub(v, hi)


def post_lt(engine: Engine, a: int, b: int) -> Less:
    p = Less(a, b)
    engine.register(p)
    return p


def post_le(engine: Engine, a: int, b: int) -> LessEq:
    p = LessEq(a, b)
    engine.register(p)
    return p


def post_eq2(engine: Engine, a: int, b: int) -> Equal:
    p = Equal(a, b)
    engine.register(p)
    return p


def post_eq3(engine: Engine, a: int, b: int, c: int) -> Equal:
    p = Equal(a, b, c)
    engine.register(p)
    return p


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
