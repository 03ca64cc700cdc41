"""Bounds-consistent propagation of the ultrametric relation.

The ultrametric relation over three integers requires a tie for the
minimum: either all three are equal, or two are equal and the third is
strictly greater. This module provides

* `lb_fix` / `ub_fix`: single-pass bound filters for one variable triple,
* a three-variable propagator (`UltrametricThree`) that reaches bounds
  consistency per wake and detects entailment; the tests use it as the
  reference for the matrix propagator,
* a whole-matrix propagator (`UltrametricMatrix`) that enforces the
  relation over every index triple of a symmetric matrix of variables
  while storing only one propagator object (constant code representation
  instead of an n-choose-3 constraint list), applying the per-triple
  closed forms to the two rows of every changed cell at once, and
* a deliberately weak disjunctive propagator (`DelayedDisjunctionUm3`)
  that only filters once a single disjunct remains bound-feasible; it
  exists to demonstrate why the specialised propagator is needed.

Lower bounds that are individually supported always support each other,
so at any non-failed fixpoint the lower-bound tuple itself satisfies the
relation. Upper bounds enjoy no such property.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .engine import Engine, Propagator, Wake
from .store import Event, Store

_LB_EVENTS = Event.MIN | Event.FIX


def lb_fix(store: Store, x: int, y: int, z: int) -> None:
    """Raise the strictly smallest lower bound up to the middle one.

    After one pass the three lower bounds form a tie for the minimum.
    Sorting ties break by variable index for reproducibility. May fail
    the store when the raise crosses an upper bound.
    """
    lbs = store.lbs
    a, b, c = x, y, z
    if (lbs[b], b) < (lbs[a], a):
        a, b = b, a
    if (lbs[c], c) < (lbs[b], b):
        b, c = c, b
        if (lbs[b], b) < (lbs[a], a):
            a, b = b, a
    if lbs[a] < lbs[b]:
        store.tighten_lb(a, lbs[b])


def ub_fix(store: Store, x: int, y: int, z: int) -> None:
    """Drop an unsupported upper bound, if any, in a single pass.

    With S, M, L the variables in non-decreasing upper-bound order
    (ties by index): when ub(S) < ub(M), ub(M) is supported only through
    a common value of S and L, and ub(L) only through one of S and M.
    Emptiness of those bound intersections decides which bound falls to
    ub(S). May fail the store when the drop crosses a lower bound.
    """
    ubs = store.ubs
    lbs = store.lbs
    a, b, c = x, y, z
    if (ubs[b], b) < (ubs[a], a):
        a, b = b, a
    if (ubs[c], c) < (ubs[b], b):
        b, c = c, b
        if (ubs[b], b) < (ubs[a], a):
            a, b = b, a
    su = ubs[a]
    if su < ubs[b]:
        if lbs[c] > su:  # S and L cannot meet
            store.tighten_ub(b, su)
        elif lbs[b] > su:  # S and M cannot meet
            store.tighten_ub(c, su)


def um3_apply(store: Store, x: int, y: int, z: int, events: int) -> None:
    """Run the bound filters demanded by the coalesced event kinds.

    A lower-bound change can invalidate both lower and upper bounds, so
    MIN and FIX run lb_fix then ub_fix; an upper-bound change can only
    invalidate upper bounds, so MAX alone runs ub_fix. ub_fix is skipped
    when lb_fix already failed the store.
    """
    if events & _LB_EVENTS:
        lb_fix(store, x, y, z)
        if not store.failed:
            ub_fix(store, x, y, z)
    elif events & Event.MAX:
        ub_fix(store, x, y, z)


def um3_wake(store: Store, x: int, y: int, z: int, events: int) -> Wake:
    """One propagator wake over a variable triple.

    Returns ENTAILED as soon as at least two of the three domains are
    singletons: any further narrowing of the third is then consistent, so
    the propagator can never prune again.
    """
    um3_apply(store, x, y, z, events)
    if store.failed:
        return Wake.PROGRESS
    lbs, ubs = store.lbs, store.ubs
    fixed = (lbs[x] == ubs[x]) + (lbs[y] == ubs[y]) + (lbs[z] == ubs[z])
    return Wake.ENTAILED if fixed >= 2 else Wake.PROGRESS


class UltrametricThree(Propagator):
    """Bounds-consistency propagator for one variable triple.

    A wake filters by the union of its events, whichever variables
    changed.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        if len({x, y, z}) != 3:
            raise ValueError("ultrametric triple needs three distinct variables")
        super().__init__((x, y, z))
        self.x, self.y, self.z = x, y, z

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> Wake:
        return um3_wake(store, self.x, self.y, self.z, events)


def post_um3(engine: Engine, x: int, y: int, z: int) -> UltrametricThree:
    p = UltrametricThree(x, y, z)
    engine.register(p)
    return p


class MrcaMatrix:
    """Symmetric matrix of variables over species pairs.

    Cell (i, j) holds the depth of the most recent common ancestor of
    species i and j; the diagonal is the constant 0 and is not stored.
    Off-diagonal domains start at [1, n-1], so two species have one cell
    fixed at 1 and one species has none. cell(i, j) and cell(j, i) are
    the same variable by construction.

    `rows[i][k]` is the variable of cell (i, k), and `cell_ids` is the
    same table as an n x n index array; the diagonal slots hold 0, a
    placeholder that every reader overwrites. The cell variables are
    consecutive ids, and `pairs[v - cell_vars[0]]` is the index pair
    (i, j), i < j, of cell variable v.
    """

    __slots__ = ("store", "labels", "n", "index", "cell_vars", "rows", "cell_ids", "pairs")

    def __init__(self, store: Store, labels: Sequence[str]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate species labels")
        n = len(labels)
        self.store = store
        self.labels = labels
        self.n = n
        self.index = {lab: i for i, lab in enumerate(labels)}
        self.cell_vars = [store.new_var(1, n - 1) for _ in range(n * (n - 1) // 2)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rows = [[0] * n for _ in range(n)]
        for v, (i, j) in zip(self.cell_vars, pairs):
            rows[i][j] = rows[j][i] = v
        self.rows = rows
        self.cell_ids = np.array(rows, dtype=np.intp)
        self.pairs = np.array(pairs, dtype=np.intp)

    def cell(self, i: int, j: int) -> int:
        """Variable id of the unordered pair {i, j}, i != j."""
        if i == j:
            raise ValueError("diagonal cells are the constant 0, not variables")
        return self.rows[i][j]

    def cell_by_label(self, a: str, b: str) -> int:
        return self.cell(self.index[a], self.index[b])

    def index_of(self, var: int) -> tuple[int, int]:
        k = var - self.cell_vars[0]
        if not 0 <= k < len(self.pairs):
            raise KeyError(var)
        i, j = self.pairs[k].tolist()
        return i, j

    def lower_bounds(self) -> np.ndarray:
        """Current lb of every cell as a full symmetric n x n array."""
        if not self.cell_vars:  # one species: no cells to gather
            return np.zeros((self.n, self.n), dtype=np.int64)
        m = np.frombuffer(self.store.lbs, dtype=np.int64)[self.cell_ids]
        np.fill_diagonal(m, 0)
        return m

    def row_pairs(self, cells: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The cells as an array and rows i and j of each cell x = (i, j)
        as a (cells, 2, n) block of ids. Slots k = i and k = j, which form
        no triple with x, hold x itself."""
        x = np.array(cells, dtype=np.intp)
        ij = self.pairs[x - self.cell_vars[0]]
        ids = self.cell_ids[ij]
        ids[np.arange(len(x))[:, None], _ROW_I_J, ij] = x[:, None]
        return x, ids


_ROW_I_J = np.array([0, 1])
_LOW = np.iinfo(np.int64).min
_HIGH = np.iinfo(np.int64).max


def _tighten_strongest(tighten, ids: np.ndarray, vals: np.ndarray, largest: bool) -> None:
    """One tighten call per variable, with its largest (or smallest) value.

    Sorted so that the strongest value of each variable comes last; the
    dict keeps it.
    """
    if not len(ids):
        return
    order = vals.argsort()
    if not largest:
        order = order[::-1]
    for v, val in dict(zip(ids[order].tolist(), vals[order].tolist())).items():
        tighten(v, val)


class UltrametricMatrix(Propagator):
    """Single propagator keeping a whole MrcaMatrix ultrametric.

    An event at cell x = (i, j) concerns the n-2 triples (x, u_k, w_k)
    with u_k = M[i,k] and w_k = M[j,k]. Per triple, bounds consistency
    has two closed forms, which reach the same fixpoint as iterating
    lb_fix and ub_fix:

    * lower bounds: lb(v) >= min(lb(u), lb(w)) for every member v and
      the two others u, w;
    * upper bounds: ub(v) <= ub(u) whenever lb(w) > ub(u).

    For each changed cell x a wake applies the instances whose premise
    reads the bound of x that changed: after MIN, the lb-rule for u_k
    and w_k and the ub-rule with w = x; after MAX, the ub-rule with
    u = x. Every other instance reads only u_k and w_k, and the wake
    after whichever of them changed last applies it.

    One wake handles every changed cell. Per pass of up to n cells, rows
    i and j of each cell are gathered into a (cells, 2, n) block
    (`MrcaMatrix.row_pairs`), and the three rules run over the whole
    block with numpy on one snapshot of the bounds, read through
    zero-copy views of the store. Where several cells narrow the same
    variable, only the largest lb and the smallest ub go to the store,
    so each narrowing raises one event, and the narrowed cells' rows are
    woken in turn.

    The initial wake does nothing: cells are constructed at [1, n-1],
    which is already bounds-consistent (all-equal tuples support every
    bound).
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: MrcaMatrix):
        super().__init__(matrix.cell_vars)
        self.matrix = matrix

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> Wake:
        mat = self.matrix
        n = mat.n
        cells = [v for v in changed if v is not None]
        # views into the store's arrays; they must not outlive this call
        lbs = np.frombuffer(store.lbs, dtype=np.int64)
        ubs = np.frombuffer(store.ubs, dtype=np.int64)
        for start in range(0, len(cells), n):  # n cells per pass bound a block at 2n^2 ids
            batch = cells[start:start + n]
            x, ids = mat.row_pairs(batch)
            # lb(x) where it rose and ub(x) where it fell; elsewhere a
            # sentinel under which no rule narrows
            a = np.array([store.lbs[v] if changed[v] & _LB_EVENTS else _LOW for v in batch])[:, None, None]
            b = np.array([store.ubs[v] if changed[v] & Event.MAX else _HIGH for v in batch])[:, None, None]
            lb, ub = lbs[ids], ubs[ids]
            # the other cell of the triple sits in the other row, same slot
            other_lb, other_ub = lb[:, ::-1], ub[:, ::-1]
            # lb(v) >= min(lb(x), lb(other))
            new_lb = np.minimum(other_lb, a)
            # lb(x) > ub(other) leaves v = other as the tied minimum:
            # ub(v) <= ub(other); lb(other) > ub(x) leaves v = x: ub(v) <= ub(x)
            new_ub = np.minimum(np.where(other_ub < a, other_ub, _HIGH), np.where(other_lb > b, b, _HIGH))
            up, down = new_lb > lb, new_ub < ub
            _tighten_strongest(store.tighten_lb, ids[up], new_lb[up], largest=True)
            _tighten_strongest(store.tighten_ub, ids[down], new_ub[down], largest=False)
            if store.failed:
                return Wake.PROGRESS
        return Wake.PROGRESS


def post_um_matrix(engine: Engine, matrix: MrcaMatrix) -> UltrametricMatrix:
    """Register the single matrix propagator watching every cell."""
    p = UltrametricMatrix(matrix)
    engine.register(p)
    return p


class DelayedDisjunctionUm3(Propagator):
    """Weak disjunctive encoding of the ultrametric triple (demonstrator).

    Mirrors how generic toolkits treat a disjunction of the four shapes
    (x > y = z), (y > x = z), (z > x = y), (x = y = z): nothing is
    filtered until at most one disjunct remains bound-feasible. Kept only
    to reproduce the non-pruning behaviour that motivates the specialised
    propagator; never used by the supertree pipeline. A wake re-checks
    every disjunct, whichever variables changed.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        super().__init__((x, y, z))
        self.x, self.y, self.z = x, y, z

    @staticmethod
    def _tie_feasible(store: Store, top: int, u: int, v: int) -> bool:
        # top > u = v realisable within current bounds
        lo = max(store.lbs[u], store.lbs[v])
        hi = min(store.ubs[u], store.ubs[v])
        return lo <= hi and store.ubs[top] >= lo + 1

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> Wake:
        x, y, z = self.x, self.y, self.z
        lbs, ubs = store.lbs, store.ubs
        feas = [
            self._tie_feasible(store, x, y, z),
            self._tie_feasible(store, y, x, z),
            self._tie_feasible(store, z, x, y),
            max(lbs[x], lbs[y], lbs[z]) <= min(ubs[x], ubs[y], ubs[z]),
        ]
        alive = feas.count(True)
        if alive == 0:
            store.fail()
            return Wake.PROGRESS
        if alive > 1:
            return Wake.PROGRESS
        if feas[3]:
            lo = max(lbs[x], lbs[y], lbs[z])
            hi = min(ubs[x], ubs[y], ubs[z])
            for v in (x, y, z):
                store.tighten_lb(v, lo)
                store.tighten_ub(v, hi)
                if store.failed:
                    return Wake.PROGRESS
        else:
            top, u, v = ((x, y, z), (y, x, z), (z, x, y))[feas.index(True)]
            lo = max(lbs[u], lbs[v])
            hi = min(ubs[u], ubs[v], ubs[top] - 1)
            for w in (u, v):
                store.tighten_lb(w, lo)
                store.tighten_ub(w, hi)
                if store.failed:
                    return Wake.PROGRESS
            store.tighten_lb(top, lo + 1)
        return Wake.PROGRESS


def post_delayed_disjunction_um3(engine: Engine, x: int, y: int, z: int) -> DelayedDisjunctionUm3:
    p = DelayedDisjunctionUm3(x, y, z)
    engine.register(p)
    return p
