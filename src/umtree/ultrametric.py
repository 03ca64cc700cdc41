"""Bounds-consistent propagation of the ultrametric relation.

The ultrametric relation over three integers requires a tie for the
minimum: either all three are equal, or two are equal and the third is
strictly greater. This module provides the symmetric matrix of mrca
depth variables (`MrcaMatrix`) and one propagator (`UltrametricMatrix`)
that enforces the relation over every index triple of that matrix while
storing only one propagator object (constant code representation instead
of an n-choose-3 constraint list), applying the per-triple closed forms
to the two rows of every changed cell at once.

Lower bounds that are individually supported always support each other,
so at any non-failed fixpoint the lower-bound tuple itself satisfies the
relation. Upper bounds enjoy no such property.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .engine import Engine, Propagator
from .store import Event, Store


class MrcaMatrix:
    """Symmetric matrix of variables over species pairs.

    Cell (i, j) holds the depth of the most recent common ancestor of
    species i and j; the diagonal is the constant 0 and is not stored.
    Off-diagonal domains start at [1, n-1], so two species have one cell
    fixed at 1 and one species has none. cell(i, j) and cell(j, i) are
    the same variable by construction.

    The cells are one block of consecutive variables, `cell_vars`,
    numbered row-major over the pairs (i, j), i < j, so
    `pairs[v - cell_vars[0]]` is the index pair of cell variable v.
    `cell_ids` is the n x n index array of the cell variables; the
    diagonal slots hold 0, a placeholder that every reader overwrites.
    `rows[i][k]` is the same table as lists, for scalar lookups.
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
        self.cell_vars = cells = store.new_vars(n * (n - 1) // 2, 1, n - 1)
        i, j = np.triu_indices(n, 1)
        self.cell_ids = np.zeros((n, n), dtype=np.intp)
        self.cell_ids[i, j] = self.cell_ids[j, i] = np.arange(cells.start, cells.stop)
        self.rows = self.cell_ids.tolist()
        self.pairs = np.stack((i, j), axis=1)

    def cell(self, i: int, j: int) -> int:
        """Variable id of the unordered pair {i, j}, i != j."""
        if i == j:
            raise ValueError("diagonal cells are the constant 0, not variables")
        return self.rows[i][j]

    def cell_by_label(self, a: str, b: str) -> int:
        return self.cell(self.index[a], self.index[b])

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
    has two closed forms:

    * lower bounds: lb(v) >= min(lb(u), lb(w)) for every member v and
      the two others u, w;
    * upper bounds: ub(v) <= ub(u) whenever lb(w) > ub(u).

    For each changed cell x a wake applies the instances whose premise
    reads the bound of x that changed: after MIN, the lb-rule for u_k
    and w_k and the ub-rule with w = x; after MAX, the ub-rule with
    u = x. Every other instance reads only u_k and w_k, and the wake
    after whichever of them changed last applies it.

    One wake handles every changed cell, that is every changed variable
    inside `matrix.cell_vars`; the engine hands it the others too. Per
    pass of up to n cells, rows i and j of each cell are gathered into a
    (cells, 2, n) block (`MrcaMatrix.row_pairs`), and the three rules run
    over the whole block with numpy on one snapshot of the bounds, read
    through zero-copy views of the store. Where several cells narrow the
    same variable, only the largest lb and the smallest ub go to the
    store, so each narrowing raises one event, and the narrowed cells'
    rows are woken in turn.

    The initial wake does nothing: cells are constructed at [1, n-1],
    which is already bounds-consistent (all-equal tuples support every
    bound).
    """

    __slots__ = ("matrix",)

    LEVEL = 1  # woken once the relations are at their fixpoint

    def __init__(self, matrix: MrcaMatrix):
        super().__init__()
        self.matrix = matrix

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> None:
        mat = self.matrix
        n = mat.n
        lo, hi = mat.cell_vars.start, mat.cell_vars.stop
        cells = [v for v in changed if v is not None and lo <= v < hi]
        # views into the store's arrays; they must not outlive this call
        lbs = np.frombuffer(store.lbs, dtype=np.int64)
        ubs = np.frombuffer(store.ubs, dtype=np.int64)
        for start in range(0, len(cells), n):  # n cells per pass bound a block at 2n^2 ids
            batch = cells[start:start + n]
            x, ids = mat.row_pairs(batch)
            # lb(x) where it rose and ub(x) where it fell; elsewhere a
            # sentinel under which no rule narrows
            a = np.array([store.lbs[v] if changed[v] & Event.MIN else _LOW for v in batch])[:, None, None]
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
                return


def post_um_matrix(engine: Engine, matrix: MrcaMatrix) -> UltrametricMatrix:
    """Register the single matrix propagator. It adds no per-cell state
    to the engine: each wake picks the cells out of the changed variables."""
    p = UltrametricMatrix(matrix)
    engine.register(p)
    return p
