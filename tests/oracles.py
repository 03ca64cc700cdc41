"""Independent brute-force oracles and references shared by the test modules.

Everything here recomputes expected values from first principles
(enumeration over tuples or over all rooted trees), deliberately not
reusing the propagation code paths it checks. It holds

* the per-triple reference of the matrix propagator: the bound filters
  `lb_fix`/`ub_fix`, their wake `um3_wake`, and the propagator
  `UltrametricThree` (posted by `post_um3`);
* the weak disjunctive encoding `DelayedDisjunctionUm3` (posted by
  `post_delayed_disjunction_um3`), which shows why the specialised
  propagator is needed;
* the brute-force generator of every rooted tree, `all_rooted_trees`;
* the implementations that faster code replaced, as references:
  `RowWakeMatrix`, the scalar relations, the Prim read-off
  `matrix_to_tree` with its `NotUltrametricError`, the engine that picks
  its wake as a `min` over a list of the due propagators
  (`MinDueEngine`), the QuickXplain that re-posts its whole base for
  every check (`quickxplain_reposting`), the Newick reader built on
  closures (`parse_newick_by_closures`, `parse_newick_many_by_closures`),
  the breakup built on closures (`breakup_by_closures`), the greedy
  loop that probes one atom at a time (`greedy_atom_by_atom`), and the
  numpy scatter of the cell index and gather of the lower bounds
  (`cell_index_by_numpy`, `lower_bounds_by_numpy`);
* two helpers that build test forests, and the tree-side oracles, among
  them BUILD with fans, the polynomial compatibility test for rooted
  triples and fans.
"""

from __future__ import annotations

import itertools
import re
from array import array
from functools import lru_cache
from itertools import compress
from operator import itemgetter, ne
from typing import Iterable, Iterator

import numpy as np

from umtree import (
    ConflictCore,
    Engine,
    Event,
    Fan,
    GreedyReport,
    NewickParseError,
    PhyloTree,
    PreconditionError,
    PropagateResult,
    Store,
    Triple,
    UltrametricIntMatrix,
    atom_holds,
    build_model,
    displays,
    leaf,
    leaf_labels,
    post_atom,
    tree_to_matrix,
)
from umtree.engine import Propagator
from umtree.phylo import all_labels, iter_nodes
from umtree.ultrametric import MrcaMatrix

Box = tuple[int, int]


def is_ultrametric_tuple(t: tuple[int, int, int]) -> bool:
    lo = min(t)
    return list(t).count(lo) >= 2


def ultrametric_tuples(max_value: int) -> list[tuple[int, int, int]]:
    return [
        t
        for t in itertools.product(range(max_value + 1), repeat=3)
        if is_ultrametric_tuple(t)
    ]


def bcz_box_oracle(
    boxes: tuple[Box, Box, Box], tuples: list[tuple[int, int, int]]
) -> tuple[Box, Box, Box] | None:
    """Bounds-consistent closure of three interval boxes, or None if empty.

    A bound is kept iff it appears in some ultrametric tuple whose values
    lie within the boxes; the closure is the bounding box of the
    satisfying set (its corners are themselves supported, so one pass
    suffices).
    """
    sat = [
        t
        for t in tuples
        if boxes[0][0] <= t[0] <= boxes[0][1]
        and boxes[1][0] <= t[1] <= boxes[1][1]
        and boxes[2][0] <= t[2] <= boxes[2][1]
    ]
    if not sat:
        return None
    return tuple(
        (min(t[i] for t in sat), max(t[i] for t in sat)) for i in range(3)
    )  # type: ignore[return-value]


def um3_fixpoint(boxes: tuple[Box, Box, Box]) -> tuple[Box, Box, Box] | None:
    """Run the real propagator to fixpoint on three fresh variables."""
    store = Store()
    engine = Engine(store)
    vs = [store.new_var(lo, hi) for lo, hi in boxes]
    post_um3(engine, *vs)
    if engine.propagate() is PropagateResult.FAILURE:
        return None
    return tuple(store.domain(v) for v in vs)  # type: ignore[return-value]


def all_boxes(max_value: int) -> list[Box]:
    return [(lo, hi) for lo in range(max_value + 1) for hi in range(lo, max_value + 1)]


def post_woken(engine: Engine, p: Propagator) -> Propagator:
    """Register p and wake it once over an empty range of records.
    `register` does not wake, so a per-atom propagator that filters
    whatever records it reads makes itself consistent when it is posted,
    as a relation table does with each row."""
    engine.register(p)
    if not engine.store.failed:
        end = len(engine.store.trail)
        p.wake(engine.store, end, end)
    return p


# -- per-triple reference of the matrix propagator --------------------------------


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


def um3_wake(store: Store, x: int, y: int, z: int, events: int) -> None:
    """One wake over a variable triple: the filters its event kinds demand.

    A lower-bound change can invalidate both lower and upper bounds, so
    MIN runs lb_fix then ub_fix; an upper-bound change can only
    invalidate upper bounds, so MAX alone runs ub_fix. ub_fix is skipped
    when lb_fix already failed the store.
    """
    if events & Event.MIN:
        lb_fix(store, x, y, z)
        if not store.failed:
            ub_fix(store, x, y, z)
    elif events & Event.MAX:
        ub_fix(store, x, y, z)


class UltrametricThree(Propagator):
    """Bounds-consistency propagator for one variable triple, the
    reference for the matrix propagator.

    A wake filters by the union of the events in its three variables'
    records; the other variables' records leave it idle.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        if len({x, y, z}) != 3:
            raise ValueError("ultrametric triple needs three distinct variables")
        super().__init__()
        self.x, self.y, self.z = x, y, z

    def wake(self, store: Store, start: int, end: int) -> None:
        x, y, z = self.x, self.y, self.z
        own = 0
        for v, ev, _ in store.trail[start:end]:
            if v == x or v == y or v == z:
                own |= ev
        um3_wake(store, x, y, z, own)


def post_um3(engine: Engine, x: int, y: int, z: int) -> UltrametricThree:
    """Register the triple's propagator and apply both of its filters
    once, which makes it consistent before any record reaches it."""
    p = UltrametricThree(x, y, z)
    engine.register(p)
    if not engine.store.failed:
        um3_wake(engine.store, x, y, z, Event.MIN | Event.MAX)
    return p


# -- weak disjunctive encoding ------------------------------------------------------


class DelayedDisjunctionUm3(Propagator):
    """Weak disjunctive encoding of the ultrametric triple (demonstrator).

    Mirrors how generic toolkits treat a disjunction of the four shapes
    (x > y = z), (y > x = z), (z > x = y), (x = y = z): nothing is
    filtered until at most one disjunct remains bound-feasible. It
    reproduces the non-pruning behaviour that motivates the specialised
    propagator (criterion 01). A wake re-checks every disjunct, whichever
    records it reads.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        super().__init__()
        self.x, self.y, self.z = x, y, z

    @staticmethod
    def _tie_feasible(store: Store, top: int, u: int, v: int) -> bool:
        # top > u = v realisable within current bounds
        lo = max(store.lbs[u], store.lbs[v])
        hi = min(store.ubs[u], store.ubs[v])
        return lo <= hi and store.ubs[top] >= lo + 1

    def wake(self, store: Store, start: int, end: int) -> None:
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
            store.failed = True
            return
        if alive > 1:
            return
        if feas[3]:
            lo = max(lbs[x], lbs[y], lbs[z])
            hi = min(ubs[x], ubs[y], ubs[z])
            for v in (x, y, z):
                store.tighten_lb(v, lo)
                store.tighten_ub(v, hi)
        else:
            top, u, v = ((x, y, z), (y, x, z), (z, x, y))[feas.index(True)]
            lo = max(lbs[u], lbs[v])
            hi = min(ubs[u], ubs[v], ubs[top] - 1)
            for w in (u, v):
                store.tighten_lb(w, lo)
                store.tighten_ub(w, hi)
            store.tighten_lb(top, lo + 1)


def post_delayed_disjunction_um3(engine: Engine, x: int, y: int, z: int) -> DelayedDisjunctionUm3:
    return post_woken(engine, DelayedDisjunctionUm3(x, y, z))


# -- reference matrix propagator -----------------------------------------------


class RowWakeMatrix(Propagator):
    """The matrix propagator as one scalar row wake per cell record.

    The same closed forms as `UltrametricMatrix`, applied one cell at a
    time over rows i and j with list reads and a Python loop over the
    slots they flag, each cell reading the bounds its predecessors left.
    Like `UltrametricMatrix`, a wake reads its trail records in order
    and keeps only those of the matrix's cell block. Posting it in place
    of the matrix propagator must reach the same fixpoint. Its rows and
    its cell -> pair map are built from `matrix.cell`, whose numbering
    `test_matrix_cells_are_one_row_major_block` pins, and not from
    `pairs`, the inverse the wake reads, so a fault there is not shared.
    """

    __slots__ = ("matrix", "rows", "pair_of", "row_bounds")

    def __init__(self, matrix: MrcaMatrix):
        super().__init__()
        self.matrix = matrix
        n = matrix.n
        self.rows = [[matrix.cell(i, k) if k != i else 0 for k in range(n)] for i in range(n)]
        # rows[i][i] repeats a cell of row i, so a row's min/max sees real cells only
        for i, row in enumerate(self.rows):
            row[i] = row[i - 1]
        self.pair_of = {matrix.cell(i, j): (i, j) for i in range(n) for j in range(i + 1, n)}
        self.row_bounds = [itemgetter(*row) for row in self.rows]

    def wake(self, store, start, end):
        for var, ev, _ in store.trail[start:end]:
            if var in self.pair_of:
                self.row_wake(store, var, ev)
                if store.failed:
                    break

    def row_wake(self, store, var, ev):
        i, j = self.pair_of[var]
        row_i, row_j = self.row_bounds[i], self.row_bounds[j]
        ids_u, ids_w = self.rows[i], self.rows[j]
        lbs, ubs = store.lbs, store.ubs
        a, A = lbs[var], ubs[var]
        lu, lw = row_i(lbs), row_j(lbs)
        if ev == Event.MIN:
            # lb(u) >= min(lb(x), lb(w)) and lb(w) >= min(lb(x), lb(u))
            mask = list(map(ne, lu, lw))
            mask[i] = mask[j] = False
            for k in compress(range(len(mask)), mask):
                p, q = lu[k], lw[k]
                if p < q:
                    if p < a:
                        store.tighten_lb(ids_u[k], q if q < a else a)
                elif q < a:
                    store.tighten_lb(ids_w[k], p if p < a else a)
            if store.failed:
                return
            # lb(x) > ub(w) makes u = w the tied minimum: ub(u) <= ub(w)
            uu, uw = row_i(ubs), row_j(ubs)
            if min(uu) < a or min(uw) < a:
                mask = list(map(ne, uu, uw))
                mask[i] = mask[j] = False
                for k in compress(range(len(mask)), mask):
                    p, q = uu[k], uw[k]
                    if p < q:
                        if p < a:
                            store.tighten_ub(ids_w[k], p)
                    elif q < a:
                        store.tighten_ub(ids_u[k], q)
                if store.failed:
                    return
        elif max(lu) > A or max(lw) > A:
            # lb(w) > ub(x) makes x = u the tied minimum: ub(u) <= ub(x)
            for k in range(len(lu)):
                if k != i and k != j:
                    if lw[k] > A:
                        store.tighten_ub(ids_u[k], A)
                    if lu[k] > A:
                        store.tighten_ub(ids_w[k], A)


# -- reference relations ---------------------------------------------------------


class ScalarLess(Propagator):
    """a < b as one propagator per atom; every wake filters both bounds.

    `ScalarLess`, `ScalarLessEq` and `ScalarEqual` are the per-atom
    relations the relation tables replaced. Posting a model through them
    (`post_scalar_atom`, `post_scalar_lt`, `post_scalar_le`) must reach the
    fixpoint the tables reach.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        super().__init__()
        self.a, self.b = a, b

    def wake(self, store, start, end):
        a, b = self.a, self.b
        store.tighten_lb(b, store.lbs[a] + 1)
        store.tighten_ub(a, store.ubs[b] - 1)


class ScalarLessEq(Propagator):
    """a <= b as one propagator per atom."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        super().__init__()
        self.a, self.b = a, b

    def wake(self, store, start, end):
        a, b = self.a, self.b
        store.tighten_lb(b, store.lbs[a])
        store.tighten_ub(a, store.ubs[b])


class ScalarEqual(Propagator):
    """All listed variables equal, as one propagator per atom."""

    __slots__ = ("vars",)

    def __init__(self, *vars_):
        super().__init__()
        self.vars = vars_

    def wake(self, store, start, end):
        vs = self.vars
        lo = max(map(store.lbs.__getitem__, vs))
        hi = min(map(store.ubs.__getitem__, vs))
        for v in vs:
            store.tighten_lb(v, lo)
            store.tighten_ub(v, hi)


def post_scalar_lt(engine, a, b):
    post_woken(engine, ScalarLess(a, b))


def post_scalar_le(engine, a, b):
    post_woken(engine, ScalarLessEq(a, b))


def post_scalar_atom(engine, matrix, atom):
    """A triple (xy)z as cell(x,z) < cell(x,y) and cell(x,z) = cell(y,z);
    a fan as its three cells equal."""
    cell = matrix.cell_by_label
    if isinstance(atom, Triple):
        xz, xy, yz = cell(atom.x, atom.z), cell(atom.x, atom.y), cell(atom.y, atom.z)
        post_woken(engine, ScalarLess(xz, xy))
        post_woken(engine, ScalarEqual(xz, yz))
    else:
        xy, xz, yz = cell(atom.x, atom.y), cell(atom.x, atom.z), cell(atom.y, atom.z)
        post_woken(engine, ScalarEqual(xy, xz, yz))


# -- the replaced engine pick and QuickXplain -----------------------------------------


class MinDueEngine(Engine):
    """The engine with its former pick: a list of the due propagators and
    `min` over (LEVEL, seen), whose first minimum is the first registered
    on a tie. The one-pass pick must reproduce it wake for wake."""

    def propagate(self) -> PropagateResult:
        store, stats = self.store, self.stats
        while not store.failed:
            end = len(store.trail)
            due = [p for p in self.propagators if p.seen < end]
            if not due:
                return PropagateResult.FIXPOINT
            p = min(due, key=lambda q: (q.LEVEL, q.seen))
            start, p.seen = p.seen, end
            stats.wakes += 1
            p.wake(store, start, end)
        stats.failures += 1
        return PropagateResult.FAILURE


def quickxplain_reposting(forest, mode: str = "hard") -> ConflictCore:
    """QuickXplain (Junker, AAAI 2004) as `explain_conflict` ran it before
    it kept its base posted: every consistency check posts its whole base
    on the root fixpoint, propagates, and restores."""
    model = build_model(forest, mode, post_atoms=False)
    engine = model.engine
    assert engine.propagate() is PropagateResult.FIXPOINT

    def propagates(atoms) -> bool:
        cp = engine.checkpoint()
        for a in atoms:
            post_atom(engine, model.matrix, a)
        ok = engine.propagate() is PropagateResult.FIXPOINT
        engine.restore(cp)
        return ok

    if propagates(model.atoms):
        raise PreconditionError("explain_conflict requires an incompatible forest")
    probes = 0

    def qx(base: list, delta: list, cands: list) -> list:
        nonlocal probes
        if delta:
            probes += 1
            if not propagates(base):
                return []
        if len(cands) == 1:
            return list(cands)
        half = len(cands) // 2
        c1, c2 = cands[:half], cands[half:]
        d2 = qx(base + c1, c1, c2)
        d1 = qx(base + d2, d2, c1)
        return d1 + d2

    members = set(qx([], [], list(model.atoms)))
    return ConflictCore(tuple(a for a in model.atoms if a in members), probes)


# -- the replaced reader, breakup and greedy loop -------------------------------------

_LABEL_RE = re.compile(r"[A-Za-z0-9_.\-]+")
_FLOAT_RE = re.compile(r"[+-]?\d+(\.\d+)?([eE][+-]?\d+)?")
_INT_RE = re.compile(r"\d+")


def _read_tree_by_closures(text: str, pos: int) -> tuple[PhyloTree, int]:
    """Read the tree at `pos` through its ';'; return it and the position
    of the next non-space character. Errors give offsets into `text`."""
    size = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < size and text[pos].isspace():
            pos += 1

    def expect(ch: str) -> None:
        nonlocal pos
        skip_ws()
        if pos >= size or text[pos] != ch:
            raise NewickParseError(pos, f"expected {ch!r}")
        pos += 1

    def read_label() -> str:
        nonlocal pos
        skip_ws()
        m = _LABEL_RE.match(text, pos)
        if not m:
            raise NewickParseError(pos, "expected a label")
        pos = m.end()
        return m.group()

    def read_rank() -> int:
        nonlocal pos
        m = _INT_RE.match(text, pos)
        if not m:
            raise NewickParseError(pos, "expected an integer rank after '#'")
        pos = m.end()
        rank = int(m.group())
        if rank < 1:
            raise NewickParseError(pos, "rank must be a positive integer")
        return rank

    def skip_branch_length() -> None:
        nonlocal pos
        skip_ws()
        if pos < size and text[pos] == ":":
            pos += 1
            skip_ws()
            m = _FLOAT_RE.match(text, pos)
            if not m:
                raise NewickParseError(pos, "expected a number after ':'")
            pos = m.end()

    open_kids: list[list[PhyloTree]] = []  # child lists of the open "(", innermost last
    leaves: set[str] = set()
    while True:
        skip_ws()
        if pos < size and text[pos] == "(":
            pos += 1
            open_kids.append([])
            continue
        start = pos
        nd = PhyloTree(label=read_label())
        if nd.label in leaves:
            raise NewickParseError(start, f"duplicate leaf label {nd.label!r}")
        leaves.add(nd.label)
        skip_branch_length()
        while open_kids:  # nd is complete: file it, then close every ")" that follows
            kids = open_kids[-1]
            kids.append(nd)
            skip_ws()
            if pos < size and text[pos] == ",":
                pos += 1
                break
            expect(")")
            open_kids.pop()
            if len(kids) < 2:
                raise NewickParseError(pos, "internal node needs at least 2 children")
            label: str | None = None
            rank: int | None = None
            skip_ws()
            if pos < size and text[pos] == "#":
                pos += 1
                rank = read_rank()
            elif pos < size and _LABEL_RE.match(text, pos):
                label = read_label()
                if pos < size and text[pos] == "#":
                    pos += 1
                    rank = read_rank()
            skip_branch_length()
            nd = PhyloTree(children=tuple(kids), label=label, rank=rank)
        else:  # no "(" left open: nd is the root
            break
    expect(";")
    skip_ws()
    return nd, pos


def parse_newick_by_closures(text: str) -> PhyloTree:
    """`parse_newick` as the closure reader ran it: the reference for the
    token reader's trees, messages and error positions."""
    tree, pos = _read_tree_by_closures(text, 0)
    if pos != len(text):
        raise NewickParseError(pos, "trailing characters after ';'")
    return tree


def parse_newick_many_by_closures(text: str) -> list[PhyloTree]:
    """`parse_newick_many` as the closure reader ran it."""
    if not text.strip():
        raise NewickParseError(0, "no trees found")
    trees, pos = [], 0
    while pos < len(text):
        tree, pos = _read_tree_by_closures(text, pos)
        trees.append(tree)
    return trees


def breakup_by_closures(tree: PhyloTree, hard: bool) -> list[Triple | Fan]:
    """`hard_breakup`/`soft_breakup` as they ran with a `current` and a
    `handle` closure, every atom built through `Triple.of`/`Fan.of`: the
    reference for the atoms and their order."""
    levels = [[tree]]
    while levels[-1]:
        levels.append([c for nd in levels[-1] for c in nd.children if c.children])
    stands: dict[PhyloTree, str] = {}
    atoms: list[Triple | Fan] = []

    def current(nd: PhyloTree) -> str:
        return stands[nd] if nd.children else nd.label

    def handle(nd: PhyloTree, outsider: str | None) -> None:
        kids = list(map(current, nd.children))
        if hard:
            atoms.extend(Fan.of(*fan) for fan in itertools.combinations(kids, 3))
        if outsider is not None:
            pairs = [kids[-2:]] if hard else itertools.pairwise(kids)
            atoms.extend(Triple.of(a, b, outsider) for a, b in pairs)
        stands[nd] = kids[-2]

    for level in reversed(levels):
        for parent in level:
            sibs = parent.children
            shown = [min(map(current, s.children)) if s.children else s.label for s in sibs]
            for i, nd in enumerate(sibs):
                if nd.children:
                    handle(nd, min(shown[:i] + shown[i + 1:]))
                    shown[i] = stands[nd]
    if tree.children:
        handle(tree, None)
    return atoms


def greedy_atom_by_atom(forest, mode: str = "hard"):
    """Greedy as it ran before it probed each tree's atoms at once: one
    checkpoint, post and propagate per atom, in `model.atoms` order. The
    rejected atoms the output violates are judged by its mrca matrix.
    Returns the tree, the `GreedyReport` and the model."""
    model = build_model(forest, mode, post_atoms=False)
    engine = model.engine
    assert engine.propagate() is PropagateResult.FIXPOINT
    accepted, rejected = [], []
    for atom in model.atoms:
        cp = engine.checkpoint()
        post_atom(engine, model.matrix, atom)
        if engine.propagate() is PropagateResult.FIXPOINT:
            accepted.append(atom)
        else:
            engine.restore(cp)
            rejected.append(atom)
    tree = model.ultrametric.tree()
    matrix = tree_to_matrix(tree)
    violated = tuple(a for a in rejected if not atom_holds(matrix, a))
    return tree, GreedyReport(tuple(accepted), tuple(rejected), violated), model


# -- the numpy cell index and lower-bound gather ---------------------------------------


def cell_index_by_numpy(start: int, n: int) -> tuple[array, array]:
    """`MrcaMatrix.flat_ids` and `pairs` for n species whose cells are
    the variables from `start` on, scattered through numpy index arrays:
    the reference for the matrix's row-by-row build."""
    i, j = np.triu_indices(n, 1)
    flat_ids = array("q", [0]) * (n * n)
    ids = np.asarray(flat_ids).reshape(n, n)  # a view of flat_ids
    ids[i, j] = ids[j, i] = np.arange(start, start + len(i))
    return flat_ids, array("q", np.stack((i, j), axis=1).tobytes())


def lower_bounds_by_numpy(matrix: MrcaMatrix) -> np.ndarray:
    """`MrcaMatrix.lower_bounds` gathered from `store.lbs` by numpy."""
    n = matrix.n
    if not matrix.cell_vars:  # one species: no cells to gather
        return np.zeros((n, n), dtype=np.int64)
    m = np.array(matrix.store.lbs)[np.asarray(matrix.flat_ids).reshape(n, n)]
    np.fill_diagonal(m, 0)
    return m


# -- the Prim read-off ---------------------------------------------------------------


class NotUltrametricError(ValueError):
    """Matrix has an index triple without a tie for the minimum."""

    def __init__(self, triple: tuple[int, int, int]):
        super().__init__(f"no tie for the minimum at index triple {triple}")
        self.triple = triple


def matrix_to_tree(matrix: UltrametricIntMatrix) -> PhyloTree:
    """The unique tree whose mrca depths reproduce the matrix: the
    reference for the partition read-off `UltrametricMatrix.tree`, and
    the check that a matrix is ultrametric.

    Only comparisons between entries are used, so matrices equal up to a
    strictly increasing relabelling of values give isomorphic trees.

    One Prim pass orders the leaves: start at leaf 0, and place next the
    free leaf with the largest entry to a placed leaf, ties to the
    smallest index; that entry is the leaf's join height h. For an
    ultrametric this is a depth-first order, so every clade is a run,
    and each node lists its children in increasing order of their
    smallest leaf index. With P the matrix in this order, the input is
    ultrametric, and is the tree's, iff P[a, b] == min(P[a, b-1], h[b])
    for every a < b. Otherwise the smallest failing b, any failing a
    and the placed leaf m that gave h[b] form an index triple with no
    tie for the minimum, which is reported. A stack pass over h then
    builds the tree. O(n^2), no recursion.
    """
    n, values = matrix.n, np.asarray(matrix.values)
    if n == 0:
        raise ValueError("empty matrix")
    p = values.copy()
    np.fill_diagonal(p, values.max() + 1)  # above every entry
    if p.min() <= 0:
        raise ValueError("off-diagonal entries must be positive")
    w = p.copy()
    w[:, 0] = 0  # a placed leaf's column: no row raises its key again
    key = w[0].copy()  # each free leaf's largest entry to a placed leaf
    order, h = [0] * n, [0] * n
    for t in range(1, n):
        q = order[t] = int(key.argmax())
        h[t] = int(key[q])
        w[:, q] = key[q] = 0
        np.maximum(key, w[q], out=key)
    p = p[order][:, order]
    bad = np.triu(p[:, 1:] != np.minimum(p[:, :-1], h[1:]))
    if bad.any():
        b = int(bad.any(axis=0).argmax()) + 1
        a, m = int(bad[:, b - 1].argmax()), int(p[b, :b].argmax())
        raise NotUltrametricError(tuple(sorted((order[a], order[m], order[b]))))
    labels = matrix.labels
    stack: list[tuple[int, list[PhyloTree]]] = []  # open clades: depth, children
    last = leaf(labels[0])
    for t, d in enumerate(h[1:] + [0], start=1):  # 0 closes every clade
        while stack and stack[-1][0] > d:
            kids = stack.pop()[1]
            kids.append(last)
            last = PhyloTree(children=tuple(kids))
        if t < n:
            if stack and stack[-1][0] == d:
                stack[-1][1].append(last)
            else:
                stack.append((d, [last]))
            last = leaf(labels[order[t]])
    return last


# -- test forest helpers -------------------------------------------------------------


def ranked_by_depth(tree, depth=1):
    """The tree with every internal node ranked by its depth (root 1)."""
    if tree.is_leaf:
        return tree
    return PhyloTree(tuple(ranked_by_depth(c, depth + 1) for c in tree.children), tree.label, depth)


def swap_leaves(tree, a, b):
    """The tree with leaves a and b exchanged."""
    if tree.is_leaf:
        return PhyloTree(label={a: b, b: a}.get(tree.label, tree.label))
    return PhyloTree(tuple(swap_leaves(c, a, b) for c in tree.children), tree.label, tree.rank)


# -- every rooted tree ----------------------------------------------------------


def _set_partitions(items: tuple) -> Iterator[list[tuple]]:
    """All partitions of items into unordered non-empty blocks."""
    if len(items) == 1:
        yield [items]
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1 :]
        yield [(first,)] + part


def all_rooted_trees(leaves: Iterable[str], max_leaves: int = 8) -> Iterator[PhyloTree]:
    """Every rooted tree on the leaf set, once per isomorphism class.

    All interior degrees are >= 2. Guarded to small leaf sets; the count
    grows like 1, 1, 4, 26, 236, 2752, 39208, 660032.
    """
    labels = tuple(sorted(set(leaves)))
    if not labels:
        raise ValueError("need at least one leaf")
    if len(labels) > max_leaves:
        raise ValueError(f"refusing to enumerate more than {max_leaves} leaves")

    memo: dict[tuple, list[PhyloTree]] = {}

    def gen(block: tuple) -> list[PhyloTree]:
        if block in memo:
            return memo[block]
        if len(block) == 1:
            out = [leaf(block[0])]
        else:
            out = []
            for part in _set_partitions(block):
                if len(part) < 2:
                    continue
                for combo in itertools.product(*(gen(b) for b in part)):
                    out.append(PhyloTree(children=combo))
        memo[block] = out
        return out

    yield from gen(labels)


# -- tree-side oracles ---------------------------------------------------------

# Resolution codes for a sorted species triple (x < y < z):
# 0 fan, 1 (xy)z, 2 (xz)y, 3 (yz)x.


def atom_code(atom: Triple | Fan) -> tuple[tuple[str, str, str], int]:
    x, y, z = sorted(atom.species)
    if isinstance(atom, Fan):
        return (x, y, z), 0
    pair = {atom.x, atom.y}
    if pair == {x, y}:
        return (x, y, z), 1
    if pair == {x, z}:
        return (x, y, z), 2
    return (x, y, z), 3


def triple_codes(tree: PhyloTree) -> dict[tuple[str, str, str], int]:
    """Resolution of every species triple of the tree."""
    m = tree_to_matrix(tree)
    labels = m.labels
    v = m.values
    out: dict[tuple[str, str, str], int] = {}
    for i, j, k in itertools.combinations(range(len(labels)), 3):
        dxy, dxz, dyz = int(v[i, j]), int(v[i, k]), int(v[j, k])
        if dxy == dxz == dyz:
            code = 0
        elif dxy > dxz == dyz:
            code = 1
        elif dxz > dxy == dyz:
            code = 2
        else:
            code = 3
        out[(labels[i], labels[j], labels[k])] = code
    return out


def displays_by_codes(
    super_codes: dict[tuple[str, str, str], int],
    input_codes: dict[tuple[str, str, str], int],
) -> bool:
    """A supertree displays an input iff every input triple resolves alike."""
    return all(super_codes[t] == c for t, c in input_codes.items())


@lru_cache(maxsize=None)
def candidates_with_codes(labels: tuple[str, ...]):
    """All rooted trees on the labels, each with its triple resolutions."""
    return [(t, triple_codes(t)) for t in all_rooted_trees(labels)]


def oracle_supertrees(trees: list[PhyloTree], species: tuple[str, ...]) -> list[PhyloTree]:
    """Brute force: every tree on `species` displaying all inputs."""
    wanted = [triple_codes(t) for t in trees]
    out = []
    for cand, codes in candidates_with_codes(tuple(sorted(species))):
        if all(displays_by_codes(codes, w) for w in wanted):
            out.append(cand)
    return out


def oracle_compatible(trees: list[PhyloTree], species: tuple[str, ...]) -> bool:
    wanted = [triple_codes(t) for t in trees]
    return any(
        all(displays_by_codes(codes, w) for w in wanted)
        for _, codes in candidates_with_codes(tuple(sorted(species)))
    )


def build_compatible(atoms: Iterable[Triple | Fan], species: Iterable[str]) -> bool:
    """BUILD (Aho, Sagiv, Szymanski & Ullman 1981) with fans, the top-split
    step of Ng & Wormald's (1996) OneTree: is there a rooted tree on
    `species` in which every triple (xy)z and every fan (xyz) holds?

    Among the atoms whose species all lie in the current leaf set, a
    triple (xy)z joins x and y, and a fan (xyz) with two members joined
    joins the third, repeated until nothing joins. If the leaf set stays
    one piece, no tree exists; otherwise its pieces are the root's
    children, and each is solved with the atoms inside it. A fan split
    over three pieces holds at the root. A worklist replaces the
    recursion.
    """
    work = [(list(species), list(atoms))]
    while work:
        leaves, rules = work.pop()
        if len(leaves) < 3:
            continue
        root = {s: s for s in leaves}

        def find(s: str) -> str:
            while root[s] != s:
                root[s] = s = root[root[s]]
            return s

        joined = True
        while joined:
            joined = False
            for a in rules:
                if isinstance(a, Fan) and len({find(s) for s in a.species}) != 2:
                    continue
                top = find(a.y)
                for s in (a.x, a.z) if isinstance(a, Fan) else (a.x,):
                    if find(s) != top:
                        root[find(s)] = top
                        joined = True
        parts: dict[str, tuple[list[str], list[Triple | Fan]]] = {}
        for s in leaves:
            parts.setdefault(find(s), ([], []))[0].append(s)
        if len(parts) == 1:
            return False
        for a in rules:
            r = find(a.x)
            if find(a.z) == r:
                parts[r][1].append(a)
        work.extend(parts.values())
    return True


def oracle_necessary(
    trees: list[PhyloTree], species: tuple[str, ...], atom: Triple | Fan
) -> bool:
    """Atom displayed by every supertree (assumes at least one exists)."""
    key, code = atom_code(atom)
    sups = oracle_supertrees(trees, species)
    assert sups, "oracle_necessary expects a compatible forest"
    return all(triple_codes(s)[key] == code for s in sups)


def _label_ancestry(tree: PhyloTree) -> tuple[dict[str, int], dict[str, set[int]]]:
    """Per label: the id of its node and the ids of that node's ancestors
    (including itself). Recursive; small trees only."""
    own: dict[str, int] = {}
    ancs: dict[str, set[int]] = {}

    def walk(nd: PhyloTree, path: set[int]) -> None:
        here = path | {id(nd)}
        if nd.label is not None:
            own[nd.label] = id(nd)
            ancs[nd.label] = here
        for c in nd.children:
            walk(c, here)

    walk(tree, set())
    return own, ancs


def perfectly_displays_by_pairs(t: PhyloTree, t_prime: PhyloTree) -> bool:
    """Reference perfect display: t displays t_prime, and for every pair
    of labels of t_prime, one labels a descendant of the other in t_prime
    exactly when it does in t."""
    if not all_labels(t_prime) <= all_labels(t):
        return False
    if not leaf_labels(t_prime) <= leaf_labels(t):
        return False
    if not displays(t, t_prime):
        return False
    own_p, anc_p = _label_ancestry(t_prime)
    own_t, anc_t = _label_ancestry(t)
    for a in own_p:
        for b in own_p:
            if a != b and (own_p[b] in anc_p[a]) != (own_t[b] in anc_t[a]):
                return False
    return True


def taxon_index(trees: list[PhyloTree]) -> dict[str, list[tuple[int, PhyloTree]]]:
    """Reference for `Forest.taxa`: a preorder walk of every tree, in tree
    order, listing each internal node that carries a taxon label."""
    out: dict[str, list[tuple[int, PhyloTree]]] = {}
    for ti, t in enumerate(trees):
        for nd in iter_nodes(t):
            if not nd.is_leaf and nd.label is not None:
                out.setdefault(nd.label, []).append((ti, nd))
    return out


def nested_rows(model) -> list[tuple[str, str, tuple[str, str]]]:
    """The rows `apply_nested_taxa` posted, read back from the model's
    `LessEq` and `Less` tables as (kind, taxon, species pair): every
    "le" row v <= cell(pair), then every "lt" row cell(pair) < v, each
    kind in posting order. Cells are named through a cell -> pair map of
    the sorted species."""
    pair_of = {model.cell(a, b): (a, b) for a, b in itertools.combinations(model.forest.species, 2)}
    taxon_of = {v: label for label, v in model.taxa_vars.items()}
    tables = {type(p).__name__: p for p in model.engine.propagators}
    le = [("le", taxon_of[v], pair_of[c]) for v, c in tables["LessEq"].rows]
    lt = [("lt", taxon_of[v], pair_of[c]) for c, v in tables["Less"].rows if v in taxon_of]
    return le + lt
