"""Bounds-consistent propagation of the ultrametric relation.

The ultrametric relation over three integers requires a tie for the
minimum: either all three are equal, or two are equal and the third is
strictly greater. This module provides the symmetric matrix of mrca
depth variables (`MrcaMatrix`) and one propagator (`UltrametricMatrix`)
that enforces the relation over every index triple of that matrix while
storing only one propagator object (constant code representation instead
of an n-choose-3 constraint list).

Lower bounds that are individually supported always support each other,
so at any non-failed fixpoint the lower-bound matrix is itself
ultrametric; upper bounds enjoy no such property. An ultrametric matrix
is a hierarchy of clusters: i and j share a cluster at depth d exactly
when lb(i, j) >= d. The propagator keeps that hierarchy, one partition
of the species per depth, and applies both per-triple closed forms to
whole clusters, so a wake costs in proportion to the bounds it narrows
and the clusters it merges, not to the size of the matrix. It proves
incompatibility the way BUILD does: a cluster that cannot split, because
the rows inside it connect it, fails the store.
"""

from __future__ import annotations

import weakref
from array import array
from itertools import islice
from typing import Sequence

from .engine import Engine, Propagator
from .phylo import PhyloTree, leaf, square
from .relations import Equal, Less, LessEq
from .store import Event, Store

_MIN = Event.MIN

# per row kind: the cells whose pair, once joined, lets the row join
# pairs (none: it always does), and the cells whose pairs it joins
_CLOSURE = {
    Less: (slice(0), slice(1, None)),
    LessEq: (slice(1), slice(1, None)),
    Equal: (slice(None), slice(None)),
}


class MrcaMatrix:
    """Symmetric matrix of variables over species pairs.

    Cell (i, j) holds the depth of the most recent common ancestor of
    species i and j; the diagonal is the constant 0 and is not stored.
    Off-diagonal domains start at [1, n-1], so two species have one cell
    fixed at 1 and one species has none. cell(i, j) and cell(j, i) are
    the same variable by construction.

    The cells are one block of consecutive variables, `cell_vars`,
    numbered row-major over the pairs (i, j), i < j, so with
    k = v - cell_vars[0], `pairs[2k]` and `pairs[2k + 1]` are the index
    pair of cell variable v. `flat_ids[i * n + j]` is the variable of
    cell (i, j); the diagonal slots hold 0, a placeholder that every
    reader overwrites. `pairs` and `flat_ids` are `array("q")`s, 8 bytes
    a slot, which the matrix propagator indexes one slot at a time.
    """

    __slots__ = ("store", "labels", "n", "index", "cell_vars", "flat_ids", "pairs")

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
        self.flat_ids = _symmetric(array("q", cells), n)
        cols, first, second = array("q", range(n)), array("q"), array("q")
        for i in range(n):
            first += array("q", [i]) * (n - 1 - i)
            second += cols[i + 1:]
        self.pairs = pairs = array("q", [0]) * (2 * len(cells))
        pairs[0::2], pairs[1::2] = first, second

    def cell(self, i: int, j: int) -> int:
        """Variable id of the unordered pair {i, j}, i != j."""
        if i == j:
            raise ValueError("diagonal cells are the constant 0, not variables")
        return self.flat_ids[i * self.n + j]

    def cell_by_label(self, a: str, b: str) -> int:
        return self.cell(self.index[a], self.index[b])

    def lower_bounds(self) -> memoryview:
        """Current lb of every cell as a full symmetric n x n memoryview
        over an `array("q")`, diagonal 0."""
        cells = self.cell_vars
        lbs = array("q", self.store.lbs[cells.start:cells.stop])
        return square(_symmetric(lbs, self.n), self.n)


def _symmetric(upper: array, n: int) -> array:
    """The symmetric n x n `array("q")`, row-major with a 0 diagonal,
    whose cells (i, j), i < j, are `upper` in row-major order."""
    flat, s = array("q"), 0
    for i in range(n):  # column i of the rows above, 0, then row i's own cells
        e = s + n - 1 - i
        flat += flat[i:i * n:n]
        flat.append(0)
        flat += upper[s:e]
        s = e
    return flat


class UltrametricMatrix(Propagator):
    """Single propagator keeping a whole MrcaMatrix ultrametric.

    Per triple of cells, bounds consistency has two closed forms:

    * lower bounds: lb(v) >= min(lb(u), lb(w)) for every member v and
      the two others u, w;
    * upper bounds: ub(v) <= ub(u) whenever lb(w) > ub(u).

    Over the whole matrix the lower-bound rule closes lb under maximin
    paths, so the cells with lb >= d link the species into clusters, and
    every cell inside a cluster has lb >= d. The propagator keeps these
    clusters as one partition per depth d >= 2 (`cid[d][i]` is the
    cluster of species i, `members[d]` the member lists of the clusters
    it has merged), created when a lower bound first reaches d; depth 1
    is the whole species set. The partitions are nested: a cluster at d
    lies inside one at d - 1.

    A MIN record of cell (i, j), whose lb is now a, joins the clusters
    of i and j at every depth d = a, a-1, ... down to the first where
    they already share one: it raises to d every cell between the two
    clusters that is still below d, then merges them, the smaller into
    the larger. A cell whose species already share a cluster at depth a
    costs one comparison.

    In cluster form the upper-bound rule reads: a cell (i, k) with ub b
    keeps the depth-(b+1) clusters of i and k apart, so ub(j, k) <= b
    for every j in i's cluster and ub(i, j) <= b for every j in k's.
    A MAX record applies it to its cell, and a merge at depth d applies
    it to the cells with ub d-1 of one member of each merged cluster,
    found through `low`, the sparse index of the cells whose ub fell
    below n-1 (`low[i]` holds each such k for species i). The cells it
    narrows apply it in turn at their own events.

    Each merge and each cell added to `low` appends one entry to `log`:
    `size()` is its length, and `truncate` pops entries and undoes them,
    so an engine restore rewinds the clusters with the bounds. A wake
    does work in proportion to the records it reads, the bounds it
    narrows and the clusters it merges.

    A cluster S of at least three species that is still one cluster a
    depth deeper has no top split yet, and the rows inside it may prove
    that it has none (`_connected`). Such a cluster's lower bounds would
    otherwise climb one depth per round until a cell passed n-1, so the
    wake fails the store at once. A merge whose cluster has the size of
    its parent cluster one depth up flags it in `unsplit_at`; the flags
    are re-checked when the wake has read all its records, because the
    parent may have grown since. The rule reads no bound and fails only
    rows that have no solution, so it changes no fixpoint.

    The rows live in the engine's relation tables, which the propagator
    reaches through `engine`, a weak reference: a strong one would make
    every model a reference cycle (the engine's list holds the
    propagator), left to the cyclic garbage collector.

    Registering it needs no wake: cells are constructed at [1, n-1],
    which is already bounds-consistent (all-equal tuples support every
    bound) and leaves every cluster a single species.
    """

    __slots__ = ("matrix", "engine", "cid", "members", "low", "log", "unsplit_at")

    LEVEL = 1  # woken once the relations are at their fixpoint

    def __init__(self, matrix: MrcaMatrix, engine: Engine):
        lo, hi = matrix.cell_vars.start, matrix.cell_vars.stop
        lbs, ubs = matrix.store.lbs, matrix.store.ubs
        if lo < hi and (max(islice(lbs, lo, hi)) > 1 or min(islice(ubs, lo, hi)) < matrix.n - 1):
            raise ValueError("the matrix propagator needs every cell at [1, n-1] when registered")
        self.matrix = matrix
        self.engine = weakref.ref(engine)
        self.cid: list[list[int] | None] = [None] * matrix.n
        self.members: list[dict[int, list[int]] | None] = [None] * matrix.n
        self.low: dict[int, set[int]] = {}
        self.log: list[tuple[int, ...]] = []
        self.unsplit_at: list[tuple[int, int]] = []  # (depth, species) flagged this wake

    def size(self) -> int:
        return len(self.log)

    def truncate(self, size: int) -> None:
        log = self.log
        while len(log) > size:
            entry = log.pop()
            if len(entry) == 2:  # a cell added to low
                i, k = entry
                self.low[i].discard(k)
                self.low[k].discard(i)
            else:  # a merge at depth d: the last `count` members of `big` were `small`'s
                d, big, small, count = entry
                moved = self.members[d][big][-count:]
                del self.members[d][big][-count:]
                cid = self.cid[d]
                for x in moved:
                    cid[x] = small
                self.members[d][small] = moved

    def unsplit(self, top: int) -> bool:
        """True when some cluster of at least two species at a depth
        e <= top is still one cluster at depth e + 1. Depth 1 is the
        whole species set."""
        n = self.matrix.n
        outer = [list(range(n))]
        for e in range(1, min(top, n - 2) + 1):
            cid = self.cid[e + 1]
            if cid is None:  # no lower bound reached e + 1: every cluster splits
                return False
            inner = self.members[e + 1]
            if any(len(inner.get(cid[c[0]], ())) == len(c) for c in outer if len(c) > 1):
                return True
            outer = inner.values()
        return False

    def tree(self) -> PhyloTree:
        """The tree whose clusters are the partitions, read at a fixpoint.

        The root holds every species at depth 1. A node at depth d groups
        its species by their depth-(d+1) cluster, every species its own
        group once no lower bound reaches d + 1, and goes one level deeper
        while there is one group, so the unary levels that rank gaps and
        date bounds leave are suppressed. A group of one species is a
        leaf. Species lists stay sorted and groups keep the order of their
        first member, so children are listed by their smallest species
        index. The nodes are listed parents first, the list extended while
        it is read, and built in reverse: no recursion.
        """
        n, labels = self.matrix.n, self.matrix.labels
        if n == 1:
            return leaf(labels[0])
        alone = range(n)  # the cluster ids where no lower bound reaches a depth
        nodes = [(1, list(alone))]  # depth and species of each internal node
        kids: list[list[int]] = []  # per node: each child's node index, or ~i for species i
        for d, species in nodes:
            groups: dict[int, list[int]] = {}
            while len(groups) < 2:
                d += 1
                cid = (self.cid[d] if d < n else None) or alone
                groups = {}
                for x in species:
                    groups.setdefault(cid[x], []).append(x)
            row = []
            for g in groups.values():
                if len(g) == 1:
                    row.append(~g[0])
                else:
                    row.append(len(nodes))
                    nodes.append((d, g))
            kids.append(row)
        built: list[PhyloTree | None] = [None] * len(nodes)
        for t in range(len(nodes) - 1, -1, -1):  # children come after their parent
            built[t] = PhyloTree(
                children=tuple(built[c] if c >= 0 else leaf(labels[~c]) for c in kids[t])
            )
        return built[0]

    def wake(self, store: Store, start: int, end: int) -> None:
        mat = self.matrix
        lo, hi = mat.cell_vars.start, mat.cell_vars.stop
        pairs = mat.pairs
        lbs, ubs = store.lbs, store.ubs
        cids = self.cid
        flags = self.unsplit_at
        flags.clear()  # a failed wake leaves its flags behind
        for v, ev, _ in store.trail[start:end]:
            if lo <= v < hi:
                k = 2 * (v - lo)
                i, j = pairs[k], pairs[k + 1]
                if ev == _MIN:
                    a = lbs[v]
                    cid = cids[a]
                    if cid is None or cid[i] != cid[j]:
                        self._join(store, i, j, a)
                        if store.failed:
                            return
                else:
                    self._separate(store, i, j, ubs[v])
                    if store.failed:
                        return
        if flags:
            self._refute(store)

    def _join(self, store: Store, i: int, j: int, a: int) -> None:
        """lb(i, j) rose to a: join the clusters of i and j at every depth
        from a down to the first where they already share one."""
        n = self.matrix.n
        ids = self.matrix.flat_ids
        lbs = store.lbs
        size = 0  # of the cluster merged one depth deeper
        for d in range(a, 1, -1):
            cid = self.cid[d]
            if cid is None:
                cid = self.cid[d] = list(range(n))
                self.members[d] = {}
            ci, cj = cid[i], cid[j]
            if ci == cj:
                if len(self.members[d][ci]) == size:
                    self.unsplit_at.append((d + 1, i))
                return
            mem = self.members[d]
            A = mem.get(ci) or [ci]
            B = mem.get(cj) or [cj]
            for p in A:
                row = p * n
                for q in B:
                    v = ids[row + q]
                    if lbs[v] < d:
                        store.tighten_lb(v, d)
            if self.low and not store.failed:
                self._cut(store, ci, B, d - 1)
                self._cut(store, cj, A, d - 1)
            if store.failed:
                return
            if len(A) < len(B):
                ci, cj, A, B = cj, ci, B, A
            for x in B:
                cid[x] = ci
            A.extend(B)
            mem[ci] = A
            mem.pop(cj, None)
            self.log.append((d, ci, cj, len(B)))
            if len(A) == size:
                self.unsplit_at.append((d + 1, i))
            size = len(A)
        if size == n:  # depth 1 is the whole species set
            self.unsplit_at.append((2, i))

    def _refute(self, store: Store) -> None:
        """Fail the store if a flagged cluster of at least three species
        still equals its parent cluster and the rows inside it connect it."""
        n = self.matrix.n
        seen = set()
        for d, x in self.unsplit_at:
            c = self.cid[d][x]
            if (d, c) in seen:
                continue
            seen.add((d, c))
            S = self.members[d][c]
            parent = n if d == 2 else len(self.members[d - 1][self.cid[d - 1][x]])
            if len(S) >= 3 and len(S) == parent and self._connected(S, d):
                v = self.matrix.cell(S[0], S[1])
                store.tighten_lb(v, store.ubs[v] + 1)
                return

    def _connected(self, S: list[int], d: int) -> bool:
        """Whether the rows inside cluster S at depth d connect it.

        In any solution S has a top split, and the pairs across its parts
        take the least value among S's pairs, so a row whose cells all lie
        in S joins pairs into one part: a `Less` row (u, w) joins w's
        pair, a `LessEq` row once u's pair is joined, an `Equal` group all
        its pairs once one is joined. A closure that joins all of S leaves
        no top split: S has no solution. Rows naming a variable outside
        the matrix are skipped, which only weakens the rule."""
        mat = self.matrix
        lo, hi, pairs = mat.cell_vars.start, mat.cell_vars.stop, mat.pairs
        cid = self.cid[d]
        c = cid[S[0]]
        up = {x: x for x in S}

        def find(x: int) -> int:
            while up[x] != x:
                up[x] = x = up[up[x]]
            return x

        def inside(row) -> list[tuple[int, int]] | None:
            out = []
            for v in row:
                if not lo <= v < hi:
                    return None
                k = 2 * (v - lo)
                i, j = pairs[k], pairs[k + 1]
                if cid[i] != c or cid[j] != c:
                    return None
                out.append((i, j))
            return out

        parts = len(S)
        pending = []  # (premise pairs, joined pairs) of each row inside S
        for table in self.engine().propagators:
            if type(table) not in _CLOSURE:
                continue
            premise, joins = _CLOSURE[type(table)]
            for row in table.rows:
                cells = inside(row)
                if cells is not None:
                    pending.append((cells[premise], cells[joins]))
        joined = True
        while joined and parts > 1:
            joined, rest = False, []
            for premises, targets in pending:
                if premises and all(find(i) != find(j) for i, j in premises):
                    rest.append((premises, targets))
                    continue
                joined = True
                for i, j in targets:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        up[ri] = rj
                        parts -= 1
            pending = rest
        return parts == 1

    def _cut(self, store: Store, r: int, T: list[int], b: int) -> None:
        """T joins the cluster of r at depth b + 1: every cell (r, k)
        with ub b keeps k apart from T, ub(q, k) <= b for q in T.

        One member r stands for its cluster. The rule runs on whole
        clusters, so once the events read so far are applied, each
        member has the same cells with ub < b + 1. A member whose cell
        is lowered but not yet read covers T when that event is read,
        and a member whose cell has ub < b has covered T at a smaller
        depth, where the two clusters are joined too."""
        n = self.matrix.n
        ids = self.matrix.flat_ids
        ubs = store.ubs
        row = r * n
        for k in self.low.get(r, ()):
            if ubs[ids[row + k]] == b:
                for q in T:
                    v = ids[q * n + k]
                    if ubs[v] > b:
                        store.tighten_ub(v, b)

    def _separate(self, store: Store, i: int, k: int, b: int) -> None:
        """ub(i, k) fell to b: keep the depth-(b+1) clusters of i and k apart."""
        low = self.low
        if k not in low.get(i, ()):
            low.setdefault(i, set()).add(k)
            low.setdefault(k, set()).add(i)
            self.log.append((i, k))
        cid = self.cid[b + 1]
        if cid is None:
            return
        n = self.matrix.n
        ids = self.matrix.flat_ids
        ubs = store.ubs
        mem = self.members[b + 1]
        for j in mem.get(cid[k], ()):
            v = ids[i * n + j]
            if ubs[v] > b:
                store.tighten_ub(v, b)
        for j in mem.get(cid[i], ()):
            v = ids[j * n + k]
            if ubs[v] > b:
                store.tighten_ub(v, b)


def post_um_matrix(engine: Engine, matrix: MrcaMatrix) -> UltrametricMatrix:
    """Register the single matrix propagator. It adds no per-cell state
    to the engine: its partitions are created as lower bounds reach
    their depths."""
    p = UltrametricMatrix(matrix, engine)
    engine.register(p)
    return p
