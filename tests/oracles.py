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
  `RowWakeMatrix` and the scalar relations;
* two helpers that build test forests, and the tree-side oracles.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from itertools import compress
from operator import itemgetter, ne
from typing import Iterable, Iterator, Optional

from umtree import (
    Engine,
    Event,
    Fan,
    PhyloTree,
    PropagateResult,
    Store,
    Triple,
    displays,
    leaf,
    leaf_labels,
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

    A wake filters by the union of the events of its three variables
    (and of the key None); the other variables' events leave it idle.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        if len({x, y, z}) != 3:
            raise ValueError("ultrametric triple needs three distinct variables")
        super().__init__()
        self.x, self.y, self.z = x, y, z

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> None:
        x, y, z = self.x, self.y, self.z
        own = changed.get(None, 0) | changed.get(x, 0) | changed.get(y, 0) | changed.get(z, 0)
        um3_wake(store, x, y, z, own)


def post_um3(engine: Engine, x: int, y: int, z: int) -> UltrametricThree:
    p = UltrametricThree(x, y, z)
    engine.register(p)
    return p


# -- weak disjunctive encoding ------------------------------------------------------


class DelayedDisjunctionUm3(Propagator):
    """Weak disjunctive encoding of the ultrametric triple (demonstrator).

    Mirrors how generic toolkits treat a disjunction of the four shapes
    (x > y = z), (y > x = z), (z > x = y), (x = y = z): nothing is
    filtered until at most one disjunct remains bound-feasible. It
    reproduces the non-pruning behaviour that motivates the specialised
    propagator (criterion 01). A wake re-checks every disjunct, whichever
    variables changed.
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

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> None:
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
    p = DelayedDisjunctionUm3(x, y, z)
    engine.register(p)
    return p


# -- reference matrix propagator -----------------------------------------------


class RowWakeMatrix(Propagator):
    """The matrix propagator as one scalar row wake per changed cell.

    The same closed forms as `UltrametricMatrix`, applied one cell at a
    time over rows i and j with list reads and a Python loop over the
    slots they flag, each cell reading the bounds its predecessors left.
    Like `UltrametricMatrix`, a wake keeps only the changed variables
    inside the matrix's cell block. Posting it in place of the matrix
    propagator must reach the same fixpoint.
    """

    __slots__ = ("matrix", "rows", "row_bounds")

    def __init__(self, matrix: MrcaMatrix):
        super().__init__()
        self.matrix = matrix
        # rows[i][i] repeats a cell of row i, so a row's min/max sees real cells only
        self.rows = [list(row) for row in matrix.rows]
        for i, row in enumerate(self.rows):
            row[i] = row[i - 1]
        self.row_bounds = [itemgetter(*row) for row in self.rows]

    def wake(self, store, changed, events):
        cells = self.matrix.cell_vars
        for var, ev in changed.items():
            if var is not None and cells.start <= var < cells.stop:
                self.row_wake(store, var, ev)
                if store.failed:
                    break

    def row_wake(self, store, var, events):
        mat = self.matrix
        i, j = mat.pairs[var - mat.cell_vars[0]].tolist()
        row_i, row_j = self.row_bounds[i], self.row_bounds[j]
        ids_u, ids_w = self.rows[i], self.rows[j]
        lbs, ubs = store.lbs, store.ubs
        a, A = lbs[var], ubs[var]
        lu, lw = row_i(lbs), row_j(lbs)
        if events & Event.MIN:
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
        if events & Event.MAX and (max(lu) > A or max(lw) > A):
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

    def wake(self, store, changed, events):
        a, b = self.a, self.b
        store.tighten_lb(b, store.lbs[a] + 1)
        store.tighten_ub(a, store.ubs[b] - 1)


class ScalarLessEq(Propagator):
    """a <= b as one propagator per atom."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        super().__init__()
        self.a, self.b = a, b

    def wake(self, store, changed, events):
        a, b = self.a, self.b
        store.tighten_lb(b, store.lbs[a])
        store.tighten_ub(a, store.ubs[b])


class ScalarEqual(Propagator):
    """All listed variables equal, as one propagator per atom."""

    __slots__ = ("vars",)

    def __init__(self, *vars_):
        super().__init__()
        self.vars = vars_

    def wake(self, store, changed, events):
        vs = self.vars
        lo = max(map(store.lbs.__getitem__, vs))
        hi = min(map(store.ubs.__getitem__, vs))
        for v in vs:
            store.tighten_lb(v, lo)
            store.tighten_ub(v, hi)


def post_scalar_lt(engine, a, b):
    engine.register(ScalarLess(a, b))


def post_scalar_le(engine, a, b):
    engine.register(ScalarLessEq(a, b))


def post_scalar_atom(engine, matrix, atom):
    """A triple (xy)z as cell(x,z) < cell(x,y) and cell(x,z) = cell(y,z);
    a fan as its three cells equal."""
    cell = matrix.cell_by_label
    if isinstance(atom, Triple):
        engine.register(ScalarLess(cell(atom.x, atom.z), cell(atom.x, atom.y)))
        engine.register(ScalarEqual(cell(atom.x, atom.z), cell(atom.y, atom.z)))
    else:
        engine.register(ScalarEqual(cell(atom.x, atom.y), cell(atom.x, atom.z), cell(atom.y, atom.z)))


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
