"""Independent brute-force oracles shared by the test modules.

Everything here recomputes expected values from first principles
(enumeration over tuples or over all rooted trees), deliberately not
reusing the propagation code paths it checks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from itertools import compress
from operator import itemgetter, ne

from umtree import (
    Engine,
    Event,
    Fan,
    PhyloTree,
    PropagateResult,
    Store,
    Triple,
    all_rooted_trees,
    displays,
    leaf_labels,
    post_um3,
    tree_to_matrix,
)
from umtree.engine import Propagator, Wake
from umtree.phylo import all_labels
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


# -- reference matrix propagator -----------------------------------------------


class RowWakeMatrix(Propagator):
    """The matrix propagator as one scalar row wake per changed cell.

    The same closed forms as `UltrametricMatrix`, applied one cell at a
    time over rows i and j with list reads and a Python loop over the
    slots they flag, each cell reading the bounds its predecessors left.
    Posting it in place of the matrix propagator must reach the same
    fixpoint.
    """

    __slots__ = ("matrix", "rows", "row_bounds")

    def __init__(self, matrix: MrcaMatrix):
        super().__init__(matrix.cell_vars)
        self.matrix = matrix
        # rows[i][i] repeats a cell of row i, so a row's min/max sees real cells only
        self.rows = [list(row) for row in matrix.rows]
        for i, row in enumerate(self.rows):
            row[i] = row[i - 1]
        self.row_bounds = [itemgetter(*row) for row in self.rows]

    def wake(self, store, changed, events):
        for var, ev in changed.items():
            if var is not None:
                self.row_wake(store, var, ev)
                if store.failed:
                    break
        return Wake.PROGRESS

    def row_wake(self, store, var, events):
        mat = self.matrix
        i, j = mat.index_of(var)
        row_i, row_j = self.row_bounds[i], self.row_bounds[j]
        ids_u, ids_w = self.rows[i], self.rows[j]
        lbs, ubs = store.lbs, store.ubs
        a, A = lbs[var], ubs[var]
        lu, lw = row_i(lbs), row_j(lbs)
        if events & (Event.MIN | Event.FIX):
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
