"""Supertree construction on the ultrametric constraint model.

A forest of input trees is broken into triples and fans, posted over a
matrix of mrca-depth variables together with one matrix-wide ultrametric
propagator, and propagated to fixpoint. The lower bounds then form a
solution, so building a supertree needs no search: the propagator holds
them as nested clusters, one partition of the species per depth, and
those clusters are the supertree's. On the same model we
answer necessity queries, tolerate conflicting inputs greedily, extract
minimal conflicting atom sets, apply rank/date side constraints, encode
nested taxa, and list every supertree topology once, by a depth-first
search that branches on whether two species' clusters merge at the next
depth.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Sequence

from .engine import Engine, EngineCheckpoint, PropagateResult
from .phylo import (
    PARTLY_RANKED,
    RANKED,
    Atom,
    Fan,
    PhyloTree,
    Triple,
    UltrametricIntMatrix,
    canonical_form,  # unused here: perfbench/tracing.py wraps this module attribute
    clusters,
    fold,
    hard_breakup,
    iter_nodes,
    leaf_labels,
    mrca_pairs,
    perfectly_displays,
    soft_breakup,
    tree_to_matrix,  # unused here: perfbench/tracing.py wraps this module attribute
    validate_tree,
)
from .relations import post_atom, post_le, post_lt
from .store import Store
from .ultrametric import MrcaMatrix, post_um_matrix


class SpeciesNotFoundError(ValueError):
    """A constraint or query names a species absent from the forest."""


class PreconditionError(ValueError):
    """Operation called on a forest of the wrong compatibility status."""


class NestedContradictionError(ValueError):
    """Nested-taxa preprocessing hit an impossible taxon arrangement."""


class IncompatibleNestedError(Exception):
    """Attached taxa fail the perfect-display verification."""


# -- forest -------------------------------------------------------------------


@dataclass
class Forest:
    """Input trees plus the sorted union of their leaf labels (`species`,
    numbered by the model's `MrcaMatrix.index`). `labelled[t]` and
    `rank_states[t]` are what validating tree t returns: the node of each of
    its labels, leaf or taxon, in preorder, and its rank state (`RANKED`,
    `PARTLY_RANKED` or `UNRANKED`), so one walk reads each tree."""

    trees: tuple[PhyloTree, ...]
    labelled: tuple[dict[str, PhyloTree], ...]
    rank_states: tuple[str, ...]
    species: tuple[str, ...]

    @staticmethod
    def from_trees(trees: Iterable[PhyloTree]) -> "Forest":
        trees = tuple(trees)
        if not trees:
            raise ValueError("empty forest")
        labelled, rank_states = zip(*map(validate_tree, trees))
        leaves = {lab for nodes in labelled for lab, nd in nodes.items() if not nd.children}
        return Forest(trees, labelled, rank_states, tuple(sorted(leaves)))

    @property
    def n(self) -> int:
        return len(self.species)

    @cached_property
    def taxa(self) -> dict[str, list[tuple[int, PhyloTree]]]:
        """The (tree index, node) of every internal node carrying a taxon
        label, by label, in tree order (labels are unique within a tree)."""
        out: dict[str, list[tuple[int, PhyloTree]]] = {}
        for ti, nodes in enumerate(self.labelled):
            for label, nd in nodes.items():
                if nd.children:
                    out.setdefault(label, []).append((ti, nd))
        return out


# -- side constraints ---------------------------------------------------------


@dataclass(frozen=True)
class Predates:
    """div(c,d) predates div(a,b): the (c,d) split is shallower, so the
    constraint posted is cell(c,d) < cell(a,b)."""

    c: str
    d: str
    a: str
    b: str


@dataclass(frozen=True)
class DateBounds:
    """lo <= cell(a,b) <= hi."""

    a: str
    b: str
    lo: int
    hi: int


@dataclass(frozen=True)
class RankAssign:
    """Instantiate every cell of the ranked tree's leaf pairs to the rank
    of the pair's mrca."""

    tree: PhyloTree


SideConstraint = Predates | DateBounds | RankAssign


# -- model --------------------------------------------------------------------


class SupertreeModel:
    """Store, engine, matrix and its propagator (`ultrametric`) for one
    forest, plus `atoms`: each
    deduplicated atom of the breakup, in first-seen order, maps to the
    indices of its source trees. Nested-taxa rows live in the tables."""

    def __init__(self, forest: Forest, mode: str):
        if mode not in ("hard", "soft"):
            raise ValueError(f"unknown breakup mode {mode!r}")
        self.forest = forest
        self.mode = mode
        self.store = Store()
        self.engine = Engine(self.store)
        self.matrix = MrcaMatrix(self.store, forest.species)
        self.atoms: dict[Atom, list[int]] = {}
        self.taxa_vars: dict[str, int] = {}
        self.ultrametric = post_um_matrix(self.engine, self.matrix)

    @property
    def n(self) -> int:
        return self.forest.n

    def collect_atoms(self) -> None:
        """Break every tree up and record deduplicated atoms with provenance."""
        breakup = hard_breakup if self.mode == "hard" else soft_breakup
        for ti, tree in enumerate(self.forest.trees):
            for atom in breakup(tree):
                self.atoms.setdefault(atom, []).append(ti)

    def post_collected_atoms(self) -> None:
        for atom in self.atoms:
            post_atom(self.engine, self.matrix, atom)

    def cell(self, a: str, b: str) -> int:
        try:
            return self.matrix.cell_by_label(a, b)
        except KeyError as e:
            raise SpeciesNotFoundError(f"unknown species {e.args[0]!r}") from None

    def lb_matrix(self) -> UltrametricIntMatrix:
        return UltrametricIntMatrix(self.forest.species, self.matrix.lower_bounds())


def build_model(
    forest: Forest,
    mode: str = "hard",
    sides: Sequence[SideConstraint] = (),
    post_atoms: bool = True,
) -> SupertreeModel:
    """Create the constraint model for a forest. Posting applies each
    row once; propagation to the fixpoint waits for `propagate`."""
    model = SupertreeModel(forest, mode)
    model.collect_atoms()
    if post_atoms:
        model.post_collected_atoms()
    for side in sides:
        apply_side(model, side)
    return model


def apply_side(model: SupertreeModel, side: SideConstraint) -> None:
    if isinstance(side, Predates):
        apply_predates(model, side.c, side.d, side.a, side.b)
    elif isinstance(side, DateBounds):
        apply_date_bounds(model, side.a, side.b, side.lo, side.hi)
    elif isinstance(side, RankAssign):
        apply_ranks(model, side.tree)
    else:
        raise TypeError(f"unknown side constraint {side!r}")


def apply_predates(model: SupertreeModel, c: str, d: str, a: str, b: str) -> None:
    """Post cell(c,d) < cell(a,b): the (c,d) divergence is older/shallower."""
    post_lt(model.engine, model.cell(c, d), model.cell(a, b))


def apply_date_bounds(model: SupertreeModel, a: str, b: str, lo: int, hi: int) -> None:
    cell = model.cell(a, b)
    model.store.tighten_lb(cell, lo)
    model.store.tighten_ub(cell, hi)


def apply_ranks(model: SupertreeModel, tree: PhyloTree) -> None:
    """Instantiate cell(i,j) to the rank of mrca(i,j) for the tree's pairs.

    Requires a fully ranked tree whose ranks strictly increase towards
    the leaves; conflicts with earlier constraints just fail the store.
    """
    for nd in iter_nodes(tree):
        if nd.is_leaf:
            continue
        if nd.rank is None:
            raise ValueError("ranked tree has an unranked internal node")
        if any(not c.is_leaf and c.rank is not None and c.rank <= nd.rank for c in nd.children):
            raise ValueError("ranks must strictly increase away from the root")
    for a, b, mrca, _ in mrca_pairs(tree):
        model.store.assign(model.cell(a, b), mrca.rank)


# -- building -----------------------------------------------------------------


def matrix_to_tree(model: SupertreeModel) -> PhyloTree:
    """The supertree at the model's fixpoint: the tree whose clusters
    are the matrix propagator's partitions of the species by lb >= d.
    The one read-off of cp_build, greedy and enumerate; perfbench's
    tracer times it under this name."""
    return model.ultrametric.tree()


def cp_build(model: SupertreeModel) -> PhyloTree | None:
    """Propagate to fixpoint and read the supertree off the lower bounds.

    At a fixpoint the lower bounds are an ultrametric, held by the matrix
    propagator as one partition of the species per depth; those clusters
    are the supertree's (`matrix_to_tree`). Returns None when the inputs
    are incompatible. Never searches: search_nodes stays 0 either way.
    """
    if model.engine.propagate() is PropagateResult.FAILURE:
        return None
    return matrix_to_tree(model)


# -- necessity ----------------------------------------------------------------


def _alternatives(atom: Atom) -> list[Atom]:
    """The three other resolutions of the atom's index triple."""
    x, y, z = atom.species
    all_four: list[Atom] = [
        Triple.of(x, y, z),
        Triple.of(x, z, y),
        Triple.of(y, z, x),
        Fan.of(x, y, z),
    ]
    return [a for a in all_four if a != atom]


def _probe(model: SupertreeModel, atoms: Iterable[Atom]) -> EngineCheckpoint | None:
    """Post the atoms on a checkpoint of the model's fixpoint and propagate.
    At a fixpoint the atoms stay posted and the checkpoint that undoes
    them is returned; on failure the model is restored at once and the
    result is None."""
    engine = model.engine
    cp = engine.checkpoint()
    for a in atoms:
        post_atom(engine, model.matrix, a)
    if engine.propagate() is PropagateResult.FIXPOINT:
        return cp
    engine.restore(cp)
    return None


def necessity(forest: Forest, atom: Atom, mode: str = "hard") -> bool:
    """Does the atom hold in every supertree of the forest?

    The forest must be compatible (checked; PreconditionError otherwise).
    The negation of the atom is a disjunction of the three alternative
    resolutions of its species triple; each is probed in turn on the one
    propagated model, and the atom is necessary exactly when all three fail.
    """
    model = build_model(forest, mode)
    for s in atom.species:
        if s not in model.matrix.index:
            raise SpeciesNotFoundError(f"unknown species {s!r}")
    if model.engine.propagate() is PropagateResult.FAILURE:
        raise PreconditionError("necessity requires a compatible forest")
    return all(_probe(model, [alt]) is None for alt in _alternatives(atom))


# -- greedy building ------------------------------------------------------------


@dataclass
class GreedyReport:
    """Outcome of greedy construction over the deduplicated atom list."""

    accepted: tuple[Atom, ...]
    rejected: tuple[Atom, ...]
    # rejected atoms the output violates, judged by its clusters: always
    # `rejected`, since each failed on bounds that only narrowed after it
    # and the output is read off them; a self-check of the output
    violated: tuple[Atom, ...]

    def to_json(self) -> dict:
        return {
            "accepted": [str(a) for a in self.accepted],
            "rejected": [str(a) for a in self.rejected],
            "violated": [str(a) for a in self.violated],
        }


def greedy_build(forest: Forest, mode: str = "hard") -> tuple[PhyloTree, GreedyReport]:
    """Keep each atom whose addition still propagates; drop the rest.

    Atoms are tried in input order (deduplicated, first come first kept),
    so the overall run never fails: a conflicting atom is rolled back via
    the checkpoint taken just before posting it. On compatible input the
    rejected set is empty and the result matches cp_build.
    """
    tree, report, _ = greedy_build_with_model(forest, mode)
    return tree, report


def _displayed(spans: Collection[frozenset[str]], atom: Atom) -> bool:
    """Whether the tree whose clusters are `spans` displays the atom."""
    if isinstance(atom, Triple):
        return any(atom.x in c and atom.y in c and atom.z not in c for c in spans)
    return not any((atom.x in c) + (atom.y in c) + (atom.z in c) == 2 for c in spans)


def greedy_build_with_model(
    forest: Forest, mode: str = "hard"
) -> tuple[PhyloTree, GreedyReport, SupertreeModel]:
    """`greedy_build`, also returning the model. The atoms of each first
    source tree are probed at once, in tree order: a fixpoint is a
    solution, so atoms that propagate together would each have been kept
    alone. From the first group that fails on, atoms are probed one by
    one, so the report and fixpoint are those of an atom-by-atom pass."""
    model = build_model(forest, mode, post_atoms=False)
    res = model.engine.propagate()
    assert res is PropagateResult.FIXPOINT
    accepted: list[Atom] = []
    rejected: list[Atom] = []
    by_tree = itertools.groupby(model.atoms.items(), key=lambda item: item[1][0])
    groups = [[atom for atom, _ in sourced] for _, sourced in by_tree]
    kept = 0
    while kept < len(groups) and _probe(model, groups[kept]) is not None:
        accepted += groups[kept]
        kept += 1
    for atom in itertools.chain.from_iterable(groups[kept:]):
        (rejected if _probe(model, [atom]) is None else accepted).append(atom)
    tree = matrix_to_tree(model)
    spans = clusters(tree).values()
    violated = tuple(a for a in rejected if not _displayed(spans, a))
    return tree, GreedyReport(tuple(accepted), tuple(rejected), violated), model


# -- conflict explanation -------------------------------------------------------


@dataclass
class ConflictCore:
    """Minimal atom subset whose joint posting fails.

    `probes` counts the consistency checks spent inside the minimisation
    recursion (worst case 2k*log2(n/k) + 2k for a size-k core among n
    atoms).
    """

    atoms: tuple[Atom, ...]
    probes: int = 0

    def to_json(self) -> list[str]:
        return [str(a) for a in self.atoms]


def explain_conflict(forest: Forest, mode: str = "hard") -> ConflictCore:
    """Minimal conflicting subset of the forest's atoms (QuickXplain).

    Preference follows input order. Posting the returned core fails;
    removing any single member makes it propagate to fixpoint. Requires
    an incompatible forest (PreconditionError otherwise).

    The base stays posted: each consistency check posts only its delta on
    the fixpoint of its caller's base (`_probe`), and a delta that
    propagates is undone when the recursion that needs it returns.
    """
    model = build_model(forest, mode, post_atoms=False)
    res = model.engine.propagate()
    assert res is PropagateResult.FIXPOINT
    if _probe(model, model.atoms) is not None:
        raise PreconditionError("explain_conflict requires an incompatible forest")
    probes = [0]

    def qx(delta: list[Atom], cands: list[Atom]) -> list[Atom]:
        cp = None
        if delta:
            probes[0] += 1
            cp = _probe(model, delta)
            if cp is None:
                return []
        core = cands
        if len(cands) > 1:
            half = len(cands) // 2
            c1, c2 = cands[:half], cands[half:]
            d2 = qx(c1, c2)
            core = qx(d2, c1) + d2
        if cp is not None:
            model.engine.restore(cp)
        return core

    members = set(qx([], list(model.atoms)))
    return ConflictCore(tuple(a for a in model.atoms if a in members), probes[0])


# -- nested taxa -----------------------------------------------------------------


def _substitute_leaf(tree: PhyloTree, label: str, replacement: PhyloTree) -> PhyloTree:
    return fold(
        tree,
        lambda nd: replacement if nd.label == label else nd,
        lambda nd, kids: PhyloTree(children=tuple(kids), label=nd.label, rank=nd.rank),
    )


def nested_preprocess(forest: Forest) -> Forest:
    """Replace each leaf occurrence of an enclosing taxon by a copy of a
    subtree rooted at that taxon elsewhere in the forest.

    Afterwards enclosing taxa appear on internal nodes only. Taxa that
    occur on leaves in every tree are ordinary species and are left
    alone. Self-containing taxon arrangements (which would substitute
    forever or duplicate a label inside one tree) raise
    NestedContradictionError. Each substitution rebuilds the forest: one
    walk validates it, re-indexes the taxa and finds the pending leaves.
    """
    taxa = forest.taxa
    budget = (len(taxa) + 1) * len(forest.trees) + 1
    while True:
        pending = [
            (ti, label)
            for ti, nodes in enumerate(forest.labelled)
            for label, nd in nodes.items()
            if not nd.children and label in taxa
        ]
        if not pending:
            return forest
        budget -= 1
        if budget < 0:
            raise NestedContradictionError("taxa contain each other; substitution cannot finish")
        ti, label = pending[0]
        source = next((nd for tj, nd in taxa[label] if tj != ti), None)
        if source is None:
            raise NestedContradictionError(
                f"taxon {label!r} is used as enclosing but no subtree defines it"
            )
        trees = list(forest.trees)
        trees[ti] = _substitute_leaf(trees[ti], label, source)
        try:
            forest = Forest.from_trees(trees)
        except ValueError as e:
            raise NestedContradictionError(
                f"substituting taxon {label!r} into tree {ti} duplicates labels: {e}"
            ) from None
        taxa = forest.taxa


def taxa_descendants(forest: Forest) -> dict[str, frozenset[str]]:
    """Union over all trees of the leaf descendants of each enclosing taxon."""
    return {
        label: frozenset().union(*(leaf_labels(nd) for _, nd in scopes))
        for label, scopes in forest.taxa.items()
    }


def apply_nested_taxa(model: SupertreeModel, forest: Forest) -> None:
    """One depth variable per enclosing taxon, kept in `model.taxa_vars`,
    plus its side constraints.

    The taxon must sit at least as shallow as the mrca of any two of its
    descendants (pairs taken across the whole forest), and strictly
    deeper than the mrca of any descendant with any non-descendant from
    the same tree. Input must be preprocessed (taxa on internal nodes).
    """
    n = forest.n
    for label, scopes in sorted(forest.taxa.items()):
        v = model.store.new_var(1, n - 1)
        model.taxa_vars[label] = v
        insides = [(ti, leaf_labels(nd)) for ti, nd in scopes]
        desc = sorted(frozenset().union(*(inside for _, inside in insides)))
        for i in range(len(desc)):
            for j in range(i + 1, len(desc)):
                post_le(model.engine, v, model.cell(desc[i], desc[j]))
        seen_pairs: set[tuple[str, str]] = set()
        for ti, inside in insides:
            outside = leaf_labels(forest.trees[ti]) - inside
            for i in sorted(inside):
                for j in sorted(outside):
                    pair = (i, j) if i < j else (j, i)
                    if pair in seen_pairs:
                        continue
                    seen_pairs.add(pair)
                    post_lt(model.engine, model.cell(i, j), v)


def attach_labels(
    tree: PhyloTree,
    desc_map: dict[str, frozenset[str]],
    inputs: Sequence[PhyloTree],
) -> PhyloTree:
    """Attach each taxon at the mrca of its descendants and verify.

    The result must perfectly display every input X-tree; any violation
    (including two taxa landing on the same node) raises
    IncompatibleNestedError rather than returning a wrong tree.
    """
    targets: dict[int, str] = {}
    spans = clusters(tree)  # fold order: the first node whose cluster holds a set is its mrca
    for label in sorted(desc_map):
        wanted = desc_map[label]
        spot = next((nd for nd, c in spans.items() if wanted <= c), tree)
        if spot.is_leaf:
            raise IncompatibleNestedError(f"taxon {label!r} collapses onto a single species")
        if id(spot) in targets:
            raise IncompatibleNestedError(
                f"taxa {targets[id(spot)]!r} and {label!r} need the same node"
            )
        targets[id(spot)] = label

    def relabel(nd: PhyloTree, kids: list[PhyloTree]) -> PhyloTree:
        return PhyloTree(children=tuple(kids), label=targets.get(id(nd), nd.label), rank=nd.rank)

    result = fold(tree, lambda nd: nd, relabel)
    for t in inputs:
        if not perfectly_displays(result, t):
            raise IncompatibleNestedError("result does not perfectly display every input")
    return result


# -- enumeration ------------------------------------------------------------------


def enumerate_supertrees(model: SupertreeModel, limit: int) -> list[PhyloTree]:
    """Every supertree topology, each once, up to `limit` of them.

    A topology has one tight labelling: every internal node sits one
    level below its parent, and the root at 1. The search lists the
    tight labellings that propagate. At a fixpoint, let d be the least
    lb of an unfixed cell; every cell below d is fixed, so the clusters
    down to depth d are final. A node whose final cluster of two or more
    species is still one cluster a level deeper is not tight and is
    pruned. Otherwise it branches on an unfixed cell (i, j) at lb d:
    first i and j apart at d + 1 (ub d), then together (lb d + 1). The
    branches split the labellings, so no topology is reached twice. The
    apart-first path never raises an lb, so the first tree is
    cp_build's. The search is depth-first without recursion and leaves
    the model at its first fixpoint; each child is one search node.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    engine = model.engine
    store = model.store
    if engine.propagate() is PropagateResult.FAILURE:
        return []
    root = engine.checkpoint()
    cells = model.matrix.cell_vars
    lbs, ubs = store.lbs, store.ubs
    deepest = model.n - 1  # no cell has an lb above it, and one at it is fixed
    out: list[PhyloTree] = []
    pending = []  # (checkpoint, cell, d) of each open node whose together child is next

    def expand() -> tuple[int, int] | None:
        """At a fixpoint: the cell and depth to branch on, or None after
        pruning the node or recording its tree."""
        best, d = -1, deepest
        for v in cells:
            lb = lbs[v]
            if lb < d and lb < ubs[v]:
                best, d = v, lb
        if model.ultrametric.unsplit(d):
            return None
        if best < 0:
            out.append(matrix_to_tree(model))
            return None
        return best, d

    branch = expand()
    while branch is not None or (pending and len(out) < limit):
        engine.stats.search_nodes += 1
        if branch is not None:
            cell, d = branch
            pending.append((engine.checkpoint(), cell, d))
            store.tighten_ub(cell, d)
        else:
            cp, cell, d = pending.pop()
            engine.restore(cp)
            store.tighten_lb(cell, d + 1)
        branch = expand() if engine.propagate() is PropagateResult.FIXPOINT else None
    engine.restore(root)
    return out


# -- end-to-end pipeline ------------------------------------------------------------


@dataclass
class BuildOutcome:
    """Result of the full pipeline: tree (or None) plus status and model."""

    tree: PhyloTree | None
    model: SupertreeModel
    status: str  # compatible | incompatible | incompatible-nested
    build_ms: float = 0.0
    solve_ms: float = 0.0


def build_supertree(
    forest: Forest, mode: str = "hard", sides: Sequence[SideConstraint] = ()
) -> BuildOutcome:
    """Nested-taxa-aware, rank-aware supertree construction.

    Preprocesses leaf occurrences of enclosing taxa, applies rank
    assignments for fully ranked input trees, builds and propagates the
    model, and reattaches taxon labels with perfect-display verification.
    """
    t0 = time.perf_counter()
    has_taxa = bool(forest.taxa)
    if has_taxa:
        forest = nested_preprocess(forest)
    all_sides = list(sides)
    for t, rank_state in zip(forest.trees, forest.rank_states):
        if rank_state == PARTLY_RANKED:
            raise ValueError("tree is only partially ranked; rank every internal node or none")
        if rank_state == RANKED:
            all_sides.append(RankAssign(t))
    model = build_model(forest, mode, sides=all_sides)
    if has_taxa:
        apply_nested_taxa(model, forest)
    t1 = time.perf_counter()
    tree = cp_build(model)
    status = "compatible"
    if tree is None:
        status = "incompatible"
    elif has_taxa:
        try:
            tree = attach_labels(tree, taxa_descendants(forest), forest.trees)
        except IncompatibleNestedError:
            tree, status = None, "incompatible-nested"
    t2 = time.perf_counter()
    return BuildOutcome(tree, model, status, (t1 - t0) * 1e3, (t2 - t1) * 1e3)
