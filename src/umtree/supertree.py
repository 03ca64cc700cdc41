"""Supertree construction on the ultrametric constraint model.

A forest of input trees is broken into triples and fans, posted over a
matrix of mrca-depth variables together with one matrix-wide ultrametric
propagator, and propagated to fixpoint. The lower bounds then form a
solution, so building a supertree needs no search. On the same model we
answer necessity queries, tolerate conflicting inputs greedily, extract
minimal conflicting atom sets, apply rank/date side constraints, encode
nested taxa, and enumerate all supertree topologies by depth-first
search with propagation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import Engine, EngineCheckpoint, PropagateResult
from .phylo import (
    Atom,
    Fan,
    PhyloTree,
    Triple,
    UltrametricIntMatrix,
    atom_holds,
    canonical_form,
    fold,
    hard_breakup,
    iter_nodes,
    leaf_labels,
    matrix_to_tree,
    mrca_pairs,
    perfectly_displays,
    soft_breakup,
    tree_to_matrix,
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
    """Input trees plus the index over the union of their leaf labels.
    `labelled[t]` is what validating tree t returns: the node of each of
    its labels, leaf or taxon, in preorder, so one walk reads each tree."""

    trees: tuple[PhyloTree, ...]
    labelled: tuple[dict[str, PhyloTree], ...]
    species: tuple[str, ...]
    index: dict[str, int]

    @staticmethod
    def from_trees(trees: Iterable[PhyloTree]) -> "Forest":
        trees = tuple(trees)
        if not trees:
            raise ValueError("empty forest")
        labelled = tuple(map(validate_tree, trees))
        leaves = {lab for nodes in labelled for lab, nd in nodes.items() if not nd.children}
        species = tuple(sorted(leaves))
        return Forest(trees, labelled, species, {s: i for i, s in enumerate(species)})

    @property
    def n(self) -> int:
        return len(self.species)

    @property
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
    """Store, engine and matrix for one forest, plus posted-atom bookkeeping."""

    def __init__(self, forest: Forest, mode: str):
        if mode not in ("hard", "soft"):
            raise ValueError(f"unknown breakup mode {mode!r}")
        self.forest = forest
        self.mode = mode
        self.store = Store()
        self.engine = Engine(self.store)
        self.matrix = MrcaMatrix(self.store, forest.species)
        self.atoms: list[Atom] = []
        self.atom_sources: dict[Atom, list[int]] = {}
        self.taxa_vars: dict[str, int] = {}
        self.nested_posts: list[tuple[str, str, tuple[str, str]]] = []
        post_um_matrix(self.engine, self.matrix)

    @property
    def n(self) -> int:
        return self.forest.n

    def collect_atoms(self) -> None:
        """Break every tree up and record deduplicated atoms with provenance."""
        breakup = hard_breakup if self.mode == "hard" else soft_breakup
        for ti, tree in enumerate(self.forest.trees):
            for atom in breakup(tree):
                if atom not in self.atom_sources:
                    self.atom_sources[atom] = []
                    self.atoms.append(atom)
                self.atom_sources[atom].append(ti)

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
    """Create the constraint model for a forest; no propagation happens yet."""
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


def cp_build(model: SupertreeModel) -> PhyloTree | None:
    """Propagate to fixpoint and read the supertree off the lower bounds.

    Returns None when the inputs are incompatible. Never searches:
    search_nodes stays 0 either way.
    """
    if model.engine.propagate() is PropagateResult.FAILURE:
        return None
    return matrix_to_tree(model.lb_matrix())


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


def _propagates(model: SupertreeModel, atoms: Iterable[Atom]) -> bool:
    """Post the atoms on the model's fixpoint, propagate, and undo both;
    True when the posted model reached a fixpoint."""
    engine = model.engine
    cp = engine.checkpoint()
    for a in atoms:
        post_atom(engine, model.matrix, a)
    ok = engine.propagate() is PropagateResult.FIXPOINT
    engine.restore(cp)
    return ok


def necessity(forest: Forest, atom: Atom, mode: str = "hard") -> bool:
    """Does the atom hold in every supertree of the forest?

    The forest must be compatible (checked; PreconditionError otherwise).
    The negation of the atom is a disjunction of the three alternative
    resolutions of its species triple; each is probed in turn on the one
    propagated model, and the atom is necessary exactly when all three fail.
    """
    for s in atom.species:
        if s not in forest.index:
            raise SpeciesNotFoundError(f"unknown species {s!r}")
    model = build_model(forest, mode)
    if model.engine.propagate() is PropagateResult.FAILURE:
        raise PreconditionError("necessity requires a compatible forest")
    return not any(_propagates(model, [alt]) for alt in _alternatives(atom))


# -- greedy building ------------------------------------------------------------


@dataclass
class GreedyReport:
    """Outcome of greedy construction over the deduplicated atom list."""

    accepted: tuple[Atom, ...]
    rejected: tuple[Atom, ...]
    violated: tuple[Atom, ...]  # rejected atoms the output actually violates

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


def greedy_build_with_model(
    forest: Forest, mode: str = "hard"
) -> tuple[PhyloTree, GreedyReport, SupertreeModel]:
    model = build_model(forest, mode, post_atoms=False)
    engine = model.engine
    res = engine.propagate()
    assert res is PropagateResult.FIXPOINT
    accepted: list[Atom] = []
    rejected: list[Atom] = []
    for atom in model.atoms:
        cp = engine.checkpoint()
        post_atom(engine, model.matrix, atom)
        if engine.propagate() is PropagateResult.FAILURE:
            engine.restore(cp)
            rejected.append(atom)
        else:
            accepted.append(atom)
    tree = matrix_to_tree(model.lb_matrix())
    out_matrix = tree_to_matrix(tree)
    violated = tuple(a for a in rejected if not atom_holds(out_matrix, a))
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
    """
    model = build_model(forest, mode, post_atoms=False)
    res = model.engine.propagate()
    assert res is PropagateResult.FIXPOINT
    if _propagates(model, model.atoms):
        raise PreconditionError("explain_conflict requires an incompatible forest")
    probes = [0]

    def qx(base: list[Atom], delta: list[Atom], cands: list[Atom]) -> list[Atom]:
        if delta:
            probes[0] += 1
            if not _propagates(model, base):
                return []
        if len(cands) == 1:
            return list(cands)
        half = len(cands) // 2
        c1, c2 = cands[:half], cands[half:]
        d2 = qx(base + c1, c1, c2)
        d1 = qx(base + d2, d2, c1)
        return d1 + d2

    core = qx([], [], list(model.atoms))
    core.sort(key=model.atoms.index)
    return ConflictCore(tuple(core), probes[0])


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


def apply_nested_taxa(model: SupertreeModel, forest: Forest) -> dict[str, int]:
    """One depth variable per enclosing taxon, plus its side constraints.

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
                model.nested_posts.append(("le", label, (desc[i], desc[j])))
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
                    model.nested_posts.append(("lt", label, pair))
    return dict(model.taxa_vars)


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

    def mrca(wanted: frozenset[str]) -> PhyloTree:
        """The deepest node with every wanted leaf below it, else the root.

        fold meets every node after its descendants, so the first node
        whose count of wanted leaves is full is the mrca.
        """
        full: list[PhyloTree] = []

        def tally(nd: PhyloTree, count: int) -> int:
            if count == len(wanted):
                full.append(nd)
            return count

        fold(tree, lambda nd: tally(nd, nd.label in wanted), lambda nd, kids: tally(nd, sum(kids)))
        return full[0] if full else tree

    for label in sorted(desc_map):
        spot = mrca(desc_map[label])
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
    """All supertree topologies, deduplicated, up to `limit` of them.

    Depth-first search branching on the unfixed cell with the smallest
    domain, values tried lower bound first, propagating after each
    assignment. Distinct depth labellings of the same topology collapse
    to one result. The first tree found is cp_build's answer.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    engine = model.engine
    store = model.store
    if engine.propagate() is PropagateResult.FAILURE:
        return []
    cells = model.matrix.cell_vars
    lbs, ubs = store.lbs, store.ubs
    out: list[PhyloTree] = []
    seen: set[str] = set()
    branches: list[list[int]] = []  # open search nodes: [cell, next value, last value]
    checkpoints: list[EngineCheckpoint] = []  # one per open child, taken before its assignment

    def expand() -> bool:
        """At a fixpoint: open a branch on the narrowest unfixed cell, or
        record the tree when every cell is fixed."""
        best = -1
        best_width = 0
        for v in cells:
            w = ubs[v] - lbs[v]
            if w > 0 and (best < 0 or w < best_width):
                best, best_width = v, w
        if best >= 0:
            branches.append([best, lbs[best], ubs[best]])
            return True
        tree = matrix_to_tree(model.lb_matrix())
        key = canonical_form(tree)
        if key not in seen:
            seen.add(key)
            out.append(tree)
        return False

    expand()
    while branches:  # depth-first, no recursion: a search may fix every cell in turn
        branch = branches[-1]
        cell, val, hi = branch
        if val > hi or len(out) >= limit:
            branches.pop()
            if checkpoints:
                engine.restore(checkpoints.pop())
            continue
        branch[1] = val + 1
        checkpoints.append(engine.checkpoint())
        engine.stats.search_nodes += 1
        store.assign(cell, val)
        if not (engine.propagate() is PropagateResult.FIXPOINT and expand()):
            engine.restore(checkpoints.pop())
    return out[:limit]


# -- end-to-end pipeline ------------------------------------------------------------


@dataclass
class BuildOutcome:
    """Result of the full pipeline: tree (or None) plus status and model."""

    tree: PhyloTree | None
    model: SupertreeModel
    status: str  # compatible | incompatible | incompatible-nested
    build_ms: float = 0.0
    solve_ms: float = 0.0


def _fully_ranked(tree: PhyloTree) -> bool:
    """True for trees whose every internal node is ranked; a mix of ranked
    and unranked internal nodes is a usage error."""
    ranks = [nd.rank is not None for nd in iter_nodes(tree) if not nd.is_leaf]
    if not ranks:
        return False
    if any(ranks) and not all(ranks):
        raise ValueError("tree is only partially ranked; rank every internal node or none")
    return all(ranks)


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
    for t in forest.trees:
        if _fully_ranked(t):
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
