"""Rooted leaf-labelled trees: Newick I/O, mrca matrices, breakup,
display tests and isomorphism.

Trees are immutable after construction; every internal node has at least
two children and leaf labels are unique per tree. Internal nodes may
carry a taxon label and/or an integer rank. Child order is preserved for
serialization but carries no meaning: equality of topologies goes through
canonical forms.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

_T = TypeVar("_T")

_LABEL_RE = re.compile(r"[A-Za-z0-9_.\-]+")
_FLOAT_RE = re.compile(r"[+-]?\d+(\.\d+)?([eE][+-]?\d+)?")
_INT_RE = re.compile(r"\d+")


class NewickParseError(ValueError):
    """Malformed Newick input; carries the offending position."""

    def __init__(self, pos: int, message: str):
        super().__init__(f"parse error at position {pos}: {message}")
        self.pos = pos


@dataclass(frozen=True, eq=False)
class PhyloTree:
    """A rooted tree node; a node with no children is a leaf.

    `label` is the leaf label on leaves and the optional taxon label on
    internal nodes. `rank` is an optional positive integer on internal
    nodes. Instances are shared freely; identity (not structure) is used
    as a dict key, structural comparison goes through canonical_form.
    """

    children: tuple["PhyloTree", ...] = ()
    label: str | None = None
    rank: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


def leaf(label: str) -> PhyloTree:
    return PhyloTree(label=label)


def node(children: Iterable[PhyloTree], label: str | None = None, rank: int | None = None) -> PhyloTree:
    kids = tuple(children)
    if len(kids) < 2:
        raise ValueError("internal node needs at least 2 children")
    return PhyloTree(children=kids, label=label, rank=rank)


def iter_nodes(tree: PhyloTree) -> Iterator[PhyloTree]:
    """Preorder traversal."""
    stack = [tree]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


def fold(
    tree: PhyloTree, at_leaf: Callable[[PhyloTree], _T], at_node: Callable[[PhyloTree, list[_T]], _T]
) -> _T:
    """Bottom-up value of the tree: at_leaf(leaf) on every leaf and
    at_node(node, child values in child order) on every internal node.

    The nodes are listed parents first (breadth-first, the list extended
    while it is read) and evaluated in reverse, so every node comes after
    its descendants: one loop instead of recursion, and deep trees cannot
    overflow the stack. Values are read, not popped, so a subtree shared
    by two parents is fine.
    """
    order = [tree]
    for nd in order:
        order.extend(nd.children)
    value: dict[PhyloTree, _T] = {}
    get = value.__getitem__
    for nd in reversed(order):
        kids = nd.children
        value[nd] = at_node(nd, list(map(get, kids))) if kids else at_leaf(nd)
    return value[tree]


_leaf_label = attrgetter("label")


def leaf_labels(tree: PhyloTree) -> frozenset[str]:
    return frozenset(n.label for n in iter_nodes(tree) if n.is_leaf)


def all_labels(tree: PhyloTree) -> frozenset[str]:
    """Leaf labels plus internal taxon labels."""
    return frozenset(n.label for n in iter_nodes(tree) if n.label is not None)


def validate_tree(tree: PhyloTree) -> dict[str, PhyloTree]:
    """Enforce unique labels and arity >= 2 on internal nodes; return the
    node of every label, leaf or taxon, in preorder."""
    seen: dict[str, PhyloTree] = {}
    for n in iter_nodes(tree):
        if not n.is_leaf and len(n.children) < 2:
            raise ValueError("internal node with fewer than 2 children")
        if n.is_leaf and n.label is None:
            raise ValueError("unlabelled leaf")
        if n.label is not None:
            if n.label in seen:
                raise ValueError(f"duplicate label {n.label!r}")
            seen[n.label] = n
    return seen


# -- relational atoms -------------------------------------------------------


@dataclass(frozen=True, order=True)
class Triple:
    """(xy)z: x and y are closer to each other than either is to z."""

    x: str
    y: str
    z: str

    @staticmethod
    def of(a: str, b: str, outsider: str) -> "Triple":
        if len({a, b, outsider}) != 3:
            raise ValueError("triple needs three distinct species")
        if b < a:
            a, b = b, a
        return Triple(a, b, outsider)

    def __str__(self) -> str:
        return f"({self.x},{self.y}){self.z}"

    @property
    def species(self) -> tuple[str, str, str]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True, order=True)
class Fan:
    """(xyz): the relationship among the three species is unresolved."""

    x: str
    y: str
    z: str

    @staticmethod
    def of(a: str, b: str, c: str) -> "Fan":
        if len({a, b, c}) != 3:
            raise ValueError("fan needs three distinct species")
        a, b, c = sorted((a, b, c))
        return Fan(a, b, c)

    def __str__(self) -> str:
        return f"({self.x},{self.y},{self.z})"

    @property
    def species(self) -> tuple[str, str, str]:
        return (self.x, self.y, self.z)


Atom = Triple | Fan

_ATOM_RE = re.compile(
    r"^\(([A-Za-z0-9_.\-]+),([A-Za-z0-9_.\-]+)(?:\)([A-Za-z0-9_.\-]+)|,([A-Za-z0-9_.\-]+)\))$"
)


def parse_atom(text: str) -> Atom:
    """Parse "(a,b)c" as a triple or "(a,b,c)" as a fan."""
    m = _ATOM_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed atom {text!r}; expected (a,b)c or (a,b,c)")
    a, b, outsider, fan_third = m.groups()
    if outsider is not None:
        return Triple.of(a, b, outsider)
    return Fan.of(a, b, fan_third)


# -- Newick -----------------------------------------------------------------


def _read_tree(text: str, pos: int) -> tuple[PhyloTree, int]:
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


def parse_newick(text: str) -> PhyloTree:
    """Parse one Newick tree; branch lengths are accepted and ignored."""
    tree, pos = _read_tree(text, 0)
    if pos != len(text):
        raise NewickParseError(pos, "trailing characters after ';'")
    return tree


def parse_newick_many(text: str) -> list[PhyloTree]:
    """Parse a file's ';'-ended trees in turn; error positions are file offsets."""
    if not text.strip():
        raise NewickParseError(0, "no trees found")
    trees, pos = [], 0
    while pos < len(text):
        tree, pos = _read_tree(text, pos)
        trees.append(tree)
    return trees


def _suffix(nd: PhyloTree) -> str:
    """An internal node's taxon label and "#rank", as Newick writes them."""
    return (nd.label or "") + ("" if nd.rank is None else f"#{nd.rank}")


def serialize_newick(tree: PhyloTree) -> str:
    return fold(tree, _leaf_label, lambda nd, kids: f"({','.join(kids)}){_suffix(nd)}") + ";"


# -- depths and matrices ----------------------------------------------------


def depth_labels(tree: PhyloTree) -> dict[PhyloTree, int]:
    """Depth of every node, root = 1, children = parent + 1.

    Matches the matrix model, whose off-diagonal domains run from 1 up to
    the species count minus one.
    """
    depths: dict[PhyloTree, int] = {}
    stack = [(tree, 1)]
    while stack:
        n, d = stack.pop()
        depths[n] = d
        for c in n.children:
            stack.append((c, d + 1))
    return depths


@dataclass(frozen=True)
class UltrametricIntMatrix:
    """Symmetric integer matrix over sorted species labels, diagonal 0."""

    labels: tuple[str, ...]
    values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)

    def __post_init__(self) -> None:
        v = self.values
        if v.shape != (self.n, self.n):
            raise ValueError("matrix shape does not match label count")
        if not (np.diag(v) == 0).all():
            raise ValueError("diagonal must be 0")
        if not (v == v.T).all():
            raise ValueError("matrix must be symmetric")

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def value(self, a: str, b: str) -> int:
        index = self.index
        return int(self.values[index[a], index[b]])


def mrca_pairs(tree: PhyloTree) -> Iterator[tuple[str, str, PhyloTree, int]]:
    """Every leaf pair (a, b) with its mrca and the mrca's depth (root 1).

    One iterative post-order walk (depth_labels reversed puts every node
    after its descendants, children in order), so deep trees cannot
    overflow the stack.
    """
    depths = depth_labels(tree)
    under: dict[PhyloTree, list[str]] = {}
    for nd in reversed(depths):
        if nd.is_leaf:
            under[nd] = [nd.label]
            continue
        groups = [under.pop(c) for c in nd.children]
        depth = depths[nd]
        for gi, ga in enumerate(groups):
            for gb in groups[gi + 1:]:
                for a in ga:
                    for b in gb:
                        yield a, b, nd, depth
        merged = groups[0]
        for g in groups[1:]:
            merged.extend(g)
        under[nd] = merged


def tree_to_matrix(tree: PhyloTree) -> UltrametricIntMatrix:
    """Depth label of the mrca of every leaf pair (root depth 1)."""
    labels = tuple(sorted(leaf_labels(tree)))
    index = {lab: i for i, lab in enumerate(labels)}
    rows = [[0] * len(labels) for _ in labels]  # list writes beat numpy item writes
    for a, b, _, depth in mrca_pairs(tree):
        i, j = index[a], index[b]
        rows[i][j] = rows[j][i] = depth
    return UltrametricIntMatrix(labels, np.array(rows, dtype=int))


# -- breakup ----------------------------------------------------------------


def _breakup(tree: PhyloTree, hard: bool) -> list[Atom]:
    """One pass over the interior nodes, deepest level first and left to
    right within a level (the breakup of Ng & Wormald, 1996).

    A handled node stands for the leaf of its second-to-last child. In
    hard mode it gives every fan of three children in index order, then
    the triple of its last two children; in soft mode one triple per
    adjacent pair of children. A triple's outsider is the smallest current
    leaf under the node's siblings: a handled sibling shows the leaf it
    stands for, one not yet handled the leaves of its children. The root
    has no outsider, so it gives only its fans.
    """
    levels = [[tree]]  # the root, then the interior nodes of each depth; the last list is empty
    while levels[-1]:
        levels.append([c for nd in levels[-1] for c in nd.children if c.children])
    stands: dict[PhyloTree, str] = {}  # handled node -> the leaf it stands for
    atoms: list[Atom] = []

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


def hard_breakup(tree: PhyloTree) -> list[Atom]:
    """Triples and fans; multifurcations are real evidence.

    A d-ary interior node contributes all d-choose-3 fans over its
    children before collapsing. Trees with fewer than 3 leaves give [].
    """
    return _breakup(tree, hard=True)


def soft_breakup(tree: PhyloTree) -> list[Atom]:
    """Triples only; multifurcations are lack of evidence (no fans).

    The root is never processed, so a root fan contributes nothing.
    """
    return _breakup(tree, hard=False)


# -- restriction, display, isomorphism --------------------------------------


def restrict_and_suppress(tree: PhyloTree, labels: Iterable[str]) -> PhyloTree:
    """Minimal subtree connecting the kept leaves, degree-2 chains contracted."""
    keep = set(labels)
    have = leaf_labels(tree)
    if not keep:
        raise ValueError("need at least one leaf to restrict to")
    if not keep <= have:
        raise ValueError(f"labels not in tree: {sorted(keep - have)}")

    def restrict(nd: PhyloTree, kids: list[PhyloTree | None]) -> PhyloTree | None:
        kept = [k for k in kids if k is not None]
        if len(kept) < 2:
            return kept[0] if kept else None
        return PhyloTree(children=tuple(kept), label=nd.label, rank=nd.rank)

    return fold(tree, lambda nd: nd if nd.label in keep else None, restrict)


def canonical_form(tree: PhyloTree, with_internal_labels: bool = True) -> str:
    """Order-independent structural key; equal forms mean isomorphic trees."""
    suffix = _suffix if with_internal_labels else lambda nd: ""
    return fold(tree, _leaf_label, lambda nd, kids: f"({','.join(sorted(kids))}){suffix(nd)}")


def isomorphic(t1: PhyloTree, t2: PhyloTree) -> bool:
    """Unordered rooted isomorphism respecting leaf and internal labels."""
    return canonical_form(t1) == canonical_form(t2)


def clusters(tree: PhyloTree) -> dict[PhyloTree, frozenset[str]]:
    """Every node's cluster: the frozenset of the leaf labels under it.

    Taxon labels are not members. The nodes come in fold order, each
    after its descendants and the root last, so the first node whose
    cluster holds a set of leaves is their mrca. A rooted tree is its set
    of clusters (Semple & Steel 2003); iterate a cluster's members only
    where their order cannot reach an output.
    """
    out: dict[PhyloTree, frozenset[str]] = {}

    def keep(nd: PhyloTree, kids: Iterable[frozenset[str]] = ()) -> frozenset[str]:
        out[nd] = here = frozenset().union(*kids) if kids else frozenset((nd.label,))
        return here

    fold(tree, keep, keep)
    return out


def displays(t1: PhyloTree, t2: PhyloTree) -> bool:
    """True iff t1's clusters, cut down to t2's leaves, are t2's clusters:
    restricting t1 to those leaves reproduces t2's topology.

    Internal labels and ranks are ignored. Raises ValueError unless t2's
    leaves are a subset of t1's.
    """
    c1, c2 = clusters(t1), clusters(t2)
    l2 = c2[t2]
    if not l2 <= c1[t1]:
        raise ValueError("second tree has leaves outside the first")
    return {c & l2 for c in c1.values()} - {frozenset()} == set(c2.values())


def perfectly_displays(t: PhyloTree, t_prime: PhyloTree) -> bool:
    """Display plus exact preservation of label ancestry.

    Every labelled node of t_prime, leaf or taxon, needs a node of t with
    the same label whose cluster, cut down to t_prime's leaves, is its
    own cluster in t_prime; then t displays t_prime. So labels of t_prime
    missing from t, and leaves of t_prime that are internal in t, give
    False. Taxon labels are compared node to node, never as members of
    one cluster.
    """
    ct, cp = clusters(t), clusters(t_prime)
    leaves = cp[t_prime]
    cut = {nd.label: c & leaves for nd, c in ct.items() if nd.label is not None}
    if any(nd.label is not None and cut.get(nd.label) != c for nd, c in cp.items()):
        return False
    return {c & leaves for c in ct.values()} - {frozenset()} == set(cp.values())


# -- atoms of a tree ---------------------------------------------------------


def atom_holds(matrix: UltrametricIntMatrix, atom: Atom) -> bool:
    """Whether a tree (given as its mrca matrix) displays the atom."""
    if isinstance(atom, Triple):
        return matrix.value(atom.x, atom.y) > matrix.value(atom.x, atom.z) == matrix.value(
            atom.y, atom.z
        )
    a = matrix.value(atom.x, atom.y)
    return a == matrix.value(atom.x, atom.z) == matrix.value(atom.y, atom.z)
