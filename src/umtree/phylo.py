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
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Callable, Iterable, Iterator, TypeVar

_T = TypeVar("_T")

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


UNRANKED, RANKED, PARTLY_RANKED = "unranked", "ranked", "partly ranked"


def validate_tree(tree: PhyloTree) -> tuple[dict[str, PhyloTree], str]:
    """Enforce unique labels and arity >= 2 on internal nodes. Return the
    node of every label, leaf or taxon, in preorder, and the tree's rank
    state: UNRANKED, RANKED (every internal node) or PARTLY_RANKED."""
    seen: dict[str, PhyloTree] = {}
    inner = ranked = 0
    stack = [tree]
    while stack:
        nd = stack.pop()
        kids, label = nd.children, nd.label
        if kids:
            if len(kids) < 2:
                raise ValueError("internal node with fewer than 2 children")
            inner += 1
            ranked += nd.rank is not None
            stack.extend(reversed(kids))
        elif label is None:
            raise ValueError("unlabelled leaf")
        if label is not None:
            if label in seen:
                raise ValueError(f"duplicate label {label!r}")
            seen[label] = nd
    if not ranked:
        return seen, UNRANKED
    return seen, RANKED if ranked == inner else PARTLY_RANKED


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


# One match per token: group 1 is the whitespace before it, and `lastindex`
# names its kind, the last group that took part.
_TOKEN_RE = re.compile(
    r"""(\s*)(?:
      ([(),;])                              # 2: punctuation
    | ([A-Za-z0-9_.\-]+)(?:\#(\d*))?        # 3: a label; 4: the digits of a '#' straight after it
    | \#(\d*)                               # 5: the digits of a '#'
    | (:)\s*([+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)?  # 6: ':'; 7: the branch length
    | (\S)                                  # 8: any other character
    )""",
    re.VERBOSE,
)
# reader states: a node is due; a ")" was just read; a node is read (its
# label and rank too); its branch length is read as well; a ";" was read
_NODE, _CLOSED, _READ, _LENGTH, _END = range(5)


def _read(text: str, many: bool) -> list[PhyloTree]:
    """Read the ';'-ended trees of `text`, one token per step of one loop;
    with `many` false, exactly one tree. Errors give offsets into `text`.

    The child lists of the open "(" are a stack, innermost last, so deep
    trees need no recursion. A node is filed into its parent's list at the
    "," or ")" after it; the node a ")" closes is built once its label and
    rank, if any, are read.
    """
    trees: list[PhyloTree] = []
    stack: list[list[PhyloTree]] = []
    leaves: set[str] = set()  # the current tree's leaf labels
    kids: list[PhyloTree] = []  # the child list the last ")" closed
    nd = None  # the node read last, not yet filed
    state = _NODE
    for m in _TOKEN_RE.finditer(text):
        k = m.lastindex
        if state == _NODE or state == _END and many:
            if k == 3 or k == 4:
                label = m[3]
                if label in leaves:
                    raise NewickParseError(m.end(1), f"duplicate leaf label {label!r}")
                if k == 4:  # a leaf has no rank: the '#' is out of place
                    raise NewickParseError(m.end(3), "expected ')'" if stack else "expected ';'")
                leaves.add(label)
                nd, state = PhyloTree((), label), _READ
            elif k == 2 and m[2] == "(":
                stack.append([])
                state = _NODE
            else:
                raise NewickParseError(m.end(1), "expected a label")
            continue
        if state == _CLOSED:  # a label and rank here are the closed node's
            label = m[3] if k == 3 or k == 4 else None
            rank = None
            if k == 4 or k == 5:
                if not m[k]:
                    raise NewickParseError(m.start(k), "expected an integer rank after '#'")
                rank = int(m[k])
                if rank < 1:
                    raise NewickParseError(m.end(k), "rank must be a positive integer")
            nd, state = PhyloTree(tuple(kids), label, rank), _READ
            if 3 <= k <= 5:
                continue
        if k == 2:
            c = m[2]
            if c == "," and stack:
                stack[-1].append(nd)
                state = _NODE
                continue
            if c == ")" and stack:
                kids = stack.pop()
                kids.append(nd)
                if len(kids) < 2:
                    raise NewickParseError(m.end(), "internal node needs at least 2 children")
                state = _CLOSED
                continue
            if c == ";" and not stack and state != _END:
                trees.append(nd)
                leaves = set()
                state = _END
                continue
        elif k == 7 and state == _READ:
            state = _LENGTH
            continue
        elif k == 6 and state == _READ:
            raise NewickParseError(m.end(), "expected a number after ':'")
        pos = m.end(1)  # the token is out of place
        break
    else:  # the text is read: it must end on a ';'
        if state == _END:
            return trees
        pos = len(text)
    if state == _END:
        raise NewickParseError(pos, "trailing characters after ';'")
    if state == _NODE:
        raise NewickParseError(pos, "expected a label")
    raise NewickParseError(pos, "expected ')'" if stack else "expected ';'")


def parse_newick(text: str) -> PhyloTree:
    """Parse one Newick tree; branch lengths are accepted and ignored."""
    return _read(text, many=False)[0]


def parse_newick_many(text: str) -> list[PhyloTree]:
    """Parse a file's ';'-ended trees in turn; error positions are file offsets."""
    if not text.strip():
        raise NewickParseError(0, "no trees found")
    return _read(text, many=True)


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
    """Symmetric integer matrix over sorted species labels, diagonal 0.

    `values` is an n x n memoryview over an `array("q")` (`square`); the
    checks read only `.shape`, `[i, j]` and `.tolist()`, so a numpy
    array passes them too.
    """

    labels: tuple[str, ...]
    values: memoryview

    @property
    def n(self) -> int:
        return len(self.labels)

    def __post_init__(self) -> None:
        v, n = self.values, self.n
        if v.shape != (n, n):
            raise ValueError("matrix shape does not match label count")
        if any(v[i, i] for i in range(n)):
            raise ValueError("diagonal must be 0")
        rows = v.tolist()
        if rows != [list(c) for c in zip(*rows)]:
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


def square(flat: array, n: int) -> memoryview:
    """The n * n `array("q")` `flat` as an n x n memoryview, row-major."""
    return memoryview(flat).cast("B").cast("q", (n, n))


def tree_to_matrix(tree: PhyloTree) -> UltrametricIntMatrix:
    """Depth label of the mrca of every leaf pair (root depth 1)."""
    labels = tuple(sorted(leaf_labels(tree)))
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    flat = array("q", [0]) * (n * n)
    for a, b, _, depth in mrca_pairs(tree):
        i, j = index[a], index[b]
        flat[i * n + j] = flat[j * n + i] = depth
    return UltrametricIntMatrix(labels, square(flat, n))


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
    has no siblings and so no outsider: it gives only its fans. The labels
    of a tree are distinct, so each atom is built with its species
    already in order.
    """
    levels = [[(tree,)]]  # sibling groups: the root alone, then the children of each depth
    while levels[-1]:
        levels.append([c.children for sibs in levels[-1] for c in sibs if c.children])
    stands: dict[PhyloTree, str] = {}  # handled node -> the leaf it stands for
    get = stands.get
    atoms: list[Atom] = []
    for level in reversed(levels):
        for sibs in level:
            # each sibling's current leaves under it: those its children show
            kids = [[get(c, c.label) for c in s.children] if s.children else None for s in sibs]
            shown = [min(k) if k else s.label for s, k in zip(sibs, kids)]
            for i, k in enumerate(kids):
                if k is None:
                    continue
                if hard:
                    atoms.extend([Fan(*sorted(fan)) for fan in itertools.combinations(k, 3)])
                others = shown[:i] + shown[i + 1:]
                if others:
                    z = min(others)
                    for a, b in [k[-2:]] if hard else itertools.pairwise(k):
                        atoms.append(Triple(a, b, z) if a < b else Triple(b, a, z))
                stands[sibs[i]] = shown[i] = k[-2]
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
