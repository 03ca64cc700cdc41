"""Seeded input generators, command pools and output checks.

Every input is drawn from a `random.Random` the caller seeds, so one seed
always gives the same Newick files, the same command lines and the same
expected answers. The functions take the imported `umtree` package as
`um` because set-up re-imports it between its timed repeats.

Workloads (see BENCHMARK.json for why each exists):

* ``build-large``: ``build --mode hard`` on compatible
  ``random_forest(60, 3, 0.25)`` forests, one distinct forest per command.
* ``build-small``: ``build`` on n=10..14 forests of 6..20 trees, hard and
  soft, mixing plain, nested-taxa, fully ranked, side-constrained and
  incompatible forests.
* ``queries``: rounds of ``greedy`` and ``explain`` on incompatible
  forests, ``greedy`` and ``necessity`` on compatible ones, and
  ``enumerate --limit 20`` on small sparse forests. The sizes put the five
  command kinds near one median time, so the median of the mix falls
  inside one dense cluster rather than between two.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("build-large", "build-small", "queries")

LARGE_N = 60
LARGE_POOL = 240
SMALL_POOL = 360
QUERY_ROUNDS = 128
QUERY_INC_N = 14
QUERY_GREEDY_N = 36
QUERY_NECESSITY_N = 16
QUERY_ENUM_N = 6
QUERY_ENUM_TREES = 3
QUERY_ENUM_PRUNE = 0.4
ENUM_LIMIT = 20

# Commands the traced run replays: a fixed prefix of the pool, so that
# two traced runs with one seed execute exactly the same work.
TRACE_COMMANDS = {"build-large": 12, "build-small": 200, "queries": 25}

# One block of build-small forests as (variant, mode) slots; the pool is a
# run of blocks, each shuffled, so every block holds exactly this mix.
SMALL_BLOCK = (
    [("plain", "hard")] * 4 + [("plain", "soft")] * 3
    + [("nested", "hard")] * 2 + [("nested", "soft")]
    + [("ranked", "hard")] + [("ranked", "soft")] * 2
    + [("constraints", "hard")] * 2 + [("constraints", "soft")]
    + [("incompatible", "hard")] * 2 + [("incompatible", "soft")] * 2
)


@dataclass
class Command:
    """One CLI call plus what its output must satisfy."""

    kind: str  # build | greedy | explain | necessity | enumerate
    variant: str  # forest flavour, e.g. plain, nested, incompatible
    argv: list[str]
    trees: list  # the input trees as generated
    mode: str
    expect_exit: int = 0
    atom: str | None = None  # necessity query
    ref: object = None  # answer recorded during set-up, when one is needed


# -- generators -----------------------------------------------------------------


def swap_leaves(um, tree, a: str, b: str):
    """Copy of the tree with leaf labels a and b exchanged."""
    swap = {a: b, b: a}

    def sub(nd):
        if nd.is_leaf:
            return um.leaf(swap.get(nd.label, nd.label))
        return um.PhyloTree(
            children=tuple(sub(c) for c in nd.children), label=nd.label, rank=nd.rank
        )

    return sub(tree)


def incompatible_forest(um, rng: random.Random, n: int, n_trees: int, swaps: int, mode: str):
    """Compatible random forest with `swaps` leaf-label swaps, redrawn until
    propagation confirms the forest is incompatible in `mode`."""
    while True:
        trees = um.random_forest(n, n_trees, 0.25, rng)
        for _ in range(swaps):
            ti = rng.randrange(n_trees)
            labels = sorted(um.leaf_labels(trees[ti]))
            if len(labels) < 3:
                continue
            a, b = rng.sample(labels, 2)
            trees[ti] = swap_leaves(um, trees[ti], a, b)
        if um.cp_build(um.build_model(um.Forest.from_trees(trees), mode)) is None:
            return trees


def restrictions(um, master, n_trees: int, prune: float, rng: random.Random) -> list:
    """Leaf-subset restrictions of `master` covering every leaf, drawn as
    `umtree.generate.random_forest` draws them but with at least three
    leaves each."""
    labels = sorted(um.leaf_labels(master))
    subsets = []
    for _ in range(n_trees):
        subset = {lab for lab in labels if rng.random() >= prune}
        while len(subset) < 3:
            subset.add(rng.choice(labels))
        subsets.append(subset)
    for lab in labels:
        if not any(lab in s for s in subsets):
            subsets[rng.randrange(n_trees)].add(lab)
    return [um.restrict_and_suppress(master, s) for s in subsets]


def labelled_master(um, rng: random.Random, n: int, p_label: float = 0.5):
    """Random tree whose internal nodes carry taxon labels T00, T01, ...
    with probability `p_label` each."""
    counter = [0]

    def relabel(nd):
        if nd.is_leaf:
            return nd
        kids = tuple(relabel(c) for c in nd.children)
        label = None
        if rng.random() < p_label:
            label = f"T{counter[0]:02d}"
            counter[0] += 1
        return um.PhyloTree(children=kids, label=label)

    return relabel(um.random_tree(um.species_labels(n), rng))


def ranked_master(um, rng: random.Random, n: int):
    """Random tree whose internal nodes are ranked by depth (root 1)."""

    def rank(nd, depth: int):
        if nd.is_leaf:
            return nd
        return um.PhyloTree(children=tuple(rank(c, depth + 1) for c in nd.children), rank=depth)

    return rank(um.random_tree(um.species_labels(n), rng), 1)


def constraint_lines(um, master, rng: random.Random, n_predates: int, n_bounds: int) -> list[str]:
    """Sidecar lines that the master's mrca depths satisfy.

    `predates a b c d` needs depth(mrca(a,b)) < depth(mrca(c,d)); `bounds a
    b lo hi` brackets depth(mrca(a,b)) within the model's [1, n-1] domain.
    """
    m = um.tree_to_matrix(master)
    labels, depth = m.labels, m.values
    n = len(labels)
    lines = []
    while len(lines) < n_predates:
        a, b, c, d = rng.sample(range(n), 4)
        if depth[a, b] < depth[c, d]:
            lines.append(f"predates {labels[a]} {labels[b]} {labels[c]} {labels[d]}")
    for _ in range(n_bounds):
        a, b = rng.sample(range(n), 2)
        v = int(depth[a, b])
        lo, hi = max(1, v - rng.randint(0, 2)), min(n - 1, v + rng.randint(0, 2))
        lines.append(f"bounds {labels[a]} {labels[b]} {lo} {hi}")
    return lines


def _nested_forest(um, rng: random.Random, n: int, n_trees: int, mode: str) -> list:
    """Restrictions of a labelled master, redrawn until the nested-taxa
    pipeline reports them compatible."""
    while True:
        trees = restrictions(um, labelled_master(um, rng, n), n_trees, 0.3, rng)
        if um.build_supertree(um.Forest.from_trees(trees), mode).status == "compatible":
            return trees


# -- pools ------------------------------------------------------------------------


def _write(path: Path, trees, um) -> str:
    path.write_text("".join(um.serialize_newick(t) + "\n" for t in trees))
    return str(path)


def build_large(um, rng: random.Random, workdir: Path) -> list[Command]:
    out = []
    for i in range(LARGE_POOL):
        trees = um.random_forest(LARGE_N, 3, 0.25, rng)
        path = _write(workdir / f"large{i:03d}.nwk", trees, um)
        out.append(Command("build", "plain", ["build", path, "--mode", "hard"], trees, "hard"))
    return out


def build_small(um, rng: random.Random, workdir: Path) -> list[Command]:
    # every block also holds each species count 10..14 four times and tree
    # counts spread evenly over 6..20, paired with the slots at random
    sizes = [(10 + j % 5, 6 + (j * 15) // len(SMALL_BLOCK)) for j in range(len(SMALL_BLOCK))]
    slots = []
    while len(slots) < SMALL_POOL:
        block = list(SMALL_BLOCK)
        rng.shuffle(block)
        shuffled = list(sizes)
        rng.shuffle(shuffled)
        slots += [v + s for v, s in zip(block, shuffled)]
    out = []
    for i, (variant, mode, n, n_trees) in enumerate(slots[:SMALL_POOL]):
        argv_extra: list[str] = []
        expect = 0
        if variant == "plain":
            trees = um.random_forest(n, n_trees, 0.3, rng)
        elif variant == "nested":
            trees = _nested_forest(um, rng, n, n_trees, mode)
        elif variant == "ranked":
            trees = restrictions(um, ranked_master(um, rng, n), n_trees, 0.3, rng)
        elif variant == "constraints":
            master = um.random_tree(um.species_labels(n), rng)
            trees = restrictions(um, master, n_trees, 0.3, rng)
            side = workdir / f"small{i:03d}.txt"
            side.write_text("\n".join(constraint_lines(um, master, rng, 4, 2)) + "\n")
            argv_extra = ["--constraints", str(side)]
        else:
            trees = incompatible_forest(um, rng, n, n_trees, 2, mode)
            expect = 1
        path = _write(workdir / f"small{i:03d}.nwk", trees, um)
        argv = ["build", path, "--mode", mode, *argv_extra]
        out.append(Command("build", variant, argv, trees, mode, expect_exit=expect))
    return out


def queries(um, rng: random.Random, workdir: Path) -> list[Command]:
    out = []
    for r in range(QUERY_ROUNDS):
        inc = incompatible_forest(um, rng, QUERY_INC_N, 3, 2, "hard")
        inc_path = _write(workdir / f"inc{r:02d}.nwk", inc, um)
        comp = um.random_forest(QUERY_GREEDY_N, 4, 0.25, rng)
        comp_path = _write(workdir / f"comp{r:02d}.nwk", comp, um)
        nec = um.random_forest(QUERY_NECESSITY_N, 4, 0.25, rng)
        nec_path = _write(workdir / f"nec{r:02d}.nwk", nec, um)
        atom = str(rng.choice(um.hard_breakup(nec[rng.randrange(len(nec))])))
        enum = um.random_forest(QUERY_ENUM_N, QUERY_ENUM_TREES, QUERY_ENUM_PRUNE, rng)
        enum_path = _write(workdir / f"enum{r:02d}.nwk", enum, um)
        out += [
            Command("greedy", "incompatible", ["greedy", inc_path, "--mode", "hard"], inc, "hard"),
            Command("explain", "incompatible", ["explain", inc_path, "--mode", "hard"], inc, "hard"),
            Command("greedy", "plain", ["greedy", comp_path, "--mode", "hard"], comp, "hard", ref=[]),
            Command(
                "necessity", "plain",
                ["necessity", nec_path, "--atom", atom, "--mode", "hard"], nec, "hard", atom=atom,
            ),
            Command(
                "enumerate", "plain",
                ["enumerate", enum_path, "--mode", "hard", "--limit", str(ENUM_LIMIT)], enum, "hard",
            ),
        ]
    return out


POOLS = {"build-large": build_large, "build-small": build_small, "queries": queries}


def make_commands(um, workload: str, seed: int, workdir: Path) -> list[Command]:
    """The workload's command pool for `seed`, with its files in `workdir`."""
    return POOLS[workload](um, random.Random(f"{workload}:{seed}"), workdir)


def warmup_commands(um, workdir: Path) -> list[Command]:
    """One tiny command of every kind, run during set-up."""
    rng = random.Random("warmup")
    comp = um.random_forest(6, 3, 0.25, rng)
    inc = incompatible_forest(um, rng, 6, 3, 2, "hard")
    comp_path = _write(workdir / "warm-comp.nwk", comp, um)
    inc_path = _write(workdir / "warm-inc.nwk", inc, um)
    atom = str(next(a for t in comp for a in um.hard_breakup(t)))
    return [
        Command("build", "plain", ["build", comp_path], comp, "hard"),
        Command("build", "incompatible", ["build", inc_path], inc, "hard", expect_exit=1),
        Command("greedy", "incompatible", ["greedy", inc_path], inc, "hard"),
        Command("explain", "incompatible", ["explain", inc_path], inc, "hard"),
        Command("necessity", "plain", ["necessity", comp_path, "--atom", atom], comp, "hard", atom=atom),
        Command("enumerate", "plain", ["enumerate", comp_path, "--limit", "5"], comp, "hard"),
    ]


def record_reference(um, cmd: Command) -> None:
    """Record, through the library, the answer the check compares against:
    a greedy rejected set, an explain core or an enumerate solution count.
    Other commands need none."""
    if cmd.ref is not None or cmd.kind not in ("greedy", "explain", "enumerate"):
        return
    forest = um.Forest.from_trees(cmd.trees)
    if cmd.kind == "greedy":
        cmd.ref = [str(a) for a in um.greedy_build(forest, cmd.mode)[1].rejected]
    elif cmd.kind == "explain":
        cmd.ref = [str(a) for a in um.explain_conflict(forest, cmd.mode).atoms]
    else:
        limit = int(cmd.argv[cmd.argv.index("--limit") + 1])
        cmd.ref = len(um.enumerate_supertrees(um.build_model(forest, cmd.mode), limit))


# -- output checks ------------------------------------------------------------------


class CheckError(AssertionError):
    """A command's output is wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _breakup_strings(um, cmd: Command) -> set[str]:
    breakup = um.hard_breakup if cmd.mode == "hard" else um.soft_breakup
    return {str(a) for t in cmd.trees for a in breakup(t)}


def _clusters(um, tree) -> set[frozenset]:
    return {um.leaf_labels(nd) for nd in um.phylo.iter_nodes(tree) if not nd.is_leaf}


def shows(um, supertree, tree, mode: str) -> bool:
    """Does the supertree display the input tree in this breakup mode?

    Hard mode: the supertree restricted to the tree's leaves is the tree.
    Soft mode treats multifurcations on both sides as unresolved: every
    atom of the tree's soft breakup holds in the supertree, and the two
    trees' clusters are pairwise compatible (nested or disjoint), so a
    common refinement exists.
    """
    if mode == "hard":
        return um.displays(supertree, tree)
    matrix = um.tree_to_matrix(supertree)
    if not all(um.atom_holds(matrix, a) for a in um.soft_breakup(tree)):
        return False
    restricted = um.restrict_and_suppress(supertree, um.leaf_labels(tree))
    return all(
        x <= y or y <= x or not x & y
        for x in _clusters(um, tree)
        for y in _clusters(um, restricted)
    )


def _single_tree(um, stdout: str):
    trees = um.parse_newick_many(stdout)
    _require(len(trees) == 1, f"expected one tree, got {len(trees)}")
    return trees[0]


def check(um, cmd: Command, code: int, stdout: str, stderr: str) -> None:
    """Raise CheckError unless the command's exit code and output are right.

    Wherever a cheap test exists that does not go through the propagator
    (display, atom membership, distinctness), it is used; otherwise the
    output is compared with the answer recorded during set-up.
    """
    _require(code == cmd.expect_exit, f"exit code {code}, expected {cmd.expect_exit}")
    if code != 0:
        _require(stdout == "", "output on a failing command")
        return
    if cmd.kind == "build":
        tree = _single_tree(um, stdout)
        for t in cmd.trees:
            _require(shows(um, tree, t, cmd.mode), "supertree does not display an input tree")
            if cmd.variant == "nested":
                _require(um.perfectly_displays(tree, t), "supertree does not perfectly display")
    elif cmd.kind == "greedy":
        tree = _single_tree(um, stdout)
        report = json.loads(stderr)["report"]
        matrix = um.tree_to_matrix(tree)
        for a in report["accepted"]:
            _require(um.atom_holds(matrix, um.parse_atom(a)), f"accepted atom {a} does not hold")
        _require(
            set(report["accepted"]) | set(report["rejected"]) == _breakup_strings(um, cmd),
            "accepted and rejected atoms do not partition the input atoms",
        )
        _require(report["rejected"] == cmd.ref, "rejected atoms differ from the recorded set")
    elif cmd.kind == "explain":
        core = json.loads(stdout)
        _require(core == cmd.ref, "conflict core differs from the recorded core")
        _require(set(core) <= _breakup_strings(um, cmd), "core atom not among the input atoms")
        model = um.build_model(um.Forest.from_trees(cmd.trees), cmd.mode, post_atoms=False)
        for a in core:
            um.post_atom(model.engine, model.matrix, um.parse_atom(a))
        _require(
            model.engine.propagate() is um.PropagateResult.FAILURE, "re-posted core propagates"
        )
    elif cmd.kind == "necessity":
        _require(stdout.strip() == "necessary", f"input atom {cmd.atom} reported not necessary")
    elif cmd.kind == "enumerate":
        trees = um.parse_newick_many(stdout) if stdout.strip() else []
        _require(len(trees) == cmd.ref, f"{len(trees)} solutions, recorded {cmd.ref}")
        forms = {um.canonical_form(t, with_internal_labels=False) for t in trees}
        _require(len(forms) == len(trees), "enumerated trees are not distinct")
        for tree in trees:
            for t in cmd.trees:
                _require(shows(um, tree, t, cmd.mode), "enumerated tree does not display an input")
    else:
        raise CheckError(f"unknown command kind {cmd.kind}")
