import itertools
import random

import pytest

from umtree import (
    DateBounds,
    Engine,
    Forest,
    PhyloTree,
    Predates,
    PropagateResult,
    RankAssign,
    Store,
    build_model,
    hard_breakup,
    post_atom,
    post_eq2,
    post_eq3,
    post_le,
    post_lt,
    post_triple,
    post_fan,
    random_tree,
    restrict_and_suppress,
    species_labels,
    tree_to_matrix,
)
from umtree import supertree
from umtree.phylo import Fan, Triple, leaf_labels
from umtree.supertree import apply_nested_taxa
from umtree.ultrametric import MrcaMatrix, post_um_matrix

from oracles import post_scalar_atom, post_scalar_le, post_scalar_lt, ranked_by_depth, swap_leaves


def _run(post, *boxes):
    s = Store()
    e = Engine(s)
    vs = [s.new_var(lo, hi) for lo, hi in boxes]
    post(e, *vs)
    if e.propagate() is PropagateResult.FAILURE:
        return None
    return [s.domain(v) for v in vs]


def test_lt_examples():
    assert _run(post_lt, (1, 4), (1, 4)) == [(1, 3), (2, 4)]
    assert _run(post_lt, (3, 3), (1, 9)) == [(3, 3), (4, 9)]
    assert _run(post_lt, (4, 4), (1, 4)) is None


def test_le_examples():
    assert _run(post_le, (2, 6), (1, 4)) == [(2, 4), (2, 4)]
    assert _run(post_le, (1, 1), (1, 1)) == [(1, 1), (1, 1)]
    assert _run(post_le, (5, 6), (1, 4)) is None


def test_eq_examples():
    assert _run(post_eq2, (1, 4), (3, 9)) == [(3, 4), (3, 4)]
    assert _run(post_eq3, (1, 5), (2, 6), (4, 9)) == [(4, 5), (4, 5), (4, 5)]
    assert _run(post_eq3, (1, 2), (5, 6), (1, 9)) is None


_RELATIONS = {
    "lt": (2, lambda t: t[0] < t[1]),
    "le": (2, lambda t: t[0] <= t[1]),
    "eq2": (2, lambda t: t[0] == t[1]),
    "eq3": (3, lambda t: t[0] == t[1] == t[2]),
}
_POSTS = {"lt": post_lt, "le": post_le, "eq2": post_eq2, "eq3": post_eq3}


@pytest.mark.parametrize("name", sorted(_RELATIONS))
def test_min_closed(name):
    arity, rel = _RELATIONS[name]
    sats = [t for t in itertools.product(range(4), repeat=arity) if rel(t)]
    for t1 in sats:
        for t2 in sats:
            assert rel(tuple(map(min, t1, t2)))


@pytest.mark.parametrize("name", sorted(_RELATIONS))
def test_bcz_complete_against_enumeration(name):
    arity, rel = _RELATIONS[name]
    boxes_pool = [(lo, hi) for lo in range(4) for hi in range(lo, 4)]
    for boxes in itertools.product(boxes_pool, repeat=arity):
        sat = [
            t
            for t in itertools.product(*(range(lo, hi + 1) for lo, hi in boxes))
            if rel(t)
        ]
        expected = (
            None
            if not sat
            else [(min(t[i] for t in sat), max(t[i] for t in sat)) for i in range(arity)]
        )
        assert _run(_POSTS[name], *boxes) == expected, (name, boxes)


def _fresh_matrix(labels):
    s = Store()
    e = Engine(s)
    m = MrcaMatrix(s, labels)
    post_um_matrix(e, m)
    return s, e, m


def test_post_triple_minimal_completion():
    s, e, m = _fresh_matrix(["a", "b", "c"])
    post_triple(e, m, Triple.of("a", "b", "c"))
    assert e.propagate() is PropagateResult.FIXPOINT
    assert s.lbs[m.cell_by_label("a", "b")] == 2
    assert s.lbs[m.cell_by_label("a", "c")] == 1
    assert s.lbs[m.cell_by_label("b", "c")] == 1


def test_post_fan_equalises_cells():
    s, e, m = _fresh_matrix(["a", "b", "c"])
    post_fan(e, m, Fan.of("a", "b", "c"))
    assert e.propagate() is PropagateResult.FIXPOINT
    assert [s.domain(v) for v in m.cell_vars] == [(1, 2)] * 3


def test_incompatible_triples_fail():
    s, e, m = _fresh_matrix(["a", "b", "c"])
    post_triple(e, m, Triple.of("a", "b", "c"))
    post_triple(e, m, Triple.of("a", "c", "b"))
    assert e.propagate() is PropagateResult.FAILURE


def test_unknown_species_is_construction_error():
    _, e, m = _fresh_matrix(["a", "b", "c"])
    with pytest.raises(KeyError):
        post_triple(e, m, Triple.of("a", "b", "nope"))


def test_lt_self_loop_fails_by_propagation():
    # needed by the "pair predates itself" side-constraint behaviour
    s = Store()
    e = Engine(s)
    v = s.new_var(1, 6)
    post_lt(e, v, v)
    assert e.propagate() is PropagateResult.FAILURE


def test_one_table_per_kind_holds_every_row():
    s = Store()
    e = Engine(s)
    a, b, c = s.new_var(1, 9), s.new_var(1, 9), s.new_var(1, 9)
    lt = post_lt(e, a, b)
    assert post_lt(e, b, c) is lt and post_le(e, a, c) is not lt
    assert post_eq2(e, a, b) is post_eq3(e, a, b, c)
    assert [type(p).__name__ for p in e.propagators] == ["Less", "LessEq", "Equal"]
    assert [p.size() for p in e.propagators] == [2, 1, 2]
    assert lt.after_min == {a: [(a, b)], b: [(b, c)]}
    assert lt.after_max == {b: [(a, b)], c: [(b, c)]}
    # an equality row is indexed under every member, once, in both maps
    eq = e.propagators[2]
    assert eq.after_min == eq.after_max == {a: [(a, b), (a, b, c)], b: [(a, b), (a, b, c)], c: [(a, b, c)]}


# -- tables against the per-atom reference relations --------------------------------


def _with_taxa(tree, rng, names, root=True):
    """About a third of the non-root internal nodes take the next taxon
    name from `names`."""
    if tree.is_leaf:
        return tree
    kids = tuple(_with_taxa(c, rng, names, False) for c in tree.children)
    label = next(names, None) if not root and rng.random() < 0.35 else None
    return PhyloTree(kids, label=label, rank=tree.rank)


def _model_instance(seed):
    """A forest, mode and side constraints over n = 8..30 species.

    The trees restrict one ranked master tree; every third instance swaps
    two leaves of the first tree, every second puts nested taxa on the
    master, and modes alternate in pairs. The sides are a rank assignment
    of a restriction, Predates and DateBounds that agree with the master,
    and in every fourth instance one DateBounds that contradicts it.
    """
    rng = random.Random(seed)
    n = rng.randint(8, 30)
    labels = species_labels(n)
    master = ranked_by_depth(random_tree(labels, rng))
    if seed % 2:
        master = _with_taxa(master, rng, (f"T{k}" for k in range(6)))
    depth = tree_to_matrix(master)
    trees = [restrict_and_suppress(master, rng.sample(labels, rng.randint(4, n))) for _ in range(3)]
    if seed % 3 == 0:
        trees[0] = swap_leaves(trees[0], *rng.sample(sorted(leaf_labels(trees[0])), 2))
    forest = Forest.from_trees(trees)
    species = forest.species
    sides = [RankAssign(restrict_and_suppress(master, rng.sample(species, min(5, len(species)))))]
    for _ in range(3):
        a, b, c, d = rng.sample(species, 4)
        if depth.value(a, b) < depth.value(c, d):
            sides.append(Predates(a, b, c, d))
        a, b = rng.sample(species, 2)
        v = depth.value(a, b)
        sides.append(DateBounds(a, b, max(1, v - rng.randint(0, 2)), min(n - 1, v + rng.randint(0, 3))))
    if seed % 4 == 0:
        a, b = rng.sample(species, 2)
        v = depth.value(a, b)
        sides.append(DateBounds(a, b, v + 1, n - 1) if v < n - 1 else DateBounds(a, b, 1, v - 1))
    return forest, ("hard", "soft")[seed // 2 % 2], sides


def _posted_model(monkeypatch, forest, mode, sides, queue_rng, scalar):
    """build_model plus the nested-taxa rows, with the engine dequeuing
    in queue_rng's order; `scalar` posts through the per-atom relations."""
    with monkeypatch.context() as mp:
        mp.setattr(supertree, "Engine", lambda store: Engine(store, rng=queue_rng))
        if scalar:
            mp.setattr(supertree, "post_atom", post_scalar_atom)
            mp.setattr(supertree, "post_lt", post_scalar_lt)
            mp.setattr(supertree, "post_le", post_scalar_le)
        model = build_model(forest, mode, sides)
        apply_nested_taxa(model, forest)
    return model


def _outcome(model):
    if model.engine.propagate() is PropagateResult.FAILURE:
        return None
    return bytes(model.store.lbs), bytes(model.store.ubs)


@pytest.mark.parametrize("seed", range(24))
def test_tables_reach_the_per_atom_fixpoint(monkeypatch, seed):
    # byte-equal bounds or the same failure, FIFO and two random orders
    forest, mode, sides = _model_instance(seed)
    reference = _posted_model(monkeypatch, forest, mode, sides, None, scalar=True)
    rows = len(reference.engine.propagators) - 1  # one per posted row, and the matrix
    want = _outcome(reference)
    for queue in (None, random.Random(1), random.Random(2)):
        model = _posted_model(monkeypatch, forest, mode, sides, queue, scalar=False)
        assert len(model.engine.propagators) <= 4
        assert sum(p.size() for p in model.engine.propagators) == rows
        assert _outcome(model) == want


def test_variables_outside_the_matrix_block_reach_the_same_fixpoint(monkeypatch):
    # variables created before the matrix move its cells off 0, and the
    # nested-taxa variables follow the block; every propagator receives
    # the events of both, and each must skip what it does not index
    lead = 5

    def store_with_leading_vars():
        s = Store()
        for v in s.new_vars(lead, 0, 9):
            s.tighten_lb(v, 2)
            s.tighten_ub(v, 7)
        return s

    trailing = 0
    for seed in range(12):
        forest, mode, sides = _model_instance(seed)
        want = _outcome(_posted_model(monkeypatch, forest, mode, sides, None, scalar=False))
        for queue in (None, random.Random(1), random.Random(2)):
            with monkeypatch.context() as mp:
                mp.setattr(supertree, "Store", store_with_leading_vars)
                model = _posted_model(monkeypatch, forest, mode, sides, queue, scalar=False)
            cells, store = model.matrix.cell_vars, model.store
            assert cells.start == lead
            trailing += store.num_vars > cells.stop
            failed = model.engine.propagate() is PropagateResult.FAILURE
            got = None if failed else (bytes(store.lbs[lead:]), bytes(store.ubs[lead:]))
            assert got == want
    assert trailing


def test_model_instances_cover_both_outcomes_modes_and_row_kinds(monkeypatch):
    outcomes, kinds = set(), set()
    for seed in range(24):
        forest, mode, sides = _model_instance(seed)
        model = _posted_model(monkeypatch, forest, mode, sides, None, scalar=False)
        kinds.update((mode, type(p).__name__) for p in model.engine.propagators if p.size())
        outcomes.add((mode, _outcome(model) is None))
    assert outcomes == {(m, failed) for m in ("hard", "soft") for failed in (False, True)}
    assert {"Less", "LessEq", "Equal"} <= {k for _, k in kinds}


# -- undo of rows ------------------------------------------------------------------


def _batches(seed):
    """Labels and post batches over one master tree: fans first, so the
    `Less` table and `LessEq` rows to three extra variables first appear
    after a checkpoint; the last batch may contradict the master."""
    rng = random.Random(seed)
    n = rng.randint(6, 12)
    labels = species_labels(n)
    master = random_tree(labels, rng)
    atoms = hard_breakup(master)
    rng.shuffle(atoms)
    fans = [("atom", a) for a in atoms if isinstance(a, Fan)]
    triples = [("atom", a) for a in atoms if isinstance(a, Triple)]
    ext = [("le", (k, rng.sample(labels, 2))) for k in range(3)]
    ext += [("lt", (k, rng.sample(labels, 2))) for k in range(2)]
    bad = ("atom", Triple.of(*rng.sample(labels, 3)))
    cut = len(triples) // 2
    return labels, [fans[:2], triples[:cut] + ext[:2], fans[2:] + ext[2:], triples[cut:], [bad]]


def _engine(labels, queue_rng=None):
    s = Store()
    e = Engine(s, rng=queue_rng)
    m = MrcaMatrix(s, labels)
    extra = s.new_vars(3, 1, len(labels) - 1)
    post_um_matrix(e, m)
    return s, e, m, extra


def _post(e, m, extra, batch):
    for kind, arg in batch:
        if kind == "atom":
            post_atom(e, m, arg)
        else:
            k, (a, b) = arg
            cell = m.cell_by_label(a, b)
            if kind == "le":
                post_le(e, extra[k], cell)
            else:
                post_lt(e, cell, extra[k])


def _tables(e):
    """Each propagator's kind, size and indexes; `truncate` may leave an
    empty index list behind, which counts as absent."""

    def index(p, name):
        return {v: rows for v, rows in getattr(p, name, {}).items() if rows}

    return [(type(p).__name__, p.size(), index(p, "after_min"), index(p, "after_max")) for p in e.propagators]


@pytest.mark.parametrize("seed", range(30))
def test_restore_drops_rows_and_subscriptions_posted_since(seed):
    # nested checkpoints with posts after each, restored in stack order;
    # a table's subscriptions are its index entries
    labels, batches = _batches(seed)
    s, e, m, extra = _engine(labels)
    _post(e, m, extra, batches[0])
    assert e.propagate() is PropagateResult.FIXPOINT
    stack = []
    for batch in batches[1:]:
        stack.append(e.checkpoint())
        _post(e, m, extra, batch)
        if e.propagate() is PropagateResult.FAILURE:
            break
    while stack:
        e.restore(stack.pop())
        kept = len(stack) + 1
        rs, re_, rm, rextra = _engine(labels)
        for batch in batches[:kept]:
            _post(re_, rm, rextra, batch)
        assert re_.propagate() is PropagateResult.FIXPOINT
        assert _tables(e) == _tables(re_)
        assert (bytes(s.lbs), bytes(s.ubs)) == (bytes(rs.lbs), bytes(rs.ubs))
        # the dropped rows posted again reach the fresh engine's fixpoint
        probe = e.checkpoint()
        _post(e, m, extra, batches[kept])
        _post(re_, rm, rextra, batches[kept])
        got, want = e.propagate(), re_.propagate()
        assert got is want
        if want is PropagateResult.FIXPOINT:
            assert (bytes(s.lbs), bytes(s.ubs)) == (bytes(rs.lbs), bytes(rs.ubs))
        e.restore(probe)
    assert [p.size() for p in e.propagators] == [0] + ([len(batches[0])] if batches[0] else [])
