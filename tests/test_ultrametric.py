import itertools
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from umtree import (
    DateBounds,
    Engine,
    Event,
    Forest,
    Predates,
    PropagateResult,
    RankAssign,
    Store,
    build_model,
    hard_breakup,
    leaf_labels,
    parse_newick,
    post_um_matrix,
    random_forest,
    random_tree,
    restrict_and_suppress,
    soft_breakup,
    species_labels,
    tree_to_matrix,
)
from umtree.relations import post_atom
from umtree.phylo import Fan, Triple
from umtree.supertree import apply_side
from umtree.ultrametric import MrcaMatrix, UltrametricMatrix

from oracles import (
    RowWakeMatrix,
    all_boxes,
    bcz_box_oracle,
    cell_index_by_numpy,
    lb_fix,
    lower_bounds_by_numpy,
    post_delayed_disjunction_um3,
    post_um3,
    ranked_by_depth,
    swap_leaves,
    ub_fix,
    ultrametric_tuples,
    um3_fixpoint,
    um3_wake,
)


def _vars(store, *boxes):
    return [store.new_var(lo, hi) for lo, hi in boxes]


# -- lb_fix -------------------------------------------------------------------


def test_lb_fix_raises_smallest_to_middle():
    s = Store()
    x, y, z = _vars(s, (1, 3), (2, 3), (3, 3))
    lb_fix(s, x, y, z)
    assert [s.lbs[v] for v in (x, y, z)] == [2, 2, 3]


def test_lb_fix_noop_when_already_tied():
    s = Store()
    x, y, z = _vars(s, (2, 9), (2, 9), (5, 9))
    lb_fix(s, x, y, z)
    assert [s.lbs[v] for v in (x, y, z)] == [2, 2, 5]


def test_lb_fix_failure_when_raise_crosses_ub():
    s = Store()
    x, y, z = _vars(s, (1, 2), (3, 9), (3, 9))
    lb_fix(s, x, y, z)
    assert s.failed


# -- ub_fix -------------------------------------------------------------------


def test_ub_fix_drops_middle_when_small_large_disjoint():
    s = Store()
    x, y, z = _vars(s, (1, 2), (1, 5), (3, 6))
    ub_fix(s, x, y, z)
    assert s.domain(y) == (1, 2)
    assert s.domain(z) == (3, 6)


def test_ub_fix_noop_when_intersections_nonempty():
    s = Store()
    x, y, z = _vars(s, (1, 2), (1, 5), (2, 6))
    ub_fix(s, x, y, z)
    assert [s.domain(v) for v in (x, y, z)] == [(1, 2), (1, 5), (2, 6)]


def test_ub_fix_drops_largest_two_distinct_singletons():
    s = Store()
    x, y, z = _vars(s, (5, 5), (7, 7), (1, 9))
    ub_fix(s, x, y, z)
    assert s.domain(z) == (1, 5)
    # combined with lb_fix at the engine fixpoint, z pins to 5
    e = Engine(s)
    post_um3(e, x, y, z)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert s.domain(z) == (5, 5)


# -- um3_wake -----------------------------------------------------------------


def test_um3_wake_min_event_example():
    s = Store()
    x, y, z = _vars(s, (1, 3), (2, 3), (3, 3))
    um3_wake(s, x, y, z, Event.MIN)
    assert s.domain(x) == (2, 3)
    assert s.domain(y) == (2, 3) and s.domain(z) == (3, 3)


def test_um3_wake_two_equal_singletons_entailed():
    s = Store()
    x, y, z = _vars(s, (5, 5), (5, 5), (3, 9))
    um3_wake(s, x, y, z, Event.MIN)
    assert s.domain(z) == (5, 9)


def test_um3_wake_two_distinct_singletons_entailed():
    s = Store()
    x, y, z = _vars(s, (3, 3), (7, 7), (1, 9))
    um3_wake(s, x, y, z, Event.MIN)
    assert s.domain(z) == (3, 3)


def test_fix_single_passes_are_idempotent():
    rng = random.Random(3)
    for _ in range(200):
        s = Store()
        vs = _vars(s, *((rng.randint(0, 4), rng.randint(4, 9)) for _ in range(3)))
        lb_fix(s, *vs)
        if s.failed:
            continue
        snap = (list(s.lbs), list(s.ubs))
        lb_fix(s, *vs)
        assert (list(s.lbs), list(s.ubs)) == snap
        ub_fix(s, *vs)
        if s.failed:
            continue
        snap = (list(s.lbs), list(s.ubs))
        ub_fix(s, *vs)
        assert (list(s.lbs), list(s.ubs)) == snap


# -- BC(Z) vs oracle ----------------------------------------------------------


def test_bcz_matches_oracle_small_sweep():
    tuples = ultrametric_tuples(3)
    for boxes in itertools.product(all_boxes(3), repeat=3):
        assert um3_fixpoint(boxes) == bcz_box_oracle(boxes, tuples), boxes


def test_lower_bounds_mutually_supportive_at_fixpoint():
    tuples = ultrametric_tuples(3)
    for boxes in itertools.product(all_boxes(3), repeat=3):
        got = um3_fixpoint(boxes)
        if got is not None:
            lbs = tuple(lo for lo, _ in got)
            assert lbs.count(min(lbs)) >= 2, (boxes, got)


def test_upper_bounds_need_not_be_supportive():
    # a genuine fixpoint whose ubs (3,2,1) do not tie for the minimum
    assert um3_fixpoint(((1, 3), (1, 2), (1, 1))) == ((1, 3), (1, 2), (1, 1))


def test_um3_wake_constant_bound_writes(monkeypatch):
    # each wake performs at most a bounded number of tighten calls
    s = Store()
    calls = {"n": 0}
    orig_lb, orig_ub = Store.tighten_lb, Store.tighten_ub

    def lb_counted(self, v, val):
        calls["n"] += 1
        return orig_lb(self, v, val)

    def ub_counted(self, v, val):
        calls["n"] += 1
        return orig_ub(self, v, val)

    monkeypatch.setattr(Store, "tighten_lb", lb_counted)
    monkeypatch.setattr(Store, "tighten_ub", ub_counted)
    x, y, z = _vars(s, (1, 9), (4, 9), (6, 8))
    um3_wake(s, x, y, z, Event.MIN | Event.MAX)
    assert calls["n"] <= 2  # one possible raise in lb_fix, one drop in ub_fix


# -- matrix propagator ---------------------------------------------------------


def _matrix_engine(n, rng=None):
    s = Store()
    e = Engine(s, rng=rng)
    labels = [f"s{i}" for i in range(n)]
    m = MrcaMatrix(s, labels)
    return s, e, m


def test_matrix_triple_post_minimal_completion():
    s, e, m = _matrix_engine(3)
    post_um_matrix(e, m)
    post_atom(e, m, Triple.of("s0", "s1", "s2"))
    assert e.propagate() is PropagateResult.FIXPOINT
    assert s.lbs[m.cell(0, 1)] == 2
    assert s.lbs[m.cell(0, 2)] == 1 and s.lbs[m.cell(1, 2)] == 1


def test_matrix_unconstrained_stays_at_one():
    s, e, m = _matrix_engine(3)
    post_um_matrix(e, m)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert all(s.lbs[v] == 1 for v in m.cell_vars)


def test_new_var_after_matrix_propagation():
    # the store lends no view of its bounds: lower_bounds copies them,
    # so the bounds still grow after it has read them
    s, e, m = _matrix_engine(8)
    post_um_matrix(e, m)
    post_atom(e, m, Triple.of("s0", "s1", "s2"))
    assert e.propagate() is PropagateResult.FIXPOINT
    assert m.lower_bounds()[0, 1] == 2
    v = s.new_var(1, 3)
    assert s.domain(v) == (1, 3)


@pytest.mark.parametrize("n", range(7))
def test_matrix_cells_are_one_row_major_block(n):
    s = Store()
    for _ in range(3):
        s.new_var(0, 9)
    m = MrcaMatrix(s, [f"s{i}" for i in range(n)])
    assert list(m.cell_vars) == list(range(3, 3 + n * (n - 1) // 2))
    assert s.num_vars == 3 + len(m.cell_vars)
    row_major = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for v, (i, j) in zip(m.cell_vars, row_major, strict=True):
        assert m.cell(i, j) == m.cell(j, i) == v
        k = v - m.cell_vars[0]
        assert (m.pairs[2 * k], m.pairs[2 * k + 1]) == (i, j)
    assert all(s.domain(v) == (1, n - 1) for v in m.cell_vars)
    assert len(m.pairs) == 2 * len(m.cell_vars)


def test_matrix_holds_no_per_cell_python_objects():
    # at n=300 the two bound lists, flat_ids and pairs take about 0.7 MB
    # per kind; a Python list of ints per row would add 3.6 MB
    labels = [f"s{i}" for i in range(300)]
    tracemalloc.start()
    try:
        m = MrcaMatrix(Store(), labels)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(m.cell_vars) == 300 * 299 // 2
    assert held < 3_000_000


@pytest.mark.parametrize("n", [1, 2, 3, 60, 301])
def test_cell_index_equals_numpy_scatter(n):
    s = Store()
    for _ in range(4):
        s.new_var(0, 9)
    m = MrcaMatrix(s, [f"s{i}" for i in range(n)])
    assert m.cell_vars.start == 4
    assert (m.flat_ids, m.pairs) == cell_index_by_numpy(4, n)


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_lower_bounds_equal_numpy_gather(mode):
    def gathered(m):
        lb = m.lower_bounds()
        assert lb.shape == (m.n, m.n)
        assert lb.tolist() == lower_bounds_by_numpy(m).tolist()
        return lb.tolist()

    one = build_model(Forest.from_trees([parse_newick("a;")]), mode).matrix
    assert gathered(one) == [[0]]
    rng = random.Random(11)
    for n in (4, 30, 120):
        trees = random_forest(n, 3, 0.25, rng)
        model = build_model(Forest.from_trees(trees), mode)
        m, engine = model.matrix, model.engine
        gathered(m)
        assert engine.propagate() is PropagateResult.FIXPOINT
        fixpoint = gathered(m)
        cp = engine.checkpoint()
        swapped = swap_leaves(trees[0], *rng.sample(sorted(leaf_labels(trees[0])), 2))
        for atom in hard_breakup(swapped):
            post_atom(engine, m, atom)
        engine.propagate()
        gathered(m)
        engine.restore(cp)
        assert gathered(m) == fixpoint


def test_matrix_initial_domains():
    s, _, m = _matrix_engine(5)
    assert all(s.domain(v) == (1, 4) for v in m.cell_vars)
    assert m.cell(1, 3) == m.cell(3, 1)


def _decomposed(e, m):
    n = m.n
    for i, j, k in itertools.combinations(range(n), 3):
        post_um3(e, m.cell(i, j), m.cell(i, k), m.cell(j, k))


def _random_atoms(labels, rng, count):
    atoms = []
    for _ in range(count):
        a, b, c = rng.sample(labels, 3)
        atoms.append(Triple.of(a, b, c) if rng.random() < 0.7 else Fan.of(a, b, c))
    return atoms


@pytest.mark.parametrize("seed", range(25))
def test_matrix_equals_decomposition(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    labels = [f"s{i}" for i in range(n)]
    atoms = _random_atoms(labels, rng, rng.randint(0, 8))

    def run(decomposed):
        s, e, m = _matrix_engine(n)
        if decomposed:
            _decomposed(e, m)
        else:
            post_um_matrix(e, m)
        for a in atoms:
            post_atom(e, m, a)
        if e.propagate() is PropagateResult.FAILURE:
            return None
        return [s.domain(v) for v in m.cell_vars]

    assert run(True) == run(False)


def test_matrix_four_species_pair_of_triples():
    atoms = [Triple.of("a", "b", "c"), Triple.of("c", "d", "a")]

    def run(decomposed):
        s = Store()
        e = Engine(s)
        m = MrcaMatrix(s, ["a", "b", "c", "d"])
        if decomposed:
            _decomposed(e, m)
        else:
            post_um_matrix(e, m)
        for a in atoms:
            post_atom(e, m, a)
        assert e.propagate() is PropagateResult.FIXPOINT
        return [s.domain(v) for v in m.cell_vars]

    assert run(True) == run(False)


def test_matrix_propagator_is_single_and_registers_in_constant_space():
    # registering adds no per-cell state to the engine: at n=300 the
    # 44,850 cells would take 350 KB as one list slot each
    s, e, m = _matrix_engine(300)
    tracemalloc.start()
    try:
        post_um_matrix(e, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert len(e.propagators) == 1
    assert isinstance(e.propagators[0], UltrametricMatrix)


def _perturbation(s, x, rng):
    """A tighten that raises lb(x) or lowers ub(x) to a random value
    inside its domain, as (method, var, value), or None if x is fixed."""
    lo, hi = s.domain(x)
    if lo == hi:
        return None
    if rng.random() < 0.5:
        return Store.tighten_lb, x, rng.randint(lo + 1, hi)
    return Store.tighten_ub, x, rng.randint(lo, hi - 1)


def _cell_domains(s, m):
    return [s.domain(v) for v in m.cell_vars]


def test_matrix_wake_narrows_only_its_rows_like_the_triple_wakes():
    # from a fixpoint, perturb one cell under an engine checkpoint: the
    # matrix propagator reaches the fixpoint of the per-triple um3
    # propagators on the same atoms. Each probe restores the checkpoint,
    # which must rewind the propagator's clusters with the bounds, so the
    # next probe from it agrees too
    narrowed = failed = 0
    for seed in range(50):
        rng = random.Random(seed)
        n = 9
        atoms = _random_atoms([f"s{i}" for i in range(n)], rng, rng.randint(2, 9))
        models = []
        for decomposed in (False, True):
            s, e, m = _matrix_engine(n)
            if decomposed:
                _decomposed(e, m)
            else:
                post_um_matrix(e, m)
            for a in atoms:
                post_atom(e, m, a)
            models.append((s, e, m, e.propagate()))
        if models[0][3] is PropagateResult.FAILURE:
            assert models[1][3] is PropagateResult.FAILURE
            continue
        start = _cell_domains(models[0][0], models[0][2])
        assert _cell_domains(models[1][0], models[1][2]) == start
        for _ in range(4):
            x = rng.randrange(n * (n - 1) // 2)
            probe = rng.random()
            outcomes = []
            for s, e, m, _ in models:
                cp = e.checkpoint()
                tighten = _perturbation(s, m.cell_vars[x], random.Random(probe))
                if tighten:
                    tighten[0](s, *tighten[1:])
                res = e.propagate()
                outcomes.append((res, _cell_domains(s, m) if res is PropagateResult.FIXPOINT else None))
                e.restore(cp)
                assert _cell_domains(s, m) == start
            assert outcomes[0] == outcomes[1], seed
            failed += outcomes[0][0] is PropagateResult.FAILURE
            narrowed += outcomes[0][1] not in (None, start)
    assert narrowed > 20 and failed > 0  # the sample exercises both outcomes


def test_matrix_closed_forms_equal_um3_on_every_box_triple():
    # every triple of domains within [1, 5] (3,375 cases): the matrix
    # propagator's closed forms on the cells of species 0, 1, 2 reach the
    # fixpoint of iterating um3_wake; the other cells span [1, 5] and
    # stay consistent
    boxes = [(lo, hi) for lo in range(1, 6) for hi in range(lo, 6)]
    for triple in itertools.product(boxes, repeat=3):
        s, e, m = _matrix_engine(6)
        post_um_matrix(e, m)
        cells = (m.cell(0, 1), m.cell(0, 2), m.cell(1, 2))
        for v, (lo, hi) in zip(cells, triple):
            s.tighten_lb(v, lo)
            s.tighten_ub(v, hi)
        if e.propagate() is PropagateResult.FAILURE:
            got = None
        else:
            got = tuple(s.domain(v) for v in cells)
            assert all(s.domain(v) == (1, 5) for v in m.cell_vars if v not in cells)
        assert got == um3_fixpoint(triple), triple


def _sided_instance(seed):
    """Atoms and side constraints over n = 12..20 species.

    Inputs are restrictions of one master tree, and the sides agree with
    its mrca depths: Predates, DateBounds and a rank assignment of a
    ranked restriction. Every third instance gets one side that
    contradicts the master.
    """
    rng = random.Random(seed)
    n = 12 + seed % 9
    labels = species_labels(n)
    master = ranked_by_depth(random_tree(labels, rng))
    depth = tree_to_matrix(master)
    trees = [restrict_and_suppress(master, rng.sample(labels, rng.randint(4, n // 2))) for _ in range(3)]
    atoms = sorted({a for t in trees for a in hard_breakup(t)}, key=str)
    sides = [RankAssign(restrict_and_suppress(master, rng.sample(labels, 5)))]
    for _ in range(4):
        a, b, c, d = rng.sample(labels, 4)
        if depth.value(a, b) < depth.value(c, d):
            sides.append(Predates(a, b, c, d))
        a, b = rng.sample(labels, 2)
        v = depth.value(a, b)
        sides.append(DateBounds(a, b, max(1, v - rng.randint(0, 2)), min(n - 1, v + rng.randint(0, 3))))
    if seed % 3 == 0:
        a, b = rng.sample(labels, 2)
        v = depth.value(a, b)
        sides.append(DateBounds(a, b, v + 1, n - 1) if v < n - 1 else DateBounds(a, b, 1, v - 1))
    return labels, atoms, sides


def _sided_fixpoint(labels, atoms, sides, decomposed, queue_rng):
    s = Store()
    e = Engine(s, rng=queue_rng)
    m = MrcaMatrix(s, labels)
    if decomposed:
        _decomposed(e, m)
    else:
        post_um_matrix(e, m)
    for a in atoms:
        post_atom(e, m, a)
    model = SimpleNamespace(store=s, engine=e, cell=m.cell_by_label)
    for side in sides:
        apply_side(model, side)
    if e.propagate() is PropagateResult.FAILURE:
        return None
    return [s.domain(v) for v in m.cell_vars]


@pytest.mark.parametrize("seed", range(18))
def test_matrix_equals_decomposition_with_sides(seed):
    # n = 12..20 with Predates, DateBounds and ranks, which drive the
    # upper-bound rules; the default and two random wake orders
    labels, atoms, sides = _sided_instance(seed)
    want = _sided_fixpoint(labels, atoms, sides, True, None)
    assert _sided_fixpoint(labels, atoms, sides, False, None) == want
    for qseed in (1, 2):
        assert _sided_fixpoint(labels, atoms, sides, False, random.Random(qseed)) == want


def test_sided_instances_cover_both_outcomes_and_upper_bound_rules(monkeypatch):
    lowered = 0
    wake = UltrametricMatrix.wake

    def counting_wake(self, store, start, end):
        nonlocal lowered
        before = list(store.ubs)
        outcome = wake(self, store, start, end)
        lowered += sum(map(int.__lt__, store.ubs, before))
        return outcome

    monkeypatch.setattr(UltrametricMatrix, "wake", counting_wake)
    outcomes = [_sided_fixpoint(*_sided_instance(seed), False, None) for seed in range(18)]
    assert any(o is None for o in outcomes) and any(o is not None for o in outcomes)
    assert lowered > 300  # upper bounds that matrix wakes lowered


def test_batch_wake_equals_merged_single_cell_wakes():
    # from a fixpoint, perturb several cells at once under an engine
    # checkpoint: one propagation over all of them reaches the fixpoint
    # that perturbing them one at a time, each followed by propagation,
    # reaches from the same checkpoint, and that of the reference row
    # wake on the same atoms
    narrowed = failed = 0
    for seed in range(80):
        rng = random.Random(seed)
        n = 14
        atoms = _random_atoms([f"s{i}" for i in range(n)], rng, rng.randint(2, 14))
        s, e, m = _matrix_engine(n)
        post_um_matrix(e, m)
        ref_s, ref_e, ref_m = _matrix_engine(n)
        ref_e.register(RowWakeMatrix(ref_m))
        for a in atoms:
            post_atom(e, m, a)
            post_atom(ref_e, ref_m, a)
        if e.propagate() is PropagateResult.FAILURE:
            assert ref_e.propagate() is PropagateResult.FAILURE
            continue
        assert ref_e.propagate() is PropagateResult.FIXPOINT
        start = _cell_domains(s, m)
        cells = rng.sample(range(len(m.cell_vars)), rng.randint(2, 8))
        tightens = [t for x in cells if (t := _perturbation(s, m.cell_vars[x], rng))]
        if not tightens:
            continue

        def batch(s, e, m):
            cp = e.checkpoint()
            for tighten, x, val in tightens:
                tighten(s, m.cell_vars[x - m.cell_vars[0]], val)
            got = None if e.propagate() is PropagateResult.FAILURE else _cell_domains(s, m)
            e.restore(cp)
            assert _cell_domains(s, m) == start
            return got

        got = batch(s, e, m)
        assert batch(ref_s, ref_e, ref_m) == got, seed
        cp = e.checkpoint()
        for tighten, x, val in tightens:
            tighten(s, x, val)
            if e.propagate() is PropagateResult.FAILURE:
                break
        single = None if s.failed else _cell_domains(s, m)
        e.restore(cp)
        assert single == got, seed
        failed += got is None
        narrowed += got not in (None, start)
    assert narrowed > 20 and failed > 0  # the sample exercises both outcomes


def _forest_fixpoint(trees, mode, reference, queue_rng):
    s = Store()
    e = Engine(s, rng=queue_rng)
    m = MrcaMatrix(s, sorted({lab for t in trees for lab in leaf_labels(t)}))
    if reference:
        e.register(RowWakeMatrix(m))
    else:
        post_um_matrix(e, m)
    breakup = hard_breakup if mode == "hard" else soft_breakup
    for t in trees:
        for a in breakup(t):
            post_atom(e, m, a)
    failed = e.propagate() is PropagateResult.FAILURE
    return failed, list(s.lbs), list(s.ubs)


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize("seed", range(4))
def test_batch_wakes_equal_the_reference_row_wakes_on_forests(seed, mode):
    # forests with n = 30..60, compatible and with two leaves swapped in
    # one tree; the batch wakes in the default and two random wake orders
    # against the one-cell-at-a-time row wake of tests/oracles.py
    rng = random.Random(seed)
    n = rng.randint(30, 60)
    trees = random_forest(n, 3, 0.25, rng)
    swapped = list(trees)
    labels = sorted(leaf_labels(swapped[0]))
    swapped[0] = swap_leaves(swapped[0], *rng.sample(labels, 2))
    for forest in (trees, swapped):
        want = _forest_fixpoint(forest, mode, True, None)
        for queue in (None, random.Random(1), random.Random(2)):
            got = _forest_fixpoint(forest, mode, False, queue)
            assert got[0] == want[0]
            if not want[0]:
                assert got == want


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize("n", [100, 200])
def test_batch_wakes_equal_the_reference_row_wakes_at_ladder_sizes(n, mode):
    # compatible forests of the benchmark's shape, where the clusters grow
    # large: the default and one random wake order against the reference
    trees = random_forest(n, 3, 0.25, random.Random(n))
    want = _forest_fixpoint(trees, mode, True, None)
    assert not want[0]
    for queue in (None, random.Random(1)):
        assert _forest_fixpoint(trees, mode, False, queue) == want


def _clusters(p, d):
    """Depth d of the propagator's hierarchy as a set of clusters, after
    checking each cluster's member list against its cluster ids."""
    cid = p.cid[d]
    if cid is None:
        return {frozenset([i]) for i in range(p.matrix.n)}
    groups = {}
    for i, c in enumerate(cid):
        groups.setdefault(c, []).append(i)
    for c, members in groups.items():
        assert sorted(p.members[d].get(c) or [c]) == members, (d, c)
    assert set(p.members[d]) <= set(groups), d
    return {frozenset(g) for g in groups.values()}


def _components_by_depth(lb, n):
    """For every depth d >= 2, the components of the graph whose edges
    are the cells with lb >= d (union-find, deepest edges first)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = sorted(((lb[i][j], i, j) for i in range(n) for j in range(i + 1, n)), reverse=True)
    out, e = {}, 0
    for d in range(n - 1, 1, -1):
        while e < len(edges) and edges[e][0] >= d:
            _, i, j = edges[e]
            parent[find(i)] = find(j)
            e += 1
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        out[d] = {frozenset(g) for g in groups.values()}
    return out


def _fresh_domains(labels, mode_atoms):
    s = Store()
    e = Engine(s)
    m = MrcaMatrix(s, labels)
    post_um_matrix(e, m)
    for a in mode_atoms:
        post_atom(e, m, a)
    assert e.propagate() is PropagateResult.FIXPOINT
    return _cell_domains(s, m)


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize("seed", range(3))
def test_undo_log_rewinds_the_clusters_with_the_bounds(seed, mode):
    # greedy-like probes on one engine: each checkpoints, posts an atom and
    # propagates, then restores on failure or at random, and now and then
    # a restore drops several kept probes at once. After every fixpoint
    # and every restore, each depth's clusters are the components of
    # lb >= d, the index of lowered cells is exact, and the bounds are
    # those of a fresh model that posts only the kept atoms
    rng = random.Random(seed)
    n = (12, 25, 40)[seed]
    trees = random_forest(n, 3, 0.25, rng)
    labels = sorted({lab for t in trees for lab in leaf_labels(t)})
    breakup = hard_breakup if mode == "hard" else soft_breakup
    atoms = list(dict.fromkeys(a for t in trees for a in breakup(t)))
    rng.shuffle(atoms)
    cut = min(20, len(atoms) // 3)
    base, rest = atoms[cut:], atoms[:cut]
    # another resolution of a base atom's triple always fails
    conflicts = []
    for atom in rng.sample(base, 10):
        x, y, z = atom.species
        others = [Triple.of(x, y, z), Triple.of(x, z, y), Triple.of(y, z, x), Fan.of(x, y, z)]
        conflicts.append(rng.choice([a for a in others if a != atom]))
    probes = rest + conflicts
    rng.shuffle(probes)

    s = Store()
    e = Engine(s)
    m = MrcaMatrix(s, labels)
    p = post_um_matrix(e, m)
    for a in base:
        post_atom(e, m, a)
    assert e.propagate() is PropagateResult.FIXPOINT
    kept = []  # (checkpoint, atom) per kept probe

    def check(probe=()):
        assert not s.failed
        lb = m.lower_bounds().tolist()
        components = _components_by_depth(lb, n)
        for d in range(2, n):
            assert _clusters(p, d) == components[d], d
        lowered = {(i, k) for i in range(n) for k in range(n) if i != k and s.ubs[m.cell(i, k)] < n - 1}
        assert {(i, k) for i, ks in p.low.items() for k in ks} == lowered
        assert p.size() == len(p.log)
        assert _cell_domains(s, m) == _fresh_domains(labels, base + [a for _, a in kept] + list(probe))

    check()
    failures = restores = 0
    for t, atom in enumerate(probes):
        cp = e.checkpoint()
        post_atom(e, m, atom)
        if e.propagate() is PropagateResult.FIXPOINT:
            check([atom])
            if rng.random() < 0.8:
                kept.append((cp, atom))
            else:
                e.restore(cp)
                check()
        else:
            failures += 1
            e.restore(cp)
            check()
        if t % 5 == 4 and len(kept) > 1:
            back = len(kept) // 2
            e.restore(kept[back][0])
            del kept[back:]
            restores += 1
            check()
    assert failures and restores and kept


# -- delayed disjunction demonstrator -------------------------------------------


def test_delayed_disjunction_does_not_prune_lower_bound():
    s = Store()
    e = Engine(s)
    x, y, z = _vars(s, (1, 3), (2, 3), (3, 3))
    post_delayed_disjunction_um3(e, x, y, z)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert s.domain(x) == (1, 3)  # the specialised propagator would give (2, 3)


def test_delayed_disjunction_fails_when_no_disjunct_feasible():
    s = Store()
    e = Engine(s)
    x, y, z = _vars(s, (5, 5), (5, 5), (1, 4))
    post_delayed_disjunction_um3(e, x, y, z)
    assert e.propagate() is PropagateResult.FAILURE


def test_delayed_disjunction_no_pruning_when_all_feasible():
    s = Store()
    e = Engine(s)
    x, y, z = _vars(s, (1, 9), (1, 9), (1, 9))
    post_delayed_disjunction_um3(e, x, y, z)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert [s.domain(v) for v in (x, y, z)] == [(1, 9), (1, 9), (1, 9)]


def test_delayed_disjunction_enforces_last_disjunct():
    s = Store()
    e = Engine(s)
    x, y, z = _vars(s, (3, 9), (1, 2), (1, 2))
    post_delayed_disjunction_um3(e, x, y, z)
    assert e.propagate() is PropagateResult.FIXPOINT
    # only x > y = z is feasible; it is enforced to bounds consistency
    assert s.domain(x) == (3, 9)
    assert s.domain(y) == (1, 2) and s.domain(z) == (1, 2)
