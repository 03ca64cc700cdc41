import itertools
import random
import tracemalloc
from functools import reduce
from operator import or_
from types import SimpleNamespace

import pytest

from umtree import (
    DateBounds,
    Engine,
    Event,
    Predates,
    PropagateResult,
    RankAssign,
    Store,
    hard_breakup,
    leaf_labels,
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
    lb_fix,
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
    # the matrix wake and lower_bounds read the bounds through numpy
    # views; a view that outlived them would stop the arrays from growing
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
        assert tuple(m.pairs[v - m.cell_vars[0]].tolist()) == (i, j)
    assert m.rows == m.cell_ids.tolist()
    assert all(s.domain(v) == (1, n - 1) for v in m.cell_vars)


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


def test_matrix_wake_narrows_only_its_rows_like_the_triple_wakes():
    # one event at cell (i, j) concerns exactly the n-2 triples
    # (M_ij, M_ik, M_jk): from a fixpoint, one matrix wake narrows only
    # cells of rows i and j and reaches the domains of one um3_wake per
    # triple
    narrowed = 0
    for seed in range(120):
        rng = random.Random(seed)
        n = 12
        s, e, m = _matrix_engine(n)
        p = post_um_matrix(e, m)
        for a in _random_atoms(list(m.labels), rng, rng.randint(2, 12)):
            post_atom(e, m, a)
        if e.propagate() is PropagateResult.FAILURE:
            continue
        i, j = rng.sample(range(n), 2)
        x = m.cell(i, j)
        lo, hi = s.domain(x)
        if lo == hi:
            continue
        if rng.random() < 0.5:
            ev = s.tighten_lb(x, rng.randint(lo + 1, hi))
        else:
            ev = s.tighten_ub(x, rng.randint(lo, hi - 1))
        s.take_events()
        before = (list(s.lbs), list(s.ubs))
        cp = s.checkpoint()

        p.wake(s, {x: ev}, ev)
        got = (s.failed, list(s.lbs), list(s.ubs))
        s.restore(cp)
        for k in range(n):
            if k != i and k != j and not s.failed:
                um3_wake(s, x, m.cell(i, k), m.cell(j, k), ev)
        want = (s.failed, list(s.lbs), list(s.ubs))
        assert got[0] == want[0], seed
        if got[0]:
            continue
        assert got == want, seed
        changed = {v for v in range(s.num_vars) if (got[1][v], got[2][v]) != (before[0][v], before[1][v])}
        rows = {m.cell(i, k) for k in range(n) if k != i} | {m.cell(j, k) for k in range(n) if k != j}
        assert changed <= rows
        narrowed += bool(changed)
    assert narrowed > 20  # the sample exercises narrowing wakes


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
    # upper-bound rules; FIFO and random queue order
    labels, atoms, sides = _sided_instance(seed)
    want = _sided_fixpoint(labels, atoms, sides, True, None)
    assert _sided_fixpoint(labels, atoms, sides, False, None) == want
    for qseed in (1, 2):
        assert _sided_fixpoint(labels, atoms, sides, False, random.Random(qseed)) == want


def test_sided_instances_cover_both_outcomes_and_upper_bound_rules(monkeypatch):
    lowered = 0
    wake = UltrametricMatrix.wake

    def counting_wake(self, store, changed, events):
        nonlocal lowered
        before = list(store.ubs)
        outcome = wake(self, store, changed, events)
        lowered += sum(map(int.__lt__, store.ubs, before))
        return outcome

    monkeypatch.setattr(UltrametricMatrix, "wake", counting_wake)
    outcomes = [_sided_fixpoint(*_sided_instance(seed), False, None) for seed in range(18)]
    assert any(o is None for o in outcomes) and any(o is not None for o in outcomes)
    assert lowered > 300  # upper bounds that matrix wakes lowered


def test_batch_wake_equals_merged_single_cell_wakes():
    # from a fixpoint, perturb several cells at once: one wake over all of
    # them reaches the pointwise merge (largest lb, smallest ub) of the
    # single-cell wakes, each taken from the same snapshot
    narrowed = failed = 0
    for seed in range(80):
        rng = random.Random(seed)
        n = 14
        s, e, m = _matrix_engine(n)
        p = post_um_matrix(e, m)
        for a in _random_atoms(list(m.labels), rng, rng.randint(2, 14)):
            post_atom(e, m, a)
        if e.propagate() is PropagateResult.FAILURE:
            continue
        for x in rng.sample(m.cell_vars, rng.randint(2, 8)):
            lo, hi = s.domain(x)
            if lo < hi:
                if rng.random() < 0.5:
                    s.tighten_lb(x, rng.randint(lo + 1, hi))
                else:
                    s.tighten_ub(x, rng.randint(lo, hi - 1))
        changed = {}
        for x, ev, _ in s.take_events():
            changed[x] = changed.get(x, 0) | ev
        if not changed:
            continue
        snapshot = (list(s.lbs), list(s.ubs))
        lbs, ubs = list(snapshot[0]), list(snapshot[1])
        single_failed = False
        for x, ev in changed.items():
            cp = s.checkpoint()
            p.wake(s, {x: ev}, ev)
            single_failed |= s.failed
            lbs = list(map(max, lbs, s.lbs))
            ubs = list(map(min, ubs, s.ubs))
            s.restore(cp)
        cp = s.checkpoint()
        p.wake(s, changed, reduce(or_, changed.values()))
        merged_empty = any(map(int.__gt__, lbs, ubs))
        assert s.failed == (single_failed or merged_empty), seed
        if s.failed:
            failed += 1
            continue
        assert (list(s.lbs), list(s.ubs)) == (lbs, ubs), seed
        narrowed += (lbs, ubs) != snapshot
        s.restore(cp)
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
    # one tree; the batch wakes in FIFO and two random queue orders
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
