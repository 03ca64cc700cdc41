import random

import pytest

from umtree import (
    Engine,
    Forest,
    MrcaMatrix,
    PropagateResult,
    Store,
    Triple,
    cp_build,
    enumerate_supertrees,
    explain_conflict,
    greedy_build,
    hard_breakup,
    leaf_labels,
    necessity,
    post_atom,
    post_eq2,
    post_lt,
    post_um_matrix,
    random_forest,
    soft_breakup,
    supertree,
)
from umtree.engine import Propagator
from umtree.store import Event

from oracles import MinDueEngine, ScalarLess, post_um3, swap_leaves, um3_wake


def _due_first_level(engine):
    """How many level-0 propagators have trail records left to read."""
    end = len(engine.store.trail)
    return sum(p.LEVEL == 0 and p.seen < end for p in engine.propagators)


def test_register_eq_initial_propagation():
    s = Store()
    e = Engine(s)
    x, y = s.new_var(1, 4), s.new_var(2, 6)
    post_eq2(e, x, y)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert s.domain(x) == (2, 4) and s.domain(y) == (2, 4)


def test_register_on_failed_store_is_noop():
    s = Store()
    e = Engine(s)
    x = s.new_var(1, 4)
    s.tighten_lb(x, 9)
    assert s.failed
    post_eq2(e, x, x)
    assert e.propagators == []
    assert e.propagate() is PropagateResult.FAILURE


class _CountingLess(ScalarLess):
    """a < b as its own propagator, counting its wakes."""

    def __init__(self, a, b):
        super().__init__(a, b)
        self.wakes = 0

    def wake(self, store, start, end):
        self.wakes += 1
        super().wake(store, start, end)


def test_two_propagators_on_same_var_both_wake():
    s = Store()
    e = Engine(s)
    x, y, z = s.new_var(1, 9), s.new_var(1, 9), s.new_var(1, 9)
    p1, p2 = _CountingLess(x, y), _CountingLess(y, z)
    e.register(p1)
    e.register(p2)
    assert e.propagate() is PropagateResult.FIXPOINT
    w1, w2 = p1.wakes, p2.wakes
    s.tighten_lb(y, 5)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert p1.wakes > w1 and p2.wakes > w2
    assert s.domain(z) == (6, 9) and s.domain(x) == (1, 7)


def test_propagate_empty_is_fixpoint():
    s = Store()
    e = Engine(s)
    v = s.new_var(1, 5)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert s.domain(v) == (1, 5)


def test_incompatible_cycle_fails():
    # a < b and b < a cannot both hold
    s = Store()
    e = Engine(s)
    a, b = s.new_var(1, 9), s.new_var(1, 9)
    post_lt(e, a, b)
    post_lt(e, b, a)
    assert e.propagate() is PropagateResult.FAILURE
    assert e.stats.failures == 1


def test_um3_pruning_example():
    s = Store()
    e = Engine(s)
    x, y, z = s.new_var(1, 3), s.new_var(2, 3), s.new_var(3, 3)
    post_um3(e, x, y, z)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert s.domain(x) == (2, 3)
    assert s.domain(y) == (2, 3) and s.domain(z) == (3, 3)


def test_propagate_idempotent():
    s = Store()
    e = Engine(s)
    x, y, z = s.new_var(1, 8), s.new_var(3, 9), s.new_var(2, 7)
    post_um3(e, x, y, z)
    post_lt(e, x, y)
    assert e.propagate() is PropagateResult.FIXPOINT
    doms = (list(s.lbs), list(s.ubs))
    wakes = e.stats.wakes
    assert e.propagate() is PropagateResult.FIXPOINT
    assert (list(s.lbs), list(s.ubs)) == doms
    assert e.stats.wakes == wakes


def _random_instance(seed: int, rng_for_queue: random.Random | None):
    rng = random.Random(seed)
    s = Store()
    e = Engine(s, rng=rng_for_queue)
    vars_ = [s.new_var(rng.randint(0, 4), rng.randint(4, 9)) for _ in range(6)]
    for _ in range(4):
        x, y, z = rng.sample(vars_, 3)
        post_um3(e, x, y, z)
    for _ in range(2):
        a, b = rng.sample(vars_, 2)
        post_lt(e, a, b)
    res = e.propagate()
    if res is PropagateResult.FAILURE:
        # domains are meaningless after a failure: propagation stops early
        return res, None, None
    return res, list(s.lbs), list(s.ubs)


def test_confluence_random_queue_order():
    fixpoints = 0
    for seed in range(60):
        base = _random_instance(seed, None)
        if base[0] is PropagateResult.FIXPOINT:
            fixpoints += 1
        for qseed in (1, 2, 3):
            assert _random_instance(seed, random.Random(qseed)) == base
    assert fixpoints > 10  # the sample exercises both outcomes


class _SelfRewaker(Propagator):
    """Raises its variable's lb by one per wake, up to a target, and
    counts its wakes."""

    def __init__(self, v, target):
        super().__init__()
        self.v, self.target, self.wakes = v, target, 0

    def wake(self, store, start, end):
        self.wakes += 1
        if store.lbs[self.v] < self.target:
            store.tighten_lb(self.v, store.lbs[self.v] + 1)


def test_wake_effects_are_redispatched_including_self():
    s = Store()
    e = Engine(s)
    v = s.new_var(0, 10)
    p = _SelfRewaker(v, 7)
    e.register(p)  # not woken: registering adds no trail record
    assert e.propagate() is PropagateResult.FIXPOINT
    assert p.wakes == 0
    s.tighten_lb(v, 1)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert s.domain(v) == (7, 10)
    assert p.wakes == 7  # at lb 1, ..., 6 it raises the bound; at 7 it stops


def test_search_nodes_zero_for_pure_propagation():
    s = Store()
    e = Engine(s)
    x, y, z = s.new_var(1, 5), s.new_var(1, 5), s.new_var(1, 5)
    post_um3(e, x, y, z)
    post_lt(e, x, y)
    e.propagate()
    assert e.stats.search_nodes == 0
    assert e.stats.wakes > 0
    assert e.stats.peak_propagators == 2


def test_fixpoint_is_globally_stable():
    # no um3 triple, filtered by hand on both bounds, can narrow any
    # further, and every row of the < table holds on both bounds
    from umtree.relations import Less

    for seed in range(40):
        rng = random.Random(seed)
        s = Store()
        e = Engine(s)
        vars_ = [s.new_var(rng.randint(0, 4), rng.randint(4, 9)) for _ in range(6)]
        for _ in range(4):
            post_um3(e, *rng.sample(vars_, 3))
        for _ in range(2):
            post_lt(e, *rng.sample(vars_, 2))
        if e.propagate() is PropagateResult.FAILURE:
            continue
        snapshot = (list(s.lbs), list(s.ubs))
        for p in e.propagators:
            if isinstance(p, Less):
                for a, b in p.rows:
                    assert s.lb(b) >= s.lb(a) + 1 and s.ub(a) <= s.ub(b) - 1
                continue
            um3_wake(s, p.x, p.y, p.z, Event.MIN | Event.MAX)
            assert not s.failed
        assert (list(s.lbs), list(s.ubs)) == snapshot
        assert all(p.seen == len(s.trail) for p in e.propagators)


def test_engine_checkpoint_requires_fixpoint():
    s = Store()
    e = Engine(s)
    x, y = s.new_var(1, 4), s.new_var(2, 6)
    post_eq2(e, x, y)
    with pytest.raises(RuntimeError):
        e.checkpoint()  # the row narrowed x and y when posted; no propagator has read that yet


def test_checkpoint_refuses_an_unread_tighten_from_outside():
    s = Store()
    e = Engine(s)
    x, y = s.new_var(1, 9), s.new_var(1, 9)
    post_lt(e, x, y)
    assert e.propagate() is PropagateResult.FIXPOINT
    s.tighten_lb(x, 4)  # made outside propagate, read by no propagator yet
    with pytest.raises(RuntimeError):
        e.checkpoint()
    assert e.propagate() is PropagateResult.FIXPOINT
    assert s.domain(y) == (5, 9)
    e.checkpoint()


class _Recorder(Propagator):
    """Records every trail record it receives, as (var, event) pairs."""

    def __init__(self):
        self.received = []

    def wake(self, store, start, end):
        self.received.extend((v, ev) for v, ev, _ in store.trail[start:end])


def test_registered_propagator_never_receives_earlier_records():
    s = Store()
    e = Engine(s)
    x, y = s.new_var(1, 9), s.new_var(1, 9)
    s.tighten_lb(x, 3)
    p = _Recorder()
    e.register(p)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert p.received == []
    s.tighten_ub(y, 7)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert p.received == [(y, Event.MAX)]


def test_restore_delivers_no_undone_record_and_new_ones_once():
    s = Store()
    e = Engine(s)
    v, w = s.new_var(1, 9), s.new_var(1, 9)
    p = _Recorder()
    e.register(p)
    s.tighten_lb(v, 2)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert p.received == [(v, Event.MIN)]
    cp = e.checkpoint()
    s.tighten_ub(w, 8)  # undone before any propagator reads it
    e.restore(cp)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert p.received == [(v, Event.MIN)]  # neither the record read before cp nor the undone one
    s.tighten_ub(w, 7)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert e.propagate() is PropagateResult.FIXPOINT  # delivers nothing twice
    assert p.received == [(v, Event.MIN), (w, Event.MAX)]


def test_restore_rewinds_cursors_past_records_read_after_the_checkpoint():
    s = Store()
    e = Engine(s)
    v = s.new_var(1, 9)
    p = _Recorder()
    e.register(p)
    cp = e.checkpoint()
    s.assign(v, 4)
    assert e.propagate() is PropagateResult.FIXPOINT
    e.restore(cp)
    assert p.seen == len(s.trail) == 0
    s.tighten_ub(v, 6)  # lands on the trail positions the undone records held
    assert e.propagate() is PropagateResult.FIXPOINT
    assert p.received == [(v, Event.MIN), (v, Event.MAX), (v, Event.MAX)]


def test_engine_restore_unregisters():
    s = Store()
    e = Engine(s)
    a, b = s.new_var(1, 9), s.new_var(1, 9)
    assert e.propagate() is PropagateResult.FIXPOINT
    cp = e.checkpoint()
    post_lt(e, a, b)
    assert e.propagate() is PropagateResult.FIXPOINT
    s.assign(a, 1)
    s.assign(b, 9)
    assert e.propagate() is PropagateResult.FIXPOINT
    e.restore(cp)
    assert e.propagators == []
    assert s.domain(a) == (1, 9) and s.domain(b) == (1, 9)
    # domains free again: a new contradicting pair must still run
    post_lt(e, b, a)
    post_lt(e, a, b)
    assert e.propagate() is PropagateResult.FAILURE


class _Late(Propagator):
    """A deferred propagator that records how many level-0 propagators
    were due at each of its wakes."""

    LEVEL = 1

    def __init__(self, engine):
        self.engine, self.due = engine, []

    def wake(self, store, start, end):
        self.due.append(_due_first_level(self.engine))


def _late_chain(rng=None):
    s = Store()
    e = Engine(s, rng=rng)
    x, y, z = s.new_var(1, 9), s.new_var(1, 9), s.new_var(1, 9)
    late = _Late(e)
    e.register(late)  # registered first, but on the deferred level
    post_lt(e, x, y)
    post_lt(e, y, z)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert s.domain(z) == (3, 9)
    return late


def test_deferred_level_waits_for_the_first_level():
    # the oldest cursor alone would wake it before the relations and again after z moved
    assert _late_chain().due == [0]


def test_random_order_draws_from_both_levels():
    due = [_late_chain(random.Random(seed)).due for seed in range(20)]
    assert any(d[0] > 0 for d in due)


def test_matrix_wakes_once_the_relations_are_at_their_fixpoint(monkeypatch):
    from umtree import build_model
    from umtree.ultrametric import UltrametricMatrix

    due = []
    wake = UltrametricMatrix.wake

    def recording_wake(self, store, start, end):
        due.append(_due_first_level(engine))
        return wake(self, store, start, end)

    monkeypatch.setattr(UltrametricMatrix, "wake", recording_wake)
    model = build_model(Forest.from_trees(random_forest(30, 3, 0.25, random.Random(3))), "hard")
    engine = model.engine
    assert engine.propagate() is PropagateResult.FIXPOINT
    assert len(due) > 1 and not any(due)


def _ladder_fixpoint(n, mode, rng, swap_seed=None):
    """Propagate the ladder forest of size n; with `swap_seed`, two leaves
    of its first tree, drawn with that seed, are swapped first."""
    trees = random_forest(n, 3, 0.25, random.Random(0))
    if swap_seed is not None:
        trees[0] = swap_leaves(trees[0], *random.Random(swap_seed).sample(sorted(leaf_labels(trees[0])), 2))
    forest = Forest.from_trees(trees)
    s = Store()
    e = Engine(s, rng=rng)
    m = MrcaMatrix(s, forest.species)
    post_um_matrix(e, m)
    breakup = hard_breakup if mode == "hard" else soft_breakup
    for t in forest.trees:
        for a in breakup(t):
            post_atom(e, m, a)
    res = e.propagate()
    return res, (list(s.lbs), list(s.ubs)) if res is PropagateResult.FIXPOINT else None


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize("n", [100, 200, 400])
def test_confluence_at_ladder_sizes(n, mode):
    # the benchmark's forest shape: the default order and two random
    # orders reach byte-equal bounds
    want = _ladder_fixpoint(n, mode, None)
    assert want[0] is PropagateResult.FIXPOINT
    for qseed in (1, 2):
        assert _ladder_fixpoint(n, mode, random.Random(qseed)) == want


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_failure_is_confluent_on_a_swapped_ladder_forest(mode):
    # the n=100 ladder forest with two leaves of its first tree swapped
    # is incompatible: the default order and two random orders all fail
    for rng in (None, random.Random(1), random.Random(2)):
        assert _ladder_fixpoint(100, mode, rng, swap_seed=2) == (PropagateResult.FAILURE, None)


# -- the one-pass wake pick ---------------------------------------------------------


def _recording(engine_cls, log):
    """engine_cls, logging after each propagate its verdict, its trail and
    its wake count."""

    class Recording(engine_cls):
        def propagate(self):
            res = super().propagate()
            log.append((res, tuple(self.store.trail), self.stats.wakes))
            return res

    return Recording


def _swapped(n, seed, binary):
    rng = random.Random(seed)
    trees = random_forest(n, 3, 0.25, rng, binary=binary)
    trees[0] = swap_leaves(trees[0], *rng.sample(sorted(leaf_labels(trees[0])), 2))
    return Forest.from_trees(trees)


def _necessity_both_ways(forest, mode):
    atoms = list(supertree.build_model(forest, mode, post_atoms=False).atoms)
    x, y, z = atoms[0].species
    return [necessity(forest, a, mode) for a in (atoms[0], Triple.of(x, z, y), Triple.of(y, z, x))]


_QUERIES = {
    "cp_build": lambda f, mode: cp_build(supertree.build_model(f, mode)),
    "greedy": greedy_build,
    "necessity": _necessity_both_ways,
    "explain": explain_conflict,
    "enumerate": lambda f, mode: enumerate_supertrees(supertree.build_model(f, mode), 10),
}


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize("query", sorted(_QUERIES))
def test_one_pass_pick_wakes_like_min_over_due(monkeypatch, query, mode):
    # the one-pass pick and the former min over a list of the due
    # propagators leave the same trail and wake count after every
    # propagate, across the checkpoints and restores of every query
    if query == "enumerate":
        forests = [Forest.from_trees(random_forest(8, 3, 0.4, random.Random(s))) for s in range(3)]
    else:
        forests = [_swapped(n, s, s % 2 == 0) for s, n in enumerate((12, 20, 30))]
        if query in ("cp_build", "greedy", "necessity"):
            forests += [Forest.from_trees(random_forest(n, 3, 0.25, random.Random(n))) for n in (12, 30)]
    ran = 0
    for forest in forests:
        if query in ("explain", "necessity"):
            incompatible = cp_build(supertree.build_model(forest, mode)) is None
            if incompatible != (query == "explain"):
                continue
        ran += 1
        logs = []
        for engine_cls in (Engine, MinDueEngine):
            log = []
            monkeypatch.setattr(supertree, "Engine", _recording(engine_cls, log))
            logs.append((_QUERIES[query](forest, mode), log))
        assert logs[0][1] and logs[0][1] == logs[1][1]
        assert str(logs[0][0]) == str(logs[1][0])
    assert ran >= 2


class _Named(Propagator):
    """A level-0 propagator that logs its name at each wake."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def wake(self, store, start, end):
        self.log.append(self.name)


@pytest.mark.parametrize("engine_cls", [Engine, MinDueEngine])
def test_a_tie_after_a_restore_wakes_the_first_registered(engine_cls):
    # a restore leaves every cursor at one position; the next record makes
    # all of them due at once: the level decides, then registration order
    for names in ("ab", "ba"):
        s = Store()
        e = engine_cls(s)
        x = s.new_var(1, 9)
        log = []
        late = _Late(e)
        e.register(late)  # registered first, but on the deferred level
        for name in names:
            e.register(_Named(name, log))
        assert e.propagate() is PropagateResult.FIXPOINT
        cp = e.checkpoint()
        s.tighten_lb(x, 3)
        assert e.propagate() is PropagateResult.FIXPOINT
        e.restore(cp)
        assert len({p.seen for p in e.propagators}) == 1
        del log[:]
        s.tighten_ub(x, 5)
        assert e.propagate() is PropagateResult.FIXPOINT
        assert log == list(names) and late.due == [0, 0]
