import random

import pytest

from umtree import (
    Engine,
    PropagateResult,
    Store,
    post_eq2,
    post_lt,
)
from umtree.engine import Propagator

from oracles import ScalarLess, post_um3


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

    def wake(self, store, changed, events):
        self.wakes += 1
        super().wake(store, changed, events)


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

    def wake(self, store, var, events):
        self.wakes += 1
        if store.lbs[self.v] < self.target:
            store.tighten_lb(self.v, store.lbs[self.v] + 1)


def test_wake_effects_are_redispatched_including_self():
    s = Store()
    e = Engine(s)
    v = s.new_var(0, 10)
    p = _SelfRewaker(v, 7)
    e.register(p)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert s.domain(v) == (7, 10)
    assert p.wakes >= 7


def test_search_nodes_zero_for_pure_propagation():
    s = Store()
    e = Engine(s)
    x, y, z = s.new_var(1, 5), s.new_var(1, 5), s.new_var(1, 5)
    post_um3(e, x, y, z)
    post_lt(e, x, y)
    e.propagate()
    assert e.stats.search_nodes == 0
    assert e.stats.wakes > 0
    assert e.stats.peak_vars == 3
    assert e.stats.peak_propagators == 2


def test_fixpoint_is_globally_stable():
    # no um3 propagator, woken by hand with every variable, can narrow any
    # further, and every row of the < table holds on both bounds
    from umtree.relations import Less
    from umtree.store import Event

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
            p.wake(s, dict.fromkeys(range(s.num_vars), Event.MIN | Event.MAX), Event.MIN | Event.MAX)
            assert not s.failed
        assert (list(s.lbs), list(s.ubs)) == snapshot
        assert s.take_events() == []


def test_engine_checkpoint_requires_fixpoint():
    s = Store()
    e = Engine(s)
    x, y = s.new_var(1, 4), s.new_var(2, 6)
    post_eq2(e, x, y)
    with pytest.raises(RuntimeError):
        e.checkpoint()  # initial wake still queued


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
    were queued at each of its wakes."""

    LEVEL = 1

    def __init__(self, engine, v):
        super().__init__()
        self.engine, self.seen = engine, []

    def wake(self, store, changed, events):
        self.seen.append(len(self.engine._queues[0]))


def _late_chain(rng=None):
    s = Store()
    e = Engine(s, rng=rng)
    x, y, z = s.new_var(1, 9), s.new_var(1, 9), s.new_var(1, 9)
    late = _Late(e, z)
    e.register(late)  # queued first, but on the deferred level
    post_lt(e, x, y)
    post_lt(e, y, z)
    assert e.propagate() is PropagateResult.FIXPOINT
    assert s.domain(z) == (3, 9)
    return late


def test_deferred_level_waits_for_the_first_level():
    # FIFO alone would wake it before the relations and again after z moved
    assert _late_chain().seen == [0]


def test_random_order_draws_from_both_levels():
    seen = [_late_chain(random.Random(seed)).seen for seed in range(20)]
    assert any(s[0] > 0 for s in seen)


def test_matrix_wakes_once_the_relations_are_at_their_fixpoint(monkeypatch):
    from umtree import Forest, build_model, random_forest
    from umtree.ultrametric import UltrametricMatrix

    queued = []
    wake = UltrametricMatrix.wake

    def recording_wake(self, store, changed, events):
        queued.append(len(engine._queues[0]))
        return wake(self, store, changed, events)

    monkeypatch.setattr(UltrametricMatrix, "wake", recording_wake)
    model = build_model(Forest.from_trees(random_forest(30, 3, 0.25, random.Random(3))), "hard")
    engine = model.engine
    assert engine.propagate() is PropagateResult.FIXPOINT
    assert len(queued) > 1 and not any(queued)
