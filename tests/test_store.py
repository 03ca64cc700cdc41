import random

import pytest

from umtree import Event, StaleCheckpointError, Store


def test_new_var_examples():
    s = Store()
    v = s.new_var(1, 4)
    assert s.domain(v) == (1, 4)
    d = s.new_var(0, 0)
    assert s.domain(d) == (0, 0)
    n = 5
    w = s.new_var(1, n - 1)
    assert s.domain(w) == (1, 4)


def test_new_var_rejects_empty_domain():
    with pytest.raises(ValueError):
        Store().new_var(3, 2)


def test_new_vars_consecutive_block():
    s = Store()
    s.new_var(0, 1)
    assert s.new_vars(3, 1, 4) == range(1, 4)
    assert [s.domain(v) for v in range(4)] == [(0, 1)] + [(1, 4)] * 3
    assert s.new_vars(0, 1, 0) == range(4, 4)  # no variable, so no domain to be empty
    with pytest.raises(ValueError):
        s.new_vars(2, 3, 2)
    assert s.num_vars == 4


def test_tighten_lb_examples():
    s = Store()
    v = s.new_var(1, 4)
    assert s.tighten_lb(v, 2) == Event.MIN
    assert s.domain(v) == (2, 4)

    s = Store()
    v = s.new_var(1, 4)
    assert s.tighten_lb(v, 4) == Event.MIN
    assert s.domain(v) == (4, 4)

    s = Store()
    v = s.new_var(1, 4)
    assert s.tighten_lb(v, 5) == Event.NONE
    assert s.failed


def test_tighten_ub_examples():
    s = Store()
    v = s.new_var(1, 4)
    assert s.tighten_ub(v, 2) == Event.MAX
    assert s.domain(v) == (1, 2)

    s = Store()
    v = s.new_var(1, 4)
    assert s.tighten_ub(v, 1) == Event.MAX

    s = Store()
    v = s.new_var(2, 4)
    assert s.tighten_ub(v, 1) == Event.NONE
    assert s.failed


def test_tighten_noop_keeps_silent():
    s = Store()
    v = s.new_var(2, 5)
    assert s.tighten_lb(v, 2) == Event.NONE
    assert s.tighten_ub(v, 7) == Event.NONE
    assert s.trail == []


def test_assign_examples():
    s = Store()
    v = s.new_var(1, 4)
    assert s.assign(v, 3) == Event.MIN | Event.MAX
    assert s.domain(v) == (3, 3)
    assert s.assign(v, 3) == Event.NONE  # idempotent

    s = Store()
    v = s.new_var(1, 2)
    s.assign(v, 4)
    assert s.failed


def test_no_events_after_failure():
    s = Store()
    v = s.new_var(1, 4)
    s.tighten_lb(v, 9)
    assert s.failed
    assert s.tighten_ub(v, 2) == Event.NONE
    assert s.tighten_lb(v, 3) == Event.NONE
    assert s.trail == []
    assert s.domain(v) == (1, 4)  # last valid values kept


def test_checkpoint_restore_examples():
    s = Store()
    v = s.new_var(1, 4)
    cp = s.checkpoint()
    s.tighten_lb(v, 3)
    s.restore(cp)
    assert s.domain(v) == (1, 4)

    cp = s.checkpoint()
    s.tighten_lb(v, 9)
    assert s.failed
    s.restore(cp)
    assert not s.failed

    cp1 = s.checkpoint()
    s.tighten_lb(v, 2)
    cp2 = s.checkpoint()
    s.tighten_ub(v, 3)
    s.restore(cp2)
    assert s.domain(v) == (2, 4)
    s.restore(cp1)
    assert s.domain(v) == (1, 4)


def test_restore_stale_checkpoint_is_error():
    s = Store()
    s.new_var(0, 5)
    cp1 = s.checkpoint()
    cp2 = s.checkpoint()
    s.restore(cp1)  # pops cp2 as well
    with pytest.raises(StaleCheckpointError):
        s.restore(cp2)


def test_events_forgotten_after_restore():
    s = Store()
    v = s.new_var(1, 9)
    cp = s.checkpoint()
    s.tighten_lb(v, 5)
    s.restore(cp)
    assert s.trail == []


def test_restore_keeps_records_not_yet_taken():
    # the records made before the checkpoint stay on the trail for the
    # engine's propagators to read
    s = Store()
    v = s.new_var(1, 9)
    s.tighten_lb(v, 2)
    cp = s.checkpoint()
    s.tighten_lb(v, 3)
    s.restore(cp)
    assert s.trail == [(v, Event.MIN, 1)]


def test_restore_after_records_taken_past_checkpoint():
    # a record made after the restore takes the trail position of the
    # undone one
    s = Store()
    v = s.new_var(1, 9)
    cp = s.checkpoint()
    s.tighten_lb(v, 4)
    assert s.trail[cp.trail_len:] == [(v, Event.MIN, 1)]
    s.restore(cp)
    s.tighten_ub(v, 6)
    assert s.trail[cp.trail_len:] == [(v, Event.MAX, 9)]


def test_assign_records_min_then_max():
    s = Store()
    v = s.new_var(1, 9)
    assert s.assign(v, 5) == Event.MIN | Event.MAX
    assert s.trail == [(v, Event.MIN, 1), (v, Event.MAX, 9)]


def test_tighten_on_failed_store_adds_no_record():
    s = Store()
    v, w = s.new_var(1, 4), s.new_var(1, 4)
    s.tighten_lb(v, 5)
    assert s.failed
    s.tighten_lb(w, 2)
    s.tighten_ub(w, 3)
    assert s.trail == []
    assert s.domain(w) == (1, 4)


def _random_mutations(s: Store, vars_: list[int], rng: random.Random, steps: int):
    for _ in range(steps):
        v = rng.choice(vars_)
        val = rng.randint(-2, 12)
        op = rng.randrange(3)
        if op == 0:
            s.tighten_lb(v, val)
        elif op == 1:
            s.tighten_ub(v, val)
        else:
            s.assign(v, val)
        if s.failed:
            return


def test_monotone_narrowing_random():
    rng = random.Random(0)
    for _ in range(200):
        s = Store()
        vars_ = [s.new_var(0, 10) for _ in range(4)]
        before = [s.domain(v) for v in vars_]
        _random_mutations(s, vars_, rng, 15)
        for v, (lo, hi) in zip(vars_, before):
            assert s.lbs[v] >= lo and s.ubs[v] <= hi
            if not s.failed:
                assert s.lbs[v] <= s.ubs[v]


def test_event_soundness_random():
    rng = random.Random(1)
    for _ in range(300):
        s = Store()
        v = s.new_var(rng.randint(0, 5), rng.randint(5, 10))
        lo, hi = s.domain(v)
        val = rng.randint(-2, 12)
        ev = s.tighten_lb(v, val) if rng.random() < 0.5 else s.tighten_ub(v, val)
        nlo, nhi = s.domain(v)
        assert bool(ev & Event.MIN) == (nlo > lo)
        assert bool(ev & Event.MAX) == (nhi < hi)
        assert s.trail == ([(v, ev, lo if ev == Event.MIN else hi)] if ev else [])


def test_restore_exactness_random():
    rng = random.Random(2)
    for _ in range(200):
        s = Store()
        vars_ = [s.new_var(0, 10) for _ in range(5)]
        _random_mutations(s, vars_, rng, 5)
        if s.failed:
            continue
        snapshot = (list(s.lbs), list(s.ubs), s.failed)
        cp = s.checkpoint()
        _random_mutations(s, vars_, rng, 20)
        s.restore(cp)
        assert (list(s.lbs), list(s.ubs), s.failed) == snapshot
