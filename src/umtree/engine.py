"""Event-driven propagation to fixpoint.

Propagators subscribe to variables; bound mutations raise domain events
which the engine coalesces per propagator and dispatches FIFO until no
propagator can narrow any domain (fixpoint) or the store fails. A
dequeued propagator is woken once with every variable that changed since
its last wake. Events generated during a wake wait on the store's trail
and are routed after the wake returns, so a propagator can re-wake itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import or_
from typing import Optional, Sequence

from .store import Checkpoint, Event, Store


class PropagateResult(Enum):
    FIXPOINT = 0
    FAILURE = 1


_INITIAL_EVENTS = Event.MIN | Event.MAX


@dataclass
class RunStats:
    """Always-on counters; search_nodes stays 0 for pure propagation."""

    wakes: int = 0
    search_nodes: int = 0
    failures: int = 0
    peak_vars: int = 0
    peak_propagators: int = 0


class Propagator:
    """Base class: narrows domains when woken by events on watched vars.

    Subclasses implement wake(store, changed, events), which returns
    nothing and may only narrow domains. `changed` maps every watched
    variable that changed since the last wake to its coalesced event
    mask, and `events` is the union of those masks. The key None stands
    for the initial wake right after registration, with event kinds
    MIN | MAX so a full filter runs. The propagator is queued exactly
    while that map, `_pending`, is non-empty.
    """

    __slots__ = ("watched", "wake_count", "_pending")

    def __init__(self, watched: Sequence[int]):
        self.watched = tuple(watched)
        self.wake_count = 0
        self._pending: dict[Optional[int], int] = {}

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class EngineCheckpoint:
    store_cp: Checkpoint
    n_propagators: int


class Engine:
    """One scheduler per store. Not shared across threads.

    Each dequeue is one wake (and one count in `RunStats.wakes`), however
    many variables changed. `rng`, when given, dequeues in random order
    instead of FIFO; the fixpoint is the same for monotone propagators
    (used to test confluence), so ordering is a performance choice only.
    """

    def __init__(self, store: Store, rng=None) -> None:
        self.store = store
        self.propagators: list[Propagator] = []
        self.stats = RunStats()
        self._subs: list[list[Propagator]] = []
        self._queue: deque[Propagator] = deque()
        self._rng = rng

    # -- registration ---------------------------------------------------

    def register(self, p: Propagator) -> None:
        """Subscribe p to its watched variables and schedule it once.

        No-op on a failed store (propagate will just report the failure).
        """
        if self.store.failed:
            return
        subs = self._subs
        subs.extend([] for _ in range(self.store.num_vars - len(subs)))
        self.propagators.append(p)
        for v in p.watched:
            subs[v].append(p)
        p._pending[None] = _INITIAL_EVENTS
        self._queue.append(p)
        if len(self.propagators) > self.stats.peak_propagators:
            self.stats.peak_propagators = len(self.propagators)
        if self.store.num_vars > self.stats.peak_vars:
            self.stats.peak_vars = self.store.num_vars

    # -- propagation ----------------------------------------------------

    def _route_events(self) -> None:
        subs = self._subs
        nsubs = len(subs)
        queue = self._queue
        for var, ev, _ in self.store.take_events():
            if var >= nsubs:
                continue
            for q in subs[var]:
                pend = q._pending
                if not pend:
                    queue.append(q)
                pend[var] = pend.get(var, 0) | ev

    def _pop(self) -> Propagator:
        queue = self._queue
        if self._rng is not None and len(queue) > 1:
            queue.rotate(-self._rng.randrange(len(queue)))
        return queue.popleft()

    def propagate(self) -> PropagateResult:
        """Run all pending propagation to fixpoint or failure."""
        store = self.store
        stats = self.stats
        if store.num_vars > stats.peak_vars:
            stats.peak_vars = store.num_vars
        while True:
            self._route_events()
            if store.failed:
                stats.failures += 1
                return PropagateResult.FAILURE
            if not self._queue:
                return PropagateResult.FIXPOINT
            p = self._pop()
            changed = p._pending
            p._pending = {}
            p.wake_count += 1
            stats.wakes += 1
            p.wake(store, changed, reduce(or_, changed.values()))

    # -- checkpoints ------------------------------------------------------

    def checkpoint(self) -> EngineCheckpoint:
        """Snapshot store + scheduler state. Only valid at a fixpoint."""
        if self._queue:
            raise RuntimeError("checkpoint requires an empty propagation queue")
        return EngineCheckpoint(
            store_cp=self.store.checkpoint(),
            n_propagators=len(self.propagators),
        )

    def restore(self, cp: EngineCheckpoint) -> None:
        """Undo domains and registrations back to checkpoint."""
        for q in self._queue:
            q._pending.clear()
        self._queue.clear()
        # registrations appended after the checkpoint sit at list tails
        for p in reversed(self.propagators[cp.n_propagators:]):
            for v in reversed(p.watched):
                popped = self._subs[v].pop()
                assert popped is p
        del self.propagators[cp.n_propagators:]
        self.store.restore(cp.store_cp)
