"""Event-driven propagation to fixpoint.

Bound mutations raise domain events, which the engine hands to every
registered propagator, coalesced per propagator, and dispatches until no
propagator can narrow any domain (fixpoint) or the store fails. The
engine keeps no subscriptions: a model holds a handful of propagators,
and each reads an event through its own index of the variables it
concerns, ignoring the rest. A dequeued propagator is woken once with
every variable that changed since its last wake. Events generated during
a wake wait on the store's trail and are routed after the wake returns,
so a propagator can re-wake itself.
The queue has two levels: a propagator of the deferred level (the costly
matrix propagator) is woken only once the first level is empty, so the
cheap relations reach their own fixpoint first and a matrix wake sees
every cell they moved at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import or_
from typing import Optional

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
    """Base class: narrows domains when woken by domain events.

    Subclasses implement wake(store, changed, events), which returns
    nothing and may only narrow domains. `changed` maps every variable of
    the store that changed since the last wake to its coalesced event
    mask, and `events` is the union of those masks; a propagator skips
    the variables it does not concern. The key None stands for work
    scheduled without an event: the initial wake right after
    registration, or rows posted to a relation table, with event kinds
    MIN | MAX. The propagator is queued exactly while its pending map,
    `_pending`, is non-empty.

    `LEVEL` picks the queue level: 0 for cheap propagators, 1 for one
    that is woken only once no level-0 propagator is queued.

    A propagator that takes rows after registration reports their number
    through `size()`, and `truncate(size)` drops the rows posted since;
    the engine calls both around a checkpoint.
    """

    __slots__ = ("_pending",)

    LEVEL = 0

    def __init__(self):
        self._pending: dict[Optional[int], int] = {}

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> None:
        raise NotImplementedError

    def size(self) -> int:
        return 0

    def truncate(self, size: int) -> None:
        pass


@dataclass(frozen=True)
class EngineCheckpoint:
    store_cp: Checkpoint
    n_propagators: int
    sizes: tuple[int, ...]


class Engine:
    """One scheduler per store. Not shared across threads.

    Each dequeue is one wake (and one count in `RunStats.wakes`), however
    many variables changed. A propagator is queued on the level its
    class names (`Propagator.LEVEL`), FIFO within a level, and level 1
    only runs while level 0 is empty. `rng`, when given, dequeues
    uniformly at random across both levels instead; the fixpoint is the
    same for monotone propagators (used to test confluence), so ordering
    is a performance choice only.
    """

    def __init__(self, store: Store, rng=None) -> None:
        self.store = store
        self.propagators: list[Propagator] = []
        self.stats = RunStats()
        self._queues: tuple[deque[Propagator], deque[Propagator]] = (deque(), deque())
        self._rng = rng

    # -- registration ---------------------------------------------------

    def schedule(self, p: Propagator) -> None:
        """Queue p for a wake with the event-less key None."""
        if not p._pending:
            self._queues[p.LEVEL].append(p)
        p._pending[None] = _INITIAL_EVENTS

    def register(self, p: Propagator) -> None:
        """Add p to the propagators every event goes to, and schedule it once.

        No-op on a failed store (propagate will just report the failure).
        """
        if self.store.failed:
            return
        self.propagators.append(p)
        self.schedule(p)
        if len(self.propagators) > self.stats.peak_propagators:
            self.stats.peak_propagators = len(self.propagators)
        if self.store.num_vars > self.stats.peak_vars:
            self.stats.peak_vars = self.store.num_vars

    # -- propagation ----------------------------------------------------

    def _route_events(self) -> None:
        events = self.store.take_events()
        if not events:
            return
        for q in self.propagators:
            pend = q._pending
            if not pend:
                self._queues[q.LEVEL].append(q)
            for var, ev, _ in events:
                pend[var] = pend.get(var, 0) | ev

    def _pop(self) -> Propagator:
        first, later = self._queues
        if self._rng is None:
            return (first or later).popleft()
        k = self._rng.randrange(len(first) + len(later))
        queue = first
        if k >= len(first):
            queue, k = later, k - len(first)
        queue.rotate(-k)
        return queue.popleft()

    def propagate(self) -> PropagateResult:
        """Run all pending propagation to fixpoint or failure."""
        store = self.store
        stats = self.stats
        first, later = self._queues
        if store.num_vars > stats.peak_vars:
            stats.peak_vars = store.num_vars
        while True:
            self._route_events()
            if store.failed:
                stats.failures += 1
                return PropagateResult.FAILURE
            if not (first or later):
                return PropagateResult.FIXPOINT
            p = self._pop()
            changed = p._pending
            p._pending = {}
            stats.wakes += 1
            p.wake(store, changed, reduce(or_, changed.values()))

    # -- checkpoints ------------------------------------------------------

    def checkpoint(self) -> EngineCheckpoint:
        """Snapshot store + scheduler state. Only valid at a fixpoint."""
        if any(self._queues):
            raise RuntimeError("checkpoint requires an empty propagation queue")
        return EngineCheckpoint(
            store_cp=self.store.checkpoint(),
            n_propagators=len(self.propagators),
            sizes=tuple(p.size() for p in self.propagators),
        )

    def restore(self, cp: EngineCheckpoint) -> None:
        """Undo domains, registrations and rows back to cp."""
        for queue in self._queues:
            for q in queue:
                q._pending.clear()
            queue.clear()
        del self.propagators[cp.n_propagators:]
        for p, size in zip(self.propagators, cp.sizes):
            p.truncate(size)
        self.store.restore(cp.store_cp)
