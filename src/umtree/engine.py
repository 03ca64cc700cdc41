"""Event-driven propagation to fixpoint.

Propagators subscribe to variables; bound mutations raise domain events
which the engine coalesces per propagator and dispatches FIFO until no
propagator can narrow any domain (fixpoint) or the store fails. A
dequeued propagator is woken once with every variable that changed since
its last wake. Events generated during a wake are buffered in the store
and routed after the wake returns, so a propagator can re-wake itself. A
propagator that declares entailment is never scheduled again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from enum import Enum
from functools import reduce
from operator import or_
from typing import Optional, Sequence

from .store import Checkpoint, Event, Store


class Wake(Enum):
    """Outcome of a single propagator wake."""

    PROGRESS = 0
    ENTAILED = 1


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

    def as_dict(self) -> dict:
        return asdict(self)


class Propagator:
    """Base class: narrows domains when woken by events on watched vars.

    Subclasses implement wake(store, changed, events) and may only narrow
    domains. `changed` maps every watched variable that changed since the
    last wake to its coalesced event mask, and `events` is the union of
    those masks. The key None stands for the initial wake right after
    registration, with event kinds MIN | MAX so a full filter runs.
    """

    __slots__ = ("watched", "wake_count", "entailed", "_queued", "_pending")

    def __init__(self, watched: Sequence[int]):
        self.watched = tuple(watched)
        self.wake_count = 0
        self.entailed = False
        self._queued = False
        self._pending: dict[Optional[int], int] = {}

    def wake(self, store: Store, changed: dict[Optional[int], int], events: int) -> Wake:
        raise NotImplementedError


@dataclass(frozen=True)
class EngineCheckpoint:
    store_cp: Checkpoint
    n_propagators: int
    entail_len: int


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
        self._entail_trail: list[Propagator] = []
        self._rng = rng

    # -- registration ---------------------------------------------------

    def register(self, p: Propagator, watched: Sequence[int] | None = None) -> None:
        """Subscribe p to its watched variables and schedule it once.

        No-op on a failed store (propagate will just report the failure).
        """
        if self.store.failed:
            return
        if watched is not None:
            p.watched = tuple(watched)
        subs = self._subs
        while len(subs) < self.store.num_vars:
            subs.append([])
        self.propagators.append(p)
        for v in p.watched:
            subs[v].append(p)
        p._pending[None] = _INITIAL_EVENTS
        p._queued = True
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
        for var, ev in self.store.take_events():
            if var >= nsubs:
                continue
            for q in subs[var]:
                if q.entailed:
                    continue
                pend = q._pending
                pend[var] = pend.get(var, 0) | ev  # store events are never 0
                if not q._queued:
                    q._queued = True
                    queue.append(q)

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
            p._queued = False
            changed = p._pending
            p._pending = {}
            p.wake_count += 1
            stats.wakes += 1
            if p.wake(store, changed, reduce(or_, changed.values())) is Wake.ENTAILED:
                p.entailed = True
                self._entail_trail.append(p)

    # -- checkpoints ------------------------------------------------------

    def checkpoint(self) -> EngineCheckpoint:
        """Snapshot store + scheduler state. Only valid at a fixpoint."""
        if self._queue:
            raise RuntimeError("checkpoint requires an empty propagation queue")
        return EngineCheckpoint(
            store_cp=self.store.checkpoint(),
            n_propagators=len(self.propagators),
            entail_len=len(self._entail_trail),
        )

    def restore(self, cp: EngineCheckpoint) -> None:
        """Undo domains, registrations and entailment back to checkpoint."""
        for q in self._queue:
            q._queued = False
            q._pending.clear()
        self._queue.clear()
        for p in self._entail_trail[cp.entail_len:]:
            p.entailed = False
        del self._entail_trail[cp.entail_len:]
        # registrations appended after the checkpoint sit at list tails
        for p in reversed(self.propagators[cp.n_propagators:]):
            for v in reversed(p.watched):
                popped = self._subs[v].pop()
                assert popped is p
        del self.propagators[cp.n_propagators:]
        self.store.restore(cp.store_cp)
