"""Event-driven propagation to fixpoint.

The store's trail is the only event queue. Every propagator keeps one
cursor into it, `seen`, the trail position it has read up to, and it is
due exactly while its cursor is behind the end of the trail. The engine
wakes due propagators until none is due (fixpoint) or the store fails.
A woken propagator reads its unread records straight off the trail, in
order and with repeats, and its cursor moves to the end of the trail;
the records its own wake appends make it due again, so a propagator
can re-wake itself. The engine keeps no subscriptions: a model holds a handful of
propagators, and each reads an event through its own index of the
variables it concerns, ignoring the rest.
Propagators have two levels: one of the deferred level (the costly
matrix propagator) is woken only once no first-level propagator is due,
so the cheap relations reach their own fixpoint first and a matrix wake
sees every cell they moved at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .store import Checkpoint, Store


class PropagateResult(Enum):
    FIXPOINT = 0
    FAILURE = 1


@dataclass
class RunStats:
    """Always-on counters; search_nodes stays 0 for pure propagation.
    The variable count is `Store.num_vars`: a restore frees no variable."""

    wakes: int = 0
    search_nodes: int = 0
    failures: int = 0
    peak_propagators: int = 0


class Propagator:
    """Base class: narrows domains when woken by domain events.

    Subclasses implement wake(store, start, end), which returns nothing
    and may only narrow domains. It reads `store.trail[start:end]`, the
    records added since its last wake, one per narrowing and each with
    exactly one of `Event.MIN` and `Event.MAX`, and skips the records of
    the variables it does not concern.

    `register` does not wake: a propagator starts with its cursor `seen`
    at the end of the trail, so it never receives the events that came
    before it. It must therefore be consistent when it is registered, or
    make itself consistent when it is posted, as a relation table does
    with each row it takes.

    `LEVEL` picks the level: 0 for cheap propagators, 1 for one that is
    woken only once no level-0 propagator is due.

    A propagator with state that a restore must rewind keeps an undo
    log: `size()` reports its length, and `truncate(size)` pops and undoes
    the entries appended since. The engine calls both around a
    checkpoint. A relation table's log is its rows; the matrix
    propagator's holds its cluster merges and its index of lowered
    upper bounds.
    """

    __slots__ = ("seen",)

    LEVEL = 0

    def wake(self, store: Store, start: int, end: int) -> None:
        raise NotImplementedError

    def size(self) -> int:
        return 0

    def truncate(self, size: int) -> None:
        pass


class EngineCheckpoint(NamedTuple):
    store_cp: Checkpoint
    n_propagators: int
    sizes: tuple[int, ...]


class Engine:
    """One scheduler per store. Not shared across threads.

    Each wake is one count in `RunStats.wakes`, however many records it
    reads. Among the due propagators the engine wakes one of the lowest
    `LEVEL`, and within a level the one with the smallest cursor, the one
    that has waited longest; on a tie, as after a restore leaves every
    cursor at one position, the first registered. It picks in one pass,
    with no list. `rng`, when given, draws uniformly among all due
    propagators of both levels instead; the fixpoint is the same for
    monotone propagators (used to test confluence), so ordering is a
    performance choice only.
    """

    def __init__(self, store: Store, rng=None) -> None:
        self.store = store
        self.propagators: list[Propagator] = []
        self.stats = RunStats()
        self._rng = rng

    # -- registration ---------------------------------------------------

    def register(self, p: Propagator) -> None:
        """Add p to the propagators every event goes to, without waking it.

        No-op on a failed store (propagate will just report the failure).
        """
        if self.store.failed:
            return
        p.seen = len(self.store.trail)
        self.propagators.append(p)
        if len(self.propagators) > self.stats.peak_propagators:
            self.stats.peak_propagators = len(self.propagators)

    # -- propagation ----------------------------------------------------

    def propagate(self) -> PropagateResult:
        """Run all pending propagation to fixpoint or failure."""
        store = self.store
        trail = store.trail
        stats = self.stats
        rng = self._rng
        propagators = self.propagators
        while not store.failed:
            end = len(trail)
            if rng is None:
                # one pass: as seen < end, LEVEL * end + seen orders by (LEVEL, seen)
                # and, LEVEL being 0 or 1, stays below 2 * end
                p, least = None, 2 * end
                for q in propagators:
                    if q.seen < end:
                        key = q.LEVEL * end + q.seen
                        if key < least:
                            p, least = q, key
            else:
                due = [q for q in propagators if q.seen < end]
                p = due[rng.randrange(len(due))] if due else None
            if p is None:
                return PropagateResult.FIXPOINT
            start, p.seen = p.seen, end
            stats.wakes += 1
            p.wake(store, start, end)
        stats.failures += 1
        return PropagateResult.FAILURE

    # -- checkpoints ------------------------------------------------------

    def checkpoint(self) -> EngineCheckpoint:
        """Snapshot store + scheduler state. Only valid while no
        propagator is due, so that no unread event is lost on restore."""
        propagators = self.propagators
        end = len(self.store.trail)
        for p in propagators:
            if p.seen < end:
                raise RuntimeError("checkpoint requires every propagator to have read the trail")
        return EngineCheckpoint(
            self.store.checkpoint(), len(propagators), tuple([p.size() for p in propagators])
        )

    def restore(self, cp: EngineCheckpoint) -> None:
        """Undo domains, registrations and rows back to cp. Every cursor
        returns to the checkpoint's trail length, where `checkpoint` found
        them all."""
        self.store.restore(cp.store_cp)
        del self.propagators[cp.n_propagators:]
        for p, size in zip(self.propagators, cp.sizes):
            p.truncate(size)
            p.seen = cp.store_cp.trail_len
