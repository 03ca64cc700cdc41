"""Integer variables with interval domains, domain events, and a trail.

A Store owns a flat pool of variables whose domains are integer intervals
[lb, ub]. Mutations only narrow (raise lb / lower ub) and report which
domain events they caused. A mutation that would cross the opposite bound
marks the whole store failed instead of emptying the domain; once failed,
no further events are emitted. Checkpoint/restore follows strict stack
discipline and is trail-based, so restore cost is proportional to the
number of mutations being undone.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass


class Event:
    """Domain event bits raised by bound mutations, as plain int masks.

    MIN: the lower bound strictly increased.
    MAX: the upper bound strictly decreased.
    FIX: the domain just became a singleton.

    A single mutation can raise up to two of these (e.g. MIN | FIX).
    Events travel as ints, so combining and testing them costs no enum
    construction on the propagation hot path.
    """

    NONE = 0
    MIN = 1
    MAX = 2
    FIX = 4


_MIN = Event.MIN
_MAX = Event.MAX
_MIN_FIX = Event.MIN | Event.FIX
_MAX_FIX = Event.MAX | Event.FIX
_NONE = Event.NONE


@dataclass(frozen=True)
class Checkpoint:
    """Opaque marker for a store state; restore with Store.restore()."""

    depth: int
    trail_len: int
    event_len: int
    failed: bool


class StaleCheckpointError(RuntimeError):
    """Raised when restoring a checkpoint that was already popped."""


class Store:
    """Pool of interval-domain integer variables with trail and event log.

    Variables are identified by dense integer ids. Bound reads go through
    `lb`/`ub` (or the `lbs`/`ubs` arrays directly in propagator hot paths);
    both are constant-time. The bounds are signed 64-bit `array`s, so a
    propagator can read them through `np.frombuffer` without a copy; such
    a view must not outlive the wake, because an array with a live view
    cannot grow in `new_var`. All mutations append undo records to the
    trail and (var, event) pairs to an event log that the propagation
    engine drains.
    """

    __slots__ = ("lbs", "ubs", "failed", "_trail", "_events", "_cps")

    def __init__(self) -> None:
        self.lbs = array("q")
        self.ubs = array("q")
        self.failed = False
        self._trail: list[tuple[int, bool, int]] = []  # (var, is_lb, old value)
        self._events: list[tuple[int, int]] = []
        self._cps: list[Checkpoint] = []

    # -- variables ----------------------------------------------------

    def new_var(self, lb: int, ub: int) -> int:
        """Create a variable with domain [lb, ub] and return its id."""
        if lb > ub:
            raise ValueError(f"empty initial domain [{lb}, {ub}]")
        self.lbs.append(lb)
        self.ubs.append(ub)
        return len(self.lbs) - 1

    @property
    def num_vars(self) -> int:
        return len(self.lbs)

    def lb(self, v: int) -> int:
        return self.lbs[v]

    def ub(self, v: int) -> int:
        return self.ubs[v]

    def is_fixed(self, v: int) -> bool:
        return self.lbs[v] == self.ubs[v]

    def domain(self, v: int) -> tuple[int, int]:
        return (self.lbs[v], self.ubs[v])

    # -- mutations ----------------------------------------------------

    def fail(self) -> None:
        """Mark the store failed; domains keep their last valid values."""
        self.failed = True

    def tighten_lb(self, v: int, val: int) -> int:
        """Raise lb(v) to val. No-op if val <= lb; fails if val > ub."""
        if self.failed:
            return _NONE
        lbs = self.lbs
        old = lbs[v]
        if val <= old:
            return _NONE
        ub = self.ubs[v]
        if val > ub:
            self.failed = True
            return _NONE
        self._trail.append((v, True, old))
        lbs[v] = val
        ev = _MIN_FIX if val == ub else _MIN
        self._events.append((v, ev))
        return ev

    def tighten_ub(self, v: int, val: int) -> int:
        """Lower ub(v) to val. No-op if val >= ub; fails if val < lb."""
        if self.failed:
            return _NONE
        ubs = self.ubs
        old = ubs[v]
        if val >= old:
            return _NONE
        lb = self.lbs[v]
        if val < lb:
            self.failed = True
            return _NONE
        self._trail.append((v, False, old))
        ubs[v] = val
        ev = _MAX_FIX if val == lb else _MAX
        self._events.append((v, ev))
        return ev

    def assign(self, v: int, val: int) -> int:
        """Fix v to val; equivalent to tighten_lb then tighten_ub."""
        ev = self.tighten_lb(v, val)
        if self.failed:
            return _NONE
        return ev | self.tighten_ub(v, val)

    def take_events(self) -> list[tuple[int, int]]:
        """Drain and return all undispatched (var, event) pairs."""
        out = self._events
        if out:
            self._events = []
        return out

    # -- checkpoints ----------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        cp = Checkpoint(len(self._cps), len(self._trail), len(self._events), self.failed)
        self._cps.append(cp)
        return cp

    def restore(self, cp: Checkpoint) -> None:
        """Revert all domains and the failed flag to checkpoint state.

        Pops cp and everything above it (stack discipline). Events raised
        after the checkpoint are forgotten.
        """
        if cp.depth >= len(self._cps) or self._cps[cp.depth] is not cp:
            raise StaleCheckpointError("checkpoint was already popped or belongs to another store")
        trail = self._trail
        lbs, ubs = self.lbs, self.ubs
        for i in range(len(trail) - 1, cp.trail_len - 1, -1):
            v, is_lb, old = trail[i]
            if is_lb:
                lbs[v] = old
            else:
                ubs[v] = old
        del trail[cp.trail_len:]
        del self._events[cp.event_len:]
        del self._cps[cp.depth:]
        self.failed = cp.failed
