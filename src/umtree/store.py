"""Integer variables with interval domains and one trail of domain events.

A Store owns a flat pool of variables whose domains are integer intervals
[lb, ub]. Mutations only narrow (raise lb / lower ub) and report which
domain events they caused. A mutation that would cross the opposite bound
marks the whole store failed instead of emptying the domain; once failed,
no further events are emitted. Each narrowing appends one trail record,
which is both its undo record and its event. Checkpoint/restore follows
strict stack discipline, so restore cost is proportional to the number
of mutations being undone.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass


class Event:
    """Domain event bits raised by bound mutations, as plain int masks.

    MIN: the lower bound strictly increased.
    MAX: the upper bound strictly decreased.

    A tighten raises one of these and `assign` up to both. The event of a
    trail record also says which bound its old value restores. Events
    travel as ints, so combining and testing them costs no enum
    construction on the propagation hot path.
    """

    NONE = 0
    MIN = 1
    MAX = 2


_MIN = Event.MIN
_MAX = Event.MAX
_NONE = Event.NONE


@dataclass(frozen=True)
class Checkpoint:
    """Opaque marker for a store state; restore with Store.restore()."""

    depth: int
    trail_len: int
    failed: bool


class StaleCheckpointError(RuntimeError):
    """Raised when restoring a checkpoint that was already popped."""


class Store:
    """Pool of interval-domain integer variables with one trail.

    Variables are identified by dense integer ids. Bound reads go through
    `lb`/`ub` (or the `lbs`/`ubs` arrays directly in propagator hot paths);
    both are constant-time. The bounds are signed 64-bit `array`s, so a
    propagator can read them through `np.frombuffer` without a copy; such
    a view must not outlive the wake, because an array with a live view
    cannot grow in `new_vars`. Every narrowing appends one record
    (var, Event.MIN or Event.MAX, old value) to the trail: restore undoes
    it, and `take_events` hands it to the propagation engine once.
    """

    __slots__ = ("lbs", "ubs", "failed", "_trail", "_taken", "_cps")

    def __init__(self) -> None:
        self.lbs = array("q")
        self.ubs = array("q")
        self.failed = False
        self._trail: list[tuple[int, int, int]] = []  # (var, event, old value)
        self._taken = 0  # trail records already handed out by take_events
        self._cps: list[Checkpoint] = []

    # -- variables ----------------------------------------------------

    def new_vars(self, count: int, lb: int, ub: int) -> range:
        """Create `count` consecutive variables with domain [lb, ub]."""
        if count and lb > ub:
            raise ValueError(f"empty initial domain [{lb}, {ub}]")
        start = len(self.lbs)
        self.lbs.extend([lb] * count)
        self.ubs.extend([ub] * count)
        return range(start, start + count)

    def new_var(self, lb: int, ub: int) -> int:
        """Create a variable with domain [lb, ub] and return its id."""
        return self.new_vars(1, lb, ub)[0]

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
        if val > self.ubs[v]:
            self.failed = True
            return _NONE
        self._trail.append((v, _MIN, old))
        lbs[v] = val
        return _MIN

    def tighten_ub(self, v: int, val: int) -> int:
        """Lower ub(v) to val. No-op if val >= ub; fails if val < lb."""
        if self.failed:
            return _NONE
        ubs = self.ubs
        old = ubs[v]
        if val >= old:
            return _NONE
        if val < self.lbs[v]:
            self.failed = True
            return _NONE
        self._trail.append((v, _MAX, old))
        ubs[v] = val
        return _MAX

    def assign(self, v: int, val: int) -> int:
        """Fix v to val; equivalent to tighten_lb then tighten_ub."""
        return self.tighten_lb(v, val) | self.tighten_ub(v, val)

    def take_events(self) -> list[tuple[int, int, int]]:
        """The trail records (var, event, old value) added since the last call."""
        start = self._taken
        self._taken = len(self._trail)
        return self._trail[start:]

    # -- checkpoints ----------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        cp = Checkpoint(len(self._cps), len(self._trail), self.failed)
        self._cps.append(cp)
        return cp

    def restore(self, cp: Checkpoint) -> None:
        """Revert all domains and the failed flag to checkpoint state.

        Pops cp and everything above it (stack discipline). Events raised
        after the checkpoint are forgotten, and none is handed out twice.
        """
        if cp.depth >= len(self._cps) or self._cps[cp.depth] is not cp:
            raise StaleCheckpointError("checkpoint was already popped or belongs to another store")
        trail = self._trail
        lbs, ubs = self.lbs, self.ubs
        for v, ev, old in reversed(trail[cp.trail_len:]):
            (lbs if ev == _MIN else ubs)[v] = old
        del trail[cp.trail_len:]
        self._taken = min(self._taken, cp.trail_len)
        del self._cps[cp.depth:]
        self.failed = cp.failed
