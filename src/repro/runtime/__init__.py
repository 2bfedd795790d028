"""Engine-wide resource governance: budgets, deadlines, cancellation.

A serving layer cannot sit on an engine whose only failure mode is an
unhandled exception.  This package gives every hot loop in the engine a
cooperative contract:

* :class:`Budget` — a context manager carrying a wall-clock deadline, a
  cumulative model-count budget and a per-allocation memory-word cap.
  Budgets nest; the innermost one governs.
* :func:`checkpoint` — polled by the CDCL search loop, the cube stream,
  the blocked table kernels and the batch driver.  Raises
  :class:`EngineTimeout` past the deadline or :class:`Cancelled` after
  :meth:`Budget.cancel`; the interrupted operation is left resumable
  (the solver honours the ``next_model`` contract across the raise).
* :func:`charge_models` / :func:`charge_words` — accounting hooks.
  Model charges accumulate and raise :class:`BudgetExceeded`; word
  charges cap the single largest allocation and raise
  :class:`MemoryBudgetExceeded`, which **is a** ``MemoryError`` so the
  tier-demotion handlers treat a budgeted overflow exactly like a real
  OOM: retry one tier down instead of crashing (see
  :func:`repro.logic.shards.tier` for the demotion chain).

Deadlines are honoured within one checkpoint interval: the solver polls
every :data:`CHECKPOINT_INTERVAL` decisions/conflicts, the streams and
kernels once per cube/chunk.  While a deadline or cancellable budget is
active, :func:`allows_fanout` turns process fan-out off — a child
process cannot observe the parent's checkpoints — and the serial paths
(which can) serve instead; it does the same inside a daemonic process,
which may not have children.

Fault injection for all of the above lives in
:mod:`repro.runtime.faults` (``REPRO_FAULTS``); the crash-tolerant
process-pool map in :mod:`repro.runtime.pool`.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import List, Optional

from repro.obs import metrics as _metrics

from . import faults

__all__ = [
    "Budget",
    "BudgetExceeded",
    "CHECKPOINT_INTERVAL",
    "Cancelled",
    "EngineTimeout",
    "MemoryBudgetExceeded",
    "STATS",
    "Stats",
    "allows_fanout",
    "charge_models",
    "charge_words",
    "checkpoint",
    "current",
    "faults",
    "record_demotion",
]

#: Solver decisions/conflicts between deadline polls.  Small enough that
#: a deadline lands within milliseconds of real work, large enough that
#: governance stays under the <5% overhead target on the bench legs.
CHECKPOINT_INTERVAL = 64

#: Counter keys STATS always carries (and that :meth:`Stats.reset`
#: restores); dynamic keys — per-edge demotions, store corruption —
#: are dropped entirely on reset.
_BASELINE_KEYS = (
    "budgets",
    "checkpoints",
    "timeouts",
    "cancelled",
    "model_budget_exceeded",
    "memory_budget_exceeded",
    "demotions",
    "worker_crashes",
    "inline_retries",
    "store-corrupt",
)


class Stats(_metrics.CounterGroup):
    """The engine's counter bag, now a ``runtime.*`` registry view.

    Still dict-shaped, so every existing ``STATS["key"] += 1`` site
    keeps working on single-threaded paths; threaded sites (the
    ``REPRO_PARALLEL`` kernels checkpoint from worker threads) go
    through the atomic :meth:`inc`.  Storage lives in
    :data:`repro.obs.metrics.REGISTRY` under ``runtime.<key>``, which
    is what ``repro stats`` dumps and what pool-worker deltas merge
    into.
    """

    def __init__(self) -> None:
        super().__init__("runtime", baseline=_BASELINE_KEYS)

    def reset(self) -> None:
        """Zero the baseline counters and drop every dynamic key.

        Also clears the fault-injection counters
        (:data:`repro.runtime.faults.STATS`): both groups carry
        pool-worker deltas merged by :mod:`repro.runtime.pool`, and a
        reset that left stale fault/crash counts behind used to make
        post-fan-out assertions lie.
        """
        super().reset()
        faults.STATS.reset()


#: Governance counters: checkpoints served, budget trips, tier
#: demotions (plus per-edge ``demotions:<from>-><to>`` keys), worker
#: crashes survived, inline retries run by :mod:`repro.runtime.pool`
#: and artifact-store corruption events (``store-corrupt``, counted by
#: :mod:`repro.store` whenever a read quarantines a file).
STATS = Stats()


class EngineTimeout(RuntimeError):
    """A budget's wall-clock deadline passed at a checkpoint."""


class Cancelled(EngineTimeout):
    """The governing budget was cancelled (:meth:`Budget.cancel`)."""


class BudgetExceeded(RuntimeError):
    """A cumulative budget (model count) ran out; demotion cannot help."""


class MemoryBudgetExceeded(BudgetExceeded, MemoryError):
    """A single allocation would exceed the word cap.

    Subclasses ``MemoryError`` on purpose: the tier-demotion handlers
    catch it exactly like a real allocator failure and retry the
    operation one tier down.
    """


_stack: List["Budget"] = []
_ACTIVE: Optional["Budget"] = None


class Budget:
    """A governance scope: ``with Budget(deadline=0.5): ...``.

    ``deadline``
        seconds of wall clock granted from ``__enter__``.
    ``max_models``
        cumulative cap on models charged inside the scope.
    ``max_words``
        cap on the single largest allocation, in 64-bit words.

    The object is reusable (counters restart on entry) but not
    re-entrant.  :meth:`cancel` may be called from another thread; the
    next checkpoint in the governed thread raises :class:`Cancelled`.
    """

    __slots__ = (
        "deadline",
        "max_models",
        "max_words",
        "models_charged",
        "_cancelled",
        "_expires",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_models: Optional[int] = None,
        max_words: Optional[int] = None,
    ) -> None:
        self.deadline = deadline
        self.max_models = max_models
        self.max_words = max_words
        self.models_charged = 0
        self._cancelled = False
        self._expires: Optional[float] = None

    def __enter__(self) -> "Budget":
        global _ACTIVE
        self.models_charged = 0
        self._cancelled = False
        self._expires = (
            None if self.deadline is None
            else time.monotonic() + self.deadline
        )
        _stack.append(self)
        _ACTIVE = self
        STATS.inc("budgets")
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        _stack.remove(self)
        _ACTIVE = _stack[-1] if _stack else None

    def cancel(self) -> None:
        """Request cooperative cancellation at the next checkpoint."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def expired(self) -> bool:
        return self._expires is not None and time.monotonic() > self._expires

    def remaining(self) -> Optional[float]:
        """Seconds left before the deadline, or None without one."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - time.monotonic())

    def checkpoint(self) -> None:
        """Raise if cancelled or past the deadline; otherwise a no-op."""
        if self._cancelled:
            STATS.inc("cancelled")
            raise Cancelled("operation cancelled at a checkpoint")
        expires = self._expires
        if expires is not None and time.monotonic() > expires:
            STATS.inc("timeouts")
            raise EngineTimeout(
                f"deadline of {self.deadline}s exceeded at a checkpoint"
            )

    def charge_models(self, count: int) -> None:
        """Accumulate *count* emitted models against the model budget."""
        self.models_charged += count
        cap = self.max_models
        if cap is not None and self.models_charged > cap:
            STATS.inc("model_budget_exceeded")
            raise BudgetExceeded(
                f"model budget exhausted: {self.models_charged} models "
                f"charged against max_models={cap}"
            )

    def charge_words(self, count: int, context: str = "allocation") -> None:
        """Check a prospective allocation of *count* words against the cap."""
        cap = self.max_words
        if cap is not None and count > cap:
            STATS.inc("memory_budget_exceeded")
            raise MemoryBudgetExceeded(
                f"{context}: {count} words exceed max_words={cap}"
            )


def current() -> Optional[Budget]:
    """The innermost active budget, or None."""
    return _ACTIVE


def checkpoint() -> None:
    """Poll the governing budget; no-op (one load) when none is active."""
    budget = _ACTIVE
    if budget is not None:
        STATS.inc("checkpoints")
        budget.checkpoint()


def charge_models(count: int) -> None:
    """Charge *count* models against the governing budget, if any."""
    budget = _ACTIVE
    if budget is not None:
        budget.charge_models(count)


def charge_words(count: int, context: str = "allocation") -> None:
    """Vet a prospective *count*-word allocation.

    Also the ``alloc-oom`` fault-injection site: an armed occurrence
    raises a plain ``MemoryError`` here, upstream of any budget.
    """
    if faults.ACTIVE and faults.trip("alloc-oom") is not None:
        raise MemoryError(f"injected alloc-oom fault at {context}")
    budget = _ACTIVE
    if budget is not None:
        budget.charge_words(count, context)


def allows_fanout() -> bool:
    """Whether process fan-out is permitted here.

    Child processes cannot observe the parent's deadline or
    cancellation, so any budget carrying either routes the work to the
    serial/threaded paths, which checkpoint cooperatively.  A daemonic
    process (a service worker, a pool worker) may not have children at
    all, so fan-out is off inside one as well.
    """
    if multiprocessing.current_process().daemon:
        return False
    budget = _ACTIVE
    return budget is None or (
        budget._expires is None and not budget._cancelled
    )


def record_demotion(from_tier: str, to_tier: str) -> None:
    """Count one tier demotion (also keyed per ``from->to`` edge)."""
    STATS.inc("demotions")
    STATS.inc(f"demotions:{from_tier}->{to_tier}")
