"""Cluster nodes with proportional-share processors.

A node has a clock frequency and a number of cores.  Any number of simulated
processes may run computations on it concurrently; when more computations are
active than there are cores, each one progresses at ``cores / active`` of the
full speed (proportional sharing, the behaviour of an oversubscribed
multi-core PC running CPU-bound processes under a fair OS scheduler).

This is the mechanism behind Table VI of the paper: in the ``16x4 + 16x2``
configuration, four client processes share a dual-core PC and therefore run at
half speed whenever they are all busy, while clients on the ``x2`` PCs run at
full speed.  The Round-Robin dispatcher keeps feeding the slow clients and
waits for them at every step; the Last-Minute dispatcher hands work to
whichever client frees up first.

Scheduling uses **virtual work time**: the node integrates a cumulative
per-computation work total ``W(t)`` (every running computation receives the
same share under proportional sharing, so one integral serves them all).  A
computation of ``w`` units started when the integral was ``W0`` completes
exactly when ``W`` reaches ``W0 + w`` — a constant *work target* fixed at
start time.  Completion order is therefore the order of the targets, so only
the *single earliest* completion per node needs a scheduled kernel event; a
load change (arrival or completion) re-aims that one event in O(log C)
instead of cancelling and re-pushing an event per running computation
(O(C log C) heap churn per wave, O(C^2) per arrival/completion storm — the
regime that made high-latency runs CPU-pathological).  Because targets are
fixed rather than repeatedly decremented, there is no floating-point drift
to re-spin on: when the completion event fires, the integral is snapped to
the exact target.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.events import Event
    from repro.cluster.simulator import Kernel

__all__ = ["NodeSpec", "Node", "RunningComputation"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a node.

    Attributes
    ----------
    name:
        Unique node name (e.g. ``"pc-03"`` or ``"server"``).
    freq_ghz:
        Clock frequency in GHz; with the cost model it determines how many
        work units per second a computation running alone on a core performs.
    cores:
        Number of cores; also the maximum number of computations that can
        progress at full speed simultaneously.
    """

    name: str
    freq_ghz: float = 1.86
    cores: int = 2

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ValueError("freq_ghz must be positive")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")


@dataclass
class RunningComputation:
    """Book-keeping for one in-flight computation on a node.

    ``target`` is the value of the node's work integral at which this
    computation completes (``integral at start + total_work``); ``seq`` is
    the node-local start order, breaking ties between computations whose
    targets coincide so simultaneous completions stay deterministic.
    """

    pid: str
    started_at: float
    total_work: float
    target: float
    seq: int
    on_complete: Optional[Callable[[], None]] = None


class Node:
    """A simulated node executing computations under proportional sharing."""

    def __init__(self, spec: NodeSpec, kernel: "Kernel") -> None:
        self.spec = spec
        self.kernel = kernel
        self._running: Dict[str, RunningComputation] = {}
        #: min-heap of (target, seq, pid): the next completion is the top.
        self._completions: List[Tuple[float, int, str]] = []
        #: cumulative per-computation work integral W(t)
        self._work = 0.0
        self._last_update = 0.0
        self._seq = 0
        self._next_event: Optional["Event"] = None
        self._next_version = 0
        #: accumulated (busy_cores * seconds), for utilisation reporting
        self.busy_core_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Speed model
    # ------------------------------------------------------------------ #
    def units_per_second(self) -> float:
        """Per-computation speed in work units / second, at the current load."""
        active = len(self._running)
        if active == 0:
            return 0.0
        share = min(1.0, self.spec.cores / active)
        return self.kernel.cost_model.units_per_second(self.spec.freq_ghz) * share

    def active_computations(self) -> int:
        """Number of in-flight computations on this node."""
        return len(self._running)

    # ------------------------------------------------------------------ #
    # Internal time integration
    # ------------------------------------------------------------------ #
    def _advance(self) -> None:
        """Integrate the shared work total up to ``kernel.now``."""
        now = self.kernel.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._running:
            self._work += self.units_per_second() * elapsed
            self.busy_core_seconds += elapsed * min(len(self._running), self.spec.cores)
        self._last_update = now

    def _schedule_next(self) -> None:
        """(Re)aim the node's single completion event at the earliest target."""
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
        self._next_version += 1
        if not self._completions:
            return
        speed = self.units_per_second()
        if speed <= 0.0:  # pragma: no cover - defensive (speed>0 when running)
            return
        target = self._completions[0][0]
        remaining = max(0.0, target - self._work)
        finish = self.kernel.now + remaining / speed
        self._next_event = self.kernel.queue.push(finish, self._on_completion, self._next_version)

    # ------------------------------------------------------------------ #
    # Public interface used by the kernel
    # ------------------------------------------------------------------ #
    def start_computation(
        self, pid: str, work_units: float, on_complete: Callable[[], None]
    ) -> None:
        """Begin a computation of ``work_units`` for process ``pid``.

        ``on_complete`` is invoked (through the event queue) when it finishes.
        A process may only run one computation at a time.
        """
        if pid in self._running:
            raise RuntimeError(f"process {pid} already has a computation running")
        if work_units < 0:
            raise ValueError("work_units must be non-negative")
        self._advance()
        seq = self._seq
        self._seq += 1
        comp = RunningComputation(
            pid=pid,
            started_at=self.kernel.now,
            total_work=float(work_units),
            target=self._work + float(work_units),
            seq=seq,
            on_complete=on_complete,
        )
        self._running[pid] = comp
        heapq.heappush(self._completions, (comp.target, seq, pid))
        self._schedule_next()

    def _on_completion(self, version: int) -> None:
        if version != self._next_version:  # pragma: no cover - defensive
            return  # stale event from before a load change
        self._next_event = None
        self._advance()
        target, _seq, pid = heapq.heappop(self._completions)
        comp = self._running.pop(pid)
        # Snap the integral to the exact target: completions hit their work
        # totals precisely, so error never accumulates across load changes
        # and no drift-respin path is needed.
        if self._work < target:
            self._work = target
        self.kernel.trace.record_compute(
            pid, self.spec.name, comp.started_at, self.kernel.now, comp.total_work
        )
        # Remaining computations speed up now that a slot freed: re-aim the
        # (single) completion event before resuming the finished process, so
        # simultaneous completions still fire before its resumption.
        self._schedule_next()
        if comp.on_complete is not None:
            comp.on_complete()

    def utilisation(self, horizon: Optional[float] = None) -> float:
        """Fraction of core capacity used from time 0 to ``horizon`` (default: now)."""
        self._advance()
        end = self.kernel.now if horizon is None else horizon
        if end <= 0:
            return 0.0
        return self.busy_core_seconds / (end * self.spec.cores)
