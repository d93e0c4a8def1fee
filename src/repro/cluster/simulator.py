"""The discrete-event kernel tying processes, nodes and the network together.

The :class:`Kernel` owns the event queue, the simulated clock, the registered
nodes and processes, the network model, the cost model and the execution
trace.  Simulated processes are generators yielding syscalls (see
:mod:`repro.cluster.process`); the kernel interprets each syscall, schedules
the corresponding events and resumes the process with the syscall's result.

Pending work sits in two lanes.  Timed events live in the
:class:`~repro.cluster.events.EventQueue` heap as ``(time, seq, event)``
entries.  Zero-delay resumptions — a spawn, a message delivered to a blocked
receiver, a receive served from the mailbox, a zero-work computation, a
finished computation — go to the *ready lane*, a FIFO of ``(seq, process,
value)`` entries with no :class:`~repro.cluster.events.Event` object.  Both
lanes draw ``seq`` from one counter.  Every ready entry is due at the
current time, and ``now`` cannot advance while the lane is non-empty, so the
loop fires the heap top first exactly when its ``(time, seq)`` precedes the
ready head's ``(now, seq)``: the merged order is the ``(time, seq)`` order a
single heap would give.

Determinism: all ties are broken by scheduling order, there is no randomness
anywhere in the kernel, and message delivery preserves per-(sender,
receiver) ordering.  Two runs of the same workload on the same topology
produce bit-identical traces.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple

from repro.cluster.events import Event, EventQueue
from repro.cluster.network import NetworkModel
from repro.cluster.node import Node, NodeSpec
from repro.cluster.process import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    Message,
    ProcessContext,
    ProcessState,
    Recv,
    Send,
    SimProcess,
    Sleep,
    Syscall,
)
from repro.cluster.trace import Trace
from repro.obs import enabled as _obs_enabled
from repro.obs import metrics as _obs_metrics
from repro.timemodel.cost import CostModel

__all__ = ["Kernel", "KernelStats", "SimulationError"]

# Telemetry (no-ops unless repro.obs is enabled).  Counters accumulate the
# per-``Kernel.run`` deltas; the gauge tracks the latest run's event rate.
_KERNEL_EVENTS = _obs_metrics.counter(
    "repro_kernel_events_fired_total", "events fired by Kernel.run calls"
)
_KERNEL_SIM_SECONDS = _obs_metrics.counter(
    "repro_kernel_simulated_seconds_total", "simulated seconds advanced by Kernel.run calls"
)
_KERNEL_WALL_SECONDS = _obs_metrics.counter(
    "repro_kernel_wall_seconds_total", "wall-clock seconds spent inside Kernel.run"
)
_KERNEL_EVENT_RATE = _obs_metrics.gauge(
    "repro_kernel_events_per_simulated_second",
    "events fired per simulated second in the most recent Kernel.run",
)


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state (e.g. deadlock)."""


@dataclass
class KernelStats:
    """Diagnostics of one kernel's event loop (cumulative across ``run`` calls).

    ``events_scheduled`` counts heap pushes and ready-lane entries alike;
    ``events_cancelled`` counts events that were cancelled before firing
    (completion re-aims on node load changes, mostly); ``peak_queue_size``
    is the most entries the heap and the ready lane held together, sampled
    before each event and when the stats are read (cancelled heap entries
    included — it measures memory, not live work); ``compactions`` counts
    in-place heap rebuilds that reclaimed cancelled entries.
    ``wall_seconds`` is real time spent inside :meth:`Kernel.run`, so
    ``wall_seconds_per_simulated_second`` is the simulator's slowdown
    factor — the pathology metric for latency-dominated runs.
    """

    events_fired: int = 0
    events_scheduled: int = 0
    events_cancelled: int = 0
    peak_queue_size: int = 0
    compactions: int = 0
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def wall_seconds_per_simulated_second(self) -> Optional[float]:
        """Real seconds burnt per simulated second (None before any time passes)."""
        if self.simulated_seconds <= 0:
            return None
        return self.wall_seconds / self.simulated_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events_fired": self.events_fired,
            "events_scheduled": self.events_scheduled,
            "events_cancelled": self.events_cancelled,
            "peak_queue_size": self.peak_queue_size,
            "compactions": self.compactions,
            "simulated_seconds": self.simulated_seconds,
            "wall_seconds": self.wall_seconds,
            "wall_seconds_per_simulated_second": self.wall_seconds_per_simulated_second,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "KernelStats":
        """Rebuild stats from their :meth:`to_dict` form (exact round-trip).

        ``wall_seconds_per_simulated_second`` is derived, so it is ignored on
        input and recomputed from the stored fields.
        """
        return cls(
            events_fired=int(data.get("events_fired", 0)),
            events_scheduled=int(data.get("events_scheduled", 0)),
            events_cancelled=int(data.get("events_cancelled", 0)),
            peak_queue_size=int(data.get("peak_queue_size", 0)),
            compactions=int(data.get("compactions", 0)),
            simulated_seconds=float(data.get("simulated_seconds", 0.0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
        )


#: Process states after which a process is never resumed again.
_DONE = (ProcessState.FINISHED, ProcessState.FAILED)


class Kernel:
    """Discrete-event simulation kernel."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        network: Optional[NetworkModel] = None,
        trace: Optional[Trace] = None,
    ) -> None:
        self.queue = EventQueue()
        self.now = 0.0
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.network = network if network is not None else NetworkModel()
        self.trace = trace if trace is not None else Trace()
        self._nodes: Dict[str, Node] = {}
        self._processes: Dict[str, SimProcess] = {}
        self._contexts: Dict[str, ProcessContext] = {}
        self._last_delivery: Dict[tuple, float] = {}
        #: the ready lane: zero-delay resumptions due at ``now``
        self._ready: Deque[Tuple[int, SimProcess, Any]] = deque()
        self._syscalls: Dict[type, Callable[[SimProcess, Any], None]] = {
            Send: self._do_send,
            Recv: self._do_recv,
            Compute: self._do_compute,
            Sleep: self._do_sleep,
        }
        self._finished_count = 0
        self._events_fired = 0
        self._peak_queue = 0
        self._wall_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Topology registration
    # ------------------------------------------------------------------ #
    def add_node(self, spec: NodeSpec) -> Node:
        """Register a node; returns the simulation-side :class:`Node`."""
        if spec.name in self._nodes:
            raise ValueError(f"duplicate node name {spec.name!r}")
        node = Node(spec, self)
        self._nodes[spec.name] = node
        return node

    def add_nodes(self, specs: Iterable[NodeSpec]) -> None:
        """Register several nodes at once."""
        for spec in specs:
            self.add_node(spec)

    def node(self, name: str) -> Node:
        """The registered node with the given name."""
        return self._nodes[name]

    def nodes(self) -> Dict[str, Node]:
        """All registered nodes by name."""
        return dict(self._nodes)

    # ------------------------------------------------------------------ #
    # Process management
    # ------------------------------------------------------------------ #
    def spawn(
        self,
        name: str,
        node_name: str,
        fn: Callable[..., Generator[Syscall, Any, Any]],
        *args: Any,
        **kwargs: Any,
    ) -> SimProcess:
        """Create a process ``name`` on node ``node_name`` running ``fn(ctx, ...)``.

        ``fn`` must be a generator function whose first parameter is the
        :class:`ProcessContext`.  The process starts at the current simulated
        time (it is resumed through the ready lane).
        """
        if name in self._processes:
            raise ValueError(f"duplicate process name {name!r}")
        if node_name not in self._nodes:
            raise ValueError(f"unknown node {node_name!r} for process {name!r}")
        ctx = ProcessContext(self, name, node_name)
        generator = fn(ctx, *args, **kwargs)
        if not hasattr(generator, "send"):
            raise TypeError(f"process function {fn!r} did not return a generator")
        process = SimProcess(name=name, node_name=node_name, generator=generator, started_at=self.now)
        self._processes[name] = process
        self._contexts[name] = ctx
        self._wake(process, None)
        return process

    def process(self, name: str) -> SimProcess:
        """The process record with the given name."""
        return self._processes[name]

    def process_names(self) -> List[str]:
        """Names of every registered process."""
        return list(self._processes.keys())

    def all_finished(self) -> bool:
        """True when every registered process has finished."""
        return self._finished_count == len(self._processes)

    # ------------------------------------------------------------------ #
    # Scheduling primitives
    # ------------------------------------------------------------------ #
    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time`` (>= now)."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        return self.queue.push(max(float(time), self.now), callback, *args)

    def schedule_after(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.now + delay, callback, *args)

    def _wake(self, process: SimProcess, value: Any) -> None:
        """Resume ``process`` with ``value`` at the current time (ready lane)."""
        queue = self.queue
        seq = queue.pushed
        queue.pushed = seq + 1
        self._ready.append((seq, process, value))

    # ------------------------------------------------------------------ #
    # Process resumption and syscall handling
    # ------------------------------------------------------------------ #
    def _resume(self, process: SimProcess, value: Any) -> None:
        if process.state in _DONE:
            return
        process.state = ProcessState.RUNNING
        try:
            syscall = process.generator.send(value)
        except StopIteration as stop:
            process.state = ProcessState.FINISHED
            process.return_value = stop.value
            process.finished_at = self.now
            self._finished_count += 1
            return
        except Exception as exc:
            process.state = ProcessState.FAILED
            process.exception = exc
            process.finished_at = self.now
            self._finished_count += 1
            raise SimulationError(f"process {process.name!r} raised {exc!r}") from exc
        handler = self._syscalls.get(type(syscall))
        if handler is None:
            raise SimulationError(
                f"process {process.name!r} yielded a non-syscall object {syscall!r}"
            )
        handler(process, syscall)

    # -- Send ------------------------------------------------------------ #
    def _do_send(self, process: SimProcess, syscall: Send) -> None:
        dest = self._processes.get(syscall.dest)
        if dest is None:
            raise SimulationError(
                f"process {process.name!r} sent a message to unknown process {syscall.dest!r}"
            )
        now = self.now
        network = self.network
        delivery = now + network.transfer_delay(syscall.size_bytes)
        key = (process.name, syscall.dest)
        last = self._last_delivery.get(key)
        if last is not None and last > delivery:
            delivery = last
        self._last_delivery[key] = delivery
        # Push the delivery and, after the (small) send overhead, the sender's
        # resumption straight onto the heap.
        queue = self.queue
        seq = queue.pushed
        queue.pushed = seq + 2
        heap = queue._heap
        heapq.heappush(heap, (delivery, seq, Event(
            delivery, seq, self._deliver, (process.name, dest, syscall, now), False, queue
        )))
        resume_at = now + network.send_overhead_s
        heapq.heappush(heap, (resume_at, seq + 1, Event(
            resume_at, seq + 1, self._resume, (process, None), False, queue
        )))

    def _deliver(self, source: str, dest: SimProcess, syscall: Send, sent_at: float) -> None:
        now = self.now
        tag = syscall.tag
        payload = syscall.payload
        message = Message(source, tag, payload, sent_at, now)
        self.trace.record_message(source, dest.name, tag, payload, syscall.size_bytes, sent_at, now)
        recv = dest.pending_recv
        if (
            recv is not None
            and dest.state is ProcessState.BLOCKED_RECV
            and dest.matches(message, recv)
        ):
            dest.pending_recv = None
            self._wake(dest, message)
        else:
            dest.mailbox.append(message)

    # -- Recv ------------------------------------------------------------ #
    def _do_recv(self, process: SimProcess, syscall: Recv) -> None:
        message = process.mailbox.pop_match(syscall)
        if message is None:
            process.state = ProcessState.BLOCKED_RECV
            process.pending_recv = syscall
            return
        self._wake(process, message)

    # -- Compute ---------------------------------------------------------- #
    def _do_compute(self, process: SimProcess, syscall: Compute) -> None:
        work = syscall.work_units
        if work < 0:
            raise SimulationError(f"negative compute from {process.name!r}")
        process.state = ProcessState.COMPUTING
        if work == 0:
            # A zero-work computation is still a job: record it (start == end)
            # so job counts stay faithful for trivial evaluations.
            self.trace.record_compute(process.name, process.node_name, self.now, self.now, 0.0)
            self._wake(process, None)
            return
        self._nodes[process.node_name].start_computation(
            process.name, work, on_complete=lambda: self._wake(process, None)
        )

    # -- Sleep ------------------------------------------------------------ #
    def _do_sleep(self, process: SimProcess, syscall: Sleep) -> None:
        if syscall.seconds < 0:
            raise SimulationError(f"negative sleep from {process.name!r}")
        process.state = ProcessState.SLEEPING
        self.queue.push(self.now + syscall.seconds, self._resume, process, None)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        until_time: Optional[float] = None,
        until_process: Optional[str] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the simulation and return the final simulated time.

        Stops when no events are pending, when ``until_time`` is reached,
        when the process named ``until_process`` finishes, or after
        ``max_events`` events — whichever comes first.  ``until_time`` may
        not lie before the current time: the clock never runs backwards.
        """
        target = self._processes.get(until_process) if until_process else None
        if until_process is not None and target is None:
            raise ValueError(f"unknown process {until_process!r}")
        if until_time is not None and until_time < self.now:
            raise ValueError(f"until_time {until_time} lies before the current time {self.now}")
        until = math.inf if until_time is None else until_time
        # The budget check runs after each fired event, so any budget below
        # one still fires one event; -1 is never reached.
        budget = -1 if max_events is None else max(1, max_events)
        queue = self.queue
        heap = queue._heap
        ready = self._ready
        popleft = ready.popleft
        heappop = heapq.heappop
        resume = self._resume
        now = self.now
        peak = self._peak_queue
        fired = 0
        wall_start = _time.perf_counter()
        sim_start = now
        try:
            while True:
                size = len(heap) + len(ready)
                if size > peak:
                    peak = size
                if target is not None and target.state in _DONE:
                    break
                if heap:
                    time, seq, event = heap[0]
                    if event.cancelled:
                        heappop(heap)
                        event.queue = None
                        queue._garbage -= 1
                        continue
                    # The ready head is due now: it goes first unless the
                    # heap top is also due now and was scheduled earlier.
                    if ready and (time > now or seq > ready[0][0]):
                        _, process, value = popleft()
                        resume(process, value)
                    elif time > until:
                        self.now = until
                        break
                    else:
                        heappop(heap)
                        event.queue = None
                        self.now = now = time
                        event.callback(*event.args)
                elif ready:
                    _, process, value = popleft()
                    resume(process, value)
                else:
                    break
                fired += 1
                if fired == budget:
                    break
        finally:
            wall_delta = _time.perf_counter() - wall_start
            self._peak_queue = peak
            self._events_fired += fired
            self._wall_seconds += wall_delta
            self.trace.kernel_stats = self.stats()
            if _obs_enabled():
                sim_delta = max(0.0, self.now - sim_start)
                _KERNEL_EVENTS.inc(fired)
                _KERNEL_SIM_SECONDS.inc(sim_delta)
                _KERNEL_WALL_SECONDS.inc(wall_delta)
                if sim_delta > 0:
                    _KERNEL_EVENT_RATE.set(fired / sim_delta)
        return self.now

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def stats(self) -> KernelStats:
        """A snapshot of this kernel's event-loop diagnostics."""
        return KernelStats(
            events_fired=self._events_fired,
            events_scheduled=self.queue.pushed,
            events_cancelled=self.queue.cancelled_total,
            peak_queue_size=max(self._peak_queue, len(self.queue._heap) + len(self._ready)),
            compactions=self.queue.compactions,
            simulated_seconds=self.now,
            wall_seconds=self._wall_seconds,
        )

    def blocked_processes(self) -> List[str]:
        """Names of processes currently blocked on a receive."""
        return [
            p.name for p in self._processes.values() if p.state is ProcessState.BLOCKED_RECV
        ]

    def failed_processes(self) -> List[str]:
        """Names of processes that terminated with an exception."""
        return [p.name for p in self._processes.values() if p.state is ProcessState.FAILED]
