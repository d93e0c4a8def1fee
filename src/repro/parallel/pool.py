"""The persistent, pickle-free worker pool behind every local fan-out.

One pool of long-lived worker processes serves all three kinds of local
parallel work:

* ``eval`` — one candidate move of a root step, evaluated at the level
  below (the paper's root-level fan-out, :mod:`repro.parallel.multiproc`);
* ``search`` — one full client job from a position
  (:class:`repro.parallel.jobs.PooledJobExecutor`);
* ``cells`` — a chunk of sweep cells shipped as ``SearchSpec.to_dict()``
  and run through a per-network :class:`~repro.api.Engine` that lives as
  long as the worker (``Engine.stream(executor="process")``).

Positions cross the process boundary as the game's own binary ``encode()``
frame (see :mod:`repro.games.base`), never as a pickled object graph; games
without a registered wire kind fall back to pickle payloads inside the same
framing.  Workers cache decoded positions, so the candidates of one step
decode their shared position at most once per worker.  Moves and result
sequences travel as plain nested tuples and seeds as ``(master_seed, path)``
label tuples, so no game or library class is serialised on the hot path.

Every result frame carries the id of the request it answers.  One thread at
a time reads the results queue and routes each frame to its request's
inbox, so any number of threads may evaluate candidates, run searches and
stream a cells batch on the same workers at once.  Each empty poll checks
liveness: a dead worker or a closed pool makes every in-flight request raise
:class:`RuntimeError` within seconds.  :func:`shared_pool` is the
process-wide instance that sweeps and searches share; a caller that needs
one size while another caller's requests run on a pool of a different size
gets a new pool, and the old one closes once its last request ends.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import multiprocessing
import os
import queue as _queue
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.counters import WorkCounter
from repro.core.nested import evaluate_move, nested_search
from repro.core.sample import sample
from repro.games.base import GameState, Move, decode_state
from repro.prng import SeedSequence

__all__ = ["PersistentWorkerPool", "shared_pool", "leased_pool", "close_shared_pool"]

#: Worker-side decoded-position cache size (distinct encoded blobs).
_DECODE_CACHE_LIMIT = 64

#: Seconds without any result frame before the pool declares itself wedged.
_FRAME_TIMEOUT_S = 600.0

#: Seconds one receive waits for a frame before checking liveness.
_POLL_S = 0.1


def _plain(move: Any) -> Any:
    """Convert a move to plain nested tuples (identity for ints/strings)."""
    if isinstance(move, tuple):
        return tuple(_plain(v) for v in move)
    return move


def _run_job(task: Tuple[Any, ...], decode_cache: Dict[bytes, GameState]) -> Tuple[Any, ...]:
    """Run one ``eval``/``search`` task: ``(score, sequence, work_units)``."""
    kind, _, _, blob, move, level, master_seed, path = task
    state = decode_cache.get(blob)
    if state is None:
        if len(decode_cache) >= _DECODE_CACHE_LIMIT:
            decode_cache.clear()
        state = decode_cache[blob] = decode_state(blob)
    seeds = SeedSequence(master_seed, *path)
    if kind == "eval":
        result = evaluate_move(state, move, level, seeds)
        work_units = float(result.work.moves)
    else:  # "search": a full client job from the decoded position
        counter = WorkCounter()
        if level <= 0:
            result = sample(state, seeds=seeds, counter=counter)
        else:
            result = nested_search(state, level, seeds, counter=counter)
        work_units = float(counter.moves)
    return result.score, tuple(_plain(m) for m in result.sequence), work_units


def _run_cells(
    task: Tuple[Any, ...], results: Any, cancel: Any, live_batch: Any, engines: Dict[str, Any]
) -> None:
    """Run one ``cells`` chunk through the worker's Engine for its network.

    Cells travel as ``SearchSpec.to_dict()`` documents, so no game state,
    executor or engine crosses the process boundary, and the per-network
    Engine keeps its job caches for the whole sweep as the inline path does.
    Each cell answers with its own frame, so progress stays live whatever
    the chunk size.  Cells found cancelled, or left over from a batch that
    is no longer the live one, answer ``skip``: the batch drains and the
    pool is reusable once it ends.  With obs enabled, the chunk's
    metrics ship home in the ``chunk`` frame for the parent to merge.  The
    store stays in the parent, which resolves hits and writes each result
    once.
    """
    # Deferred: repro.api imports this module.
    from repro import obs
    from repro.api import Engine, SearchSpec

    _, batch_id, cells, obs_enabled, network = task
    if obs_enabled and not obs.enabled():
        obs.enable()
    elif not obs_enabled and obs.enabled():
        obs.disable()
    engine = engines.get(repr(network))
    if engine is None:
        engine = engines[repr(network)] = Engine(network=network)
    for index, spec_dict in cells:
        if cancel.is_set() or live_batch.value != batch_id:
            results.put(("cell", batch_id, index, "skip", None))
            continue
        try:
            report = engine.run(SearchSpec.from_dict(spec_dict))
            results.put(("cell", batch_id, index, "ok", report.to_dict()))
        except BaseException as exc:  # error frame, never a dead parent
            results.put(("cell", batch_id, index, "err", f"{type(exc).__name__}: {exc}"))
    snapshot = obs.metrics.snapshot() if obs_enabled else None
    if obs_enabled:
        obs.metrics.reset()
    results.put(("chunk", batch_id, snapshot))


def _worker_main(tasks: Any, results: Any, cancel: Any, live_batch: Any) -> None:
    """Worker loop: run tasks until the ``None`` sentinel, one frame per result."""
    from repro import obs

    # The fork copied the parent's registry, and its lock is held while
    # workers start.  A worker must reach neither: a search it runs that asks
    # for a pool of its own then fails fast instead of blocking on the lock.
    global _SHARED, _SHARED_LOCK
    _SHARED, _SHARED_LOCK = None, threading.Lock()
    # A forked worker inherits the parent's counter values; zero them so the
    # per-chunk snapshots shipped home describe this worker's work only.
    obs.metrics.reset()
    decode_cache: Dict[bytes, GameState] = {}
    engines: Dict[str, Any] = {}
    while True:
        task = tasks.get()
        if task is None:
            break
        if task[0] == "cells":
            _run_cells(task, results, cancel, live_batch, engines)
            continue
        request_id, position = task[1], task[2]
        try:
            results.put(("job", request_id, position, "ok", _run_job(task, decode_cache)))
        except BaseException as exc:  # error frame instead of a deadlocked caller
            results.put(("job", request_id, position, "err", f"{type(exc).__name__}: {exc}"))


class PersistentWorkerPool:
    """Long-lived worker processes serving ``eval``, ``search`` and ``cells`` tasks.

    Create it once (or use :func:`shared_pool`) and every call reuses the
    same processes.  Candidate evaluations and searches may run from any
    number of threads at once; cells batches run one at a time
    (``begin_batch`` holds a lock) because they share one cancel event.
    """

    def __init__(self, n_workers: Optional[int] = None):
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if multiprocessing.current_process().daemon:
            raise RuntimeError("a pool worker cannot start a worker pool of its own")
        self.n_workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
        self._pid = os.getpid()
        self._tasks = multiprocessing.Queue()
        self._results = multiprocessing.Queue()
        self._cancel = multiprocessing.Event()
        #: id of the cells batch in progress (0: none); workers skip the rest.
        #: Lock-free, so a worker killed mid-read cannot wedge the parent.
        self._live_batch = multiprocessing.RawValue("q", 0)
        self._workers = [
            multiprocessing.Process(
                target=_worker_main,
                args=(self._tasks, self._results, self._cancel, self._live_batch),
                daemon=True,
            )
            for _ in range(self.n_workers)
        ]
        for worker in self._workers:
            worker.start()
        self._ids = itertools.count(1)
        #: in-flight request id -> (routed frames, time the request opened)
        self._requests: Dict[int, Tuple[Deque[Tuple[Any, ...]], float]] = {}
        self._router = threading.Condition()
        self._reading = False
        self._last_frame = time.monotonic()
        self._batch_lock = threading.Lock()
        self._batch_id = 0
        self._closed = False
        self._retired = False
        #: lifetime counters (reporting, tests and the benchmark ledger)
        self.jobs_executed = 0
        self.chunks_dispatched = 0
        self.cells_dispatched = 0

    # ------------------------------------------------------------------ #
    # Requests and the one receive path
    # ------------------------------------------------------------------ #
    def _open_request(self) -> int:
        if self._closed:
            raise RuntimeError("the worker pool has been closed")
        request_id = next(self._ids)
        with self._router:
            self._requests[request_id] = (deque(), time.monotonic())
        return request_id

    def _close_request(self, request_id: int) -> None:
        # Frames still in flight for it are dropped by the router on arrival.
        with self._router:
            self._requests.pop(request_id, None)
            last = self._retired and not self._requests
        if last:
            self.close()

    def _receive(self, request_id: int, poll_s: float = _POLL_S) -> Optional[Tuple[Any, ...]]:
        """The next frame of ``request_id``, or ``None`` after an empty poll.

        The calling thread either takes a frame another thread routed to it
        or becomes the one reader of the results queue, routing whatever it
        reads to the request that frame belongs to.
        """
        frames, opened = self._requests[request_id]
        frame = None
        with self._router:
            if self._reading and not frames:
                self._router.wait(poll_s)  # the reader notifies after every frame
            reader = not frames and not self._reading
            if reader:
                self._reading = True
            elif frames:
                frame = frames.popleft()
        if reader:
            try:
                frame = self._results.get(timeout=poll_s)
            except (_queue.Empty, OSError, ValueError, EOFError):  # empty, or closed under us
                pass
            finally:
                with self._router:
                    self._reading = False
                    if frame is not None:
                        self._last_frame = time.monotonic()
                        if frame[1] != request_id:
                            owner = self._requests.get(frame[1])
                            if owner is not None:
                                owner[0].append(frame)
                            frame = None
                    self._router.notify_all()
        if frame is None:
            self._check_alive(opened)
        return frame

    def _check_alive(self, opened: float) -> None:
        """Raise ``RuntimeError`` unless the pool can still answer a request."""
        if self._closed:
            raise RuntimeError("the worker pool has been closed")
        if not all(worker.is_alive() for worker in self._workers):
            self._reap()
            raise RuntimeError("a worker process died; the pool has been torn down")
        if time.monotonic() - max(opened, self._last_frame) >= _FRAME_TIMEOUT_S:
            self._reap()
            raise RuntimeError(f"the worker pool produced no frame for {_FRAME_TIMEOUT_S:.0f}s")

    def _collect(self, request_id: int, count: int) -> List[Tuple[Any, ...]]:
        """Payloads of the ``count`` job frames of ``request_id``, in task order."""
        outcomes: List[Any] = [None] * count
        for _ in range(count):
            frame = None
            while frame is None:
                frame = self._receive(request_id)
            _, _, position, status, payload = frame
            if status != "ok":
                raise RuntimeError(f"worker job failed: {payload}")
            outcomes[position] = payload
        with self._router:  # callers on other threads count too
            self.jobs_executed += count
        return outcomes

    # ------------------------------------------------------------------ #
    # eval / search
    # ------------------------------------------------------------------ #
    def evaluate_candidates(
        self,
        state: GameState,
        evaluations: Sequence[Tuple[int, Move, SeedSequence]],
        level: int,
    ) -> List[Tuple[int, float, Tuple[Move, ...], float]]:
        """Evaluate candidate moves of ``state`` at ``level`` on the workers.

        ``evaluations`` are ``(candidate_index, move, child_seeds)`` triples
        (the shape produced by
        :func:`repro.core.nested.candidate_evaluations`); the result is
        ``(candidate_index, score, sequence, work_units)`` in input order.
        The position is encoded **once** and shared by every candidate's
        task; per-candidate tasks (rather than per-worker chunks) keep the
        load balanced when playout costs vary wildly.
        """
        request_id = self._open_request()
        try:
            blob = state.encode()
            for position, (_, move, child_seeds) in enumerate(evaluations):
                self._tasks.put((
                    "eval", request_id, position, blob, _plain(move), level,
                    child_seeds.master_seed, child_seeds.path,
                ))
            outcomes = self._collect(request_id, len(evaluations))
        finally:
            self._close_request(request_id)
        return [(index, *outcome) for (index, _, _), outcome in zip(evaluations, outcomes)]

    def run_search(
        self, state: GameState, level: int, seeds: SeedSequence
    ) -> Tuple[float, Tuple[Move, ...], float]:
        """Run one full client job — a level-``level`` search from ``state`` —
        on a worker, returning ``(score, sequence, work_units)``.

        This is the unit shape of :class:`repro.parallel.jobs.JobExecutor`,
        so the simulated cluster's real work can be executed out-of-process
        through the same wire protocol (see
        :class:`repro.parallel.jobs.PooledJobExecutor`).
        """
        request_id = self._open_request()
        try:
            self._tasks.put((
                "search", request_id, 0, state.encode(), None, level,
                seeds.master_seed, seeds.path,
            ))
            (outcome,) = self._collect(request_id, 1)
        finally:
            self._close_request(request_id)
        return outcome

    # ------------------------------------------------------------------ #
    # cells batches
    # ------------------------------------------------------------------ #
    def begin_batch(self) -> int:
        """Claim the pool for one cells batch; returns the batch id.

        Blocks while another batch runs.  Always pair with ``end_batch`` in
        a ``finally`` — the pool stays claimed (and every other batch
        blocked) otherwise.
        """
        self._batch_lock.acquire()
        try:
            self._batch_id = self._open_request()
        except RuntimeError:
            self._batch_lock.release()
            raise
        self._cancel.clear()
        self._live_batch.value = self._batch_id
        return self._batch_id

    def end_batch(self) -> None:
        """Release the pool for the next batch; cells of this one still
        queued (an abandoned stream) answer ``skip`` instead of running."""
        self._live_batch.value = 0
        self._close_request(self._batch_id)
        self._batch_lock.release()

    def submit_chunk(
        self,
        batch_id: int,
        cells: Sequence[Tuple[int, Dict[str, Any]]],
        obs_enabled: bool,
        network: Any = None,
    ) -> None:
        """Enqueue one task of ``(cell_index, spec_dict)`` pairs."""
        if self._closed:
            raise RuntimeError("the worker pool has been closed")
        self._tasks.put(("cells", batch_id, list(cells), obs_enabled, network))
        self.chunks_dispatched += 1
        self.cells_dispatched += len(cells)

    def cancel_batch(self) -> None:
        """Ask workers to skip cells not yet started (idempotent)."""
        self._cancel.set()

    def next_frame(self, batch_id: int, poll_s: float = _POLL_S) -> Optional[Tuple[Any, ...]]:
        """The next frame of ``batch_id``, or ``None`` on a poll tick.

        Frames are ``("cell", batch, index, status, payload)`` per cell and
        ``("chunk", batch, obs_snapshot)`` per chunk.  Returning ``None``
        (rather than blocking) lets the caller re-check its cancel flag
        between frames.  Raises ``RuntimeError`` when a worker died, the
        pool was closed, or no frame arrived for :data:`_FRAME_TIMEOUT_S`.
        """
        return self._receive(batch_id, poll_s)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        """True while the pool is open and every worker process lives."""
        return not self._closed and all(w.is_alive() for w in self._workers)

    def _reap(self) -> None:
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        self.close()

    def _retire(self) -> None:
        """Close now if no request is open, else once the last one closes."""
        with self._router:
            self._retired = True
            idle = not self._requests
        if idle:
            self.close()

    def close(self) -> None:
        """Shut the workers down (idempotent; a no-op in a forked child)."""
        if os.getpid() != self._pid:  # a copy inherited by a fork
            return
        with self._router:
            if self._closed:
                return
            self._closed = True
        self._cancel.set()
        for _ in self._workers:
            try:
                self._tasks.put(None)
            except (OSError, ValueError):  # pragma: no cover - defensive
                break
        for worker in self._workers:
            worker.join(timeout=5.0)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
                worker.join(timeout=1.0)
        # Tasks no worker will read must not block interpreter exit.
        self._tasks.cancel_join_thread()
        self._tasks.close()
        self._results.close()

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - defensive
        try:
            self.close()
        except Exception:
            pass


_SHARED: Optional[PersistentWorkerPool] = None
_SHARED_LOCK = threading.Lock()


def _current(n_workers: Optional[int]) -> PersistentWorkerPool:
    """The shared pool of ``n_workers`` workers; call with ``_SHARED_LOCK`` held."""
    global _SHARED
    wanted = n_workers if n_workers is not None else (os.cpu_count() or 1)
    if _SHARED is None or not _SHARED.alive or _SHARED.n_workers != wanted:
        if _SHARED is not None:
            _SHARED._retire()  # its open requests finish on it first
        _SHARED = PersistentWorkerPool(n_workers=wanted)
    return _SHARED


def shared_pool(n_workers: Optional[int] = None) -> PersistentWorkerPool:
    """The process-wide pool, (re)created on size change or death.

    Every caller that does not manage its own pool — sweeps, multiprocessing
    searches, pooled job executors — shares these workers, so repeated calls
    pay the process spawn cost once.  A pool replaced by a size change closes
    once its last open request ends, so callers of different sizes never
    break each other's requests; hold :func:`leased_pool` across several
    requests.
    """
    with _SHARED_LOCK:
        return _current(n_workers)


@contextlib.contextmanager
def leased_pool(n_workers: Optional[int] = None) -> Iterator[PersistentWorkerPool]:
    """:func:`shared_pool`, kept open until the block exits.

    The lease is taken in the same step as the lookup, so a caller of
    another size cannot close the pool between this caller's requests.
    """
    with _SHARED_LOCK:
        pool = _current(n_workers)
        lease = pool._open_request()
    try:
        yield pool
    finally:
        pool._close_request(lease)


def close_shared_pool() -> None:
    """Tear down the process-wide pool (also registered at interpreter exit)."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is not None:
            _SHARED.close()
            _SHARED = None


atexit.register(close_shared_pool)
