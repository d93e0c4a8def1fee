"""Sweep-cell helpers for the shared worker pool.

Cells of ``Engine.stream(..., executor="process")`` / ``repro sweep
--processes N`` run as ``cells`` tasks on the one persistent worker pool,
:class:`repro.parallel.pool.PersistentWorkerPool`, the same workers that
evaluate the candidates of ``backend="multiprocessing"`` searches.  This
module keeps the sweep-side names of that pool as plain aliases, the default
chunk size and the error type of a failed remote cell.
"""

from __future__ import annotations

from repro.parallel.pool import PersistentWorkerPool, close_shared_pool, shared_pool

__all__ = [
    "SweepWorkerPool",
    "RemoteCellError",
    "auto_chunk_size",
    "shared_sweep_pool",
    "close_shared_sweep_pool",
]

SweepWorkerPool = PersistentWorkerPool
shared_sweep_pool = shared_pool
close_shared_sweep_pool = close_shared_pool

#: Upper bound on the auto-chosen chunk size: past this, a straggler chunk
#: can idle the rest of the pool for no further IPC savings.
_MAX_AUTO_CHUNK = 16


class RemoteCellError(RuntimeError):
    """A cell raised inside a worker process.

    The original exception has no faithful cross-process form, so the parent
    re-raises this carrying the rendered ``"TypeName: message"`` — the same
    lossy-but-honest convention as :meth:`repro.api.RunEvent.to_dict`.
    """


def auto_chunk_size(n_cells: int, n_workers: int) -> int:
    """The default cells-per-task for a batch of ``n_cells``.

    Aims for ~4 chunks per worker so stragglers rebalance, clamped to
    [1, 16]: one-cell chunks when the batch is small (latency over
    amortisation), bounded chunks when it is huge (amortisation without
    head-of-line blocking).
    """
    if n_cells <= 0 or n_workers <= 0:
        raise ValueError("n_cells and n_workers must be positive")
    return max(1, min(_MAX_AUTO_CHUNK, n_cells // (n_workers * 4)))
