"""Thread-based parallel NMCS — the GIL ablation.

This executor is intentionally *not* the recommended way to parallelise the
search: CPython's global interpreter lock serialises pure-Python compute, so
a thread pool gives essentially no speedup for NMCS playouts.  It exists so
that the ablation benchmark can measure that limitation directly — it is the
reason the cluster-scale experiments of this reproduction run on a simulated
cluster (see docs/SIMULATOR.md) and the local real-parallel path uses
processes (:mod:`repro.parallel.multiproc`).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.nested import candidate_evaluations, evaluate_move
from repro.core.result import BestTracker, SearchResult
from repro.games.base import GameState, Move
from repro.prng import SeedSequence

__all__ = ["ThreadedResult", "threaded_nmcs"]


@dataclass
class ThreadedResult:
    """Result of a thread-pool run, with wall-clock timing."""

    result: SearchResult
    wall_seconds: float
    n_workers: int
    n_evaluations: int

    @property
    def score(self) -> float:
        return self.result.score


def threaded_nmcs(
    state: GameState,
    level: int,
    master_seed: int = 0,
    n_workers: int = 4,
    max_steps: Optional[int] = None,
    seed_label: str = "nmcs",
) -> ThreadedResult:
    """Root-level parallel NMCS on a thread pool (GIL-bound, see module docstring)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    seeds = SeedSequence(master_seed, seed_label)
    start = time.perf_counter()
    n_evaluations = 0

    position = state.copy()
    best = BestTracker()
    played: List[Move] = []
    step = 0
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        while True:
            evaluations = candidate_evaluations(position, level, step, seeds)
            if not evaluations:
                break
            futures = [
                pool.submit(evaluate_move, position, move, level - 1, child_seeds)
                for _, move, child_seeds in evaluations
            ]
            n_evaluations += len(futures)
            for future in futures:
                result = future.result()
                best.offer(result.score, tuple(played) + tuple(result.sequence))
            chosen = best.moves[len(played)]
            position.apply(chosen)
            played.append(chosen)
            step += 1
            if max_steps is not None and step >= max_steps:
                break

    if best.has_sequence():
        score, moves = best.best()
    else:
        score, moves = state.score(), ()
    wall = time.perf_counter() - start
    return ThreadedResult(
        result=SearchResult(score=score, sequence=tuple(moves), level=level),
        wall_seconds=wall,
        n_workers=n_workers,
        n_evaluations=n_evaluations,
    )
