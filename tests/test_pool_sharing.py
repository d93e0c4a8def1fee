"""The one worker pool under concurrent callers and dying workers.

Sweep cells, candidate evaluations and client searches share the workers of
``repro.parallel.pool.shared_pool``.  Every frame is routed to the request it
answers, so concurrent callers get their own results; a worker killed
mid-request makes the call raise ``RuntimeError`` within seconds instead of
hanging, and the next ``shared_pool()`` call starts a fresh pool.  Callers
asking for different pool sizes at once do not break each other's requests,
a worker never blocks on a pool of its own, and the queued cells of an
abandoned stream never run.

These tests enforce their own deadlines: each blocking call runs in a thread
that is joined with a timeout, so a hang fails the test instead of the run.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.parallel.pool as pool_module
from repro.api import ALGORITHMS, Engine, SearchSpec, register_algorithm
from repro.core.nested import candidate_evaluations, evaluate_move
from repro.core.sample import sample
from repro.parallel.jobs import DirectJobExecutor
from repro.parallel.pool import close_shared_pool, shared_pool
from repro.prng import SeedSequence
from repro.workloads import get_workload


def _in_thread(fn):
    """Start ``fn`` in a daemon thread; returns the thread and its outcome dict."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # handed to the asserting thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, outcome


def _candidates(game, seed):
    state = get_workload(game).state()
    return state, candidate_evaluations(state, 1, 0, SeedSequence(seed, "nmcs"))


def _mixed_requests(pool, game, seed):
    """A multiprocessing search, a candidate batch, a client job and a cells batch.

    Cell reports come home as dicts, which render moves as strings.
    """
    spec = SearchSpec(workload=game, level=2, max_steps=1, seed=seed)
    fanned = Engine().run(spec.replace(backend="multiprocessing", n_workers=2))
    state, evaluations = _candidates(game, seed)
    evaluated = pool.evaluate_candidates(state, evaluations, 0)
    searched = pool.run_search(state, 1, SeedSequence(seed, "job"))
    cells = Engine().run_many(
        [spec.replace(seed=seed + k) for k in range(3)],
        executor="process",
        max_workers=2,
        chunk_size=1,
    )
    return (
        (fanned.score, tuple(fanned.sequence)),
        evaluated,
        searched,
        [(r.score, tuple(map(str, r.sequence)), r.work_units) for r in cells],
    )


def _serial_evaluations(game, seed):
    state, evaluations = _candidates(game, seed)
    evaluated = []
    for index, move, child_seeds in evaluations:
        result = evaluate_move(state, move, 0, child_seeds)
        evaluated.append(
            (index, result.score, tuple(result.sequence), float(result.work.moves))
        )
    return evaluated


def _serial(game, seed):
    spec = SearchSpec(workload=game, level=2, max_steps=1, seed=seed)
    engine = Engine()
    direct = engine.run(spec)
    state, _ = _candidates(game, seed)
    evaluated = _serial_evaluations(game, seed)
    job = DirectJobExecutor().execute(state, 1, SeedSequence(seed, "job"))
    cells = [engine.run(spec.replace(seed=seed + k)) for k in range(3)]
    return (
        (direct.score, tuple(direct.sequence)),
        evaluated,
        (job.score, tuple(job.sequence), job.work_units),
        [(r.score, tuple(map(str, r.sequence)), r.work_units) for r in cells],
    )


class TestConcurrentCallers:
    def test_two_threads_mixing_requests_get_serial_results(self):
        close_shared_pool()
        pool = shared_pool(2)
        try:
            games = (("samegame", 1), ("tsp", 2))
            barrier = threading.Barrier(len(games))

            def caller(game, seed):
                barrier.wait(timeout=10.0)
                return [_mixed_requests(pool, game, seed) for _ in range(2)]

            runs = [(_in_thread(lambda g=g, s=s: caller(g, s)), g, s) for g, s in games]
            for (thread, _), _, _ in runs:
                thread.join(timeout=120.0)
            for (thread, outcome), game, seed in runs:
                assert not thread.is_alive(), f"{game} caller hung"
                assert "error" not in outcome, outcome.get("error")
                expected = _serial(game, seed)
                assert outcome["value"] == [expected, expected]

            # No stale frame is left behind: a lone call on the same pool works.
            assert shared_pool(2) is pool and pool.alive
            state, evaluations = _candidates("samegame", 1)
            assert pool.evaluate_candidates(state, evaluations, 0) == _serial_evaluations(
                "samegame", 1
            )
        finally:
            close_shared_pool()

    def test_stress_many_threads_small_requests(self):
        """More callers than cores, switching threads as often as possible:
        every request gets its own frames and no job count is lost."""
        close_shared_pool()
        pool = shared_pool(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            games = ("leftmove", "tsp", "samegame", "sop", "leftmove", "tsp")
            expected = {game: _serial_evaluations(game, 3) for game in set(games)}
            before = pool.jobs_executed
            rounds = 40

            def caller(game):
                state, evaluations = _candidates(game, 3)
                return [pool.evaluate_candidates(state, evaluations, 0) for _ in range(rounds)]

            runs = [(_in_thread(lambda g=g: caller(g)), g) for g in games]
            for (thread, _), _ in runs:
                thread.join(timeout=120.0)
            for (thread, outcome), game in runs:
                assert not thread.is_alive(), f"{game} caller hung"
                assert "error" not in outcome, outcome.get("error")
                assert outcome["value"] == [expected[game]] * rounds
            total = sum(len(expected[game]) for game in games) * rounds
            assert pool.jobs_executed - before == total
        finally:
            sys.setswitchinterval(interval)
            close_shared_pool()


class TestDeadWorker:
    @pytest.mark.parametrize("request_kind", ["run_search", "evaluate_candidates"])
    def test_sigkill_mid_request_raises_then_pool_is_recreated(self, request_kind):
        close_shared_pool()
        pool = shared_pool(1)
        try:
            state = get_workload("samegame").state()
            seeds = SeedSequence(1, "nmcs")
            if request_kind == "run_search":
                call = lambda: pool.run_search(state, 3, seeds)  # ~20 s of work
            else:
                evaluations = candidate_evaluations(state, 3, 0, seeds)
                call = lambda: pool.evaluate_candidates(state, evaluations, 2)
            thread, outcome = _in_thread(call)
            time.sleep(0.5)
            assert thread.is_alive(), "the request finished before the kill"
            os.kill(pool._workers[0].pid, signal.SIGKILL)
            killed = time.monotonic()
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "the call hung on a dead worker"
            assert time.monotonic() - killed < 5.0
            assert isinstance(outcome.get("error"), RuntimeError), outcome
            assert not pool.alive

            fresh = shared_pool(1)
            assert fresh is not pool and fresh.alive
            small = get_workload("leftmove").state()
            job = DirectJobExecutor().execute(small, 1, SeedSequence(2, "job"))
            assert fresh.run_search(small, 1, SeedSequence(2, "job")) == (
                job.score,
                tuple(job.sequence),
                job.work_units,
            )
        finally:
            close_shared_pool()


class TestSizesAndNesting:
    def test_cells_batch_and_search_of_another_size_run_side_by_side(self):
        """A 2-worker sweep and 1-worker searches at once: neither closes the
        other's pool mid-request, and the replaced pool closes afterwards."""
        close_shared_pool()
        before = set(multiprocessing.active_children())
        try:
            cells = [SearchSpec(workload="tsp", level=2, max_steps=1, seed=s) for s in range(4)]
            search = SearchSpec(
                workload="samegame", level=2, max_steps=2, seed=1,
                backend="multiprocessing", n_workers=1,
            )
            barrier = threading.Barrier(2)
            sweep_done = threading.Event()

            def sweep():
                barrier.wait(timeout=10.0)
                try:
                    reports = Engine().run_many(
                        cells, executor="process", max_workers=2, chunk_size=1
                    )
                finally:
                    sweep_done.set()
                return [(r.score, tuple(map(str, r.sequence))) for r in reports]

            def searches():
                barrier.wait(timeout=10.0)
                scores = [Engine().run(search).score]
                while not sweep_done.is_set():
                    scores.append(Engine().run(search).score)
                return scores

            runs = [_in_thread(sweep), _in_thread(searches)]
            for thread, _ in runs:
                thread.join(timeout=120.0)
            for thread, outcome in runs:
                assert not thread.is_alive(), "a caller hung"
                assert "error" not in outcome, outcome.get("error")
            engine = Engine()
            assert runs[0][1]["value"] == [
                (r.score, tuple(map(str, r.sequence))) for r in map(engine.run, cells)
            ]
            serial = engine.run(search.replace(backend="sequential", n_workers=None)).score
            assert runs[1][1]["value"] == [serial] * len(runs[1][1]["value"])
            # The replaced pool closed once its last request ended.
            current = pool_module._SHARED
            assert set(multiprocessing.active_children()) - before == set(current._workers)
        finally:
            close_shared_pool()

    def test_multiprocessing_cell_in_a_worker_fails_fast(self):
        """A worker cannot fork a pool of its own: the cell comes back as an
        error frame within seconds and the worker keeps serving cells."""
        close_shared_pool()
        try:
            nested = SearchSpec(
                workload="leftmove", level=1, backend="multiprocessing", n_workers=1
            )
            plain = SearchSpec(workload="leftmove", level=1, seed=4)

            def run():
                engine = Engine()
                events = list(
                    engine.stream(
                        [nested], executor="process", max_workers=1, error_policy="skip"
                    )
                )
                return events, engine.run_many([plain], executor="process", max_workers=1)

            thread, outcome = _in_thread(run)
            thread.join(timeout=10.0)
            assert not thread.is_alive(), "a worker blocked on a pool of its own"
            assert "error" not in outcome, outcome.get("error")
            events, (report,) = outcome["value"]
            (failed,) = [event for event in events if event.kind == "failed"]
            assert "worker pool" in str(failed.error)
            assert report.score == Engine().run(plain).score
        finally:
            close_shared_pool()


def _register_logged_gate_algorithm():
    @register_algorithm(
        "logged-gate",
        description="test-only: records its start, then waits for its gate file",
        params=("dir", "tag"),
    )
    def _logged_gate(state, level, seeds, counter, budget, params):
        folder = Path(params["dir"])
        (folder / f"start-{params['tag']}").touch()
        while not (folder / f"gate-{params['tag']}").exists():
            time.sleep(0.005)
        return sample(state, seeds=seeds, counter=counter)


class TestAbandonedStream:
    def test_queued_cells_of_an_abandoned_stream_never_run(self, tmp_path):
        """Cells still queued when a stream is abandoned answer skip even
        after the next batch has begun, so they cannot delay other callers."""
        close_shared_pool()  # the next pool forks after the registration below
        _register_logged_gate_algorithm()
        try:
            specs = [
                SearchSpec(
                    workload="leftmove", algorithm="logged-gate", seed=s,
                    params={"dir": str(tmp_path), "tag": str(s)},
                )
                for s in range(4)
            ]
            (tmp_path / "gate-0").touch()
            engine = Engine()
            stream = engine.stream(
                specs, executor="process", max_workers=1, chunk_size=1, error_policy="skip"
            )
            for event in stream:
                if event.kind == "completed":
                    break
            deadline = time.monotonic() + 10.0
            while not (tmp_path / "start-1").exists():  # cell 1 is in flight
                assert time.monotonic() < deadline, "cell 1 never started"
                time.sleep(0.005)
            stream.close()
            pool = shared_pool(1)

            def open_gates_once_the_next_batch_began():
                while pool._cancel.is_set():  # begin_batch clears it
                    time.sleep(0.005)
                for s in range(4):
                    (tmp_path / f"gate-{s}").touch()

            opener, _ = _in_thread(open_gates_once_the_next_batch_began)
            plain = SearchSpec(workload="leftmove", level=1, seed=9)
            runner, outcome = _in_thread(
                lambda: engine.run_many([plain], executor="process", max_workers=1)
            )
            runner.join(timeout=30.0)
            opener.join(timeout=5.0)
            assert not runner.is_alive() and not opener.is_alive()
            assert "error" not in outcome, outcome.get("error")
            assert outcome["value"][0].score == engine.run(plain).score
            started = sorted(path.name for path in tmp_path.glob("start-*"))
            assert started == ["start-0", "start-1"]
        finally:
            del ALGORITHMS["logged-gate"]
            close_shared_pool()  # drop workers carrying the registration
