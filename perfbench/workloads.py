"""The four benchmark workloads: set-up, one timed pass, and correctness gates.

Each workload builds its inputs from the workload seed only; the program
sees nothing but the :class:`~repro.api.SearchSpec` documents generated here.
A run repeats *set-up, timed pass(es), teardown* until enough passes are
measured, so every pass starts from the same state and set-up is sampled
many times.  The gates run after the timed passes, outside the timed region.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import Engine, ResultStore, SearchSpec, SweepSpec
from repro.experiments import calibrated_cost_model
from repro.parallel.jobs import CachingJobExecutor

from perfbench.tracing import Tracer

__all__ = ["Size", "SIZES", "PassResult", "Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Size:
    """How much work one pass of each workload does."""

    #: paper-*: a level x clients x dispatcher first-move grid on one game.
    paper_game: str
    paper_levels: Tuple[int, ...]
    paper_clients: Tuple[int, ...]
    #: service-mix: requests per pass and distinct specs stored during set-up.
    service_requests: int
    service_stored: int
    #: local-pools: games of the level-2 grid and seeds per game.
    pool_games: Tuple[str, ...]
    pool_seeds: int
    #: fewest passes a run measures (per kind, traced and untraced), in place
    #: of each workload's own ``min_passes``; None keeps the workload's.
    min_passes: Optional[int]


SIZES = {
    # tsp keeps every pass the same amount of search whatever the seed (tours
    # have a fixed length) and a level-3 search costs ~5 s, so a cold pass is
    # mostly search yet fits the run budget; morpion-small's level-3 search
    # alone takes ~26 s.
    "full": Size("tsp", (2, 3), (1, 8, 64), 400, 24,
                 ("samegame", "tsp", "weakschur", "morpion-bench"), 2, None),
    "tiny": Size("sop", (2,), (8, 64), 20, 4, ("tsp", "weakschur"), 1, 1),
}

DISPATCHERS = ("rr", "lm")


def same_moves(got: Tuple[Any, ...], want: Tuple[Any, ...]) -> bool:
    """Whether two move sequences are the same.

    Process-pool, store and service reports carry moves rendered the way
    ``RunReport.to_dict`` renders them; those compare in that wire form.
    Live moves compare by value: the multiprocessing backend returns plain
    tuples, equal to the game's move objects but rendered differently.
    """
    if any(isinstance(m, str) for m in got):
        want = tuple(m if isinstance(m, str) else repr(m) for m in want)
    return tuple(got) == tuple(want)


@dataclass
class PassResult:
    """What one timed pass produced."""

    seconds: float
    ops: int
    #: ops that raised, were rejected, or returned nothing
    failed: int
    #: compact outputs for the gates: (key, score, moves, simulated seconds)
    outputs: List[Tuple[Any, ...]]
    #: counts that must repeat exactly for the same code and seed
    ledger: Dict[str, float]
    #: public-field readings the per-layer metrics are built from
    facts: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """One workload; subclasses fill in set-up, the pass and the gates."""

    name = ""
    #: passes measured on one set-up (only when a pass leaves set-up state intact)
    passes_per_setup = 1
    #: set-ups a run samples; cheap set-ups are sampled more, without passes
    min_setups = 3
    #: fewest passes a run measures, of each kind (traced and untraced)
    min_passes = 3
    #: the host reference (see hostref.py) shaped like the pass's bottleneck;
    #: set-ups are scaled by the compute reference
    reference = "compute"
    #: CPUs a pass keeps busy: the host reference runs this many copies at once
    ref_copies = 1

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{label}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self) -> Dict[str, Any]:
        raise NotImplementedError

    def run_pass(self, ctx: Dict[str, Any], tracer: Optional[Tracer]) -> PassResult:
        raise NotImplementedError

    def teardown(self, ctx: Dict[str, Any]) -> None:
        store = ctx.get("store")
        if store is not None:
            shutil.rmtree(store.root, ignore_errors=True)

    def check(self, passes: List[PassResult]) -> List[str]:
        """Gate failures (one message each); an empty list means correct."""
        raise NotImplementedError


def _on_event(tracer: Optional[Tracer]) -> Optional[Callable[[Any], None]]:
    """An ``on_event`` callback that tags spans with the running cell."""
    if tracer is None:
        return None

    def on_event(event: Any) -> None:
        if event.kind == "started":
            tracer.op = event.index

    return on_event


def _sim_facts(reports: List[Any]) -> Dict[str, Any]:
    """Simulator and communication counts read from sim-cluster reports."""
    facts = {"jobs": 0, "messages": 0, "events_fired": 0, "events_scheduled": 0,
             "events_cancelled": 0, "peak_queue": 0, "simulated_seconds": 0.0}
    for report in reports:
        stats = report.kernel_stats or {}
        facts["jobs"] += report.n_jobs or 0
        facts["messages"] += sum((report.comm or {}).values())
        facts["events_fired"] += stats.get("events_fired", 0)
        facts["events_scheduled"] += stats.get("events_scheduled", 0)
        facts["events_cancelled"] += stats.get("events_cancelled", 0)
        facts["peak_queue"] = max(facts["peak_queue"], stats.get("peak_queue_size", 0))
        facts["simulated_seconds"] += report.simulated_seconds or 0.0
    return facts


def _compare(label: str, got: Tuple[Any, Any], want: Tuple[Any, Any]) -> Optional[str]:
    """``got`` and ``want`` are (score, moves) pairs."""
    if got[0] != want[0] or not same_moves(got[1], want[1]):
        return f"{label}: got score {got[0]} moves {got[1]}, expected {want[0]} {want[1]}"
    return None


def _drift(passes: List[PassResult]) -> List[str]:
    """Passes of one run start from the same state, so their outputs and
    exact counts must agree; a difference is a determinism bug."""
    problems = []
    for i, result in enumerate(passes[1:], start=1):
        if result.ledger != passes[0].ledger:
            problems.append(f"ledger drift between pass 0 and pass {i}: "
                            f"{passes[0].ledger} != {result.ledger}")
        if result.outputs != passes[0].outputs:
            problems.append(f"outputs differ between pass 0 and pass {i}")
    return problems


# --------------------------------------------------------------------------- #
# paper-cold / paper-warm
# --------------------------------------------------------------------------- #
class _PaperSweep(Workload):
    """The Tables II + IV first-move client sweep on the simulated cluster."""

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.sweep = SweepSpec(
            base=SearchSpec(workload=size.paper_game, backend="sim-cluster",
                            max_steps=1, seed=seed),
            axes={"level": size.paper_levels, "n_clients": size.paper_clients,
                  "dispatcher": DISPATCHERS},
            name=self.name,
        )
        self.cost_models: List[Any] = []
        self.last_ctx: Dict[str, Any] = {}

    def _engine(self) -> Dict[str, Any]:
        # Calibrated on the grid's lower level: that level stands in for the
        # paper's level 3, whose first move the calibration pins in time.
        cost_model = calibrated_cost_model(self.size.paper_game, master_seed=self.seed,
                                           level=min(self.size.paper_levels))
        self.cost_models.append(cost_model)
        executor = CachingJobExecutor()
        return {"executor": executor, "engine": Engine(executor=executor, cost_model=cost_model)}

    def _pass(self, ctx: Dict[str, Any], tracer: Optional[Tracer],
              store: Optional[ResultStore]) -> PassResult:
        executor: CachingJobExecutor = ctx["executor"]
        hits0, misses0 = executor.hits, executor.misses
        work0 = executor.inner.total_work_units
        t0 = time.perf_counter()
        reports = ctx["engine"].run_many(self.sweep, store=store, on_event=_on_event(tracer),
                                         error_policy="skip")
        seconds = time.perf_counter() - t0
        facts = _sim_facts(reports)
        facts["job_cache_hits"] = executor.hits - hits0
        facts["job_cache_misses"] = executor.misses - misses0
        outputs = [
            ((r.level, r.spec.n_clients, r.spec.dispatcher), r.score, tuple(r.sequence),
             r.simulated_seconds)
            for r in reports
        ]
        ledger = {
            "cluster.events_fired": facts["events_fired"],
            "parallel.job_cache_misses": facts["job_cache_misses"],
            "parallel.messages": facts["messages"],
            "core.work_units": executor.inner.total_work_units - work0,
            "lab.store_puts": len(store) if store is not None else 0,
        }
        n_cells = len(self.sweep)
        return PassResult(seconds, n_cells, n_cells - len(reports), outputs, ledger, facts)

    def _references(self) -> Dict[int, Any]:
        """The sequential backend's first move at each level (same seed, same cost model)."""
        engine = Engine(cost_model=self.cost_models[-1])
        return {
            level: engine.run(SearchSpec(workload=self.size.paper_game, level=level,
                                         seed=self.seed, max_steps=1))
            for level in self.size.paper_levels
        }

    def _check_outputs(self, outputs: List[Tuple[Any, ...]], refs: Dict[int, Any],
                       label: str) -> List[str]:
        problems = []
        for key, score, moves, _ in outputs:
            ref = refs[key[0]]
            problem = _compare(f"{label} cell {key}", (score, moves),
                               (ref.score, tuple(ref.sequence)))
            if problem:
                problems.append(problem)
        return problems

    def _check_speedup(self, outputs: List[Tuple[Any, ...]], refs: Dict[int, Any]) -> List[str]:
        """Simulated speedup at 64 clients is above 10x and above the 8-client one."""
        sim = {key: seconds for key, _, _, seconds in outputs}
        problems = []
        for level in self.size.paper_levels:
            for dispatcher in DISPATCHERS:
                if (level, 64, dispatcher) not in sim or (level, 8, dispatcher) not in sim:
                    continue
                base = refs[level].simulated_seconds
                s64 = base / sim[(level, 64, dispatcher)]
                s8 = base / sim[(level, 8, dispatcher)]
                if not (s64 > 10.0 and s64 > s8):
                    problems.append(f"speedup level {level} {dispatcher}: 64 clients "
                                    f"{s64:.2f}x, 8 clients {s8:.2f}x")
        return problems

    def _check_common(self, passes: List[PassResult], cold: List[Tuple[Any, ...]],
                      warm: List[Tuple[Any, ...]]) -> List[str]:
        problems = _drift(passes)
        if len({cm.units_per_ghz_per_second for cm in self.cost_models}) != 1:
            problems.append("calibration differs between set-ups")
        refs = self._references()
        for i, result in enumerate(passes):
            problems += self._check_outputs(result.outputs, refs, f"pass {i}")
        problems += self._check_speedup(passes[0].outputs, refs)
        warm_sim = {key: seconds for key, _, _, seconds in warm}
        for key, _, _, seconds in cold:
            if key in warm_sim and warm_sim[key] != seconds:
                problems.append(f"cell {key}: cold simulated_seconds {seconds} "
                                f"!= warm {warm_sim[key]}")
        return problems


class PaperCold(_PaperSweep):
    """The sweep from an empty job cache and an empty store, every pass."""

    name = "paper-cold"
    # Its passes are the longest, so a run holds the fewest of them; on a
    # busy host one more pass narrows the run-to-run spread.
    min_passes = 4

    def setup(self) -> Dict[str, Any]:
        ctx = self._engine()
        ctx["store"] = ResultStore(self.fresh_dir("cold-store"))
        return ctx

    def run_pass(self, ctx: Dict[str, Any], tracer: Optional[Tracer]) -> PassResult:
        result = self._pass(ctx, tracer, ctx["store"])
        self.last_ctx = ctx
        return result

    def check(self, passes: List[PassResult]) -> List[str]:
        # The last pass left its job cache full: replaying the grid on it
        # (no store) gives the warm timings to compare with the cold ones.
        warm = self._pass(self.last_ctx, None, None)
        problems = []
        if warm.facts["job_cache_misses"]:
            problems.append(f"warm replay ran {warm.facts['job_cache_misses']} searches")
        lost = {o[0] for o in passes[0].outputs} - {o[0] for o in warm.outputs}
        if warm.failed or lost:
            problems.append(f"warm replay failed {warm.failed} cells; cells missing: {sorted(lost)}")
        return problems + self._check_common(passes, passes[0].outputs, warm.outputs)


class PaperWarm(_PaperSweep):
    """The sweep on a job cache filled during set-up, with no store attached."""

    name = "paper-warm"
    # A warm pass only reads the job cache, so set-up state survives it.
    passes_per_setup = 2

    def setup(self) -> Dict[str, Any]:
        ctx = self._engine()
        # Jobs depend on the game, level and seed only, not on the cluster or
        # dispatcher, so one cell per level fills the cache for the grid.
        fill = []
        cells = list(self.sweep.cells())
        for level in self.size.paper_levels:
            spec = next(c.spec for c in cells if c.spec.level == level)
            report = ctx["engine"].run(spec)
            fill.append(((report.level, spec.n_clients, spec.dispatcher), report.score,
                         tuple(report.sequence), report.simulated_seconds))
        ctx["fill"] = fill
        self.last_ctx = ctx
        return ctx

    def run_pass(self, ctx: Dict[str, Any], tracer: Optional[Tracer]) -> PassResult:
        return self._pass(ctx, tracer, None)

    def check(self, passes: List[PassResult]) -> List[str]:
        problems = []
        for i, result in enumerate(passes):
            if result.facts["job_cache_misses"]:
                problems.append(f"pass {i} ran {result.facts['job_cache_misses']} searches")
        return problems + self._check_common(passes, self.last_ctx["fill"], passes[0].outputs)


# --------------------------------------------------------------------------- #
# service-mix
# --------------------------------------------------------------------------- #
class ServiceMix(Workload):
    """A seeded mix of cached and fresh single-spec jobs through the job server."""

    name = "service-mix"
    min_setups = 9
    reference = "echo"

    GAMES = ("samegame", "tsp", "sop")

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        rng = random.Random(seed)
        seen = set()

        def spec(i: int) -> SearchSpec:
            while True:
                s = SearchSpec(workload=self.GAMES[i % len(self.GAMES)], level=1,
                               max_steps=1, seed=rng.randrange(2 ** 31))
                if (s.workload, s.seed) not in seen:
                    seen.add((s.workload, s.seed))
                    return s

        self.stored = [spec(i) for i in range(size.service_stored)]
        n_fresh = size.service_requests // 5
        fresh = [spec(i) for i in range(n_fresh)]
        reads = [rng.choice(self.stored) for _ in range(size.service_requests - n_fresh)]
        self.mix = [(s, "queued") for s in fresh] + [(s, "cached") for s in reads]
        rng.shuffle(self.mix)

    def setup(self) -> Dict[str, Any]:
        from repro.service import SearchService, ServiceClient, ServiceServer

        root = self.fresh_dir("service")
        root.mkdir(parents=True)
        store = ResultStore(root / "store")
        engine = Engine()
        engine.run_many(self.stored, store=store)
        service = SearchService(engine, store)
        # A unix socket, not TCP loopback: every job opens two connections,
        # and the TIME_WAIT sockets TCP leaves behind (~800 per pass) slow
        # later connects, so back-to-back runs measured each other's history
        # (1.0 s per pass with an empty TIME_WAIT table, 2.4 s with 19k).
        # The path is relative because unix socket paths are short.
        server = ServiceServer(service, socket_path=os.path.relpath(root / "s.sock"))
        address = server.start()
        return {"dir": root, "store": store, "service": service, "server": server,
                "client": ServiceClient(address)}

    def run_pass(self, ctx: Dict[str, Any], tracer: Optional[Tracer]) -> PassResult:
        from repro.service import ServiceError

        client = ctx["client"]
        outputs: List[Tuple[Any, ...]] = []
        facts: Dict[str, Any] = {"cached_latency_s": [], "fresh_latency_s": [],
                                 "queue_wait_s": [], "exec_s": [], "server_s_by_op": {}}
        failed = 0
        work = 0.0
        start = time.perf_counter()
        for i, (spec, _) in enumerate(self.mix):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                outcome = client.run(spec)
            except (ServiceError, OSError) as exc:
                failed += 1
                outputs.append((i, "error", repr(exc), None))
                continue
            t1 = time.perf_counter()
            status = outcome["submit"]["status"]
            job = outcome["job"]
            if status == "queued":
                facts["fresh_latency_s"].append(t1 - t0)
                facts["queue_wait_s"].append(job["queue_wait_seconds"])
                facts["exec_s"].append(job["wall_seconds"])
                facts["server_s_by_op"][i] = job["queue_wait_seconds"] + job["wall_seconds"]
            else:
                facts["cached_latency_s"].append(t1 - t0)
            if tracer is not None:
                tracer.record("client.job", t0, t1, status=status)
            reports = outcome["reports"]
            if not reports:
                failed += 1
                outputs.append((i, status, None, None))
                continue
            report = reports[0]
            if status == "queued":
                work += report.get("work_units") or 0.0
            outputs.append((i, status, report["score"], tuple(report["sequence"])))
        seconds = time.perf_counter() - start
        stats = ctx["service"].service_stats()
        ledger = {
            "core.work_units": work,
            "lab.store_puts": len(ctx["store"]) - len(self.stored),
            "service.submits_queued": stats["queued"],
            "service.submits_cached": stats["cached"],
            "service.submits_attached": stats["attached"],
            "service.submits_rejected": sum(v for k, v in stats.items()
                                            if k.startswith("rejected_")),
        }
        return PassResult(seconds, len(self.mix), failed, outputs, ledger, facts)

    def teardown(self, ctx: Dict[str, Any]) -> None:
        ctx["server"].stop()
        ctx["service"].shutdown(drain=False)
        shutil.rmtree(ctx["dir"], ignore_errors=True)

    def check(self, passes: List[PassResult]) -> List[str]:
        problems = _drift(passes)
        engine = Engine()
        direct: Dict[SearchSpec, Tuple[Any, Any]] = {}
        for spec, _ in self.mix:
            if spec not in direct:
                report = engine.run(spec)
                direct[spec] = (report.score, tuple(report.sequence))
        for p, result in enumerate(passes):
            for i, status, score, moves in result.outputs:
                spec, expected_status = self.mix[i]
                if status != expected_status:
                    problems.append(f"pass {p} request {i}: {status}, expected {expected_status}")
                    continue
                problem = _compare(f"pass {p} request {i}", (score, moves), direct[spec])
                if problem:
                    problems.append(problem)
        return problems


# --------------------------------------------------------------------------- #
# local-pools
# --------------------------------------------------------------------------- #
class LocalPools(Workload):
    """Independent level-2 cells through both persistent worker-process pools."""

    name = "local-pools"
    min_setups = 9

    N_WORKERS = 2
    ref_copies = N_WORKERS

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        rng = random.Random(seed)
        self.specs = [
            SearchSpec(workload=game, level=2, max_steps=1, seed=rng.randrange(2 ** 31))
            for game in size.pool_games
            for _ in range(size.pool_seeds)
        ]

    def setup(self) -> Dict[str, Any]:
        from repro.lab.procpool import shared_sweep_pool
        from repro.parallel.pool import shared_pool

        return {"sweep_pool": shared_sweep_pool(self.N_WORKERS),
                "pool": shared_pool(self.N_WORKERS)}

    def run_pass(self, ctx: Dict[str, Any], tracer: Optional[Tracer]) -> PassResult:
        sweep_pool = ctx["sweep_pool"]
        cells0 = sweep_pool.cells_dispatched
        t0 = time.perf_counter()
        pooled = Engine().run_many(self.specs, executor="process", max_workers=self.N_WORKERS,
                                   on_event=_on_event(tracer), error_policy="skip")
        fanned = []
        engine = Engine()
        for i, spec in enumerate(self.specs):
            if tracer is not None:
                tracer.op = len(self.specs) + i
            try:
                fanned.append(engine.run(spec.replace(backend="multiprocessing",
                                                      n_workers=self.N_WORKERS)))
            except (RuntimeError, ValueError):  # counted as failed below
                pass
        seconds = time.perf_counter() - t0
        outputs = [(("process", r.spec.workload, r.spec.seed), r.score, tuple(r.sequence), None)
                   for r in pooled]
        outputs += [(("multiprocessing", r.spec.workload, r.spec.seed), r.score,
                     tuple(r.sequence), None) for r in fanned]
        pool_cells = sweep_pool.cells_dispatched - cells0
        ledger = {
            "core.work_units": sum(r.work_units or 0.0 for r in pooled),
            "lab.pool_cells": pool_cells,
            "parallel.pool_evaluations": sum(r.n_jobs or 0 for r in fanned),
        }
        n_ops = 2 * len(self.specs)
        failed = n_ops - len(pooled) - len(fanned)
        return PassResult(seconds, n_ops, failed, outputs, ledger, {"pool_cells": pool_cells})

    def teardown(self, ctx: Dict[str, Any]) -> None:
        from repro.lab.procpool import close_shared_sweep_pool
        from repro.parallel.pool import close_shared_pool

        close_shared_sweep_pool()
        close_shared_pool()

    def check(self, passes: List[PassResult]) -> List[str]:
        problems = _drift(passes)
        engine = Engine()
        serial = {}
        for spec in self.specs:
            report = engine.run(spec)
            serial[(spec.workload, spec.seed)] = (report.score, tuple(report.sequence))
        for p, result in enumerate(passes):
            for (kind, game, seed), score, moves, _ in result.outputs:
                problem = _compare(f"pass {p} {kind} {game}/{seed}", (score, moves),
                                   serial[(game, seed)])
                if problem:
                    problems.append(problem)
        return problems


WORKLOADS = {cls.name: cls for cls in (PaperCold, PaperWarm, ServiceMix, LocalPools)}
