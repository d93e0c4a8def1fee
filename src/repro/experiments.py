"""Experiment runners regenerating every table and figure of the paper.

Each ``run_table*`` / ``run_figure*`` function executes the corresponding
experiment at a chosen scale (see :mod:`repro.workloads`) and returns both the
raw measurements and a :class:`repro.analysis.tables.Table` formatted like the
paper.  The benchmark harness (``benchmarks/``) and the command-line interface
(``python -m repro``) are thin wrappers around these functions, so the exact
same code path produces the numbers reported in EXPERIMENTS.md.

Scaling note: the default workload is a scaled Morpion
Solitaire whose levels 2/3 stand in for the paper's levels 3/4.  Durations are
simulated through the work→time cost model; speedups and orderings are the
quantities compared against the paper.

Every runner executes its searches through the unified :mod:`repro.api`
facade: each table cell is one :class:`~repro.api.SearchSpec` handed to a
shared :class:`~repro.api.Engine`, so the experiments exercise exactly the
code path users of the public API get.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.speedup import speedup, speedup_table
from repro.analysis.stats import Summary, summarize
from repro.analysis.tables import Table, pivot_table
from repro.analysis.timefmt import format_hms
from repro.analysis.commpattern import CommunicationSummary, analyze_communications, verify_pattern
from repro.api import Engine, RunReport, SearchSpec, to_jsonable
from repro.cluster.network import NetworkModel
from repro.cluster.topology import ClusterSpec
from repro.games.base import GameState
from repro.games.morpion.render import render_state
from repro.games.morpion.state import MorpionState
from repro.lab.export import rows_from_reports
from repro.lab.store import ResultStore
from repro.lab.sweep import SweepSpec
from repro.parallel.config import DispatcherKind
from repro.parallel.jobs import CachingJobExecutor, JobExecutor
from repro.timemodel.cost import CostModel
from repro.workloads import WORKLOADS, Workload, get_workload

__all__ = [
    "ExperimentResult",
    "SweepResult",
    "calibrated_cost_model",
    "run_table1_sequential",
    "client_sweep_spec",
    "run_client_sweep",
    "run_table6_heterogeneous",
    "run_figure_communications",
    "run_figure1_record",
    "DEFAULT_CLIENT_COUNTS",
]

#: Client counts of Tables II–V.
DEFAULT_CLIENT_COUNTS: Tuple[int, ...] = (1, 4, 8, 16, 32, 64)

#: The paper's sequential level-3 first-move time (Table I): 8m03s on 1.86 GHz.
_PAPER_LEVEL3_FIRST_MOVE_SECONDS = 483.0


def _registered_workload(workload: "Workload | str") -> Workload:
    """Resolve a workload for a sweep, requiring it to be registry-backed.

    Sweep cells resolve their state by *name* (specs are serialisable, game
    states are not), so an unregistered ``Workload`` object would only fail
    mid-sweep with an opaque lookup error; reject it upfront instead.
    """
    if isinstance(workload, str):
        return get_workload(workload)
    if WORKLOADS.get(workload.name) is not workload:
        raise ValueError(
            f"sweeps resolve workloads by name, and {workload.name!r} is not the "
            "registered workload of that name; add it to repro.workloads.WORKLOADS "
            "(or run the cells individually via Engine.run(spec, state=...))"
        )
    return workload


def calibrated_cost_model(
    workload: "Workload | str",
    master_seed: int = 0,
    reference_seconds: float = _PAPER_LEVEL3_FIRST_MOVE_SECONDS,
    freq_ghz: float = 1.86,
    level: Optional[int] = None,
) -> CostModel:
    """Calibrate the work→time mapping so the scaled workload sits on the paper's timescale.

    The sequential first move at the workload's *low* level (the stand-in for
    the paper's level 3) is executed once; the cost model is then chosen so
    that this search takes ``reference_seconds`` on a ``freq_ghz`` core —
    exactly the paper's Table I entry.  This keeps the ratio between client
    job durations and network latency in the regime of the original cluster,
    which is what the speedup shape depends on; the absolute simulated numbers
    then read on the same scale as the published tables.
    """
    from repro.timemodel.cost import calibrate_from_reference

    wl = get_workload(workload) if isinstance(workload, str) else workload
    level = level if level is not None else wl.low_level
    reference = Engine().run(
        SearchSpec(workload=wl.name, level=level, seed=master_seed, max_steps=1),
        state=wl.state(),
    )
    return calibrate_from_reference(reference.work_units, reference_seconds, freq_ghz)


@dataclass
class ExperimentResult:
    """A rendered table plus the raw numbers it was built from."""

    table: Table
    data: Dict = field(default_factory=dict)

    def render(self) -> str:
        return self.table.render()

    def json_payload(self) -> Dict[str, Any]:
        """The raw measurements as JSON-serialisable data (for ``--json`` output)."""
        return {"title": self.table.title, "data": to_jsonable(self.data)}


@dataclass
class SweepResult(ExperimentResult):
    """A client-count sweep (Tables II–V): times and speedups per level."""

    times: Dict[int, Dict[int, float]] = field(default_factory=dict)  # level -> clients -> s
    speedups: Dict[int, Dict[int, float]] = field(default_factory=dict)

    def json_payload(self) -> Dict[str, Any]:
        payload = super().json_payload()
        payload["times"] = to_jsonable(self.times)
        payload["speedups"] = to_jsonable(self.speedups)
        return payload


# --------------------------------------------------------------------------- #
# Table I — sequential algorithm
# --------------------------------------------------------------------------- #
def run_table1_sequential(
    workload: "Workload | str" = "morpion-bench",
    levels: Optional[Sequence[int]] = None,
    master_seed: int = 0,
    freq_ghz: float = 1.86,
    cost_model: Optional[CostModel] = None,
    rollout_levels: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    """Sequential NMCS times for the first move and a full rollout per level.

    ``rollout_levels`` restricts the (much more expensive) full-rollout column
    to a subset of ``levels``; omitted levels show ``—`` in the table, like the
    missing entries of the paper's own tables.
    """
    wl = get_workload(workload) if isinstance(workload, str) else workload
    levels = list(levels) if levels is not None else [wl.low_level, wl.high_level]
    rollout_levels = list(rollout_levels) if rollout_levels is not None else list(levels)
    engine = Engine(cost_model=cost_model or CostModel())
    base = SearchSpec(workload=wl.name, seed=master_seed, freq_ghz=freq_ghz)
    table = Table(
        title="Table I — times for the sequential algorithm",
        columns=["first move", "one rollout"],
        row_label="level",
    )
    data: Dict[int, Dict[str, float]] = {}
    for level in levels:
        first = engine.run(base.replace(level=level, max_steps=1), state=wl.state())
        cells = {"first move": format_hms(first.simulated_seconds)}
        data[level] = {
            "first_move": first.simulated_seconds,
            "first_move_work": first.work_units,
        }
        if level in rollout_levels:
            roll = engine.run(base.replace(level=level, max_steps=None), state=wl.state())
            data[level]["rollout"] = roll.simulated_seconds
            data[level]["rollout_work"] = roll.work_units
            data[level]["rollout_score"] = roll.score
            cells["one rollout"] = format_hms(roll.simulated_seconds)
        table.add_row(str(level), **cells)
    ratios = {}
    if len(levels) >= 2:
        lo, hi = levels[0], levels[-1]
        if data[lo]["first_move"] > 0:
            ratios["high_over_low_first_move"] = data[hi]["first_move"] / data[lo]["first_move"]
    for level in levels:
        if "rollout" in data[level] and data[level]["first_move"] > 0:
            ratios[f"rollout_over_first_move_level{level}"] = (
                data[level]["rollout"] / data[level]["first_move"]
            )
    return ExperimentResult(table=table, data={"levels": data, "ratios": ratios})


# --------------------------------------------------------------------------- #
# Tables II–V — client-count sweeps
# --------------------------------------------------------------------------- #
def client_sweep_spec(
    dispatcher: "DispatcherKind | str",
    experiment: str = "first_move",
    workload: "Workload | str" = "morpion-bench",
    levels: Optional[Sequence[int]] = None,
    client_counts: Sequence[int] = DEFAULT_CLIENT_COUNTS,
    master_seed: int = 0,
    n_medians: int = 40,
    use_paper_mix: bool = True,
) -> SweepSpec:
    """The declarative :class:`SweepSpec` behind Tables II–V.

    ``experiment`` is ``"first_move"`` (Tables II / IV) or ``"rollout"``
    (Tables III / V).  The grid iterates clients (descending, as the paper's
    tables are printed) × level, all cells sharing the master seed so the
    engine's job cache executes each search job exactly once.
    """
    if experiment not in ("first_move", "rollout"):
        raise ValueError(
            f"unknown experiment {experiment!r}; valid values: 'first_move' (Tables II/IV), "
            "'rollout' (Tables III/V)"
        )
    dispatcher = DispatcherKind.parse(dispatcher)
    wl = _registered_workload(workload)
    levels = list(levels) if levels is not None else [wl.low_level, wl.high_level]
    return SweepSpec(
        base=SearchSpec(
            workload=wl.name,
            backend="sim-cluster",
            dispatcher=dispatcher.value,
            cluster="paper-mix" if use_paper_mix else "homogeneous",
            n_medians=n_medians,
            seed=master_seed,
            max_steps=1 if experiment == "first_move" else None,
        ),
        axes={
            "n_clients": tuple(sorted(client_counts, reverse=True)),
            "level": tuple(levels),
        },
        name=f"{dispatcher.value}-{experiment}",
    )


def run_client_sweep(
    dispatcher: "DispatcherKind | str",
    experiment: str = "first_move",
    workload: "Workload | str" = "morpion-bench",
    levels: Optional[Sequence[int]] = None,
    client_counts: Sequence[int] = DEFAULT_CLIENT_COUNTS,
    master_seed: int = 0,
    executor: Optional[JobExecutor] = None,
    cost_model: Optional[CostModel] = None,
    network: Optional[NetworkModel] = None,
    n_medians: int = 40,
    use_paper_mix: bool = True,
    title: Optional[str] = None,
    store: Optional[ResultStore] = None,
) -> SweepResult:
    """Tables II–V: parallel times for a sweep of client counts.

    Builds the :func:`client_sweep_spec` grid and executes it through the
    engine's batch layer.  Passing a shared :class:`CachingJobExecutor`
    makes the whole sweep execute each search job exactly once; passing a
    :class:`~repro.lab.store.ResultStore` additionally makes the sweep
    durable — cells already in the store are not re-executed, and an
    interrupted sweep resumes from where it stopped.
    """
    sweep = client_sweep_spec(
        dispatcher,
        experiment=experiment,
        workload=workload,
        levels=levels,
        client_counts=client_counts,
        master_seed=master_seed,
        n_medians=n_medians,
        use_paper_mix=use_paper_mix,
    )
    dispatcher = DispatcherKind.parse(dispatcher)
    levels = list(sweep.axes["level"])
    engine = Engine(
        executor=executor if executor is not None else CachingJobExecutor(),
        cost_model=cost_model,
        network=network,
    )
    reports = engine.run_many(sweep, store=store)

    name = "Round-Robin" if dispatcher is DispatcherKind.ROUND_ROBIN else "Last-Minute"
    what = "First move" if experiment == "first_move" else "Rollout"
    table = pivot_table(
        rows_from_reports(reports),
        title=title or f"{what} times for the {name} algorithm",
        index="n_clients",
        column="level",
        value="simulated_seconds",
        row_label="clients",
        fmt=format_hms,
        column_fmt=lambda level: f"level {level}",
    )
    times: Dict[int, Dict[int, float]] = {lvl: {} for lvl in levels}
    scores: Dict[int, float] = {}
    for run in reports:
        times[run.level][run.spec.n_clients] = run.simulated_seconds
        scores[run.level] = run.score
    speedups = {
        level: speedup_table(times[level]) if 1 in times[level] else {}
        for level in levels
    }
    return SweepResult(
        table=table,
        data={"scores": scores, "dispatcher": dispatcher.value, "experiment": experiment},
        times=times,
        speedups=speedups,
    )


# --------------------------------------------------------------------------- #
# Table VI — heterogeneous repartitions
# --------------------------------------------------------------------------- #
def run_table6_heterogeneous(
    workload: "Workload | str" = "morpion-bench",
    levels: Optional[Sequence[int]] = None,
    configurations: Sequence[Tuple[str, int, int]] = (("16x4+16x2", 16, 16), ("8x4+8x2", 8, 8)),
    master_seed: int = 0,
    executor: Optional[JobExecutor] = None,
    cost_model: Optional[CostModel] = None,
    network: Optional[NetworkModel] = None,
    n_medians: int = 40,
    store: Optional[ResultStore] = None,
) -> ExperimentResult:
    """Table VI: first-move times of LM vs RR on oversubscribed heterogeneous clusters.

    Each configuration ``(label, n_over, n_reg)`` builds ``n_over`` dual-core
    PCs running 4 clients each plus ``n_reg`` PCs running 2 clients each.
    The whole table is one declarative :class:`SweepSpec` (cluster ×
    dispatcher × level) run through the engine's batch layer; a
    :class:`~repro.lab.store.ResultStore` makes it durable and resumable.
    """
    wl = _registered_workload(workload)
    levels = list(levels) if levels is not None else [wl.low_level, wl.high_level]
    engine = Engine(
        executor=executor if executor is not None else CachingJobExecutor(),
        cost_model=cost_model,
        network=network,
    )
    descriptors = {
        label: f"heterogeneous:{n_over}x4+{n_reg}x2" for label, n_over, n_reg in configurations
    }
    sweep = SweepSpec(
        base=SearchSpec(
            workload=wl.name,
            backend="sim-cluster",
            n_medians=n_medians,
            seed=master_seed,
            max_steps=1,
        ),
        axes={
            # fromkeys dedupes: two labels naming the same repartition share cells
            "cluster": tuple(dict.fromkeys(descriptors.values())),
            "dispatcher": (DispatcherKind.LAST_MINUTE.value, DispatcherKind.ROUND_ROBIN.value),
            "level": tuple(levels),
        },
        name="table6-heterogeneous",
    )
    reports = engine.run_many(sweep, store=store)

    table = Table(
        title="Table VI — first move times on an heterogeneous cluster",
        columns=["alg"] + [f"level {lvl}" for lvl in levels],
        row_label="clients",
    )
    by_cell: Dict[Tuple[str, str], Dict[int, float]] = {}
    for run in reports:
        alg = "LM" if run.spec.dispatcher == DispatcherKind.LAST_MINUTE.value else "RR"
        by_cell.setdefault((run.spec.cluster, alg), {})[run.level] = run.simulated_seconds
    data: Dict[Tuple[str, str], Dict[int, float]] = {}
    for label, _, _ in configurations:
        for alg in ("LM", "RR"):
            entry = by_cell[(descriptors[label], alg)]
            data[(label, alg)] = entry
            cells = {"alg": alg}
            for level in levels:
                cells[f"level {level}"] = format_hms(entry[level])
            table.add_row(label, **cells)
    advantages = {}
    for label, _, _ in configurations:
        for level in levels:
            rr = data[(label, "RR")][level]
            lm = data[(label, "LM")][level]
            if lm > 0:
                advantages[f"{label}_level{level}_rr_over_lm"] = rr / lm
    return ExperimentResult(table=table, data={"times": data, "advantages": advantages})


# --------------------------------------------------------------------------- #
# Figures 2–5 — communication patterns
# --------------------------------------------------------------------------- #
def run_figure_communications(
    dispatcher: "DispatcherKind | str",
    workload: "Workload | str" = "morpion-small",
    level: Optional[int] = None,
    n_clients: int = 8,
    master_seed: int = 0,
    executor: Optional[JobExecutor] = None,
) -> ExperimentResult:
    """Figures 2–5: classify the messages of a run and measure client overlap."""
    dispatcher = DispatcherKind.parse(dispatcher)
    wl = get_workload(workload) if isinstance(workload, str) else workload
    level = level if level is not None else wl.low_level
    engine = Engine(executor=executor)
    report = engine.run(
        SearchSpec(
            workload=wl.name,
            backend="sim-cluster",
            dispatcher=dispatcher.value,
            cluster="homogeneous",
            n_clients=n_clients,
            level=level,
            seed=master_seed,
            max_steps=1,
        ),
        state=wl.state(),
    )
    run = report.raw
    summary = analyze_communications(run.trace)
    problems = verify_pattern(summary, dispatcher)
    name = "Round-Robin (figures 2-3)" if dispatcher is DispatcherKind.ROUND_ROBIN else "Last-Minute (figures 4-5)"
    table = Table(
        title=f"Communication pattern of the {name} algorithm",
        columns=["count"],
        row_label="communication",
    )
    for kind in sorted(summary.counts):
        table.add_row(kind, count=str(summary.counts[kind]))
    table.add_row("max concurrent client computations", count=str(summary.max_client_concurrency))
    table.add_row("mean concurrent client computations", count=f"{summary.mean_client_concurrency:.2f}")
    return ExperimentResult(
        table=table,
        data={"summary": summary, "violations": problems, "simulated_seconds": run.simulated_seconds},
    )


# --------------------------------------------------------------------------- #
# Figure 1 — record grid
# --------------------------------------------------------------------------- #
def run_figure1_record(
    workload: "Workload | str" = "morpion-4d",
    level: Optional[int] = None,
    dispatcher: "DispatcherKind | str" = DispatcherKind.LAST_MINUTE,
    n_clients: int = 16,
    master_seed: int = 0,
    executor: Optional[JobExecutor] = None,
    use_parallel: bool = True,
) -> ExperimentResult:
    """Figure 1: run a (parallel) search for a long Morpion sequence and render it.

    The default scale searches the 4D board; the paper-scale 5D hunt is the
    same code with the ``paper-scale`` workload.
    """
    wl = get_workload(workload) if isinstance(workload, str) else workload
    level = level if level is not None else wl.high_level
    state = wl.state()
    if not isinstance(state, MorpionState):
        raise ValueError("figure 1 requires a Morpion workload")
    engine = Engine(executor=executor)
    if use_parallel and level >= 2:
        spec = SearchSpec(
            workload=wl.name,
            backend="sim-cluster",
            dispatcher=DispatcherKind.parse(dispatcher).value,
            cluster="homogeneous",
            n_clients=n_clients,
            level=level,
            seed=master_seed,
        )
    else:
        spec = SearchSpec(workload=wl.name, level=max(level, 1), seed=master_seed)
    report = engine.run(spec, state=state)
    result = report.raw.result if report.backend == "sim-cluster" else report.raw
    seconds = report.simulated_seconds
    final = result.final_state(state)
    grid = render_state(final)
    table = Table(
        title=f"Figure 1 — best sequence found ({int(result.score)} moves)",
        columns=["value"],
        row_label="item",
    )
    table.add_row("score (moves played)", value=str(int(result.score)))
    table.add_row("search level", value=str(level))
    table.add_row("simulated time", value=format_hms(seconds))
    return ExperimentResult(table=table, data={"grid": grid, "result": result, "seconds": seconds})
