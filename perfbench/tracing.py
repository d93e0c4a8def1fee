"""Benchmark-side tracing: spans around the public entry points of each layer.

The traced run wraps the functions listed in :func:`install` for the duration
of a traced pass.  Every call records a span (name, start, end, parent span,
the cell or job the pass was working on, and a few attributes read from the
call's arguments or result).  Spans stay in memory and are written out when
the run ends.  ``repro.obs`` stays off: the program runs the same code path
traced or not, only the wrappers are added.

Spans exist in the benchmark's own process only; time spent inside worker
processes shows up as parent wait (``lab.pool_wait``, ``parallel.pool_wait``).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "MOVES", "layer_metrics", "percentile"]


class Span:
    """One timed call.  ``child_s`` is the time covered by its child spans."""

    __slots__ = ("name", "start", "end", "parent", "op", "pass_no", "thread", "child_s", "attrs")

    def __init__(self, name: str, start: float, parent: Optional["Span"], op: int,
                 pass_no: int, thread: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.pass_no = pass_no
        self.thread = thread
        self.child_s = 0.0
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans from wrapped callables; one span stack per thread.

    ``op`` is the cell index or job number the driving loop is working on.
    The workloads drive one cell or one closed-loop job at a time, so every
    span opened meanwhile, in any thread, belongs to that cell or job.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self.pass_no = -1
        self._local = threading.local()
        self._patched: List[tuple] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: Any, attr: str, name: str,
             annotate: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, time.perf_counter(), parent, tracer.op, tracer.pass_no,
                        threading.get_ident())
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                tracer.spans.append(span)
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are built from."""
        import repro.api as api
        from repro.cluster.simulator import Kernel
        from repro.lab.procpool import SweepWorkerPool
        from repro.lab.store import ResultStore
        from repro.parallel.jobs import DirectJobExecutor
        from repro.parallel.pool import PersistentWorkerPool
        from repro.service.core import SearchService

        self.wrap(api.Engine, "run", "api.run")
        self.wrap(api.Engine, "run_many", "api.run_many",
                  lambda a, k, r: {"cells": len(r)})
        # repro.api imports these by name, so they are patched where used.
        self.wrap(api, "run_parallel_nmcs", "parallel.run")
        self.wrap(api, "multiprocessing_nmcs", "parallel.mp_run")
        self.wrap(api, "nested_search", "core.search",
                  lambda a, k, r: {"work": k["counter"].moves})
        self.wrap(DirectJobExecutor, "execute", "core.search",
                  lambda a, k, r: {"work": r.work_units})
        self.wrap(Kernel, "run", "cluster.run")
        self.wrap(ResultStore, "get", "lab.store_get", lambda a, k, r: {"hit": r is not None})
        self.wrap(ResultStore, "put", "lab.store_put")
        self.wrap(SweepWorkerPool, "next_frame", "lab.pool_wait")
        self.wrap(PersistentWorkerPool, "evaluate_candidates", "parallel.pool_wait")
        self.wrap(PersistentWorkerPool, "run_search", "parallel.pool_wait")
        self.wrap(SearchService, "submit", "service.submit",
                  lambda a, k, r: {"status": r.get("status")})

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def record(self, name: str, start: float, end: float, **attrs: Any) -> Span:
        """Add a span timed by the benchmark itself (the client side of a job)."""
        span = Span(name, start, None, self.op, self.pass_no, threading.get_ident())
        span.end = end
        span.attrs = attrs
        self.spans.append(span)
        return span

    def dump(self) -> List[Dict[str, Any]]:
        """Spans as JSON-ready dicts; ``parent`` is the index of the parent span."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                "op": s.op,
                "pass": s.pass_no,
                "thread": s.thread,
                "self_s": s.self_s,
                **s.attrs,
            }
            for i, s in enumerate(self.spans)
        ]


def percentile(values: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: What each per-layer metric should move: the end-to-end metric and the
#: workload a change in that layer should show up in, so later changes can
#: cite both by name.  Names, units and directions live in BENCHMARK.json.
MOVES: Dict[str, str] = {
    "core.searches": "cells_per_s on paper-cold; must stay 0 on paper-warm",
    "core.search_s": "cells_per_s on paper-cold, fresh-job latency on service-mix; "
                     "no change on paper-warm",
    "core.work_units": "exact count; moves only if the search algorithm changes",
    "games.units_per_s": "cells_per_s on paper-cold and local-pools; no change on paper-warm",
    "parallel.jobs": "exact count of simulated client jobs on paper-*",
    "parallel.messages": "cells_per_s on paper-cold and paper-warm",
    "parallel.job_cache_hits": "cells_per_s on paper-cold",
    "parallel.job_cache_misses": "cells_per_s on paper-cold; must stay 0 on paper-warm",
    "parallel.job_cache_hit_ratio": "cells_per_s on paper-cold",
    "parallel.setup_s": "cells_per_s on paper-cold and paper-warm",
    "parallel.pool_calls": "cells_per_s on local-pools; no change elsewhere",
    "parallel.pool_wait_s": "cells_per_s on local-pools; no change elsewhere",
    "cluster.events_fired": "cells_per_s on paper-warm most, paper-cold less; "
                            "no change on service-mix and local-pools",
    "cluster.events_scheduled": "cells_per_s on paper-warm most, paper-cold less",
    "cluster.events_cancelled": "cells_per_s on paper-warm most, paper-cold less",
    "cluster.peak_queue": "peak_rss_mb on paper-warm and paper-cold",
    "cluster.run_s": "cells_per_s on paper-warm most, paper-cold less",
    "cluster.self_s": "cells_per_s on paper-warm most, paper-cold less",
    "cluster.us_per_event": "cells_per_s on paper-warm most, paper-cold less",
    "cluster.wall_per_sim_s": "cells_per_s on paper-warm",
    "api.runs": "exact count of Engine.run calls made in this process",
    "api.self_ms_per_run": "cells_per_s on paper-cold and paper-warm",
    "api.batch_overhead_ms_per_cell": "cells_per_s on paper-cold, paper-warm and local-pools",
    "lab.store_gets": "exact count of ResultStore.get calls",
    "lab.store_hit_ratio": "cells_per_s and cached-job latency on service-mix",
    "lab.store_get_ms_p50": "cells_per_s and cached-job latency on service-mix",
    "lab.store_puts": "exact count of ResultStore.put calls",
    "lab.store_put_ms_p50": "fresh-job latency on service-mix; slightly cells_per_s on paper-cold",
    "lab.pool_cells": "exact count of cells shipped to the sweep worker pool",
    "lab.pool_wait_s": "cells_per_s on local-pools; no change elsewhere",
    "service.submits_queued": "exact count of fresh jobs on service-mix",
    "service.submits_cached": "exact count of store hits on service-mix",
    "service.submits_attached": "exact count; 0 with one closed-loop client",
    "service.submits_rejected": "exact count; 0 at this load",
    "service.submit_ms_p50": "cells_per_s and cached-job latency on service-mix",
    "service.queue_wait_ms_p50": "fresh-job latency and cells_per_s on service-mix",
    "service.exec_ms_p50": "fresh-job latency and cells_per_s on service-mix",
    "service.transport_ms_p50": "cells_per_s and cached-job latency on service-mix",
    "service.cached_job_p50_ms": "cells_per_s on service-mix",
    "service.cached_job_p90_ms": "cells_per_s on service-mix",
    "service.fresh_job_p50_ms": "cells_per_s on service-mix",
    "service.fresh_job_p90_ms": "cells_per_s on service-mix",
    "trace.overhead_ratio": "nothing: traced over untraced pass time, the cost of tracing",
    "host.ref_ms": "nothing: the host reference time end-to-end timings are scaled by",
}


def layer_metrics(spans: List[Span], facts: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``spans`` are the pass's spans; ``facts`` holds what the workload read
    from public report fields and counters during the pass (see
    ``workloads.PassResult.facts``).
    """
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str, attr: str = "duration") -> float:
        return sum(getattr(s, attr) for s in by_name.get(name, ()))

    searches = by_name.get("core.search", [])
    search_s = total("core.search")
    work = sum(s.attrs.get("work", 0.0) for s in searches)
    runs = by_name.get("api.run", [])
    batch_cells = sum(s.attrs.get("cells", 0) for s in by_name.get("api.run_many", ()))
    gets = by_name.get("lab.store_get", [])
    puts = by_name.get("lab.store_put", [])
    submits = by_name.get("service.submit", [])
    statuses = [s.attrs.get("status") for s in submits]
    cluster_self = total("cluster.run", "self_s")
    hits = facts.get("job_cache_hits", 0)
    misses = facts.get("job_cache_misses", 0)
    events = facts.get("events_fired", 0)
    sim_s = facts.get("simulated_seconds", 0.0)
    ms = 1000.0
    return {
        "core.searches": float(len(searches)),
        "core.search_s": search_s,
        "core.work_units": float(work),
        "games.units_per_s": _ratio(work, search_s),
        "parallel.jobs": float(facts.get("jobs", 0)),
        "parallel.messages": float(facts.get("messages", 0)),
        "parallel.job_cache_hits": float(hits),
        "parallel.job_cache_misses": float(misses),
        "parallel.job_cache_hit_ratio": _ratio(hits, hits + misses),
        "parallel.setup_s": total("parallel.run", "self_s"),
        "parallel.pool_calls": float(len(by_name.get("parallel.pool_wait", ()))),
        "parallel.pool_wait_s": total("parallel.pool_wait"),
        "cluster.events_fired": float(events),
        "cluster.events_scheduled": float(facts.get("events_scheduled", 0)),
        "cluster.events_cancelled": float(facts.get("events_cancelled", 0)),
        "cluster.peak_queue": float(facts.get("peak_queue", 0)),
        "cluster.run_s": total("cluster.run"),
        "cluster.self_s": cluster_self,
        "cluster.us_per_event": _ratio(cluster_self * 1e6, events),
        "cluster.wall_per_sim_s": _ratio(total("cluster.run"), sim_s),
        "api.runs": float(len(runs)),
        "api.self_ms_per_run": _ratio(sum(s.self_s for s in runs) * ms, len(runs)),
        "api.batch_overhead_ms_per_cell": _ratio(total("api.run_many", "self_s") * ms, batch_cells),
        "lab.store_gets": float(len(gets)),
        "lab.store_hit_ratio": _ratio(sum(1 for s in gets if s.attrs.get("hit")), len(gets)),
        "lab.store_get_ms_p50": percentile([s.duration for s in gets], 0.5) * ms,
        "lab.store_puts": float(len(puts)),
        "lab.store_put_ms_p50": percentile([s.duration for s in puts], 0.5) * ms,
        "lab.pool_cells": float(facts.get("pool_cells", 0)),
        "lab.pool_wait_s": total("lab.pool_wait"),
        "service.submits_queued": float(statuses.count("queued")),
        "service.submits_cached": float(statuses.count("cached")),
        "service.submits_attached": float(statuses.count("attached")),
        "service.submits_rejected": float(statuses.count("rejected")),
        "service.submit_ms_p50": percentile([s.duration for s in submits], 0.5) * ms,
        "service.queue_wait_ms_p50": percentile(facts.get("queue_wait_s", []), 0.5) * ms,
        "service.exec_ms_p50": percentile(facts.get("exec_s", []), 0.5) * ms,
        "service.transport_ms_p50": _transport_p50(by_name, submits, facts) * ms,
        "service.cached_job_p50_ms": percentile(facts.get("cached_latency_s", []), 0.5) * ms,
        "service.cached_job_p90_ms": percentile(facts.get("cached_latency_s", []), 0.9) * ms,
        "service.fresh_job_p50_ms": percentile(facts.get("fresh_latency_s", []), 0.5) * ms,
        "service.fresh_job_p90_ms": percentile(facts.get("fresh_latency_s", []), 0.9) * ms,
    }


def _transport_p50(by_name: Dict[str, List[Span]], submits: List[Span],
                   facts: Dict[str, Any]) -> float:
    """Median of client latency minus server submit, queue wait and execution."""
    submit_by_op = {s.op: s.duration for s in submits}
    server_by_op = facts.get("server_s_by_op", {})
    rest = [
        span.duration - submit_by_op.get(span.op, 0.0) - server_by_op.get(span.op, 0.0)
        for span in by_name.get("client.job", ())
    ]
    return percentile(rest, 0.5)
