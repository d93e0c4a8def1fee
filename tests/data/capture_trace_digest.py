"""Capture exact trace digests of simulated cluster runs.

Run from the repository root against a kernel revision considered correct::

    PYTHONPATH=src python tests/data/capture_trace_digest.py

and commit the resulting ``trace_digest.json``.  For every scenario it pins a
SHA-256 over the full execution trace — every ``MessageRecord`` and
``ComputeRecord``, floats written with ``float.hex()`` — plus the simulated
end time and the kernel's fired/scheduled/cancelled event counts.
``tests/test_trace_digest.py`` replays the scenarios and requires every digest
to match exactly: unlike ``kernel_golden.json`` there is no tolerance on
time, so any change to the order in which the simulator fires events shows.

The scenarios are the first-move shapes of Tables II-VI (tsp / leftmove / sop
x 1, 8, 64 clients x Round-Robin / Last-Minute x homogeneous / single
oversubscribed node), the ``latency_s=0.5`` 64-client completion storm, and a
rollout on a zero-cost network, whose zero-delay ties stress tie-breaking.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List

from repro.api import Engine, SearchSpec
from repro.cluster.network import NetworkModel

OUT = Path(__file__).parent / "trace_digest.json"


def _scenarios() -> List[Dict[str, Any]]:
    scenarios = []
    for workload in ("tsp", "leftmove", "sop"):
        for n_clients in (1, 8, 64):
            for dispatcher in ("rr", "lm"):
                for cluster in ("homogeneous", "single"):
                    scenarios.append({
                        "spec": {"workload": workload, "backend": "sim-cluster",
                                 "dispatcher": dispatcher, "cluster": cluster,
                                 "n_clients": n_clients, "n_medians": 8,
                                 "level": 2, "max_steps": 1},
                        "network": None,
                    })
    scenarios.append({
        "spec": {"workload": "leftmove", "backend": "sim-cluster", "dispatcher": "lm",
                 "cluster": "single", "n_clients": 64, "n_medians": 8, "max_steps": 1},
        "network": {"latency_s": 0.5},
    })
    scenarios.append({
        "spec": {"workload": "leftmove", "backend": "sim-cluster", "dispatcher": "lm",
                 "n_clients": 8, "n_medians": 4},
        "network": "instantaneous",
    })
    return scenarios


SCENARIOS = _scenarios()


def scenario_id(scenario: Dict[str, Any]) -> str:
    spec = scenario["spec"]
    label = (f"{spec['workload']}-{spec['dispatcher']}-{spec.get('cluster', 'homogeneous')}"
             f"-c{spec['n_clients']}")
    network = scenario["network"]
    if network == "instantaneous":
        label += "-instant"
    elif network is not None:
        label += f"-lat{network['latency_s']}"
    return label


def _network(network: Any) -> NetworkModel:
    if network is None:
        return NetworkModel()
    if network == "instantaneous":
        return NetworkModel.instantaneous()
    return NetworkModel(**network)


def trace_digest(scenario: Dict[str, Any]) -> Dict[str, Any]:
    """Run one scenario; return its exact trace digest and event counts."""
    report = Engine(network=_network(scenario["network"])).run(SearchSpec(**scenario["spec"]))
    run = report.raw
    stats = report.kernel_stats
    sha = hashlib.sha256()
    for m in run.trace.messages:
        sha.update(
            f"M|{m.source}|{m.dest}|{m.tag}|{m.payload_type}|{float(m.size_bytes).hex()}|"
            f"{m.sent_at.hex()}|{m.received_at.hex()}|{m.delivered}\n".encode()
        )
    for c in run.trace.computes:
        sha.update(
            f"C|{c.pid}|{c.node}|{c.start.hex()}|{c.end.hex()}|{float(c.work).hex()}\n".encode()
        )
    sha.update(f"T|{float(report.simulated_seconds).hex()}\n".encode())
    return {
        "sha256": sha.hexdigest(),
        "events_fired": stats["events_fired"],
        "events_scheduled": stats["events_scheduled"],
        "events_cancelled": stats["events_cancelled"],
        "n_messages": len(run.trace.messages),
        "n_computes": len(run.trace.computes),
    }


def main() -> None:
    records = []
    for scenario in SCENARIOS:
        record = dict(scenario)
        record.update(trace_digest(scenario))
        records.append(record)
        print(f"{scenario_id(scenario)}: {record['sha256'][:16]} "
              f"events={record['events_fired']}")
    OUT.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({len(records)} scenarios)")


if __name__ == "__main__":
    main()
