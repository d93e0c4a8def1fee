"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus ``trace.overhead_ratio``.
Human-readable lines (host, exact-count ledger, gates) come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details, and the spans of a traced run, are
written under ``.perfbench/`` at the repository root.  The exit code is 0
when every correctness gate passed, 1 when one failed, 2 when the program
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]

#: A run stops adding passes after this long, whatever ``min_passes`` says,
#: so a slow build still ends well inside the 180 s a run may take.
TIME_CAP_S = 100.0

#: The host reference runs for this share of the timed work, in samples
#: spread between passes and set-ups.  Its samples are short, and on a busy
#: host their times vary from one to the next more than a whole pass does.
REF_SHARE = 0.25


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def host_reference(workload: Any, kind: str) -> float:
    """Time one kind of host reference in fresh interpreters.

    The reference runs in interpreters of its own, which never import the
    program, so nothing the program does to its process reaches the divisor.
    A workload that keeps ``ref_copies`` CPUs busy is scaled by as many
    copies running at once.  Returns the mean time of one copy.
    """
    # A relative socket directory: unix socket paths are short.
    workdir = os.path.relpath(workload.workdir, ROOT)
    procs = [subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "hostref.py"),
                               kind, workdir],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
             for _ in range(workload.ref_copies)]
    try:
        times = [float(proc.communicate(timeout=60)[0]) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()  # only one that overran is still running
            proc.wait()
    return statistics.mean(times)


def measure(workload: Any, seconds: float, trace: bool) -> Dict[str, Any]:
    """Repeat set-up, timed pass(es) and teardown until enough is measured.

    A run measures at least ``seconds`` of passes and ``min_passes`` passes
    of each kind.  Traced runs alternate untraced and traced passes and end
    on a traced one.  Set-up is then repeated on its own (set-up, teardown)
    until ``min_setups`` set-ups are sampled.  Between passes and set-ups
    the host references are timed until each has run for ``REF_SHARE`` of
    the timed work it scales, and at least once per pass or set-up in it:
    the workload's own for the passes, the compute reference for the
    set-ups.  Their mean times are kept.
    """
    from perfbench.tracing import Tracer

    tracer = Tracer() if trace else None
    refs: Dict[str, List[float]] = {kind: [] for kind in ("compute", workload.reference)}
    setups: List[float] = []
    untraced: List[Any] = []
    traced: List[Any] = []
    min_passes = workload.size.min_passes or workload.min_passes
    started = time.perf_counter()

    def enough() -> bool:
        if tracer is not None and len(traced) < len(untraced):
            return False
        if time.perf_counter() - started > TIME_CAP_S:
            return True
        return (sum(r.seconds for r in untraced + traced) >= seconds
                and len(untraced) >= min_passes
                and (tracer is None or len(traced) >= min_passes))

    def keep_up_reference() -> None:
        # Each reference keeps up with the work it scales, and with the
        # number of passes or set-ups in it, so its samples span the run.
        passes = untraced + traced
        work = {workload.reference: (sum(r.seconds for r in passes), len(passes))}
        seconds, count = work.get("compute", (0.0, 0))
        work["compute"] = (seconds + sum(setups), count + len(setups))
        for kind, samples in refs.items():
            seconds, count = work[kind]
            while len(samples) < count or sum(samples) < REF_SHARE * seconds:
                samples.append(host_reference(workload, kind))

    while not enough():
        t0 = time.perf_counter()
        ctx = workload.setup()
        setups.append(time.perf_counter() - t0)
        keep_up_reference()
        try:
            for _ in range(workload.passes_per_setup):
                use_tracer = tracer is not None and len(traced) < len(untraced)
                if use_tracer:
                    tracer.pass_no = len(traced)
                    tracer.install()
                try:
                    result = workload.run_pass(ctx, tracer if use_tracer else None)
                finally:
                    if use_tracer:
                        tracer.uninstall()
                if untraced and result.outputs == untraced[0].outputs:
                    result.outputs = untraced[0].outputs  # keep one copy, not one per pass
                (traced if use_tracer else untraced).append(result)
                keep_up_reference()
                if enough():
                    break
        finally:
            workload.teardown(ctx)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < workload.min_setups and time.perf_counter() - started < TIME_CAP_S:
        t0 = time.perf_counter()
        ctx = workload.setup()
        setups.append(time.perf_counter() - t0)
        workload.teardown(ctx)
        keep_up_reference()
    return {"setups": setups, "untraced": untraced, "traced": traced, "tracer": tracer,
            "peak_rss_mb": peak_rss_mb, "refs": refs,
            "ref_s": {kind: statistics.mean(samples) for kind, samples in refs.items()},
            "reference": workload.reference}


def pass_seconds(passes: List[Any]) -> float:
    """Median wall time of whole passes."""
    return statistics.median(r.seconds for r in passes)


def end_to_end(m: Dict[str, Any], raw: bool = False) -> Dict[str, float]:
    """End-to-end metrics; times in reference seconds unless ``raw``."""
    from perfbench.hostref import QUIET_S

    passes = m["untraced"]
    speed = {kind: 1.0 if raw else ref_s / QUIET_S[kind] for kind, ref_s in m["ref_s"].items()}
    return {
        "setup_s": statistics.median(m["setups"]) / speed["compute"],
        "cells_per_s": passes[0].ops / pass_seconds(passes) * speed[m["reference"]],
        "peak_rss_mb": m["peak_rss_mb"],
    }


def per_layer(m: Dict[str, Any]) -> Dict[str, float]:
    from perfbench.tracing import layer_metrics

    tracer = m["tracer"]
    samples = [
        layer_metrics([s for s in tracer.spans if s.pass_no == k], result.facts)
        for k, result in enumerate(m["traced"])
    ]
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.overhead_ratio"] = pass_seconds(m["traced"]) / pass_seconds(m["untraced"])
    metrics["host.ref_ms"] = m["ref_s"][m["reference"]] * 1e3
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full",
                        help="'full' (default) or 'tiny' for the harness self-check")
    args = parser.parse_args(argv)

    # The program runs with its telemetry off, traced or not.
    os.environ.pop("REPRO_OBS", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    from perfbench.workloads import SIZES, WORKLOADS

    # Metric names, units and each workload's reason live in BENCHMARK.json.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in declared["workloads"]}

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.size not in SIZES:
        parser.error(f"unknown size {args.size!r}; choose from {', '.join(SIZES)}")

    outdir = ROOT / ".perfbench"
    workdir = outdir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], workdir)
    try:
        m = measure(workload, args.seconds, bool(args.trace))
        problems = workload.check(m["untraced"] + m["traced"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = m["untraced"] + m["traced"]
    attempted = sum(r.ops for r in passes)
    failed = min(attempted, sum(r.failed for r in passes) + len(problems))
    values = per_layer(m) if args.trace else end_to_end(m)
    units = {spec["name"]: spec["unit"]
             for spec in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        print(f"perfbench: measured metrics {sorted(values)} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    detail = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "host": host(),
        "host_reference": m["reference"],
        "host_ref_s": m["ref_s"],
        "host_ref_samples_s": m["refs"],
        "wall_metrics": end_to_end(m, raw=True),
        "setups_s": m["setups"],
        "pass_s": [r.seconds for r in m["untraced"]],
        "traced_pass_s": [r.seconds for r in m["traced"]],
        "ledger": passes[0].ledger,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": values,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if args.trace:
        (outdir / f"{tag}-spans.json").write_text(json.dumps(m["tracer"].dump()))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print(f"  why: {whys[args.workload]}")
    print(f"  host: {json.dumps(detail['host'], sort_keys=True)}")
    print(f"  passes: {len(m['untraced'])} untraced, {len(m['traced'])} traced; "
          f"{attempted} ops attempted, {failed} failed, error_rate {detail['error_rate']:.4f}")
    print(f"  ledger (exact counts per pass): {json.dumps(passes[0].ledger, sort_keys=True)}")
    print(f"  host reference (s): {json.dumps(m['ref_s'])}; wall-clock figures: "
          f"{json.dumps(detail['wall_metrics'])}")
    for name, value in values.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    if args.workload == "service-mix" and not args.trace:
        for name, value in _service_classes(m["untraced"]).items():
            print(f"  {name:<32} {value:>14.6g}")
    for problem in problems[:20]:
        print(f"  GATE FAILED: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


def _service_classes(passes: List[Any]) -> Dict[str, float]:
    """Latency of cached and fresh jobs, with their sample counts."""
    from perfbench.tracing import percentile

    out: Dict[str, float] = {}
    for cls in ("cached", "fresh"):
        samples = [x for r in passes for x in r.facts[f"{cls}_latency_s"]]
        out[f"{cls}_job_p50_ms"] = percentile(samples, 0.5) * 1e3
        out[f"{cls}_job_p90_ms"] = percentile(samples, 0.9) * 1e3
        out[f"{cls}_job_samples"] = len(samples)
    return out


if __name__ == "__main__":
    sys.exit(main())
