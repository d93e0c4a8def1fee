"""Fast self-check of the benchmark harness.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

Checks BENCHMARK.json against the benchmark contract, then runs every
workload once at a tiny size, untraced and traced, each in a fresh
interpreter: every declared metric must come back with its unit, and every
correctness gate must pass.  Finally it runs the benchmark in a directory
holding only BENCHMARK.json and the benchmark's own files, where it must fail
without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check_declaration(declared: Dict[str, Any]) -> List[str]:
    """Problems with BENCHMARK.json itself."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracing import MOVES

    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(declared) != keys:
        problems.append(f"top-level keys {sorted(declared)} != {sorted(keys)}")
    for path in declared["paths"]:
        if not PATH.fullmatch(path) or path.startswith("/") or ".." in path.split("/"):
            problems.append(f"bad path {path!r}")
    if not (isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    names: List[str] = []
    for w in declared["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: needs exactly a name and a one-line why")
    if not 2 <= len(declared["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    for m in declared["end_to_end"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end metric {m['name']}: keys or bound")
    for m in declared["per_layer"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric {m['name']}: keys")
    for m in declared["end_to_end"] + declared["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m['name']}: unit or direction")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in declared["end_to_end"]):
        problems.append("setup_s should have the largest bound")
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    problems += [f"name used twice: {n}" for n in set(names) if names.count(n) > 1]
    layer_names = {m["name"] for m in declared["per_layer"]}
    if layer_names != set(MOVES):
        problems.append(f"per-layer metrics without a MOVES entry or the reverse: "
                        f"{sorted(layer_names ^ set(MOVES))}")
    return problems


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(declared: Dict[str, Any], workload: str, trace: int) -> List[str]:
    proc = run(ROOT, workload, trace)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: gates failed: {result}")
    specs = declared["per_layer" if trace else "end_to_end"]
    wanted = {m["name"]: m["unit"] for m in specs}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"{label}: metrics differ: {sorted(set(got) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        value = entry.get("value")
        finite = isinstance(value, (int, float)) and math.isfinite(value)
        if entry.get("unit") != unit or not finite:
            problems.append(f"{label}: {name} = {entry}")
        elif not trace and value <= 0:
            problems.append(f"{label}: end-to-end metric {name} is {value}")
    return problems


def check_bare(declared: Dict[str, Any]) -> List[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in declared["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, declared["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_declaration(declared)
    for w in declared["workloads"]:
        for trace in (0, 1):
            found = check_run(declared, w["name"], trace)
            print(f"{w['name']:<12} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    problems += check_bare(declared)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
