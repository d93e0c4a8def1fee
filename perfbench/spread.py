"""Run one workload over several seeds and report how steady each metric is.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload paper-warm [--compare OLD.json]

Runs seeds 0 to 9, each in one fresh ``perfbench/run.py`` process.  For
every end-to-end metric the script prints the median over the seeds and the
distance between the first and third quartile as a share of the median, next
to the bound in BENCHMARK.json.  The summary, with each seed's exact-count
ledger, is written to ``.perfbench/spread-<workload>.json``.  With
``--compare`` it also checks an earlier summary: medians within the bounds
and ledgers identical per seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]

#: The seeds of one set of runs.
SEEDS = range(10)


def run_seed(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "ledger": detail["ledger"], "correct": result["correct"]}


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    runs = []
    for seed in SEEDS:
        runs.append(run_seed(args.workload, seed, declared["run_seconds"]))
        print(f"seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
    summary = {"workload": args.workload, "runs": runs, "metrics": {}}
    ok = all(r["correct"] for r in runs)
    for name, bound in bounds.items():
        values = [r["metrics"][name] for r in runs]
        share = spread(values)
        summary["metrics"][name] = {"median": statistics.median(values), "spread": share}
        print(f"{name:<14} median {statistics.median(values):12.6g}  spread {share:7.4f}  "
              f"bound {bound}  {'ok' if share < bound / 3 else 'WIDE'}")
    (ROOT / ".perfbench" / f"spread-{args.workload}.json").write_text(json.dumps(summary, indent=1))

    if args.compare:
        old = json.loads(args.compare.read_text())
        for name, bound in bounds.items():
            before, after = old["metrics"][name]["median"], summary["metrics"][name]["median"]
            worse = (after - before) / before * (1 if better[name] == "lower" else -1)
            ok &= worse <= bound
            print(f"{name:<14} median {before:.6g} -> {after:.6g}  worse by {worse:+.4f}  "
                  f"bound {bound}")
        old_ledgers = {r["seed"]: r["ledger"] for r in old["runs"]}
        for run in runs:
            if run["seed"] in old_ledgers and old_ledgers[run["seed"]] != run["ledger"]:
                ok = False
                print(f"LEDGER DRIFT seed {run['seed']}: {old_ledgers[run['seed']]} "
                      f"!= {run['ledger']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
