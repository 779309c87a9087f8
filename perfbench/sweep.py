"""Reproduce every figure of the benchmark: checks, spreads, traced counts.

Usage: ``python3 perfbench/sweep.py`` from the root of a checkout.  It
runs ``selftest.py``, then every workload of BENCHMARK.json untraced on
seeds 1 to 10 and traced twice on seed 1, all for its ``run_seconds``.
For every end-to-end metric it prints the median and the spread (third
minus first quartile, as a share of the median) against the metric's
bound, and the same for the figures each run records without a bound
(``ops_per_s``, ``op_p50_ms``, ``op_tail_ms``); it confirms that the
per-layer counts of the two traced runs are identical.  Everything is
written to ``perfbench/out/summary.json``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "B")
SEEDS = range(1, 11)
#: figures each untraced run records beside its result, without a bound
RECORDED = ("ops_per_s", "op_p50_ms", "op_tail_ms")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = subprocess.run([sys.executable, str(HERE / "selftest.py")], cwd=ROOT).returncode == 0
    summary = {"selftest": ok, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        traced = [run(workload, 1, seconds, 1) for _ in range(2)]
        counts = [
            {k: v["value"] for k, v in t["result"]["metrics"].items() if v["unit"] in COUNT_UNITS}
            for t in traced
        ]
        figures = {}
        print(f"== {workload}: ops per run {[r['record']['ops'] for r in runs]}")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            figures[name] = {**spread(values), "bound": bound, "values": values}
            f = figures[name]
            flag = "" if f["spread"] < bound / 3 else "  <-- spread above a third of the bound"
            print(f"  {name:12s} median {f['median']:10.4f}  spread {f['spread']:.3f}  "
                  f"bound {bound}{flag}")
        for name in RECORDED:
            values = [r["record"][name] for r in runs]
            figures[name] = {**spread(values), "bound": None, "values": values}
            f = figures[name]
            print(f"  {name:12s} median {f['median']:10.4f}  spread {f['spread']:.3f}  (recorded, no bound)")
        correct = all(r["result"]["correct"] for r in runs + traced)
        failed = sum(r["result"]["failed"] for r in runs + traced)
        same = counts[0] == counts[1]
        ok = ok and correct and same
        print(f"  correct {correct}  failed {failed}  traced counts repeat {same}")
        summary["workloads"][workload] = {
            "end_to_end": figures,
            "correct": correct,
            "failed": failed,
            "counts_repeat": same,
            "per_layer": {k: v["value"] for k, v in traced[0]["result"]["metrics"].items()},
            "record": runs[0]["record"],
        }
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
