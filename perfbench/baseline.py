"""Record a baseline: every workload over seeds 1-10, plus traced runs.

    python3 perfbench/baseline.py --out baseline.json

Runs ``run.py`` once per (workload, seed) with ``--trace 0`` and once per
workload with ``--trace 1`` on seed 1, each in its own process, then one
traced verify-suite run at the default sample counts (``--full-suite``,
about two minutes).  Writes the environment, the median and quartiles of
every end-to-end metric, and the traced runs' per-layer metrics.  The
spread of a metric is its interquartile range over its median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    result["detail"] = json.loads(out[-2][2:])
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
    return {"median": med, "q1": q[0], "q3": q[2], "spread": (q[2] - q[0]) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    baseline = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for w in spec["workloads"]:
        runs = [run_once(w["name"], s, seconds, 0) for s in SEEDS]
        traced = run_once(w["name"], SEEDS[0], seconds, 1)
        baseline["workloads"][w["name"]] = {
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs]) for m in spec["end_to_end"]
            },
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failures": sorted({f for r in runs for f in r["detail"]["failures"]}),
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(w["name"], "done", flush=True)
    traced = run_once("verify-suite", SEEDS[0], seconds, 1, "--full-suite")
    baseline["verify_suite_default_config"] = {k: v["value"] for k, v in traced["metrics"].items()}
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
