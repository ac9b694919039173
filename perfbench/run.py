"""Run one workload of the amalgams benchmark and print its metrics.

    python3 perfbench/run.py --workload line-scales --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its
per-layer metrics, taken with spans around every public function of the
package (see spans.py).  The line before it, prefixed ``#``, holds the
details: every pass time, the failures and the accuracy per group.

Set-up (import, inputs from the seed, warm-up) is repeated and its
median reported; then whole passes over the workload's fixed list of
operations run for ``--seconds`` (at least two), and ``wall_s`` is the
median pass.  Times are scaled to a reference kernel run alongside (see
meter.py).  After the window every workload evaluates the accuracy panel
(a smaller group-oracles list) once, untimed, so that each reports the
quadrature accuracy for its seed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from meter import Meter  # noqa: E402
from spans import LAYERS, Tracer, install  # noqa: E402
from workloads import WORKLOADS, GroupOracles, Tally  # noqa: E402

SETUP_REPS = 5
MIN_PASSES = 2


def fresh_import():
    """Import amalgams anew (numpy stays loaded) from the checkout's src/."""
    for name in [m for m in sys.modules if m == "amalgams" or m.startswith("amalgams.")]:
        del sys.modules[name]
    am = importlib.import_module("amalgams")
    for layer in LAYERS:
        importlib.import_module(f"amalgams.{layer}")
    if Path(am.__file__).resolve().parent != SRC / "amalgams":
        raise RuntimeError(f"imported amalgams from {am.__file__}, not from {SRC}")
    return am


def set_up(workload, seed: int, size: str, workdir: str, meter: Meter):
    """Repeated set-up; returns the last one's objects and every (raw, scaled) time."""
    times = []
    for _ in range(SETUP_REPS):
        tally = Tally()
        meter.take()
        am = fresh_import()
        inputs = workload.inputs(am, seed, size, workdir)
        workload.warm(am, inputs, tally)
        times.append(meter.take())
    return am, inputs, tally, times


def passes_for(workload, am, inputs, tally: Tally, meter: Meter, seconds: float, min_passes: int):
    """Whole passes until the next one would end past ``seconds`` of wall time.

    Returns the (raw, scaled) time of every pass.
    """
    times = []
    start = perf_counter()
    meter.take()
    while True:
        workload.run(am, inputs, tally)
        times.append(meter.take())
        elapsed = perf_counter() - start
        if len(times) >= min_passes and elapsed + statistics.median(t[0] for t in times) > seconds:
            return times


def accuracy(tally: Tally) -> dict:
    out = {}
    for group, errs in sorted(tally.relerr.items()):
        out[group] = {
            "relerr_max": max(errs),
            "relerr_p50": statistics.median(errs),
            "mesh_over_r": tally.mesh_over_r[group],
            "evaluations": len(errs),
        }
    return out


def layer_value(name: str, tracer: Tracer, n: int, extra: dict) -> float:
    if name in extra:
        return extra[name]
    base, _, kind = name.rpartition(".")
    if kind == "self_s":
        return tracer.self_time.get(base, 0.0) / n
    if kind == "s":
        return tracer.total.get(base, 0.0) / n
    if kind == "calls":
        return tracer.calls.get(base, 0) / n
    return tracer.counts.get(name, 0) / n


def measure(workload_name: str, seed: int, seconds: float, trace: bool, size: str, workdir: str):
    """One benchmark run; returns the result object and the details.

    ``workdir`` takes the files a workload writes (suite config, report).
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[workload_name]
    meter = Meter()
    with meter:
        am, inputs, tally, setup_times = set_up(workload, seed, size, workdir, meter)
        if not trace:
            before = tally.attempted
            passes = passes_for(workload, am, inputs, tally, meter, seconds, MIN_PASSES)
            ops = tally.attempted - before
    detail = {"workload": workload_name, "seed": seed, "setup_s": setup_times}
    if trace:
        # No kernel interrupts here: they would land in the spans' self times.
        untraced = passes_for(workload, am, inputs, tally, meter, 0.0, 1)
        tracer = Tracer()
        uninstall = install(tracer, am)
        try:
            passes = passes_for(workload, am, inputs, tally, meter, seconds - untraced[0][0], 1)
        finally:
            uninstall()
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{workload_name}-{seed}.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
        detail["untraced_pass_s"] = untraced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail["pass_s"] = passes
    scaled = [t[1] for t in passes]

    oracles, panel = GroupOracles(), Tally()
    oracles.run(am, oracles.inputs(am, seed, "tiny" if size == "tiny" else "panel", workdir), panel)
    tally.attempted += panel.attempted
    tally.failed += panel.failed
    tally.failures += panel.failures
    acc = accuracy(panel)
    detail["accuracy"] = acc
    detail["failures"] = tally.failures
    detail["fail_ratio"] = tally.failed / max(tally.attempted, 1)

    if not trace:
        values = {
            "setup_s": statistics.median(t[1] for t in setup_times),
            "wall_s": statistics.median(scaled),
            "ops_per_s": ops / sum(scaled),
            "quad_relerr_max": max(a["relerr_max"] for a in acc.values()),
            "quad_relerr_max_heisenberg": acc["heisenberg"]["relerr_max"],
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    else:
        traced = statistics.median(t[0] for t in passes)
        extra = {"trace.wall_s": traced, "trace.overhead_s": traced - untraced[0][0]}
        for group, a in acc.items():
            for key in ("relerr_max", "relerr_p50", "mesh_over_r"):
                extra[f"amalgam.ball_norm.{group}.{key}"] = a[key]
        values = {m["name"]: layer_value(m["name"], tracer, len(passes), extra) for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--full-suite",
        action="store_true",
        help="verify-suite at the default SuiteConfig sample counts (about 40 s a pass) instead of the scaled ones",
    )
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.full_suite and args.workload != "verify-suite":
        ap.error("--full-suite applies to verify-suite only")
    if not (SRC / "amalgams" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'amalgams'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, detail = measure(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            "full" if args.full_suite else "bench",
            str(workdir),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
