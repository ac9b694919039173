"""Self-test of the benchmark: all four workloads at a tiny size.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json is emitted with its unit in
both modes, that every end-to-end value is a positive number and every
per-layer metric is live on at least one workload, that no operation
fails on the current code, and that deliberately corrupted results are
counted as failures.  Prints one line per check; exits 1 if any fails.
About half a minute.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile

import run
from spans import rebind, restore
from workloads import WORKLOADS, GroupOracles, LineScales, Tally, VerifySuite

# (workload, package function, group it is corrupted on, factor, failure label)
CORRUPTIONS = (
    (LineScales(), "ball_norm", "real-line", 1.0 + 1e-6, "fubini-identity"),
    (GroupOracles(), "partition_norm", "heisenberg", 1.0 + 1e-9, "partition-diagonal-heisenberg"),
    # An infinite norm reaches the written report as Infinity.
    (VerifySuite(), "lebesgue_norm", "real-line", math.inf, "case "),
)


def corrupted(fn, group: str, factor: float):
    def wrapper(f, *args, **kwargs):
        value = fn(f, *args, **kwargs)
        return value * factor if f.group.name == group else value

    return wrapper


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    problems = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "BENCHMARK.json names the benchmark's workloads")
    live = set()
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for name in WORKLOADS:
            for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
                result, detail = run.measure(name, 1, 0.0, trace, "tiny", workdir)
                metrics = result["metrics"]
                mode = f"{name} --trace {int(trace)}"
                check(
                    list(metrics) == [m["name"] for m in wanted]
                    and all(metrics[m["name"]]["unit"] == m["unit"] for m in wanted),
                    f"{mode}: every metric emitted with its unit",
                )
                check(
                    all(isinstance(v["value"], float) and math.isfinite(v["value"]) for v in metrics.values()),
                    f"{mode}: every value a finite number",
                )
                if not trace:
                    check(all(v["value"] > 0 for v in metrics.values()), f"{mode}: end-to-end values > 0")
                live |= {k for k, v in metrics.items() if v["value"] != 0}
                check(
                    result["failed"] == 0 and result["correct"] and result["attempted"] > 0,
                    f"{mode}: fail_ratio 0 over {result['attempted']} operations {detail['failures'][:2]}",
                )
        dead = [m["name"] for m in spec["per_layer"] if m["name"] not in live and m["name"] != "trace.overhead_s"]
        check(not dead, f"every per-layer metric non-zero on some workload (zero: {dead})")

        for workload, fn_name, group, factor, label in CORRUPTIONS:
            am = run.fresh_import()
            inputs = workload.inputs(am, 1, "tiny", workdir)
            fn = getattr(am, fn_name)
            undo = rebind(am, {fn: corrupted(fn, group, factor)})
            tally = Tally()
            try:
                workload.run(am, inputs, tally)
            finally:
                restore(undo)
            check(
                any(f.startswith(label) for f in tally.failures),
                f"{workload.name}: {group} {fn_name} scaled by {factor!r} fails {label} "
                f"({tally.failed} of {tally.attempted} operations failed)",
            )
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
