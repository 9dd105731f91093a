"""The repository's benchmark: one workload, one seed, one command.

    python3 perfbench/run.py --workload drain-horus --seed 1 --seconds 20 --trace 0

Runs from the repository root.  Every process it starts is a fresh
single-threaded interpreter (``worker.py``) with a pinned hash seed and no
``REPRO_*`` switches, so an ambient knob cannot change engines:

1. one untimed set-up process warms the bytecode cache;
2. ``--trace 0``: ``SETUP_SAMPLES - 1`` set-up-only processes and one
   measuring process, each timed from spawn to the end of set-up, then
   the measuring process times episodes for ``--seconds``;
3. ``--trace 1``: one untraced and one traced measuring process, for the
   per-layer metrics and the tracing overhead.

Host times are in calibrated seconds (see ``calibrate.py``).  The last
line of standard output is the result object; the line before it is a
report with the raw (uncalibrated) figures, the engines in effect and any
failures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import calibrated, time_slice
from metrics import (COUNTED_LAYERS, END_TO_END, HELD_OUT, TIMED_LAYERS,
                     WORKLOADS, per_layer)

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUTPUT = ROOT / ".perfbench"

SETUP_SAMPLES = 9
"""Set-up time samples per run; ``setup_s`` is their median."""

CHILD_TIMEOUT_S = 150
"""A worker that runs longer than this is killed and the run fails."""


class BenchError(Exception):
    """A process of the benchmark failed; no result is printed."""


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env.update(PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(BENCH))),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def worker(workload: str, seed: int, mode: str, seconds: float = 0.0,
           spans: Path | None = None) -> tuple[float, dict]:
    """Run one worker process; returns (spawn time, its result object)."""
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    if spans is not None:
        command += ["--spans", str(spans)]
    spawned = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, env=child_env(), text=True,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return spawned, json.loads(proc.stdout.splitlines()[-1])


def timed_setup(workload: str, seed: int, mode: str, seconds: float = 0.0
                ) -> tuple[float, float, dict]:
    """(calibrated, raw) seconds from spawn to end of set-up, and the result.

    Calibrated by the mean of a slice timed here right before the spawn
    and one the worker times right after its set-up."""
    slice_s = time_slice()
    spawned, result = worker(workload, seed, mode, seconds)
    raw = result["ready"] - spawned
    return (calibrated(raw, (slice_s + result["ready_slice"]) / 2,
                       result["slice_exponent"]), raw, result)


def episode_figures(result: dict) -> dict[str, float]:
    """End-to-end episode figures of one measuring run, calibrated and raw."""
    done = [record for record in result["records"] if record[4]]
    if not done:
        raise BenchError("no episode completed: " + "; ".join(result["errors"]))
    raw_ms = [record[0] * 1e3 for record in done]
    cal_ms = [record[2] * 1e3 for record in done]
    work = sum(record[3] for record in done)

    def p90(values: list[float]) -> float:
        return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]

    return {
        "work_per_s": work / (sum(cal_ms) / 1e3),
        "episode_ms.p50": statistics.median(cal_ms),
        "episode_ms.p90": p90(cal_ms),
        "raw.work_per_s": work / (sum(raw_ms) / 1e3),
        "raw.episode_ms.p50": statistics.median(raw_ms),
        "raw.episode_ms.p90": p90(raw_ms),
        "slice_ms.p50": statistics.median(record[1] * 1e3 for record in done),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    worker(workload, seed, "setup")  # untimed: warms the bytecode cache
    setups = [timed_setup(workload, seed, "setup")[:2]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, setup_raw, result = timed_setup(workload, seed, "run", seconds)
    setups.append((setup_s, setup_raw))
    figures = episode_figures(result)
    values = {
        "setup_s": statistics.median(cal for cal, _raw in setups),
        "work_per_s": figures["work_per_s"],
        "episode_ms.p50": figures["episode_ms.p50"],
        "episode_ms.p90": figures["episode_ms.p90"],
        "peak_rss_mb": result["rss_mb"],
        "sim_cycles": result["sim_cycles"],
    }
    report = {key: value for key, value in figures.items()
              if key.startswith(("raw.", "slice_"))}
    report["raw.setup_s"] = statistics.median(raw for _cal, raw in setups)
    units = {name: unit for name, unit, _better in END_TO_END}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name, _unit, _better in END_TO_END}
    return metrics, report, [result]


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    worker(workload, seed, "setup")  # untimed: warms the bytecode cache
    _spawned, plain = worker(workload, seed, "run", seconds)
    spans = OUTPUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    _spawned, traced_run = worker(workload, seed, "trace", seconds, spans)
    plain_rate = episode_figures(plain)["work_per_s"]
    traced_rate = episode_figures(traced_run)["work_per_s"]
    values: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        values[f"{layer}.self_ms"] = traced_run["layer_ms"].get(layer, 0.0)
    for layer in COUNTED_LAYERS:
        values[f"{layer}.calls"] = traced_run["layer_calls"].get(layer, 0.0)
    values["workloads.ycsb_trace.ms"] = traced_run["setup_layer_ms"].get(
        "workloads.ycsb_trace", 0.0)
    values.update(traced_run["exact"])
    values["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
    values["trace.coverage_frac"] = traced_run["coverage"]
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit, _better in per_layer(workload in HELD_OUT)}
    report = {"untraced.work_per_s": plain_rate, "traced.work_per_s": traced_rate,
              "traced.calls": traced_run["layer_calls"], "spans": str(spans.relative_to(ROOT))}
    if plain["exact"] != traced_run["exact"]:
        traced_run["errors"].append("exact counts differ between the untraced "
                                    "and the traced run")
    return metrics, report, [plain, traced_run]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + HELD_OUT)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    run = traced if args.trace else end_to_end
    try:
        metrics, report, results = run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(result["records"]) for result in results)
    failed = sum(1 for result in results for record in result["records"]
                 if not record[4])
    errors = [error for result in results for error in result["errors"]]
    if not all(result["exact"] for result in results):
        errors.append("no clean first cycle of episode kinds: exact counts unread")
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  episodes=attempted, engines=results[0]["engines"],
                  exact=results[0]["exact"], digest=results[0]["digest"],
                  errors=errors)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and not errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
