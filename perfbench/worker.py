"""One benchmark process: set up a workload, then time its episodes.

Started by ``run.py`` in a fresh interpreter per process::

    python3 perfbench/worker.py --workload drain-horus --seed 1 \\
        --mode run --seconds 20

``--mode setup`` stops after set-up (the set-up time samples), ``run``
times episodes untraced, and ``trace`` wraps the layers first
(:mod:`tracer`) and writes the spans to ``--spans``.  The process prints
one JSON object on its last line of standard output.
"""

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import calibrated, time_slice
from metrics import RATIOS

MIN_EPISODES = 100
"""A run times at least this many episodes, even past ``--seconds``, so
that the 90th percentile has ten samples beyond it."""


def exact_metrics(totals: dict[str, int], episodes: int) -> dict[str, float]:
    """Fold one cycle's summed counters into the reported exact metrics."""
    folded = {part for _name, num, den in RATIOS for part in (num, den)}
    out = {name: value / episodes for name, value in totals.items()
           if name not in folded}
    for name, num, den in RATIOS:
        out[name] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    return out


def measure(workload, seconds: float, tracer=None,
            min_episodes: int = MIN_EPISODES) -> dict:
    """Time episodes for ``seconds`` (and at least ``min_episodes``);
    returns the per-run record.

    Each episode is bracketed by calibration slices (the one right before
    it and the one right before the next episode, or a last one after the
    loop), and its calibrated time uses their mean, raised to the
    workload's ``slice_exponent``.
    """
    gc.collect()
    gc.freeze()  # set-up's heap stays out of every later collection
    cycle = workload.cycle
    digests: dict[int, str] = {}
    raw: list[float] = []
    slices: list[float] = []
    work: list[int] = []
    errors: list[str | None] = []
    layers = []         # (self s, calls, duration, covered) per traced episode
    cycle_exact: dict[str, int] = {}
    sim_cycles: list[int] = []
    index = 0
    deadline = time.perf_counter() + seconds
    while index < min_episodes or time.perf_counter() < deadline:
        state = workload.begin(index)
        gc.collect()
        slices.append(time_slice())
        if tracer is not None:
            tracer.begin_episode(index, state["label"])
        error = None
        start = time.perf_counter()
        try:
            workload.run(state)
        except Exception as exc:  # a failed episode is counted, not fatal
            error = f"run: {type(exc).__name__}: {exc}"
        raw.append(time.perf_counter() - start)
        raised = error is not None
        if tracer is not None:
            duration, covered = tracer.end_episode()
            layers.append((dict(tracer.self_s), dict(tracer.calls),
                           duration, covered))
        outcome = None
        if error is None:
            try:
                outcome = workload.finish(state)
            except Exception as exc:
                error = f"check: {type(exc).__name__}: {exc}"
        if outcome is not None:
            kind = state["kind"]
            first = digests.setdefault(kind, outcome.digest)
            if workload.periodic and first != outcome.digest:
                outcome.errors.append(
                    f"statistics differ from kind {kind}'s first episode")
            if outcome.errors:
                error = "; ".join(outcome.errors[:3])
            elif index < cycle:
                sim_cycles.append(outcome.sim_cycles)
                for name, value in outcome.exact.items():
                    cycle_exact[name] = cycle_exact.get(name, 0) + value
        errors.append(error)
        work.append(outcome.work if error is None else 0)
        if raised:
            workload.reset()  # the system stopped mid-episode
        index += 1
    gc.collect()
    slices.append(time_slice())
    scales = [calibrated(1.0, (slices[i] + slices[i + 1]) / 2,
                         workload.slice_exponent) for i in range(len(raw))]
    result = {
        "records": [(raw_s, slices[i], raw_s * scales[i], work[i], errors[i] is None)
                    for i, raw_s in enumerate(raw)],
        "errors": [f"episode {i}: {error}" for i, error in enumerate(errors)
                   if error is not None][:10],
        "sim_cycles": statistics.fmean(sim_cycles) if sim_cycles else 0.0,
        # The first episode's digest of each kind: equal across runs of
        # the same seed.
        "digest": hashlib.sha256(json.dumps(sorted(digests.items())).encode())
        .hexdigest()[:16],
        "exact": (exact_metrics(cycle_exact, cycle)
                  if len(sim_cycles) == cycle else {}),
    }
    if tracer is not None:
        result.update(layer_totals(layers, scales, cycle))
    return result


def layer_totals(layers: list, scales: list[float], cycle: int) -> dict:
    """Calibrated self ms and calls per episode of each layer, over whole
    cycles only so that the counts repeat exactly."""
    whole = len(layers) // cycle * cycle
    layer_ms: dict[str, float] = {}
    layer_calls: dict[str, float] = {}
    traced_s = covered_s = 0.0
    for (self_s, calls, duration, covered), scale in zip(layers[:whole], scales):
        for name, value in self_s.items():
            layer_ms[name] = layer_ms.get(name, 0.0) + value * scale * 1e3 / whole
        for name, value in calls.items():
            layer_calls[name] = layer_calls.get(name, 0.0) + value / whole
        traced_s += duration
        covered_s += covered
    return {"layer_ms": layer_ms, "layer_calls": layer_calls,
            "coverage": covered_s / traced_s if traced_s else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        start_slice = time_slice()  # calibrates the traced set-up
        tracer = Tracer(args.workload)
        tracer.install()
    import workloads
    workload = workloads.make(args.workload)
    workload.setup(args.seed)
    ready = time.perf_counter()
    result: dict = {"ready": ready, "ready_slice": time_slice(),
                    "slice_exponent": workload.slice_exponent}
    if args.mode != "setup":
        if tracer is not None:
            result["setup_layer_ms"] = {
                name: calibrated(value * 1e3, start_slice,
                                 workload.slice_exponent)
                for name, value in tracer.self_s.items()}
        result.update(measure(workload, args.seconds, tracer))
        result["engines"] = workload.engines
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and args.spans is not None:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
