"""The benchmark's own tests.

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench

Not part of the tier-1 suite (``testpaths`` is ``tests``): several of
these start interpreters and time the calibration slice.
"""

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import calibrate
import metrics
import run
import worker
import workloads
from tracer import COUNTED, TARGETS, TIMED, Tracer

ROOT = Path(__file__).resolve().parent.parent


def test_slice_allocates_no_gc_tracked_objects():
    gc.disable()
    try:
        before = gc.get_count()[0]
        calibrate.calibration_slice()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


_SLICE_PROBE = textwrap.dedent("""
    import gc, os, statistics, sys
    from calibrate import time_slice
    # Both probes share one CPU, so a speed difference between the host's
    # CPUs cannot decide the answer.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if sys.argv[1] == "after-setup":
        import workloads
        workload = workloads.make("replay-ycsb")
        workload.setup(1)
        gc.collect()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(statistics.median(time_slice() for _ in range(10)), flush=True)
""")


def test_slice_times_the_same_after_the_largest_setup():
    # replay-ycsb holds the largest heap (a 98k-op trace and a warm
    # system).  A bare interpreter and one right after that set-up take
    # turns timing blocks of slices; comparing each pair of neighbouring
    # blocks keeps the host's speed phases out of the ratio.
    probes = [subprocess.Popen([sys.executable, "-c", _SLICE_PROBE, mode],
                               cwd=ROOT, env=run.child_env(), text=True,
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE)
              for mode in ("bare", "after-setup")]
    try:
        for probe in probes:
            assert probe.stdout.readline().strip() == "ready"
        ratios = []
        for turn in range(60):
            # Alternate who goes first: the second block of a pair runs
            # warmer, and the order must not decide the answer.
            order = probes if turn % 2 else probes[::-1]
            first, second = (_slice_block(probe) for probe in order)
            bare, loaded = (first, second) if turn % 2 else (second, first)
            ratios.append(loaded / bare)
    finally:
        for probe in probes:
            probe.stdin.close()
            probe.wait(timeout=30)
    assert abs(statistics.median(ratios) - 1.0) < 0.05, sorted(ratios)


def _slice_block(probe: subprocess.Popen) -> float:
    probe.stdin.write("\n")
    probe.stdin.flush()
    return float(probe.stdout.readline())


def _drained_block(workload, system):
    """An NVM block the drain wrote: a CHV block for Horus, a flushed
    data block (one the read-back sample covers) for the baselines."""
    if system.scheme.startswith("horus"):
        return next(region for region in system.layout.regions
                    if region.name == "chv").base
    return next(iter(workload.sample))


def _measure_one(workload, corrupt: bool):
    if corrupt:
        def plant(system):
            address = _drained_block(workload, system)
            block = bytearray(system.nvm.peek(address))
            block[7] ^= 0x40
            system.nvm.poke(address, bytes(block))
        plain_run = workload.run
        workload.run = lambda state: plain_run(state, between=plant)
    return worker.measure(workload, seconds=0.0, min_episodes=1)


def test_planted_corruption_is_counted_as_failed():
    for name in ("drain-baseline", "drain-horus"):
        clean = workloads.make(name)
        clean.setup(7)
        result = _measure_one(clean, corrupt=False)
        assert [record[4] for record in result["records"]] == [True]

        corrupted = workloads.make(name)
        corrupted.setup(7)
        result = _measure_one(corrupted, corrupt=True)
        assert [record[4] for record in result["records"]] == [False], name
        assert result["errors"], name


def test_tracer_self_time_excludes_children():
    tracer = Tracer("test")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.timed("inner", inner)
    traced_outer = tracer.timed("outer", outer)
    tracer.begin_episode(0, "label")
    traced_outer()
    duration, covered = tracer.end_episode()
    assert 0.01 <= tracer.self_s["outer"] < 0.02
    assert tracer.self_s["inner"] >= 0.02
    assert covered <= duration
    spans = {span[2]: span for span in tracer.spans}
    assert spans["inner"][1] == spans["outer"][0]    # parent id
    assert spans["outer"][1] == spans["episode"][0]
    assert tracer.calls == {"outer": 1, "inner": 1}


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == metrics.per_layer()
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    for name in metrics.WORKLOADS + metrics.HELD_OUT:
        assert workloads.make(name).name == name
    # The held-out workload prints every listed metric and its own.
    replay = metrics.per_layer(replay=True)
    assert set(replay) - set(metrics.per_layer()) \
        == {metric for metric in replay if metric[0] in metrics.REPLAY_ONLY}


def test_metric_names_match_the_simulator():
    from repro.core.system import SCHEMES
    from repro.stats.counters import SimStats
    assert metrics.SCHEMES == SCHEMES
    names = {name for name, _unit, _better in metrics.per_layer()}
    assert set(workloads.stat_counts(SimStats())) <= names
    assert metrics.REPLAY_ONLY <= {
        name for name, _unit, _better in metrics.per_layer(replay=True)}


def test_metric_layers_match_the_tracer_targets():
    timed = {layer.format(name=scheme)
             for layer, how, _where, _attrs in TARGETS if how == TIMED
             for scheme in metrics.SCHEMES}
    counted = {layer for layer, how, _where, _attrs in TARGETS if how == COUNTED}
    timed.discard("workloads.ycsb_trace")  # reported as set-up ms
    assert timed == set(metrics.TIMED_LAYERS)
    # propagate_to_root is timed and also reported by calls
    assert counted | {"secure.propagate_to_root"} == set(metrics.COUNTED_LAYERS)


def test_run_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drain-horus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_one_command_prints_every_metric():
    for trace, expected in ((0, metrics.END_TO_END), (1, metrics.per_layer())):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "drain-horus",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: value["unit"] for name, value in result["metrics"].items()} \
            == {name: unit for name, unit, _better in expected}
