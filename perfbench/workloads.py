"""The benchmark's four workloads.

Every workload runs episodes on ``SystemConfig.scaled(SCALE)`` in three
steps: ``begin`` (untimed: pick the episode's input, snapshot counters),
``run`` (the timed episode) and ``finish`` (untimed: read the exact
simulated counts, then check the episode's output).  Episodes cycle through
``cycle`` kinds; two episodes of the same kind see the same input, so their
simulated statistics must match exactly.

See README.md for why each workload exists and which layer it measures.
"""

import hashlib
import importlib
import json
import random
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import SystemConfig
from repro.core.system import SecureEpdSystem
from repro.crypto.arena import arena_accelerated
from repro.mem.wear import WearTracker
from repro.stats.counters import SimStats
from repro.stats.events import AesKind, MacKind, ReadKind, WriteKind
from repro.stats.runtime import RuntimePerfModel

SCALE = 128
"""LLC scale of every workload (the drain scale of ``bench_runner``)."""

SAMPLE_LINES = 64
"""Lines read back after each episode to check its output."""

REPLAY_SLICE_OPS = 8192
REPLAY_SLICES = 12
"""The replay trace is ``REPLAY_SLICES`` slices of ``REPLAY_SLICE_OPS``
ops (98,304 YCSB-A ops); one episode replays the next slice."""

WARM_PASSES = 2
"""Untimed passes over the replay trace before the first timed episode."""

STAT_KINDS = (("nvm_reads", "reads", ReadKind), ("nvm_writes", "writes", WriteKind),
              ("macs", "macs", MacKind), ("aes", "aes", AesKind))
"""Per-kind ``SimStats`` counters reported as ``sim.<name>.<kind>``."""

CACHE_LEVELS = ("l1", "l2", "llc")


@dataclass
class Outcome:
    """What ``finish`` learned about one episode."""

    work: int
    """Work units: drained blocks, trace ops, or campaign cells."""
    sim_cycles: int
    """Simulated cycles of the episode under the Table I model."""
    digest: str
    """Hash of the episode's simulated statistics and report."""
    exact: dict[str, int] = field(default_factory=dict)
    """Exact counters of the episode (summed over a cycle of kinds)."""
    errors: list[str] = field(default_factory=list)
    """Correctness failures; empty when the output checked out."""


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stat_counts(stats: SimStats) -> dict[str, int]:
    """``sim.<counter>.<kind>`` for every kind, zeros included."""
    out: dict[str, int] = {}
    for name, attr, kinds in STAT_KINDS:
        counter = getattr(stats, attr)
        for kind in kinds:
            out[f"sim.{name}.{kind.value}"] = counter[kind]
    return out


def access_counts(counts: Counter[str]) -> dict[str, int]:
    """Hits and accesses per cache level from ``access_counts``."""
    out: dict[str, int] = {}
    reaching = sum(counts.values())
    for level in CACHE_LEVELS:
        out[f"cache.{level}.hits"] = counts[level]
        out[f"cache.{level}.accesses"] = reaching
        reaching -= counts[level]
    return out


def metadata_counts(system: SecureEpdSystem,
                    before: dict[str, tuple[int, int]] | None = None
                    ) -> dict[str, int]:
    """Hits and accesses per security-metadata cache (minus ``before``)."""
    out: dict[str, int] = {}
    if system.controller is None:
        return out
    for cache in system.controller.metadata_caches:
        hits0, misses0 = (before or {}).get(cache.name, (0, 0))
        hits, misses = cache.hits - hits0, cache.misses - misses0
        out[f"metadata.{cache.name}.hits"] = hits
        out[f"metadata.{cache.name}.accesses"] = hits + misses
    return out


def metadata_snapshot(system: SecureEpdSystem) -> dict[str, tuple[int, int]]:
    if system.controller is None:
        return {}
    return {cache.name: (cache.hits, cache.misses)
            for cache in system.controller.metadata_caches}


def engines(system: SecureEpdSystem) -> dict[str, bool]:
    """The execution engines in effect, for the run report."""
    return {"batched": system.batched, "arena_accelerated": arena_accelerated()}


# ---------------------------------------------------------------------------
# drain-baseline / drain-horus
# ---------------------------------------------------------------------------

class DrainWorkload:
    """Fresh system -> ``fill_worst_case`` -> ``crash`` -> ``recover``.

    ``kinds`` are (scheme, wear) pairs; ``wear`` attaches a
    :class:`~repro.mem.wear.WearTracker` the way ``ablation-wear`` does.
    """

    periodic = True
    slice_exponent = 1.0
    """An episode's calibrated time is raw x (REFERENCE_S / slice) to this
    power: how strongly the workload's speed follows the slice's across
    the host's speed phases (README.md, "Calibrated seconds")."""

    def __init__(self, name: str, kinds: tuple[tuple[str, bool], ...]):
        self.name = name
        self.kinds = kinds
        self.cycle = len(kinds)
        self.engines: dict[str, bool] = {}

    def setup(self, seed: int) -> None:
        self.config = SystemConfig.scaled(SCALE)
        rng = random.Random(seed)
        self.fill_seed = rng.randrange(1 << 30)
        self.drain_seed = rng.randrange(1 << 30)
        # The fill's content is a function of the address alone; read it
        # off a bare hierarchy (L1 copies over L2 over LLC, as drained).
        hierarchy = CacheHierarchy(self.config)
        hierarchy.fill_worst_case(self.fill_seed)
        lines: dict[int, bytes] = {}
        for level in reversed(hierarchy.levels):
            for line in level.lines():
                assert line.data is not None
                lines[line.address] = line.data
        picked = rng.sample(sorted(lines), SAMPLE_LINES)
        self.sample = {address: lines[address] for address in picked}

    def begin(self, index: int) -> dict[str, Any]:
        kind = index % self.cycle
        scheme, wear = self.kinds[kind]
        return {"kind": kind, "label": scheme, "scheme": scheme, "wear": wear}

    def reset(self) -> None:
        """Nothing outlives an episode."""

    def run(self, state: dict[str, Any],
            between: Callable[[SecureEpdSystem], None] | None = None) -> None:
        """The timed episode.  ``between`` runs after ``crash`` and before
        ``recover`` (the benchmark's own test plants corruption there)."""
        system = SecureEpdSystem(self.config, scheme=state["scheme"])
        if state["wear"]:
            system.nvm.wear = WearTracker(system.layout)
        system.fill_worst_case(seed=self.fill_seed)
        state["report"] = system.crash(seed=self.drain_seed)
        if between is not None:
            between(system)
        system.recover()
        state["system"] = system

    def finish(self, state: dict[str, Any]) -> Outcome:
        system: SecureEpdSystem = state["system"]
        report = state["report"]
        self.engines = engines(system)
        stats = system.stats  # a fresh system: its totals are the episode
        blocks = report.flushed_blocks + report.metadata_blocks
        exact = stat_counts(stats)
        exact.update(metadata_counts(system))
        exact.update(access_counts(system.hierarchy.access_counts))
        if state["scheme"].startswith("horus"):
            exact["core.macs"] = stats.total_macs
            exact["core.blocks"] = blocks
        recovery = system.last_recovery
        wear = system.nvm.wear
        digest = _digest({
            "kind": [state["scheme"], state["wear"]],
            "stats": stats.snapshot(),
            "drain": [report.flushed_blocks, report.metadata_blocks],
            "recovered": None if recovery is None else recovery.blocks_restored,
            "wear": None if wear is None else wear.total_writes,
        })
        errors = [f"line {address:#x} differs after recovery"
                  for address, data in self.sample.items()
                  if system.read(address) != data]
        return Outcome(blocks, system.timing.cycles(stats), digest, exact, errors)


# ---------------------------------------------------------------------------
# replay-ycsb
# ---------------------------------------------------------------------------

class ReplayWorkload:
    """``workloads.replay.replay()`` of the next slice of a YCSB-A trace on
    one horus-dlm system, warmed by untimed passes over the trace."""

    name = "replay-ycsb"
    cycle = REPLAY_SLICES
    slice_exponent = 1.0
    periodic = False
    """Split counters keep growing pass after pass (minor-counter
    overflows re-encrypt pages), so a slice's statistics may differ
    between passes; they repeat across runs of the same seed instead."""

    def __init__(self) -> None:
        self.engines: dict[str, bool] = {}

    def setup(self, seed: int) -> None:
        # Looked up on the modules at call time so a traced run sees its
        # wrappers.
        replay = importlib.import_module("repro.workloads.replay")
        ycsb = importlib.import_module("repro.workloads.ycsb")
        self._replay = replay
        self.seed = seed
        self.config = SystemConfig.scaled(SCALE)
        trace = ycsb.ycsb_trace(
            "a", num_ops=REPLAY_SLICE_OPS * REPLAY_SLICES,
            footprint_blocks=self.config.llc.num_lines * 2, seed=seed)
        self.slices = [trace[k * REPLAY_SLICE_OPS:(k + 1) * REPLAY_SLICE_OPS]
                       for k in range(REPLAY_SLICES)]
        self.perf = RuntimePerfModel(self.config)
        self.reset()

    def reset(self) -> None:
        """A fresh system, warmed by untimed passes over the trace.

        The warm passes run the episodes themselves, read-backs included;
        the second pass is the first whose statistics repeat in the next.
        Also called after an episode that raised, which leaves the system
        in an undefined state."""
        self.system = SecureEpdSystem(self.config, scheme="horus-dlm")
        self.engines = engines(self.system)
        self.next_slice = 0
        for index in range(WARM_PASSES * self.cycle):
            state = self.begin(index)
            self.run(state)
            self.finish(state)

    def begin(self, index: int) -> dict[str, Any]:
        system = self.system
        system.hierarchy.access_counts.clear()
        kind = self.next_slice
        self.next_slice = (kind + 1) % self.cycle
        return {"kind": kind, "label": "horus-dlm", "slice": kind,
                "stats": system.stats.copy(),
                "metadata": metadata_snapshot(system)}

    def run(self, state: dict[str, Any]) -> None:
        state["expected"] = self._replay.replay(self.system,
                                                self.slices[state["slice"]])

    def finish(self, state: dict[str, Any]) -> Outcome:
        system = self.system
        delta = system.stats.diff(state["stats"])
        counts = Counter(system.hierarchy.access_counts)
        exact = stat_counts(delta)
        exact.update(metadata_counts(system, state["metadata"]))
        exact.update(access_counts(counts))
        expected: dict[int, bytes] = state["expected"]
        digest = _digest({"slice": state["slice"], "stats": delta.snapshot(),
                          "access": sorted(counts.items()),
                          "written": len(expected)})
        cycles = self.perf.breakdown(counts, delta).total_cycles
        # The same sample per slice in every pass, so reading it back
        # perturbs each pass's cache state identically.
        rng = random.Random(self.seed * 1009 + state["slice"])
        sample = rng.sample(sorted(expected), min(SAMPLE_LINES, len(expected)))
        errors = [f"line {address:#x} differs after replay"
                  for address in sample
                  if system.read(address) != expected[address]]
        return Outcome(REPLAY_SLICE_OPS, cycles, digest, exact, errors)


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

class CampaignWorkload:
    """One applicable ``run_campaign_cell`` per episode, in lattice order
    over variants x scenarios x windows, repeated to length."""

    name = "campaign"
    periodic = True
    slice_exponent = 0.8
    """Across the reference host's speed phases, a campaign cell's time
    moves with about the 0.8th power of the slice's (the drains' with the
    first), so at 1.0 the slice over-corrects the campaign: a run in a
    slow phase read faster than one in a fast phase."""

    def __init__(self) -> None:
        self.engines: dict[str, bool] = {}
        self._built: list[SecureEpdSystem] = []

    def setup(self, seed: int) -> None:
        engine = importlib.import_module("repro.campaigns.engine")
        scenarios = importlib.import_module("repro.campaigns.scenarios")
        self._engine = engine
        self.config = SystemConfig.scaled(SCALE)
        self.tasks = [(scheme, rotate, scenario, window)
                      for scheme, rotate in scenarios.SCHEME_VARIANTS
                      for scenario in scenarios.DEFAULT_SCENARIOS
                      for window in scenarios.WINDOWS
                      if scenarios.applicability(scheme, scenario, window) is None]
        self.cycle = len(self.tasks)
        # The seed picks where in the lattice the run starts.
        self.offset = seed % self.cycle
        # Fault cells share one clean twin profile per variant, as
        # ``run_campaign`` shares them.
        self.profiles = {}
        for scheme, rotate, scenario, _window in self.tasks:
            if scenario.kind == "fault" and (scheme, rotate) not in self.profiles:
                self.profiles[(scheme, rotate)] = engine.profile_episode(
                    self.config, scheme, rotate, engine.CAMPAIGN_LINES,
                    runtime=True)
        # Record the systems each cell builds, to read their statistics.
        built = self._built
        init = SecureEpdSystem.__init__

        def recording_init(system: SecureEpdSystem, *args: Any,
                           **kwargs: Any) -> None:
            init(system, *args, **kwargs)
            built.append(system)

        SecureEpdSystem.__init__ = recording_init  # type: ignore[method-assign]

    def begin(self, index: int) -> dict[str, Any]:
        self._built.clear()
        task = (self.offset + index) % self.cycle
        return {"kind": task, "label": self.tasks[task][0], "task": task}

    def reset(self) -> None:
        """Nothing outlives an episode."""

    def run(self, state: dict[str, Any]) -> None:
        scheme, rotate, scenario, window = self.tasks[state["task"]]
        state["cell"] = self._engine.run_campaign_cell(
            self.config, scheme, rotate, scenario, window,
            profile=self.profiles.get((scheme, rotate)))

    def finish(self, state: dict[str, Any]) -> Outcome:
        cell = state["cell"]
        scenario = self.tasks[state["task"]][2]
        systems = list(self._built)
        self._built.clear()
        if systems:
            self.engines = engines(systems[0])
        stats = SimStats.aggregate(system.stats for system in systems)
        exact = stat_counts(stats)
        attacked = scenario.kind == "attack"
        exact["campaigns.attacked"] = int(attacked)
        exact["campaigns.detected"] = int(attacked and cell.outcome == "detected")
        cycles = sum(system.timing.cycles(system.stats) for system in systems)
        digest = _digest({"cell": [cell.scheme, cell.scenario, cell.window,
                                   cell.outcome, cell.detail],
                          "stats": stats.snapshot()})
        # A cell whose outcome differs from the lattice's first pass fails
        # the runner's same-kind digest check.
        errors = [f"silent corruption: {cell}"] if cell.silent else []
        return Outcome(1, cycles, digest, exact, errors)


def make(name: str) -> Any:
    """The workload called ``name``."""
    if name == "drain-baseline":
        return DrainWorkload(name, (("base-lu", False), ("base-eu", False),
                                    ("base-lu", True)))
    if name == "drain-horus":
        return DrainWorkload(name, (("horus-slm", False), ("horus-dlm", False),
                                    ("horus-slm", True)))
    if name == "replay-ycsb":
        return ReplayWorkload()
    if name == "campaign":
        return CampaignWorkload()
    raise ValueError(f"unknown workload {name!r}")
