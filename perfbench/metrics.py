"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` lists the same metrics; ``test_perfbench.py`` checks
that the two agree.  Imports nothing from ``repro``.
"""

WORKLOADS = ("drain-baseline", "drain-horus", "campaign")
"""The workloads ``BENCHMARK.json`` lists (see README.md for why each
exists)."""

HELD_OUT = ("replay-ycsb",)
"""Workloads ``run.py`` runs but ``BENCHMARK.json`` does not list: the
simulator fails their correctness checks today (README.md, "Held-out
workload")."""

REPLAY_ONLY = frozenset((
    "secure.run_ops_batch.self_ms", "cache.replay_epoch.self_ms",
    "cache.resolve_pending.self_ms", "workloads.replay.self_ms",
    "workloads.ycsb_trace.ms", "cache.l1.hit_ratio", "cache.l2.hit_ratio",
    "cache.llc.hit_ratio"))
"""Per-layer metrics that only replay-ycsb moves (they read 0 on the
listed workloads), so ``BENCHMARK.json`` does not list them."""

SCHEMES = ("nosec", "base-lu", "base-eu", "horus-slm", "horus-dlm")
"""The schemes ``epd.drain`` spans are labelled with."""

END_TO_END: tuple[tuple[str, str, str], ...] = (
    # (name, unit, better)
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("episode_ms.p50", "ms", "lower"),
    ("episode_ms.p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles", "cycles", "lower"),
)

TIMED_LAYERS = (
    "secure.propagate_to_root", "secure.drain_victims", "secure.scalar_rw",
    "secure.run_ops_batch", "cache.replay_epoch", "cache.resolve_pending",
    "cache.fill_worst_case", "cache.drain_lines", "crypto.batch", "mem.arena",
    "core.recover", *(f"epd.drain.{scheme}" for scheme in SCHEMES),
    "workloads.replay", "campaigns.cell", "campaigns.classify",
)
"""Layers reported as calibrated self milliseconds per episode."""

COUNTED_LAYERS = (
    "secure.propagate_to_root", "secure.get_tree_node", "mem.regions",
    "crypto.scalar", "metadata.lookup", "metadata.insert", "mem.wear",
    "mem.scalar",
)
"""Layers reported as calls per episode."""

STAT_KINDS = {
    "nvm_reads": ("data", "counter", "tree_node", "mac", "chv", "shadow"),
    "nvm_writes": ("data", "data_mac", "counter", "tree_node", "shadow",
                   "chv_data", "chv_address", "chv_mac", "chv_metadata"),
    "macs": ("data_protect", "tree_update", "verify", "cache_tree",
             "chv_data", "chv_level2"),
    "aes": ("encrypt", "decrypt"),
}
"""``SimStats`` counters by kind, read exactly per episode."""

RATIOS: tuple[tuple[str, str, str], ...] = (
    # (reported ratio, numerator counter, denominator counter)
    *((f"cache.{level}.hit_ratio", f"cache.{level}.hits",
       f"cache.{level}.accesses") for level in ("l1", "l2", "llc")),
    *((f"metadata.{cache}.hit_ratio", f"metadata.{cache}.hits",
       f"metadata.{cache}.accesses")
      for cache in ("counter-cache", "tree-cache", "mac-cache")),
    ("core.macs_per_block", "core.macs", "core.blocks"),
    ("campaigns.detected_frac", "campaigns.detected", "campaigns.attacked"),
)
"""Exact ratios folded from counters summed over one cycle of episodes."""

_RATIO_UNITS = {"core.macs_per_block": ("macs/block", "lower")}


def per_layer(replay: bool = False) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order.

    Without ``replay``, the metrics of the listed workloads
    (``BENCHMARK.json``); with it, also those only replay-ycsb moves."""
    out = [(f"{layer}.self_ms", "ms", "lower") for layer in TIMED_LAYERS]
    out += [(f"{layer}.calls", "count", "lower") for layer in COUNTED_LAYERS]
    out.append(("workloads.ycsb_trace.ms", "ms", "lower"))
    out += [(f"sim.{counter}.{kind}", "count", "lower")
            for counter, kinds in STAT_KINDS.items() for kind in kinds]
    out += [(name, *_RATIO_UNITS.get(name, ("ratio", "higher")))
            for name, _num, _den in RATIOS]
    out += [("trace.overhead_frac", "ratio", "lower"),
            ("trace.coverage_frac", "ratio", "higher")]
    return [metric for metric in out if replay or metric[0] not in REPLAY_ONLY]
