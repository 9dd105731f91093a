"""Outside-in layer tracer for the benchmark's traced run.

Wraps named public functions of the simulator's layers at class or module
level, inside the traced process only; the simulator itself carries no
instrumentation.  Each wrapped call either

* opens a span (``timed``): id, parent id, layer, episode, label, start,
  duration and self time, where self time is the duration minus the time
  covered by child spans; or
* bumps a call count (``counted``), for hot helpers whose per-call timer
  reads would cost more than the work they measure.

Spans are kept in memory and written once, at exit.
"""

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

TIMED = "timed"
COUNTED = "counted"

TARGETS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    # (layer, how, "module[:Class]", attributes)
    ("secure.propagate_to_root", TIMED,
     "repro.secure.controller:SecureMemoryController", ("propagate_to_root",)),
    ("secure.get_tree_node", COUNTED,
     "repro.secure.controller:SecureMemoryController", ("get_tree_node",)),
    ("secure.drain_victims", TIMED,
     "repro.secure.controller:SecureMemoryController", ("drain_victims",)),
    ("secure.scalar_rw", TIMED,
     "repro.secure.controller:SecureMemoryController", ("read", "write")),
    ("secure.run_ops_batch", TIMED,
     "repro.secure.controller:SecureMemoryController", ("run_ops_batch",)),
    ("mem.regions", COUNTED, "repro.mem.regions:MemoryLayout",
     ("counter_block_index", "tree_node_address", "parent_of_counter_block",
      "parent_of_tree_node", "tree_node_coords")),
    ("mem.arena", TIMED, "repro.mem.nvm:NvmDevice", ("write_arena", "read_arena")),
    ("mem.scalar", COUNTED, "repro.mem.nvm:NvmDevice", ("read", "write")),
    ("mem.wear", COUNTED, "repro.mem.wear:WearTracker", ("record_write",)),
    ("crypto.scalar", COUNTED, "repro.crypto.engine:MacEngine",
     ("block_mac", "node_mac", "digest_mac")),
    ("crypto.scalar", COUNTED, "repro.crypto.engine:AesEngine",
     ("encrypt", "decrypt")),
    ("crypto.batch", TIMED, "repro.crypto.engine:MacEngine",
     ("block_mac_batch", "digest_mac_batch")),
    ("crypto.batch", TIMED, "repro.crypto.engine:AesEngine",
     ("encrypt_batch", "decrypt_batch")),
    ("metadata.lookup", COUNTED, "repro.metadata.cache:MetadataCache", ("lookup",)),
    ("metadata.insert", COUNTED, "repro.metadata.cache:MetadataCache", ("insert",)),
    ("cache.replay_epoch", TIMED, "repro.cache.hierarchy:CacheHierarchy",
     ("replay_epoch",)),
    ("cache.resolve_pending", TIMED, "repro.cache.hierarchy:CacheHierarchy",
     ("resolve_pending",)),
    ("cache.fill_worst_case", TIMED, "repro.cache.hierarchy:CacheHierarchy",
     ("fill_worst_case",)),
    ("cache.drain_lines", TIMED, "repro.cache.hierarchy:CacheHierarchy",
     ("drain_lines",)),
    ("core.recover", TIMED, "repro.core.recovery:HorusRecovery", ("recover",)),
    # Labelled by the drain engine's scheme name.
    ("epd.drain.{name}", TIMED, "repro.epd.drain:DrainEngine", ("drain",)),
    ("workloads.replay", TIMED, "repro.workloads.replay", ("replay",)),
    ("workloads.ycsb_trace", TIMED, "repro.workloads.ycsb", ("ycsb_trace",)),
    ("campaigns.cell", TIMED, "repro.campaigns.engine", ("run_campaign_cell",)),
    ("campaigns.classify", TIMED, "repro.campaigns.classify",
     ("run_recovery_and_sweep",)),
)

ROOT = "episode"


class Tracer:
    """Span stack, finished spans and per-episode layer totals."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[tuple[Any, ...]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.episode = -1
        self.label = "setup"
        self._stack: list[list[Any]] = []
        self._next_id = 1

    # -- spans -----------------------------------------------------------

    def _open(self) -> list[Any]:
        """Push a frame: [child seconds, start, id, parent id]."""
        parent = self._stack[-1][2] if self._stack else 0
        frame = [0.0, time.perf_counter(), self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[Any]) -> tuple[float, float]:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        if self._stack:
            self._stack[-1][0] += duration
        return duration, duration - frame[0]

    def _record(self, layer: str, frame: list[Any], duration: float,
                self_s: float) -> None:
        self.self_s[layer] += self_s
        self.spans.append((frame[2], frame[3], layer, self.episode, self.label,
                           frame[1], duration, self_s))

    def begin_episode(self, index: int, label: str) -> None:
        """Open the root span of episode ``index``; clears layer totals."""
        self.episode = index
        self.label = label
        self.self_s.clear()
        self.calls.clear()
        self._root = self._open()

    def end_episode(self) -> tuple[float, float]:
        """Close the root span; returns (duration, seconds under a layer)."""
        frame = self._root
        covered = frame[0]
        duration, self_s = self._close(frame)
        self._record(ROOT, frame, duration, self_s)
        return duration, covered

    # -- wrappers --------------------------------------------------------

    def timed(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if inspect.isgeneratorfunction(fn):
            return self._timed_generator(layer, fn)
        calls = self.calls
        labelled = "{" in layer

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = layer.format(name=args[0].name) if labelled else layer
            calls[name] += 1
            frame = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                duration, self_s = self._close(frame)
                self._record(name, frame, duration, self_s)
        return wrapper

    def _timed_generator(self, layer: str,
                         fn: Callable[..., Iterator[Any]]) -> Callable[..., Any]:
        """One span per generator, timed over its resumptions only."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            calls[layer] += 1
            inner = fn(*args, **kwargs)
            first: list[Any] | None = None
            total = own = 0.0
            try:
                while True:
                    frame = self._open()
                    if first is None:
                        first = frame
                    else:
                        frame[2] = first[2]  # one span id for all resumptions
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        duration, self_s = self._close(frame)
                        total += duration
                        own += self_s
                    yield item
            finally:
                inner.close()
                if first is not None:
                    self._record(layer, first, total, own)
        return wrapper

    def counted(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / output ------------------------------------------------

    def install(self) -> None:
        """Wrap every target (and each subclass override of a method)."""
        # Import first, so subclasses defined by any target module exist.
        modules = [importlib.import_module(where.partition(":")[0])
                   for _layer, _how, where, _attrs in TARGETS]
        for (layer, how, where, attrs), module in zip(TARGETS, modules):
            class_name = where.partition(":")[2]
            wrap = self.timed if how == TIMED else self.counted
            if class_name:
                for owner in _with_subclasses(getattr(module, class_name)):
                    for attr in attrs:
                        if attr in vars(owner):
                            setattr(owner, attr, wrap(layer, vars(owner)[attr]))
                continue
            for attr in attrs:
                original = getattr(module, attr)
                wrapped = wrap(layer, original)
                # Rebind every ``from module import attr`` copy too.
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") \
                            and getattr(loaded, attr, None) is original:
                        setattr(loaded, attr, wrapped)

    def write(self, path: Path) -> None:
        """Write every span as JSON lines (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "layer", "episode", "label", "start_s",
                "duration_s", "self_s")
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                record = dict(zip(keys, span))
                record["workload"] = self.workload
                out.write(json.dumps(record) + "\n")


def _with_subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found

