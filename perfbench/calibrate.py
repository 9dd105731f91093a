"""The calibration slice every host-time metric is divided by.

A fixed pure-Python loop over the same kinds of work the simulator does
(keyed BLAKE2b forks, bytes assembly and slicing, integer arithmetic, and
updates of a dict too big for the CPU caches), timed around each episode
and each set-up.  A metric in *calibrated seconds* is

    measured seconds * (REFERENCE_S / slice seconds) ** exponent

where the exponent is the workload's ``slice_exponent`` (1, except for
the campaign; see ``workloads.py``).  So a VM that runs everything 1.6x
slower for a few seconds (this class of host alternates between speed
phases) moves the slice and the episode together and the ratio stays
put.

The slice imports nothing from ``repro`` and allocates no objects the
cyclic garbage collector tracks: its dict is built once at import and only
ever holds ints, and hash objects, bytes and ints are untracked.  So the
simulator's heap cannot make the slice slower (which would fake a gain).
It runs with ``gc`` disabled.

Of the candidates tried on the reference host (hashing-heavy, pure
dict/int, and this mix), this mix tracked all four workloads' speed best
over 5 s and 15 s windows of a four-minute run.
"""

import gc
import hashlib
import time

ITERATIONS = 3000
"""Loop trips per slice: about 5 ms on the reference host."""

REFERENCE_S = 0.0050
"""The slice's median seconds on the reference host (2-vCPU x86-64 VM,
CPython 3.11, fast phase), pinned so calibrated seconds equal wall seconds
there."""

_KEY = b"perfbench-calibration-slice-key"
_MASK = (1 << 16) - 1
_TABLE = dict.fromkeys(range(_MASK + 1), 0)
"""Big enough (a few MB) that the slice waits on memory the way the
simulator's caches and tables do, not only on the interpreter."""
_BASE = hashlib.blake2b(key=_KEY, digest_size=8)


def calibration_slice() -> int:
    """Run the fixed loop once; returns a checksum so no work is elided."""
    table = _TABLE
    base = _BASE
    mask = _MASK
    acc = 0
    for i in range(ITERATIONS):
        fork = base.copy()
        fork.update(i.to_bytes(8, "little"))
        block = fork.digest() * 8
        lane = (i & 7) * 8
        value = int.from_bytes(block[lane:lane + 8], "little")
        for shift in (0, 16, 32):
            slot = (value >> shift) & mask
            table[slot] = (table[slot] + i) & 0xFFFFF
        acc ^= table[value & mask] + len(block)
    return acc


def time_slice() -> float:
    """Wall seconds of one calibration slice, with ``gc`` off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_slice()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrated(seconds: float, slice_s: float, exponent: float = 1.0) -> float:
    """``seconds`` expressed in calibrated seconds, for a workload whose
    speed follows the slice's to the power ``exponent``."""
    return seconds * (REFERENCE_S / slice_s) ** exponent
