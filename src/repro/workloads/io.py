"""Trace file I/O.

Traces serialize to JSON-lines (one op per line) so workloads can be
generated once, inspected with standard tools, shared between experiments,
and replayed byte-identically across library versions.
"""

import base64
import json
from pathlib import Path

from repro.common.errors import AddressError, ConfigError
from repro.workloads.trace import MemoryOp, OpKind


def op_to_json(op: MemoryOp) -> str:
    record: dict[str, object] = {"op": op.kind.value, "addr": op.address}
    if op.data is not None:
        record["data"] = base64.b64encode(op.data).decode("ascii")
    return json.dumps(record, separators=(",", ":"))


def op_from_json(line: str) -> MemoryOp:
    """Parse one trace line.

    Every malformed line raises :class:`ConfigError`: bad JSON, a value
    that is not an object, a missing or mistyped field, bad base64 data,
    or an op :class:`MemoryOp` rejects (a misaligned address, a short
    payload).
    """
    try:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ConfigError(f"trace line is not a JSON object: {line!r}")
        kind = OpKind(record["op"])
        address = int(record["addr"])
        data = None
        if "data" in record:
            data = base64.b64decode(record["data"], validate=True)
        return MemoryOp(kind, address, data)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
            AddressError) as error:
        raise ConfigError(f"malformed trace line: {line!r}") from error


def save_trace(trace: list[MemoryOp], path: str | Path) -> Path:
    """Write a trace as JSON-lines; returns the path written."""
    path = Path(path)
    with path.open("w") as handle:
        for op in trace:
            handle.write(op_to_json(op) + "\n")
    return path


def load_trace(path: str | Path) -> list[MemoryOp]:
    """Read a JSON-lines trace file; malformed content raises
    :class:`ConfigError`."""
    path = Path(path)
    trace: list[MemoryOp] = []
    try:
        with path.open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    trace.append(op_from_json(line))
    except UnicodeDecodeError as error:
        raise ConfigError(f"trace {path} is not UTF-8 text") from error
    return trace
