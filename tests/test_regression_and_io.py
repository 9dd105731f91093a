"""Regression comparison tool and trace file I/O."""

import base64
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.experiments.regression import (
    CellDrift,
    compare_runs,
    main as regression_main,
)
from repro.workloads.generators import kvstore_trace
from repro.workloads.io import load_trace, op_from_json, save_trace
from repro.workloads.trace import MemoryOp, OpKind
from tests.conftest import examples


def _run_doc(value: float = 10.0, passed: bool = True) -> dict:
    return {
        "scale": 16,
        "experiments": [{
            "experiment_id": "figX",
            "headers": ["scheme", "requests", "ratio"],
            "rows": [["horus", 100, 1.25], ["base", 1000, value]],
            "checks": [{"claim": "horus wins", "passed": passed,
                        "measured": "x"}],
        }],
    }


class TestCompareRuns:
    def test_identical_runs_are_clean(self):
        report = compare_runs(_run_doc(), _run_doc())
        assert report.clean
        assert "no regressions" in report.to_text()

    def test_within_tolerance_is_clean(self):
        # 10.0 -> 10.05 is a 0.5% move: inside the 1% default tolerance.
        report = compare_runs(_run_doc(10.0), _run_doc(10.05),
                              tolerance=0.01)
        assert report.clean

    def test_drift_beyond_tolerance_is_reported(self):
        report = compare_runs(_run_doc(10.0), _run_doc(12.0))
        assert not report.clean
        assert len(report.drifts) == 1
        drift = report.drifts[0]
        assert drift.column == "ratio"
        assert drift.row_label == "base"
        assert drift.relative_change == pytest.approx(0.2)

    def test_check_flip_is_reported(self):
        report = compare_runs(_run_doc(passed=True), _run_doc(passed=False))
        assert report.check_flips
        assert "PASS->MISS" in report.check_flips[0]

    def test_missing_experiment_is_reported(self):
        new = _run_doc()
        new["experiments"] = []
        report = compare_runs(_run_doc(), new)
        assert report.missing_experiments == ["figX"]

    def test_non_numeric_cells_are_ignored(self):
        old, new = _run_doc(), _run_doc()
        old["experiments"][0]["rows"][0][0] = "horus"
        new["experiments"][0]["rows"][0][0] = "horus"
        assert compare_runs(old, new).clean

    def test_cli_roundtrip(self, tmp_path):
        old_path = tmp_path / "old.json"
        new_path = tmp_path / "new.json"
        old_path.write_text(json.dumps(_run_doc(10.0)))
        new_path.write_text(json.dumps(_run_doc(15.0)))
        assert regression_main([str(old_path), str(new_path)]) == 1
        new_path.write_text(json.dumps(_run_doc(10.0)))
        assert regression_main([str(old_path), str(new_path)]) == 0

    def test_drift_str_is_readable(self):
        drift = CellDrift("figX", "base", "ratio", 10.0, 12.0)
        assert "figX[base].ratio" in str(drift)
        assert "+20.0%" in str(drift)


class TestTraceIO:
    def test_roundtrip_preserves_everything(self, tmp_path):
        trace = kvstore_trace(100, footprint_blocks=32, seed=9)
        path = save_trace(trace, tmp_path / "trace.jsonl")
        assert load_trace(path) == trace

    def test_reads_are_compact(self, tmp_path):
        trace = [MemoryOp(OpKind.READ, 64)]
        path = save_trace(trace, tmp_path / "t.jsonl")
        line = path.read_text().strip()
        assert "data" not in line

    def test_write_payload_roundtrip(self, tmp_path):
        payload = bytes(range(64))
        trace = [MemoryOp(OpKind.WRITE, 0, payload)]
        path = save_trace(trace, tmp_path / "t.jsonl")
        assert load_trace(path)[0].data == payload

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"op":"read","addr":64}\n\n\n')
        assert len(load_trace(path)) == 1

    def test_malformed_line_raises(self):
        with pytest.raises(ConfigError):
            op_from_json("not json at all")
        with pytest.raises(ConfigError):
            op_from_json('{"op":"teleport","addr":0}')

    @pytest.mark.parametrize("line", [
        "null", "[1,2]", '"x"', "7", "true",
        '{"op":"write","addr":0,"data":"!!not base64!!"}',
        '{"op":"write","addr":0,"data":5}',
        '{"op":"write","addr":0,"data":"AAAA"}',
        '{"op":"read","addr":3}',
        '{"op":"read","addr":1e400}',
        '{"op":"read","addr":[64]}',
        '{"op":["read"],"addr":64}',
        '{"addr":64}',
    ])
    def test_every_malformed_line_raises_config_error(self, line):
        with pytest.raises(ConfigError):
            op_from_json(line)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
_FIELDS = st.fixed_dictionaries({}, optional={
    "op": st.sampled_from(["read", "write"]) | _JSON_VALUES,
    "addr": st.integers(-128, 1 << 20).map(lambda a: a * 64)
    | st.integers() | _JSON_VALUES,
    "data": st.binary(max_size=80).map(
        lambda raw: base64.b64encode(raw).decode()) | _JSON_VALUES,
})
_TRACE_LINES = st.one_of(
    _FIELDS.map(json.dumps),
    _JSON_VALUES.map(json.dumps),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=40))


class TestTraceLoaderFuzz:
    """Whatever a trace file holds, loading it either succeeds or raises
    ConfigError — nothing else escapes."""

    @staticmethod
    def _load(path):
        try:
            return load_trace(path)
        except ConfigError:
            return None

    @given(lines=st.lists(_TRACE_LINES, max_size=6))
    @settings(max_examples=examples(200),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_text_lines_only_raise_config_error(self, tmp_path, lines):
        path = tmp_path / "fuzz.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8")
        self._load(path)

    @given(raw=st.binary(max_size=200))
    @settings(max_examples=examples(100),
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_raw_bytes_only_raise_config_error(self, tmp_path, raw):
        path = tmp_path / "fuzz.jsonl"
        path.write_bytes(raw)
        self._load(path)
