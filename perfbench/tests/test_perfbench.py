"""Tests of the benchmark itself: span arithmetic, counters, metric names,
and a tiny-size run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Patcher, Recorder, Span, covered_length, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(id, start, end, parent=None, name="x", op=0, **counts):
    return Span(name, id, parent, op, start, end, dict(counts))


class Clock:
    """Advances one tick per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),
        span(3, 6.0, 7.5, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.5)


def test_self_time_of_siblings_and_overlapping_children():
    spans = [
        span(0, 0.0, 2.0),
        span(1, 2.0, 5.0),
        # children from two threads overlap: their union counts once
        span(2, 2.5, 4.0, parent=1),
        span(3, 3.0, 4.5, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(2.0)
    assert selfs[1] == pytest.approx(3.0 - 2.0)
    assert covered_length([(0, 1), (5, 9)], 0.5, 6.0) == pytest.approx(1.5)


def test_recorder_nests_spans_and_keeps_op():
    recorder = Recorder(clock=Clock())
    inner = recorder.wrap("m.inner", lambda: None)
    outer = recorder.wrap("m.outer", lambda: inner())
    recorder.op = 7
    outer()
    first, second = recorder.spans
    assert (first.name, first.parent, first.op) == ("m.outer", None, 7)
    assert (second.name, second.parent) == ("m.inner", first.id)
    assert first.start < second.start < second.end < first.end


def test_counters_credit_the_innermost_open_span():
    recorder = Recorder(clock=Clock())
    fft = recorder.counter(lambda n: n, lambda n: {"fft_calls": 1, "fft_points": n})

    def body():
        fft(4)
        inner()
        fft(2)

    inner = recorder.wrap("m.inner", lambda: fft(8))
    outer = recorder.wrap("m.outer", body)
    fft(100)  # no span open: dropped
    outer()
    by_name = {s.name: s.counts for s in recorder.spans}
    assert by_name["m.outer"] == {"fft_calls": 2, "fft_points": 6}
    assert by_name["m.inner"] == {"fft_calls": 1, "fft_points": 8}


def test_span_metrics_are_per_op_except_setup_spans():
    spans = [
        span(0, 0.0, 2.0, name="scenarios.load_fixture", op=layers.SETUP_OP),
        span(1, 0.0, 1.0, name="sensing.synthesize_observations", op=layers.SETUP_OP),
        span(2, 10.0, 14.0, name="sensing.synthesize_observations", op=0, rng_streams=6),
        span(3, 11.0, 12.0, name="sensing.extract_coset_observations", parent=2, op=0,
             record_bytes=2e6),
        span(4, 20.0, 22.0, name="sensing.synthesize_observations", op=1, rng_streams=4),
    ]
    metrics = layers.span_metrics(spans, ops=2)
    assert metrics["scenarios.load_fixture.self_s"] == pytest.approx(2.0)
    assert metrics["scenarios.load_fixture.calls"] == 1
    assert metrics["sensing.synthesize_observations.self_s"] == pytest.approx((3.0 + 2.0) / 2)
    assert metrics["sensing.synthesize_observations.calls"] == 1
    assert metrics["sensing.extract_coset_observations.calls"] == 0.5
    assert metrics["sensing.rng_streams"] == 5
    assert metrics["sensing.record_mb"] == pytest.approx(1.0)
    assert metrics["estimator.sample_covariance.gflop_per_s"] == 0.0


def test_install_wraps_every_target_and_restores():
    import numpy
    import capspec.runner
    import capspec.sensing

    original = capspec.sensing.synthesize_observations
    fft = numpy.fft.fft
    recorder, patcher = Recorder(), Patcher()
    missing = layers.install(recorder, patcher)
    try:
        assert missing == []
        # one wrapper under every name the package holds the function by
        assert capspec.runner.synthesize_observations is not original
        assert capspec.runner.synthesize_observations is capspec.sensing.synthesize_observations
        assert numpy.fft.fft is not fft
    finally:
        patcher.restore()
    assert capspec.runner.synthesize_observations is original
    assert capspec.sensing.synthesize_observations is original
    assert numpy.fft.fft is fft


def test_benchmark_json_lists_every_printed_metric():
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert per_layer == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_of_each_workload(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    info = json.loads(done.stdout.strip().splitlines()[-2])
    assert info["provenance"]["seed"] == 11
    assert info["provenance"]["traced"] is bool(trace)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-nmse-table2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
