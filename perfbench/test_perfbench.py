"""Tests of the benchmark's own code: metric coverage, span arithmetic, missing bindings."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import pafimocs.filters  # noqa: E402

from perfbench import tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class ManualClock:
    """A clock that only moves when the code under test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a couple of frames."""
    monkeypatch.setattr(
        workloads,
        "TRACKER_WORKLOADS",
        {
            name: workloads.TrackerWorkload(spec.labels, 1, 2)
            for name, spec in workloads.TRACKER_WORKLOADS.items()
        },
    )
    monkeypatch.setattr(workloads, "CLI_FRAMES", 2)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(tiny, tmp_path, name):
    src = str(ROOT / "src")
    plain = workloads.run(name, 1, 0.0, False, src, str(tmp_path / "plain"))
    assert plain.correct and plain.attempted > 0 and plain.failed == 0
    assert sorted(plain.metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(value > 0 for value, _ in plain.metrics.values())

    traced = workloads.run(name, 1, 0.0, True, src, str(tmp_path / "traced"))
    assert traced.correct
    assert sorted(traced.metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    for metrics in (plain.metrics, traced.metrics):
        assert all(units[key] == unit for key, (_, unit) in metrics.items())


def test_self_time_subtracts_only_direct_children():
    clock = ManualClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        wrapped_leaf()
        wrapped_leaf()

    def top():
        clock.advance(4.0)
        wrapped_middle()
        clock.advance(0.5)

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    tracer.wrap("top", top)()

    assert tracer.layers["leaf"].calls == 2
    assert tracer.layers["leaf"].self_s == pytest.approx(2.0)
    assert tracer.layers["middle"].self_s == pytest.approx(2.0)
    assert tracer.layers["middle"].durations == [pytest.approx(4.0)]
    assert tracer.layers["top"].self_s == pytest.approx(4.5)
    assert tracer.layers["top"].durations == [pytest.approx(8.5)]


def test_span_is_closed_when_the_call_raises():
    clock = ManualClock()
    tracer = tracing.Tracer(clock=clock)

    def failing():
        clock.advance(1.0)
        raise ValueError("boom")

    def outer():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            wrapped_failing()

    wrapped_failing = tracer.wrap("failing", failing)
    tracer.wrap("outer", outer)()
    assert tracer.layers["failing"].self_s == pytest.approx(1.0)
    assert tracer.layers["outer"].self_s == pytest.approx(1.0)


def test_missing_binding_leaves_its_metrics_out():
    original = pafimocs.filters.log_likelihood
    tracer = tracing.Tracer()
    bindings = (
        ("pafimocs.filters", "no_such_solver", "solver.solve", None),
        ("pafimocs.filters", "log_likelihood", "observation.log_likelihood", None),
    )
    with tracing.traced(tracer, bindings):
        assert pafimocs.filters.log_likelihood is not original
    assert pafimocs.filters.log_likelihood is original
    assert tracer.missing == ["pafimocs.filters.no_such_solver"]
    metrics = tracing.layer_metrics(tracer, 1)
    assert not any(name.startswith("solver.solve") for name in metrics)
    assert metrics["observation.log_likelihood.calls"] == (0.0, "count")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "bootstrap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
