"""Fast tests of the benchmark itself: every workload once at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanStats, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "synth_exp6": workloads.SynthSize(n_per_class=20, epochs=2),
    "loso_exp1_310": workloads.LosoSize(subjects=2, rows=30, dim=20, epochs=2, eval_calls=10),
    "extract_de": workloads.ExtractSize(recordings=2, seconds=2, channels=3),
}


def test_spec_names_the_implemented_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def run_tiny(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SWEEP_STEPS", {32: 2, 128: 1, 512: 1})
    record = run.run(name, seed=5, seconds=0.0, trace=trace, size=TINY[name])
    return record, run.result_line(record, SPEC)


@pytest.mark.parametrize("name", list(TINY))
def test_every_end_to_end_metric_is_emitted_with_unit_and_verdict(name, tmp_path, monkeypatch):
    record, line = run_tiny(name, False, tmp_path, monkeypatch)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0, metric["name"]
    verdicts = record["checks"].verdicts
    assert verdicts, "no check ran"
    assert all(passed == total for passed, total, _ in verdicts.values()), verdicts


def test_traced_run_emits_every_per_layer_metric(tmp_path, monkeypatch):
    record, line = run_tiny("synth_exp6", True, tmp_path, monkeypatch)
    assert line["correct"], record["checks"].verdicts
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["kernels.self_s"] > 0 and values["kernels.calls_per_step"] > 0
    assert values["trainer.steps"] == 2
    assert record["checks"].verdicts["tracing_keeps_params"][:2] == [1, 1]
    assert record["absent_spans"] == []


def test_loso_makes_no_kernel_calls(tmp_path, monkeypatch):
    _, line = run_tiny("loso_exp1_310", True, tmp_path, monkeypatch)
    assert line["metrics"]["kernels.calls_per_step"]["value"] == 0.0
    assert line["metrics"]["kernels.self_s"]["value"] == 0.0
    assert line["metrics"]["trainer.steps"]["value"] > 0
    assert line["metrics"]["sweep.b128.step_ms"]["value"] == 0.0


ENTRY_POINTS = {"trainer.train", "evaluation.evaluate", "evaluation.run_protocol",
                "data.load_dataset", "cli.main"}


@pytest.mark.parametrize("name", list(TINY))
def test_trace_holds_only_the_timed_requests(name, tmp_path, monkeypatch):
    """Checks that call the package (extract_de's closed form) record no span."""
    record, line = run_tiny(name, True, tmp_path, monkeypatch)
    top = {s[0] for s in record["tracer"].spans if s[3] < 0}
    assert top and top <= ENTRY_POINTS, top - ENTRY_POINTS
    traced_wall = sum(p["wall_s"] for p in record["passes"]["traced"])
    assert line["metrics"]["features.build_s"]["value"] <= traced_wall


def test_tracer_reports_deleted_function_as_absent(monkeypatch):
    from ddalign import kernels

    monkeypatch.delattr(kernels, "mmd_with_grad")
    with Tracer().install() as tracer:
        assert "kernels.mmd_with_grad" in tracer.absent(run.EXPECTED_SPANS)
        assert "kernels.cmmd_with_grad" not in tracer.absent(run.EXPECTED_SPANS)
    assert not hasattr(kernels, "mmd_with_grad")
    assert not hasattr(kernels.cmmd_with_grad, "__wrapped__")


def test_self_time_excludes_children():
    mod = types.ModuleType("toy")
    mod.child = lambda: time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        mod.child()

    mod.parent = parent
    with Tracer() as tracer:
        tracer.wrap(mod, "parent", "toy.parent")
        tracer.wrap(mod, "child", "toy.child")
        assert not tracer.wrap(mod, "gone", "toy.gone")
        mod.parent()
    stats = SpanStats(tracer)
    (p_name, p0, p1, p_parent, _), (c_name, c0, c1, c_parent, _) = tracer.spans
    assert (p_name, p_parent, c_name, c_parent) == ("toy.parent", -1, "toy.child", 0)
    assert stats.span_self("toy.parent") == pytest.approx((p1 - p0) - (c1 - c0))
    assert stats.span_self("toy.child") == pytest.approx(c1 - c0)
    assert mod.parent is parent


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "synth_exp6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
