"""Tests of the benchmark itself, at tiny sizes (--fast).

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seconds", "0.1",
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_spec_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc, result = bench("--workload", workload, "--fast", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "failed_frac=0" in proc.stdout and '"commit"' in proc.stdout


def test_corrupted_reference_counts_as_failed(tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    sweep = ref["fast"]["sweep-beta"]
    sweep["beta_09"]["diverged_at"] += 1
    sweep["beta_00"]["rows"]["100"][0] *= 1 + 1e-9
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    proc, result = bench("--workload", "sweep-beta", "--fast", "--seed", "7",
                         "--reference", str(bad))
    assert proc.returncode == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "beta_09: diverged_at" in proc.stderr
    assert "beta_00: row 100 column 1" in proc.stderr


def test_default_seed_checks_recorded_values(tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    ref["fast"]["ref-dta"]["trace"]["q"] += 1e-6
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    proc, result = bench("--workload", "ref-dta", "--fast", "--reference", str(bad))
    assert result["failed"] == result["attempted"] and "trace: q_n" in proc.stderr


def test_missing_wrapped_name_is_loud(monkeypatch):
    monkeypatch.setitem(spans.WRAPPED, "engine", ("run", "renamed_away"))
    with pytest.raises(spans.SpanCoverageError, match="engine.renamed_away"):
        with spans.Tracer():
            pass


def test_silent_span_is_loud_and_tracer_restores():
    from dtalloc import cli, config
    original = config.resolve
    with spans.Tracer() as tracer:
        assert cli.resolve is not original
    assert cli.resolve is original and config.resolve is original
    with pytest.raises(spans.SpanCoverageError, match="engine.run"):
        spans.check_coverage(tracer.spans, spans.required_spans(sweeps=False))


def test_self_time_subtracts_children():
    outer = spans.Span(0, "config.resolve", None)
    inner = spans.Span(1, "network.spectral_report", 0)
    outer.start, inner.start, inner.end, outer.end = 0.0, 1.0, 3.0, 4.0
    run_span = spans.Span(2, "engine.run", None)
    run_span.start, run_span.end = 4.0, 10.0
    run_span.info = {"replicas": 2, "requested": 5, "simulated": 3}
    m = spans.layer_metrics([outer, inner, run_span])
    assert m["config.resolve_s"] == 2.0
    assert m["network.spectral_report_s"] == 2.0
    assert m["engine.replica_steps"] == 6 and m["engine.useful_step_ratio"] == 0.6


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", "ref-dta", cwd=tmp_path,
                         script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0 and result is None
