"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import cspmon  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

TINY_SECONDS = 0.05


@pytest.fixture
def tiny_trace(monkeypatch):
    monkeypatch.setattr(wl, "TRACE_SECONDS", TINY_SECONDS)


def test_benchmark_json_registers_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert set(run.PROBES) == set(wl.WORKLOADS)
    assert {p for names in run.PROBES.values() for p in names} == set(wl.PROBES)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_end_to_end_metrics_emitted(name):
    out = run.child_measure(wl, wl.WORKLOADS[name], seed=1, seconds=TINY_SECONDS)
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in out["metrics"].values())
    assert out["attempted"] > 0 and out["failed"] == 0, out["notes"]
    assert out["counts"]["setup_samples"] >= 1


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_per_layer_metrics_emitted(name, tiny_trace, tmp_path):
    w = wl.WORKLOADS[name]
    traced = run.child_traced(wl, w, 1, tmp_path / "spans.json")
    plain = run.child_plain(wl, w, 1)
    profile = run.child_profile(wl, w, 1)
    metrics, not_run, absent = run.layer_metrics(traced, plain, profile)
    assert list(metrics) == list(run.PER_LAYER)
    assert absent == []
    assert all(m["unit"] for m in metrics.values())
    assert {n.split(".", 1)[0] for n in not_run} == set(tracer.LAYERS) - set(w.layers)
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    assert all(metrics[n]["value"] == 0 for n in not_run)
    assert traced["failed"] == 0
    assert json.loads((tmp_path / "spans.json").read_text())["spans"]


def test_traced_counts_repeat_across_processes(tmp_path):
    counts = []
    for name in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sessions", "--seed", "7",
             "--seconds", "1", "--child", "traced", "--spans", str(tmp_path / name)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env={"PYTHONHASHSEED": run.HASH_SEED, "PATH": ""},
        )
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v for k, v in metrics.items() if k.endswith((".calls", ".misses"))})
    assert counts[0] and counts[0] == counts[1]


def _tiny_interleave():
    w = wl.WORKLOADS["interleave"]
    return w, w.parts(seed=3, seconds=2 * w.SESSION_S)


def test_wrong_expected_verdict_raises_failure_share():
    w, parts = _tiny_interleave()
    assert wl.run_parts(w, parts).failed == 0
    _, events, expected = parts[0].sessions[0]
    expected[0] = wl.FAILED  # deliberately wrong: the first event is allowed
    res = wl.run_parts(w, parts)
    assert res.failed == 1
    assert res.failed / res.attempted > 0
    assert res.attempted == sum(len(e) for p in parts for _, e, _ in p.sessions)


def test_exception_counts_as_failure_and_run_continues():
    w, parts = _tiny_interleave()
    _, events, _ = parts[0].sessions[0]
    events[1] = "not_in_alphabet"  # feed raises OutOfAlphabetError
    res = wl.run_parts(w, parts)
    assert res.failed == 1
    assert "OutOfAlphabetError" in res.notes[0]
    assert res.counts["sessions"] == 2


def test_tracer_restores_bindings_and_reports_missing_names_absent():
    original = cspmon.feed
    with tracer.Tracer() as tr:
        assert cspmon.feed is not original
        assert cspmon.monitor.feed is cspmon.feed
    assert cspmon.feed is original and cspmon.monitor.feed is original
    assert tr.cache_delta("terms.no_such_function") is None
    assert tr.cache_delta("terms.substitute") is None  # not cached
    traced = {"wall_s": 1.0, "layers": tracer.LAYERS, "metrics": {"terms.substitute.calls": 3}}
    metrics, _, absent = run.layer_metrics(traced, {"wall_s": 1.0}, {})
    assert metrics["terms.substitute.calls"]["value"] == 3
    assert metrics["terms.is_doomed.misses"]["value"] == 0
    assert "terms.is_doomed.misses" in absent


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", str(TINY_SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
