"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

They cover the self-time arithmetic on a synthetic span tree, the host-speed
correction, a tiny-size pass of every workload through the correctness
gate, workload separation in the traced counts, that untraced samples
install no wrappers, and the benchmark's command-line contract.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH = os.path.join(ROOT, ".bench_out", "tests")
sys.path.insert(0, BENCH_DIR)

import sample  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


def _tiny(workload: str, trace: bool) -> dict:
    seed = workloads.WORKLOADS[workload].pool()[0]
    return sample.run_sample(workload, "tiny", seed, trace, os.path.join(SCRATCH, workload))


# -- self times ------------------------------------------------------------------


def test_self_times_of_a_synthetic_span_tree():
    # root [0, 10] -> a [1, 4] -> b [2, 3];  root -> c [5, 6.5];  second root d [11, 12]
    tree = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 6.5, 0],
        ["d", 11.0, 12.0, None],
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({"root": 5.5, "a": 2.0, "b": 1.0, "c": 1.5, "d": 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0 + 1.0)  # the root durations
    assert spans.child_calls(tree, "a", "b") == 1
    assert spans.child_calls(tree, "root", "b") == 0


def test_tracer_records_nesting_with_an_injected_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    leaf_t = tracer._wrap(leaf, "leaf")
    outer_t = tracer._wrap(lambda: leaf_t() + leaf_t(), "outer")
    assert outer_t() == 2
    # outer [0, 5], leaf [1, 2], leaf [3, 4]
    assert [s[0] for s in tracer.spans] == ["outer", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert spans.self_times(tracer.spans) == {"outer": 3.0, "leaf": 2.0}
    m = spans.layer_metrics(tracer, wall_s=6.0, output_bytes=0)
    assert m["trace.unattributed_s"] == pytest.approx(1.0)


# -- correctness gate -----------------------------------------------------------------


def test_gate_compares_floats_by_relative_tolerance_and_flags_exactly():
    ref = {"x": 2.0, "flag": True, "n": 1}
    assert workloads.check(dict(ref), ref) == (True, 0.0, [])
    ok, dev, bad = workloads.check({"x": 2.0 * (1 + 1e-6), "flag": True, "n": 1}, ref)
    assert not ok and dev == pytest.approx(1e-6) and bad[0].startswith("x:")
    ok, dev, _ = workloads.check({"x": 2.0, "flag": False, "n": 1}, ref)
    assert not ok and dev == 1.0
    ok, _, bad = workloads.check({"x": 2.0, "flag": True}, ref)
    assert not ok and "n:" in bad[0]
    assert workloads.check(ref, None)[0] is False


def test_end_to_end_times_are_corrected_to_the_reference_host_speed():
    import run

    fast = {"wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 10.0, "path_steps": 100, "host_speed": 1.0}
    slow = {**fast, "wall_s": 2.0, "setup_s": 1.0, "host_speed": 0.5}  # the same work at half speed
    m = run.end_to_end([fast, slow, slow])
    assert m["wall_s"] == pytest.approx(1.0) and m["setup_s"] == pytest.approx(0.5)
    assert m["path_steps_per_s"] == pytest.approx(100.0) and m["peak_rss_mb"] == 10.0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_workload_passes_the_gate(workload):
    rec = _tiny(workload, trace=False)
    assert rec["ok"], rec["mismatches"]
    assert rec["max_rel_dev"] <= workloads.RTOL
    assert rec["path_steps"] > 0 and rec["wall_s"] > 0 and rec["setup_s"] > 0


def test_gate_catches_a_changed_result(monkeypatch):
    import smallmass.runner

    original = smallmass.runner.run_fd_converge

    def skewed(cfg, out_dir):
        result = original(cfg, out_dir)
        result["report"]["with_S"]["z"] *= 1.0 + 1e-6
        return result

    monkeypatch.setattr(smallmass.runner, "run_fd_converge", skewed)
    rec = _tiny("fd_mc", trace=False)
    assert not rec["ok"]
    assert rec["mismatches"] == [m for m in rec["mismatches"] if m.startswith("fd.with_S.z:")]


# -- tracing ------------------------------------------------------------------------


def _patched_now() -> list:
    return [owner.__dict__[attr] for owner, attr, _ in spans.patch_points()]


def test_untraced_samples_install_no_wrappers(monkeypatch):
    sample.import_package()
    before = _patched_now()
    installed = []
    monkeypatch.setattr(spans.Tracer, "install", lambda self: installed.append(self))
    rec = _tiny("single_path", trace=False)
    assert installed == [] and "layers" not in rec
    assert all(a is b for a, b in zip(_patched_now(), before))


def test_traced_samples_restore_the_package():
    sample.import_package()
    before = _patched_now()
    rec = _tiny("ladder64", trace=True)
    assert rec["ok"] and rec["layers"]["basis.synthesize.calls"] > 0
    assert all(a is b for a, b in zip(_patched_now(), before))


@pytest.fixture(scope="module")
def traced_layers():
    return {w: _tiny(w, trace=True)["layers"] for w in WORKLOAD_NAMES}


def test_workload_separation(traced_layers):
    fd, ladder, single = traced_layers["fd_mc"], traced_layers["ladder64"], traced_layers["single_path"]
    assert fd["basis.synthesize.calls"] == fd["basis.analyze.calls"] == 0
    assert fd["finite_dim.increments.calls"] > 0
    for m in (ladder, single):
        assert m["finite_dim.increments.calls"] == 0
        assert m["finite_dim.simulate_fd.self_s"] == m["finite_dim.simulate_fd_limit.self_s"] == 0.0
    assert single["noise.refine.calls"] > 0 and single["resolvent.apply.calls"] > 0
    for m in (ladder, fd):
        assert m["noise.refine.calls"] == 0 and m["resolvent.apply.calls"] == 0
    assert single["basis.synthesize.rows_per_call"] == 1.0
    assert ladder["basis.synthesize.rows_per_call"] > 1.0
    assert single["models.g_inverse.forward_per_call"] > 1.0
    assert single["resolvent.iters_per_apply"] > 1.0


def test_self_times_and_unattributed_time_sum_to_the_traced_wall(traced_layers):
    for m in traced_layers.values():
        total = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["trace.unattributed_s"]
        assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)


def test_per_layer_metrics_match_benchmark_json(traced_layers):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    produced = {k: spans.unit_of(k) for k in traced_layers["ladder64"]}
    produced["trace.overhead_ratio"] = spans.unit_of("trace.overhead_ratio")
    assert declared == produced


# -- command line -----------------------------------------------------------------------


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(trace):
    proc = _run(ROOT, "--workload", "fd_mc", "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end" if trace == "0" else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_the_package():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, "--workload", "ladder64", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
