"""Tests of the benchmark itself: ``python -m pytest perf -q``.

Every job runs at tiny parameters passed as function arguments; the
benchmark's own sizes are only exercised by ``perf/run.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
for path in (str(ROOT / "src"), str(PERF)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.analysis.run import clear_cache  # noqa: E402
from workloads import Stopwatch  # noqa: E402

SPEC = run.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

TINY = {
    "fig8": dict(kernels=("fib", "nqueens"), size="test"),
    "sweep": dict(kernels=("fib",), size="test", l2_kb=(128, 256),
                  link_latency=(500,)),
    "service": dict(kinds=("zipf", "ring"), protocols=("mesi", "sisd"),
                    size="test"),
    "ingest": dict(ops_per_thread=20),
}
TINY_OPS = {"fig8": 4, "sweep": 2 + 2 * 2, "service": 4, "ingest": 4}


def tiny_job(workload, tmp_path, monkeypatch, tracer=None):
    """Run one job at tiny size in ``tmp_path``; return (ops, info, seconds).

    Clears the in-process result cache first, as a fresh child starts."""
    clear_cache()
    monkeypatch.chdir(tmp_path)
    clock = Stopwatch()
    if tracer is None:
        ops, info = workloads.JOBS[workload](42, clock, **TINY[workload])
    else:
        with tracer:
            ops, info = workloads.JOBS[workload](42, clock, **TINY[workload])
    return ops, info, clock.seconds


def as_child_result(ops, info, seconds):
    """The JSON a child prints for a job (see perf/child.py)."""
    return {"seed": 42, "wall_s": seconds, "peak_rss_mb": 50.0, "info": info,
            "ops": [[op.digest, op.instructions, op.error] for op in ops]}


def test_workloads_match_benchmark_json():
    assert list(workloads.JOBS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", list(TINY))
def test_each_job_runs_clean_at_tiny_size(workload, tmp_path, monkeypatch):
    ops, info, seconds = tiny_job(workload, tmp_path, monkeypatch)
    assert len(ops) == TINY_OPS[workload]
    assert [op.error for op in ops] == [""] * len(ops)
    assert all(len(op.digest) == 64 and op.instructions > 0 for op in ops)
    assert seconds > 0
    if workload == "fig8":
        assert info["geomean_speedup"] > 0


@pytest.mark.parametrize("workload", ["sweep", "ingest"])
def test_replay_diverging_from_the_engine_fails_the_op(
    workload, tmp_path, monkeypatch
):
    import repro.replay

    honest = repro.replay.replay_trace

    def doctored(trace, config=None, obs_sink=None):
        result = honest(trace, config=config, obs_sink=obs_sink)
        result.stats.cycles += 1
        return result

    monkeypatch.setattr(repro.replay, "replay_trace", doctored)
    ops, _, _ = tiny_job(workload, tmp_path, monkeypatch)
    diverged = [op for op in ops if "diverged" in op.error]
    assert len(diverged) == (2 if workload == "sweep" else 4)


def test_sweep_grid_puts_the_recorded_config_first():
    base = workloads.dual_socket()
    grid = workloads.sweep_configs(
        base, workloads.SWEEP_L2_KB, workloads.SWEEP_LINK_LATENCY
    )
    assert len(grid) == 12 and grid[0] == base and len(set(grid)) == 12


def test_doctored_expected_digest_fails_every_op(tmp_path, monkeypatch):
    ops, info, seconds = tiny_job("service", tmp_path, monkeypatch)
    job = as_child_result(ops, info, seconds)
    runs = [{"setup_s": 0.2, "jobs": [job]}]
    digest = run.sim_digest(job["ops"])

    honest = {"seed": 42, "sim_digest": {"service": {"42": digest}}}
    report = run.measure("service", runs, None, 42, SPEC, honest)
    assert (report["attempted"], report["failed"]) == (len(ops), 0)
    assert report["pinned_digest"] == report["sim_digest"]

    doctored = {"seed": 42, "sim_digest": {"service": {"42": "0" * 64}}}
    report = run.measure("service", runs, None, 42, SPEC, doctored)
    assert report["failed"] == report["attempted"] == len(ops)
    assert not run.result_line({"service": report}, trace=False)["correct"]

    # other seeds print their digest without gating
    report = run.measure("service", runs, None, 7, SPEC, doctored)
    assert report["pinned_digest"] is None and report["failed"] == 0


def test_a_pin_fails_only_the_jobs_of_its_seed(tmp_path, monkeypatch):
    ops, info, seconds = tiny_job("service", tmp_path, monkeypatch)
    jobs = [dict(as_child_result(ops, info, seconds), seed=s) for s in (42, 43, 42)]
    runs = [{"setup_s": 0.2, "jobs": jobs}]
    digest = run.sim_digest(jobs[0]["ops"])
    pins = {"seed": 42, "sim_digest": {"service": {"42": "0" * 64, "43": digest}}}
    report = run.measure("service", runs, None, 42, SPEC, pins)
    assert report["failed"] == 2 * len(ops)
    assert list(report["seed_digests"]) == ["42", "43"]


def _namespaces():
    """Every namespace the tracer may patch: modules and the wrapped classes."""
    from repro.coherence.registry import protocol_map

    owners = [spans._resolve(path)[0] for _, path, _ in spans.ENTRY_POINTS]
    owners += list(protocol_map().values()) + list(sys.modules.values())
    return {id(owner): (owner, dict(vars(owner))) for owner in owners
            if isinstance(getattr(owner, "__dict__", None), dict)
            or isinstance(owner, type)}


def test_tracing_restores_every_patched_object_and_keeps_digests(
    tmp_path, monkeypatch
):
    plain, _, _ = tiny_job("service", tmp_path, monkeypatch)
    before = _namespaces()
    tracer = spans.LayerTracer()
    tracer.install()
    patched = {id(owner) for owner, _, _ in tracer._patches}
    try:
        traced, _ = workloads.service(42, Stopwatch(), **TINY["service"])
    finally:
        tracer.uninstall()

    assert len(patched) > 10 and patched <= before.keys()
    for key in patched:
        owner, snapshot = before[key]
        now = vars(owner)
        assert now.keys() == snapshot.keys(), owner
        assert all(now[name] is value for name, value in snapshot.items()), owner
    assert [op.digest for op in traced] == [op.digest for op in plain]
    kept = [s for s in tracer.spans if s[4] == "run_benchmark"]
    assert [s[2] for s in kept] == list(range(len(plain)))  # op id = request id
    # SI/SD's access calls MESI's: one slow call per machine access still
    layers = tracer.metrics(1.0)
    assert layers["coherence.slow_calls"] == layers["sim.machine.access_calls"] > 0


def test_fig8_trace_covers_the_job(tmp_path, monkeypatch):
    tracer = spans.LayerTracer()
    _, _, seconds = tiny_job("fig8", tmp_path, monkeypatch, tracer=tracer)
    layers = tracer.metrics(seconds)
    assert layers["trace.coverage"] >= 0.95
    assert layers["replay.kernel.self_s"] == 0
    assert layers["workloads.memtrace.self_s"] == 0
    assert layers["sim.engine.steps"] > 0


def test_every_printed_metric_is_in_benchmark_json(tmp_path, monkeypatch):
    tracer = spans.LayerTracer()
    ops, info, seconds = tiny_job("sweep", tmp_path, monkeypatch, tracer=tracer)
    traced = as_child_result(ops, info, seconds)
    traced.update(layers=tracer.metrics(seconds), spans=tracer.spans,
                  layer_table=tracer.layer_table())
    runs = [{"setup_s": 0.2, "jobs": [as_child_result(ops, info, seconds)]}]
    report = run.measure("sweep", runs, traced, 42, SPEC, {})

    assert set(tracer.metrics(seconds)) | {"trace.overhead_frac"} == set(PER_LAYER)
    assert set(run.end_to_end(runs[0])) == set(E2E)
    for trace in (False, True):
        names = set(run.result_line({"sweep": report}, trace)["metrics"])
        assert names == set(PER_LAYER if trace else E2E)
    printed = {
        line.split()[0] for line in run.render("sweep", report).splitlines()
        if line.startswith("  ") and line.split()[0][0].islower()
        and line.split()[0] not in ("sim_digest", "info:", "failed", "--")
    }
    assert printed == set(E2E) | set(PER_LAYER)
    assert report["per_layer"]["replay.kernel.run_s"]["value"] > 0


def _report(path, wall, failed=0, digest="d", seed=42):
    report = {"seed": seed, "ops_total": 4, "failed": failed, "sim_digest": digest,
              "end_to_end": {
                  name: {"median": 1.0} for name in E2E
              }}
    report["end_to_end"]["wall_s"]["median"] = wall
    path.write_text(json.dumps({"workloads": {"fig8": report}}))
    return str(path)


def test_compare_flags_only_regressions_beyond_the_bound(tmp_path, capsys):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    base = _report(tmp_path / "a.json", 10.0)
    within = _report(tmp_path / "b.json", 10.0 * (1 + bound / 2))
    assert run.compare(base, within, SPEC) == 0
    assert run.compare(base, _report(tmp_path / "c.json", 9.0), SPEC) == 0
    beyond = _report(tmp_path / "d.json", 10.0 * (1 + bound * 1.5))
    assert run.compare(base, beyond, SPEC) == 1
    assert run.compare(base, _report(tmp_path / "e.json", 10.0, 1), SPEC) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_compare_flags_a_changed_digest_or_seed(tmp_path, capsys):
    base = _report(tmp_path / "a.json", 10.0)
    moved = _report(tmp_path / "b.json", 10.0, digest="e")
    assert run.compare(base, moved, SPEC) == 1
    assert "sim_digest DIFFERS" in capsys.readouterr().out
    other_seed = _report(tmp_path / "c.json", 10.0, seed=7)
    assert run.compare(base, other_seed, SPEC) == 1


def test_fails_without_the_simulator_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perf_work").exists()
