"""CLI smoke tests."""

import dataclasses
import json

import pytest

import repro.cli as cli
from repro.analysis.metrics import ComparisonMetrics
from repro.analysis.run import set_disk_cache
from repro.cli import build_parser, main
from repro.obs.tracer import AccessEvent, HitCountEvent


@pytest.fixture(autouse=True)
def _isolated_disk_cache(tmp_path, monkeypatch):
    """Keep CLI invocations from writing .warden-cache/ into the repo."""
    monkeypatch.setattr(cli, "DEFAULT_CACHE_DIR", str(tmp_path / "cache"))
    yield
    set_disk_cache(None)


def fake_figure_runs(monkeypatch, metrics, on_run=None):
    """Skip a figure's simulations: each benchmark's ``run_pairs`` call
    hands its matrix keywords to ``on_run`` and yields ``metrics``."""
    def fake_run_pairs(name, config, size="default", **matrix):
        if on_run is not None:
            on_run(**matrix)
        return []

    monkeypatch.setattr(cli, "run_pairs", fake_run_pairs)
    monkeypatch.setattr(cli, "compare_multi", lambda pairs: metrics)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        for figure in ("fig8", "ablation", "sockets"):
            args = build_parser().parse_args(["figure", figure, "--size", "test"])
            assert args.figure == figure and args.size == "test"

    def test_bad_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_run_benchmark_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonsense"])


class TestCommands:
    def test_specs(self, capsys):
        assert main(["specs"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "7.9%" in out and "0.05%" in out

    def test_table1_small(self, capsys):
        assert main(["table1", "--iterations", "40"]) == 0
        assert "ping-pong" in capsys.readouterr().out

    def test_run_single_benchmark(self, capsys):
        assert main(["run", "fib", "--size", "test", "--protocol", "mesi"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "fib" in out

    def test_run_machine_preset(self, capsys):
        assert main(["run", "fib", "--size", "test", "--machine", "single"]) == 0
        out = capsys.readouterr().out
        assert "single-socket" in out

    def test_run_json_matches_text_counters(self, capsys):
        assert main(["run", "fib", "--size", "test"]) == 0
        text = capsys.readouterr().out
        assert main(["run", "fib", "--size", "test", "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["schema"].startswith("warden-repro/run-manifest/")
        stats = manifest["stats"]
        assert f"cycles    : {stats['cycles']}" in text
        coh = stats["coherence"]
        assert f"inv/dg    : {coh['invalidations']}/{coh['downgrades']}" in text
        assert "config" in manifest and "meta" in manifest


class TestTraceAndProfile:
    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "fib", "--size", "test",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        trace = json.loads(out_path.read_text())
        # counted private hits are summed in the summary, not drawn
        counted = trace["otherData"]["hits_counted"]
        assert counted > 0
        assert f"hits      : {counted} private-cache hits" in out
        events = trace["traceEvents"]
        assert events
        assert all(
            "ph" in e and "ts" in e and "pid" in e and "tid" in e
            for e in events
        )
        assert {e["pid"] for e in events} == {1, 2}
        assert trace["otherData"]["benchmark"] == "fib"

    def test_profile_prints_sections(self, capsys):
        assert main(["profile", "fib", "--size", "test"]) == 0
        out = capsys.readouterr().out
        assert "flame-style" in out
        assert "WARD region profile" in out
        assert "access latencies" in out
        assert "cycle phase" in out
        assert "window:" not in out  # nothing dropped, so no window line

    def test_profile_sections_share_the_ring_window(self, capsys, monkeypatch):
        rings = []

        class SpyRing(cli.RingBufferSink):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                rings.append(self)

        monkeypatch.setattr(cli, "RingBufferSink", SpyRing)
        assert main(["profile", "fib", "--size", "test",
                     "--capacity", "500"]) == 0
        out = capsys.readouterr().out
        (ring,) = rings
        assert ring.dropped > 0
        window = [line for line in out.splitlines() if line.startswith("window:")]
        assert len(window) == 1
        assert f"the last 500 of {ring.seen} events" in window[0]
        assert "counted private-cache hits cover the whole run" in window[0]
        latencies = out.split("== access latencies ==")[1].split("==")[0]
        printed = sum(
            int(line.split(" accesses")[0].rsplit(" ", 1)[1])
            for line in latencies.splitlines()
            if " accesses, " in line
        )
        events = ring.events()
        kept = sum(type(ev) is AccessEvent for ev in events)
        counted = sum(ev.count for ev in events if type(ev) is HitCountEvent)
        assert kept > 0 and counted > 0
        assert printed == kept + counted


class TestFigureJson:
    def test_figure_json_rows_and_summary(self, capsys, monkeypatch):
        fake = ComparisonMetrics(
            benchmark="fib", speedup=1.5, interconnect_savings=10.0,
            processor_savings=5.0, inv_dg_reduced_per_kilo=12.0,
            downgrade_reduction_pct=60.0, invalidation_reduction_pct=40.0,
            ipc_improvement_pct=7.0, ward_coverage=0.5,
        )
        fake_figure_runs(monkeypatch, fake)
        assert main(["figure", "fig9", "--size", "test", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure"] == "fig9"
        assert payload["rows"][0]["benchmark"] == "fib"
        assert payload["rows"][0]["speedup"] == 1.5
        assert "summary" in payload
        assert "robustness" not in payload  # clean run, no plan armed
        assert payload["claims"] == [{
            "claim": "14 benchmarks avoid coherence events (need 8)",
            "held": True,
        }]

    def test_every_figure_has_a_spec(self):
        from repro.cli import FIGURES, _FIGURE_SPECS
        assert FIGURES == (
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "ablation", "sockets",
        )
        assert set(FIGURES) == set(_FIGURE_SPECS)
        for groups, names, _render, _claims in _FIGURE_SPECS.values():
            assert groups and names

    def test_broken_claim_exits_1_and_names_it(self, capsys, monkeypatch):
        slow = ComparisonMetrics(
            benchmark="fib", speedup=0.5, interconnect_savings=-3.0,
            processor_savings=-1.0, inv_dg_reduced_per_kilo=0.0,
            downgrade_reduction_pct=0.0, invalidation_reduction_pct=0.0,
            ipc_improvement_pct=-4.0, ward_coverage=0.0,
        )
        fake_figure_runs(monkeypatch, slow)
        assert main(["figure", "fig7", "--size", "test"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("Figure 7: performance and energy gains")
        assert "claim NOT HELD: mean speedup 0.50 > 0.8" in out

    def test_multi_group_figure_json(self, capsys, monkeypatch):
        fake_figure_runs(monkeypatch, TestRobustnessFlags.FAKE)
        assert main(["figure", "sockets", "--size", "test", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [g["label"] for g in payload["groups"]] == ["1", "2", "4"]
        assert payload["groups"][0]["rows"][0]["benchmark"] == "fib"
        assert payload["claims"] == []  # paper claims need default size

    def test_every_figure_holds_its_smoke_claims(self, capsys):
        for figure in cli.FIGURES:
            code = main(
                ["figure", figure, "--size", "test", "--json",
                 "--no-disk-cache"]
            )
            claims = json.loads(capsys.readouterr().out)["claims"]
            assert code == 0, (figure, claims)
            assert all(c["held"] for c in claims), (figure, claims)


class TestRobustnessFlags:
    FAKE = ComparisonMetrics(
        benchmark="fib", speedup=1.5, interconnect_savings=10.0,
        processor_savings=5.0, inv_dg_reduced_per_kilo=12.0,
        downgrade_reduction_pct=60.0, invalidation_reduction_pct=40.0,
        ipc_improvement_pct=7.0, ward_coverage=0.5,
    )

    def test_flags_parse_on_figure(self):
        args = build_parser().parse_args(
            ["figure", "fig9", "--timeout", "5", "--retries", "2"]
        )
        assert (args.timeout, args.retries) == (5.0, 2)
        args = build_parser().parse_args(["figure", "fig8", "--retries", "1"])
        assert args.retries == 1 and args.timeout is None

    def test_negative_retries_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig8", "--retries", "-1"])

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench", "--quick"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_figure_json_surfaces_robustness_block(self, capsys, monkeypatch):
        def on_run(retries, report, **matrix):
            assert retries == 1
            if report.clean:
                report.record("retry", 0, 1, detail="injected")

        fake_figure_runs(monkeypatch, self.FAKE, on_run)
        assert main(
            ["figure", "fig9", "--size", "test", "--json", "--retries", "1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["robustness"]["retries"] == 1
        assert payload["robustness"]["events"][0]["action"] == "retry"

    def test_figure_text_prints_robustness_summary(self, capsys, monkeypatch):
        def on_run(report, **matrix):
            if report.clean:
                report.record("timeout", 2, 0)

        fake_figure_runs(monkeypatch, self.FAKE, on_run)
        assert main(["figure", "fig9", "--size", "test", "--retries", "1"]) == 0
        captured = capsys.readouterr()
        assert "robustness:" in captured.err
        assert "1 timeouts" in captured.err


class TestVerify:
    def test_parser_requires_all_xor_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--all", "--benchmark", "fib"])
        args = build_parser().parse_args(["verify", "--benchmark", "fib"])
        assert args.benchmark == "fib" and not args.all
        assert args.protocol == "warden" and args.jobs == 1

    def test_parser_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--benchmark", "nonsense"])

    def test_verify_fib_json_round_trips(self, capsys):
        from repro.analysis.conformance import SCHEMA, ConformanceResult

        assert main(
            ["verify", "--benchmark", "fib", "--size", "test", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == SCHEMA
        assert payload["passed"] is True
        (result,) = payload["results"]
        assert result["benchmark"] == "fib" and result["races"] == 0
        assert result["passed"] is True
        assert sorted(result) == sorted(
            f.name for f in dataclasses.fields(ConformanceResult)
        )

    def test_verify_text_output(self, capsys):
        assert main(["verify", "--benchmark", "fib", "--size", "test"]) == 0
        out, err = capsys.readouterr()
        assert "fib" in out and "PASS" in out
        assert "verify: all benchmarks conform" in out
        assert err == ""  # a clean matrix prints no robustness line

    def test_verify_violation_exits_1(self, capsys, monkeypatch):
        from repro.analysis.conformance import (
            ConformanceReport, ConformanceResult,
        )

        def fake_run_verify(names, config, **kwargs):
            result = ConformanceResult(
                benchmark=names[0], size="test", machine=config.name,
                seed=42, protocol="warden",
            )
            result.fail("synthetic race for the exit-code test")
            return ConformanceReport(size="test", machine=config.name,
                                     seed=42, results=[result])

        monkeypatch.setattr(cli, "run_verify", fake_run_verify)
        assert main(["verify", "--benchmark", "fib", "--size", "test"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "synthetic race" in out
        assert "VIOLATIONS FOUND" in out

    def test_injected_worker_fault_is_not_masked(self, capsys, monkeypatch):
        # An operational fault in the differential-leg pool must surface as
        # exit 2 ("verify: error: ..."), never as a clean conformance PASS.
        from repro.analysis.run import clear_cache

        clear_cache()  # force the prefetch to actually run the task
        monkeypatch.setenv("REPRO_FAULTS", "worker.fail@0")
        code = main(["verify", "--benchmark", "fib", "--size", "test",
                     "--jobs", "2", "--no-oracle"])
        err = capsys.readouterr().err
        assert code == 2
        assert "verify: error:" in err and "injected fault" in err

    def test_worker_faults_inert_without_pool(self, capsys, monkeypatch):
        # worker.* sites only fire inside pool workers; a serial verify run
        # with the same plan must pass untouched.
        monkeypatch.setenv("REPRO_FAULTS", "worker.fail@0")
        assert main(["verify", "--benchmark", "fib", "--size", "test",
                     "--no-oracle"]) == 0
        out, err = capsys.readouterr()
        assert "all benchmarks conform" in out
        # ... but the armed plan is still reported, never silently dropped
        assert "faults armed: worker.fail@0" in err

    def test_armed_plan_reaches_serial_json_report(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "cache.store.oserror@1x3")
        assert main(["verify", "--benchmark", "fib", "--size", "test",
                     "--no-oracle", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["robustness"]["faults"] == "cache.store.oserror@1x3"


class TestVerifyProtocolZoo:
    def test_parser_offers_every_registered_protocol(self):
        from repro.coherence.registry import available_protocols

        for key in available_protocols():
            args = build_parser().parse_args(
                ["verify", "--benchmark", "fib", "--protocol", key,
                 "--baseline", key]
            )
            assert args.protocol == key and args.baseline == key

    def test_parser_baseline_defaults_to_mesi(self):
        args = build_parser().parse_args(["verify", "--all"])
        assert args.baseline == "mesi" and args.protocol == "warden"

    def test_parser_rejects_unknown_protocol_or_baseline(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["verify", "--all", "--protocol", "mosi"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["verify", "--all", "--baseline", "mosi"]
            )

    @pytest.mark.parametrize("protocol", ("moesi", "sisd"))
    def test_verify_new_protocols_exit_0(self, protocol, capsys):
        assert main(
            ["verify", "--benchmark", "fib", "--size", "test",
             "--protocol", protocol, "--baseline", "mesi"]
        ) == 0
        out = capsys.readouterr().out
        assert f"{protocol} vs baseline mesi" in out
        assert "all benchmarks conform" in out

    def test_verify_json_carries_baseline_and_per_protocol_stats(self, capsys):
        assert main(
            ["verify", "--benchmark", "fib", "--size", "test", "--json",
             "--protocol", "sisd", "--baseline", "warden"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        (result,) = payload["results"]
        assert result["protocol"] == "sisd"
        assert result["baseline"] == "warden"
        assert set(result["stats"]) == {"sisd", "warden"}

    def test_run_accepts_zoo_protocols(self, capsys):
        for protocol in ("moesi", "sisd"):
            assert main(
                ["run", "fib", "--size", "test", "--protocol", protocol]
            ) == 0
            assert "fib" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Bad input: exit 2 with a diagnostic, never a traceback
# ----------------------------------------------------------------------


def _exit_code(argv) -> int:
    """``main``'s exit code, including argparse's ``SystemExit``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["synth", "zipf", "--out", "{tmp}/missing/x.trace"], None,
         "synth: error: cannot write {tmp}/missing/x.trace"),
        (["trace", "fib", "--size", "test", "--out", "{tmp}/missing/x.json"],
         None, "trace: error: cannot write {tmp}/missing/x.json"),
        (["table1", "--iterations", "0"], None,
         "argument --iterations: must be a positive integer"),
        (["table1", "--iterations", "-3"], None,
         "argument --iterations: must be a positive integer"),
        (["figure", "fig7", "--timeout", "-1"], None,
         "argument --timeout: must be a positive number"),
        (["verify", "--benchmark", "fib", "--timeout", "-1"], None,
         "argument --timeout: must be a positive number"),
        (["figure", "fig7", "--size", "test"], "bogus",
         "figure: error: unknown fault site 'bogus'"),
        (["figure", "fig7", "--size", "test", "--jobs", "2"], "bogus",
         "figure: error: unknown fault site 'bogus'"),
        (["verify", "--benchmark", "fib"], "bogus",
         "verify: error: unknown fault site 'bogus'"),
        (["figure", "fig7", "--size", "test"], "cache.store.oserror@0",
         "figure: error: fault 'cache.store.oserror@0' never fires"),
        # the result cache is the checkpoint: re-run with the same
        # --cache-dir instead
        (["figure", "fig9", "--resume"], None,
         "unrecognized arguments: --resume"),
        # exact results come from run and the result cache; replay serves
        # sweeps (replay_matrix, ingest --matrix)
        (["record", "fib"], None, "invalid choice: 'record'"),
        (["replay", "fib"], None, "invalid choice: 'replay'"),
        # the ring is bounded by --capacity alone
        (["trace", "fib", "--sample", "50"], None,
         "unrecognized arguments: --sample"),
        # the positional BENCHMARK takes every workload name
        (["run", "fib", "--workload", "synth-ring"], None,
         "unrecognized arguments: --workload"),
    ],
    ids=[
        "synth-unwritable-out", "trace-unwritable-out",
        "table1-zero-iterations", "table1-negative-iterations",
        "figure-negative-timeout", "verify-negative-timeout",
        "figure-serial-bogus-faults", "figure-pool-bogus-faults",
        "verify-serial-bogus-faults", "figure-zero-hit-fault",
        "figure-resume-removed", "record-removed", "replay-removed",
        "trace-sample-removed", "run-workload-removed",
    ],
)
def test_bad_input_exits_2(argv, env, message, tmp_path, capsys, monkeypatch):
    if env is None:
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
    else:
        monkeypatch.setenv("REPRO_FAULTS", env)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err
    assert "Traceback" not in err
