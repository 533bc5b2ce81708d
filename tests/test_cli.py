"""CLI smoke tests."""

import json

import pytest

import repro.cli as cli
from repro.analysis.metrics import ComparisonMetrics
from repro.analysis.run import set_disk_cache
from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_disk_cache(tmp_path, monkeypatch):
    """Keep CLI invocations from writing .warden-cache/ into the repo."""
    monkeypatch.setattr(cli, "DEFAULT_CACHE_DIR", str(tmp_path / "cache"))
    yield
    set_disk_cache(None)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig8", "--size", "test"])
        assert args.figure == "fig8" and args.size == "test"

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
        assert "recorded" in capsys.readouterr().out
        trace = json.loads(out_path.read_text())
        events = trace["traceEvents"]
        assert events
        assert all(
            "ph" in e and "ts" in e and "pid" in e and "tid" in e
            for e in events
        )
        assert {e["pid"] for e in events} == {1, 2}
        assert trace["otherData"]["benchmark"] == "fib"

    def test_trace_sampling_thins_the_stream(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "fib", "--size", "test", "--sample", "50",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        seen = int(out.split(" seen")[0].rsplit(": ", 1)[1])
        recorded = int(out.split(" recorded")[0].rsplit(", ", 1)[1])
        assert recorded <= seen // 50 + 1

    def test_profile_prints_sections(self, capsys):
        assert main(["profile", "fib", "--size", "test"]) == 0
        out = capsys.readouterr().out
        assert "flame-style" in out
        assert "WARD region profile" in out
        assert "access latencies" in out
        assert "cycle phase" in out


class TestFigureJson:
    def test_figure_json_rows_and_summary(self, capsys, monkeypatch):
        fake = ComparisonMetrics(
            benchmark="fib", speedup=1.5, interconnect_savings=10.0,
            processor_savings=5.0, inv_dg_reduced_per_kilo=12.0,
            downgrade_reduction_pct=60.0, invalidation_reduction_pct=40.0,
            ipc_improvement_pct=7.0, ward_coverage=0.5,
        )
        monkeypatch.setattr(
            cli, "_metrics_for", lambda config, names, size, jobs=1, **kw: [fake]
        )
        assert main(["figure", "fig9", "--size", "test", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure"] == "fig9"
        assert payload["rows"][0]["benchmark"] == "fib"
        assert payload["rows"][0]["speedup"] == 1.5
        assert "summary" in payload
        assert "robustness" not in payload  # clean run, no robust flags

    def test_every_figure_has_a_spec(self):
        from repro.cli import FIGURES, _FIGURE_SPECS
        assert set(FIGURES) == set(_FIGURE_SPECS)


class TestRobustnessFlags:
    FAKE = ComparisonMetrics(
        benchmark="fib", speedup=1.5, interconnect_savings=10.0,
        processor_savings=5.0, inv_dg_reduced_per_kilo=12.0,
        downgrade_reduction_pct=60.0, invalidation_reduction_pct=40.0,
        ipc_improvement_pct=7.0, ward_coverage=0.5,
    )

    def test_flags_parse_on_figure(self):
        args = build_parser().parse_args(
            ["figure", "fig9", "--timeout", "5", "--retries", "2", "--resume"]
        )
        assert (args.timeout, args.retries, args.resume) == (5.0, 2, True)
        args = build_parser().parse_args(["figure", "fig8", "--retries", "1"])
        assert args.retries == 1 and args.timeout is None and not args.resume

    def test_negative_retries_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig8", "--retries", "-1"])

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench", "--quick"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_figure_json_surfaces_robustness_block(self, capsys, monkeypatch):
        def fake_metrics(config, names, size, jobs=1, timeout=None,
                         retries=0, resume=False, report=None):
            assert retries == 1
            if report is not None:
                report.record("retry", 0, 1, detail="injected")
            return [self.FAKE]

        monkeypatch.setattr(cli, "_metrics_for", fake_metrics)
        assert main(
            ["figure", "fig9", "--size", "test", "--json", "--retries", "1"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["robustness"]["retries"] == 1
        assert payload["robustness"]["events"][0]["action"] == "retry"

    def test_figure_text_prints_robustness_summary(self, capsys, monkeypatch):
        def fake_metrics(config, names, size, jobs=1, timeout=None,
                         retries=0, resume=False, report=None):
            if report is not None:
                report.record("timeout", 2, 0)
            return [self.FAKE]

        monkeypatch.setattr(cli, "_metrics_for", fake_metrics)
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
        from repro.analysis.conformance import SCHEMA, ConformanceReport

        assert main(
            ["verify", "--benchmark", "fib", "--size", "test", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == SCHEMA
        assert payload["passed"] is True
        (result,) = payload["results"]
        assert result["benchmark"] == "fib" and result["races"] == 0
        back = ConformanceReport.from_dict(payload)
        assert back.passed and back.to_dict()["results"] == payload["results"]

    def test_verify_text_output(self, capsys):
        assert main(["verify", "--benchmark", "fib", "--size", "test"]) == 0
        out = capsys.readouterr().out
        assert "fib" in out and "PASS" in out
        assert "verify: all benchmarks conform" in out

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
        assert "all benchmarks conform" in capsys.readouterr().out


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
