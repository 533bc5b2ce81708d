"""Workload front-end integration: CLI exit codes, registry plumbing,
fingerprints, and the replay kernel's rejection of unregistered protocols
and of traces that do not fit their config.
"""

import json

import pytest

import repro.cli as cli
from repro.analysis.conformance import stats_digest
from repro.analysis.pool import RunTask, task_fingerprint
from repro.analysis.run import run_benchmark, set_disk_cache
from repro.cli import build_parser, main
from repro.coherence.registry import available_protocols, protocol_class
from repro.common.config import dual_socket, single_socket
from repro.common.errors import ConfigError, ReproError, UnknownProtocolError
from repro.replay import record_benchmark, replay_trace
from repro.replay.kernel import ReplayKernel, machine_replay
from repro.replay.trace import K_ACCESS, K_REGION_ADD, K_SPINS, Trace
from repro.workloads import make_trace, memtrace


@pytest.fixture(autouse=True)
def _isolated_disk_cache(tmp_path, monkeypatch):
    """Keep CLI invocations from writing .warden-cache/ into the repo."""
    monkeypatch.setattr(cli, "DEFAULT_CACHE_DIR", str(tmp_path / "cache"))
    yield
    set_disk_cache(None)


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "workload.trace"
    path.write_text(make_trace("rwmix", seed=5, ops_per_thread=25).to_text())
    return str(path)


# ----------------------------------------------------------------------
# ingest / synth subcommands
# ----------------------------------------------------------------------

class TestIngestSynthCLI:
    def test_ingest_summary(self, trace_file, capsys):
        assert main(["ingest", trace_file]) == 0
        out = capsys.readouterr().out
        assert "ops" in out and "threads" in out and "checksum" in out

    def test_ingest_run_single_protocol(self, trace_file, capsys):
        assert main(["ingest", trace_file, "--run", "--protocol", "sisd"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_ingest_matrix_bit_identity(self, trace_file, capsys):
        assert main(["ingest", trace_file, "--matrix"]) == 0
        out = capsys.readouterr().out
        for protocol in available_protocols():
            assert protocol in out
        assert "DIVERGED" not in out

    def test_ingest_matrix_runs_each_protocol_once(
        self, trace_file, capsys, monkeypatch
    ):
        # the recording is the engine run: no separate run_benchmark call
        import repro.analysis.run
        import repro.replay

        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(benchmark, protocol, *args, **kwargs):
                calls.append((name, protocol))
                return original(benchmark, protocol, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(cli, "run_benchmark")
        counted(repro.analysis.run, "run_benchmark")
        counted(repro.replay, "record_benchmark")
        assert main(["ingest", trace_file, "--matrix"]) == 0
        assert "DIVERGED" not in capsys.readouterr().out
        assert calls == [
            ("record_benchmark", protocol)
            for protocol in available_protocols()
        ]

    def test_ingest_malformed_exits_2_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("0 R 0x40\n1 FROB 0x80\n")
        assert main(["ingest", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err and "unknown op" in err
        assert "Traceback" not in err

    def test_ingest_non_ascii_digits_exit_2_with_location(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "digits.trace"
        bad.write_text("0 R 0x40\n0 R \u00b2\n", encoding="utf-8")
        assert main(["ingest", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err and "malformed address" in err
        assert "Traceback" not in err

    def test_ingest_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope.trace")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_synth_writes_parseable_trace(self, tmp_path, capsys):
        out_path = tmp_path / "z.trace"
        assert main([
            "synth", "zipf", "--seed", "9", "--ops", "30",
            "--set", "skew=2.0", "--set", "threads=4",
            "--out", str(out_path),
        ]) == 0
        assert main(["ingest", str(out_path)]) == 0
        assert "threads   : 4" in capsys.readouterr().out

    def test_synth_stdout(self, capsys):
        assert main(["synth", "ring", "--ops", "8", "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#") and " A 0x" in out

    def test_synth_is_seed_deterministic(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        for path in (a, b):
            assert main(["synth", "phase", "--seed", "3", "--ops", "20",
                         "--out", str(path)]) == 0
        assert a.read_text() == b.read_text()

    def test_synth_bad_knob_exits_2(self, tmp_path, capsys):
        assert main(["synth", "zipf", "--set", "bogus=1",
                     "--out", str(tmp_path / "x.trace")]) == 2
        assert "bad knob" in capsys.readouterr().err

    def test_synth_malformed_set_exits_2(self, tmp_path, capsys):
        assert main(["synth", "zipf", "--set", "skew",
                     "--out", str(tmp_path / "x.trace")]) == 2
        assert "name=value" in capsys.readouterr().err


# ----------------------------------------------------------------------
# workload names on run and verify
# ----------------------------------------------------------------------

class TestWorkloadPlumbing:
    def test_run_workload_synth(self, capsys):
        assert main(["run", "synth-falseshare",
                     "--size", "test", "--protocol", "mesi",
                     "--no-disk-cache"]) == 0
        assert "synth-falseshare" in capsys.readouterr().out

    def test_run_workload_trace(self, trace_file, capsys):
        assert main(["run", f"trace:{trace_file}",
                     "--size", "test", "--no-disk-cache"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_run_positional_synth_name(self, capsys):
        assert main(["run", "synth-ring", "--size", "test",
                     "--protocol", "sisd", "--no-disk-cache"]) == 0
        assert "synth-ring" in capsys.readouterr().out

    def test_run_unknown_name_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "synth-bogus"])

    def test_run_no_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--no-disk-cache"])
        assert exc.value.code == 2
        assert "required: BENCHMARK" in capsys.readouterr().err

    def test_run_missing_trace_file_exits_2(self, tmp_path, capsys):
        assert main(["run", f"trace:{tmp_path}/gone.trace",
                     "--no-disk-cache"]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err

    def test_verify_workload(self, capsys):
        assert main(["verify", "--workload", "synth-rwmix",
                     "--no-disk-cache"]) == 0
        assert "conform" in capsys.readouterr().out

    def test_verify_json_includes_workload(self, trace_file, capsys):
        assert main(["verify", "--workload", f"trace:{trace_file}",
                     "--json", "--no-disk-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["benchmark"] == f"trace:{trace_file}"


# ----------------------------------------------------------------------
# Fingerprints: trace files are content-addressed, not path-addressed
# ----------------------------------------------------------------------

class TestTraceFingerprints:
    def test_fingerprint_tracks_file_content(self, tmp_path):
        path = tmp_path / "fp.trace"
        config = dual_socket()

        def fp():
            return task_fingerprint(RunTask(
                benchmark=f"trace:{path}", protocol="mesi", config=config,
                size="test", seed=42,
            ), code="pinned")

        path.write_text("0 R 0x0\n")
        first = fp()
        assert fp() == first  # stable for identical content
        path.write_text("0 W 0x0\n")
        assert fp() != first  # edited file invalidates the key

    def test_missing_file_fingerprint_is_sentinel(self, tmp_path):
        config = dual_socket()
        fp = task_fingerprint(RunTask(
            benchmark=f"trace:{tmp_path}/void.trace", protocol="mesi",
            config=config, size="test", seed=42,
        ), code="pinned")
        assert isinstance(fp, str) and fp


# ----------------------------------------------------------------------
# Parse once per file content, never stale
# ----------------------------------------------------------------------

class TestParseOnce:
    @pytest.fixture()
    def parses(self, monkeypatch):
        """Sources handed to ``parse_trace_text``, one entry per parse."""
        calls = []
        original = memtrace.parse_trace_text

        def counting(text, source="<string>"):
            calls.append(source)
            return original(text, source)

        monkeypatch.setattr(memtrace, "parse_trace_text", counting)
        return calls

    def test_ingest_matrix_parses_the_file_once(
        self, trace_file, parses, capsys
    ):
        assert main(["ingest", trace_file, "--matrix"]) == 0
        assert "DIVERGED" not in capsys.readouterr().out
        assert parses == [trace_file]

    def test_edited_file_is_parsed_again(self, trace_file, parses):
        def run():
            return run_benchmark(
                f"trace:{trace_file}", "mesi", dual_socket(), size="test",
                seed=42, use_disk_cache=False,
            )

        first = run()
        assert stats_digest(run().stats) == stats_digest(first.stats)
        assert len(parses) == 1
        with open(trace_file, "w", encoding="utf-8") as handle:
            handle.write(make_trace("zipf", seed=7, ops_per_thread=25).to_text())
        edited = run()
        assert len(parses) == 2
        assert stats_digest(edited.stats) != stats_digest(first.stats)


# ----------------------------------------------------------------------
# Unregistered protocol keys raise UnknownProtocolError, a ReproError
# ----------------------------------------------------------------------

class TestUnknownProtocol:
    def test_registry_error_type(self):
        with pytest.raises(UnknownProtocolError) as excinfo:
            protocol_class("dragon")
        err = excinfo.value
        assert isinstance(err, ReproError)
        assert isinstance(err, KeyError)  # legacy guards keep working
        assert err.known == sorted(available_protocols())
        for key in available_protocols():
            assert key in str(err)

    def test_kernel_rejects_doctored_meta(self):
        trace, _ = record_benchmark(
            "synth-ring", "mesi", dual_socket(), size="test", seed=42
        )
        trace.meta["protocol"] = "dragon"
        with pytest.raises(UnknownProtocolError, match="dragon"):
            ReplayKernel(trace)
        # round-tripping through the on-disk format changes nothing
        revived = Trace.from_bytes(trace.to_bytes())
        with pytest.raises(UnknownProtocolError) as excinfo:
            replay_trace(revived)
        for key in available_protocols():
            assert key in str(excinfo.value)

    def test_machine_still_raises_config_error(self):
        from repro.sim.machine import Machine

        with pytest.raises(ConfigError):
            Machine(dual_socket(), "dragon")
        with pytest.raises(UnknownProtocolError, match="dragon"):
            Machine(dual_socket(), "dragon")

    def test_kernel_names_the_protocols_it_transcribes(self):
        trace, _ = record_benchmark(
            "synth-ring", "moesi", dual_socket(), size="test", seed=42
        )
        with pytest.raises(ConfigError, match="mesi and warden") as excinfo:
            ReplayKernel(trace)
        assert "moesi" in str(excinfo.value)


# ----------------------------------------------------------------------
# .wtrace files that parse but do not fit their config: ConfigError
# ----------------------------------------------------------------------

def _first_access(trace):
    return trace.kind.tolist().index(K_ACCESS)


def _empty_region(trace):
    """Turn the first access into a region add that ends where it starts."""
    k = _first_access(trace)
    trace.kind[k] = K_REGION_ADD
    trace.aux[k] = trace.addr[k]


def _spin_run(**fields):
    """Turn the first access into a spin run of one spin, then set
    ``fields``: each doctoring below breaks exactly one of them."""
    def doctor(trace):
        k = _first_access(trace)
        trace.kind[k] = K_SPINS
        for name, value in {"atype": 0, "size": 0, "addr": 0, "aux": 1,
                            **fields}.items():
            getattr(trace, name)[k] = value
    return doctor


DOCTORINGS = {
    "thread-out-of-range": lambda tr: tr.thread.__setitem__(
        _first_access(tr), 999),
    "no-config": lambda tr: tr.meta.pop("config"),
    "no-protocol": lambda tr: tr.meta.pop("protocol"),
    "no-final-thread": lambda tr: tr.meta.pop("final_thread"),
    "malformed-config": lambda tr: tr.meta.__setitem__("config", {"l1": 5}),
    "final-thread-out-of-range": lambda tr: tr.meta.__setitem__(
        "final_thread", 99),
    "final-thread-not-an-int": lambda tr: tr.meta.__setitem__(
        "final_thread", "0"),
    "event-kind-9": lambda tr: tr.kind.__setitem__(len(tr) // 2, 9),
    "access-atype-7": lambda tr: tr.atype.__setitem__(_first_access(tr), 7),
    "negative-thread": lambda tr: tr.thread.__setitem__(_first_access(tr), -1),
    "negative-size": lambda tr: tr.size.__setitem__(_first_access(tr), -3),
    "empty-region": _empty_region,
    "spins-count-0": _spin_run(aux=0),
    "spins-count-negative": _spin_run(aux=-4),
    "spins-atype": _spin_run(atype=1),
    "spins-size": _spin_run(size=8),
    "spins-addr": _spin_run(addr=0x1_0040),
}


class TestDoctoredTrace:
    """The packed kernel (a WARDen trace) and the machine replay (a MOESI
    trace) reject the same malformed traces with ConfigError."""

    @pytest.fixture(scope="class")
    def primes(self):
        trace, _ = record_benchmark(
            "primes", "warden", dual_socket(), size="test", seed=42
        )
        return trace.to_bytes()

    @pytest.fixture(scope="class")
    def primes_moesi(self):
        trace, _ = record_benchmark(
            "primes", "moesi", dual_socket(), size="test", seed=42
        )
        return trace.to_bytes()

    @staticmethod
    def _doctored(blob, doctor):
        trace = Trace.from_bytes(blob)
        DOCTORINGS[doctor](trace)
        return Trace.from_bytes(trace.to_bytes())

    @pytest.mark.parametrize("doctor", sorted(DOCTORINGS))
    def test_kernel_raises_config_error(self, doctor, primes):
        with pytest.raises(ConfigError):
            replay_trace(self._doctored(primes, doctor))

    @pytest.mark.parametrize("doctor", sorted(DOCTORINGS))
    def test_machine_replay_raises_config_error(
        self, doctor, primes, primes_moesi
    ):
        with pytest.raises(ConfigError):
            replay_trace(self._doctored(primes_moesi, doctor))
        # one trace down both paths: the same diagnostic
        trace = self._doctored(primes, doctor)
        with pytest.raises(ConfigError) as kernel:
            ReplayKernel(trace)
        with pytest.raises(ConfigError) as machine:
            machine_replay(trace)
        assert str(machine.value) == str(kernel.value)

    def test_empty_region_in_a_mesi_trace(self):
        # MESI has no region table, yet an empty region is malformed on
        # both paths alike rather than dropped on one and raised on the other
        trace, _ = record_benchmark(
            "primes", "mesi", dual_socket(), size="test", seed=42
        )
        doctored = self._doctored(trace.to_bytes(), "empty-region")
        with pytest.raises(ConfigError, match="empty region") as kernel:
            replay_trace(doctored)
        with pytest.raises(ConfigError) as machine:
            machine_replay(doctored)
        assert str(machine.value) == str(kernel.value)

    def test_a_well_formed_spin_run_replays(self, primes, primes_moesi):
        # the spins-* rows break one field each of this spin run
        for blob in (primes, primes_moesi):
            trace = Trace.from_bytes(blob)
            _spin_run()(trace)
            replay_trace(Trace.from_bytes(trace.to_bytes()))

    def test_variant_with_too_few_threads(self, primes, primes_moesi):
        for blob in (primes, primes_moesi):
            with pytest.raises(ConfigError, match="threads"):
                replay_trace(Trace.from_bytes(blob), single_socket(cores=2))
