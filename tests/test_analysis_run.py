"""Experiment-driver tests: caching, verification, pairs."""

import pytest

from repro.analysis.run import (
    ResultMismatchError,
    clear_cache,
    run_benchmark,
    run_pairs,
)
from tests.conftest import tiny_config


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestRunBenchmark:
    def test_result_matches_reference_by_construction(self):
        r = run_benchmark("fib", "mesi", tiny_config(), size="test")
        assert r.benchmark == "fib"
        assert r.protocol == "MESI"

    def test_cache_returns_same_object(self):
        a = run_benchmark("fib", "mesi", tiny_config(), size="test")
        b = run_benchmark("fib", "mesi", tiny_config(), size="test")
        assert a is b

    def test_cache_bypass(self):
        a = run_benchmark("fib", "mesi", tiny_config(), size="test")
        b = run_benchmark("fib", "mesi", tiny_config(), size="test",
                          use_cache=False)
        assert a is not b

    def test_distinct_protocols_not_conflated(self):
        a = run_benchmark("fib", "mesi", tiny_config(), size="test")
        b = run_benchmark("fib", "warden", tiny_config(), size="test")
        assert a is not b and a.protocol != b.protocol

    def test_mismatch_detection(self, monkeypatch):
        import dataclasses

        from repro.bench import BENCHMARKS

        broken = dataclasses.replace(BENCHMARKS["fib"], reference=lambda wl: -1)
        monkeypatch.setitem(BENCHMARKS, "fib", broken)
        with pytest.raises(ResultMismatchError):
            run_benchmark("fib", "mesi", tiny_config(), size="test",
                          use_cache=False)

    def test_ward_checked_flag(self):
        r = run_benchmark("fib", "warden", tiny_config(), size="test",
                          check_ward=True)
        assert r.ward_checked

    def test_energy_computed(self):
        r = run_benchmark("fib", "mesi", tiny_config(), size="test")
        assert r.stats.energy.processor_nj > 0


class TestPairs:
    def test_run_pairs_one_seed_same_input(self):
        (m, w), = run_pairs("make_array", tiny_config(), size="test",
                            seeds=(42,))
        assert m.protocol == "MESI" and w.protocol == "WARDen"
        assert m.result == w.result

    def test_run_pairs_uses_all_seeds(self):
        pairs = run_pairs("fib", tiny_config(), size="test", seeds=(1, 2))
        assert len(pairs) == 2
