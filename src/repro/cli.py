"""Command-line interface: regenerate the paper's tables and figures.

Usage (after ``pip install -e .``)::

    warden-repro specs                      # Table 2
    warden-repro table1                     # Sniper-validation ping-pong
    warden-repro figure fig7 [--size small] # single-socket speedup/energy
    warden-repro figure fig8 --json         # dual socket, machine-readable
    warden-repro figure fig8 --jobs 4       # parallel (protocol x seed) matrix
    warden-repro figure fig9|fig10|fig11    # dual-socket analysis figures
    warden-repro figure fig12               # disaggregated
    warden-repro run primes --protocol warden --machine dual [--json]
    warden-repro trace fib --size test --out trace.json   # Perfetto trace
    warden-repro profile fib --size test    # flame summary + region profile
    warden-repro bench --quick              # simulator throughput baseline
    warden-repro bench --quick --replay     # replay-kernel throughput
    warden-repro record fib --size test     # record a replayable trace
    warden-repro replay fib --size test     # replay it (bit-identical stats)
    warden-repro ingest ext.trace --matrix  # external text trace, whole zoo
    warden-repro synth zipf --set skew=2.0  # seeded synthetic service trace
    warden-repro run --workload synth-ring  # synth/trace: names run anywhere
    warden-repro verify --all [--json]      # race detector + conformance
    warden-repro area                       # §6.1 CACTI estimates

``figure`` and ``run`` read and write a persistent result cache under
``.warden-cache/`` (keyed by config + code content hashes); disable with
``--no-disk-cache``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from repro.analysis.bench import (
    compare_to_baseline,
    find_default_baseline,
    load_report,
    render_report,
    run_bench_suite,
    write_report,
)
from repro.analysis.conformance import run_verify
from repro.analysis.metrics import compare_multi, summarize
from repro.analysis.pool import DEFAULT_CACHE_DIR, DiskCache, MatrixReport
from repro.analysis.run import run_benchmark, run_pairs, set_disk_cache
from repro.analysis.tables import (
    figure9,
    figure10,
    figure11,
    speedup_energy_figure,
    table1,
    table2,
)
from repro.bench import (
    BENCHMARKS,
    DISAGGREGATED_SUBSET,
    PAPER_ORDER,
    get_benchmark,
)
from repro.bench.microbench import run_table1
from repro.coherence.registry import available_protocols, protocol_class
from repro.common.config import disaggregated, dual_socket, single_socket
from repro.common.errors import ReproError
from repro.energy.cacti import region_cam_area_overhead, sectoring_area_overhead
from repro.obs.collect import (
    LatencyHistogram,
    MultiSink,
    PhaseHistogram,
    RegionProfile,
    RingBufferSink,
)
from repro.obs.export import (
    flame_summary,
    manifest_json,
    run_manifest,
    write_chrome_trace,
)

FIGURES = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12")

#: machine presets selectable from the command line
MACHINES = {
    "single": single_socket,
    "dual": dual_socket,
    "disagg": disaggregated,
}


def _machine_config(args):
    return MACHINES[args.machine]()


def _configure_disk_cache(args) -> None:
    """Install the persistent result cache unless ``--no-disk-cache``."""
    if getattr(args, "no_disk_cache", False):
        set_disk_cache(None)
    else:
        set_disk_cache(DiskCache(getattr(args, "cache_dir", DEFAULT_CACHE_DIR)))


def _metrics_for(
    config, names: List[str], size: str, jobs: int = 1,
    timeout: Optional[float] = None, retries: int = 0, resume: bool = False,
    report: Optional[MatrixReport] = None,
):
    return [
        compare_multi(run_pairs(
            name, config, size=size, jobs=jobs,
            timeout=timeout, retries=retries, resume=resume, report=report,
        ))
        for name in names
    ]


def _robustness_report(args) -> Optional[MatrixReport]:
    """A MatrixReport when any robustness flag is in play, else None."""
    if args.timeout is not None or args.retries or args.resume:
        return MatrixReport()
    return None


def _print_robustness(report: Optional[MatrixReport]) -> None:
    if report is None or report.clean:
        return
    print(
        f"robustness: {report.retries} retries, {report.timeouts} timeouts, "
        f"{report.respawns} pool respawns, {report.fallbacks} serial "
        f"fallbacks, {report.resumed} tasks resumed from journal",
        file=sys.stderr,
    )


def cmd_specs(_args) -> int:
    print(table2(dual_socket()))
    return 0


def cmd_table1(args) -> int:
    print(table1(run_table1(iterations=args.iterations)))
    return 0


#: per-figure rendering: (machine preset, benchmark list, renderer).
#: argparse restricts ``figure`` to FIGURES, so this mapping is total.
_FIGURE_SPECS = {
    "fig7": (
        single_socket,
        lambda: PAPER_ORDER,
        lambda m: speedup_energy_figure(
            m, "Figure 7: performance and energy gains on single socket"
        ),
    ),
    "fig8": (
        dual_socket,
        lambda: PAPER_ORDER,
        lambda m: speedup_energy_figure(
            m, "Figure 8: performance and energy gains on dual socket"
        ),
    ),
    "fig9": (dual_socket, lambda: PAPER_ORDER, figure9),
    "fig10": (dual_socket, lambda: PAPER_ORDER, figure10),
    "fig11": (dual_socket, lambda: PAPER_ORDER, figure11),
    "fig12": (
        disaggregated,
        lambda: DISAGGREGATED_SUBSET,
        lambda m: speedup_energy_figure(
            m, "Figure 12: performance and energy gains on disaggregated"
        ),
    ),
}


def cmd_figure(args) -> int:
    _configure_disk_cache(args)
    config_fn, names_fn, renderer = _FIGURE_SPECS[args.figure]
    report = _robustness_report(args)
    metrics = _metrics_for(
        config_fn(), names_fn(), args.size, jobs=args.jobs,
        timeout=args.timeout, retries=args.retries, resume=args.resume,
        report=report,
    )
    if args.json:
        payload = {
            "figure": args.figure,
            "size": args.size,
            "rows": [dataclasses.asdict(m) for m in metrics],
            "summary": summarize(metrics),
        }
        if report is not None and not report.clean:
            payload["robustness"] = report.to_dict()
        print(json.dumps(payload, sort_keys=True))
    else:
        print(renderer(metrics))
        _print_robustness(report)
    return 0


def _pick_workload(args) -> str:
    """The workload under test: positional name or ``--workload`` (one)."""
    from repro.common.errors import ConfigError

    workload = getattr(args, "workload", None)
    if workload and args.benchmark and workload != args.benchmark:
        raise ConfigError(
            f"both a positional benchmark ({args.benchmark!r}) and "
            f"--workload ({workload!r}) given; pass one"
        )
    name = workload or args.benchmark
    if name is None:
        raise ConfigError(
            "no workload given: pass a benchmark name or --workload"
        )
    return name


def cmd_run(args) -> int:
    _configure_disk_cache(args)
    config = _machine_config(args)
    result = run_benchmark(
        _pick_workload(args),
        args.protocol,
        config,
        size=args.size,
        check_ward=protocol_class(args.protocol).supports_ward,
    )
    if args.json:
        print(manifest_json(run_manifest(result, config)))
        return 0
    s = result.stats
    print(f"benchmark : {result.benchmark} ({args.size})")
    print(f"protocol  : {result.protocol}")
    print(f"machine   : {result.machine}")
    print(f"cycles    : {s.cycles}")
    print(f"instrs    : {s.instructions}  (IPC {s.ipc:.4f})")
    print(f"inv/dg    : {s.coherence.invalidations}/{s.coherence.downgrades}")
    print(f"ward cov. : {s.coherence.ward_coverage:.2%}")
    print(f"energy    : {s.energy.processor_nj / 1e3:.1f} uJ "
          f"(network {s.energy.interconnect_nj / 1e3:.1f} uJ)")
    return 0


def cmd_trace(args) -> int:
    config = _machine_config(args)
    sink = RingBufferSink(capacity=args.capacity, sample_every=args.sample)
    result = run_benchmark(
        args.benchmark,
        args.protocol,
        config,
        size=args.size,
        check_ward=protocol_class(args.protocol).supports_ward,
        obs_sink=sink,
    )
    written = write_chrome_trace(
        args.out,
        sink.events(),
        config,
        extra={
            "benchmark": result.benchmark,
            "protocol": result.protocol,
            "machine": result.machine,
            "size": result.size,
            "events_seen": sink.seen,
            "events_recorded": len(sink),
            "events_dropped": sink.dropped,
        },
    )
    print(f"benchmark : {result.benchmark} ({args.size}) on {result.protocol}")
    print(f"events    : {sink.seen} seen, {len(sink)} recorded, "
          f"{sink.dropped} dropped by the ring buffer")
    print(f"trace     : {args.out} ({written} trace events; open in Perfetto "
          "or chrome://tracing)")
    return 0


def cmd_profile(args) -> int:
    config = _machine_config(args)
    ring = RingBufferSink(capacity=args.capacity)
    latencies = LatencyHistogram()
    phases = PhaseHistogram(bin_cycles=args.bin_cycles)
    regions = RegionProfile()
    result = run_benchmark(
        args.benchmark,
        args.protocol,
        config,
        size=args.size,
        check_ward=protocol_class(args.protocol).supports_ward,
        obs_sink=MultiSink(ring, latencies, phases, regions),
    )
    s = result.stats
    print(f"profile: {result.benchmark} ({args.size}) on {result.protocol}, "
          f"{result.machine} — {s.cycles} cycles, {s.instructions} instrs")
    print()
    print("== where the cycles went (flame-style, folded stacks) ==")
    print(flame_summary(ring.events(), config))
    print()
    print("== WARD region profile ==")
    print(regions.render())
    print()
    print("== access latencies ==")
    print(latencies.render())
    print()
    print(f"== coherence events per {args.bin_cycles}-cycle phase ==")
    print(phases.render())
    return 0


def cmd_bench(args) -> int:
    matrix_report = _robustness_report(args)
    mode = "replay" if args.replay else "sim"
    suite_kwargs = dict(
        quick=args.quick, repeats=args.repeats,
        timeout=args.timeout, retries=args.retries, resume=args.resume,
        report=matrix_report, mode=mode,
        extra_rows=[(w, "test") for w in (args.workload or [])],
    )
    if args.profile:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        report = run_bench_suite(**suite_kwargs)
        profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats(args.profile_top)
        print(f"== cProfile: top {args.profile_top} by cumulative time ==")
        print(stream.getvalue())
    else:
        report = run_bench_suite(**suite_kwargs)
    write_report(args.out, report)
    baseline_path = args.baseline
    baseline_report = None
    baseline_note = None
    if baseline_path is None and not args.no_baseline:
        # No baseline given: auto-select the newest committed report of the
        # same mode (never the file we just wrote).
        found, found_report = find_default_baseline(
            ".", mode=mode, exclude=args.out
        )
        if found is not None:
            baseline_path = found
            baseline_report = found_report
            baseline_note = (
                f"baseline: auto-selected {found} (newest committed "
                f"{mode}-mode report; pass --baseline/--no-baseline to "
                "override)"
            )
    if baseline_note:
        print(baseline_note)
    print(render_report(report))
    _print_robustness(matrix_report)
    print(f"\nreport written to {args.out}")
    if baseline_path:
        if baseline_report is None:
            baseline_report = load_report(baseline_path)
        ok, message = compare_to_baseline(
            report, baseline_report, args.max_regress
        )
        print(message)
        if not ok and baseline_note is not None:
            # Auto-selected baselines inform; only an explicit --baseline
            # turns the comparison into an exit-code gate (CI does this).
            print("(informational: gate only applies with an explicit "
                  "--baseline)")
            return 0
        return 0 if ok else 1
    return 0


class _ReplayProgress:
    """Minimal obs sink: print replay-subsystem progress lines to stderr."""

    def emit(self, event) -> None:
        if getattr(event, "kind", "") != "replay":
            return
        detail = f" {event.detail}" if getattr(event, "detail", "") else ""
        print(
            f"[{event.action}] {event.benchmark}/{event.protocol} "
            f"events={event.events}{detail}",
            file=sys.stderr,
        )


def cmd_record(args) -> int:
    """Record one benchmark's protocol-event trace into the trace store."""
    from repro.analysis.pool import RunTask, task_fingerprint
    from repro.replay import TraceStore, record_benchmark

    config = _machine_config(args)
    store = TraceStore(args.trace_dir)
    fp = task_fingerprint(RunTask(
        benchmark=args.benchmark,
        protocol=args.protocol,
        config=config,
        size=args.size,
        seed=args.seed,
    ))
    trace, result = record_benchmark(
        args.benchmark, args.protocol, config,
        size=args.size, seed=args.seed, fingerprint=fp,
        obs_sink=_ReplayProgress(),
    )
    path = store.store(fp, trace)
    s = result.stats
    print(f"recorded  : {result.benchmark} ({args.size}) on {result.protocol}")
    print(f"events    : {len(trace)}")
    print(f"cycles    : {s.cycles}  instrs: {s.instructions}")
    if path is None:
        print("trace     : store failed (read-only trace dir?)",
              file=sys.stderr)
        return 1
    print(f"trace     : {path} ({path.stat().st_size} bytes)")
    return 0


def _replay_trace_file(args) -> int:
    """Replay a raw ``.wtrace`` file (``replay --trace FILE``).

    The protocol comes from the trace meta; an unregistered key is an
    operational error (exit 2) listing the registered protocols.
    """
    from repro.common.errors import ConfigError
    from repro.replay import replay_trace
    from repro.replay.trace import Trace

    try:
        with open(args.trace, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read trace {args.trace!r}: {exc}") from None
    import zlib

    try:
        trace = Trace.from_bytes(blob)
    except (ValueError, KeyError, EOFError, zlib.error) as exc:
        raise ConfigError(
            f"{args.trace!r} is not a valid .wtrace file: {exc}"
        ) from None
    result = replay_trace(trace, obs_sink=_ReplayProgress())
    s = result.stats
    print(f"trace     : {args.trace} ({len(trace)} events)")
    print(f"benchmark : {result.benchmark}")
    print(f"protocol  : {result.protocol}")
    print(f"machine   : {result.machine}")
    print(f"cycles    : {s.cycles}")
    print(f"instrs    : {s.instructions}  (IPC {s.ipc:.4f})")
    print(f"inv/dg    : {s.coherence.invalidations}/{s.coherence.downgrades}")
    return 0


def cmd_replay(args) -> int:
    """Replay one benchmark through the kernel (recording on first use)."""
    from repro.analysis.run import replay_benchmark
    from repro.common.errors import ConfigError
    from repro.replay import TraceStore

    if args.trace is not None:
        return _replay_trace_file(args)
    if args.benchmark is None:
        raise ConfigError(
            "no workload given: pass a benchmark name or --trace FILE"
        )
    config = _machine_config(args)
    result = replay_benchmark(
        args.benchmark,
        args.protocol,
        config,
        size=args.size,
        seed=args.seed,
        trace_store=TraceStore(args.trace_dir),
        obs_sink=_ReplayProgress(),
    )
    s = result.stats
    print(f"benchmark : {result.benchmark} ({args.size})")
    print(f"protocol  : {result.protocol}")
    print(f"machine   : {result.machine}")
    print(f"cycles    : {s.cycles}")
    print(f"instrs    : {s.instructions}  (IPC {s.ipc:.4f})")
    print(f"inv/dg    : {s.coherence.invalidations}/{s.coherence.downgrades}")
    print(f"ward cov. : {s.coherence.ward_coverage:.2%}")
    print(f"energy    : {s.energy.processor_nj / 1e3:.1f} uJ "
          f"(network {s.energy.interconnect_nj / 1e3:.1f} uJ)")
    return 0


def _workload_matrix(name: str, config, size: str, seed: int) -> int:
    """Engine-vs-replay bit-identity for one workload across the zoo.

    Returns 0 when every registered protocol produces bit-identical
    RunStats on both paths, 1 on any divergence.
    """
    from repro.analysis.conformance import stats_digest
    from repro.replay import record_benchmark, replay_trace

    failures = 0
    print(f"{'protocol':<10} {'cycles':>10} {'inv':>8} {'dg':>8}  engine=replay")
    for protocol in available_protocols():
        engine = run_benchmark(
            name, protocol, config, size=size, seed=seed,
            use_cache=False, use_disk_cache=False,
        )
        trace, _ = record_benchmark(
            name, protocol, config, size=size, seed=seed
        )
        replayed = replay_trace(trace, config)
        identical = stats_digest(engine.stats) == stats_digest(replayed.stats)
        failures += 0 if identical else 1
        s = engine.stats
        print(f"{protocol:<10} {s.cycles:>10} {s.coherence.invalidations:>8} "
              f"{s.coherence.downgrades:>8}  "
              f"{'ok' if identical else 'DIVERGED'}")
    if failures:
        print(f"ingest: {failures} protocol(s) diverged between engine and "
              "replay", file=sys.stderr)
    return 1 if failures else 0


def cmd_ingest(args) -> int:
    """Parse an external text trace; optionally run it through the zoo."""
    # Resolving through the workload registry parses the file once for
    # the summary and every run below.
    name = f"trace:{args.trace}"
    trace = get_benchmark(name).workload("test")
    loads, stores, rmws = trace.counts()
    blocks, shared = trace.footprint()
    print(f"trace     : {args.trace}")
    print(f"ops       : {len(trace)} ({loads} loads, {stores} stores, "
          f"{rmws} rmws)")
    print(f"threads   : {len(trace.threads())}")
    print(f"footprint : {blocks} blocks ({shared} shared between threads)")
    print(f"checksum  : {trace.checksum():#x}")
    if args.matrix:
        return _workload_matrix(name, _machine_config(args), "test", args.seed)
    if args.run:
        result = run_benchmark(
            name, args.protocol, _machine_config(args),
            size="test", seed=args.seed,
            use_cache=False, use_disk_cache=False,
        )
        s = result.stats
        print(f"protocol  : {result.protocol}")
        print(f"cycles    : {s.cycles}")
        print(f"instrs    : {s.instructions}  (IPC {s.ipc:.4f})")
        print(f"inv/dg    : {s.coherence.invalidations}/"
              f"{s.coherence.downgrades}")
    return 0


def _parse_knob(text: str):
    """One ``--set name=value`` override (int, then float, else error)."""
    from repro.common.errors import ConfigError

    name, sep, value = text.partition("=")
    if not sep or not name:
        raise ConfigError(f"--set expects name=value, got {text!r}")
    for caster in (int, float):
        try:
            return name, caster(value)
        except ValueError:
            continue
    raise ConfigError(f"--set {name}: {value!r} is not a number")


def cmd_synth(args) -> int:
    """Generate a seeded synthetic workload trace; optionally verify it."""
    from repro.workloads import make_trace

    knobs = dict(_parse_knob(item) for item in args.set or [])
    trace = make_trace(args.kind, seed=args.seed, ops_per_thread=args.ops,
                       **knobs)
    loads, stores, rmws = trace.counts()
    blocks, shared = trace.footprint()
    if args.out == "-":
        sys.stdout.write(trace.to_text())
        return 0
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(trace.to_text())
    print(f"workload  : {trace.name} (seed {args.seed})")
    print(f"ops       : {len(trace)} ({loads} loads, {stores} stores, "
          f"{rmws} rmws)")
    print(f"threads   : {len(trace.threads())}")
    print(f"footprint : {blocks} blocks ({shared} shared between threads)")
    print(f"trace     : {args.out}")
    if args.matrix:
        return _workload_matrix(
            f"trace:{args.out}", _machine_config(args), "test", args.seed
        )
    return 0


def cmd_verify(args) -> int:
    """Differential conformance + race detection (exit 1 on violation)."""
    _configure_disk_cache(args)
    config = _machine_config(args)
    if args.all:
        # Paper kernels plus the golden-pinned synthetic workloads — the
        # same cell set scripts/update_golden.py digests.
        from repro.workloads import GOLDEN_SYNTH

        names = list(PAPER_ORDER) + list(GOLDEN_SYNTH)
    elif getattr(args, "workload", None):
        names = [args.workload]
    else:
        names = [args.benchmark]
    report = _robustness_report(args)

    try:
        conformance = run_verify(
            names,
            config,
            size=args.size,
            seed=args.seed,
            protocol=args.protocol,
            baseline=args.baseline,
            jobs=args.jobs,
            check_oracle=not args.no_oracle,
            timeout=args.timeout,
            retries=args.retries,
            resume=args.resume,
            report=report,
        )
    except ReproError as exc:
        # Operational failure (injected fault, broken pool, timeout budget
        # exhausted...) — distinct from a conformance violation (exit 1).
        print(f"verify: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = conformance.to_dict()
        if report is not None and not report.clean:
            payload["robustness"] = report.to_dict()
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"conformance: {len(names)} benchmark(s), "
              f"{args.protocol} vs baseline {args.baseline}, "
              f"size {args.size}, machine {conformance.machine}, "
              f"seed {args.seed}")
        for r in conformance.results:
            verdict = "PASS" if r.passed else "FAIL"
            print(f"  {r.benchmark:<14} {verdict}  races={r.races} "
                  f"benign_waws={r.benign_waws} "
                  f"oracle_regions={r.oracle_regions} "
                  f"checked={r.detector.get('checked_accesses', 0)}")
            for failure in r.failures:
                print(f"    - {failure}")
        _print_robustness(report)
        print("verify: " + ("all benchmarks conform"
                            if conformance.passed else "VIOLATIONS FOUND"))
    return 0 if conformance.passed else 1


def cmd_area(_args) -> int:
    cfg = dual_socket()
    print(f"byte-sectoring area overhead : {sectoring_area_overhead():.1%} "
          "(paper: 7.9%)")
    print(f"1024-region CAM area overhead: {region_cam_area_overhead(cfg):.4%} "
          "(paper: <0.05%)")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _add_cache_args(parser) -> None:
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="do not read or write the persistent result cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="persistent cache directory (default: %(default)s)")


def _add_robust_args(parser) -> None:
    """Robustness knobs shared by ``figure`` and ``bench`` (see pool.py)."""
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-task timeout; a hung simulation is killed "
                             "and retried in a fresh worker")
    parser.add_argument("--retries", type=_nonnegative_int, default=0,
                        metavar="N",
                        help="retry a failed or timed-out task up to N times "
                             "(exponential backoff, seeded jitter)")
    parser.add_argument("--resume", action="store_true",
                        help="checkpoint completed tasks to a journal under "
                             "the cache dir and resume an interrupted run "
                             "from it")


def _workload_name(text: str) -> str:
    """Argparse type for any runnable name: kernel, synth-*, trace:<path>.

    Membership of the static registries is checked here (argparse exit 2
    with the available names); ``trace:`` paths are validated at
    resolution time so the diagnostic can name the offending line.
    """
    from repro.workloads import TRACE_PREFIX, workload_names

    if text in BENCHMARKS or text in workload_names() \
            or text.startswith(TRACE_PREFIX):
        return text
    raise argparse.ArgumentTypeError(
        f"unknown benchmark or workload {text!r}; choose from "
        f"{sorted(BENCHMARKS) + workload_names()} or '{TRACE_PREFIX}<path>'"
    )


def _add_bench_args(
    parser, default_protocol: str = "warden", optional_benchmark: bool = False
) -> None:
    kwargs = {"nargs": "?", "default": None} if optional_benchmark else {}
    parser.add_argument(
        "benchmark", type=_workload_name, metavar="BENCHMARK",
        help="a paper kernel, a synth-* workload, or trace:<path>",
        **kwargs,
    )
    parser.add_argument("--protocol", default=default_protocol,
                        choices=available_protocols())
    parser.add_argument("--size", default="default",
                        choices=("test", "small", "default"))
    parser.add_argument("--machine", default="dual",
                        choices=sorted(MACHINES),
                        help="machine preset (default: dual-socket Table 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warden-repro",
        description="Reproduce the tables and figures of the WARDen paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("specs", help="print Table 2").set_defaults(func=cmd_specs)

    p1 = sub.add_parser("table1", help="run the ping-pong validation")
    p1.add_argument("--iterations", type=int, default=300)
    p1.set_defaults(func=cmd_table1)

    pf = sub.add_parser("figure", help="regenerate one figure")
    pf.add_argument("figure", choices=FIGURES)
    pf.add_argument("--size", default="default",
                    choices=("test", "small", "default"))
    pf.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON instead of the table")
    pf.add_argument("--jobs", type=_positive_int, default=1,
                    help="run the (protocol x seed) matrix over N processes")
    _add_cache_args(pf)
    _add_robust_args(pf)
    pf.set_defaults(func=cmd_figure)

    pr = sub.add_parser("run", help="run one benchmark or workload")
    _add_bench_args(pr, optional_benchmark=True)
    pr.add_argument("--workload", type=_workload_name, default=None,
                    help="workload to run (synth-* or trace:<path>); "
                         "alternative spelling of the positional name")
    pr.add_argument("--json", action="store_true",
                    help="emit a JSONL run manifest instead of text")
    _add_cache_args(pr)
    pr.set_defaults(func=cmd_run)

    pb = sub.add_parser(
        "bench",
        help="time the simulator itself; emit a BENCH_*.json throughput report",
    )
    pb.add_argument("--quick", action="store_true",
                    help="CI smoke suite (seconds) instead of the full suite")
    pb.add_argument("--repeats", type=_positive_int, default=1,
                    help="time each row N times, keep the fastest")
    pb.add_argument("--out", default="BENCH_latest.json",
                    help="report output path (default: %(default)s)")
    pb.add_argument("--baseline", default=None,
                    help="compare against a committed BENCH_*.json; exit 1 "
                         "when steps/second regresses past --max-regress "
                         "(default: newest committed same-mode report)")
    pb.add_argument("--no-baseline", action="store_true",
                    help="skip the baseline comparison entirely")
    pb.add_argument("--replay", action="store_true",
                    help="time the vectorized replay kernel instead of the "
                         "interpreted engine (records each trace untimed "
                         "first)")
    pb.add_argument("--max-regress", type=float, default=0.30,
                    help="tolerated fractional throughput drop "
                         "(default: %(default)s)")
    pb.add_argument("--profile", action="store_true",
                    help="wrap the suite in cProfile and print the hottest "
                         "functions (for hunting simulator hot spots)")
    pb.add_argument("--profile-top", type=_positive_int, default=25,
                    help="number of functions to show with --profile "
                         "(default: %(default)s)")
    pb.add_argument("--workload", type=_workload_name, action="append",
                    default=None, metavar="NAME",
                    help="append a workload row (synth-* or trace:<path>, "
                         "timed at the test size) to the suite; repeatable")
    _add_robust_args(pb)
    pb.set_defaults(func=cmd_bench)

    pt = sub.add_parser(
        "trace", help="record a coherence event trace (Chrome trace JSON)"
    )
    _add_bench_args(pt)
    pt.add_argument("--out", default="trace.json",
                    help="output path for the Chrome trace (default: %(default)s)")
    pt.add_argument("--capacity", type=_positive_int, default=1_000_000,
                    help="ring-buffer capacity in events (default: %(default)s)")
    pt.add_argument("--sample", type=_positive_int, default=1,
                    help="keep every N-th event (default: record everything)")
    pt.set_defaults(func=cmd_trace)

    pp = sub.add_parser(
        "profile", help="run with collectors and print a profile summary"
    )
    _add_bench_args(pp)
    pp.add_argument("--capacity", type=_positive_int, default=1_000_000,
                    help="flame-summary ring-buffer capacity (default: %(default)s)")
    pp.add_argument("--bin-cycles", type=_positive_int, default=100_000,
                    help="phase-histogram bin width in cycles (default: %(default)s)")
    pp.set_defaults(func=cmd_profile)

    prc = sub.add_parser(
        "record",
        help="record one benchmark's protocol-event trace (replayable via "
             "'replay'; stored under the fingerprinted trace store)",
    )
    _add_bench_args(prc)
    prc.add_argument("--seed", type=int, default=42,
                     help="scheduler seed (default: %(default)s)")
    prc.add_argument("--trace-dir", default=None,
                     help="trace store directory (default: "
                          f"{DEFAULT_CACHE_DIR}/traces)")
    prc.set_defaults(func=cmd_record)

    prp = sub.add_parser(
        "replay",
        help="replay one benchmark through the vectorized kernel "
             "(bit-identical stats; records the trace on first use)",
    )
    _add_bench_args(prp, optional_benchmark=True)
    prp.add_argument("--seed", type=int, default=42,
                     help="scheduler seed (default: %(default)s)")
    prp.add_argument("--trace-dir", default=None,
                     help="trace store directory (default: "
                          f"{DEFAULT_CACHE_DIR}/traces)")
    prp.add_argument("--trace", default=None, metavar="FILE",
                     help="replay a raw .wtrace file instead of a named "
                          "benchmark (protocol comes from the trace meta)")
    prp.set_defaults(func=cmd_replay)

    pv = sub.add_parser(
        "verify",
        help="differential conformance: baseline vs candidate protocol vs "
             "the value oracle, plus happens-before race detection "
             "(exit 1 on violation)",
    )
    which = pv.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true",
                       help="verify every paper benchmark plus the "
                            "golden-pinned synthetic workloads")
    which.add_argument("--benchmark", choices=sorted(BENCHMARKS),
                       help="verify a single benchmark")
    which.add_argument("--workload", type=_workload_name, metavar="NAME",
                       help="verify a workload (synth-* or trace:<path>)")
    pv.add_argument("--protocol", default="warden",
                    choices=available_protocols(),
                    help="candidate protocol: the race-detector/oracle leg "
                         "runs under it and the differential leg diffs it "
                         "against --baseline (default: %(default)s)")
    pv.add_argument("--baseline", default="mesi",
                    choices=available_protocols(),
                    help="reference protocol of the differential leg "
                         "(default: %(default)s)")
    pv.add_argument("--size", default="test",
                    choices=("test", "small", "default"),
                    help="workload size (default: %(default)s)")
    pv.add_argument("--machine", default="dual", choices=sorted(MACHINES),
                    help="machine preset (default: dual-socket Table 2)")
    pv.add_argument("--seed", type=int, default=42,
                    help="scheduler seed (default: %(default)s)")
    pv.add_argument("--json", action="store_true",
                    help="emit the machine-readable conformance report")
    pv.add_argument("--jobs", type=_positive_int, default=1,
                    help="fan the differential runs over N processes")
    pv.add_argument("--no-oracle", action="store_true",
                    help="skip the value-level WardMemoryModel replay leg")
    _add_cache_args(pv)
    _add_robust_args(pv)
    pv.set_defaults(func=cmd_verify)

    pi = sub.add_parser(
        "ingest",
        help="parse an external text memory trace ('thread op address "
             "[size]' lines) and optionally run it through the protocol zoo",
    )
    pi.add_argument("trace", help="path to the text trace file")
    pi.add_argument("--protocol", default="warden",
                    choices=available_protocols())
    pi.add_argument("--machine", default="dual", choices=sorted(MACHINES),
                    help="machine preset (default: dual-socket Table 2)")
    pi.add_argument("--seed", type=int, default=42,
                    help="scheduler seed (default: %(default)s)")
    pi.add_argument("--run", action="store_true",
                    help="simulate the trace under --protocol after parsing")
    pi.add_argument("--matrix", action="store_true",
                    help="run under every registered protocol on both the "
                         "engine and replay paths; exit 1 on any "
                         "engine-vs-replay stats divergence")
    pi.set_defaults(func=cmd_ingest)

    ps = sub.add_parser(
        "synth",
        help="generate a seeded synthetic service workload as a text trace "
             "(runnable via 'ingest', 'run --workload trace:<path>', ...)",
    )
    from repro.workloads import GENERATORS as _GENERATORS

    ps.add_argument("kind", choices=sorted(_GENERATORS),
                    help="traffic shape to generate")
    ps.add_argument("--seed", type=int, default=42,
                    help="generator seed (default: %(default)s)")
    ps.add_argument("--ops", type=_positive_int, default=150,
                    metavar="N", help="ops per thread (default: %(default)s)")
    ps.add_argument("--set", action="append", metavar="KNOB=VALUE",
                    help="override a generator knob (e.g. skew=2.0, "
                         "threads=16); repeatable")
    ps.add_argument("--out", default=None, metavar="FILE",
                    help="output path (default: <kind>.trace; '-' for stdout)")
    ps.add_argument("--machine", default="dual", choices=sorted(MACHINES),
                    help="machine preset for --matrix (default: dual)")
    ps.add_argument("--matrix", action="store_true",
                    help="after writing, run the trace under every "
                         "registered protocol on both engine and replay "
                         "paths; exit 1 on divergence")
    ps.set_defaults(func=cmd_synth)

    sub.add_parser("area", help="§6.1 area estimates").set_defaults(func=cmd_area)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "out", None) is None and args.command == "synth":
        args.out = f"{args.kind}.trace"
    try:
        return args.func(args)
    except ReproError as exc:
        # Operational failure (malformed trace file, unknown protocol or
        # workload, unreadable store...) — never a traceback.
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
