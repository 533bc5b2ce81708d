"""Command-line interface: regenerate the paper's tables and figures.

Usage (after ``pip install -e .``)::

    warden-repro specs                      # Table 2
    warden-repro table1                     # Sniper-validation ping-pong
    warden-repro figure fig7 [--size small] # single-socket speedup/energy
    warden-repro figure fig8 --json         # dual socket, machine-readable
    warden-repro figure fig8 --jobs 4       # parallel (protocol x seed) matrix
    warden-repro figure fig9|fig10|fig11    # dual-socket analysis figures
    warden-repro figure fig12               # disaggregated
    warden-repro figure ablation|sockets    # marking policies; §7.3 scaling
    warden-repro run primes --protocol warden --machine dual [--json]
    warden-repro trace fib --size test --out trace.json   # Perfetto trace
    warden-repro profile fib --size test    # flame summary + region profile
    warden-repro ingest ext.trace --matrix  # external text trace, whole zoo
    warden-repro synth zipf --set skew=2.0  # seeded synthetic service trace
    warden-repro run --workload synth-ring  # synth/trace: names run anywhere
    warden-repro verify --all [--json]      # race detector + conformance
    warden-repro area                       # §6.1 CACTI estimates

``figure`` and ``run`` read and write a persistent result cache under
``.warden-cache/`` (keyed by config + code content hashes); disable with
``--no-disk-cache``.

The simulator's own speed is measured by ``python3 perf/run.py`` (see
perf/README.md); to find hot spots, profile a real command::

    python -m cProfile -s cumulative -m repro.cli figure fig8 --size small
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.conformance import run_verify
from repro.analysis.metrics import compare_multi, geomean, mean, pearson, summarize
from repro.analysis.pool import DEFAULT_CACHE_DIR, DiskCache, MatrixReport
from repro.analysis.run import run_benchmark, run_pairs, set_disk_cache
from repro.analysis.tables import (
    ablation_table,
    figure9,
    figure10,
    figure11,
    sockets_table,
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
from repro.common.config import disaggregated, dual_socket, many_socket, single_socket
from repro.common.errors import ConfigError, ReproError
from repro.energy.cacti import region_cam_area_overhead, sectoring_area_overhead
from repro.hlpl.policy import MarkingPolicy
from repro.obs.export import (
    flame_summary,
    latency_summary,
    manifest_json,
    phase_summary,
    region_summary,
    run_manifest,
    write_chrome_trace,
)
from repro.obs.tracer import HitCountEvent, RingBufferSink

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
    set_disk_cache(None if args.no_disk_cache else DiskCache(args.cache_dir))


def _matrix_options(args, report: MatrixReport) -> dict:
    """The run-matrix keywords ``figure`` and ``verify`` pass through."""
    return dict(
        jobs=args.jobs, timeout=args.timeout, retries=args.retries,
        report=report,
    )


def _print_report(args, payload: dict, text: str, report: MatrixReport) -> None:
    """Print a matrix command's ``--json`` payload or text rendering, with
    the robustness block whenever the matrix was not clean."""
    if args.json:
        if not report.clean:
            payload["robustness"] = report.to_dict()
        print(json.dumps(payload, sort_keys=True))
        return
    print(text)
    if not report.clean:
        faults = f"; faults armed: {report.faults}" if report.faults else ""
        print(
            f"robustness: {report.retries} retries, {report.timeouts} "
            f"timeouts, {report.respawns} pool respawns, {report.fallbacks} "
            f"serial fallbacks{faults}",
            file=sys.stderr,
        )


def _print_rows(rows: dict) -> None:
    for label, value in rows.items():
        print(f"{label:<10}: {value}")


def _print_result(result) -> None:
    """The one text rendering of a simulated run (run, ingest --run)."""
    s = result.stats
    _print_rows({
        "benchmark": f"{result.benchmark} ({result.size})",
        "protocol": result.protocol,
        "machine": result.machine,
        "cycles": s.cycles,
        "instrs": f"{s.instructions}  (IPC {s.ipc:.4f})",
        "inv/dg": f"{s.coherence.invalidations}/{s.coherence.downgrades}",
        "ward cov.": f"{s.coherence.ward_coverage:.2%}",
        "energy": f"{s.energy.processor_nj / 1e3:.1f} uJ "
                  f"(network {s.energy.interconnect_nj / 1e3:.1f} uJ)",
    })


def _trace_rows(trace) -> dict:
    """Summary rows of a text memory trace (ingest, synth)."""
    loads, stores, rmws = trace.counts()
    blocks, shared = trace.footprint()
    return {
        "ops": f"{len(trace)} ({loads} loads, {stores} stores, {rmws} rmws)",
        "threads": len(trace.threads()),
        "footprint": f"{blocks} blocks ({shared} shared between threads)",
    }


@contextlib.contextmanager
def _writing(path):
    """Turn a failed output write into an operational error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(
            f"cannot write {path}: {exc.strerror or exc}"
        ) from None


def cmd_specs(_args) -> int:
    print(table2(dual_socket()))
    return 0


def cmd_table1(args) -> int:
    print(table1(run_table1(iterations=args.iterations)))
    return 0


def _gains(number: int, machine: str):
    """Renderer of a speedup-and-energy figure (Figs. 7, 8, 12)."""
    title = f"Figure {number}: performance and energy gains on {machine}"
    return lambda metrics: speedup_energy_figure(metrics, title)


# Each figure's claims, given its metrics and whether the paper's claims
# apply (``default`` size); ``test`` and ``small`` inputs are too short for
# a stable signal, so they get smoke bounds.  A claim: {"claim", "held"}.
def _held(text: str, held) -> dict:
    return {"claim": text, "held": bool(held)}


def _above(what: str, value: float, floor: float) -> dict:
    return _held(f"{what} {value:.2f} > {floor}", value > floor)


def _fig7_claims(metrics, paper):
    speedup = summarize(metrics)["speedup"]
    if not paper:
        return [_above("mean speedup", speedup, 0.8)]
    # paper: 1.24x mean; we expect the same sign, nearly everywhere
    wins = sum(m.speedup >= 0.95 for m in metrics)
    return [_above("mean speedup", speedup, 1.0),
            _held(f"{wins} benchmarks reach speedup 0.95 (need 12)", wins >= 12)]


def _fig8_claims(metrics, paper):
    agg = summarize(metrics)
    net, proc = agg["interconnect_savings"], agg["processor_savings"]
    if not paper:
        return [_above("mean speedup", agg["speedup"], 0.8)]
    # paper: 1.46x, 52.9% network / 23.1% processor savings
    return [_above("mean speedup", agg["speedup"], 1.0),
            _above("mean interconnect savings %", net, 0),
            _held(f"interconnect savings {net:.2f}% > processor savings {proc:.2f}%",
                  net > proc)]


def _fig9_claims(metrics, paper):
    reductions = [m.inv_dg_reduced_per_kilo for m in metrics]
    removed, need = sum(r > 0 for r in reductions), 12 if paper else 8
    out = [_held(f"{removed} benchmarks avoid coherence events (need {need})",
                 removed >= need)]
    if paper:  # Fig. 9's point: the removal correlates with speedup
        r = pearson(reductions, [m.speedup for m in metrics])
        out.append(_above("Pearson r of reduction vs speedup", r, 0))
    return out


def _fig10_claims(metrics, _paper):
    dg = [m.downgrade_reduction_pct for m in metrics]
    inv = [m.invalidation_reduction_pct for m in metrics]
    return [_held("downgrade and invalidation shares partition each reduction",
                  all(d + i == 0 or abs(d + i - 100.0) < 1e-6
                      for d, i in zip(dg, inv))),
            _above("largest downgrade share %", max(dg), 30),
            _above("largest invalidation share %", max(inv), 30)]


def _fig11_claims(metrics, paper):
    gain = mean(m.ipc_improvement_pct for m in metrics)
    return [_above("mean IPC improvement %", gain, 0)] if paper else []


def _fig12_claims(metrics, paper):
    agg = summarize(metrics)
    if not paper:
        return [_above("mean speedup", agg["speedup"], 0.7)]
    return [_above("mean interconnect savings %", agg["interconnect_savings"], 0),
            _above("mean speedup", agg["speedup"], 0.95)]


def _ablation_claims(groups, paper):
    speedup = {label: geomean(m.speedup for m in ms) for label, ms in groups}
    none, full = speedup["none"], speedup["full"]
    tol = 0.05 if paper else 0.1  # no regions: WARDen behaves as MESI
    out = [_held(f"no-marking speedup {none:.2f} is within {tol} of 1.0",
                 abs(none - 1.0) <= tol)]
    if paper:
        out.append(_held(f"full-marking speedup {full:.2f} > no-marking", full > none))
    return out


def _sockets_claims(groups, paper):
    if not paper:
        return []
    net = [mean(m.interconnect_savings for m in ms) for _, ms in groups]
    # the paper expects the gain to grow with scale; we require only that
    # some multi-socket machine save more network energy than one socket
    return [_held(f"best multi-socket network savings {max(net[1:]):.2f}% > "
                  f"1-socket {net[0]:.2f}%", max(net[1:]) > net[0]),
            _above(f"{groups[-1][0]}-socket mean speedup",
                   mean(m.speedup for m in groups[-1][1]), 1.0)]


def _on(machine) -> tuple:
    return (("", machine, MarkingPolicy.FULL),)


#: per figure: (run groups, benchmarks, renderer, claims).  A run group is
#: (label, machine preset, marking policy); the renderer and the claims see
#: a one-group figure's metrics list, else (label, metrics) pairs.
_FIGURE_SPECS = {
    "fig7": (_on(single_socket), PAPER_ORDER,
             _gains(7, "single socket"), _fig7_claims),
    "fig8": (_on(dual_socket), PAPER_ORDER,
             _gains(8, "dual socket"), _fig8_claims),
    "fig9": (_on(dual_socket), PAPER_ORDER, figure9, _fig9_claims),
    "fig10": (_on(dual_socket), PAPER_ORDER, figure10, _fig10_claims),
    "fig11": (_on(dual_socket), PAPER_ORDER, figure11, _fig11_claims),
    "fig12": (_on(disaggregated), DISAGGREGATED_SUBSET,
              _gains(12, "disaggregated"), _fig12_claims),
    "ablation": (
        tuple((p.value, dual_socket, p) for p in MarkingPolicy),
        ("primes", "msort", "make_array", "grep", "suffix-array", "tokens"),
        ablation_table, _ablation_claims),
    "sockets": (
        (("1", single_socket, MarkingPolicy.FULL),
         ("2", dual_socket, MarkingPolicy.FULL),
         ("4", many_socket, MarkingPolicy.FULL)),
        ("grep", "msort"), sockets_table, _sockets_claims),
}
FIGURES = tuple(_FIGURE_SPECS)


def _metrics_json(metrics) -> dict:
    return {"rows": [dataclasses.asdict(m) for m in metrics],
            "summary": summarize(metrics)}


def cmd_figure(args) -> int:
    """Print one figure and its claims; exit 1 if a claim does not hold."""
    _configure_disk_cache(args)
    run_groups, names, render, check = _FIGURE_SPECS[args.figure]
    report = MatrixReport()
    groups = []
    for label, machine, policy in run_groups:
        config = machine()
        groups.append((label, [
            compare_multi(run_pairs(
                name, config, size=args.size, policy=policy,
                **_matrix_options(args, report),
            ))
            for name in names
        ]))
    view = groups[0][1] if len(groups) == 1 else groups
    claims = check(view, args.size == "default")
    payload = {"figure": args.figure, "size": args.size, "claims": claims}
    if len(groups) == 1:
        payload.update(_metrics_json(view))
    else:
        payload["groups"] = [
            dict(_metrics_json(metrics), label=label)
            for label, metrics in groups
        ]
    text = [render(view)] + [
        f"claim {'held' if c['held'] else 'NOT HELD'}: {c['claim']}"
        for c in claims
    ]
    _print_report(args, payload, "\n".join(text), report)
    return 0 if all(c["held"] for c in claims) else 1


def _pick_workload(args) -> str:
    """The workload under test: positional name or ``--workload`` (one)."""
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


def _simulate(args, name: str, config, obs_sink=None):
    """The engine run of ``run``/``trace``/``profile``: WARD-checked
    wherever the protocol supports it."""
    return run_benchmark(
        name, args.protocol, config, size=args.size,
        check_ward=protocol_class(args.protocol).supports_ward,
        obs_sink=obs_sink,
    )


def cmd_run(args) -> int:
    _configure_disk_cache(args)
    config = _machine_config(args)
    result = _simulate(args, _pick_workload(args), config)
    if args.json:
        print(manifest_json(run_manifest(result, config)))
    else:
        _print_result(result)
    return 0


def cmd_trace(args) -> int:
    config = _machine_config(args)
    sink = RingBufferSink(capacity=args.capacity)
    result = _simulate(args, args.benchmark, config, sink)
    aggregates = [ev for ev in sink.events() if type(ev) is HitCountEvent]
    counted = sum(ev.count for ev in aggregates)
    with _writing(args.out):
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
                "hits_counted": counted,
            },
        )
    print(f"benchmark : {result.benchmark} ({args.size}) on {result.protocol}")
    print(f"events    : {sink.seen} seen, {len(sink)} recorded, "
          f"{sink.dropped} dropped by the ring buffer")
    print(f"hits      : {counted} private-cache hits in the "
          f"{len(aggregates)} recorded hit counts, not drawn (profile adds "
          "them to its access sections)")
    print(f"trace     : {args.out} ({written} trace events; open in Perfetto "
          "or chrome://tracing)")
    return 0


def cmd_profile(args) -> int:
    config = _machine_config(args)
    ring = RingBufferSink(capacity=args.capacity)
    result = _simulate(args, args.benchmark, config, ring)
    events = ring.events()
    s = result.stats
    print(f"profile: {result.benchmark} ({args.size}) on {result.protocol}, "
          f"{result.machine} — {s.cycles} cycles, {s.instructions} instrs")
    if ring.dropped:
        cycles = [ev.cycle for ev in events if type(ev) is not HitCountEvent]
        print(f"window: every section reads the last {len(events)} of "
              f"{ring.seen} events (cycles {min(cycles)}-{max(cycles)}); the "
              f"ring buffer dropped {ring.dropped} earlier ones (raise "
              "--capacity to keep them); counted private-cache hits cover "
              "the whole run")
    print()
    print("== where the cycles went (flame-style, folded stacks) ==")
    print(flame_summary(events, config))
    print()
    print("== WARD region profile ==")
    print(region_summary(events))
    print()
    print("== access latencies ==")
    print(latency_summary(events))
    print()
    print(f"== coherence events per {args.bin_cycles}-cycle phase ==")
    print(phase_summary(events, args.bin_cycles))
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
    _print_rows({
        "trace": args.trace,
        **_trace_rows(trace),
        "checksum": f"{trace.checksum():#x}",
    })
    if args.matrix:
        return _workload_matrix(name, _machine_config(args), "test", args.seed)
    if args.run:
        _print_result(run_benchmark(
            name, args.protocol, _machine_config(args),
            size="test", seed=args.seed,
            use_cache=False, use_disk_cache=False,
        ))
    return 0


def _parse_knob(text: str):
    """One ``--set name=value`` override (int, then float, else error)."""
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
    out = args.out or f"{args.kind}.trace"
    if out == "-":
        sys.stdout.write(trace.to_text())
        return 0
    with _writing(out):
        Path(out).write_text(trace.to_text(), encoding="utf-8")
    _print_rows({
        "workload": f"{trace.name} (seed {args.seed})",
        **_trace_rows(trace),
        "trace": out,
    })
    if args.matrix:
        return _workload_matrix(
            f"trace:{out}", _machine_config(args), "test", args.seed
        )
    return 0


def cmd_verify(args) -> int:
    """Differential conformance + race detection (exit 1 on violation)."""
    _configure_disk_cache(args)
    config = _machine_config(args)
    # --all: the paper kernels plus the golden-pinned synthetic workloads,
    # the same cell set scripts/update_golden.py digests.
    from repro.workloads import GOLDEN_SYNTH

    names = (
        list(PAPER_ORDER) + list(GOLDEN_SYNTH) if args.all
        else [args.workload or args.benchmark]
    )
    report = MatrixReport()
    # An operational failure (injected fault, broken pool, timeout budget
    # exhausted...) raises to main(), exit 2 — never a conformance verdict.
    conformance = run_verify(
        names,
        config,
        size=args.size,
        seed=args.seed,
        protocol=args.protocol,
        baseline=args.baseline,
        check_oracle=not args.no_oracle,
        **_matrix_options(args, report),
    )
    lines = [
        f"conformance: {len(names)} benchmark(s), {args.protocol} vs "
        f"baseline {args.baseline}, size {args.size}, machine "
        f"{conformance.machine}, seed {args.seed}"
    ]
    for r in conformance.results:
        lines.append(
            f"  {r.benchmark:<14} {'PASS' if r.passed else 'FAIL'}  "
            f"races={r.races} benign_waws={r.benign_waws} "
            f"oracle_regions={r.oracle_regions} "
            f"checked={r.detector.get('checked_accesses', 0)}"
        )
        lines.extend(f"    - {failure}" for failure in r.failures)
    lines.append("verify: " + (
        "all benchmarks conform" if conformance.passed else "VIOLATIONS FOUND"
    ))
    _print_report(args, conformance.to_dict(), "\n".join(lines), report)
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


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a positive number")
    return value


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


def _arg(*flags, **kwargs):
    return flags, kwargs


def _argument_groups() -> dict:
    """Arguments shared between subcommands, declared once: group -> args."""
    workload = dict(type=_workload_name, metavar="BENCHMARK",
                    help="a paper kernel, a synth-* workload, or trace:<path>")
    return {
        "workload": [_arg("benchmark", **workload)],
        "workload?": [_arg("benchmark", nargs="?", default=None, **workload)],
        "protocol": [_arg("--protocol", default="warden",
                          choices=available_protocols(),
                          help="coherence protocol (default: %(default)s)")],
        "size": [_arg("--size", default="default",
                      choices=("test", "small", "default"),
                      help="workload size (default: %(default)s)")],
        "machine": [_arg("--machine", default="dual", choices=sorted(MACHINES),
                         help="machine preset (default: dual-socket Table 2)")],
        "seed": [_arg("--seed", type=int, default=42,
                      help="scheduler seed, and synth's generator seed "
                           "(default: %(default)s)")],
        "json": [_arg("--json", action="store_true",
                      help="emit machine-readable JSON instead of text")],
        "cache": [
            _arg("--no-disk-cache", action="store_true",
                 help="do not read or write the persistent result cache"),
            _arg("--cache-dir", default=DEFAULT_CACHE_DIR,
                 help="persistent cache directory; re-running an "
                      "interrupted matrix with the same one runs only its "
                      "unfinished tasks (default: %(default)s)"),
        ],
        # The run matrix and its robustness layer (see analysis/pool.py).
        "matrix": [
            _arg("--jobs", type=_positive_int, default=1,
                 help="run the matrix over N processes (default: in-process)"),
            _arg("--timeout", type=_positive_float, default=None,
                 metavar="SECONDS",
                 help="per-task timeout; a hung simulation is killed and "
                      "retried in a fresh worker"),
            _arg("--retries", type=_nonnegative_int, default=0, metavar="N",
                 help="retry a failed or timed-out task up to N times "
                      "(exponential backoff, seeded jitter)"),
        ],
    }


def _commands() -> dict:
    """Subcommand -> (handler, help, shared groups, own arguments).

    An own argument that is a list is a required one-of group.
    """
    from repro.workloads import GENERATORS

    bench = ("protocol", "size", "machine")
    return {
        "specs": (cmd_specs, "print Table 2", (), []),
        "table1": (cmd_table1, "run the ping-pong validation", (), [
            _arg("--iterations", type=_positive_int, default=300),
        ]),
        "figure": (cmd_figure, "regenerate one figure and check its claims "
                   "(exit 1 if one does not hold)",
                   ("size", "json", "cache", "matrix"), [
            _arg("figure", choices=FIGURES),
        ]),
        "run": (cmd_run, "run one benchmark or workload",
                ("workload?", *bench, "json", "cache"), [
            _arg("--workload", type=_workload_name, default=None,
                 help="workload to run (synth-* or trace:<path>); "
                      "alternative spelling of the positional name"),
        ]),
        "trace": (cmd_trace,
                  "record a coherence event trace (Chrome trace JSON)",
                  ("workload", *bench), [
            _arg("--out", default="trace.json",
                 help="output path for the Chrome trace (default: %(default)s)"),
            _arg("--capacity", type=_positive_int, default=1_000_000,
                 help="ring-buffer capacity in events (default: %(default)s)"),
        ]),
        "profile": (cmd_profile,
                    "run with a ring-buffer sink and print a profile summary",
                    ("workload", *bench), [
            _arg("--capacity", type=_positive_int, default=1_000_000,
                 help="ring-buffer capacity in events; every section reads "
                      "the events it keeps (default: %(default)s)"),
            _arg("--bin-cycles", type=_positive_int, default=100_000,
                 help="phase-histogram bin width in cycles "
                      "(default: %(default)s)"),
        ]),
        "verify": (cmd_verify,
                   "differential conformance: baseline vs candidate "
                   "--protocol vs the value oracle, plus happens-before race "
                   "detection (exit 1 on violation)",
                   (*bench, "seed", "json", "cache", "matrix"), [
            [
                _arg("--all", action="store_true",
                     help="verify every paper benchmark plus the "
                          "golden-pinned synthetic workloads"),
                _arg("--benchmark", choices=sorted(BENCHMARKS),
                     help="verify a single benchmark"),
                _arg("--workload", type=_workload_name, metavar="NAME",
                     help="verify a workload (synth-* or trace:<path>)"),
            ],
            _arg("--baseline", default="mesi", choices=available_protocols(),
                 help="reference protocol the candidate is diffed against "
                      "(default: %(default)s)"),
            _arg("--no-oracle", action="store_true",
                 help="skip the value-level WardMemoryModel replay leg"),
        ]),
        "ingest": (cmd_ingest,
                   "parse an external text memory trace ('thread op address "
                   "[size]' lines) and optionally run it through the "
                   "protocol zoo",
                   ("protocol", "machine", "seed"), [
            _arg("trace", help="path to the text trace file"),
            _arg("--run", action="store_true",
                 help="simulate the trace under --protocol after parsing"),
            _arg("--matrix", action="store_true",
                 help="run under every registered protocol on both the "
                      "engine and replay paths; exit 1 on any "
                      "engine-vs-replay stats divergence"),
        ]),
        "synth": (cmd_synth,
                  "generate a seeded synthetic service workload as a text "
                  "trace (runnable via 'ingest', 'run --workload "
                  "trace:<path>', ...)",
                  ("machine", "seed"), [
            _arg("kind", choices=sorted(GENERATORS),
                 help="traffic shape to generate"),
            _arg("--ops", type=_positive_int, default=150, metavar="N",
                 help="ops per thread (default: %(default)s)"),
            _arg("--set", action="append", metavar="KNOB=VALUE",
                 help="override a generator knob (e.g. skew=2.0, "
                      "threads=16); repeatable"),
            _arg("--out", default=None, metavar="FILE",
                 help="output path (default: <kind>.trace; '-' for stdout)"),
            _arg("--matrix", action="store_true",
                 help="after writing, run the trace under every registered "
                      "protocol on both engine and replay paths; exit 1 on "
                      "divergence"),
        ]),
        "area": (cmd_area, "§6.1 area estimates", (), []),
    }


#: per-subcommand defaults that differ from the shared group's
_DEFAULTS = {"verify": {"size": "test"}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warden-repro",
        description="Reproduce the tables and figures of the WARDen paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = _argument_groups()
    for name, (handler, help_text, shared, own) in _commands().items():
        command = sub.add_parser(name, help=help_text)
        for item in own:
            if isinstance(item, list):
                target = command.add_mutually_exclusive_group(required=True)
                for flags, kwargs in item:
                    target.add_argument(*flags, **kwargs)
            else:
                command.add_argument(*item[0], **item[1])
        for group in shared:
            for flags, kwargs in groups[group]:
                command.add_argument(*flags, **kwargs)
        command.set_defaults(func=handler, **_DEFAULTS.get(name, {}))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Operational failure (malformed trace file, unknown protocol or
        # workload, unreadable store, unwritable output, injected fault,
        # exhausted retry budget...) — never a traceback.
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
