"""The repository benchmark: four user-facing simulator jobs, timed end to end.

    python perf/run.py [--workload NAME]... [--runs N] [--seed S]
                       [--seconds T] [--trace [0|1]] [--out FILE]
    python perf/run.py --compare A.json B.json

Each job runs in a fresh child process (``perf/child.py``), one at a time:
a closed loop with one client.  A run of a workload with seed S starts
fresh jobs on seeds S, S+1, ... S+SEEDS_PER_RUN-1 in turn, until
``--seconds`` of job time are measured and every seed has run, then
reports the median over its jobs.  Set-up is timed in every child, from
spawning it until its ``repro`` imports and protocol registry are ready,
and reported as the median over the run's children.
``--runs N`` repeats the run N times and reports each metric's median and
quartiles over the N runs.  ``--trace`` adds one traced job per workload
whose per-layer split is reported beside the end-to-end numbers; its last
line then carries the per-layer metrics.

Metric names, units and bounds come from ``BENCHMARK.json``.  Simulated
statistics are deterministic, so they are checked, not timed: every op's
``stats_digest`` feeds its job's digest, which ``perf/expected.json`` pins
for the jobs of a run from the default seed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; with several workloads the metric names are prefixed by the
workload.

``--compare`` prints each (workload, end-to-end metric) median delta of
report B against report A and exits 1 when one is worse than its bound,
when B fails more ops, or when the two reports' seeds, op counts or
digests differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
CHILD = PERF / "child.py"
WORK = ROOT / ".perf_work"

#: a run's jobs take seeds S, S+1, ... S+SEEDS_PER_RUN-1 in turn, so its
#: median spans several inputs; every run has at least one job per seed
SEEDS_PER_RUN = 5
#: no child may outlive this; a traced job takes under 10 s
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """A child failed to start or to report; there is no result to print."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_expected() -> dict:
    with open(PERF / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------

def _child_env() -> Dict[str, str]:
    """The caller's environment minus the simulator's REPRO_* switches,
    with this checkout's ``src`` first on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_job(workload: str, seed: int, trace: bool = False) -> Tuple[float, dict]:
    """Run one job in a fresh child in a fresh scratch directory.

    Returns the seconds from spawning the child until it printed ``ready``
    (its set-up time), and the child's result.  A child that fails or
    outlives ``CHILD_TIMEOUT_S`` is killed, and :class:`BenchError` is raised.
    """
    flags = ["--trace"] if trace else []
    what = " ".join([workload, *flags])
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), workload, "--seed", str(seed), *flags],
        stdout=subprocess.PIPE, text=True, cwd=workdir, env=_child_env(),
    )
    try:
        ready = proc.stdout.readline().strip() == "ready"
        ready_s = perf_counter() - start
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{what}: no result within {CHILD_TIMEOUT_S} s") from None
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not ready:
        raise BenchError(f"{what}: child failed with exit code {proc.returncode}")
    return ready_s, json.loads(out.splitlines()[-1])


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------

def sim_digest(ops: List[list]) -> str:
    """sha256 over every op's ``stats_digest``, in order."""
    return hashlib.sha256("".join(op[0] for op in ops).encode()).hexdigest()


def count_failed(ops: List[list], digest: str, reference: Optional[str]) -> int:
    """Ops that raised, mismatched or diverged; all of them when the job's
    digest differs from ``reference`` (which cannot say which op moved)."""
    if reference is not None and digest != reference:
        return len(ops)
    return sum(1 for op in ops if op[2])


def combined_digest(per_seed: Dict[int, str]) -> str:
    """sha256 over per-seed digests, in seed order."""
    text = "".join(per_seed[s] for s in sorted(per_seed))
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_digests(expected: dict, workload: str, seed: int) -> Dict[int, str]:
    """Job seed -> pinned digest, for runs from the pinned base seed only."""
    if seed != expected.get("seed"):
        return {}
    pins = expected.get("sim_digest", {}).get(workload, {})
    return {int(s): digest for s, digest in pins.items()}


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------

def summary(values: List[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of ``values``."""
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "values": values}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One run: jobs until ``seconds`` of job time, and one per seed."""
    setups, jobs = [], []
    while len(jobs) < SEEDS_PER_RUN or sum(job["wall_s"] for job in jobs) < seconds:
        setup_s, job = run_job(workload, seed + len(jobs) % SEEDS_PER_RUN)
        setups.append(setup_s)
        jobs.append(job)
    return {"setup_s": statistics.median(setups), "jobs": jobs}


def end_to_end(run: dict) -> Dict[str, float]:
    """A run's end-to-end metric values (medians over its jobs)."""
    jobs = run["jobs"]
    return {
        "wall_s": statistics.median(job["wall_s"] for job in jobs),
        "sim_minstr_per_s": statistics.median(
            sum(op[1] for op in job["ops"]) / job["wall_s"] / 1e6 for job in jobs
        ),
        "setup_s": run["setup_s"],
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
    }


def measure(workload: str, runs: List[dict], traced: Optional[dict],
            seed: int, spec: dict, expected: dict) -> dict:
    """Check every job of ``workload`` and summarize its metrics."""
    jobs = [job for run in runs for job in run["jobs"]]
    pins = pinned_digests(expected, workload, seed)
    first: Dict[int, str] = {}
    for job in jobs:
        first.setdefault(job["seed"], sim_digest(job["ops"]))
    checked = jobs + ([traced] if traced is not None else [])
    failed = sum(
        count_failed(job["ops"], sim_digest(job["ops"]),
                     pins.get(job["seed"], first[job["seed"]]))
        for job in checked
    )
    values = [end_to_end(run) for run in runs]
    report = {
        "seed": seed,
        "runs": len(runs),
        "jobs": len(jobs),
        "ops_total": len(jobs[0]["ops"]),
        "attempted": sum(len(job["ops"]) for job in checked),
        "failed": failed,
        "seed_digests": {str(s): d for s, d in sorted(first.items())},
        "sim_digest": combined_digest(first),
        "pinned_digest": (combined_digest(pins)
                          if pins.keys() == first.keys() else None),
        "errors": sorted({op[2] for job in checked for op in job["ops"] if op[2]}),
        "info": jobs[0]["info"],
        "end_to_end": {
            m["name"]: dict(summary([v[m["name"]] for v in values]),
                            unit=m["unit"], better=m["better"], bound=m["bound"])
            for m in spec["end_to_end"]
        },
    }
    if traced is not None:
        layers = dict(traced["layers"])
        wall = report["end_to_end"]["wall_s"]["median"]
        layers["trace.overhead_frac"] = traced["wall_s"] / wall - 1.0
        report["traced_wall_s"] = traced["wall_s"]
        report["per_layer"] = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"],
                        "better": m["better"]}
            for m in spec["per_layer"]
        }
        report["layer_table"] = traced["layer_table"]
        report["spans"] = traced["spans"]
    return report


# ----------------------------------------------------------------------
# Printing and comparing
# ----------------------------------------------------------------------

def render(workload: str, report: dict) -> str:
    lines = [
        f"== {workload} (seed {report['seed']}): {report['runs']} run(s), "
        f"{report['jobs']} job(s); ops attempted {report['attempted']}, "
        f"failed {report['failed']} (ops_total {report['ops_total']} per job) =="
    ]
    for name, m in report["end_to_end"].items():
        lines.append(
            f"  {name:<34} {m['median']:>14.6g} {m['unit']:<6} median of "
            f"n={m['n']} (q1 {m['q1']:.6g}, q3 {m['q3']:.6g})"
        )
    pinned = report["pinned_digest"]
    verdict = ("not pinned at this seed" if pinned is None else
               "matches perf/expected.json" if pinned == report["sim_digest"]
               else f"MISMATCH, expected {pinned}")
    lines.append(f"  sim_digest {report['sim_digest']} ({verdict})")
    for error in report["errors"]:
        lines.append(f"  failed op: {error}")
    info = report["info"]
    if "geomean_speedup" in info:
        lines.append(
            f"  info: geomean WARDen speedup {info['geomean_speedup']:.4f} "
            f"(paper {info['paper_speedup']}; the model is unvalidated at "
            "this scale, so this is never gated)"
        )
    if "per_layer" in report:
        traced = report["traced_wall_s"]
        lines.append(f"  -- per layer: one traced job, {traced:.3f} s --")
        for name, m in report["per_layer"].items():
            share = (f"  {m['value'] / traced:6.1%} of traced wall"
                     if name.endswith(".self_s") and traced else "")
            lines.append(
                f"  {name:<34} {m['value']:>14.6g} {m['unit']:<6}{share}"
            )
    return "\n".join(lines)


def result_line(reports: Dict[str, dict], trace: bool) -> dict:
    """The last output line: ``correct``/``attempted``/``failed``/``metrics``."""
    section, field = ("per_layer", "value") if trace else ("end_to_end", "median")
    metrics = {}
    for workload, report in reports.items():
        prefix = f"{workload}." if len(reports) > 1 else ""
        for name, m in report[section].items():
            metrics[prefix + name] = {"value": m[field], "unit": m["unit"]}
    failed = sum(r["failed"] for r in reports.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": failed,
        "metrics": metrics,
    }


def host_meta() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform()}


def write_report(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print B's median delta against A per (workload, metric); 1 on regression."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)["workloads"]
    regressions = 0
    print(f"{'workload':<9} {'metric':<18} {'A median':>12} {'B median':>12} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for workload in a:
        if workload not in b:
            print(f"{workload:<9} missing from {path_b}; skipped")
            continue
        ra, rb = a[workload], b[workload]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = ra["end_to_end"][name]["median"]
            vb = rb["end_to_end"][name]["median"]
            delta = (vb - va) / va
            worse = delta if m["better"] == "lower" else -delta
            bad = worse > bound
            regressions += bad
            print(f"{workload:<9} {name:<18} {va:>12.6g} {vb:>12.6g} "
                  f"{delta:>+8.2%} {bound:>6.0%}  "
                  f"{'REGRESSED' if bad else 'ok'}")
        for name, va, vb, bad in (
            ("ops_total", ra["ops_total"], rb["ops_total"],
             ra["ops_total"] != rb["ops_total"]),
            ("ops_failed", ra["failed"], rb["failed"], rb["failed"] > ra["failed"]),
        ):
            regressions += bad
            print(f"{workload:<9} {name:<18} {va:>12} {vb:>12} {'':>8} {'':>6}  "
                  f"{'REGRESSED' if bad else 'ok'}")
        same = ra["sim_digest"] == rb["sim_digest"] and ra["seed"] == rb["seed"]
        regressions += not same
        print(f"{workload:<9} sim_digest {'identical' if same else 'DIFFERS'}")
    return 1 if regressions else 0


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Time the simulator's user-facing jobs end to end."
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run; repeatable (default: all)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="job time to measure per run, in whole jobs, "
                             f"at least {SEEDS_PER_RUN} "
                             f"(default: {SEEDS_PER_RUN} jobs)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one traced job per workload and report "
                             "its per-layer split")
    parser.add_argument("--out", help="write the full report (and spans) here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two reports and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    workloads = args.workload or names
    expected = load_expected()
    # Terminated, still kill the running child and remove the scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        runs = {w: [] for w in workloads}
        for _ in range(args.runs):
            for workload in workloads:
                runs[workload].append(run_once(workload, args.seed, args.seconds))
        traced = {
            w: run_job(w, args.seed, trace=True)[1] if args.trace else None
            for w in workloads
        }
    except BenchError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass

    reports = {
        w: measure(w, runs[w], traced[w], args.seed, spec, expected)
        for w in workloads
    }
    for workload, report in reports.items():
        print(render(workload, report))
    if args.out:
        meta = dict(host_meta(), seed=args.seed, runs=args.runs,
                    seconds=args.seconds)
        write_report(args.out, {"meta": meta, "workloads": reports})
    line = result_line(reports, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
