"""One verification benchmark for the SQL cache-coherence toolchain.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Workloads (each a closed loop with one client; see README.md):

* ``pipeline`` — regenerate a family member and run invariants, the
  v4/v5/v5d deadlock sweep, the hardware map, simulation and bounded
  exploration on it;
* ``repair``   — repair a member's deadlocking v5 and re-verify the fix;
* ``campaign`` — score a seeded 24-mutant campaign with the oracle on.

A run first times set-up in fresh interpreters, then generates the
members in-process, runs one untimed warm-up job, and then runs whole
cycles of jobs (every member once, in a seeded order) until
``--seconds`` have passed.  Every job's verdict is checked against the
committed ``BENCH_family.json`` / ``BENCH_repair.json``.  With
``--trace 1`` the layers' public entry points are wrapped with spans
(``spans.py``) and the per-layer metrics are reported instead of the
end-to-end ones.

Output: human-readable metric lines, one ``{"report": ...}`` JSON line
(environment stamp, every metric, per-layer times; read by
``compare.py``), and last the JSON result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import sqlite3
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPS = 5
#: Most problem strings kept in a report.
MAX_PROBLEMS = 20
WORKLOAD_NAMES = ("pipeline", "repair", "campaign")
END_TO_END = ("setup_s", "jobs_per_s", "job_p50_s", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Verification benchmark: pipeline, repair and "
                    "campaign workloads.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed wall time; whole job cycles run until "
                             "it has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    return args


# -- environment --------------------------------------------------------------------
def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over every source file: names the code version even in a
    checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def env_stamp(seed: int, campaign_workers: int) -> dict:
    from repro.core.quad import ALL_PLACEMENTS

    cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "commit": _git_commit(),
        "src_digest": _src_digest(),
        "seed": seed,
        # The analyzer fans placements over this many threads by default,
        # so a timing means nothing without it.
        "deadlock_workers": min(len(ALL_PLACEMENTS), cpus),
        "campaign_workers": campaign_workers,
    }


# -- set-up ---------------------------------------------------------------------------
def probe_setup(members, reps: int) -> dict:
    """Median over ``reps`` fresh interpreters of the time from process
    start to ready (``import repro.cli`` + generating ``members``)."""
    totals, imports, generates = [], [], []
    for _ in range(reps):
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *members],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        totals.append(probe["ready"] - t0)
        imports.append(probe["import_s"])
        generates.append(probe["generate_s"])
    return {"setup_s": statistics.median(totals),
            "import_s": statistics.median(imports),
            "generate_s": statistics.median(generates)}


# -- statistics --------------------------------------------------------------------------
def tail(samples) -> dict:
    """The highest percentile with at least ten samples beyond it (p90
    once there are 100 samples), with the sample count."""
    n = len(samples)
    out = {"n": n, "percentile": None, "value": None}
    if n < 11:
        return out
    pct = 90 if n >= 100 else int(100 * (n - 10) / n)
    ordered = sorted(samples)
    out["percentile"] = pct
    out["value"] = ordered[min(n - 1, max(0, -(-pct * n // 100) - 1))]
    return out


# -- the run -------------------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool,
        expected=None, members=None, setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run; returns the report dict.

    ``expected`` replaces the committed verdicts and ``members`` the
    workload's member list (both for tests)."""
    from jobs import WORKLOADS, Context, Expected, instrument, per_layer_metrics
    from spans import Recorder

    wl = WORKLOADS[workload]
    members = tuple(members or wl.members)
    expected = expected or Expected.load(ROOT)
    setup = probe_setup(members, setup_reps)

    recorder = Recorder() if trace else None
    if recorder is not None:
        instrument(recorder)
    problems: list[str] = []
    attempted = failed = 0
    latencies: list[float] = []

    def attempt(member, fn, *args) -> None:
        nonlocal attempted, failed
        attempted += 1
        try:
            found = fn(*args)
        except Exception:  # a job that raises is a failed job, not a crash
            found = [f"{member}: {wl.name} job raised "
                     + traceback.format_exc().strip().splitlines()[-1]]
        if found:
            failed += 1
            problems.extend(found)

    def job(member, job_seed):
        t0 = time.perf_counter()
        verdict = wl.job(ctx, member, job_seed)
        latency = time.perf_counter() - t0
        found = wl.check(ctx, member, verdict)
        if not found:
            latencies.append(latency)
        return found

    try:
        ctx = Context(members, expected)
        rng = random.Random(seed)
        warm = members[-1]
        attempt(warm, job, warm, rng.randrange(2**31))
        latencies.clear()
        if recorder is not None:
            recorder.reset()
        cycles = 0
        t_start = time.perf_counter()
        while True:
            order = list(members)
            rng.shuffle(order)
            for member in order:
                if recorder is not None:
                    recorder.job = attempted
                attempt(member, job, member, rng.randrange(2**31))
            cycles += 1
            if time.perf_counter() - t_start >= seconds:
                break
        elapsed = time.perf_counter() - t_start
        timed_jobs = cycles * len(members)
        per_layer = None
        if recorder is not None:
            recorder.job = None
            per_layer = per_layer_metrics(recorder, timed_jobs, latencies)
            layers = recorder.layers()
    finally:
        if recorder is not None:
            recorder.uninstall()

    report = {
        "schema": "perfbench.report/v1",
        "workload": workload,
        "seed": seed,
        "trace": int(bool(trace)),
        "seconds": seconds,
        "elapsed_s": elapsed,
        "cycles": cycles,
        "members": list(members),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "env": env_stamp(seed, ctx.workers),
        "e2e": {
            "setup_s": [setup["setup_s"], "s"],
            "jobs_per_s": [len(latencies) / elapsed if elapsed else 0.0, "1/s"],
            "job_p50_s": [statistics.median(latencies) if latencies else 0.0,
                          "s"],
            "failed_ratio": [failed / attempted, "ratio"],
            "peak_rss_mb": [
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"],
        },
        "job_tail": tail(latencies),
    }
    if per_layer is not None:
        per_layer["setup.import_s"] = (setup["import_s"], "s")
        per_layer["setup.generate_s"] = (setup["generate_s"], "s")
        report["per_layer"] = {k: list(v) for k, v in per_layer.items()}
        report["layers"] = {k: {**v, "busy_s": v["busy_s"] / timed_jobs,
                                "self_s": v["self_s"] / timed_jobs}
                            for k, v in layers.items()}
    return report


def render(report: dict) -> list[str]:
    """Human-readable lines: every end-to-end metric (and in a traced
    run every per-layer metric) by name with its unit."""
    lines = [f"perfbench {report['workload']} seed={report['seed']} "
             f"trace={report['trace']}: {report['attempted']} job(s) "
             f"attempted, {report['cycles']} timed cycle(s) of "
             f"{len(report['members'])} in {report['elapsed_s']:.2f} s"]
    for name, (value, unit) in report["e2e"].items():
        lines.append(f"  {name:<24} {value:>12.6g} {unit}")
    t = report["job_tail"]
    if t["percentile"] is None:
        lines.append(f"  {'job tail':<24} {'n/a':>12} (n={t['n']}: a "
                     f"percentile needs 10 samples beyond it)")
    else:
        lines.append(f"  {'job_p' + str(t['percentile']) + '_s':<24} "
                     f"{t['value']:>12.6g} s (n={t['n']})")
    for name, (value, unit) in report.get("per_layer", {}).items():
        lines.append(f"  {name:<24} {value:>12.6g} {unit}")
    for problem in report["problems"]:
        lines.append(f"  FAIL {problem}")
    return lines


def result_line(report: dict) -> dict:
    """The final JSON line: end-to-end metrics untraced, per-layer traced."""
    metrics = (report["per_layer"] if report["trace"]
               else {k: report["e2e"][k] for k in END_TO_END})
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    missing = [p for p in (src / "repro", ROOT / "BENCH_family.json",
                           ROOT / "BENCH_repair.json") if not p.exists()]
    if missing:
        print(f"perfbench: error: not a repository checkout, missing "
              f"{', '.join(str(p.relative_to(ROOT)) for p in missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in render(report):
        print(line)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
