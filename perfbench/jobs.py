"""The benchmark's workloads: what one job does, and how its verdict is
checked against the committed baselines.

Every job drives the program's public APIs the way a protocol designer
does and returns a verdict dict; :meth:`Workload.check` compares it with
the expected verdict and returns the problems found (empty = correct).
Imported only after ``src/`` is on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import repro.faults as faults
from repro.core.database import ProtocolDatabase
from repro.core.repair import DeadlockRepairer
from repro.explore import ExploreConfig, ReachabilityExplorer
from repro.protocols.asura.hardware import build_hardware_mapping
from repro.protocols.family import attach_variant, build_variant
from repro.sim import figure2_scenario, random_workload
from spans import LAYERS

__all__ = ["Expected", "WORKLOADS", "Context", "instrument"]

#: The deadlock sweep of every pipeline job (the paper's V variants).
ASSIGNMENTS = ("v4", "v5", "v5d")
#: Members whose D the section-5 Asura hardware mapping is defined for.
#: Its extension spec names MESI's IO messages and no owned state, so
#: it does not apply to MOESI (D is not preserved) or to the no-DMA
#: member (the IO messages are outside its domain).
ASURA_MAPPED = ("mesi", "mesif", "mesi-vc6")
#: Random-workload operations per pipeline job ("a few hundred").
SIM_OPS = 300
#: Mutants per campaign job.
CAMPAIGN_COUNT = 24


@dataclass
class Expected:
    """The committed verdicts jobs are checked against."""

    family: dict   # BENCH_family.json
    repair: dict   # BENCH_repair.json

    @classmethod
    def load(cls, root: Path) -> "Expected":
        with open(root / "BENCH_family.json", encoding="utf-8") as fh:
            family = json.load(fh)
        with open(root / "BENCH_repair.json", encoding="utf-8") as fh:
            repair = json.load(fh)
        return cls(family=family, repair=repair)

    def member(self, key: str) -> dict:
        return self.family["members"][key]


class Context:
    """What set-up leaves ready for the jobs: each member's generated
    database as a snapshot to clone from."""

    def __init__(self, members, expected: Expected) -> None:
        self.expected = expected
        # Two campaign workers at most: the same job shape on every
        # machine with at least two CPUs, never more threads than CPUs.
        self.workers = min(2, os.cpu_count() or 1)
        self.snapshots = {}
        for key in members:
            system = build_variant(key)
            try:
                self.snapshots[key] = system.db.snapshot()
            finally:
                system.db.close()

    def clone(self, key: str):
        return attach_variant(ProtocolDatabase.deserialize(self.snapshots[key]))


# -- pipeline -------------------------------------------------------------------
def pipeline_job(ctx: Context, member: str, seed: int) -> dict:
    """Regenerate one member and run every paper stage on it."""
    family = ctx.expected.family
    system = build_variant(member)
    try:
        report = system.check_invariants()
        cycles = {a: len(system.analyze_deadlocks(a).cycles())
                  for a in ASSIGNMENTS}
        preserved = None
        if member in ASURA_MAPPED:
            hw = build_hardware_mapping(system.db, system.tables["D"],
                                        system.constraint_sets["D"])
            preserved = hw.check_preserved().passed
        fig2 = figure2_scenario(system, assignment="v5d").run()
        rand = random_workload(system, assignment="v5d", seed=seed,
                               n_ops=SIM_OPS).run()
        explorer = ReachabilityExplorer(system, ExploreConfig(
            nodes=family["nodes"], depth=family["explore_depth"],
            assignment="v5d", variant=member if member != "mesi" else None))
        try:
            explored = explorer.run()
        finally:
            explorer.close()
        rows = sum(r.steps[-1].result_rows
                   for r in system.generation_results.values())
    finally:
        system.db.close()
    return {
        "rows": rows,
        "invariants": {"passed": report.passed, "checks": len(report.results)},
        "cycles": cycles,
        "map_preserved": preserved,
        "fig2": {"status": fig2.status, "steps": fig2.steps},
        "random": {"status": rand.status},
        "explore": {"states": explored.states,
                    "transitions": explored.transitions, "ok": explored.ok},
    }


def pipeline_check(ctx: Context, member: str, verdict: dict) -> list[str]:
    base = ctx.expected.member(member)
    want = {
        "rows": base["rows"],
        "invariants": base["invariants"],
        "cycles": {a: base["deadlock"][a]["cycles"] for a in ASSIGNMENTS},
        "map_preserved": True if member in ASURA_MAPPED else None,
        "fig2": base["simulation"]["fig2"],
        "random": {"status": "quiescent"},
        "explore": {k: base["explore"][k]
                    for k in ("states", "transitions", "ok")},
    }
    return [f"{member}: {key} is {verdict.get(key)!r}, expected {value!r}"
            for key, value in want.items() if verdict.get(key) != value]


# -- repair -----------------------------------------------------------------------
def repair_job(ctx: Context, member: str, seed: int) -> dict:
    """Repair the member's deadlocking v5 and re-verify the fix.  Runs on
    a clone: ``search()`` leaves its ``pdt_repair_*`` tables behind."""
    bench = ctx.expected.repair
    system = ctx.clone(member)
    try:
        repairer = DeadlockRepairer.for_system(system, bench["assignment"])
        result = repairer.search(max_rounds=bench["rounds"])
        repairer.reverify(result, oracle_depth=bench["oracle_depth"])
    finally:
        system.db.close()
    return result.to_dict()


def repair_check(ctx: Context, member: str, verdict: dict) -> list[str]:
    problems = []
    if member == "mesi" and verdict != ctx.expected.repair["repair"]:
        problems.append(f"mesi: repair {verdict!r} differs from the committed "
                        f"BENCH_repair.json result")
    want = ctx.expected.member(member)["deadlock"]["v5"]["cycles"]
    if verdict.get("initial_cycles") != want:
        problems.append(f"{member}: {verdict.get('initial_cycles')} initial "
                        f"v5 cycles, expected {want}")
    if not verdict.get("success"):
        problems.append(f"{member}: repair did not remove every cycle")
    reverified = verdict.get("reverified") or []
    if not reverified or not all(v.get("ok") for v in reverified):
        problems.append(f"{member}: a fix failed re-verification")
    return problems


# -- campaign -----------------------------------------------------------------------
def campaign_job(ctx: Context, member: str, seed: int) -> dict:
    """Score the member's committed mutant sample, oracle included.

    Every job samples with the committed ``BENCH_family.json`` seed
    rather than ``seed``: seeded samples hold rare relax-constraint
    mutants that regenerate a whole table (one took 8.9 s and ~230 MB
    on a 2-CPU x86-64 machine), which made throughput and peak memory
    bimodal across benchmark seeds.  The committed sample also lets every job be
    checked mutant by mutant against the committed matrix."""
    family = ctx.expected.family
    system = ctx.clone(member)
    try:
        result = faults.run_campaign(
            system=system, seed=family["seed"], count=CAMPAIGN_COUNT,
            assignment=family["assignment"], oracle="explore",
            oracle_depth=family["oracle_depth"],
            oracle_nodes=family["nodes"], workers=ctx.workers)
    finally:
        system.db.close()
    return result.to_dict()


def campaign_check(ctx: Context, member: str, verdict: dict) -> list[str]:
    totals = verdict["totals"]
    problems = []
    if totals["count"] != CAMPAIGN_COUNT:
        problems.append(f"{member}: {totals['count']} mutants scored, "
                        f"expected {CAMPAIGN_COUNT}")
    for outcome in ("crashed", "timeout", "degraded"):
        if totals[outcome]:
            problems.append(f"{member}: {totals[outcome]} unit(s) {outcome}")
    # Sampling is prefix-stable: the committed matrix gates the first
    # mutants of the sample, one by one.
    problems.extend(
        f"{member}: {failure}" for failure in faults.compare_to_baseline(
            verdict, ctx.expected.member(member)["campaign"]))
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    #: every member in the order a cycle visits them before the seeded
    #: shuffle; the last is the cheapest and serves as the warm-up job.
    members: tuple
    job: Callable
    check: Callable


WORKLOADS = {
    "pipeline": Workload("pipeline",
                         ("mesi", "moesi", "mesif", "mesi-vc6", "mesi-noio"),
                         pipeline_job, pipeline_check),
    "repair": Workload("repair", ("mesi", "moesi", "mesif", "mesi-noio"),
                       repair_job, repair_check),
    "campaign": Workload("campaign",
                         ("mesi", "moesi", "mesif", "mesi-vc6", "mesi-noio"),
                         campaign_job, campaign_check),
}


# -- the traced run's entry points ------------------------------------------------------
def instrument(recorder) -> None:
    """Wrap each layer's public entry points with ``recorder`` spans."""
    from repro.core.deadlock import DeadlockAnalysis, DeadlockAnalyzer
    from repro.core.generator import TableGenerator
    from repro.core.invariants import InvariantChecker
    from repro.core.mapping import ImplementationMapper
    from repro.protocols.family import FamilySystem
    from repro.sim.system import Simulator

    def generated(result):
        return {"generator.calls": 1,
                "generator.rows": result.steps[-1].result_rows}

    def checked(report):
        return {"invariants.checks": len(report.results)}

    def analyzed(analysis):
        return {"deadlock.analyses": 1, "deadlock.rows": analysis.n_rows}

    def repaired(result):
        return {"repair.evaluated": result.evaluated,
                "repair.applied": len(result.applied)}

    def simulated(result):
        return {"sim.steps": result.steps, "sim.messages": result.messages}

    def explored(result):
        return {"explore.states": result.states,
                "explore.transitions": result.transitions}

    def scored(result):
        out = {"faults.mutants": result.count}
        for layer in ("invariants", "deadlock", "simulation", "oracle"):
            out[f"faults.caught.{layer}"] = sum(
                1 for r in result.reports if r.detected_by == layer)
        out["faults.mutant_s"] = [r.seconds for r in result.reports]
        return out

    recorder.wrap(TableGenerator, "generate_incremental", "generator",
                  generated)
    recorder.wrap(FamilySystem, "check_invariants", "invariants", checked)
    recorder.wrap(InvariantChecker, "check_all", "invariants", checked)
    recorder.wrap(DeadlockAnalyzer, "analyze", "deadlock", analyzed)
    recorder.wrap(DeadlockAnalysis, "cycles", "deadlock",
                  lambda cycles: {"deadlock.cycles": len(cycles)})
    recorder.wrap(DeadlockRepairer, "search", "repair", repaired)
    recorder.wrap(DeadlockRepairer, "reverify", "repair")
    for attr in ("extend", "partition", "reconstruct", "check_preserved"):
        recorder.wrap(ImplementationMapper, attr, "mapping")
    recorder.wrap(Simulator, "__init__", "sim")
    recorder.wrap(Simulator, "run", "sim", simulated)
    recorder.wrap(ReachabilityExplorer, "__init__", "explore")
    recorder.wrap(ReachabilityExplorer, "run", "explore", explored)
    recorder.wrap(faults, "run_campaign", "faults", scored)
    recorder.wrap(ProtocolDatabase, "snapshot", "database")
    recorder.wrap(ProtocolDatabase, "deserialize", "database")
    recorder.wrap_sql(ProtocolDatabase)


def per_layer_metrics(recorder, jobs: int, job_seconds: list) -> dict:
    """The traced run's per-layer metrics, per timed job."""
    layers = recorder.layers()
    c = recorder.counts
    n = max(jobs, 1)

    def per_job(value):
        return value / n

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS[:-1]:  # the database layer reports clone_s
        m[f"{layer}.busy_s"] = (per_job(layers[layer]["busy_s"]), "s/job")
        m[f"{layer}.self_s"] = (per_job(layers[layer]["self_s"]), "s/job")
    m["generator.calls"] = (per_job(c["generator.calls"]), "count/job")
    m["generator.rows"] = (per_job(c["generator.rows"]), "count/job")
    m["invariants.checks"] = (per_job(c["invariants.checks"]), "count/job")
    for key in ("analyses", "rows", "cycles"):
        m[f"deadlock.{key}"] = (per_job(c[f"deadlock.{key}"]), "count/job")
    m["repair.evaluated"] = (per_job(c["repair.evaluated"]), "count/job")
    m["repair.useful_ratio"] = (
        ratio(c["repair.applied"], c["repair.evaluated"]), "ratio")
    for key in ("steps", "messages"):
        m[f"sim.{key}"] = (per_job(c[f"sim.{key}"]), "count/job")
    m["sim.steps_per_s"] = (
        ratio(c["sim.steps"], layers["sim"]["busy_s"]), "1/s")
    for key in ("states", "transitions"):
        m[f"explore.{key}"] = (per_job(c[f"explore.{key}"]), "count/job")
    m["explore.states_per_s"] = (
        ratio(c["explore.states"], layers["explore"]["busy_s"]), "1/s")
    mutants = c["faults.mutants"]
    m["faults.mutants"] = (per_job(mutants), "count/job")
    caught = 0.0
    for layer in ("invariants", "deadlock", "simulation", "oracle"):
        caught += c[f"faults.caught.{layer}"]
        m[f"faults.caught.{layer}"] = (
            per_job(c[f"faults.caught.{layer}"]), "count/job")
    m["faults.detection_rate"] = (ratio(caught, mutants), "ratio")
    m["faults.mutant_p50_s"] = (
        statistics.median(recorder.samples["faults.mutant_s"])
        if recorder.samples["faults.mutant_s"] else 0.0, "s")
    sql_queries, sql_seconds = recorder.sql_totals()
    m["database.clone_s"] = (per_job(layers["database"]["busy_s"]), "s/job")
    m["database.sql_queries"] = (per_job(sql_queries), "count/job")
    m["database.sql_s"] = (per_job(sql_seconds), "s/job")
    m["trace.job_p50_s"] = (
        statistics.median(job_seconds) if job_seconds else 0.0, "s")
    m["trace.spans"] = (per_job(len(recorder.spans)), "count/job")
    return m
