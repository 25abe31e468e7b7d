"""Scenario workloads on the compiled kernels vs the SQL tables.

The workload builders (:func:`figure2_scenario`, :func:`figure4_scenario`,
:func:`random_workload`, :func:`guided_workload`) run their simulator on
dispatch kernels compiled from the tables; a bare ``Simulator(system,
...)`` executes the SQL tables and stays the interpreted oracle.  Every
builder is therefore run twice here — as shipped, and with the kernel
compiler swapped for the SQL tables themselves — and both runs must
agree on status, steps, messages, deadlock cycle and report, per-node
stats, the full message trace (send order relative to the run's start)
and the recorded coverage rowids:

* on every family member: fig2, fig4 under v5 and v5d, three 300-op
  random seeds, and a guided schedule (which issues only the device ops
  the member's IO table serves);
* on one mutant of each fault class from each member's committed
  seed-0 v5d sample, where the kernels must compile and both backends
  must give the same result or raise the same exception class with the
  same message (the campaign's fig2 + random simulation layer,
  directory agreement included).

The guard tests pin what the kernels buy: a workload's ``run()`` issues
no SQL at all, and a system's kernels are compiled once until its
database records a write.
"""

from unittest import mock

import pytest

import repro.sim.workloads as workloads_mod
from repro.core.database import ProtocolDatabase
from repro.core.kernel import (
    SIMULATED_TABLES,
    KernelTable,
    compile_system_kernels,
)
from repro.faults import FAULT_CLASSES, MutationEngine
from repro.protocols.family import SPECS, attach_variant, build_variant
from repro.sim import (
    ensure_recorder,
    figure2_scenario,
    figure4_scenario,
    guided_workload,
    random_workload,
)
from repro.sim.models import next_seq

#: The committed campaign sample (BENCH_family.json seed and assignment,
#: the campaign benchmark's mutant count).
SAMPLE_SEED, SAMPLE_ASSIGNMENT, SAMPLE_COUNT = 0, "v5d", 24
RANDOM_SEEDS, RANDOM_OPS = (0, 1, 2), 300

SCENARIOS = {
    "fig2": lambda s: figure2_scenario(s),
    "fig4-v5": lambda s: figure4_scenario(s, "v5"),
    "fig4-v5d": lambda s: figure4_scenario(s, "v5d"),
    **{f"random-{seed}": (lambda s, seed=seed: random_workload(
        s, seed=seed, n_ops=RANDOM_OPS)) for seed in RANDOM_SEEDS},
    "guided": lambda s: guided_workload(s, seed=0, n_ops=40),
}


@pytest.fixture(scope="module")
def members():
    """Each family member generated once, shared read-only."""
    built = {key: build_variant(key) for key in SPECS}
    yield built
    for system in built.values():
        system.db.close()


def clone(system):
    return attach_variant(ProtocolDatabase.deserialize(system.db.snapshot()))


def outcome(workload, agreement: bool = False):
    """Everything a run reports, with the global send-order counter
    rebased to the run's start; an exception becomes (class, message)."""
    ensure_recorder(workload.simulator)
    base = next_seq()
    try:
        r = workload.run()
        if agreement and r.status == "quiescent":
            workload.simulator.check_directory_agreement()
    except Exception as exc:  # the exception itself is the result
        return ("raised", type(exc), str(exc))
    trace = [(e.step, e.seq - base, e.msg, e.src, e.dst, e.addr, e.channel)
             for e in r.trace]
    hits = {t: dict(c) for t, c in workload.simulator.recorder.hits.items()}
    return {
        "status": r.status,
        "steps": r.steps,
        "messages": r.messages,
        "deadlock_cycle": r.deadlock_cycle,
        "deadlock_report": r.deadlock_report,
        "node_stats": r.node_stats,
        "trace": trace,
        "coverage": hits,
    }


def both_backends(system, build, agreement: bool = False):
    """(kernel outcome, SQL outcome) of one builder on ``system``."""
    workload = build(system)
    assert all(isinstance(t, KernelTable)
               for t in workload.simulator.tables.values())
    kernel = outcome(workload, agreement)
    with mock.patch.object(workloads_mod, "compile_system_kernels",
                           lambda s: s.tables):
        workload = build(system)
    assert not any(isinstance(t, KernelTable)
                   for t in workload.simulator.tables.values())
    return kernel, outcome(workload, agreement)


@pytest.mark.parametrize("scenario", tuple(SCENARIOS))
@pytest.mark.parametrize("variant", tuple(SPECS))
def test_clean_member_scenarios_agree(members, variant, scenario):
    kernel, sql = both_backends(members[variant], SCENARIOS[scenario])
    assert kernel == sql
    assert sql["steps"] > 0 and sql["coverage"], sql


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_guided_schedule_issues_only_served_device_ops(members, seed):
    """mesi-noio's IO table holds only ``dev_intr``: a guided schedule
    must not issue DMA reads or writes there, and it runs to quiescence
    on both backends instead of raising a SimProtocolError."""
    system = members["mesi-noio"]
    build = lambda s: guided_workload(s, seed=seed, n_ops=60)  # noqa: E731
    kinds = {op.op for op in build(system).ops}
    assert not kinds & {"io_read", "io_write"}
    kernel, sql = both_backends(system, build)
    assert kernel == sql
    assert sql["status"] == "quiescent", sql


@pytest.mark.parametrize("variant", tuple(SPECS))
def test_committed_sample_mutants_agree(members, variant):
    system = members[variant]
    sample = MutationEngine(system, seed=SAMPLE_SEED,
                            assignment=SAMPLE_ASSIGNMENT).sample(SAMPLE_COUNT)
    firsts = {}
    for mutation in sample:
        firsts.setdefault(mutation.fault_class, mutation)
    assert set(firsts) <= set(FAULT_CLASSES) and len(firsts) >= 4
    builds = (
        lambda s: figure2_scenario(s, assignment=SAMPLE_ASSIGNMENT),
        lambda s: random_workload(s, assignment=SAMPLE_ASSIGNMENT,
                                  seed=1, n_ops=60),
    )
    for fault_class, mutation in firsts.items():
        mutated = clone(system)
        try:
            mutation.apply_to(mutated)
            compile_system_kernels(mutated)
            for build in builds:
                kernel, sql = both_backends(mutated, build, agreement=True)
                assert kernel == sql, mutation.description
        finally:
            mutated.db.close()


def test_kernels_compile_once_until_a_write(members):
    """The builders share one compile while the tables are unchanged; a
    mutation applied to the clone afterwards recompiles, and the fresh
    kernels hold the mutated rows."""
    mutated = clone(members["mesi"])
    try:
        first = compile_system_kernels(mutated)
        again = compile_system_kernels(mutated)
        assert all(again[name] is first[name] for name in first)
        assert again is not first  # callers get their own dict
        rid = first["D"].rows_with_ids()[0][0]
        mutated.db.execute(f"DELETE FROM D WHERE rowid = {rid}")
        fresh = compile_system_kernels(mutated)
        assert all(fresh[name] is not first[name] for name in first)
        assert fresh["D"].row_count == first["D"].row_count - 1
        assert rid not in {r for r, _ in fresh["D"].rows_with_ids()}
    finally:
        mutated.db.close()


def test_regenerated_table_recompiles(members):
    """A relax-constraint mutant replaces a table object and rewrites it:
    its kernels are compiled from the regenerated rows."""
    system = members["mesi"]
    mutation = next(m for m in MutationEngine(
        system, seed=SAMPLE_SEED, classes=("relax-constraint",),
        assignment=SAMPLE_ASSIGNMENT).sample(20)
        if m.target in SIMULATED_TABLES)
    name = mutation.target
    mutated = clone(system)
    try:
        before = compile_system_kernels(mutated)
        mutation.apply_to(mutated)
        after = compile_system_kernels(mutated)
        assert after[name] is not before[name]
        assert (after[name].rows_with_ids()
                == mutated.tables[name].rows_with_ids())
    finally:
        mutated.db.close()


# -- guards -------------------------------------------------------------------
#: every ProtocolDatabase entry point a lookup could go through.
DB_METHODS = ("execute", "executemany", "query", "query_tuples", "scalar",
              "rows", "row_count", "table_exists", "table_columns",
              "distinct_values")


@pytest.mark.parametrize("variant", tuple(SPECS))
def test_workload_runs_issue_no_sql(members, variant):
    system = members[variant]
    workloads = [figure2_scenario(system),
                 random_workload(system, seed=0, n_ops=60)]
    calls = []
    statements = []

    def counting(name):
        original = getattr(ProtocolDatabase, name)

        def wrapper(self, *args, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)
        return wrapper

    patches = [mock.patch.object(ProtocolDatabase, name, counting(name))
               for name in DB_METHODS]
    for p in patches:
        p.start()
    system.db.connection.set_trace_callback(statements.append)
    try:
        for workload in workloads:
            assert workload.run().status == "quiescent"
    finally:
        system.db.connection.set_trace_callback(None)
        for p in patches:
            p.stop()
    assert calls == [] and statements == []
