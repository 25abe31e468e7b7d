"""Change-scoped layer 1: a mutant re-runs only the checks that read a
table it wrote, and that changes no verdict.

The campaign records each check's read set once on the clean system and
each mutant's write set while the mutation is applied.  These tests pin
both measurements and the exactness claim: on every member's committed
seed-0 v5d sample, the scoped sweep fails the same checks, in the same
order, with the same violations and the same report detail as the full
sweep.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.core.database import ProtocolDatabase
from repro.core.invariants import InvariantChecker, InvariantPlan, SweepScope
from repro.faults import (
    FAULT_CLASSES,
    MutationEngine,
    prepare_reference_tables,
    run_campaign,
    structural_invariants,
)
from repro.protocols.family import SPECS, attach_variant, build_variant

#: The committed campaign sample (BENCH_family.json seed and assignment,
#: the campaign benchmark's mutant count).
SAMPLE_SEED, SAMPLE_ASSIGNMENT, SAMPLE_COUNT = 0, "v5d", 24

#: the five classes that rewrite, delete or insert rows of one table.
ROW_CLASSES = ("flip-next-state", "drop-row", "duplicate-row",
               "swap-output-message", "corrupt-pv-update")


@pytest.fixture(scope="module")
def members():
    """Each clean member with its audit reference tables, plus its
    invariant and audit plans and the committed mutant sample."""
    built = {}
    for key in SPECS:
        system = build_variant(key)
        prepare_reference_tables(system)
        built[key] = (
            system,
            InvariantPlan.prepare(system.db, system.invariants()),
            InvariantPlan.prepare(system.db, structural_invariants(system)),
            MutationEngine(system, seed=SAMPLE_SEED,
                           assignment=SAMPLE_ASSIGNMENT).sample(SAMPLE_COUNT),
        )
    yield built
    for system, *_ in built.values():
        system.db.close()


def mutated_clone(system, mutation):
    """A clone with ``mutation`` applied, and the tables it wrote."""
    clone = attach_variant(ProtocolDatabase.deserialize(system.db.snapshot()))
    with clone.db.recording_writes() as written:
        mutation.apply_to(clone)
    return clone, frozenset(written)


def failures(system, audits):
    """(name, violation strings) of every failed check, in sweep order."""
    report = system.check_invariants()
    audit_report = audits.check_all("structural audits")
    return [(r.name, [str(d) for d in r.details])
            for r in (*report.results, *audit_report.results)
            if not r.passed]


def detail(failed) -> str:
    """The campaign's layer-1 detection detail for ``failed``."""
    names = [name for name, _ in failed]
    return f"{len(names)} checks failed: {', '.join(names[:4])}"


@pytest.mark.parametrize("variant", tuple(SPECS))
def test_scoped_sweep_matches_the_full_sweep(members, variant):
    system, plan, audits, sample = members[variant]
    campaign = run_campaign(system=system, seed=SAMPLE_SEED,
                            count=SAMPLE_COUNT, assignment=SAMPLE_ASSIGNMENT,
                            workers=1)
    assert [r.mutant_id for r in campaign.reports] == \
        [m.mutant_id for m in sample]
    for mutation, report in zip(sample, campaign.reports):
        clone, written = mutated_clone(system, mutation)
        try:
            full_audits = InvariantChecker(clone.db)
            full_audits.extend(audits.invariants)
            full = failures(clone, full_audits)
            clone.scope = SweepScope(plan, written)
            scoped = failures(clone, audits.checker(clone.db, written))
        finally:
            clone.db.close()
        assert scoped == full, mutation.description
        if full:
            assert report.detected_by == "invariants", mutation.description
            assert report.detail == detail(full)
        else:
            assert report.detected_by != "invariants", mutation.description


def test_write_set_of_each_fault_class(members):
    seen = set()
    for system, _, _, sample in members.values():
        for mutation in sample:
            clone, written = mutated_clone(system, mutation)
            clone.db.close()
            seen.add(mutation.fault_class)
            target = mutation.target
            if mutation.fault_class == "reassign-channel":
                assert written == frozenset(), mutation.description
            elif mutation.fault_class in ROW_CLASSES:
                assert written == {target}, mutation.description
            else:
                # Regeneration rewrites the target through the
                # generator's column and working tables; their CREATE and
                # DROP statements write the schema table.
                assert target in written
                scratch = {t for t in written - {target}
                           if t.startswith((f"col_{target}__",
                                            f"__gen_{target}"))
                           or t == "sqlite_master"}
                assert written - {target} == scratch, sorted(written)
    assert seen == set(FAULT_CLASSES)


def test_read_sets_are_recorded_not_declared(members):
    system, plan, audits, _ = members["mesi"]
    controllers = set(system.tables)
    for inv, reads in zip(plan.invariants, plan.reads):
        if inv.violation is not None:
            assert reads == {inv.table}, inv.name
        assert reads, inv.name
    for inv, reads in zip(audits.invariants, audits.reads):
        table = inv.name.split("-")[1]
        want = {table} if inv.name.endswith("-conforms") \
            else {table, f"__ref_in_{table}"}
        assert reads == want, inv.name
    # Every controller is read by some behavioral invariant, and the
    # directory by most of them.
    by_table = {t: sum(t in r for r in plan.reads) for t in controllers}
    assert all(by_table.values())
    assert max(by_table, key=by_table.get) == "D"


def test_plan_selects_affected_checks_in_order(members):
    _, plan, _, _ = members["mesi"]
    assert plan.affected(frozenset()) == []
    assert plan.affected(frozenset({"D", "N"})) == [
        inv for inv, reads in zip(plan.invariants, plan.reads)
        if reads & {"D", "N"}]
    everything = frozenset().union(*plan.reads)
    assert plan.affected(everything) == list(plan.invariants)


def test_unwritten_mutant_runs_no_layer1_check(members):
    """A channel reassignment writes no table: layer 1 runs nothing, and
    the span and counter say so."""
    system, *_ = members["mesi"]
    sink = telemetry.ListSink()
    tracer = telemetry.Tracer(sinks=[sink])
    with telemetry.use_tracer(tracer):
        result = run_campaign(system=system, seed=0, count=2,
                              classes=("reassign-channel", "drop-row"),
                              workers=1)
    assert {r.fault_class for r in result.reports} == {
        "reassign-channel", "drop-row"}
    spans = [e for e in sink.of_type("span")
             if e["name"] == "mutate.invariants"]
    by_id = {e["mutant"]: e for e in spans}
    skipped = 0
    for report in result.reports:
        event = by_id[report.mutant_id]
        skipped += event["checks_skipped"]
        if report.fault_class == "reassign-channel":
            assert event["written"] == "" and event["checks_run"] == 0
        else:
            assert event["written"] == report.target
            assert event["checks_run"] > 0
    assert tracer.registry.counter("invariant.scoped_out") == skipped > 0
