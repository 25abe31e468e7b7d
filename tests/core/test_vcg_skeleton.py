"""Parity of the dependency skeleton against the full deadlock analysis.

The repair search scores candidate Vs with
:func:`~repro.core.deadlock.skeleton_edges` over
:meth:`~repro.core.deadlock.DeadlockAnalyzer.dependency_skeleton` instead
of a full analysis per candidate.  That is only sound if, for every V
the search can meet, the skeleton's VCG edges and cycles are exactly
``DeadlockAnalyzer(...).analyze()``'s: on every committed V of every
family member, along random sequences of candidate fixes, on mutated Vs
and on mutated controller tables.  A V that misses an entry must make the
search fail with the analysis's own error.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.cycles import find_cycles
from repro.core.database import ProtocolDatabase
from repro.core.deadlock import (
    ChannelAssignment,
    ControllerMessageSpec,
    DeadlockAnalyzer,
    MessageTriple,
    MissingAssignmentError,
    VCAssignment,
    skeleton_edges,
)
from repro.core.repair import DeadlockRepairer
from repro.core.schema import Column, Role, TableSchema
from repro.core.table import ControllerTable
from repro.faults.mutations import MutationEngine
from repro.protocols.family import SPECS, attach_variant, build_variant

MEMBERS = tuple(SPECS)
#: Fault classes that edit controller tables (not V).
TABLE_FAULTS = ("drop-row", "duplicate-row", "swap-output-message",
                "flip-next-state")


def _settings(max_examples):
    return settings(max_examples=max_examples, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def members():
    """Module-private members: analyses write tables into their
    databases, which must not land in the session fixture."""
    systems = {key: build_variant(key) for key in MEMBERS}
    yield systems
    for system in systems.values():
        system.db.close()


def _assert_parity(system, assignment, skeleton=None):
    specs = system.deadlock_specs()
    if skeleton is None:
        skeleton = DeadlockAnalyzer(system.db, specs,
                                    assignment).dependency_skeleton()
    analysis = DeadlockAnalyzer(system.db, specs, assignment).analyze(
        table_name="pdt_skeleton_parity")
    edges = skeleton_edges(skeleton, assignment)
    assert edges == analysis.edges(), assignment.name
    cycles = find_cycles(edges)
    assert cycles == analysis.cycles(), assignment.name
    return cycles


@pytest.mark.parametrize("member", MEMBERS)
def test_committed_assignments(members, member):
    system = members[member]
    for assignment in system.channel_assignments.values():
        _assert_parity(system, assignment)


def test_skeleton_pairs_are_distinct_and_channel_free(members):
    system = members["mesi"]
    specs = system.deadlock_specs()
    skeletons = [
        DeadlockAnalyzer(system.db, specs, v).dependency_skeleton()
        for v in system.channel_assignments.values()
    ]
    assert len(set(skeletons[0])) == len(skeletons[0]) > 0
    assert all(s == skeletons[0] for s in skeletons)
    assert {c for c, _, _ in skeletons[0]} <= {s.name for s in specs}


@_settings(10)
@given(member=st.sampled_from(MEMBERS),
       start=st.sampled_from(("v4", "v5")),
       data=st.data())
def test_random_fix_sequences(members, member, start, data):
    """1-3 candidate fixes drawn from v4/v5, parity after each one."""
    system = members[member]
    current = system.channel_assignments[start]
    repairer = DeadlockRepairer.for_system(system, current)
    skeleton = repairer._skeleton()
    cycles = _assert_parity(system, current, skeleton)
    for step in range(data.draw(st.integers(1, 3), label="steps")):
        if not cycles:
            break
        fixes = repairer.candidates(current, cycles)
        fix = data.draw(st.sampled_from(fixes), label=f"fix {step}")
        current = fix.assignment
        cycles = _assert_parity(system, current, skeleton)


@_settings(10)
@given(member=st.sampled_from(MEMBERS), data=st.data())
def test_reassign_channel_mutated_v5d(members, member, data):
    """The campaign's ``reassign-channel`` fault: 1-3 of v5d's entries
    moved to a random existing channel."""
    system = members[member]
    base = system.channel_assignments["v5d"]
    entries = list(base.assignments)
    channels = sorted(base.channels() | base.dedicated)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        i = data.draw(st.integers(0, len(entries) - 1), label="entry")
        vc = data.draw(st.sampled_from(channels), label="channel")
        e = entries[i]
        entries[i] = VCAssignment(e.message, e.src, e.dst, vc)
    _assert_parity(system, ChannelAssignment("mut", entries,
                                             dedicated=base.dedicated))


@_settings(12)
@given(member=st.sampled_from(MEMBERS),
       fault_class=st.sampled_from(TABLE_FAULTS),
       seed=st.integers(0, 2 ** 16))
def test_mutated_tables(members, member, fault_class, seed):
    """Table-editing faults applied to a cloned member: the skeleton is
    read from the edited tables and still matches, or both sides raise
    the same error for a message V does not cover."""
    system = members[member]
    mutation = MutationEngine(system, seed=seed,
                              classes=[fault_class]).sample(1)[0]
    clone = attach_variant(ProtocolDatabase.deserialize(system.db.snapshot()))
    try:
        mutation.apply_to(clone)
        specs = clone.deadlock_specs()
        for name in ("v4", "v5", "v5d"):
            assignment = clone.channel_assignments[name]
            skeleton, skeleton_error = _outcome(
                DeadlockAnalyzer(clone.db, specs,
                                 assignment).dependency_skeleton)
            analysis, analysis_error = _outcome(
                DeadlockAnalyzer(clone.db, specs, assignment).analyze)
            assert skeleton_error == analysis_error
            if analysis is not None:
                edges = skeleton_edges(skeleton, assignment)
                assert edges == analysis.edges()
                assert find_cycles(edges) == analysis.cycles()
    finally:
        clone.db.close()


def _outcome(fn):
    """``(result, None)``, or ``(None, message)`` when V misses an entry."""
    try:
        return fn(), None
    except MissingAssignmentError as exc:
        return None, str(exc)


def _assert_same_missing_error(db, specs, assignment):
    with pytest.raises(MissingAssignmentError) as full:
        DeadlockAnalyzer(db, specs, assignment).analyze(
            table_name="pdt_missing")
    with pytest.raises(MissingAssignmentError) as python:
        DeadlockAnalyzer(db, specs, assignment).analyze(
            table_name="pdt_missing", engine="python")
    with pytest.raises(MissingAssignmentError) as searched:
        DeadlockRepairer(db, specs, assignment).search()
    assert str(searched.value) == str(full.value) == str(python.value)
    return str(searched.value)


@pytest.mark.parametrize("member", ("mesi", "moesi"))
def test_missing_entry_raises_the_analysis_error(members, member):
    system = members[member]
    base = system.channel_assignments["v5"]
    skeleton = DeadlockAnalyzer(system.db, system.deadlock_specs(),
                                base).dependency_skeleton()
    _, (m, s, d), _ = skeleton[len(skeleton) // 2]
    missing = ChannelAssignment(
        "v5-missing",
        [a for a in base.assignments if (a.message, a.src, a.dst) != (m, s, d)],
        dedicated=base.dedicated,
    )
    message = _assert_same_missing_error(system.db, system.deadlock_specs(),
                                         missing)
    assert "'v5-missing'" in message


def test_missing_input_of_row_without_outputs(db):
    """A row whose input triple is set but whose outputs are all NULL
    contributes no skeleton pair; its input must still be covered."""
    roles = ("local", "home", "remote")
    schema = TableSchema("T", [
        Column("im", ("req", "ack"), Role.INPUT),
        Column("isrc", roles, Role.INPUT),
        Column("idst", roles, Role.INPUT),
        Column("om", ("req", "ack"), Role.OUTPUT),
        Column("osrc", roles, Role.OUTPUT),
        Column("odst", roles, Role.OUTPUT),
    ])
    table = ControllerTable.from_rows(db, schema, [
        {"im": "req", "isrc": "local", "idst": "home",
         "om": "ack", "osrc": "home", "odst": "local"},
        {"im": "ack", "isrc": "remote", "idst": "home",
         "om": None, "osrc": None, "odst": None},
    ], validate=False)
    spec = ControllerMessageSpec(
        controller=table,
        input_triple=MessageTriple("im", "isrc", "idst"),
        output_triples=(MessageTriple("om", "osrc", "odst"),),
    )
    v = ChannelAssignment("partial", [
        VCAssignment("req", "local", "home", "VC0"),
        VCAssignment("ack", "home", "local", "VC1"),
    ])
    skeleton = DeadlockAnalyzer(db, [spec], ChannelAssignment(
        "full", v.assignments + (VCAssignment("ack", "remote", "home",
                                              "VC1"),),
    )).dependency_skeleton()
    assert skeleton == (("T", ("req", "local", "home"),
                         ("ack", "home", "local")),)
    message = _assert_same_missing_error(db, [spec], v)
    assert "'ack' from 'remote' to 'home'" in message
