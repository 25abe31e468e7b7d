"""Tests for the automated channel-assignment repair search."""

import pytest

from repro import telemetry
from repro.core.database import ProtocolDatabase
from repro.core.deadlock import (
    ChannelAssignment,
    ControllerMessageSpec,
    MessageTriple,
    VCAssignment,
)
from repro.core import repair as repair_mod
from repro.core.repair import DeadlockRepairer, Fix, RepairResult
from repro.core.schema import Column, Role, TableSchema
from repro.core.table import ControllerTable


def toy_specs(db):
    """A two-controller ping-pong with a guaranteed VC1/VC2 cycle."""
    roles = ("local", "home", "remote")
    msgs = ("fwd", "resp")

    def controller(name, rows):
        schema = TableSchema(name, [
            Column("im", msgs, Role.INPUT),
            Column("isrc", roles, Role.INPUT),
            Column("idst", roles, Role.INPUT),
            Column("om", msgs, Role.OUTPUT),
            Column("osrc", roles, Role.OUTPUT),
            Column("odst", roles, Role.OUTPUT),
        ])
        table = ControllerTable.from_rows(db, schema, rows)
        return ControllerMessageSpec(
            controller=table,
            input_triple=MessageTriple("im", "isrc", "idst"),
            output_triples=(MessageTriple("om", "osrc", "odst"),),
        )

    a = controller("A", [
        {"im": "resp", "isrc": "remote", "idst": "home",
         "om": "fwd", "osrc": "home", "odst": "remote"},
    ])
    b = controller("B", [
        {"im": "fwd", "isrc": "home", "idst": "remote",
         "om": "resp", "osrc": "remote", "odst": "home"},
    ])
    v = ChannelAssignment("toy", [
        VCAssignment("fwd", "home", "remote", "VC1"),
        VCAssignment("resp", "remote", "home", "VC2"),
    ])
    return [a, b], v


class TestToyRepair:
    def test_finds_a_fix(self, db):
        specs, v = toy_specs(db)
        result = DeadlockRepairer(db, specs, v).search()
        assert result.success
        assert result.initial_cycles and not result.final_cycles
        assert result.applied

    def test_prefers_cheap_fix_over_channel_dedication(self, db):
        specs, v = toy_specs(db)
        result = DeadlockRepairer(db, specs, v).search()
        assert all(f.kind != "dedicate-channel" for f in result.applied)

    def test_fixed_assignment_is_verified_deadlock_free(self, db):
        from repro.core.deadlock import DeadlockAnalyzer
        specs, v = toy_specs(db)
        result = DeadlockRepairer(db, specs, v).search()
        analysis = DeadlockAnalyzer(
            db, specs, result.final_assignment
        ).analyze(table_name="pdt_verify")
        assert analysis.is_deadlock_free()

    def test_already_free_assignment_untouched(self, db):
        specs, _ = toy_specs(db)
        v = ChannelAssignment("free", [
            VCAssignment("fwd", "home", "remote", "VC1"),
            VCAssignment("resp", "remote", "home", "VC2"),
        ], dedicated=("VC2",))
        result = DeadlockRepairer(db, specs, v).search()
        assert result.success and not result.applied
        assert result.final_assignment is v

    def test_render(self, db):
        specs, v = toy_specs(db)
        text = DeadlockRepairer(db, specs, v).search().render()
        assert "repair search" in text and "deadlock-free" in text


class TestRepairJournal:
    def test_resume_replays_journaled_rounds(self, db, tmp_path):
        specs, v = toy_specs(db)
        journal = str(tmp_path / "repair.jsonl")
        first = DeadlockRepairer(db, specs, v).search(journal_path=journal)
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            resumed = DeadlockRepairer(db, specs, v).search(
                journal_path=journal)
        assert tracer.registry.counter("repair.search.resumed_rounds") == \
            len(first.applied) > 0
        assert resumed.evaluated == 0
        assert [f.description for f in resumed.applied] == \
            [f.description for f in first.applied]

    def test_mismatched_base_journal_refused_before_replay(
            self, db, tmp_path, monkeypatch):
        from repro.runtime import JournalError
        specs, v = toy_specs(db)
        journal = tmp_path / "repair.jsonl"
        DeadlockRepairer(db, specs, v).search(journal_path=str(journal))
        written = journal.read_bytes()
        # Same assignment name, different channel map: another base.
        other = ChannelAssignment("toy", [
            VCAssignment("fwd", "home", "remote", "VC3"),
            VCAssignment("resp", "remote", "home", "VC2"),
        ])
        repairer = DeadlockRepairer(db, specs, other)
        replayed = []
        replay = repairer._replay_fix
        monkeypatch.setattr(repairer, "_replay_fix",
                            lambda *a: replayed.append(a) or replay(*a))
        tracer = telemetry.Tracer()
        with telemetry.use_tracer(tracer):
            with pytest.raises(JournalError, match="base_digest"):
                repairer.search(journal_path=str(journal))
        assert replayed == []
        assert tracer.registry.counter("repair.search.resumed_rounds") == 0
        assert journal.read_bytes() == written


class TestReverify:
    def test_disagreeing_skeleton_fails_the_fix(self, db, monkeypatch):
        """Equal cycle *counts* are not enough: a skeleton reporting as
        many cycles as both full engines, but different ones, must fail
        re-verification."""
        specs, v = toy_specs(db)
        repairer = DeadlockRepairer(db, specs, v)
        # A no-op "fix" leaves the toy's cycles in place.
        cycles = repairer.search(max_rounds=0).initial_cycles
        assert cycles
        noop = Fix(kind="move", description="no-op", assignment=v)
        result = RepairResult(initial_cycles=cycles, applied=[noop],
                              final_assignment=v, final_cycles=cycles,
                              evaluated=0, seconds=0.0)
        # As many self-loops as real cycles, on channels V does not have.
        fake = [(f"X{i}", f"X{i}") for i in range(len(cycles))]
        monkeypatch.setattr(repair_mod, "skeleton_edges",
                            lambda skeleton, channels: fake)
        (verdict,) = repairer.reverify(result)
        assert verdict["deadlock_sql"]["cycles"] == len(cycles)
        assert verdict["deadlock_python"]["cycles"] == len(cycles)
        assert not verdict["engines_agree"]
        assert not verdict["ok"]


class TestAsuraRepair:
    def test_v5_repaired_with_dedicated_paths(self, fresh_system):
        """The search rediscovers the paper's fix *class*: dedicated
        hardware paths for messages on the cyclic channels."""
        repairer = DeadlockRepairer(
            fresh_system.db,
            fresh_system.deadlock_specs(),
            fresh_system.channel_assignments["v5"],
        )
        result = repairer.search(max_rounds=4)
        assert result.success
        assert len(result.initial_cycles) == 3
        assert all(f.kind in ("move", "dedicate-message")
                   for f in result.applied)

    def test_paper_fix_is_among_the_successful_candidates(self, fresh_system):
        """Dedicating the response-triggered memory requests (the
        published fix, our v5d) is itself verified by the repairer's
        evaluator."""
        from repro.core.deadlock import DeadlockAnalyzer
        analysis = DeadlockAnalyzer(
            fresh_system.db,
            fresh_system.deadlock_specs(),
            fresh_system.channel_assignments["v5d"],
        ).analyze(table_name="pdt_paperfix")
        assert analysis.is_deadlock_free()
