"""Unit tests for repair candidate generation (separate from the search)."""

import pytest

from repro.core.deadlock import (
    ChannelAssignment,
    ControllerMessageSpec,
    MessageTriple,
    VCAssignment,
)
from repro.core.repair import DeadlockRepairer
from repro.core.schema import Column, Role, TableSchema
from repro.core.table import ControllerTable


@pytest.fixture()
def repairer(db):
    schema = TableSchema("T", [
        Column("im", ("a", "b"), Role.INPUT),
        Column("isrc", ("local", "home"), Role.INPUT),
        Column("idst", ("local", "home"), Role.INPUT),
        Column("om", ("a", "b"), Role.OUTPUT),
        Column("osrc", ("local", "home"), Role.OUTPUT),
        Column("odst", ("local", "home"), Role.OUTPUT),
    ])
    table = ControllerTable.from_rows(db, schema, [
        {"im": "a", "isrc": "local", "idst": "home",
         "om": "b", "osrc": "home", "odst": "local"},
    ])
    spec = ControllerMessageSpec(
        controller=table,
        input_triple=MessageTriple("im", "isrc", "idst"),
        output_triples=(MessageTriple("om", "osrc", "odst"),),
    )
    v = ChannelAssignment("v", [
        VCAssignment("a", "local", "home", "VC0"),
        VCAssignment("b", "home", "local", "VC1"),
    ])
    return DeadlockRepairer(db, [spec], v)


class TestCandidates:
    def test_only_cyclic_channels_touched(self, repairer):
        fixes = repairer.candidates(repairer.base, [("VC0",)])
        for fix in fixes:
            assert "VC1" not in fix.description or "VC0" in fix.description

    def test_move_and_dedicate_per_route(self, repairer):
        fixes = repairer.candidates(repairer.base, [("VC0",)])
        kinds = [f.kind for f in fixes]
        assert "move" in kinds and "dedicate-message" in kinds
        assert "dedicate-channel" in kinds

    def test_fresh_channel_names_do_not_collide(self, repairer):
        fresh = repairer._fresh_channel(repairer.base)
        assert fresh not in repairer.base.channels()
        with_new = repairer.base.reassigned(
            "v2", {("a", "local", "home"): fresh},
        )
        assert repairer._fresh_channel(with_new) != fresh

    def test_moved_assignment_routes_to_new_channel(self, repairer):
        fixes = repairer.candidates(repairer.base, [("VC0",)])
        move = next(f for f in fixes if f.kind == "move")
        assert move.assignment.lookup("a", "local", "home") != "VC0"

    def test_dedicated_message_marks_channel(self, repairer):
        fixes = repairer.candidates(repairer.base, [("VC0",)])
        ded = next(f for f in fixes if f.kind == "dedicate-message")
        new_vc = ded.assignment.lookup("a", "local", "home")
        assert new_vc in ded.assignment.dedicated

    def test_dedicate_channel_keeps_assignments(self, repairer):
        fixes = repairer.candidates(repairer.base, [("VC0",)])
        big = next(f for f in fixes if f.kind == "dedicate-channel")
        assert big.assignment.lookup("a", "local", "home") == "VC0"
        assert "VC0" in big.assignment.dedicated

    def test_costs_ordered(self, repairer):
        fixes = repairer.candidates(repairer.base, [("VC0",)])
        by_kind = {f.kind: f.cost for f in fixes}
        assert by_kind["move"] < by_kind["dedicate-message"] \
            < by_kind["dedicate-channel"]

    def test_pair_fix_channels_avoid_existing_b_suffix(self, repairer):
        """A V that already uses ``VCN0b`` must not get a pair fix that
        routes onto it and marks the whole existing channel dedicated."""
        base = repairer.base.reassigned(
            "v-b", {("b", "home", "local"): "VCN0b"})
        fixes = repairer.candidates(base, [("VC0", "VCN0b")])
        pairs = [f for f in fixes
                 if f.kind == "dedicate-message" and len(f.changes) == 2]
        assert pairs
        existing = base.channels() | base.dedicated
        for fix in pairs:
            assert not set(fix.dedicated) & existing, fix.description
            assert {c[3] for c in fix.changes}.isdisjoint(existing)
            assert len({c[3] for c in fix.changes}) == 2
