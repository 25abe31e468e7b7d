"""Tests for the checkpoint journal and the atomic write helpers."""

import json
import os

import pytest

from repro.runtime import (
    JOURNAL_SCHEMA,
    CheckpointJournal,
    JournalError,
    atomic_write_json,
    atomic_write_text,
    load_journal,
)


class TestJournalRoundTrip:
    def test_header_and_units_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t", "seed": 7}) as j:
            j.record(0, {"detected_by": "invariants"})
            j.record(1, {"detected_by": None})
        header, units = load_journal(path)
        assert header == {"kind": "t", "seed": 7}
        assert units == {0: {"detected_by": "invariants"},
                         1: {"detected_by": None}}

    def test_records_are_one_json_line_each(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, {"x": 1})
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["schema"] == JOURNAL_SCHEMA
        assert json.loads(lines[1]) == {
            "type": "unit", "id": 0, "data": {"x": 1},
            "ts": json.loads(lines[1])["ts"]}

    def test_reopen_appends_and_keeps_old_units(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t", "seed": 1}) as j:
            j.record(0, "a")
        with CheckpointJournal.open(path, {"kind": "t", "seed": 1}) as j:
            j.record(1, "b")
        header, units = load_journal(path)
        assert units == {0: "a", 1: "b"}
        # only one header record was written
        assert open(path).read().count('"header"') == 1

    def test_duplicate_unit_keeps_latest(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, "first")
            j.record(0, "second")
        _, units = load_journal(path)
        assert units == {0: "second"}


class TestJournalFailureModes:
    def test_torn_tail_line_is_discarded(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, "done")
        with open(path, "a") as fh:
            fh.write('{"type": "unit", "id": 1, "da')  # SIGKILL mid-append
        header, units = load_journal(path)
        assert units == {0: "done"}

    def test_reopen_truncates_torn_tail_before_append(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, "done")
        with open(path, "a") as fh:
            fh.write('{"type": "unit", "id": 1, "da')  # SIGKILL mid-append
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(1, "redone")
            j.record(2, "next")
        header, units = load_journal(path)
        assert units == {0: "done", 1: "redone", 2: "next"}
        # every line in the resumed journal is intact JSON
        for line in open(path).read().splitlines():
            json.loads(line)

    def test_reopen_twice_interrupted_journal(self, tmp_path):
        # A second resume of a twice-interrupted campaign must not see
        # the first resume's records as mid-file corruption.
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, "a")
        with open(path, "a") as fh:
            fh.write('{"type": "unit", "id": 1')  # first kill
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(1, "b")
        with open(path, "a") as fh:
            fh.write('{"type": "un')  # second kill
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(2, "c")
        _, units = load_journal(path)
        assert units == {0: "a", 1: "b", 2: "c"}

    def test_unterminated_final_record_is_not_durable(self, tmp_path):
        # Valid JSON whose trailing newline never hit the disk is still
        # a torn write: the unit re-runs rather than risking a
        # concatenated line on resume.
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, "done")
        with open(path, "a") as fh:
            fh.write(json.dumps({"type": "unit", "id": 1, "data": "x"}))
        _, units = load_journal(path)
        assert units == {0: "done"}
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(1, "redone")
        _, units = load_journal(path)
        assert units == {0: "done", 1: "redone"}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t"}) as j:
            j.record(0, "a")
        with open(path, "a") as fh:
            fh.write("NOT JSON\n")
            fh.write(json.dumps({"type": "unit", "id": 1, "data": "b"}) + "\n")
        with pytest.raises(JournalError, match="corrupt at line 3"):
            load_journal(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"type": "unit", "id": 0,
                                    "data": "x"}) + "\n")
        with pytest.raises(JournalError, match="no header"):
            load_journal(str(path))

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"type": "header",
                                    "schema": "bogus/v9"}) + "\n")
        with pytest.raises(JournalError, match="schema"):
            load_journal(str(path))

    def test_header_mismatch_refuses_append(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CheckpointJournal.open(path, {"kind": "t", "seed": 1}).close()
        with pytest.raises(JournalError, match="different run"):
            CheckpointJournal.open(path, {"kind": "t", "seed": 2})

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            load_journal(str(tmp_path / "nope.jsonl"))

    @pytest.mark.parametrize("written, expected, key", [
        ({"kind": "t", "seed": 1}, {"kind": "t", "seed": 2}, "seed"),
        ({"kind": "t", "variant": "moesi"}, {"kind": "t"}, "variant"),
        ({"kind": "t"}, {"kind": "t", "quads": 3}, "quads"),
    ])
    def test_expected_header_checked_symmetrically(self, tmp_path, written,
                                                   expected, key):
        path = str(tmp_path / "j.jsonl")
        CheckpointJournal.open(path, written).close()
        with pytest.raises(JournalError, match=f"{key}="):
            load_journal(path, expect=expected)

    def test_expected_header_match_loads(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with CheckpointJournal.open(path, {"kind": "t", "seed": 1}) as j:
            j.record(0, "a")
        assert load_journal(path, expect={"kind": "t", "seed": 1}) == \
            ({"kind": "t", "seed": 1}, {0: "a"})


class TestAtomicWrites:
    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"b": 2, "a": 1})
        assert json.load(open(path)) == {"a": 1, "b": 2}

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write_text(str(tmp_path / "out.txt"), "hello")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_replaces_existing_content_completely(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "long original content" * 100)
        atomic_write_text(path, "short")
        assert open(path).read() == "short"

    def test_failed_write_preserves_previous_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"ok": True})

        class Unserializable:
            pass

        # default=str makes most objects serializable; force a failure
        # with a circular reference instead.
        circular = []
        circular.append(circular)
        with pytest.raises(ValueError):
            atomic_write_json(path, circular)
        assert json.load(open(path)) == {"ok": True}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


class TestCompaction:
    def _journal_with_history(self, path):
        j = CheckpointJournal.open(path, {"kind": "t", "seed": 3})
        for unit in range(4):
            j.record(unit, {"state": "queued"})
        for unit in range(4):
            j.record(unit, {"state": "running"})
        j.record(0, {"state": "done"})
        return j

    def test_compact_drops_superseded_keeps_latest(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with self._journal_with_history(path) as j:
            dropped = j.compact()
        assert dropped == 5  # 9 records, 4 live units
        header, units = load_journal(path)
        assert header == {"kind": "t", "seed": 3}
        assert units[0] == {"state": "done"}
        assert all(units[u] == {"state": "running"} for u in (1, 2, 3))
        with open(path, encoding="utf-8") as fh:
            assert len(fh.read().splitlines()) == 5  # header + 4 units

    def test_appends_after_compact_land_in_new_file(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with self._journal_with_history(path) as j:
            j.compact()
            j.record(9, {"state": "queued"})
        _, units = load_journal(path)
        assert units[9] == {"state": "queued"}
        assert set(units) == {0, 1, 2, 3, 9}

    def test_compact_preserves_record_order(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with self._journal_with_history(path) as j:
            j.compact()
        with open(path, encoding="utf-8") as fh:
            ids = [json.loads(line)["id"]
                   for line in fh.read().splitlines()[1:]]
        assert ids == [0, 1, 2, 3]  # first-seen order survives the rewrite

    def test_double_crash_during_compaction_loses_nothing(
            self, tmp_path, monkeypatch):
        """Two successive crashes at different instants inside
        ``compact()`` — before the swap, then during the temp-file
        write — must each leave a complete journal behind."""
        path = str(tmp_path / "j.jsonl")
        self._journal_with_history(path).close()

        def crash_replace(src, dst):
            raise OSError("simulated power loss before rename")

        # Crash 1: the fully-written temp file never gets swapped in.
        j = CheckpointJournal.open(path, {"kind": "t", "seed": 3})
        monkeypatch.setattr("repro.runtime.atomic.os.replace",
                            crash_replace)
        with pytest.raises(OSError, match="before rename"):
            j.compact()
        monkeypatch.undo()
        j.close()  # the "process" dies; handle goes with it
        _, units = load_journal(path)
        assert units[0] == {"state": "done"}
        assert set(units) == {0, 1, 2, 3}

        # Crash 2 (after restart): dies mid temp-file write, before
        # the content is even complete.
        j = CheckpointJournal.open(path, {"kind": "t", "seed": 3})
        j.record(4, {"state": "queued"})

        def crash_fsync(fd):
            raise OSError("simulated power loss during temp write")

        monkeypatch.setattr("repro.runtime.atomic.os.fsync", crash_fsync)
        with pytest.raises(OSError, match="during temp write"):
            j.compact()
        monkeypatch.undo()
        j.close()
        _, units = load_journal(path)
        assert set(units) == {0, 1, 2, 3, 4}

        # Third time's the charm: a clean compaction over the survivor.
        with CheckpointJournal.open(path, {"kind": "t", "seed": 3}) as j:
            j.compact()
            j.record(5, {"state": "queued"})
        _, units = load_journal(path)
        assert set(units) == {0, 1, 2, 3, 4, 5}
        assert units[0] == {"state": "done"}
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_crashed_compaction_handle_still_appends(self, tmp_path,
                                                     monkeypatch):
        """If the process *survives* a failed compaction, its reopened
        handle must keep appending durably."""
        path = str(tmp_path / "j.jsonl")
        j = self._journal_with_history(path)
        monkeypatch.setattr(
            "repro.runtime.atomic.os.replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("no swap")))
        with pytest.raises(OSError, match="no swap"):
            j.compact()
        monkeypatch.undo()
        j.record(7, {"state": "queued"})
        j.close()
        _, units = load_journal(path)
        assert set(units) == {0, 1, 2, 3, 7}
