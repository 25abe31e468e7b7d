"""SQL query tracing through the ProtocolDatabase choke point."""

import pytest

from repro.core.database import DatabaseError, ProtocolDatabase
from repro.core.deadlock import DeadlockAnalyzer
from repro.telemetry import ListSink, Tracer, use_tracer
from repro.telemetry.tracer import normalize_sql


@pytest.fixture()
def traced_db():
    tracer = Tracer(sinks=[ListSink()], slow_sql_seconds=None)
    with use_tracer(tracer):
        with ProtocolDatabase() as db:
            yield tracer, db


class TestQueryMetrics:
    def test_queries_rows_and_latency_recorded(self, traced_db):
        tracer, db = traced_db
        db.execute("CREATE TABLE t (a TEXT)")
        db.executemany("INSERT INTO t VALUES (?)", [("x",), ("y",), ("z",)])
        rows = db.query("SELECT * FROM t")
        assert len(rows) == 3
        counters = tracer.registry.counters
        assert counters["sql.queries"] == 3
        assert counters["sql.rows_returned"] == 3
        assert counters["sql.rows_changed"] == 3
        assert tracer.registry.histograms["sql.seconds"].count == 3

    def test_statement_aggregation(self, traced_db):
        tracer, db = traced_db
        db.execute("CREATE TABLE t (a TEXT)")
        for _ in range(5):
            db.query("SELECT * FROM t")
        stats = tracer.sql_statements["SELECT * FROM t"]
        assert stats.count == 5
        assert stats.errors == 0

    def test_sql_events_emitted(self, traced_db):
        tracer, db = traced_db
        db.execute("CREATE TABLE t (a TEXT)")
        events = tracer.sinks[0].of_type("sql")
        assert events and events[0]["statement"] == "CREATE TABLE t (a TEXT)"


class TestErrorPath:
    def test_error_includes_class_and_statement(self, traced_db):
        _, db = traced_db
        with pytest.raises(DatabaseError) as exc:
            db.execute("SELECT * FROM missing_table")
        msg = str(exc.value)
        assert "OperationalError" in msg
        assert "SELECT * FROM missing_table" in msg

    def test_failed_query_still_recorded(self, traced_db):
        tracer, db = traced_db
        with pytest.raises(DatabaseError):
            db.execute("SELECT * FROM missing_table")
        assert tracer.registry.counters["sql.errors"] == 1
        (event,) = tracer.sinks[0].of_type("sql")
        assert event["status"] == "error"
        assert event["error"] == "OperationalError"

    def test_executemany_error_recorded(self, traced_db):
        tracer, db = traced_db
        db.execute("CREATE TABLE t (a TEXT)")
        with pytest.raises(DatabaseError) as exc:
            db.executemany("INSERT INTO t VALUES (?)", [("a", "b")])
        assert "ProgrammingError" in str(exc.value)
        assert tracer.registry.counters["sql.errors"] == 1

    def test_error_message_without_telemetry(self):
        with ProtocolDatabase() as db:
            with pytest.raises(DatabaseError) as exc:
                db.execute("SELECT * FROM missing_table")
        assert "OperationalError" in str(exc.value)
        assert "SQL was" in str(exc.value)


class TestSlowQueryPlans:
    def test_slow_select_captures_query_plan(self):
        tracer = Tracer(slow_sql_seconds=0.0)  # everything is "slow"
        with use_tracer(tracer):
            with ProtocolDatabase() as db:
                db.execute("CREATE TABLE t (a TEXT)")
                db.query("SELECT * FROM t WHERE a = ?", ("x",))
        plans = [q for q in tracer.slow_queries
                 if q["statement"].startswith("SELECT")]
        assert plans and plans[0]["plan"], plans
        assert any("SCAN" in d or "SEARCH" in d for d in plans[0]["plan"])

    def test_create_table_as_plans_the_select(self):
        tracer = Tracer(slow_sql_seconds=0.0)
        with use_tracer(tracer):
            with ProtocolDatabase() as db:
                db.execute("CREATE TABLE t (a TEXT)")
                db.execute("CREATE TABLE u AS SELECT * FROM t")
        (slow,) = [q for q in tracer.slow_queries
                   if q["statement"].startswith("CREATE TABLE u")]
        assert slow["plan"]  # planned via the embedded SELECT

    def test_threshold_none_disables_capture(self):
        tracer = Tracer(slow_sql_seconds=None)
        with use_tracer(tracer):
            with ProtocolDatabase() as db:
                db.execute("CREATE TABLE t (a TEXT)")
                db.query("SELECT * FROM t")
        assert tracer.slow_queries == []


class TestDeadlockCompositionTraced:
    def test_analyze_records_its_composition_statements(self, fresh_system):
        """Composition runs on the analyzer's own (traced) connection, so
        every ``__cand`` statement of the round shows up in the tracer."""
        analyzer = DeadlockAnalyzer(
            fresh_system.db, fresh_system.deadlock_specs(),
            fresh_system.channel_assignments["v5"])
        tracer = Tracer(sinks=[ListSink()], slow_sql_seconds=None)
        with use_tracer(tracer):
            analysis = analyzer.analyze(table_name="pdt_traced")
        assert analysis.cycles()
        stmts = analyzer._compose_round_stmts(
            "pdt_traced", ignore_messages=True, closure=False)
        assert any("__cand" in s for s in stmts)
        for stmt in stmts:
            assert tracer.sql_statements[normalize_sql(stmt)].count == 1
        (compose,) = [e for e in tracer.sinks[0].of_type("span")
                      if e["name"] == "deadlock.compose"]
        assert compose["closure"] is False and "parallel" not in compose
