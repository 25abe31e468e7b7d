"""Functional column steps build exactly the table the cross join builds.

An output step whose constraint computes its column (a ternary chain of
``column = v`` leaves, see :func:`repro.core.sqlgen.functional_sql`) is
generated as a CASE projection instead of a cross join with the column's
domain table.  "Exactly" means the same ``sqlite_master`` DDL, the same
rowids and the same rows.  The cross join is forced by making the
compiler decline every step.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core import generator
from repro.core.constraints import ColumnConstraint, ConstraintSet
from repro.core.database import ProtocolDatabase
from repro.core.expr import TRUE, C, Col, Eq, Lit, Ternary, cases, when
from repro.core.generator import TableGenerator
from repro.core.schema import Column, Role, TableSchema
from repro.core.sqlgen import functional_sql, quote_ident
from repro.protocols.asura.hardware import build_hardware_mapping
from repro.protocols.family import SPECS, build_variant, get_spec
from repro.protocols.family.system import _constraint_sets as constraint_sets

from .test_expr_sql_equivalence import bool_exprs


def decline(expr, column, domain):
    return None


def snapshot(db, name):
    """DDL plus every ``(rowid, row)`` of a table, in rowid order."""
    ddl = db.scalar("SELECT sql FROM sqlite_master WHERE type = 'table' "
                    "AND name = ?", (name,))
    rows = db.query_tuples(
        f"SELECT rowid, * FROM {quote_ident(name)} ORDER BY rowid")
    return ddl, rows


def generate_both(monkeypatch, db, cs, name="t"):
    """Generate ``cs`` as the projection and as the cross join, into the
    same table name; returns both snapshots and the projected step count."""
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer):
        TableGenerator(db, cs, table_name=name).generate_incremental()
    projected = snapshot(db, name)
    with monkeypatch.context() as m:
        m.setattr(generator, "functional_sql", decline)
        TableGenerator(db, cs, table_name=name).generate_incremental()
    return (projected, snapshot(db, name),
            tracer.registry.counter("generate.projected_steps"))


# -- the real specifications -------------------------------------------------------


@pytest.mark.parametrize("variant", tuple(SPECS))
def test_member_tables_match_the_cross_join(variant, monkeypatch):
    tracer = telemetry.Tracer()
    with telemetry.use_tracer(tracer):
        projected = build_variant(variant)
    # Every output step of every member is functional: none falls back.
    assert (tracer.registry.counter("generate.projected_steps")
            == tracer.span_stats["generate.column"].count > 0)
    monkeypatch.setattr(generator, "functional_sql", decline)
    joined = build_variant(variant)
    for name, table in projected.tables.items():
        assert snapshot(projected.db, name) == snapshot(joined.db, name), name
        # A projected step reports its row count without counting.
        steps = projected.generation_results[name].steps
        assert [s.result_rows for s in steps] == [
            s.result_rows for s in joined.generation_results[name].steps]
        assert steps[-1].result_rows == table.row_count


def test_hardware_mapping_matches_the_cross_join(monkeypatch):
    """The section-5 ED, its nine partitions and the reconstruction."""
    def mapped():
        system = build_variant("mesi")
        hw = build_hardware_mapping(system.db, system.tables["D"],
                                    system.constraint_sets["D"])
        names = ([hw.ed.table_name, hw.reconstructed.table_name]
                 + [t.table_name for t in hw.partitions.values()])
        return {n: snapshot(system.db, n) for n in names}

    projected = mapped()
    monkeypatch.setattr(generator, "functional_sql", decline)
    assert len(projected) == 11
    assert mapped() == projected


def spec_of(cs):
    return cs.schema.columns, tuple(c.expr for c in cs)


@pytest.mark.parametrize("variant", tuple(SPECS))
def test_relaxed_regenerations_match_the_cross_join(variant, monkeypatch):
    """Every output column a relax-constraint mutant can weaken to TRUE:
    the relaxed step joins, every later functional step projects over the
    rows the relaxation multiplied.  A table whose spec an earlier member
    already has (mesif's and mesi-vc6's D, for one) is checked there."""
    earlier = tuple(SPECS)[:tuple(SPECS).index(variant)]
    seen = {(name, spec_of(cs)) for key in earlier
            for name, cs in constraint_sets(get_spec(key)).items()}
    system = build_variant(variant)
    for name, cs in system.constraint_sets.items():
        if (name, spec_of(cs)) in seen:
            continue
        for col in cs.schema.output_names:
            if cs.get(col).expr == TRUE:
                continue
            weakened = cs.copy()
            weakened.replace(col, TRUE)
            projected, joined, _ = generate_both(monkeypatch, system.db,
                                                 weakened, "relaxed")
            assert projected == joined, f"{name}.{col}"


# -- fallbacks -------------------------------------------------------------------


def small_schema(nullable=True):
    return TableSchema("t", [
        Column("i1", ("a", "b"), Role.INPUT, nullable=False),
        Column("i2", ("p", "q", "r"), Role.INPUT),
        Column("o1", ("x", "y"), Role.OUTPUT, nullable=nullable),
        Column("o2", ("u", "w"), Role.OUTPUT),
    ])


def assert_falls_back(monkeypatch, cs, projected_steps):
    with ProtocolDatabase() as db:
        projected, joined, steps = generate_both(monkeypatch, db, cs)
    assert projected == joined
    assert projected[1], "the spec generates no rows"
    assert steps == projected_steps


def test_in_leaf_falls_back(monkeypatch):
    cs = ConstraintSet(small_schema())
    cs.set("o1", when(C("i1").eq("a"), C("o1").isin(("x", "y")),
                      C("o1").is_null()))
    cs.set("o2", when(C("o1").eq("x"), C("o2").eq("u"), C("o2").eq("w")))
    assert_falls_back(monkeypatch, cs, projected_steps=1)


def test_condition_reading_the_column_falls_back(monkeypatch):
    cs = ConstraintSet(small_schema())
    # Every leaf binds o1, but the first condition reads it: rows with
    # i1 = a take x and y, the others x and NULL.
    cs.set("o1", cases((C("o1").eq("x"), C("o1").eq("x")),
                       (C("i1").eq("a"), C("o1").eq("y")),
                       default=C("o1").is_null()))
    assert_falls_back(monkeypatch, cs, projected_steps=0)


def test_two_column_group_falls_back(monkeypatch):
    cs = ConstraintSet(small_schema())
    cs.set("o1", when(C("o2").eq("u"), C("o1").eq("x"), C("o1").eq("y")))
    cs.set("o2", when(C("o1").eq("x"), C("o2").eq("u"), C("o2").is_null()))
    assert cs.generation_plan() == [("o1", "o2")]
    assert_falls_back(monkeypatch, cs, projected_steps=0)


def test_null_leaf_on_a_non_nullable_column_falls_back(monkeypatch):
    """The join gives the NULL arm's rows no candidate, so they vanish; a
    projection would keep them with a NULL no domain value matches."""
    expr = when(C("i1").eq("a"), C("o1").eq("x"), C("o1").is_null())
    domain = small_schema(nullable=False).column("o1").domain
    assert functional_sql(expr, "o1", domain) is None
    cs = ConstraintSet(small_schema(nullable=False))
    # Spec validation rejects the NULL literal; install the constraint
    # past it to show the compiler's own guard.
    cs._by_column["o1"] = ColumnConstraint("o1", expr)
    assert_falls_back(monkeypatch, cs, projected_steps=0)


def test_functional_sql_flattens_if_false_and_nests_if_true():
    expr = cases(
        (C("i1").eq("a"), when(C("i2").eq("p"), C("o1").eq("x"),
                               Eq(Lit("y"), Col("o1")))),
        (C("i2").eq("q"), C("o1").eq("y")),
        default=C("o1").is_null(),
    )
    sql = functional_sql(expr, "o1", (None, "x", "y"))
    assert sql.startswith("CAST(CASE WHEN") and sql.endswith("END AS TEXT)")
    assert sql.count("CASE") == 2
    assert functional_sql(TRUE, "o1", (None, "x", "y")) is None
    assert functional_sql(C("o1").eq("z"), "o1", (None, "x", "y")) is None
    assert functional_sql(C("o1").eq("x"), "o1", ("x",)) == "CAST('x' AS TEXT)"


# -- random ternary-equality chains -----------------------------------------------

VALUES = ("x", "y", "z", "o'quote", None)


def leaves(column):
    """``column = v`` in either operand order; ``z`` lies outside the
    output domains and NULL outside the non-nullable ones."""
    def eq(value, flip):
        col, lit = Col(column), Lit(value)
        return Eq(lit, col) if flip else Eq(col, lit)
    return st.builds(eq, st.sampled_from(VALUES), st.booleans())


def chains(column):
    return st.recursive(
        leaves(column),
        lambda sub: st.builds(Ternary, bool_exprs(1), sub, sub),
        max_leaves=8,
    )


@settings(max_examples=100, deadline=None)
@given(c_expr=chains("c"), d_expr=chains("d"),
       c_nullable=st.booleans(), d_nullable=st.booleans())
def test_random_ternary_equality_chains_match_the_cross_join(
        c_expr, d_expr, c_nullable, d_nullable):
    # ``bool_exprs`` conditions read a, b and c: over c a condition reads
    # an earlier output (d's step) or the column itself (c's fallback).
    schema = TableSchema("t", [
        Column("a", ("x", "y", "o'quote"), Role.INPUT),
        Column("b", ("x", "z"), Role.INPUT, nullable=False),
        Column("c", ("x", "y", "o'quote"), Role.OUTPUT, nullable=c_nullable),
        Column("d", ("x", "y"), Role.OUTPUT, nullable=d_nullable),
    ])
    cs = ConstraintSet(schema)
    for name, expr in (("c", c_expr), ("d", d_expr)):
        # Out-of-domain leaves exercise the compiler's guard; validation
        # would reject them, so they are installed past it.
        cs._by_column[name] = ColumnConstraint(name, expr)
    with pytest.MonkeyPatch.context() as monkeypatch, \
            ProtocolDatabase() as db:
        projected, joined, _ = generate_both(monkeypatch, db, cs)
    assert projected == joined
