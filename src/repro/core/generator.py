"""Table generation by constraint solving (paper section 3).

Two strategies:

* :meth:`TableGenerator.generate_monolithic` — the naive form: one cross
  join over *all* column tables with the full constraint conjunction in the
  ``WHERE`` clause.  The database must enumerate the whole cross product,
  which is exponential in the number of columns; this is the configuration
  the paper reports as taking "around 6 hours" for the directory table.

* :meth:`TableGenerator.generate_incremental` — the paper's production
  flow: first solve only the input-column constraints to build the legal
  input combinations, then extend the table one output column (group) at a
  time.  Each step's cross product is |table so far| × |column domain|, so
  cost grows linearly with columns instead of exponentially ("Incremental
  table generation produces the final table within a few minutes").

Most output steps are *functional*: a one-column group whose constraint is
a ternary chain (or a bare equality) ending in ``column = v`` leaves, with
``v`` in the column's domain and no condition reading the column.  Of the
|domain| candidates such a step gives a row, exactly one survives the
filter — the value the chain selects.  The step therefore projects that
value with a CASE expression (:func:`~repro.core.sqlgen.functional_sql`)
instead of joining the domain table.  The result is the same table:

* the join emits ``(r, v)`` exactly when ``v`` is the leaf the row's
  conditions select and ``v`` is in the domain, one row per work row;
* ``CROSS JOIN`` keeps the work table as the outer loop, so both forms
  emit rows in work-table order and give them the same rowids;
* the projection is cast to ``TEXT``, the type of the column table's
  column, so the final table's DDL is unchanged.

Every other step — ``TRUE`` (an unconstrained or relaxed column), ``In``
or ``Or`` leaves, conditions that read the column, multi-column groups —
keeps the cross join.  Column tables are created the first time a join
needs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..telemetry import get_tracer, span
from .constraints import ConstraintSet
from .database import ProtocolDatabase
from .expr import And, BoolExpr, TRUE, TrueExpr
from .schema import TableSchema
from .sqlgen import functional_sql, quote_ident, to_sql
from .table import ControllerTable

__all__ = ["TableGenerator", "GenerationResult", "GenerationBudgetError"]


class GenerationBudgetError(RuntimeError):
    """The cross product the monolithic strategy would enumerate exceeds
    the configured budget; this is how benchmarks sweep column counts
    without hanging the suite."""


@dataclass
class StepTiming:
    """Timing/size record for one incremental step (or the single
    monolithic step)."""

    label: str
    columns: tuple[str, ...]
    #: The paper's logical product, |rows so far| × |group domain|, also
    #: for a functional step that projects its value instead of joining.
    cross_product_size: int
    result_rows: int
    seconds: float


@dataclass
class GenerationResult:
    table: ControllerTable
    strategy: str
    steps: list[StepTiming] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.steps)

    @property
    def total_enumerated(self) -> int:
        """Total cross-product rows the database had to consider."""
        return sum(s.cross_product_size for s in self.steps)


class TableGenerator:
    """Generates one controller table from its column constraints."""

    def __init__(
        self,
        db: ProtocolDatabase,
        constraints: ConstraintSet,
        table_name: Optional[str] = None,
    ) -> None:
        self.db = db
        self.constraints = constraints
        self.schema = constraints.schema
        self.table_name = table_name or self.schema.name
        self._column_tables: dict[str, str] = {}

    # -- helpers -----------------------------------------------------------------
    def _column_table(self, column: str) -> str:
        name = self._column_tables.get(column)
        if name is None:
            name = self.db.create_column_table(
                self.schema.name, self.schema.column(column))
            self._column_tables[column] = name
        return name

    def _cross_join(self, columns: Sequence[str]) -> str:
        parts = [quote_ident(self._column_table(c)) for c in columns]
        return " CROSS JOIN ".join(parts)

    @staticmethod
    def _conj(exprs: Sequence[BoolExpr]) -> BoolExpr:
        parts = tuple(e for e in exprs if not isinstance(e, TrueExpr))
        if not parts:
            return TRUE
        if len(parts) == 1:
            return parts[0]
        return And(parts)

    # -- monolithic --------------------------------------------------------------
    def generate_monolithic(
        self, budget: Optional[int] = 50_000_000
    ) -> GenerationResult:
        """Solve the conjunction of every column constraint over the full
        cross product of column tables."""
        size = self.schema.cross_product_size()
        if budget is not None and size > budget:
            raise GenerationBudgetError(
                f"monolithic cross product for {self.schema.name!r} has "
                f"{size} rows, exceeding the budget of {budget}; this is the "
                "blow-up the incremental strategy exists to avoid"
            )
        cols = ", ".join(quote_ident(c) for c in self.schema.column_names)
        where = to_sql(self.constraints.conjunction())
        sql = f"SELECT {cols} FROM {self._cross_join(self.schema.column_names)} WHERE {where}"
        with span("generate.monolithic", table=self.table_name,
                  cross_product=size) as sp:
            self.db.create_table_as(self.table_name, sql)
        table = ControllerTable(self.db, self.schema, self.table_name)
        get_tracer().incr("generate.rows", table.row_count)
        step = StepTiming(
            label="monolithic",
            columns=self.schema.column_names,
            cross_product_size=size,
            result_rows=table.row_count,
            seconds=sp.seconds,
        )
        return GenerationResult(table=table, strategy="monolithic", steps=[step])

    # -- incremental --------------------------------------------------------------
    def generate_incremental(self) -> GenerationResult:
        """Inputs first, then output columns one (group) at a time."""
        with span("generate.table", table=self.table_name,
                  strategy="incremental"):
            return self._generate_incremental()

    def _generate_incremental(self) -> GenerationResult:
        steps: list[StepTiming] = []
        work = f"__gen_{self.table_name}"

        # Step 1: legal input combinations.
        input_names = self.schema.input_names
        where = to_sql(self.constraints.input_conjunction())
        cols = ", ".join(quote_ident(c) for c in input_names)
        sql = f"SELECT {cols} FROM {self._cross_join(input_names)} WHERE {where}"
        with span("generate.inputs", table=self.table_name) as sp:
            self.db.create_table_as(work, sql)
        steps.append(
            StepTiming(
                label="inputs",
                columns=input_names,
                cross_product_size=self.schema.cross_product_size(input_names),
                result_rows=self.db.row_count(work),
                seconds=sp.seconds,
            )
        )

        # Step 2..n: extend by each output group.
        have: list[str] = list(input_names)
        for group in self.constraints.generation_plan():
            exprs = [self.constraints.get(c).expr for c in group]
            prev_cols = ", ".join(quote_ident(c) for c in have)
            nxt = f"{work}_{group[0]}"
            # The previous step already counted the working table.
            base_rows = steps[-1].result_rows
            value = None
            if len(group) == 1:
                column = self.schema.column(group[0])
                value = functional_sql(exprs[0], column.name, column.domain)
            if value is not None:
                kind = "project"
                sql = (f"SELECT {prev_cols}, {value} AS {quote_ident(group[0])} "
                       f"FROM {quote_ident(work)}")
            else:
                kind = "join"
                where = to_sql(self._conj(exprs))
                new_cols = ", ".join(quote_ident(c) for c in group)
                sql = (
                    f"SELECT {prev_cols}, {new_cols} FROM {quote_ident(work)} "
                    f"CROSS JOIN {self._cross_join(group)} WHERE {where}"
                )
            with span("generate.column", table=self.table_name,
                      columns=",".join(group), step=kind) as sp:
                self.db.create_table_as(nxt, sql)
            if kind == "project":
                # A projection keeps every row of the working table.
                get_tracer().incr("generate.projected_steps")
                rows = base_rows
            else:
                rows = self.db.row_count(nxt)
            group_domain = 1
            for c in group:
                group_domain *= self.schema.column(c).domain_size
            steps.append(
                StepTiming(
                    label=f"+{','.join(group)}",
                    columns=tuple(group),
                    cross_product_size=base_rows * group_domain,
                    result_rows=rows,
                    seconds=sp.seconds,
                )
            )
            self.db.drop_table(work)
            work = nxt
            have.extend(group)

        # Final: copy into the target name with schema column order.
        cols = ", ".join(quote_ident(c) for c in self.schema.column_names)
        self.db.create_table_as(
            self.table_name, f"SELECT {cols} FROM {quote_ident(work)}"
        )
        self.db.drop_table(work)
        table = ControllerTable(self.db, self.schema, self.table_name)
        get_tracer().incr("generate.rows", table.row_count)
        return GenerationResult(table=table, strategy="incremental", steps=steps)
