"""Compile constraint expressions to SQLite SQL.

The compilation target is a boolean SQL expression usable in a ``WHERE``
clause.  NULL handling follows the paper's dontcare/noop semantics: the
AST's ``Eq`` is *NULL-safe*, so it compiles to SQLite's ``IS`` operator
(``x IS y`` is true when both are NULL, unlike ``x = y``).  Set membership
expands into an ``IS``-disjunction for the same reason.

Column references may be qualified (``alias.column``) so the same
expression can be compiled against a bare table or a join.

:func:`functional_sql` is the second target: for a column constraint
that *computes* its column (a ternary chain whose leaves all bind it to a
domain value) it yields the value expression itself, which the
incremental generator projects instead of searching the column's domain.
"""

from __future__ import annotations

from typing import Collection, Optional

from .expr import (
    And,
    BoolExpr,
    Col,
    Eq,
    Expr,
    FalseExpr,
    In,
    Lit,
    Ne,
    Not,
    NotIn,
    Or,
    Ternary,
    TrueExpr,
    Value,
    ValueExpr,
)

__all__ = ["to_sql", "functional_sql", "quote_value", "quote_ident",
           "SqlCompileError"]


class SqlCompileError(TypeError):
    """Raised when an expression node has no SQL translation."""


def quote_value(value: Value) -> str:
    """Render a literal as a SQL token; ``None`` becomes ``NULL``."""
    if value is None:
        return "NULL"
    return "'" + value.replace("'", "''") + "'"


def quote_ident(name: str) -> str:
    """Render an identifier (column/table name) double-quoted."""
    return '"' + name.replace('"', '""') + '"'


def _value_sql(e: ValueExpr, qualifier: Optional[str]) -> str:
    if isinstance(e, Col):
        ident = quote_ident(e.name)
        return f"{qualifier}.{ident}" if qualifier else ident
    if isinstance(e, Lit):
        return quote_value(e.value)
    raise SqlCompileError(f"cannot compile value expression {e!r}")


def _membership_sql(
    operand: ValueExpr, values: tuple[Value, ...], qualifier: Optional[str], negate: bool
) -> str:
    if not values:
        # Membership in the empty set is vacuously false.
        return "(1 = 0)" if not negate else "(1 = 1)"
    lhs = _value_sql(operand, qualifier)
    parts = [f"{lhs} IS {quote_value(v)}" for v in values]
    joined = " OR ".join(parts)
    return f"(NOT ({joined}))" if negate else f"({joined})"


def to_sql(expr: Expr, qualifier: Optional[str] = None) -> str:
    """Compile a boolean expression AST to a SQLite boolean expression.

    ``qualifier`` prefixes every column reference (e.g. the alias of the
    table in a join).  The result is always parenthesized so it can be
    dropped into a larger expression.
    """
    if isinstance(expr, TrueExpr):
        return "(1 = 1)"
    if isinstance(expr, FalseExpr):
        return "(1 = 0)"
    if isinstance(expr, Eq):
        return f"({_value_sql(expr.left, qualifier)} IS {_value_sql(expr.right, qualifier)})"
    if isinstance(expr, Ne):
        return f"({_value_sql(expr.left, qualifier)} IS NOT {_value_sql(expr.right, qualifier)})"
    if isinstance(expr, In):
        return _membership_sql(expr.operand, expr.values, qualifier, negate=False)
    if isinstance(expr, NotIn):
        return _membership_sql(expr.operand, expr.values, qualifier, negate=True)
    if isinstance(expr, And):
        return "(" + " AND ".join(to_sql(op, qualifier) for op in expr.operands) + ")"
    if isinstance(expr, Or):
        return "(" + " OR ".join(to_sql(op, qualifier) for op in expr.operands) + ")"
    if isinstance(expr, Not):
        return f"(NOT {to_sql(expr.operand, qualifier)})"
    if isinstance(expr, Ternary):
        # Compile a ternary *chain* (the paper's nested
        # cond?expr:cond?expr:... constraints) into a single flat
        # CASE WHEN: semantically identical and, unlike nested boolean
        # expansion, immune to SQLite's parser stack depth limit.
        arms = []
        node: Expr = expr
        while isinstance(node, Ternary):
            c = to_sql(node.condition, qualifier)
            t = to_sql(node.if_true, qualifier)
            arms.append(f"WHEN {c} THEN {t}")
            node = node.if_false
        default = to_sql(node, qualifier)
        return "(CASE " + " ".join(arms) + f" ELSE {default} END)"
    if isinstance(expr, BoolExpr):
        raise SqlCompileError(f"no SQL translation for boolean node {type(expr).__name__}")
    raise SqlCompileError(f"expected a boolean expression, got {expr!r}")


def functional_sql(expr: BoolExpr, column: str,
                   domain: Collection[Value]) -> Optional[str]:
    """The value ``expr`` assigns to ``column``, as a SQL expression, or
    ``None`` when ``expr`` does not compute it.

    ``expr`` computes ``column`` when it is a :class:`Ternary` tree or a
    bare :class:`Eq` whose conditions never read ``column`` and whose
    every leaf is ``column = v`` (either operand order) with ``v`` in
    ``domain`` (``None`` in ``domain`` admits a NULL leaf).  Then each row
    satisfies ``expr`` for exactly one domain value, the one this CASE
    returns.  ``if_false`` chains flatten into one CASE as in
    :func:`to_sql`; only a ternary inside ``if_true`` nests.  The ``CAST``
    gives the result the ``TEXT`` type a column table's column carries.
    """

    def leaf(node: BoolExpr) -> Optional[str]:
        if isinstance(node, Eq):
            for a, b in ((node.left, node.right), (node.right, node.left)):
                if (isinstance(a, Col) and a.name == column
                        and isinstance(b, Lit) and b.value in domain):
                    return quote_value(b.value)
        return None

    def value(node: BoolExpr) -> Optional[str]:
        if not isinstance(node, Ternary):
            return leaf(node)
        arms = []
        while isinstance(node, Ternary):
            if column in node.condition.free_columns():
                return None
            then = value(node.if_true)
            if then is None:
                return None
            arms.append(f"WHEN {to_sql(node.condition)} THEN {then}")
            node = node.if_false
        default = leaf(node)
        if default is None:
            return None
        return "CASE " + " ".join(arms) + f" ELSE {default} END"

    body = value(expr)
    return None if body is None else f"CAST({body} AS TEXT)"
