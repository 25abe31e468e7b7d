"""Cycle detection over virtual-channel dependency graphs.

Two independent implementations, cross-checked by property tests:

* :func:`find_cycles` — enumerate elementary cycles by backtracking
  (the graphs are virtual-channel graphs of a handful of vertices).
* :func:`cyclic_vertices_sql` — pure SQL, the way the paper's database
  would do it: a recursive reachability query; a vertex is on a cycle iff
  it reaches itself.

Both operate on plain ``(src, dst)`` edge iterables so they are usable
outside the deadlock analyzer (e.g. on ad-hoc graphs in tests).
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Sequence

__all__ = [
    "find_cycles",
    "cyclic_vertices",
    "cyclic_vertices_sql",
    "canonical_cycle",
]

Edge = tuple[str, str]


def canonical_cycle(cycle: Sequence[str]) -> tuple[str, ...]:
    """Rotate a cycle so it starts at its smallest vertex, giving a
    canonical form usable as a set element."""
    if not cycle:
        return ()
    i = min(range(len(cycle)), key=lambda k: cycle[k])
    return tuple(cycle[i:]) + tuple(cycle[:i])


def find_cycles(edges: Iterable[Edge]) -> list[tuple[str, ...]]:
    """All elementary cycles, each in canonical rotation, sorted.

    Each cycle is grown from its smallest vertex through larger vertices
    only, so it is found exactly once and already canonical."""
    succ: dict[str, set[str]] = {}
    for src, dst in edges:
        succ.setdefault(src, set()).add(dst)
    cycles: list[tuple[str, ...]] = []

    def extend(path: list[str]) -> None:
        for nxt in sorted(succ.get(path[-1], ())):
            if nxt == path[0]:
                cycles.append(tuple(path))
            elif nxt > path[0] and nxt not in path:
                path.append(nxt)
                extend(path)
                path.pop()

    for start in sorted(succ):
        extend([start])
    return sorted(cycles)


def cyclic_vertices(edges: Iterable[Edge]) -> set[str]:
    """Vertices lying on at least one cycle (incl. self-loops)."""
    return {v for cycle in find_cycles(edges) for v in cycle}


def cyclic_vertices_sql(edges: Iterable[Edge]) -> set[str]:
    """Same as :func:`cyclic_vertices`, computed by a recursive
    SQL reachability query in a scratch SQLite database."""
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE edges (src TEXT, dst TEXT)")
        conn.executemany(
            "INSERT INTO edges VALUES (?, ?)", [(s, d) for s, d in edges]
        )
        rows = conn.execute(
            """
            WITH RECURSIVE reach(origin, dst) AS (
                SELECT src, dst FROM edges
                UNION
                SELECT reach.origin, edges.dst
                FROM reach JOIN edges ON reach.dst = edges.src
            )
            SELECT DISTINCT origin FROM reach WHERE origin = dst
            """
        ).fetchall()
        return {r[0] for r in rows}
    finally:
        conn.close()
