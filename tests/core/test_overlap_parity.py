"""Parity of the determinism check with the nested-loop self-join.

:meth:`ControllerTable.find_overlapping_rows` answers "which pairs of
rows match one concrete input" with a join partitioned by NULL mask.
:func:`reference_overlaps` keeps the original formulation — a self-join
whose every input column is compared as ``a IS b OR a IS NULL OR b IS
NULL``, plus one lookup per row of each pair — as the oracle.  Both must
return the same pairs, in the same order, with the same row dicts, on:

* Hypothesis tables (0–5 input columns, small domains, random NULL
  dontcares, duplicate and all-NULL rows, empty tables), with the
  compound-query chunk size also forced down to 1 and 3 branches;
* a table holding all 32 NULL masks of 5 inputs (528 mask pairs, more
  than one compound SELECT may hold);
* every family member's 8 clean tables;
* every ``relax-constraint``, ``duplicate-row`` and ``drop-row`` mutant
  of each member's committed 24-mutant sample (seed 0, v5d — the sample
  the campaign benchmark scores).
"""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.table as table_mod
from repro.core.database import ProtocolDatabase
from repro.core.schema import Column, Role, TableSchema
from repro.core.sqlgen import quote_ident
from repro.core.table import ControllerTable
from repro.faults import MutationEngine
from repro.protocols.family import SPECS, attach_variant, build_variant

#: The fault classes whose mutants the determinism check catches.
OVERLAP_CLASSES = ("relax-constraint", "duplicate-row", "drop-row")
#: The committed campaign sample (BENCH_family.json seed and assignment,
#: the campaign benchmark's mutant count).
SAMPLE_SEED, SAMPLE_ASSIGNMENT, SAMPLE_COUNT = 0, "v5d", 24


def reference_overlaps(table: ControllerTable):
    """The nested-loop self-join the mask-partitioned join replaced."""
    input_names = table.schema.input_names
    if not input_names:
        return []
    conds = []
    for name in input_names:
        q = quote_ident(name)
        conds.append(f"(a.{q} IS b.{q} OR a.{q} IS NULL OR b.{q} IS NULL)")
    t = quote_ident(table.table_name)
    sql = (f"SELECT a.rowid AS __ra, b.rowid AS __rb FROM {t} a JOIN {t} b "
           f"ON a.rowid < b.rowid AND " + " AND ".join(conds))
    pairs = []
    for hit in table.db.query(sql):
        ra = table.db.query(
            f"SELECT * FROM {t} WHERE rowid = ?", (hit["__ra"],))[0]
        rb = table.db.query(
            f"SELECT * FROM {t} WHERE rowid = ?", (hit["__rb"],))[0]
        pairs.append(({c: ra[c] for c in table.schema.column_names},
                      {c: rb[c] for c in table.schema.column_names}))
    return pairs


def assert_parity(table: ControllerTable) -> None:
    assert table.find_overlapping_rows() == reference_overlaps(table)


# -- synthetic tables ---------------------------------------------------------
DOMAIN = ("a", "b", "c")


def make_table(db, n_inputs: int, rows) -> ControllerTable:
    columns = [Column(f"i{k}", DOMAIN, Role.INPUT, nullable=True)
               for k in range(n_inputs)]
    columns.append(Column("o", ("x", "y"), Role.OUTPUT, nullable=True))
    schema = TableSchema("t", columns)
    return ControllerTable.from_rows(
        db, schema,
        [dict(zip(schema.column_names, row)) for row in rows],
        validate=False)


@st.composite
def tables(draw):
    """(input count, rows): small domains so overlaps are common, NULLs
    as dontcares, repeated rows and all-NULL rows mixed in."""
    n_inputs = draw(st.integers(0, 5))
    domain_size = draw(st.integers(1, len(DOMAIN)))
    cell = st.one_of(st.none(), st.sampled_from(DOMAIN[:domain_size]))
    row = st.tuples(*[cell] * n_inputs, st.sampled_from(("x", "y", None)))
    rows = draw(st.lists(row, max_size=24))
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    if draw(st.booleans()):
        rows.append((None,) * n_inputs + ("x",))
    return n_inputs, draw(st.permutations(rows))


class TestSynthetic:
    @pytest.mark.parametrize("branches", [None, 1, 3])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=tables())
    def test_matches_reference(self, branches, spec):
        n_inputs, rows = spec
        limit = branches or table_mod.MAX_OVERLAP_BRANCHES
        with ProtocolDatabase() as db, \
                mock.patch.object(table_mod, "MAX_OVERLAP_BRANCHES", limit):
            assert_parity(make_table(db, n_inputs, rows))

    def test_empty_table(self):
        with ProtocolDatabase() as db:
            table = make_table(db, 3, [])
            assert table.find_overlapping_rows() == []
            assert_parity(table)

    def test_more_mask_pairs_than_one_compound_select(self):
        # One row per NULL mask of 5 inputs: 32 masks, 528 mask pairs —
        # more branches than SQLite accepts in one compound SELECT.
        rows = [tuple(None if null else "a" for null in mask) + ("x",)
                for mask in itertools.product((False, True), repeat=5)]
        with ProtocolDatabase() as db:
            table = make_table(db, 5, rows)
            pairs = table.find_overlapping_rows()
            # Every row agrees with every other on their common columns.
            assert len(pairs) == 32 * 31 // 2
            assert pairs == reference_overlaps(table)

    def test_pairs_are_rowid_ordered_across_masks(self):
        # Row 1 has the later mask in branch order but the lower rowid.
        with ProtocolDatabase() as db:
            table = make_table(db, 2, [(None, "a", "x"), ("a", "a", "y"),
                                       ("a", None, "x"), ("a", "a", None)])
            pairs = table.find_overlapping_rows()
            assert len(pairs) == 6
            assert pairs == reference_overlaps(table)


# -- family members -------------------------------------------------------------
@pytest.fixture(scope="module")
def members():
    """Each family member generated once, shared read-only."""
    built = {key: build_variant(key) for key in SPECS}
    yield built
    for system in built.values():
        system.db.close()


def clone(system):
    return attach_variant(ProtocolDatabase.deserialize(system.db.snapshot()))


@pytest.mark.parametrize("variant", tuple(SPECS))
def test_clean_member_tables(members, variant):
    for name, table in members[variant].tables.items():
        assert table.find_overlapping_rows() == [], name
        assert_parity(table)


@pytest.mark.parametrize("variant", tuple(SPECS))
def test_committed_sample_mutants(members, variant):
    system = members[variant]
    sample = MutationEngine(system, seed=SAMPLE_SEED,
                            assignment=SAMPLE_ASSIGNMENT).sample(SAMPLE_COUNT)
    mutants = [m for m in sample if m.fault_class in OVERLAP_CLASSES]
    assert mutants, "the committed sample holds no table mutant"
    for mutation in mutants:
        mutated = clone(system)
        try:
            mutation.apply_to(mutated)
            assert_parity(mutated.tables[mutation.target])
        finally:
            mutated.db.close()
