"""Unit and property tests for the cycle detectors."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.analysis.cycles import (
    canonical_cycle,
    cyclic_vertices,
    cyclic_vertices_sql,
    find_cycles,
)


class TestCanonicalCycle:
    def test_rotation_to_minimum(self):
        assert canonical_cycle(("c", "a", "b")) == ("a", "b", "c")

    def test_already_canonical(self):
        assert canonical_cycle(("a", "b")) == ("a", "b")

    def test_empty(self):
        assert canonical_cycle(()) == ()

    def test_rotations_share_canonical_form(self):
        assert canonical_cycle(("b", "c", "a")) == canonical_cycle(("a", "b", "c"))


class TestFindCycles:
    def test_simple_two_cycle(self):
        assert find_cycles([("a", "b"), ("b", "a")]) == [("a", "b")]

    def test_self_loop(self):
        assert find_cycles([("a", "a")]) == [("a",)]

    def test_dag_has_none(self):
        assert find_cycles([("a", "b"), ("b", "c"), ("a", "c")]) == []

    def test_multiple_cycles_sorted(self):
        cycles = find_cycles(
            [("a", "b"), ("b", "a"), ("c", "c")]
        )
        assert cycles == [("a", "b"), ("c",)]


class TestCyclicVertices:
    def test_scc_members(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        assert cyclic_vertices(edges) == {"a", "b", "c"}

    def test_self_loop_vertex(self):
        assert cyclic_vertices([("x", "x"), ("x", "y")]) == {"x"}

    def test_sql_matches_simple(self):
        edges = [("a", "b"), ("b", "a"), ("b", "c")]
        assert cyclic_vertices_sql(edges) == {"a", "b"}

    def test_sql_empty_graph(self):
        assert cyclic_vertices_sql([]) == set()


edges_st = st.lists(
    st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef")),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(edges=edges_st)
def test_sql_and_python_agree_on_random_graphs(edges):
    assert cyclic_vertices_sql(edges) == cyclic_vertices(edges)


@settings(max_examples=100, deadline=None)
@given(edges=edges_st)
def test_cycle_vertices_consistent_with_cycle_list(edges):
    vertices = set()
    for cycle in find_cycles(edges):
        vertices |= set(cycle)
    assert vertices == cyclic_vertices(edges)


def brute_force_cycles(edges):
    """Every vertex permutation prefix whose consecutive vertices are
    joined by edges and whose last vertex closes back to its start."""
    edge_set = set(edges)
    vertices = sorted({v for e in edge_set for v in e})
    cycles = set()
    for k in range(1, len(vertices) + 1):
        for perm in itertools.permutations(vertices, k):
            hops = zip(perm, perm[1:] + perm[:1])
            if all(hop in edge_set for hop in hops):
                cycles.add(canonical_cycle(perm))
    return sorted(cycles)


@settings(max_examples=200, deadline=None)
@given(edges=edges_st)
def test_find_cycles_matches_brute_force(edges):
    assert find_cycles(edges) == brute_force_cycles(edges)
