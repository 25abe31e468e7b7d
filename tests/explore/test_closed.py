"""Closed-root exploration: the explorer started from a prepared workload.

A closed root fires only the workload's own operations, so a bounded
search exhausts the whole state space — the paper's section 4.2
model-checker baseline (experiment T7).  The counts below are pinned:
they are the states / transitions / deadlocks of every reachable
interleaving, identical on both kernels.
"""

from __future__ import annotations

import pytest

from repro.explore import ExplorationError, ExploreConfig, ReachabilityExplorer
from repro.protocols.family import SPECS, build_variant
from repro.sim import figure4_scenario, random_workload

#: deep enough to exhaust every workload below (random 6-op: depth 32).
DEPTH = 40

#: T7 rows: workload -> (states, transitions, deadlocks).
T7_COUNTS = {
    "fig4-v5": (116, 227, 1),
    "fig4-v5d": (208, 472, 0),
    "random-2": (81, 162, 0),
    "random-4": (1956, 5990, 0),
    "random-6": (6348, 21579, 0),
}

#: ``repro mc`` per family member and assignment: every member matches
#: the MESI baseline except mesi-vc6, whose sixth channel already breaks
#: the Figure 4 cycle under v5.
_FIG4_COUNTS = {"v4": (7, 7, 2), "v5": (116, 227, 1), "v5d": (208, 472, 0)}
MC_COUNTS = {(key, assignment): counts
             for key in SPECS for assignment, counts in _FIG4_COUNTS.items()}
MC_COUNTS[("mesi-vc6", "v5")] = (124, 253, 0)
MC_COUNTS[("mesi-vc6", "v5d")] = (212, 491, 0)


def _workload(system, name: str):
    kind, _, arg = name.partition("-")
    if kind == "fig4":
        return figure4_scenario(system, arg)
    return random_workload(system, seed=1, n_ops=int(arg), n_lines=2,
                           capacity=1)


def _explore(system, workload, **overrides):
    explorer = ReachabilityExplorer(
        system, ExploreConfig(depth=DEPTH, **overrides), workload=workload)
    try:
        return explorer, explorer.run()
    finally:
        explorer.close()


def _counts(result) -> tuple:
    return (result.states, result.transitions, len(result.deadlocks))


class TestT7Counts:
    @pytest.mark.parametrize("name", sorted(T7_COUNTS))
    def test_counts_on_compiled_kernel(self, system, name):
        _, result = _explore(system, _workload(system, name))
        assert result.exhausted
        assert _counts(result) == T7_COUNTS[name]
        # Nothing but the expected deadlocks: no coherence, directory,
        # or hole violation anywhere in the space.
        assert {v.kind for v in result.violations} <= {"deadlock"}

    @pytest.mark.parametrize("assignment", ["v5", "v5d"])
    def test_kernels_agree(self, system, assignment):
        _, compiled = _explore(system, figure4_scenario(system, assignment))
        _, interpreted = _explore(system, figure4_scenario(system, assignment),
                                  kernel="interpreted")
        assert compiled.to_dict() == interpreted.to_dict()

    @pytest.mark.parametrize("kernel", ["compiled", "interpreted"])
    def test_parallel_matches_serial(self, system, kernel):
        _, serial = _explore(system, figure4_scenario(system, "v5d"),
                             kernel=kernel)
        _, parallel = _explore(system, figure4_scenario(system, "v5d"),
                               kernel=kernel, workers=2, batch_size=8)
        assert parallel.to_dict() == serial.to_dict()

    def test_result_describes_the_workload(self, system):
        _, result = _explore(system, figure4_scenario(system, "v5"))
        assert (result.nodes, result.lines) == (4, 2)
        assert result.assignment == "v5"
        assert result.symmetry == "off"


class TestFigure4Deadlock:
    def test_detail_names_the_cycle(self, system):
        _, result = _explore(system, figure4_scenario(system, "v5"))
        (deadlock,) = [v for v in result.violations if v.kind == "deadlock"]
        assert "VC2" in deadlock.detail and "VC4" in deadlock.detail

    def test_counterexample_replays_to_the_deadlock(self, system):
        explorer, result = _explore(system, figure4_scenario(system, "v5"))
        (digest,) = result.deadlocks
        _, final = explorer.replay(explorer.trace_to(digest))
        assert final == digest
        chart = explorer.counterexample(digest)
        assert "wbmem(B)" in chart and "idone(A)" in chart


class TestFamilyMembers:
    @pytest.fixture(scope="class")
    def members(self):
        return {key: build_variant(key) for key in SPECS}

    @pytest.mark.parametrize("key, assignment", sorted(MC_COUNTS))
    def test_mc_counts(self, members, key, assignment):
        member = members[key]
        _, result = _explore(member, figure4_scenario(member, assignment))
        assert result.exhausted
        assert _counts(result) == MC_COUNTS[(key, assignment)]


class TestClosedRootLimits:
    @pytest.mark.parametrize("knob", ["journal_path", "resume_from",
                                      "frontier_dir"])
    def test_journals_and_stores_are_refused(self, system, tmp_path, knob):
        config = ExploreConfig(**{knob: str(tmp_path / "x")})
        with pytest.raises(ExplorationError, match="closed"):
            ReachabilityExplorer(system, config,
                                 workload=figure4_scenario(system, "v5"))

    def test_workload_of_another_system_is_refused(self, system,
                                                   fresh_system):
        with pytest.raises(ExplorationError, match="different system"):
            ReachabilityExplorer(system, ExploreConfig(),
                                 workload=figure4_scenario(fresh_system))
