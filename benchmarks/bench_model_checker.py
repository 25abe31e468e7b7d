"""Experiment T7 — SQL static analysis vs explicit-state model checking
(paper section 4.2).

"Model checkers based on formal approaches have a lot of reasoning power
and can detect such deadlocks.  However, to use these tools, the
controller tables need to be extensively abstracted to avoid the state
explosion problem."

The model checker is the reachability explorer rooted at a closed
workload: every interleaving of the workload's own operations, searched
on the compiled kernel until the state space is exhausted.

Shape to observe: both find the Figure 4 deadlock, but the model checker
explores hundreds of states on a *tiny* directed scenario, grows
exponentially with workload size, while the SQL dependency analysis stays
a fixed-cost database job independent of workload.
"""

import pytest

from repro.explore import ExploreConfig, ReachabilityExplorer
from repro.sim import figure4_scenario, random_workload

#: deep enough to exhaust every workload below (random 6-op: depth 32).
DEPTH = 40

#: concurrent operations -> (states, transitions, deadlocks).
EXPLOSION = {2: (81, 162, 0), 4: (1956, 5990, 0), 6: (6348, 21579, 0)}


def _explore(system, workload):
    explorer = ReachabilityExplorer(system, ExploreConfig(depth=DEPTH),
                                    workload=workload)
    try:
        result = explorer.run()
    finally:
        explorer.close()
    assert result.exhausted
    return result.states, result.transitions, len(result.deadlocks)


def test_sql_static_analysis_finds_figure4(benchmark, system):
    def run():
        return system.analyze_deadlocks("v5").cycles()

    cycles = benchmark(run)
    assert ("VC2", "VC4") in cycles


def test_model_checker_finds_figure4(benchmark, system):
    def run():
        return _explore(system, figure4_scenario(system, "v5"))

    assert benchmark.pedantic(run, iterations=1, rounds=3) == (116, 227, 1)


def test_model_checker_verifies_v5d(benchmark, system):
    def run():
        return _explore(system, figure4_scenario(system, "v5d"))

    assert benchmark.pedantic(run, iterations=1, rounds=3) == (208, 472, 0)


@pytest.mark.parametrize("n_ops", sorted(EXPLOSION))
def test_state_explosion_with_workload_size(benchmark, system, n_ops):
    """States explored grow super-linearly with the number of concurrent
    operations; the SQL analysis above is workload-independent."""
    def run():
        w = random_workload(system, seed=1, n_ops=n_ops, n_lines=2,
                            capacity=1)
        return _explore(system, w)

    assert benchmark.pedantic(run, iterations=1, rounds=1) == EXPLOSION[n_ops]
