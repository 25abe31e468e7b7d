"""Extension benchmark — the automated debugging loop.

Section 4.1's "the process is repeated until no deadlocks are found" was
a manual loop at Fujitsu.  The greedy search over channel-assignment
edits scores each candidate from the channel-free dependency skeleton
(well under 1 ms per candidate) instead of a full SQL analysis (~0.1-0.3 s
on 2 CPUs), so the whole loop runs in a fraction of a second.  The
benchmark records the cost of repairing each historical assignment, the
two per-candidate unit costs side by side, and asserts the searched fixes
are of the paper's class (per-message dedicated paths, not whole-channel
hammers).
"""

from repro.analysis.cycles import find_cycles
from repro.core.deadlock import skeleton_edges
from repro.core.repair import DeadlockRepairer


def _repairer(system, assignment):
    return DeadlockRepairer(
        system.db, system.deadlock_specs(),
        system.channel_assignments[assignment],
    )


def test_repair_v5(benchmark, system):
    result = benchmark.pedantic(
        lambda: _repairer(system, "v5").search(), iterations=1, rounds=3,
    )
    assert result.success
    assert all(f.kind in ("move", "dedicate-message") for f in result.applied)


def test_repair_v4(benchmark, system):
    result = benchmark.pedantic(
        lambda: _repairer(system, "v4").search(max_rounds=6),
        iterations=1, rounds=1,
    )
    assert result.success


def test_repair_noop_on_v5d(benchmark, system):
    result = benchmark(lambda: _repairer(system, "v5d").search())
    assert result.success and not result.applied


def test_single_candidate_evaluation(benchmark, system):
    """One full analyze() call — what each candidate used to cost, and
    what re-verification still pays per applied fix."""
    repairer = _repairer(system, "v5")

    def run():
        return repairer._cycles(system.channel_assignments["v5"])

    cycles = benchmark(run)
    assert len(cycles) == 3


def test_single_candidate_skeleton(benchmark, system):
    """One skeleton scoring — the unit cost the search multiplies."""
    skeleton = _repairer(system, "v5")._skeleton()
    v5 = system.channel_assignments["v5"]

    cycles = benchmark(lambda: find_cycles(skeleton_edges(skeleton, v5)))
    assert len(cycles) == 3
