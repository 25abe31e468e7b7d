"""Tests of the benchmark itself (not part of the tier-1 suite):

    python -m pytest perfbench -q

One short job per workload checks that every metric prints by name with
its unit; deliberately wrong expected verdicts must be caught; the
command line keeps its output contract, and fails outside a checkout.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
from jobs import Context, Expected, repair_check  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = json.loads((HERE / "METRICS.json").read_text())
#: The cheapest member of each workload: one short job.
SHORT = {"pipeline": "mesi-noio", "repair": "mesi-noio",
         "campaign": "mesi-noio"}


def _short_run(workload, trace, expected=None):
    return run.run(workload, seed=0, seconds=0, trace=trace,
                   expected=expected, members=(SHORT[workload],),
                   setup_reps=1)


@pytest.fixture(scope="module", params=sorted(SHORT))
def traced_pair(request):
    workload = request.param
    return _short_run(workload, False), _short_run(workload, True)


def test_every_metric_prints_by_name_with_unit(traced_pair):
    plain, traced = traced_pair
    assert plain["failed"] == 0, plain["problems"]
    assert traced["failed"] == 0, traced["problems"]
    text = "\n".join(run.render(plain) + run.render(traced))
    units = {m["name"]: m["unit"] for m in
             BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    units["failed_ratio"] = "ratio"
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in text.splitlines()), name
    plain_line = run.result_line(plain)
    traced_line = run.result_line(traced)
    for line in (plain_line, traced_line):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
    assert set(plain_line["metrics"]) == {
        m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(traced_line["metrics"]) == {
        m["name"] for m in BENCHMARK["per_layer"]}
    for name, entry in traced_line["metrics"].items():
        assert entry["unit"] == units[name]


def test_environment_stamp(traced_pair):
    env = traced_pair[0]["env"]
    for key in ("cpus", "python", "sqlite", "commit", "src_digest", "seed",
                "deadlock_workers", "campaign_workers"):
        assert key in env


def test_compare_prints_layers_and_overhead(traced_pair, tmp_path):
    paths = []
    for i, report in enumerate(traced_pair):
        path = tmp_path / f"{i}.txt"
        path.write_text("\n".join(run.render(report)) + "\n"
                        + json.dumps({"report": report}) + "\n"
                        + json.dumps(run.result_line(report)) + "\n")
        paths.append(str(path))
    text = "\n".join(compare.render(*(compare.load_report(p) for p in paths)))
    assert "tracing overhead" in text
    text = "\n".join(compare.render(traced_pair[1], traced_pair[1]))
    for layer in ("generator", "deadlock", "repair", "faults", "database"):
        assert f"\n  {layer} " in text


def test_metric_documentation_matches_benchmark():
    documented = [name for layer in METRICS["layers"].values()
                  for name in layer["metrics"]]
    assert sorted(documented) == sorted(
        m["name"] for m in BENCHMARK["per_layer"])
    assert set(METRICS["end_to_end"]) == {
        m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(METRICS["workloads"]) == {
        w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOAD_NAMES)
    for layer in METRICS["layers"].values():
        for metric, workload in layer["moves"]:
            assert metric in METRICS["end_to_end"]
            assert workload in METRICS["workloads"]


def test_wrong_pipeline_verdict_is_caught():
    expected = Expected.load(ROOT)
    expected.family = copy.deepcopy(expected.family)
    expected.member("mesi-noio")["deadlock"]["v5"]["cycles"] = 99
    report = _short_run("pipeline", False, expected)
    assert report["failed"] == report["attempted"] == 2
    assert run.result_line(report)["correct"] is False
    assert "cycles" in report["problems"][0]
    assert report["e2e"]["failed_ratio"][0] == 1.0


def test_wrong_campaign_baseline_is_caught():
    expected = Expected.load(ROOT)
    expected.family = copy.deepcopy(expected.family)
    base = expected.member("mesi-noio")["campaign"]
    base["mutants"][0]["description"] = "not the committed mutant"
    report = _short_run("campaign", False, expected)
    assert report["failed"] == report["attempted"] == 2
    assert "diverged from baseline" in report["problems"][0]


def test_wrong_repair_verdict_is_caught():
    expected = Expected.load(ROOT)
    ctx = Context((), expected)
    verdict = copy.deepcopy(expected.repair["repair"])
    assert repair_check(ctx, "mesi", verdict) == []
    verdict["fixes"][0]["changes"][0][3] = "VC9"
    assert repair_check(ctx, "mesi", verdict)
    verdict = copy.deepcopy(expected.repair["repair"])
    verdict["reverified"][0]["ok"] = False
    assert repair_check(ctx, "moesi", verdict)


def test_command_line_contract():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
