"""Read two benchmark outputs and print them side by side.

    python3 perfbench/run.py --workload repair --seed 1 --seconds 20 --trace 1 > before.txt
    ...change the program...
    python3 perfbench/run.py --workload repair --seed 1 --seconds 20 --trace 1 > after.txt
    python3 perfbench/compare.py before.txt after.txt

Each file is a run's standard output; its ``{"report": ...}`` line is
read.  The reader prints both environment stamps (differences marked),
the end-to-end metrics with their change, and — for traced runs — the
inclusive (busy) and self time of every layer per job, with the
end-to-end metrics each layer should move (``METRICS.json``), so a
change that claims a gain can show where its saving sits.  Given one
untraced and one traced run of the same workload, it also prints the
tracing overhead: the difference of their median job times.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_report(path: str) -> dict:
    """The last ``{"report": ...}`` line of a run's output."""
    report = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('{"report":'):
                report = json.loads(line)["report"]
    if report is None:
        raise ValueError(f"{path}: no report line (not a perfbench output?)")
    return report


def _change(a, b) -> str:
    if not a:
        return ""
    return f"{(b - a) / abs(a) * 100:+.1f}%"


def render(a: dict, b: dict) -> list[str]:
    lines = [f"{'':<26}{'A':>14}{'B':>14}"]
    for key in ("workload", "seed", "trace", "cycles", "attempted", "failed"):
        lines.append(f"{key:<26}{a[key]!s:>14}{b[key]!s:>14}")
    for key in sorted(set(a["env"]) | set(b["env"])):
        va, vb = a["env"].get(key), b["env"].get(key)
        mark = "" if va == vb or key == "seed" else "  <- differs"
        lines.append(f"env.{key:<22}{str(va)[:13]:>14}{str(vb)[:13]:>14}{mark}")
    lines.append("")
    lines.append("end-to-end")
    for name in a["e2e"]:
        va, unit = a["e2e"][name]
        vb = b["e2e"].get(name, [None])[0]
        if vb is None:
            continue
        lines.append(f"  {name:<24}{va:>14.6g}{vb:>14.6g} {unit:<6}"
                     f"{_change(va, vb):>9}")
    if a["workload"] == b["workload"] and a["trace"] != b["trace"]:
        plain, traced = (a, b) if b["trace"] else (b, a)
        p50 = plain["e2e"]["job_p50_s"][0]
        t50 = traced["e2e"]["job_p50_s"][0]
        lines.append("")
        lines.append(f"tracing overhead: job_p50_s {p50:.6g} s untraced vs "
                     f"{t50:.6g} s traced ({_change(p50, t50)})")
    if not (a.get("layers") and b.get("layers")):
        return lines
    with open(HERE / "METRICS.json", encoding="utf-8") as fh:
        layers_doc = json.load(fh)["layers"]
    lines.append("")
    lines.append(f"per layer, s/job{'':<10}{'A busy':>10}{'A self':>10}"
                 f"{'B busy':>10}{'B self':>10}{'self':>9}  should move")
    for layer, la in a["layers"].items():
        lb = b["layers"].get(layer, {"busy_s": 0.0, "self_s": 0.0})
        moves = ", ".join(f"{m} on {w}" for m, w in
                          layers_doc.get(layer, {}).get("moves", []))
        lines.append(f"  {layer:<24}{la['busy_s']:>10.4f}{la['self_s']:>10.4f}"
                     f"{lb['busy_s']:>10.4f}{lb['self_s']:>10.4f}"
                     f"{_change(la['self_s'], lb['self_s']):>9}  {moves}")
    lines.append("")
    lines.append("per-layer metrics")
    for name, (va, unit) in a["per_layer"].items():
        vb = b["per_layer"].get(name, [None])[0]
        if vb is None:
            continue
        lines.append(f"  {name:<24}{va:>14.6g}{vb:>14.6g} {unit:<9}"
                     f"{_change(va, vb):>9}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.txt B.txt", file=sys.stderr)
        return 2
    try:
        a, b = (load_report(p) for p in argv)
    except (OSError, ValueError) as exc:
        print(f"compare: error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(render(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
