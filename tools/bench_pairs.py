"""Alternating before/after runs of the question benchmark, as one record.

Usage (from anywhere):

    python3 tools/bench_pairs.py PARENT CHANGE --workload bifurcations \
        --seed 13 --pairs 10 --out BENCH_10.json

PARENT and CHANGE are two git checkouts of this repository.  Each pair runs
``qbench/run.py --trace 0`` once in each checkout, with the same workload,
seed and the run length ``run_seconds`` of the parent's ``BENCHMARK.json``;
even pairs run the parent first, odd pairs the change.  The record holds
both checkouts' git SHAs, the Python and numpy versions, every run's
output, and for each end-to-end metric of ``BENCHMARK.json`` both sides'
medians and quartiles and the number of pairs the change won (ties count
for neither side).  ``claim_met`` applies the gain rule: the change wins at
least nine pairs in ten and the medians differ by more than the parent's
interquartile range.  ``bound_verdict`` is ``"unresolved"`` when the
parent's interquartile range exceeds the metric's bound (relative to the
parent's median) and not every change run beats every parent run;
otherwise it is ``"within"`` when the change's median is no worse than the
parent's by more than the bound, and ``"worse"`` when it is.
``bytecode`` says whether a run's ``setup_s`` may include compiling the
package: the ``PYTHONDONTWRITEBYTECODE`` setting, and whether each side
has ``src/bcdimer/__pycache__``, before the first run and after the last.
Where only one side has it, the two sides' ``setup_s`` do not compare:
that is an error before the first pair, and after the last pair, once the
record is written, an error exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def _checkout_info(checkout: Path) -> dict:
    return {"sha": _git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(_git(checkout, "status", "--porcelain",
                               "--untracked-files=no"))}


def _bytecode(sides: dict[str, Path]) -> dict:
    """The PYTHONDONTWRITEBYTECODE setting and, for each side, whether its
    package has compiled bytecode that a run would load."""
    return {"PYTHONDONTWRITEBYTECODE":
            os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "pycache": {side: (path / "src" / "bcdimer" /
                               "__pycache__").is_dir()
                        for side, path in sides.items()}}


def _one_sided(bytecode: dict) -> str | None:
    """The error message when exactly one side has compiled bytecode."""
    have = [side for side, has in bytecode["pycache"].items() if has]
    if len(have) == 1:
        return (f"only the {have[0]} side has src/bcdimer/__pycache__, so "
                f"the two sides' setup_s do not compare")
    return None


def _run(checkout: Path, ns, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "qbench/run.py", "--workload", ns.workload,
         "--seed", str(ns.seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> list[float]:
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def _compare(spec: dict, before: list[float], after: list[float]) -> dict:
    sign = 1.0 if spec["better"] == "higher" else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
    q_before, q_after = _quartiles(before), _quartiles(after)
    iqr = q_before[2] - q_before[0]
    gain = sign * (q_after[1] - q_before[1])
    scale = abs(q_before[1])
    worse = -gain / scale if scale else 0.0
    beats_all = (max(after) < min(before) if sign < 0
                 else min(after) > max(before))
    if iqr > spec["bound"] * scale and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "within" if worse <= spec["bound"] else "worse"
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "parent_quartiles": q_before,
        "change_quartiles": q_after,
        "change_wins": wins,
        "pairs": len(before),
        "claim_met": wins >= 0.9 * len(before) and gain > iqr,
        "bound": spec["bound"],
        "bound_verdict": verdict,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True,
                    choices=("states", "loops", "bifurcations"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, default=None,
                    help="write the record here (default: stdout only)")
    ns = ap.parse_args(argv)
    if ns.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": ns.parent.resolve(), "change": ns.change.resolve()}
    bytecode = {"before": _bytecode(sides)}
    if error := _one_sided(bytecode["before"]):
        ap.error(error)
    specs = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    seconds = specs["run_seconds"]
    runs = {"parent": [], "change": []}
    for k in range(ns.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(sides[side], ns, seconds))
            print(f"pair {k}: {side} {json.dumps(runs[side][-1])}",
                  file=sys.stderr)
    bytecode["after"] = _bytecode(sides)
    metrics = {
        spec["name"]: _compare(
            spec, *([r["metrics"][spec["name"]]["value"] for r in runs[side]]
                    for side in ("parent", "change")))
        for spec in specs["end_to_end"]
    }
    record = {
        "workload": ns.workload,
        "seed": ns.seed,
        "run_seconds": seconds,
        "pairs": ns.pairs,
        "order": "even pairs run the parent first, odd pairs the change",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "parent": _checkout_info(sides["parent"]),
        "change": _checkout_info(sides["change"]),
        "bytecode": bytecode,
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "correct": {side: all(r["correct"] for r in runs[side])
                    for side in runs},
        "metrics": metrics,
        "runs": runs,
    }
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if ns.out is not None:
        ns.out.write_text(text)
    print(json.dumps({name: {key: m[key] for key in
                             ("parent_quartiles", "change_quartiles",
                              "change_wins", "claim_met", "bound_verdict")}
                      for name, m in metrics.items()}))
    if error := _one_sided(bytecode["after"]):
        print(f"{ap.prog}: error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
