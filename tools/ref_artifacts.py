"""Reference CLI commands run in two checkouts, their artifacts compared.

Usage (from anywhere):

    python3 tools/ref_artifacts.py PARENT CHANGE --out ARTIFACTS.json

PARENT and CHANGE are two checkouts of this repository.  Each command of
``COMMANDS`` runs as ``python -m bcdimer.cli ... --out DIR`` against each
checkout's ``src/``, in a fresh directory.  For every command the record
holds both exit codes and, for each file it writes plus its one-line
summary (``summary.json``), whether the bytes are identical; where they
are not, the largest difference of any number, and whether the rows (or
the JSON lists' lengths), the ``branch_id`` column, the two flag columns
and every other non-numeric value are equal; for JSON also the path of
each key that the change adds or removes.  The last line of standard output
is a one-line verdict: the commands whose artifacts are not byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the reference commands: every subcommand at the settings the change notes
# cite, the two `sweep` grids, `bifurcations` scans on both sides of the
# merger, near the linear model, off symmetry and at v != 1, and loops of
# two turns, reversed, in s around the EP3, in g around the merger (where
# the mirror pair shares mu), around the merger at gamma != 0, around no
# critical point, and longer than one block of loop points; one loop with
# nothing to track and one sweep given both ranges (both fail); the merger
# at v = 2, outside the v = 1 window, and a loop around it; three usage
# errors: a loop whose control has a j part, a control looped twice, and a
# bad coupling given with a bad tolerance; a loop that tracks one state,
# whose match margin is infinite; the merger at a j-continued gamma,
# whose summary reports the j part; and the scans whose roots of Q the
# merge gates flag: a sweep across the exact tangent at small g, one next
# to the merger (g = 2v, gamma <= 1e-3 v), where root groups nearly merge,
# and `bifurcations` given a j part of gamma (a usage error: the gamma scan
# would drop it) and of s (which it keeps); the locators' edges: a loop
# around a pitchfork that does not exist (beyond the merger), the merger at
# gamma != 0 and a tangent loop classified with all states tracked; a
# `sweep` given a j part of gamma (a usage error); one point next to the
# merger whose roots of Q merge, and one whose roots the merge gate flags
# and keeps; two points whose controls overflow the seeds: Q's
# coefficients at a huge g, and the linear seeds at a huge gamma; and two
# locators whose discriminant overflows: a scan at a huge g and the
# merger at a huge gamma
COMMANDS = {
    "solve-ep3-json": ["solve", "--g", "-1", "--gamma", "0.8660254037844386",
                       "--format", "json"],
    "solve-ep3-analytic": ["solve", "--g", "-1", "--gamma",
                           "0.8660254037844386", "--jacobian", "analytic"],
    "solve-tangent": ["solve", "--g", "0.1", "--gamma", "1"],
    "solve-gamma-j": ["solve", "--g", "1", "--gamma-j", "0.5"],
    "solve-off-symmetry": ["solve", "--g", "2.25", "--gamma", "1.35", "--s",
                           "-0.25"],
    "sweep-gamma": ["sweep", "--g", "-1", "--gamma-range", "0:1.4:0.01"],
    "sweep-g": ["sweep", "--gamma", "0.5", "--g-range=-2.5:2.5:0.05"],
    **{f"bifurcations-g{g}": ["bifurcations", "--g", g]
       for g in ("0", "0.01", "-0.4", "-0.8", "1.2", "5e-4")},
    "bifurcations-s": ["bifurcations", "--g", "-1.5", "--s", "0.05"],
    "bifurcations-v2": ["bifurcations", "--v", "2", "--g", "1.2",
                        "--gamma-range", "0.05:2.8:0.02"],
    "merger": ["merger"],
    "encircle-tangent": ["encircle", "--around", "tangent", "--g", "0"],
    "encircle-pitchfork": ["encircle", "--around", "pitchfork", "--g", "-1",
                           "--track", "all"],
    "encircle-merger": ["encircle", "--around", "merger", "--param", "gamma"],
    "encircle-merger-g": ["encircle", "--around", "merger", "--param", "g",
                          "--track", "all"],
    "encircle-tangent-turns2": ["encircle", "--around", "tangent", "--g", "0",
                                "--turns", "2"],
    "encircle-tangent-reverse": ["encircle", "--around", "tangent", "--g",
                                 "0.1", "--track", "all", "--reverse"],
    "encircle-ep3-s": ["encircle", "--around", "pitchfork", "--g", "-1",
                       "--param", "s", "--track", "all"],
    "encircle-steps300": ["encircle", "--around", "tangent", "--g", "0.5",
                          "--track", "all", "--steps", "300"],
    "classify-pitchfork": ["classify", "--around", "pitchfork", "--g", "-1",
                           "--track", "all"],
    "classify-s": ["classify", "--param", "s"],
    "encircle-no-center": ["encircle", "--g", "0.5", "--gamma", "0.3",
                           "--track", "all"],
    "encircle-merger-gamma": ["encircle", "--around", "merger", "--gamma",
                              "0.3", "--track", "all"],
    "encircle-nothing-to-track": ["encircle", "--around", "tangent", "--g",
                                  "-1"],
    "sweep-both-ranges": ["sweep", "--gamma-range", "0:1.4:0.01",
                          "--g-range=-2.5:2.5:0.05"],
    "merger-v2": ["merger", "--v", "2"],
    "encircle-merger-v2": ["encircle", "--around", "merger", "--v", "2",
                           "--track", "all"],
    "encircle-gamma-j": ["encircle", "--g", "0.5", "--gamma", "0.3",
                         "--gamma-j", "0.2", "--track", "all"],
    "classify-gamma-twice": ["classify", "--param", "gamma", "--param",
                             "gamma", "--around", "pitchfork", "--g", "-1",
                             "--track", "all"],
    "merger-bad-tol-and-v": ["merger", "--tol", "0", "--v", "-1"],
    "encircle-one-state": ["encircle", "--around", "tangent", "--g", "0.5"],
    "merger-gamma-j": ["merger", "--gamma-j", "0.2"],
    "sweep-tangent-small-g": ["sweep", "--g", "0.002", "--gamma-range",
                              "0.99:1.01:0.0005"],
    "sweep-near-merger": ["sweep", "--g", "2", "--gamma-range",
                          "0:1e-3:1e-5"],
    "bifurcations-gamma-j": ["bifurcations", "--g", "-1", "--gamma-j", "0.1"],
    "bifurcations-s-j": ["bifurcations", "--g", "-1", "--s-j", "0.05"],
    "encircle-no-pitchfork": ["encircle", "--around", "pitchfork", "--g",
                              "2.5"],
    "merger-gamma": ["merger", "--gamma", "0.5"],
    "classify-tangent": ["classify", "--around", "tangent", "--g", "-1.5",
                         "--track", "all"],
    "sweep-gamma-j": ["sweep", "--g", "-1", "--gamma-range", "0:1.4:0.01",
                      "--gamma-j", "0.1"],
    "solve-near-merger": ["solve", "--g", "-2", "--gamma", "1e-06"],
    "solve-flagged-unmerged": ["solve", "--g", "-2", "--gamma", "0.0001"],
    "solve-overflow": ["solve", "--g", "1e100", "--gamma", "0.5"],
    "solve-linear-overflow": ["solve", "--gamma", "1e10"],
    "bifurcations-overflow": ["bifurcations", "--g", "1e300"],
    "merger-overflow": ["merger", "--gamma", "1e300"],
}
ID_COLUMN = "branch_id"
ID_KEYS = (ID_COLUMN, "branch_ids", "continuing_branch_id")
FLAG_COLUMNS = ("is_complex_state", "is_pt_symmetric")


def _number(text: str):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _diff(a, b) -> float:
    return 0.0 if a == b else abs(a - b)


def _compare_csv(a: str, b: str) -> dict:
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    out = {"max_abs_diff": 0.0, "rows_equal": True, "ids_equal": True,
           "flags_equal": True, "other_equal": True}
    if (len(rows_a) != len(rows_b) or not rows_a
            or rows_a[0] != rows_b[0]
            or any(len(ra) != len(rb) for ra, rb in zip(rows_a, rows_b))):
        return dict(out, rows_equal=False, ids_equal=False,
                    flags_equal=False, other_equal=False,
                    max_abs_diff=math.inf)
    header = rows_a[0]
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        for name, ca, cb in zip(header, ra, rb):
            if name == ID_COLUMN:
                out["ids_equal"] &= ca == cb
            elif name in FLAG_COLUMNS:
                out["flags_equal"] &= ca == cb
            elif (_number(ca) is not None) and (_number(cb) is not None):
                out["max_abs_diff"] = max(out["max_abs_diff"],
                                          _diff(_number(ca), _number(cb)))
            else:
                out["other_equal"] &= ca == cb
    return out


def _walk(a, b, out: dict, key=None, path=""):
    """Compare two JSON values: numbers by difference, the rest exactly;
    ``key`` is the name of the member they are (or are items of), and
    ``path`` where they sit ("/points/0/mu").  A key of one side only goes
    by its path into ``keys_added`` (b's) or ``keys_removed`` (a's); the
    keys both sides have are still compared."""
    if isinstance(a, dict) and isinstance(b, dict):
        out["keys_removed"] += [f"{path}/{k}" for k in a if k not in b]
        out["keys_added"] += [f"{path}/{k}" for k in b if k not in a]
        for k in a:
            if k in b:
                _walk(a[k], b[k], out, k, f"{path}/{k}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out["rows_equal"] = False
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, out, key, f"{path}/{i}")
    elif key in ID_KEYS:
        out["ids_equal"] &= a == b
    elif key in FLAG_COLUMNS:
        out["flags_equal"] &= a == b
    elif _is_number(a) and _is_number(b):
        out["max_abs_diff"] = max(out["max_abs_diff"], _diff(a, b))
    else:
        out["other_equal"] &= a == b


def compare(name: str, a: bytes, b: bytes) -> dict:
    """How the artifact ``name`` differs between two runs: ``identical``
    when the bytes are; otherwise the largest numeric difference and
    whether rows, branch ids, flags and everything else are equal, and for
    JSON the keys added and removed."""
    if a == b:
        return {"identical": True}
    text_a, text_b = a.decode(), b.decode()
    if name.endswith(".csv"):
        out = _compare_csv(text_a, text_b)
    else:
        out = {"max_abs_diff": 0.0, "rows_equal": True, "ids_equal": True,
               "flags_equal": True, "other_equal": True, "keys_added": [],
               "keys_removed": []}
        try:
            _walk(json.loads(text_a), json.loads(text_b), out)
        except json.JSONDecodeError:
            out = dict(out, max_abs_diff=math.inf, rows_equal=False,
                       other_equal=False)
    return {"identical": False, **out}


def _run(checkout: Path, args: list[str]) -> tuple[int, dict[str, bytes]]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "bcdimer.cli", *args, "--out",
             str(out_dir)],
            cwd=tmp, env=env, capture_output=True)
        lines = proc.stdout.splitlines()
        files = {"summary.json": lines[-1] if lines else b""}
        if out_dir.is_dir():
            files.update((p.name, p.read_bytes())
                         for p in sorted(out_dir.iterdir()))
        return proc.returncode, files


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, default=None,
                    help="write the record here (default: stdout only)")
    ns = ap.parse_args(argv)
    record = {}
    for label, args in COMMANDS.items():
        code_a, files_a = _run(ns.parent.resolve(), args)
        code_b, files_b = _run(ns.change.resolve(), args)
        names = sorted(set(files_a) | set(files_b))
        record[label] = {
            "args": args,
            "exit": [code_a, code_b],
            "files": {name: (compare(name, files_a[name], files_b[name])
                             if name in files_a and name in files_b
                             else {"identical": False, "missing": True})
                      for name in names},
        }
        print(f"{label}: {json.dumps(record[label])}", file=sys.stderr)
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if ns.out is not None:
        ns.out.write_text(text)
    print(json.dumps({
        "not_identical": sorted(
            f"{label}/{name}" for label, r in record.items()
            for name, c in r["files"].items() if not c["identical"]),
        "exit_codes_differ": sorted(label for label, r in record.items()
                                    if r["exit"][0] != r["exit"][1]),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
