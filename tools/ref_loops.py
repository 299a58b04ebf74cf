"""Loop traces and grid states of two checkouts, compared bit for bit.

Usage (from anywhere):

    python3 tools/ref_loops.py PARENT CHANGE --out LOOPS.json

PARENT and CHANGE are two checkouts of this repository.  Each is recorded
in its own process, which imports ``bcdimer`` from the checkout's ``src/``
and the question benchmark from its ``qbench/``:

* the 48 loops of the benchmark's ``loops`` workload (seeds 5, 17 and 41,
  two rounds of eight loops each), and the loops of ``LOOPS``, which take
  the seed paths that workload does not, each through ``ep.encircle``:
  every step's phi and states, with their residuals and flags, the
  permutation, cycle type, match margin, reliability and fallback count,
  or the error the loop raised;
* the grids of ``GRIDS`` through ``solver.find_states_along``: every
  point's states, with their residuals and flags;
* the same grids through ``continuation.stitched_branches``, as the
  ``sweep`` and ``bifurcations`` commands stitch them: every branch's id,
  and every sample's value and state.

One loop and one grid run on :class:`PointByPoint`, the dimer with its
seeds listed one point at a time, as a system without a polynomial to
batch lists them; so the record also covers the solver's path for such a
system.  Three loops run on :class:`NoSeeds`, the dimer with no seeds at
all, so that every step of them takes the loop's fallback, Newton from
the previous step's state.

Floats are recorded as ``float.hex``, so equal records mean equal bits.
The record written to ``--out`` holds, for each loop, grid and stitched
grid, whether the two checkouts' are identical and, where not, the first
place where they differ, the largest absolute difference of any recorded
float (``max_abs_diff``; absolute, since a component that is about 0 has
no meaningful relative one) and whether everything else is equal
(``other_equal``: permutations, cycle types, flags, fallback counts, ids,
errors, keys and lengths).  The last line of standard output is a one-line
verdict: how many loops, loop steps, grids, grid points, stitched grids and
their samples were compared, the ones that are not identical, the ones
among them whose values other than floats differ, and the ones that one
side lacks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (5, 17, 41)
ROUNDS = 2
# the grids of the stitched-scan tests (tests/test_continuation.py): the
# reference `sweep` grids, `bifurcations` scans (at g = 5e-4 every state
# has two seeds, also listed point by point), the linear model, and a grid
# longer than one block of the batched pass; (system, controls, parameter,
# first value, step, points)
GRIDS = {
    "sweep --g -1": ("dimer", {"g": -1.0}, "gamma", 0.0, 0.01, 141),
    "sweep --gamma 0.5": ("dimer", {"gamma": 0.5}, "g", -2.5, 0.05, 101),
    **{f"bifurcations --g {g}" + (f" --s {s}" if s else ""):
       ("dimer", {"g": g, "s": s}, "gamma", 0.05, 0.01, 136)
       for g, s in [(0.01, 0.0), (-0.4, 0.0), (1.2, 0.0), (-1.5, 0.05),
                    (0.0, 0.0), (5e-4, 0.0)]},
    "bifurcations --g 0.0005, point by point": (
        "point by point", {"g": 5e-4}, "gamma", 0.05, 0.01, 136),
    "linear": ("linear", {}, "gamma", 0.05, 0.01, 136),
    "long": ("dimer", {"g": -0.85}, "gamma", 0.0, 1.4 / 262, 263),
}
# loops that track all states at the start, on the seed paths the
# workload's loops miss: below |g| = 1e-3 v, where Q's roots and the linear
# eigenpairs both seed (8 lanes a point); a j-continued center; v != 1; and
# more steps than one block of loop points (solver._BLOCK = 256); the
# first of these with its seeds listed point by point; a tangent, an EP3
# and a loop around no EP with no seeds, where every step falls back; and
# loops that track only the complex states, as `encircle` does by default,
# so that each point has more solved rows than tracked states.
# (system; controls of the center, a (real, j) pair for a continued one;
# the looped control; radius; steps; optionally "complex", to track only
# the complex states)
LOOPS = {
    "tangent g=5e-4": ("dimer", {"g": 5e-4, "gamma": 1.0}, "gamma", 0.01,
                       128),
    "tangent g=5e-4, point by point": ("point by point",
                                       {"g": 5e-4, "gamma": 1.0}, "gamma",
                                       0.01, 128),
    "s-loop at gamma=0.3+0.2j": ("dimer", {"g": -0.8, "gamma": (0.3, 0.2)},
                                 "s", 0.01, 128),
    "pitchfork v=2": ("dimer", {"v": 2.0, "g": -2.0, "gamma": 3.0 ** 0.5},
                      "gamma", 2e-3, 128),
    "tangent g=-1, 300 steps": ("dimer", {"g": -1.0, "gamma": 1.0}, "gamma",
                                1e-3, 300),
    "tangent g=-1, no seeds": ("no seeds", {"g": -1.0, "gamma": 1.0},
                               "gamma", 1e-3, 64),
    "EP3 s-loop, no seeds": ("no seeds", {"g": -1.0, "gamma": 3.0 ** 0.5 / 2},
                             "s", 1e-3, 64),
    "no EP, no seeds": ("no seeds", {"g": -1.0, "gamma": 0.5}, "gamma", 0.05,
                        64),
    "tangent g=0, complex states": ("dimer", {"g": 0.0, "gamma": 1.0},
                                    "gamma", 0.1, 128, "complex"),
    "tangent g=0.1, complex states": ("dimer", {"g": 0.1, "gamma": 1.0},
                                      "gamma", 0.01, 128, "complex"),
    "merger s-loop, complex states": ("dimer", {"g": -2.0}, "s", 2e-3, 128,
                                      "complex"),
}
# one BLAS thread in the recording processes, as in the benchmark
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class PointByPoint:
    """The dimer through the solver's system interface alone, with its
    seeds listed one point at a time, each from a one-row
    ``packed_candidates`` call, as a system without a polynomial to batch
    would list them."""

    def __init__(self):
        from bcdimer.model import DimerSystem

        self.dimer = DimerSystem()

    def packed_candidates(self, controls):
        import numpy as np

        seeds = [self.dimer.packed_candidates(controls[k:k + 1])[0]
                 for k in range(len(controls))]
        return (np.concatenate([np.empty((0, 12)), *seeds]),
                np.repeat(np.arange(len(seeds)), [len(at) for at in seeds]))

    def lane_controls(self, c):
        return self.dimer.lane_controls(c)


class NoSeeds(PointByPoint):
    """The dimer with no seed at any point: a loop on it continues every
    state by Newton from the previous step's state."""

    def packed_candidates(self, controls):
        import numpy as np

        return np.empty((0, 12)), np.empty(0, dtype=int)


def systems() -> dict:
    """The systems that ``GRIDS`` and ``LOOPS`` name, from the bcdimer
    imported."""
    from bcdimer.model import DimerSystem

    # the linear model is the dimer at g = 0
    return {"dimer": DimerSystem(), "linear": DimerSystem(),
            "point by point": PointByPoint(), "no seeds": NoSeeds()}


def state_record(st) -> list:
    """A state's 12 floats and residual, as hex, and its two flags."""
    return [*(float(c).hex() for z in (st.psi1, st.psi2, st.mu)
              for c in z.as_tuple()),
            float(st.residual_norm).hex(), st.is_complex_state,
            st.is_pt_symmetric]


def trace_record(trace) -> dict:
    return {"phis": [float(phi).hex() for phi in trace.phis],
            "states": [[state_record(st) for st in step]
                       for step in trace.states],
            "permutation": list(trace.permutation),
            "cycle_type": list(trace.cycle_type),
            "match_margin": float(trace.match_margin).hex(),
            "reliable": trace.reliable,
            "fallback_steps": trace.fallback_steps}


def loop_spec(name: str):
    """The LoopSpec of ``LOOPS[name]``, tracking every state that
    ``find_all_states`` finds at its start, or every complex one, from the
    bcdimer imported."""
    from bcdimer.bicomplex import Bicomplex
    from bcdimer.ep import LoopSpec
    from bcdimer.model import DimerParams, DimerSystem
    from bcdimer.solver import SolveConfig, find_all_states

    _system, controls, which, radius, steps, *track = LOOPS[name]
    center = DimerParams(**{k: Bicomplex(*c) if isinstance(c, tuple) else c
                            for k, c in controls.items()})
    start = center.with_control(which, center.control(which).z0 + radius)
    states = find_all_states(DimerSystem(), start, SolveConfig())
    return LoopSpec(center=center, which=which, radius=radius, steps=steps,
                    states_to_track=[st for st in states if not track
                                     or st.is_complex_state])


def branches_record(branches) -> list:
    """Each branch's id, and each sample's value, as hex, with its state's
    :func:`state_record`."""
    return [{"id": br.branch_id,
             "samples": [[float(value).hex(), *state_record(st)]
                         for value, st in br.samples]} for br in branches]


def _record(checkout: Path) -> dict:
    """The loops, grids and stitched grids of ``checkout``, run in this
    process."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "qbench")]
    import bcdimer
    if Path(bcdimer.__file__).resolve().parent != checkout / "src" / "bcdimer":
        sys.exit(f"ref_loops: imported bcdimer from {bcdimer.__file__}")
    import workloads
    from bcdimer.continuation import stitched_branches
    from bcdimer.ep import encircle
    from bcdimer.model import DimerParams
    from bcdimer.solver import SolveConfig, find_states_along

    by_name = systems()
    asks = {f"seed {seed} round {r} loop {k}: {q.label}": q.ask
            for seed in SEEDS
            for r, round_ in enumerate(workloads.build_loops(seed,
                                                             ROUNDS).rounds)
            for k, q in enumerate(round_)}
    asks.update({name: lambda _out, name=name: encircle(
        by_name[LOOPS[name][0]], loop_spec(name)) for name in LOOPS})
    loops = {}
    for name, ask in asks.items():
        try:
            loops[name] = trace_record(ask(None))
        except Exception as exc:  # noqa: BLE001 - recorded, compared
            loops[name] = {"error": f"{type(exc).__name__}: {exc}"}
    cfg = SolveConfig(residual_tol=1e-11)
    grids, stitched = {}, {}
    for name, (system, controls, parameter, lo, step, n) in GRIDS.items():
        params = DimerParams(v=1.0, **controls)
        values = [lo + k * step for k in range(n)]
        points = [params.with_control(parameter, value) for value in values]
        grids[name] = [[state_record(st) for st in states] for states in
                       find_states_along(by_name[system], points, cfg)]
        stitched[name] = branches_record(stitched_branches(
            by_name[system], params, parameter, values, cfg))
    return {"loops": loops, "grids": grids, "stitched": stitched}


def _run(checkout: Path) -> dict:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--record",
         str(checkout)], env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"ref_loops: recording {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def first_difference(a, b, path: str = ""):
    """Where two JSON values first differ, as a path of keys and indices
    ("" for the values themselves), or None when they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return path + " (keys)"
        return next((d for key in sorted(a) if (d := first_difference(
            a[key], b[key], f"{path}/{key}")) is not None), None)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} != {len(b)})"
        return next((d for k, (x, y) in enumerate(zip(a, b)) if (
            d := first_difference(x, y, f"{path}/{k}")) is not None), None)
    return None if type(a) is type(b) and a == b else path


def _float(value):
    """The float a recorded hex string stands for, or None."""
    try:
        return float.fromhex(value) if isinstance(value, str) else None
    except ValueError:
        return None


def size_difference(a, b, out: dict) -> dict:
    """Walk two JSON values: the largest |a - b| of their hex floats into
    ``out["max_abs_diff"]`` (inf where one side is nan), and whether every
    other value, key and length is equal into ``out["other_equal"]``."""
    if isinstance(a, dict) and isinstance(b, dict):
        out["other_equal"] &= sorted(a) == sorted(b)
        for key in a.keys() & b.keys():
            size_difference(a[key], b[key], out)
    elif isinstance(a, list) and isinstance(b, list):
        out["other_equal"] &= len(a) == len(b)
        for x, y in zip(a, b):
            size_difference(x, y, out)
    elif _float(a) is not None and _float(b) is not None:
        x, y = _float(a), _float(b)
        gap = 0.0 if x == y or (x != x and y != y) else abs(x - y)
        out["max_abs_diff"] = max(out["max_abs_diff"],
                                  gap if gap == gap else math.inf)
    else:
        out["other_equal"] &= type(a) is type(b) and a == b
    return out


def compare(a: dict, b: dict) -> dict:
    """For each loop, grid and stitched grid of either record, keyed
    "loops/NAME", "grids/NAME" and "stitched/NAME": {"identical": True}, or
    where the two first differ with :func:`size_difference`'s sizes, or
    that one record lacks it."""
    out = {}
    for kind in ("loops", "grids", "stitched"):
        ka, kb = a.get(kind, {}), b.get(kind, {})
        for name in sorted(set(ka) | set(kb)):
            if name not in ka or name not in kb:
                out[f"{kind}/{name}"] = {"identical": False, "missing": True}
                continue
            at = first_difference(ka[name], kb[name])
            out[f"{kind}/{name}"] = (
                {"identical": True} if at is None else size_difference(
                    ka[name], kb[name], {"identical": False, "at": at,
                                         "max_abs_diff": 0.0,
                                         "other_equal": True}))
    return out


def verdict(a: dict, comparison: dict) -> dict:
    """The one-line summary: what was compared, in the first record, and
    which entries are not identical, differ in other values than floats
    or are missing on one side."""
    loops, grids = a.get("loops", {}), a.get("grids", {})
    stitched = a.get("stitched", {})
    return {
        "loops": len(loops),
        "loop_steps": sum(len(t.get("phis", ())) for t in loops.values()),
        "grids": len(grids),
        "grid_points": sum(map(len, grids.values())),
        "stitched": len(stitched),
        "stitched_samples": sum(len(br["samples"]) for branches
                                in stitched.values() for br in branches),
        "not_identical": sorted(name for name, c in comparison.items()
                                if not c["identical"] and "missing" not in c),
        "other_differs": sorted(name for name, c in comparison.items()
                                if not c.get("other_equal", True)),
        "missing": sorted(name for name, c in comparison.items()
                          if "missing" in c),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", type=Path, default=None,
                    help=argparse.SUPPRESS)
    ap.add_argument("parent", type=Path, nargs="?")
    ap.add_argument("change", type=Path, nargs="?")
    ap.add_argument("--out", type=Path, default=None,
                    help="write the comparison here (default: stdout only)")
    ns = ap.parse_args(argv)
    if ns.record is not None:
        json.dump(_record(ns.record.resolve()), sys.stdout)
        return 0
    if ns.parent is None or ns.change is None:
        ap.error("PARENT and CHANGE are required")
    a, b = _run(ns.parent.resolve()), _run(ns.change.resolve())
    comparison = compare(a, b)
    if ns.out is not None:
        ns.out.write_text(json.dumps(comparison, indent=1, sort_keys=True)
                          + "\n")
    print(json.dumps(verdict(a, comparison)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
