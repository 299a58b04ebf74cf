"""Command-line front end.

Subcommands drive the library and emit CSV/JSON artifacts plus a one-line
JSON summary on stdout.  Exit codes: 0 success, 2 usage error, 3 numerical
failure (the summary then names the failing error).

Floats are serialized with repr, the shortest decimal that round-trips, so
identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .bicomplex import Bicomplex, fmt_float
from .continuation import (
    NoMerger,
    branches_to_csv,
    find_merger,
    find_tangent,
    locate_pitchfork_gamma,
    meeting_branches,
    states_table,
    stitched_branches,
)
from .ep import (
    AmbiguousMatch,
    LoopSpec,
    TrackingLost,
    classify_ep,
    encircle,
    trace_summary_json,
    trace_to_csv,
)
from .model import DimerParams, DimerSystem
from .solver import (
    GaugeDegenerate,
    NoConvergence,
    SolveConfig,
    find_all_states,
    state_distance,
)

_NUMERICAL_ERRORS = (
    NoConvergence,
    GaugeDegenerate,
    TrackingLost,
    AmbiguousMatch,
    NoMerger,
)


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors become usage errors with a JSON summary line.  "-"
    and a digit, as -1e-3 or -2.5:-0.1:0.1, or "-inf" or "-nan" in any
    case, starts a value, not an option."""

    def __init__(self, *args, **kwargs):
        import re  # loaded by argparse
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)",
                                                  re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _Usage(message)


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"range must be lo:hi:step, got {text!r}"
        )
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise argparse.ArgumentTypeError(f"range must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi, step


_MAX_POINTS = 100_000  # more grid or loop points: a usage error, at once


def _check_points(n, what: str) -> None:
    if n > _MAX_POINTS:
        raise _Usage(f"{what} has {n:.17g} points, more than {_MAX_POINTS}")


def _grid(rng: tuple[float, float, float]) -> list[float]:
    lo, hi, step = rng
    last = (hi - lo) / step + 1e-9
    _check_points(math.floor(last) + 1 if last < math.inf else last,
                  f"range {lo!r}:{hi!r}:{step!r}")
    return [lo + k * step for k in range(int(math.floor(last)) + 1)]


_TRACK_HELP = ("complex (default): only states that exist without "
               "continuation; all: the bicomplex ones too.  Past a tangent "
               "at g != 0 the coalescing pair is bicomplex: use --track all")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than a small ``solve``."""
    ap = _Parser(
        prog="bcdimer",
        description="Stationary states, bifurcations and exceptional-point "
        "loops of the bicomplex-continued PT dimer",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--v", type=float, default=1.0)
        p.add_argument("--g", type=float, default=0.0)
        p.add_argument("--gamma", type=float, default=0.0)
        p.add_argument("--gamma-j", type=float, default=0.0)
        p.add_argument("--s", type=float, default=0.0)
        p.add_argument("--s-j", type=float, default=0.0)
        p.add_argument("--tol", type=float, default=1e-11)
        p.add_argument("--jacobian", choices=("analytic",),
                       default="analytic",
                       help="Newton Jacobian: the exact one, the only mode")
        p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("solve", help="find all stationary states at one point")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("sweep", help="states over a parameter range, stitched "
                       "into branches")
    common(p)
    rng = p.add_mutually_exclusive_group(required=True)
    rng.add_argument("--gamma-range", type=_parse_range)
    rng.add_argument("--g-range", type=_parse_range)

    p = sub.add_parser("bifurcations", help="locate the tangents and "
                       "pitchforks over a gamma range, and the branches "
                       "through them")
    common(p)
    p.add_argument("--gamma-range", type=_parse_range, default=(0.05, 1.4, 0.01))

    p = sub.add_parser("merger", help="locate the pitchfork disappearance in g")
    common(p)
    p.add_argument("--g-range", type=_parse_range, default=None,
                   help="lo:hi:step window to search, -2.5v:-0.1v by "
                   "default; the step is unused (the locator is exact) and "
                   "kept so the syntax stays")

    p = sub.add_parser("encircle", help="loop one control around a critical "
                       "point and report the state permutation")
    common(p)
    p.add_argument("--param", choices=("gamma", "g", "s"), default="gamma")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--steps", type=int, default=128)
    p.add_argument("--turns", type=int, default=1)
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--around", choices=("tangent", "pitchfork", "merger"),
                   default=None)
    p.add_argument("--track", choices=("complex", "all"), default="complex",
                   help=_TRACK_HELP)

    p = sub.add_parser("classify", help="combine loops over several controls "
                       "into an order statement")
    common(p)
    p.add_argument("--param", choices=("gamma", "g", "s"), action="append",
                   default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--steps", type=int, default=128)
    p.add_argument("--around", choices=("tangent", "pitchfork"),
                   default="tangent")
    p.add_argument("--track", choices=("complex", "all"), default="complex",
                   help=_TRACK_HELP)
    return ap


def _params(ns) -> DimerParams:
    try:
        return DimerParams(
            v=ns.v,
            g=ns.g,
            gamma=Bicomplex(ns.gamma, ns.gamma_j, 0.0, 0.0),
            s=Bicomplex(ns.s, ns.s_j, 0.0, 0.0),
        )
    except ValueError as exc:
        raise _Usage(str(exc)) from exc


def _cfg(ns) -> SolveConfig:
    try:
        return SolveConfig(residual_tol=ns.tol, jacobian=ns.jacobian)
    except ValueError as exc:
        raise _Usage(str(exc)) from exc


def _states_csv(states) -> str:
    return states_table(
        (((), st, (fmt_float(st.residual_norm),)) for st in states),
        extra=("residual_norm",),
    )


def _states_json(states) -> str:
    return json.dumps(
        [
            {
                "psi1": list(st.psi1.as_tuple()),
                "psi2": list(st.psi2.as_tuple()),
                "mu": list(st.mu.as_tuple()),
                "residual_norm": st.residual_norm,
                "is_complex_state": st.is_complex_state,
                "is_pt_symmetric": st.is_pt_symmetric,
            }
            for st in states
        ],
        sort_keys=True,
        indent=1,
    ) + "\n"


def _write(out_dir: Path | None, name: str, text: str):
    if out_dir is None:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _emit(summary: dict) -> None:
    print(json.dumps(summary, sort_keys=True, separators=(",", ":")))


def _cmd_solve(ns, system, params, cfg) -> dict:
    states = find_all_states(system, params, cfg)
    if ns.format == "csv":
        _write(ns.out, "states.csv", _states_csv(states))
    else:
        _write(ns.out, "states.json", _states_json(states))
    return {
        "command": "solve",
        "n_states": len(states),
        "n_complex": sum(1 for s in states if s.is_complex_state),
        "mu": [list(s.mu.as_tuple()) for s in states],
    }


def _check_real_sweep(ns, parameter: str) -> None:
    """A scan sweeps the real part of its control: a j part of it, which
    the scan would drop, is a usage error."""
    if parameter == "gamma" and ns.gamma_j != 0:
        raise _Usage(f"--gamma-range scans a real gamma; --gamma-j must "
                     f"be 0, got {ns.gamma_j!r}")


def _cmd_sweep(ns, system, params, cfg) -> dict:
    parameter, rng = (("g", ns.g_range) if ns.gamma_range is None
                      else ("gamma", ns.gamma_range))
    _check_real_sweep(ns, parameter)
    grid = _grid(rng)
    branches = stitched_branches(system, params, parameter, grid, cfg)
    _write(ns.out, "branches.csv", branches_to_csv(branches))
    counts = {}
    for br in branches:
        for value in br.values:
            counts[value] = counts.get(value, 0) + 1
    count_values = sorted(set(counts.values()))
    return {
        "command": "sweep",
        "parameter": parameter,
        "n_branches": len(branches),
        "n_rows": sum(len(br.samples) for br in branches),
        "states_per_point": count_values,
    }


def _cmd_bifurcations(ns, system, params, cfg) -> dict:
    lo, hi, step = ns.gamma_range
    _check_real_sweep(ns, "gamma")
    branches = stitched_branches(system, params, "gamma",
                                 _grid(ns.gamma_range), cfg)
    points = system.bifurcation_set(params, "gamma", lo, hi, cfg)
    payload = []
    for pt in points:
        ids, continuing = meeting_branches(pt, branches, step)
        payload.append({
            "kind": pt.kind,
            "location": pt.location,
            "branch_ids": ids,
            "continuing_branch_id": continuing,
            "detection_residual": pt.detection_residual,
            "mu": list(pt.coalesced_state.mu.as_tuple()),
        })
    _write(ns.out, "bifurcations.json",
           json.dumps(payload, sort_keys=True, indent=1) + "\n")
    _write(ns.out, "branches.csv", branches_to_csv(branches))
    return {
        "command": "bifurcations",
        "points": [
            {"kind": pt.kind, "location": pt.location} for pt in points
        ],
    }


def _cmd_merger(ns, system, params, cfg) -> dict:
    window = None if ns.g_range is None else ns.g_range[:2]
    g_star, gamma_star = find_merger(system, params, window, cfg)
    return {
        "command": "merger",
        "g_star": g_star,
        "gamma_star": gamma_star,
        "gamma_star_j": params.gamma.z1,
    }


def _resolve_center(ns, system, params, cfg):
    if ns.around is None:
        return params, None
    if ns.around == "tangent":
        loc, coalesced = find_tangent(system, params, "gamma", cfg)
        return params.with_control("gamma", loc), coalesced
    if ns.around == "pitchfork":
        found = locate_pitchfork_gamma(system, params, ns.v, cfg)
        if found is None:
            raise NoConvergence("no pitchfork in (0, v] at these parameters")
        loc, coalesced = found
        return params.with_control("gamma", loc), coalesced
    g_star, _ = find_merger(system, params, cfg=cfg)
    return params.with_control("g", g_star), None


def _traces(ns, system, params, cfg, which_list, turns=1, reverse=False):
    """One loop of each control in ``which_list`` around the ``--around``
    center.  The loop settings are checked as usage errors before any
    solving: a control looped twice, and a j part that the loop or the
    real-axis locators of ``--around tangent|pitchfork`` would drop, are
    among them.  Each loop tracks the states at its start: the complex ones
    unless ``--track all``, and only those near the coalesced state where
    the center has one."""
    if len(set(which_list)) < len(which_list):
        raise _Usage(f"--param repeats a control: {which_list}")
    if ns.around in ("tangent", "pitchfork") and ns.gamma_j != 0:
        raise _Usage(f"--around {ns.around} locates a real gamma; "
                     f"--gamma-j must be 0, got {ns.gamma_j!r}")
    try:
        for which in which_list:
            LoopSpec(center=params, which=which, radius=ns.radius,
                     steps=ns.steps, turns=turns,
                     states_to_track=[None]).validate()
    except ValueError as exc:
        raise _Usage(str(exc)) from exc
    _check_points(ns.steps * turns + 1,
                  f"a loop of {ns.steps} steps x {turns} turn(s)")
    center, coalesced = _resolve_center(ns, system, params, cfg)
    traces = []
    for which in which_list:
        spec = LoopSpec(center=center, which=which, radius=ns.radius,
                        steps=ns.steps, turns=turns, reverse=reverse)
        r = spec.resolved_radius()
        states = find_all_states(
            system, center.with_control(which, center.control(which).z0 + r),
            cfg)
        thr = max(0.25, 4.0 * math.sqrt(r))
        spec.states_to_track = [
            s for s in states
            if (ns.track == "all" or s.is_complex_state)
            and (coalesced is None or state_distance(s, coalesced) < thr)]
        if not spec.states_to_track:
            hint = ("; --track complex skips the bicomplex states, which past "
                    "a tangent at g != 0 are the coalescing pair: try --track "
                    "all" if ns.track == "complex" else "")
            raise NoConvergence(f"no states to track for the {which} loop"
                                f"{hint}")
        traces.append(encircle(system, spec, cfg))
    return traces


def _cmd_encircle(ns, system, params, cfg) -> dict:
    (trace,) = _traces(ns, system, params, cfg, [ns.param], ns.turns,
                       ns.reverse)
    _write(ns.out, "trace.csv", trace_to_csv(trace))
    _write(ns.out, "trace_summary.json", trace_summary_json(trace) + "\n")
    return {
        "command": "encircle",
        "which": ns.param,
        "center": {
            name: trace.spec.center.control(name).z0
            for name in ("gamma", "g", "s")
        },
        "cycle_type": trace.cycle_type,
        "permutation": trace.permutation,
        "match_margin": (None if math.isinf(trace.match_margin)
                         else trace.match_margin),
        "fallback_steps": trace.fallback_steps,
    }


def _cmd_classify(ns, system, params, cfg) -> dict:
    traces = _traces(ns, system, params, cfg, ns.param or ["gamma", "s"])
    report = classify_ep(system, traces, cfg)
    _write(
        ns.out,
        "ep_report.json",
        json.dumps(
            {
                "center": report.center_controls,
                "cycle_types": report.cycle_types,
                "order_lower_bound": report.order_lower_bound,
                "states_coalesce": report.states_coalesce,
                "max_pairwise_center_distance":
                    report.max_pairwise_center_distance,
                "summary": report.summary,
            },
            sort_keys=True,
            indent=1,
        ) + "\n",
    )
    return {
        "command": "classify",
        "cycle_types": report.cycle_types,
        "order_lower_bound": report.order_lower_bound,
        "states_coalesce": report.states_coalesce,
        "summary": report.summary,
    }


_HANDLERS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "bifurcations": _cmd_bifurcations,
    "merger": _cmd_merger,
    "encircle": _cmd_encircle,
    "classify": _cmd_classify,
}


def run(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        summary = _HANDLERS[ns.command](ns, DimerSystem(), _params(ns),
                                        _cfg(ns))
    except SystemExit as exc:  # --help, after printing the help text
        return 0 if exc.code in (0, None) else 2
    except _Usage as exc:
        _emit({"error": "usage", "message": str(exc)})
        return 2
    except _NUMERICAL_ERRORS as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 3
    _emit(summary)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
