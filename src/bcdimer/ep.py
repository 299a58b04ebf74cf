"""Exceptional-point encircling and order classification.

A candidate exceptional point is encircled by complexifying exactly one
scalar control with the j unit: ``c(phi) = center + r*(cos(phi) + j*sin(phi))``.
Each tracked state is re-solved step by step around the loop; at closure the
final states are matched to the starting set and the resulting permutation's
cycle structure bounds the order of the exceptional point from below.

Loops around different controls can show different exchange behaviour, so
the classifier reports per-control cycle types plus a wave-function
coalescence check at the loop center, and never asserts an exact order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .bicomplex import fmt_float
from .continuation import _assign
from .model import StationaryState
from .solver import (
    GaugeDegenerate,
    NoConvergence,
    SolveConfig,
    newton_solve,
    state_distance,
)

__all__ = [
    "TrackingLost",
    "AmbiguousMatch",
    "LoopSpec",
    "LoopTrace",
    "EpReport",
    "encircle",
    "classify_ep",
    "trace_to_csv",
    "trace_summary_json",
]

# tracked states re-solved at the center within this of each other coalesce
COALESCENCE_TOL = 1e-3


class TrackingLost(RuntimeError):
    """A tracked state could not be continued around the loop."""


class AmbiguousMatch(RuntimeError):
    """State matching stayed ambiguous after refining the loop resolution."""


@dataclass
class LoopSpec:
    """One parameter loop around a candidate exceptional point.

    ``which`` selects the control (gamma, g or s) whose j-component follows
    the circle; ``states_to_track`` must solve at phi = 0, i.e. at the
    control value ``center + radius``.  A radius of None picks
    1e-3 * max(1, |center value|).
    """

    center: object  # DimerParams
    which: str
    radius: float | None = None
    steps: int = 128
    states_to_track: list[StationaryState] = field(default_factory=list)
    turns: int = 1
    reverse: bool = False

    def resolved_radius(self) -> float:
        if self.radius is not None:
            return self.radius
        return 1e-3 * max(1.0, abs(self.center.control(self.which).z0))

    def validate(self):
        radius = self.resolved_radius()
        if not (radius > 0 and math.isfinite(radius)):
            raise ValueError(f"loop radius must be positive and finite, "
                             f"got {radius}")
        if self.steps < 16:
            raise ValueError("a loop needs at least 16 steps")
        if self.turns < 1:
            raise ValueError("a loop needs at least 1 turn")
        if self.which not in ("gamma", "g", "s"):
            raise ValueError(f"cannot loop over control {self.which!r}")
        if not self.states_to_track:
            raise ValueError("no states to track")


@dataclass
class LoopTrace:
    spec: LoopSpec
    phis: list[float]
    states: list[list[StationaryState]]  # [step][branch]
    permutation: list[int]
    cycle_type: list[int]
    match_margin: float
    reliable: bool

    def start_states(self) -> list[StationaryState]:
        return self.states[0]

    def end_states(self) -> list[StationaryState]:
        return self.states[-1]


def _loop_params(spec: LoopSpec, phi: float):
    r = spec.resolved_radius()
    center_value = spec.center.control(spec.which).z0
    return spec.center.with_control(
        spec.which, center_value + r * math.cos(phi), r * math.sin(phi)
    )


def _track_segment(system, spec, state, phi0, phi1, cfg, depth=0):
    """Continue one state from phi0 to phi1, bisecting in phi on failure."""
    try:
        return newton_solve(system, _loop_params(spec, phi1), state, cfg)
    except (NoConvergence, GaugeDegenerate):
        if depth >= 8:
            raise TrackingLost(
                f"state lost between phi={phi0:.4f} and phi={phi1:.4f}"
            )
        mid = 0.5 * (phi0 + phi1)
        half = _track_segment(system, spec, state, phi0, mid, cfg, depth + 1)
        return _track_segment(system, spec, half, mid, phi1, cfg, depth + 1)


def _match_margin(new_states, old_states) -> float:
    """Smallest second-nearest/nearest ratio over the new states."""
    worst = math.inf
    for i, ns in enumerate(new_states):
        dists = sorted(state_distance(ns, os) for os in old_states)
        if len(dists) < 2:
            continue
        nearest = max(dists[0], 1e-300)
        worst = min(worst, dists[1] / nearest)
    return worst


def _cycles(perm: list[int]) -> list[int]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        out.append(length)
    out.sort(reverse=True)
    return out


def encircle(system, spec: LoopSpec, cfg: SolveConfig | None = None) -> LoopTrace:
    """Drive all tracked states around the loop and read off the permutation.

    The permutation maps the index of each starting state to the index of
    the starting state its continuation lands on after a full loop.  The
    match margin is the smallest ratio of second-nearest to nearest match
    distance seen at any step; a trace with margin <= 2 retries once at
    doubled resolution and then raises :class:`AmbiguousMatch`.
    """
    if cfg is None:
        cfg = SolveConfig()
    spec.validate()
    trace = _encircle_once(system, spec, cfg)
    if trace.reliable:
        return trace
    trace = _encircle_once(system, replace(spec, steps=2 * spec.steps), cfg)
    if not trace.reliable:
        raise AmbiguousMatch(
            f"match margin {trace.match_margin:.3f} <= 2 at doubled resolution"
        )
    return trace


def _encircle_once(system, spec: LoopSpec, cfg: SolveConfig) -> LoopTrace:
    sign = -1.0 if spec.reverse else 1.0
    total = 2.0 * math.pi * spec.turns
    n_steps = spec.steps * spec.turns
    phis = [sign * total * k / n_steps for k in range(n_steps + 1)]
    current = [
        newton_solve(system, _loop_params(spec, 0.0), st, cfg)
        for st in spec.states_to_track
    ]
    per_step = [list(current)]
    margin = math.inf
    for k in range(1, len(phis)):
        new = [
            _track_segment(system, spec, st, phis[k - 1], phis[k], cfg)
            for st in current
        ]
        if len(new) > 1:
            margin = min(margin, _match_margin(new, current))
        per_step.append(list(new))
        current = new
    start, end = per_step[0], per_step[-1]
    n = len(start)
    if n == 1:
        perm = [0]
        end_margin = math.inf
    else:
        cost = [[state_distance(e, s) for s in start] for e in end]
        perm = [target for _branch, target in _assign(cost)]
        end_margin = math.inf
        for i in range(n):
            row = sorted(cost[i])
            end_margin = min(end_margin, row[1] / max(row[0], 1e-300))
    margin = float(min(margin, end_margin))
    reliable = bool(margin > 2.0)
    return LoopTrace(
        spec=spec,
        phis=phis,
        states=per_step,
        permutation=perm,
        cycle_type=_cycles(perm),
        match_margin=margin,
        reliable=reliable,
    )


@dataclass
class EpReport:
    """Conservative exceptional-point evidence from one or more loops."""

    center_controls: dict
    cycle_types: dict  # which -> sorted cycle lengths
    order_lower_bound: int  # the longest cycle over all loops
    states_coalesce: bool
    max_pairwise_center_distance: float
    summary: str


def classify_ep(
    system,
    traces: list[LoopTrace],
    cfg: SolveConfig | None = None,
) -> EpReport:
    """Combine loop traces around one center into an order statement.

    All traces must share the center.  The report gives per-control cycle
    types, the maximum cycle length (a lower bound on the order), and
    whether the tracked states coalesce when re-solved at the center
    itself.  A single control not exchanging all states does not bound the
    order from above, so only the lower bound is reported.
    """
    if cfg is None:
        cfg = SolveConfig()
    if not traces:
        raise ValueError("need at least one trace")
    center = traces[0].spec.center
    for tr in traces[1:]:
        if tr.spec.center != center:
            raise ValueError("traces do not share a center")
    cycle_types = {tr.spec.which: tr.cycle_type for tr in traces}
    max_cycle = max(max(tr.cycle_type) for tr in traces)

    # coalescence of the tracked wave functions at the center itself
    probe = traces[0]
    center_states = []
    for st in probe.start_states():
        try:
            center_states.append(newton_solve(system, center, st, cfg))
        except (NoConvergence, GaugeDegenerate):
            continue
    max_pair = 0.0
    for i, a in enumerate(center_states):
        for b in center_states[i + 1 :]:
            max_pair = max(max_pair, float(state_distance(a, b)))
    coalesce = bool(center_states) and max_pair < COALESCENCE_TOL
    summary = (
        f"EP order >= {max_cycle}"
        + ("; tracked states coalesce at center" if coalesce else
           "; no full coalescence observed at center")
    )
    return EpReport(
        center_controls={
            name: center.control(name).z0 for name in ("gamma", "g", "s")
        },
        cycle_types=cycle_types,
        order_lower_bound=max_cycle,
        states_coalesce=coalesce,
        max_pairwise_center_distance=max_pair,
        summary=summary,
    )


# -- export -----------------------------------------------------------------


def trace_to_csv(trace: LoopTrace) -> str:
    """Per-step mu of every tracked branch with its idempotent parts."""
    n = len(trace.states[0])
    header = ["phi"]
    for b in range(n):
        header.extend(
            [
                f"branch{b}_mu_0",
                f"branch{b}_mu_1",
                f"branch{b}_mu_2",
                f"branch{b}_mu_3",
                f"branch{b}_mu_plus_re",
                f"branch{b}_mu_plus_im",
                f"branch{b}_mu_minus_re",
                f"branch{b}_mu_minus_im",
            ]
        )
    lines = [",".join(header)]
    for phi, row in zip(trace.phis, trace.states):
        cells = [fmt_float(phi)]
        for st in row:
            pair = st.mu.to_idempotent()
            cells.extend(fmt_float(c) for c in st.mu.as_tuple())
            cells.extend(
                [
                    fmt_float(pair.plus.real),
                    fmt_float(pair.plus.imag),
                    fmt_float(pair.minus.real),
                    fmt_float(pair.minus.imag),
                ]
            )
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def trace_summary_json(trace: LoopTrace) -> str:
    return json.dumps(
        {
            "which": trace.spec.which,
            "radius": trace.spec.resolved_radius(),
            "steps": trace.spec.steps,
            "turns": trace.spec.turns,
            "reverse": trace.spec.reverse,
            "permutation": trace.permutation,
            "cycle_type": trace.cycle_type,
            "match_margin": trace.match_margin,
            "reliable": trace.reliable,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
