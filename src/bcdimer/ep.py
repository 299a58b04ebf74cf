"""Exceptional-point encircling and order classification.

A candidate exceptional point is encircled by complexifying exactly one
scalar control with the j unit: ``c(phi) = center + r*(cos(phi) + j*sin(phi))``.
The loop points are known before the first step: they are computed once,
as rows of control components (``model.control_rows``, no DimerParams a
point), and the system lists a seed for every state at a whole block of
them in one ``packed_candidates`` call (which may list them point by
point), and Newton solves them in one batched pass.  Each step is carried
as solved rows (12 canonical floats, residual and flags): at each loop point
a tracked state continues as the solved row that is nearest it one step
back, in all 12 floats, when it is also that row's nearest tracked state.
mu alone is no label: the mirror pair shares it at gamma = s = 0.  A
state with no such partner, as when a seed misses it, is instead
re-solved by Newton from its previous value, bisecting the step.  At
closure the final states are matched to the starting set and the
resulting permutation's cycle structure bounds the order of the exceptional
point from below.  A step's StationaryStates are built only when the
trace's ``states`` are read.

Loops around different controls can show different exchange behaviour, so
the classifier reports per-control cycle types plus a wave-function
coalescence check at the loop center, and never asserts an exact order.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .bicomplex import fmt_float
from .continuation import _assign
from .model import StationaryState, control_rows
from .solver import (
    GaugeDegenerate,
    NoConvergence,
    SolveConfig,
    _candidate_solves,
    _Lazy,
    _distances,
    _rows,
    _solve_at,
    _states,
    find_all_states,
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
_RELIABLE = 2.0  # a clear match: second-nearest over nearest above this


class TrackingLost(RuntimeError):
    """A tracked state could not be continued around the loop."""


class AmbiguousMatch(RuntimeError):
    """State matching stayed ambiguous after refining the loop resolution."""


@dataclass
class LoopSpec:
    """One parameter loop around a candidate exceptional point.

    ``which`` selects the control (gamma, g or s) whose j-component follows
    the circle, and which must be real at the center; ``states_to_track``
    must solve at phi = 0, i.e. at the control value ``center + radius``.
    A radius of None picks 1e-3 * max(1, |center value|).
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
        if self.center.control(self.which).z1 != 0:
            raise ValueError(f"the looped control {self.which} has a j part "
                             f"at the center, which the loop would drop")
        if not self.states_to_track:
            raise ValueError("no states to track")


@dataclass
class LoopTrace:
    """One loop around a center.  ``states[step][branch]`` is the state of
    each tracked branch at ``phis[step]``; it reads as a list of lists, but
    a step's states are built only when that step is first read."""

    spec: LoopSpec
    phis: list[float]
    states: Sequence[list[StationaryState]]  # [step][branch]
    permutation: list[int]
    cycle_type: list[int]
    match_margin: float
    reliable: bool
    fallback_steps: int  # branch steps re-solved from the previous state

    def start_states(self) -> list[StationaryState]:
        return self.states[0]

    def end_states(self) -> list[StationaryState]:
        return self.states[-1]


def _loop_controls(spec: LoopSpec, phis) -> np.ndarray:
    """The loop points at ``phis`` as rows of
    :func:`~bcdimer.model.control_rows`: the looped control is (center +
    r cos(phi)) + j r sin(phi), with math's cos and sin."""
    r = spec.resolved_radius()
    col = 1 + 4 * ("g", "gamma", "s").index(spec.which)
    out = np.repeat(control_rows([spec.center]), len(phis), axis=0)
    out[:, col] += r * np.array([math.cos(phi) for phi in phis])
    out[:, col + 1] = r * np.array([math.sin(phi) for phi in phis])
    out[:, col + 2:col + 4] = 0.0
    return out


def _track_segment(system, spec, row, phi0, phi1, cfg, depth=0):
    """Continue one solved row from phi0 to phi1 by Newton from its 12
    floats, bisecting in phi on failure; returns the solved row."""
    try:
        return _solve_at(system, _loop_controls(spec, [phi1]),
                         row[None, :12], cfg)[0]
    except (NoConvergence, GaugeDegenerate):
        if depth >= 8:
            raise TrackingLost(
                f"state lost between phi={phi0:.4f} and phi={phi1:.4f}"
            )
        mid = 0.5 * (phi0 + phi1)
        half = _track_segment(system, spec, row, phi0, mid, cfg, depth + 1)
        return _track_segment(system, spec, half, mid, phi1, cfg, depth + 1)


def _step(system, spec, rows, seeded, phi0, phi1, cfg):
    """The solved rows of every tracked state at phi1, each one's distances
    to every row of ``rows``, and the row of ``seeded`` that each state
    continues as, -1 for a state that took the fallback.

    ``rows`` and ``seeded`` are :func:`~bcdimer.solver._solved` rows: the
    tracked states at phi0, and the rows Newton reached from the candidate
    seeds at phi1, as :func:`~bcdimer.solver._candidate_solves` gives them
    for a whole block of loop points.  One max-norm matrix
    (:func:`~bcdimer.solver._distances`, with state_distance's bits) holds
    the distances between the two.  State i continues as solved row j when
    j is its nearest row and i is j's nearest state, every other state
    more than _RELIABLE times as far; duplicate seeds of one state are
    harmless.  Any other state is continued by :func:`_track_segment`.
    """
    n = len(rows)
    near = _distances(rows[:, :12], seeded[:, :12])
    pick = np.full(n, -1)
    if len(seeded):
        best = near.argmin(1)
        mutual = ((near.argmin(0)[best] == np.arange(n))
                  & (_ratios(near.T)[best] > _RELIABLE))
        pick[mutual] = best[mutual]
    new, dists = np.empty(rows.shape), np.empty((n, n))
    kept = pick >= 0
    new[kept], dists[kept] = seeded[pick[kept]], near[:, pick[kept]].T
    for i in np.flatnonzero(~kept).tolist():
        new[i] = _track_segment(system, spec, rows[i], phi0, phi1, cfg)
        dists[i] = _distances(new[i, :12], rows[:, :12])
    return new, dists, pick


def _ratios(dists) -> np.ndarray:
    """Second-nearest/nearest ratios along the last axis of an array of
    distances; inf with fewer than two there."""
    if dists.shape[-1] < 2:
        return np.full(dists.shape[:-1], math.inf)
    two = np.partition(dists, 1, axis=-1)
    return two[..., 1] / np.maximum(two[..., 0], 1e-300)


def _match_margin(dists) -> float:
    """Smallest :func:`_ratios` of an array of distances from each new
    state (last axis: to the old ones)."""
    return float(_ratios(dists).min())


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

    At each loop point every tracked state continues as the state Newton
    reached from one of the system's candidate seeds, the two being each
    other's nearest; the seeds and Newton from them run once per block of
    loop points (see :func:`_step`).  A state without such a partner is
    instead re-solved by Newton from its previous value, bisecting the
    step in phi; ``fallback_steps`` counts those.  The permutation maps
    the index of each starting state to the index of the starting state its
    continuation lands on after a full loop.  The match margin is the
    smallest ratio of second-nearest to nearest match distance seen at any
    step; a trace with margin <= 2 retries once at doubled resolution and
    then raises :class:`AmbiguousMatch`.
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
    """One pass around the loop, carried as solved rows; the margin comes
    from the distances of every step and of the closure at once.  Where a
    block has one row a point per state, one array pass gives the distances
    between consecutive points' rows; a step whose picks there are all
    ones _step takes chains the states' row indices from a point of the
    block, and a run of such steps gathers its rows and distances in one
    fancy index, with :func:`_step`'s bits.  Other steps run _step."""
    sign = -1.0 if spec.reverse else 1.0
    total = 2.0 * math.pi * spec.turns
    n_steps = spec.steps * spec.turns
    phis = [sign * total * k / n_steps for k in range(n_steps + 1)]
    controls = _loop_controls(spec, [0.0, *phis[1:]])
    rows = _solve_at(system, controls[:1], _rows(spec.states_to_track), cfg)
    n, steps, dists, fallback_steps = len(rows), [rows], [], 0
    for solved, first in _candidate_solves(system, controls[1:], cfg):
        m, ok = len(first) - 1, []
        if (np.diff(first) == n).all():
            at = solved.reshape(m, n, -1)
            # near[j - 1][a, b]: row a at point j - 1 to row b at point j
            near = _distances(at[:-1, :, :12], at[1:, None, :, :12])
            best, back = near.argmin(2), near.argmin(1)
            ok = ((np.take_along_axis(back, best, 1) == np.arange(n)).all(1)
                  & (_ratios(near.swapaxes(1, 2)) > _RELIABLE).all(1))
            best, ok = best.tolist(), ok.tolist()
        idx, run = None, []  # the states' rows at point j - 1; chained steps
        for j in range(m + 1):
            if j < m and idx is not None and ok[j - 1]:
                run.append((j, idx, [best[j - 1][a] for a in idx]))
                idx = run[-1][2]
                continue
            if run:
                js, was, now = (np.array(c) for c in zip(*run))
                steps.extend(at[js[:, None], now])
                dists.append(near[js[:, None, None] - 1, was[:, None, :],
                                  now[:, :, None]])
                rows, run = steps[-1], []
            if j < m:
                rows, near_j, pick = _step(
                    system, spec, rows, solved[first[j]:first[j + 1]],
                    phis[len(steps) - 1], phis[len(steps)], cfg)
                steps.append(rows)
                dists.append(near_j[None])
                fallback_steps += int((pick < 0).sum())
                idx = pick.tolist() if ok and (pick >= 0).all() else None
    cost = _distances(rows[:, :12], steps[0][:, :12])
    perm = [target for _branch, target in _assign(cost.tolist())]
    margin = _match_margin(np.concatenate([*dists, cost[None]]))
    reliable = bool(margin > _RELIABLE)
    return LoopTrace(
        spec=spec,
        phis=phis,
        states=_Lazy(len(steps), lambda k: _states(steps[k].tolist())),
        permutation=perm,
        cycle_type=_cycles(perm),
        match_margin=margin,
        reliable=reliable,
        fallback_steps=fallback_steps,
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
    whether the tracked states coalesce at the center itself: whether the
    states of :func:`~bcdimer.solver.find_all_states` there nearest to
    them lie within COALESCENCE_TOL of each other.  A single control not
    exchanging all states does not bound the order from above, so only
    the lower bound is reported.
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

    # coalescence of the tracked wave functions at the center itself: each
    # tracked start state maps to its nearest state of find_all_states
    # there.  Newton from a tracked state would stop short of an exact
    # EP4's quadruple root, to which it converges only linearly
    center_rows = _rows(find_all_states(system, center, cfg))
    max_pair = 0.0
    if len(center_rows):
        start = _rows(traces[0].start_states())
        mapped = center_rows[_distances(start, center_rows).argmin(1)]
        max_pair = float(_distances(mapped, mapped).max())
    coalesce = bool(len(center_rows)) and max_pair < COALESCENCE_TOL
    summary = (
        f"EP order >= {max_cycle}"
        + ("; tracked states coalesce at center" if coalesce else
           "; no full coalescence observed at center")
    )
    return EpReport(
        center_controls=center.parts(),
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
            # one tracked state has no second-nearest: JSON has no inf
            "match_margin": (None if math.isinf(trace.match_margin)
                             else trace.match_margin),
            "reliable": trace.reliable,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
