"""Branches, and the bifurcation points between them.

The dimer's bifurcation points come from algebra, not from sweeps:
:meth:`~bcdimer.model.DimerSystem.bifurcation_set` finds them as the roots
of one discriminant, and :func:`find_tangent`, :func:`locate_pitchfork_gamma`,
:func:`find_merger`, :func:`locate_fold` and :func:`detect_bifurcations` pick
from its answer; the last two only name the branches that meet at each point.
Sweeps only draw branches.  :func:`stitched_branches` stitches all states on
a grid into branches, and so carries every branch through its fold onto the
bicomplex partner that continues it.  :func:`sweep_branch` follows one branch
by natural-parameter continuation (secant predictor, Newton corrector) and
stops at its fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .bicomplex import Bicomplex, fmt_float
from .model import BifurcationPoint, DimerParams, StationaryState, pt_reflected
from .solver import (
    GaugeDegenerate,
    NoConvergence,
    SolveConfig,
    canonical_gauge,
    find_all_states,
    newton_solve,
    state_distance,
)

__all__ = [
    "Branch",
    "BifurcationPoint",
    "NoMerger",
    "sweep_branch",
    "detect_bifurcations",
    "locate_fold",
    "meeting_branches",
    "find_merger",
    "find_tangent",
    "stitched_branches",
    "branches_to_csv",
]

_STEP_FLOOR = 1e-9
_GROW_AFTER = 3
_GROW_FACTOR = 1.5
_MAX_STEPS = 100000


class NoMerger(RuntimeError):
    """The scanned interval contains no pitchfork-disappearance crossing."""


@dataclass
class Branch:
    """One swept solution branch over a real control parameter."""

    parameter: str
    samples: list[tuple[float, StationaryState]] = field(default_factory=list)
    termination: str = "incomplete"
    branch_id: int = 0

    @property
    def start(self) -> float:
        return self.samples[0][0]

    @property
    def end(self) -> float:
        return self.samples[-1][0]


def sweep_branch(
    system,
    seed_state: StationaryState,
    params,
    parameter: str,
    stop: float,
    initial_step: float,
    cfg: SolveConfig | None = None,
) -> Branch:
    """Follow one branch from the seed state to ``stop`` or to its fold.

    The seed must solve at the range start (the current value of the chosen
    control in ``params``).  The predictor is the previous state, secant
    after two points; the step halves on corrector failure down to a floor
    of 1e-9 (then the branch terminates, as at a fold) and grows by 1.5x
    after three consecutive successes, capped at the initial step.  To
    carry branches through their folds, use :func:`stitched_branches`.
    """
    if cfg is None:
        cfg = SolveConfig()
    start = params.control(parameter).z0
    direction = 1.0 if stop >= start else -1.0
    step = abs(initial_step)
    branch = Branch(parameter=parameter)
    state = newton_solve(system, params.with_control(parameter, start), seed_state, cfg)
    branch.samples.append((start, state))
    value = start
    successes = 0
    slope = None
    for _ in range(_MAX_STEPS):
        if (stop - value) * direction <= 1e-15:
            branch.termination = "range_end"
            return branch
        h = min(step, abs(stop - value))
        target = value + direction * h
        prev = branch.samples[-1][1]
        if len(branch.samples) >= 2:
            p2, s2 = branch.samples[-2]
            frac = (target - value) / (value - p2) if value != p2 else 0.0
            seed = _extrapolate(s2, prev, frac)
        else:
            seed = prev
        ok = False
        try:
            new_state = newton_solve(
                system, params.with_control(parameter, target), seed, cfg)
            jump = state_distance(new_state, prev)
            bound = _continuity_bound(h, slope)
            if jump <= bound:
                ok = True
        except (NoConvergence, GaugeDegenerate):
            pass
        if ok:
            slope = max(jump / h, 1e-12) if h > 0 else slope
            branch.samples.append((target, new_state))
            value = target
            successes += 1
            if successes >= _GROW_AFTER:
                step = min(step * _GROW_FACTOR, abs(initial_step))
                successes = 0
            continue
        successes = 0
        if step > _STEP_FLOOR:
            step *= 0.5
            continue
        branch.termination = "step_underflow"
        return branch
    branch.termination = "max_steps"
    return branch


def _continuity_bound(h: float, slope: float | None) -> float:
    if slope is None:
        return 0.5  # first step: only reject wild jumps
    return max(10.0 * h * slope, 1e-8)


def _extrapolate(s_prev: StationaryState, s_last: StationaryState, frac: float):
    def ex(a: Bicomplex, b: Bicomplex) -> Bicomplex:
        return b + frac * (b - a)

    psi = (ex(s_prev.psi1, s_last.psi1), ex(s_prev.psi2, s_last.psi2))
    return (psi, ex(s_prev.mu, s_last.mu))


# -- bifurcation location -------------------------------------------------


def locate_fold(
    system,
    params,
    parameter: str,
    state_a: StationaryState,
    state_b: StationaryState,
    value: float,
    cfg: SolveConfig | None = None,
):
    """The point of the system's bifurcation set where two states coalesce.

    Near a fold or pitchfork the pair splits as the square root of the
    distance to it, so the point lies within a multiple of d^2 of
    ``value``, d the pair distance.  The set is searched within
    max(d, d^2, 1e-6) * max(1, |value|) of ``value``, and the point whose
    coalesced state lies nearest the pair is taken.  Returns (location,
    coalesced_state, detection_residual).  Raises :class:`NoConvergence`
    when there is none.
    """
    d = state_distance(state_a, state_b)
    half = max(d, d * d, 1e-6) * max(1.0, abs(value))
    points = system.bifurcation_set(params, parameter, value - half,
                                    value + half, cfg)
    if not points:
        raise NoConvergence(
            f"no bifurcation in {parameter} within {half:.3g} of {value!r}")
    pt = min(points, key=lambda pt: state_distance(pt.coalesced_state, state_a)
             + state_distance(pt.coalesced_state, state_b))
    return pt.location, pt.coalesced_state, pt.detection_residual


def meeting_branches(point, branches, step) -> tuple[list[int], int | None]:
    """The branches that meet at a point and, for a pitchfork, the one that
    carries the symmetric state through it.

    They are the two (tangent) or three (pitchfork) branches whose samples
    within ``step`` of the location lie closest to the coalesced state; the
    continuing one is the first of those whose sample nearest the location
    is PT-symmetric.  Branch ids are their positions in ``branches``.
    """
    nearest = {}
    for br in branches:
        dists = [state_distance(st, point.coalesced_state)
                 for value, st in br.samples
                 if abs(value - point.location) <= step]
        if dists:
            nearest[br.branch_id] = min(dists)
    if point.kind != "pitchfork":
        return sorted(sorted(nearest, key=nearest.get)[:2]), None
    ids = sorted(sorted(nearest, key=nearest.get)[:3])
    symmetric = [
        bid for bid in ids
        if min(branches[bid].samples,
               key=lambda sample: abs(sample[0] - point.location))[1]
        .is_pt_symmetric
    ]
    return ids, (symmetric[0] if symmetric else None)


def detect_bifurcations(
    branches: list[Branch],
    system,
    params,
    cfg: SolveConfig | None = None,
) -> list[BifurcationPoint]:
    """The bifurcation points among swept branches, sorted by location.

    The points are those of the system's bifurcation set over the span of
    the branches, widened by their widest sample step so that a fold where
    a branch stops lies inside.  Branch ids are set to the list positions;
    ``branch_ids`` and ``continuing_branch_id`` come from
    :func:`meeting_branches` with that step.
    """
    for i, br in enumerate(branches):
        br.branch_id = i
    values = [value for br in branches for value, _ in br.samples]
    if not values:
        return []
    step = max((abs(b[0] - a[0]) for br in branches
                for a, b in zip(br.samples, br.samples[1:])), default=0.0)
    points = system.bifurcation_set(params, branches[0].parameter,
                                    min(values) - step, max(values) + step,
                                    cfg)
    out = []
    for pt in points:
        ids, continuing = meeting_branches(pt, branches, step)
        out.append(replace(pt, branch_ids=tuple(ids),
                           continuing_branch_id=continuing))
    return out


def pt_partner_check(branch_a: Branch, branch_b: Branch, tol: float = 1e-6) -> bool:
    """True when the two branches are PT reflections of each other."""
    n = min(len(branch_a.samples), len(branch_b.samples))
    for k in range(0, n, max(1, n // 8)):
        pa, sa = branch_a.samples[k]
        pb, sb = branch_b.samples[k]
        if abs(pa - pb) > 1e-9:
            return False
        psi1, psi2, mu = pt_reflected(sa.psi1, sa.psi2, sa.mu)
        psi, mu = canonical_gauge((psi1, psi2), mu)
        d = max(
            (psi[0] - sb.psi1).max_abs(),
            (psi[1] - sb.psi2).max_abs(),
            (mu - sb.mu).max_abs(),
        )
        if d > tol:
            return False
    return True


# -- the bifurcation set ----------------------------------------------------


def locate_pitchfork_gamma(system, params, v: float,
                           cfg: SolveConfig | None = None):
    """The gamma in (0, v] where the PT-broken pair is born, if any.

    Returns (gamma_P, coalesced_state), the pitchfork of the system's
    bifurcation set, or None when there is none in range.
    """
    for pt in system.bifurcation_set(params, "gamma", 0.0, v, cfg):
        if pt.kind == "pitchfork" and pt.location > 0:
            return pt.location, pt.coalesced_state
    return None


def find_merger(
    v: float,
    system,
    g_window: tuple[float, float] = (-2.5, -0.1),
    cfg: SolveConfig | None = None,
    params_base=None,
):
    """Critical nonlinearity where the pitchfork reaches the base gamma.

    The pitchfork of the bifurcation set in g over the window, at the gamma
    of ``params_base`` (0 by default, where the pitchfork leaves the gamma
    axis: the merger, |g| = 2v).  Returns (g_star, gamma_star) with
    gamma_star that base gamma.  Raises :class:`NoMerger` when the window
    holds no such point.
    """
    if params_base is None:
        params_base = DimerParams(v=v)
    lo, hi = sorted(g_window)
    for pt in system.bifurcation_set(params_base, "g", lo, hi, cfg):
        if pt.kind == "pitchfork":
            return pt.location, params_base.gamma.z0
    raise NoMerger(f"no pitchfork over g in [{lo}, {hi}]")


def find_tangent(
    system, params, parameter: str = "gamma",
    cfg: SolveConfig | None = None,
):
    """Locate the fold where the two equal-population branches coalesce.

    The tangent of the system's bifurcation set in (-2v, 2v) nearest v.
    Returns (location, coalesced_state).
    """
    v = params.v
    tangents = [pt for pt in system.bifurcation_set(params, parameter,
                                                    -2 * v, 2 * v, cfg)
                if pt.kind == "tangent"]
    if not tangents:
        raise NoConvergence(f"no tangent in {parameter} over (-2v, 2v)")
    pt = min(tangents, key=lambda pt: abs(pt.location - v))
    return pt.location, pt.coalesced_state


# -- stitched grids ---------------------------------------------------------


def _assign(cost) -> list[tuple[int, int]]:
    """Minimum-cost matching of the rows of ``cost`` to its columns, as
    (row, column) pairs sorted by row; a tall matrix matches its columns.

    This is the shortest-augmenting-path method of scipy's
    ``linear_sum_assignment`` (Crouse, IEEE Trans. Aerosp. Electron. Syst.
    52, 1679 (2016)) with its floating-point operations in its order.  A
    brute force over the at most 24 maps finds the same optimum, but not
    the same one of two maps whose totals differ only by rounding, as for
    a conjugate pair of states; this way branch ids and loop permutations
    stay those that scipy gave.
    """
    n_rows, n_cols = len(cost), len(cost[0])
    if n_rows > n_cols:
        return sorted((r, c) for c, r in _assign(list(zip(*cost))))
    rows = cost
    u, v = [0.0] * n_rows, [0.0] * n_cols
    col4row, row4col, path = [-1] * n_rows, [-1] * n_cols, [-1] * n_cols
    for current in range(n_rows):
        # shortest augmenting path from the current row
        remaining = list(range(n_cols - 1, -1, -1))
        shortest = [math.inf] * n_cols
        seen_rows, seen_cols = [False] * n_rows, [False] * n_cols
        min_val, i, sink = 0.0, current, -1
        while sink == -1:
            seen_rows[i] = True
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + rows[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j], shortest[j] = i, r
                if shortest[j] < lowest or (shortest[j] == lowest
                                            and row4col[j] == -1):
                    index, lowest = it, shortest[j]
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update, then augment along the path
        u[current] += min_val
        for i in range(n_rows):
            if seen_rows[i] and i != current:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(n_cols):
            if seen_cols[j]:
                v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == current:
                break
    return list(enumerate(col4row))


def stitched_branches(system, params, parameter, grid, cfg) -> list[Branch]:
    """All states per grid point stitched into branches by nearest matching."""
    branches: list[Branch] = []
    open_ids: list[int] = []
    prev_states: list = []
    for value in grid:
        states = find_all_states(
            system, params.with_control(parameter, value), cfg
        )
        if not prev_states:
            for st in states:
                br = Branch(parameter=parameter, branch_id=len(branches))
                br.samples.append((value, st))
                branches.append(br)
            open_ids = list(range(len(branches)))
        else:
            cost = [[state_distance(new, old) for old in prev_states]
                    for new in states]
            assigned = {}
            if states:
                for rr, cc in _assign(cost):
                    if cost[rr][cc] < 0.5:
                        assigned[rr] = open_ids[cc]
            next_open = []
            for idx, st in enumerate(states):
                if idx in assigned:
                    bid = assigned[idx]
                else:
                    bid = len(branches)
                    branches.append(Branch(parameter=parameter, branch_id=bid))
                branches[bid].samples.append((value, st))
                next_open.append(bid)
            open_ids = next_open
        prev_states = states
    for br in branches:
        br.termination = "range_end"
    return branches


# -- export -----------------------------------------------------------------


_STATE_COLUMNS = (
    "psi1_0,psi1_1,psi1_2,psi1_3,"
    "psi2_0,psi2_1,psi2_2,psi2_3,"
    "mu_0,mu_1,mu_2,mu_3,"
    "re_mu_0,re_mu_2,im_mu_0,im_mu_2"
)


def states_table(rows, lead: tuple[str, ...] = (),
                 extra: tuple[str, ...] = ()) -> str:
    """CSV text with one line per (lead cells, state, extra cells) row.

    The columns are the ``lead`` ones, the state's components, mu in the
    (re, im) complex split, the ``extra`` ones and the two flags.
    """
    header = [*lead, _STATE_COLUMNS, *extra,
              "is_complex_state", "is_pt_symmetric"]
    lines = [",".join(header)]
    for lead_cells, st, extra_cells in rows:
        cells = list(lead_cells)
        # mu twice: its components, then re_mu_0, re_mu_2, im_mu_0, im_mu_2
        for z in (st.psi1, st.psi2, st.mu, st.mu):
            cells.extend(fmt_float(c) for c in z.as_tuple())
        cells.extend(extra_cells)
        cells.append("true" if st.is_complex_state else "false")
        cells.append("true" if st.is_pt_symmetric else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def branches_to_csv(branches: list[Branch]) -> str:
    """Branch samples in the interchange schema (one row per sample)."""
    return states_table(
        (((fmt_float(value), str(br.branch_id)), st, ())
         for br in branches for value, st in br.samples),
        lead=("param", "branch_id"),
    )
