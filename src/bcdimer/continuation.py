"""Branches, and the bifurcation points between them.

The dimer's bifurcation points come from algebra, not from sweeps:
:meth:`~bcdimer.model.DimerSystem.bifurcation_set` finds them as the roots
of one discriminant, and :func:`find_tangent`, :func:`locate_pitchfork_gamma`,
:func:`find_merger`, :func:`locate_fold` and :func:`detect_bifurcations` pick
from its answer; the last two only name the branches that meet at each point.
Sweeps only draw branches.  :func:`stitched_branches` stitches all states on
a grid into branches, and so carries every branch through its fold onto the
bicomplex partner that continues it.  It matches each point's states to the
previous point's by the least total distance over all maps.  Totals equal
up to rounding, or up to a state's Newton error on an exact EP, are a tie,
as at a pitchfork, where the symmetric state is equidistant from the mirror
pair born there; a tie goes to the first map in the states' sorted order,
so neither decides which state keeps a branch id.  :func:`sweep_branch`
is the stitched branch through one seed state.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

from .model import BifurcationPoint, StationaryState, control_rows
from .solver import (
    DEDUP_TOL,
    NoConvergence,
    SolveConfig,
    _Lazy,
    _distances,
    _find_rows,
    _states,
    newton_solve,
    state_distance,
)

# after the package's own modules, which import numpy first from model: an
# earlier numpy import raises the peak memory of `import bcdimer` by 0.5 MB
import numpy as np

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

_MAX_STEPS = 100000  # the most points of a sweep_branch grid
# two choices (matchings, or sets of meeting branches) whose total costs
# differ by less than this times max(1, least total) are a tie.  Rounding
# moves a total of a few state distances by a few ulps, and a state on an
# exact EP carries a Newton error of ~sqrt(eps) * scale (1.9e-9 in the j
# part of the tangent state at g = 0.01, gamma = 1), which splits a tie by
# a few times that; neither may decide one.  Distinct continuations on nine
# reference scans (`sweep`, `bifurcations`) differ by 9e-5 or more
_TIE_TOL = 1e-7


class NoMerger(RuntimeError):
    """The scanned interval contains no pitchfork-disappearance crossing."""


class _Samples(_Lazy):
    """A stitched branch's (value, state) samples from the ``values`` and
    the solved ``rows`` of their states, each state built when read."""

    def __init__(self, values: list[float], rows):
        super().__init__(len(values), lambda k: (
            values[k], _states([rows[k].tolist()])[0]))
        self.values, self.rows = values, rows


@dataclass
class Branch:
    """One stitched solution branch over a real control parameter: its
    (value, state) samples, each state built when it is read."""

    parameter: str
    samples: _Samples
    branch_id: int = 0

    @property
    def values(self) -> list[float]:
        """The control value of each sample, read without its state."""
        return self.samples.values

    @property
    def start(self) -> float:
        return self.values[0]

    @property
    def end(self) -> float:
        return self.values[-1]


def sweep_branch(
    system,
    seed_state: StationaryState,
    params,
    parameter: str,
    stop: float,
    initial_step: float,
    cfg: SolveConfig | None = None,
) -> Branch:
    """The branch of :func:`stitched_branches` through the seed state.

    The grid runs from the range start, the control's value in ``params``,
    in steps of ``initial_step`` to ``stop`` itself, which takes the place
    of a step point within 1e-9 steps of it.  The branch is the one whose
    state at the start lies within DEDUP_TOL of the seed's, solved there by
    Newton; it runs through a fold onto the bicomplex partner that continues
    it.  Raises :class:`NoConvergence` when there is none, and ValueError for
    a step that is not positive and finite or a grid over 100000 points.
    """
    if not (initial_step > 0 and math.isfinite(initial_step)):
        raise ValueError(f"sweep step must be positive and finite, "
                         f"got {initial_step!r}")
    start = params.control(parameter).z0
    steps = abs(stop - start) / initial_step - 1e-9
    if not steps <= _MAX_STEPS - 1:
        raise ValueError(f"sweep from {start!r} to {stop!r} in steps of "
                         f"{initial_step!r} has more than {_MAX_STEPS} points")
    sign = 1.0 if stop >= start else -1.0
    grid = [start, *(start + sign * k * initial_step
                     for k in range(1, math.ceil(steps)))]
    if stop != start:
        grid.append(stop)
    cfg = cfg or SolveConfig()
    seed = newton_solve(system, params.with_control(parameter, start),
                        seed_state, cfg)
    for branch in stitched_branches(system, params, parameter, grid, cfg):
        if (branch.start == start
                and state_distance(branch.samples[0][1], seed) <= DEDUP_TOL):
            return branch
    raise NoConvergence(f"no branch starts at the seed, {parameter}={start!r}")


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
    within ``step`` of the location lie closest to the coalesced state, in
    total; of equally close sets (see :func:`_assign`) the one of lowest
    ids: :func:`_assign_many` matches k equal rows of those distances to
    the branches in id order, and its first map in the tie bound is sorted.
    The continuing one is the first of those whose sample nearest the
    location is PT-symmetric.  Branch ids are their positions in
    ``branches``.
    """
    nearest = {}
    for br in branches:
        dists = [state_distance(br.samples[k][1], point.coalesced_state)
                 for k, value in enumerate(br.values)
                 if abs(value - point.location) <= step]
        if dists:
            nearest[br.branch_id] = min(dists)
    ids = sorted(nearest)
    k = min(3 if point.kind == "pitchfork" else 2, len(ids))
    cost = np.tile([nearest[bid] for bid in ids], (1, k, 1))
    ids = [ids[c] for c in _assign_many(cost)[0].tolist()] if k else []
    if point.kind != "pitchfork":
        return ids, None
    for bid in ids:
        values = branches[bid].values
        k = values.index(min(values, key=lambda v: abs(v - point.location)))
        if branches[bid].samples[k][1].is_pt_symmetric:
            return ids, bid
    return ids, None


def detect_bifurcations(
    branches: list[Branch],
    system,
    params,
    cfg: SolveConfig | None = None,
) -> list[BifurcationPoint]:
    """The bifurcation points among stitched branches, sorted by location.

    The points are those of the system's bifurcation set over the span of
    the branches, widened by their widest sample step so that a fold just
    past a branch's last sample lies inside.  Branch ids are set to the
    list positions; ``branch_ids`` and ``continuing_branch_id`` come from
    :func:`meeting_branches` with that step.
    """
    for i, br in enumerate(branches):
        br.branch_id = i
    values = [value for br in branches for value in br.values]
    if not values:
        return []
    step = max((abs(b - a) for br in branches
                for a, b in zip(br.values, br.values[1:])), default=0.0)
    points = system.bifurcation_set(params, branches[0].parameter,
                                    min(values) - step, max(values) + step,
                                    cfg)
    out = []
    for pt in points:
        ids, continuing = meeting_branches(pt, branches, step)
        out.append(replace(pt, branch_ids=tuple(ids),
                           continuing_branch_id=continuing))
    return out


# -- the bifurcation set ----------------------------------------------------


def locate_pitchfork_gamma(system, params, v: float,
                           cfg: SolveConfig | None = None):
    """The gamma in (0, v] where the PT-broken pair is born, if any.

    Returns (gamma_P, coalesced_state), the pitchfork of the system's
    bifurcation set, or None when there is none in range.  Only the
    returned state is solved (see :class:`BifurcationPoint`): a Newton
    failure there is raised, and one at any other point of the set is not
    met.
    """
    for pt in system.bifurcation_set(params, "gamma", 0.0, v, cfg):
        if pt.kind == "pitchfork" and pt.location > 0:
            return pt.location, pt.coalesced_state
    return None


def find_merger(system, params, g_window: tuple[float, float] | None = None,
                cfg: SolveConfig | None = None):
    """Critical nonlinearity where the pitchfork reaches the given gamma.

    The pitchfork of the bifurcation set in g over the window, (-2.5v,
    -0.1v) by default, at the gamma of ``params`` (at gamma = 0 the
    pitchfork leaves the gamma axis: the merger, |g| = 2v).  Returns
    (g_star, gamma_star) with gamma_star the real part of that gamma; the
    pitchfork is located at the whole gamma, j part included.  Raises
    :class:`NoMerger` when the window holds no such point.  No state is
    solved (see :class:`BifurcationPoint`), so a point whose state Newton
    cannot reach does not stop the search.
    """
    v = params.v
    lo, hi = sorted(g_window or (-2.5 * v, -0.1 * v))
    for pt in system.bifurcation_set(params, "g", lo, hi, cfg):
        if pt.kind == "pitchfork":
            return pt.location, params.gamma.z0
    raise NoMerger(f"no pitchfork over g in [{lo}, {hi}]")


def find_tangent(
    system, params, parameter: str = "gamma",
    cfg: SolveConfig | None = None,
):
    """Locate the fold where the two equal-population branches coalesce.

    The tangent of the system's bifurcation set in (-2v, 2v) nearest v.
    Returns (location, coalesced_state).  Only that tangent's state is
    solved (see :class:`BifurcationPoint`): a Newton failure there is
    raised, and one at any other point of the set is not met.
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


@functools.cache
def _maps(n_rows: int, n_cols: int) -> np.ndarray:
    """Every injective map of n_rows rows into n_cols columns, as the
    column of each row, in lexicographic order: a (maps, n_rows) array."""
    return np.array(list(itertools.permutations(range(n_cols), n_rows)))


def _assign_many(cost: np.ndarray) -> np.ndarray:
    """:func:`_assign` on each matrix of the (m, n_rows, n_cols) stack
    ``cost``: the column of each row, an (m, n_rows) array, -1 for a row of
    a tall matrix left out.  A map's total adds its costs row by row, as
    ``sum`` does, so every pick is the one-matrix pick."""
    m, n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        out = np.full((m, n_rows), -1)
        np.put_along_axis(out, _assign_many(cost.transpose(0, 2, 1)),
                          np.arange(n_cols)[None], 1)
        return out
    maps = _maps(n_rows, n_cols)
    totals = cost[:, 0, maps[:, 0]]
    for r in range(1, n_rows):
        totals = totals + cost[:, r, maps[:, r]]
    least = totals.min(1)
    bound = least + _TIE_TOL * np.maximum(1.0, least)
    return maps[(totals <= bound[:, None]).argmax(1)]


def _assign(cost) -> list[tuple[int, int]]:
    """Minimum-cost matching of the rows of ``cost`` to its columns, as
    (row, column) pairs sorted by row; a tall matrix matches its columns.

    Every injective map is tried (at most 24 for the dimer's four states).
    Totals within a relative 1e-7 of the least are a tie, which goes to the
    first map in lexicographic order: the first row takes the first column
    it can.  In :func:`stitched_branches` rows and columns are states in the
    order of ``solver._sort_key``, as :func:`find_all_states` returns them,
    so a tie, such as a pitchfork's symmetric state equidistant from the
    mirror pair born there, is decided by the states, not by the last bits
    of the costs.  The one-matrix call of :func:`_assign_many`.
    """
    cols = _assign_many(np.array(cost, dtype=float)[None])[0].tolist()
    return [(r, c) for r, c in enumerate(cols) if c >= 0]


def stitched_branches(system, params, parameter, grid, cfg) -> list[Branch]:
    """All states per grid point stitched into branches by least-distance
    matching (see :func:`_assign`).

    The grid's points are control rows, with no DimerParams a point, and
    its states the solved rows of one :func:`~bcdimer.solver._find_rows`
    call, which solves every seed of
    every point at once; they equal :func:`find_all_states`' point by
    point.  Each point's cost matrix is one max-norm over the rows' 12
    floats (:func:`~bcdimer.solver._distances`), state_distance's bits, and
    the matrices of one shape are matched in one :func:`_assign_many` call.
    A state opens a branch where its match is 0.5 or more away, and after
    a point with no states.  A sample's state is built when it is read.
    """
    controls = np.repeat(control_rows([params]), len(grid), axis=0)
    col = 1 + 4 * ("g", "gamma", "s").index(parameter)
    controls[:, col], controls[:, col + 1:col + 4] = grid, 0.0
    rows, counts = _find_rows(system, controls, cfg)
    first = np.cumsum([0, *counts])
    # the previous point's state matched to each state, -1 for none
    match = np.full(len(rows), -1)
    shapes: dict = {}
    for k in range(1, len(counts)):
        if counts[k] and counts[k - 1]:
            shapes.setdefault((counts[k], counts[k - 1]), []).append(k)
    for (n_rows, n_cols), ks in shapes.items():
        now = first[ks][:, None] + np.arange(n_rows)
        before = first[np.array(ks) - 1][:, None] + np.arange(n_cols)
        cost = _distances(rows[now, :12], rows[before][:, None, :, :12])
        cols = _assign_many(cost)
        near = np.take_along_axis(cost, np.maximum(cols, 0)[..., None], 2)
        match[now] = np.where((cols >= 0) & (near[..., 0] < 0.5), cols, -1)
    match = match.tolist()
    # the branch of each row: its match's, or a new one
    branch_of, ids, count = [], [], 0
    for lo, n in zip(first.tolist(), counts):
        ids = [ids[col] if col >= 0 else (count := count + 1) - 1
               for col in match[lo:lo + n]]
        branch_of += ids
    values = [value for value, n in zip(grid, counts) for _ in range(n)]
    branch_of = np.array(branch_of, dtype=int)
    return [Branch(parameter, _Samples([values[k] for k in at], rows[at]),
                   branch_id=bid)
            for bid, at in enumerate(np.flatnonzero(branch_of == b)
                                     for b in range(count))]


# -- export -----------------------------------------------------------------


_STATE_COLUMNS = (
    "psi1_0,psi1_1,psi1_2,psi1_3,"
    "psi2_0,psi2_1,psi2_2,psi2_3,"
    "mu_0,mu_1,mu_2,mu_3,"
    "re_mu_0,re_mu_2,im_mu_0,im_mu_2"
)


# a state row's 12 floats, then mu again as re_mu_0, re_mu_2, im_mu_0, im_mu_2
_STATE_CELLS = np.r_[0:12, 8:12]


def _reprs(values) -> np.ndarray:
    """The repr of each float of ``values``, an object array of its shape.
    Each distinct 64-bit pattern is formatted once: keyed by bits, not by
    value, -0.0 and 0.0 stay apart, and a NaN finds its own text."""
    values = np.asarray(values, dtype=float)
    bits, inverse = np.unique(values.ravel().view(np.int64),
                              return_inverse=True)
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return text[inverse.reshape(values.shape)]


def states_table(rows, lead: tuple[str, ...] = (),
                 extra: tuple[str, ...] = ()) -> str:
    """CSV text with one line per (lead cells, state, extra cells) row.

    The columns are the ``lead`` ones, the state's components, mu in the
    (re, im) complex split, the ``extra`` ones and the two flags.  A state
    is a StationaryState or its 15 values, as in a solved row.  Each cell
    of a state is its float's repr (:func:`~bcdimer.bicomplex.fmt_float`),
    taken once per distinct 64-bit pattern of the table (:func:`_reprs`).
    """
    header = [*lead, _STATE_COLUMNS, *extra,
              "is_complex_state", "is_pt_symmetric"]
    rows = list(rows)
    lead_cells, states, extra_cells = zip(*rows) if rows else ((), (), ())
    values = np.array([
        (*st.psi1.as_tuple(), *st.psi2.as_tuple(), *st.mu.as_tuple(),
         st.residual_norm, st.is_complex_state, st.is_pt_symmetric)
        if isinstance(st, StationaryState) else st for st in states],
        dtype=float).reshape(-1, 15)
    cells = _reprs(values[:, :12])[:, _STATE_CELLS].tolist()
    flags = np.where(values[:, 13:] != 0, "true", "false").tolist()
    return "\n".join([",".join(header)] + [
        ",".join([*a, *c, *b, *f]) for a, c, b, f in zip(
            lead_cells, cells, extra_cells, flags)]) + "\n"


def branches_to_csv(branches: list[Branch]) -> str:
    """Branch samples in the interchange schema (one row per sample),
    written from their rows, building no state.  Each distinct control
    value is formatted once."""
    values = [value for br in branches for value in br.values]
    params = iter(_reprs(values).tolist())
    return states_table(
        [((next(params), str(br.branch_id)), st, ())
         for br in branches for st in br.samples.rows],
        lead=("param", "branch_id"))
