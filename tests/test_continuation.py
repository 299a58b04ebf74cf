import dataclasses
import functools
import itertools
import json
import math
import operator

import numpy as np
import pytest

from bcdimer import cli, continuation, model, solver
from bcdimer.bicomplex import Bicomplex
from bcdimer.cli import run
from bcdimer.model import (
    BifurcationPoint,
    DimerParams,
    DimerSystem,
    LinearTwoMode,
    StationaryState,
    control_rows,
    pt_reflected,
    residual,
)
from bcdimer.solver import (
    DEDUP_TOL,
    NoConvergence,
    SolveConfig,
    canonical_gauge,
    find_all_states,
    find_states_along,
    state_distance,
)
from bcdimer.continuation import (
    NoMerger,
    branches_to_csv,
    detect_bifurcations,
    find_merger,
    find_tangent,
    locate_fold,
    locate_pitchfork_gamma,
    meeting_branches,
    stitched_branches,
    sweep_branch,
)

SYSTEM = DimerSystem()
CFG = SolveConfig(jacobian="analytic")


def pitchfork_gamma_closed_form(v: float, g: float) -> float:
    # existence boundary of the PT-broken pair: 4*gamma^2 + g^2 = 4*v^2
    return math.sqrt(v * v - g * g / 4.0)


def symmetric_states(params):
    return [
        s
        for s in find_all_states(SYSTEM, params, CFG)
        if s.is_complex_state and s.is_pt_symmetric
    ]


def point_of(row) -> DimerParams:
    """The DimerParams of a row of control_rows."""
    v, *c = row
    return DimerParams(v, *(Bicomplex(*c[k:k + 4]) for k in (0, 4, 8)))


def solved_rows(states) -> np.ndarray:
    """The 15 values of each state as a solved row holds them: its 12
    floats, its residual and its two flags."""
    return np.array([(*state_floats(st), st.residual_norm,
                      st.is_complex_state, st.is_pt_symmetric)
                     for st in states], dtype=float).reshape(-1, 15)


def state_floats(st) -> tuple:
    return (*st.psi1.as_tuple(), *st.psi2.as_tuple(), *st.mu.as_tuple())


# the two sources of branches: sweep_branch from single states, and
# stitched_branches on the grid of `bcdimer bifurcations`
SOURCES = ["swept", "stitched"]
CLI_RANGE = (0.05, 1.4, 0.01)  # the CLI's default --gamma-range


def stitched_scenario(g: float, s: float = 0.0, rng=CLI_RANGE):
    """Branches stitched on a gamma grid at v = 1, the CLI's by default,
    and the bifurcation points with the branches that meet there, as
    ``bcdimer bifurcations`` gets them."""
    p = DimerParams(v=1.0, g=g, s=s)
    lo, hi, step = rng
    branches = stitched_branches(SYSTEM, p, "gamma", cli._grid(rng), CFG)
    points = []
    for pt in SYSTEM.bifurcation_set(p, "gamma", lo, hi, CFG):
        ids, continuing = meeting_branches(pt, branches, step)
        points.append(dataclasses.replace(pt, branch_ids=tuple(ids),
                                          continuing_branch_id=continuing))
    return branches, points


def upper_symmetric_samples(source: str, g: float, hi: float, step: float):
    """The samples up to ``hi`` of the upper PT-symmetric branch at v = 1:
    swept from gamma = 0 in steps of ``step``, or stitched on the CLI's
    grid.  Either reaches ``hi``."""
    if source == "swept":
        p = DimerParams(v=1.0, g=g, gamma=0.0)
        upper = max(symmetric_states(p), key=lambda s: s.mu.z0)
        br = sweep_branch(SYSTEM, upper, p, "gamma", hi, step, CFG)
    else:
        grid = cli._grid(CLI_RANGE)
        p = DimerParams(v=1.0, g=g)
        symmetric = [b for b in stitched_branches(SYSTEM, p, "gamma", grid,
                                                  CFG)
                     if b.start == grid[0] and b.samples[0][1].is_complex_state
                     and b.samples[0][1].is_pt_symmetric]
        br = max(symmetric, key=lambda b: b.samples[0][1].mu.z0)
    samples = [(gam, st) for gam, st in br.samples if gam <= hi + 1e-9]
    assert abs(samples[-1][0] - hi) < 1e-9
    return samples


class TestSweep:
    @pytest.mark.parametrize("source", SOURCES)
    def test_tracks_closed_form(self, source):
        for gam, st in upper_symmetric_samples(source, 0.0, 0.99, 0.01):
            assert abs(st.mu.z0 - math.sqrt(1 - gam * gam)) < 1e-9

    # (g, gamma at the start, stop, step, grid): ascending to a stop on
    # the step grid, and to stops off it in both directions
    GRIDS = [
        (-1.0, 0.0, 1.4, 0.01, [0.0, *(k * 0.01 for k in range(1, 140)),
                                1.4]),
        (1.2, 0.95, 1.3125, 0.05, [0.95, *(0.95 + k * 0.05
                                           for k in range(1, 8)), 1.3125]),
        (-1.0, 0.95, 0.053, 0.01, [0.95, *(0.95 - k * 0.01
                                           for k in range(1, 90)), 0.053]),
    ]

    @pytest.mark.parametrize("g,start,stop,step,grid", GRIDS)
    def test_is_the_stitched_branch_through_the_seed(self, g, start, stop,
                                                     step, grid):
        p = DimerParams(v=1.0, g=g, gamma=start)
        stitched = stitched_branches(SYSTEM, p, "gamma", grid, CFG)
        seeds = find_all_states(SYSTEM, p, CFG)
        assert len(seeds) == 4
        ends = []
        for seed in seeds:
            br = sweep_branch(SYSTEM, seed, p, "gamma", stop, step, CFG)
            (want,) = [b for b in stitched if b.start == start
                       and bits(0.0, b.samples[0][1]) == bits(0.0, seed)]
            assert br.values == want.values
            assert br.samples.rows.tobytes() == want.samples.rows.tobytes()
            ends.append(br.end)
        assert stop in ends

    @pytest.mark.parametrize("g", [0.0, -1.0])
    def test_runs_through_the_fold(self, g):
        # from the upper symmetric state the branch ends at the last grid
        # point before the fold at gamma = 1; from the lower one it runs
        # through the fold onto the bicomplex partner, to the range end
        p = DimerParams(v=1.0, g=g, gamma=0.0)
        lower, upper = sorted(symmetric_states(p), key=lambda s: s.mu.z0)
        upper_branch = sweep_branch(SYSTEM, upper, p, "gamma", 1.4, 0.01, CFG)
        assert upper_branch.end == 0.99
        lower_branch = sweep_branch(SYSTEM, lower, p, "gamma", 1.4, 0.01, CFG)
        assert lower_branch.end == 1.4
        gam, st = lower_branch.samples[-1]
        assert not st.is_complex_state
        assert abs(st.mu.z0 - (-g / 2)) < 1e-9
        assert abs(abs(st.mu.z1) - math.sqrt(gam * gam - 1.0)) < 1e-9

    def test_a_seed_off_the_start_states_raises(self, monkeypatch):
        # the seed's Newton state moved by DEDUP_TOL / 2 is the upper
        # branch's first state; moved by 2 DEDUP_TOL it is none
        p = DimerParams(v=1.0, g=-1.0, gamma=0.0)
        upper = max(symmetric_states(p), key=lambda s: s.mu.z0)
        solve = continuation.newton_solve
        for shift, found in ((0.5, True), (2.0, False)):
            def shifted(*args, shift=shift):
                st = solve(*args)
                return dataclasses.replace(st, mu=st.mu + shift * DEDUP_TOL)

            monkeypatch.setattr(continuation, "newton_solve", shifted)
            if found:
                br = sweep_branch(SYSTEM, upper, p, "gamma", 0.2, 0.05, CFG)
                assert bits(0.0, br.samples[0][1]) == bits(0.0, upper)
            else:
                with pytest.raises(NoConvergence):
                    sweep_branch(SYSTEM, upper, p, "gamma", 0.2, 0.05, CFG)

    @pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf])
    def test_a_step_not_positive_and_finite_raises(self, step):
        p = DimerParams(v=1.0, g=-1.0, gamma=0.0)
        upper = max(symmetric_states(p), key=lambda s: s.mu.z0)
        with pytest.raises(ValueError, match="positive and finite"):
            sweep_branch(SYSTEM, upper, p, "gamma", 1.4, step, CFG)

    def test_at_most_100000_points(self, monkeypatch):
        grids = []

        def no_solving(system, params, parameter, grid, cfg):
            grids.append(grid)
            return []

        monkeypatch.setattr(continuation, "stitched_branches", no_solving)
        p = DimerParams(v=1.0, g=-1.0, gamma=0.0)
        upper = max(symmetric_states(p), key=lambda s: s.mu.z0)
        with pytest.raises(NoConvergence):
            sweep_branch(SYSTEM, upper, p, "gamma", 99999.0, 1.0, CFG)
        (grid,) = grids
        assert grid == [float(k) for k in range(100000)]
        for stop in (99999.5, 1e300, math.inf, math.nan):
            with pytest.raises(ValueError, match="more than 100000 points"):
                sweep_branch(SYSTEM, upper, p, "gamma", stop, 1.0, CFG)
        assert len(grids) == 1

    def test_continues_through_fold_onto_partner(self):
        # stitched, the lower symmetric branch runs on past the fold onto a
        # bicomplex partner and the upper one ends there.  The grid point
        # gamma = 1 lies on the fold, where the coalesced state is
        # equidistant from both; the tie goes to the branch whose state
        # sorts first
        g = -1.0
        p = DimerParams(v=1.0, g=g, gamma=0.0)
        grid = [k * 0.01 for k in range(141)]
        branches = stitched_branches(SYSTEM, p, "gamma", grid, CFG)
        symmetric = [b for b in branches
                     if b.start == 0.0 and b.samples[0][1].is_pt_symmetric]
        assert len(symmetric) == 2
        assert all(b.samples[0][1].is_complex_state for b in symmetric)
        lower, upper = sorted(symmetric, key=lambda b: b.samples[0][1].mu.z0)
        assert upper.end == grid[99]
        assert lower.end == grid[-1]
        gam, st = lower.samples[-1]
        w = math.sqrt(gam * gam - 1.0)
        assert not st.is_complex_state
        assert abs(st.mu.z0 - (-g / 2)) < 1e-9
        assert abs(abs(st.mu.z1) - w) < 1e-9

    def test_bicomplex_branch_crosses_tangent_smoothly(self):
        # stitched downward across the fold from beyond it: one partner
        # ends at the fold, the other runs on to the range end
        g, gam0 = -1.0, 1.3
        p = DimerParams(v=1.0, g=g, gamma=gam0)
        grid = [gam0 - k * 0.01 for k in range(111)]
        branches = stitched_branches(SYSTEM, p, "gamma", grid, CFG)
        partners = [b for b in branches
                    if not b.samples[0][1].is_complex_state]
        assert len(partners) == 2
        crossing = [b for b in partners if b.end <= 0.2 + 1e-9]
        assert len(crossing) == 1
        # below the fold the branch rides one of the symmetric states
        gam, st = crossing[0].samples[-1]
        assert st.is_complex_state
        assert abs(abs(st.mu.z0 - (-g / 2)) - math.sqrt(1 - gam * gam)) < 1e-8

    @pytest.mark.parametrize("source", SOURCES)
    def test_every_sample_reverifies(self, source):
        p = DimerParams(v=1.0, g=-1.0, gamma=0.0)
        for gam, st in upper_symmetric_samples(source, -1.0, 0.9, 0.02):
            r1, r2 = residual(st.psi1, st.psi2, st.mu,
                              p.with_control("gamma", gam))
            assert max(r1.max_abs(), r2.max_abs()) < CFG.residual_tol


class TestDetection:
    def sweep_scenario(self, g: float, s: float = 0.0):
        """Branches for one nonlinearity: symmetric pair swept up, broken
        pair (when present) swept down from near the tangent."""
        p95 = DimerParams(v=1.0, g=g, gamma=0.95, s=s)
        states = [s for s in find_all_states(SYSTEM, p95, CFG) if s.is_complex_state]
        branches = []
        for st in states:
            branches.append(
                sweep_branch(SYSTEM, st, p95, "gamma", 1.4, 0.01, CFG)
            )
            branches.append(
                sweep_branch(SYSTEM, st, p95, "gamma", 0.05, 0.01, CFG)
            )
        return branches

    def scenario(self, source: str, g: float, s: float = 0.0):
        """Branches and the bifurcation points detected on them."""
        if source == "stitched":
            return stitched_scenario(g, s)
        branches = self.sweep_scenario(g, s)
        return branches, detect_bifurcations(
            branches, SYSTEM, DimerParams(v=1.0, g=g, s=s), CFG)

    @pytest.mark.parametrize("source", SOURCES)
    def test_linear_has_one_tangent_no_pitchfork(self, source):
        p = DimerParams(v=1.0, g=0.0, gamma=0.0)
        if source == "stitched":
            _, points = stitched_scenario(0.0)
        else:
            branches = [
                sweep_branch(SYSTEM, st, p, "gamma", 1.4, 0.01, CFG)
                for st in symmetric_states(p)
            ]
            points = detect_bifurcations(branches, SYSTEM, p, CFG)
        kinds = [pt.kind for pt in points]
        assert kinds == ["tangent"]
        assert type(points[0].location) is float
        assert abs(points[0].location - 1.0) < 1e-10

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("g,side", [(-1.0, "upper"), (1.0, "lower")])
    def test_pitchfork_branch_side(self, source, g, side):
        branches, points = self.scenario(source, g)
        tangents = [pt for pt in points if pt.kind == "tangent"]
        pitchforks = [pt for pt in points if pt.kind == "pitchfork"]
        assert len(tangents) == 1
        assert abs(tangents[0].location - 1.0) < 1e-10
        assert len(pitchforks) == 1
        pf = pitchforks[0]
        assert all(type(pt.location) is float for pt in points)
        assert abs(pf.location - pitchfork_gamma_closed_form(1.0, g)) < 1e-10
        assert pf.continuing_branch_id is not None
        # which symmetric branch carries the pitchfork
        continuing = next(
            br for br in branches if br.branch_id == pf.continuing_branch_id
        )
        at_loc = min(continuing.samples, key=lambda sv: abs(sv[0] - pf.location))
        other_mu = [
            min(br.samples, key=lambda sv: abs(sv[0] - pf.location))[1].mu.z0
            for br in branches
            if br.branch_id != pf.continuing_branch_id
            and br.samples[0][1].is_pt_symmetric
        ]
        if side == "upper":
            assert all(at_loc[1].mu.z0 > mu for mu in other_mu)
        else:
            assert all(at_loc[1].mu.z0 < mu for mu in other_mu)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("g", [1.2, -1.2])
    def test_no_spurious_pitchfork_on_swept_branches(self, source, g):
        _, points = self.scenario(source, g)
        assert [pt.kind for pt in points] == ["pitchfork", "tangent"]
        assert abs(points[0].location - 0.8) < 1e-10
        assert abs(points[1].location - 1.0) < 1e-10

    @pytest.mark.parametrize("source", SOURCES)
    def test_pitchfork_near_the_tangent_on_swept_branches(self, source):
        # the broken pair is born at gamma_P = sqrt(0.96), above the 0.95
        # seeds, so no swept branch follows it; a stitched one does
        _, points = self.scenario(source, -0.4)
        assert [pt.kind for pt in points] == ["pitchfork", "tangent"]
        assert abs(points[0].location - math.sqrt(0.96)) < 1e-10

    @pytest.mark.parametrize("source", SOURCES)
    def test_both_folds_off_symmetry_on_swept_branches(self, source):
        _, points = self.scenario(source, 1.2, s=0.05)
        assert [pt.kind for pt in points] == ["tangent", "tangent"]
        assert [round(pt.location, 9) for pt in points] == [0.951990632,
                                                           1.003563497]

    @pytest.mark.parametrize("g", ["-1", "1.6"])
    def test_matches_the_cli_on_its_grid(self, tmp_path, capsys, g):
        assert run(["bifurcations", "--g", g, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        expected = json.loads((tmp_path / "bifurcations.json").read_text())
        p = DimerParams(v=1.0, g=float(g))
        cli_cfg = SolveConfig(residual_tol=1e-11, jacobian="analytic")
        # the CLI's default --gamma-range 0.05:1.4:0.01
        grid = [0.05 + k * 0.01 for k in range(136)]
        branches = stitched_branches(SYSTEM, p, "gamma", grid, cli_cfg)
        points = detect_bifurcations(branches, SYSTEM, p, cli_cfg)
        assert len(points) == len(expected) > 0
        for pt, want in zip(points, expected):
            assert pt.kind == want["kind"]
            assert list(pt.branch_ids) == want["branch_ids"]
            assert pt.continuing_branch_id == want["continuing_branch_id"]
            assert abs(pt.location - want["location"]) < 1e-12

    def test_broken_partners_are_pt_reflections(self):
        g = -1.0
        p = DimerParams(v=1.0, g=g, gamma=0.9)
        grid = [0.9 + k * 0.01 for k in range(21)]
        branches = stitched_branches(SYSTEM, p, "gamma", grid, CFG)
        broken = [b for b in branches if b.samples[0][1].is_complex_state
                  and not b.samples[0][1].is_pt_symmetric]
        assert len(broken) == 2
        a, b = broken
        assert [value for value, _ in a.samples] == grid
        assert [value for value, _ in b.samples] == grid
        for (_, sa), (_, sb) in zip(a.samples, b.samples):
            psi1, psi2, mu = pt_reflected(sa.psi1, sa.psi2, sa.mu)
            (psi1, psi2), mu = canonical_gauge((psi1, psi2), mu)
            reflected = dataclasses.replace(sa, psi1=psi1, psi2=psi2, mu=mu)
            assert state_distance(reflected, sb) < 1e-12


class TestBranchIdentity:
    """Branch ids are decided by the states, not by their last bits."""

    # (controls, parameter, lo, step, grid points, bifurcation points?): the
    # two `sweep` commands of test_sweep_ids and four `bifurcations` scans
    # (default gamma range)
    GRIDS = {
        "sweep --g -1": ({"g": -1.0}, "gamma", 0.0, 0.01, 141, False),
        "sweep --gamma 0.5": ({"gamma": 0.5}, "g", -2.5, 0.05, 101, False),
        **{f"bifurcations --g {g}" + (f" --s {s}" if s else ""):
           ({"g": g, "s": s}, "gamma", 0.05, 0.01, 136, True)
           for g, s in [(0.01, 0.0), (-0.4, 0.0), (1.2, 0.0), (-1.5, 0.05)]},
    }
    # the CLI's solver settings
    CLI_CFG = SolveConfig(residual_tol=1e-11, jacobian="analytic")
    # every grid's solved rows, found once per grid point
    _solved: dict = {}

    @staticmethod
    def _nudged(rows, step):
        """The solved rows of one point's states with the k-th float c of
        psi1, psi2 and mu of the n-th state moved by (-1)^(n + k) step(c)."""
        out = rows.tolist()
        for n, row in enumerate(out):
            row[:12] = [c + (-1) ** (k % 4) * (-1) ** n * step(c)
                        for k, c in enumerate(row[:12])]
        return np.array(out).reshape(-1, 15)

    def ids(self, monkeypatch, grid, step=lambda c: 0.0):
        """The branch id of each state, keyed by its grid value and its
        place in its point's list, and each bifurcation point's branch
        ids and continuing branch, as `bcdimer sweep` and `bcdimer
        bifurcations` find them, with the states nudged by ``step``."""
        controls, parameter, lo, step_size, n, with_points = self.GRIDS[grid]
        params = DimerParams(v=1.0, **controls)
        values = [lo + k * step_size for k in range(n)]
        find_rows, place = solver._find_rows, {}

        def solved(system, points, cfg):
            keys = [tuple(row) for row in points.tolist()]
            missing = [key for key in keys if key not in self._solved]
            if missing:
                rows, counts = find_rows(system, np.array(missing), cfg)
                self._solved.update(zip(missing, np.split(
                    rows, np.cumsum(counts)[:-1].astype(int))))
            along = [self._nudged(self._solved[key], step) for key in keys]
            place.update(((value, tuple(row[:12])), k)
                         for value, rows in zip(values, along)
                         for k, row in enumerate(rows.tolist()))
            return (np.concatenate([np.empty((0, 15)), *along]),
                    [len(rows) for rows in along])

        monkeypatch.setattr(continuation, "_find_rows", solved)
        branches = stitched_branches(SYSTEM, params, parameter, values,
                                     self.CLI_CFG)
        ids = {(value, place[value, state_floats(st)]): br.branch_id
               for br in branches for value, st in br.samples}
        points = []
        if with_points:
            points = [meeting_branches(pt, branches, step_size)
                      for pt in SYSTEM.bifurcation_set(
                          params, parameter, values[0], values[-1],
                          self.CLI_CFG)]
        return ids, points

    @pytest.mark.parametrize("ulps", [-8, -3, 3, 8])
    @pytest.mark.parametrize("grid", GRIDS)
    def test_nudged_states_keep_their_ids(self, monkeypatch, grid, ulps):
        ids, points = self.ids(monkeypatch, grid)
        assert len(set(ids.values())) >= 4
        assert self.ids(monkeypatch, grid,
                        lambda c: ulps * math.ulp(c)) == (ids, points)

    # a state on an exact EP carries a Newton error of ~sqrt(eps) * scale
    # (1.9e-9 in the j part of the tangent state at g = 0.01, gamma = 1)
    @pytest.mark.parametrize("size", [-3e-9, 3e-9])
    @pytest.mark.parametrize("grid", GRIDS)
    def test_states_moved_by_their_error_at_an_ep_keep_their_ids(
            self, monkeypatch, grid, size):
        assert (self.ids(monkeypatch, grid, lambda c: size)
                == self.ids(monkeypatch, grid))

    # the grids above, bifurcations scans at g = 0 and at g = 5e-4 (where
    # every state has two seeds), the linear model, and a gamma grid of
    # 256 + 7 points, longer than one block of the batched pass
    ALONG = {
        **{grid: (SYSTEM, *spec[:5]) for grid, spec in GRIDS.items()},
        **{f"bifurcations --g {g}": (SYSTEM, {"g": g}, "gamma", 0.05, 0.01,
                                     136) for g in (0.0, 5e-4)},
        "linear": (LinearTwoMode(), {}, "gamma", 0.05, 0.01, 136),
        "long": (SYSTEM, {"g": -0.85}, "gamma", 0.0, 1.4 / 262, 263),
    }

    @pytest.mark.parametrize("grid", ALONG)
    def test_grid_pass_matches_point_by_point(self, monkeypatch, grid):
        """stitched_branches solves its grid in one batched pass; the
        states, flags and ids are those of find_all_states point by
        point."""
        system, controls, parameter, lo, step_size, n = self.ALONG[grid]
        params = DimerParams(v=1.0, **controls)
        values = [lo + k * step_size for k in range(n)]
        if grid == "long":
            assert n > solver._BLOCK
        along = stitched_branches(system, params, parameter, values,
                                  self.CLI_CFG)

        def point_by_point(system, points, cfg):
            states = [find_all_states(system, point_of(row), cfg)
                      for row in points.tolist()]
            return (solved_rows([st for at in states for st in at]),
                    list(map(len, states)))

        monkeypatch.setattr(continuation, "_find_rows", point_by_point)
        each = stitched_branches(system, params, parameter, values,
                                 self.CLI_CFG)
        assert len(along) == len(each) >= 4
        for a, b in zip(along, each):
            assert a.branch_id == b.branch_id
            assert [value for value, _ in a.samples] == [
                value for value, _ in b.samples]
            for (_, sa), (_, sb) in zip(a.samples, b.samples):
                assert state_distance(sa, sb) <= 1e-12
                assert (sa.is_complex_state, sa.is_pt_symmetric) == (
                    sb.is_complex_state, sb.is_pt_symmetric)

    @pytest.mark.parametrize("args,ends", [
        # the mirror pair born at the pitchfork (gamma = sqrt(3)/2) runs to
        # the range end on branches 1 and 2; at the tangent the symmetric
        # branch 0 runs on onto a bicomplex state, branch 3 ends and the
        # bicomplex branch 4 begins
        (["sweep", "--g", "-1", "--gamma-range", "0:1.4:0.01"],
         {0: (0.0, 1.4, 0.5, -0.979796, 0.0),
          1: (0.0, 1.4, 1.0, 0.0, 1.035916),
          2: (0.0, 1.4, 1.0, 0.0, -1.035916),
          3: (0.0, 0.99, 0.641067, 0.0, 0.0),
          4: (1.01, 1.4, 0.5, 0.979796, 0.0)}),
        # past the pitchfork at g = sqrt(3) the broken state with Im mu < 0
        # carries branch 2
        (["sweep", "--gamma", "0.5", "--g-range=-2.5:2.5:0.05"],
         {0: (-2.5, 2.5, -2.116025, 0.0, 0.0),
          1: (-2.5, 2.5, -0.383975, 0.0, 0.0),
          2: (-2.5, 2.5, -2.5, 0.0, -0.334767),
          3: (-2.5, 2.5, -2.5, 0.0, 0.334767)}),
    ], ids=["gamma", "g"])
    def test_sweep_ids(self, tmp_path, capsys, args, ends):
        # each branch id's first and last value and its last mu (the 1, j
        # and i components, to 6 decimals)
        assert run([*args, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "branches.csv").read_text().splitlines()
        header = lines[0].split(",")
        found = {}
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            bid, value = int(row["branch_id"]), float(row["param"])
            found[bid] = (found.get(bid, (value,))[0], round(value, 9),
                          *(round(float(row[f"mu_{k}"]), 6)
                            for k in range(3)))
        assert found == ends


class TestEmptyPoint:
    def test_states_after_a_point_with_none_keep_their_new_branches(
            self, monkeypatch):
        # the states at 0.23 removed: the states at 0.24 open branches 4-7
        # and run on to the range end on them; branches 0-3 end at 0.22
        grid = [0.20 + 0.01 * k for k in range(8)]
        find_rows = continuation._find_rows

        def without_0_23(system, points, cfg):
            rows, counts = find_rows(system, points, cfg)
            lo = sum(counts[:3])
            return (np.delete(rows, range(lo, lo + counts[3]), axis=0),
                    [*counts[:3], 0, *counts[4:]])

        monkeypatch.setattr(continuation, "_find_rows", without_0_23)
        branches = stitched_branches(SYSTEM, DimerParams(v=1.0, g=-0.8),
                                     "gamma", grid, CFG)
        assert [br.branch_id for br in branches] == list(range(8))
        for br in branches[:4]:
            assert [value for value, _ in br.samples] == grid[:3]
        for br in branches[4:]:
            assert [value for value, _ in br.samples] == grid[4:]


class TestScanObjects:
    """A scan carries its grid as control rows and its states as solved
    rows: it builds no DimerParams, and a StationaryState only for the
    samples that are read."""

    @pytest.mark.parametrize("g", [-1.0, 1.2, 0.01])
    def test_scan_builds_only_the_states_it_reads(self, monkeypatch, g):
        params = DimerParams(v=1.0, g=g)
        lo, hi, step = CLI_RANGE
        points = SYSTEM.bifurcation_set(params, "gamma", lo, hi, CFG)
        for pt in points:  # solved on first read: outside the count
            pt.coalesced_state
        built = {"params": 0, "states": 0}
        post_init, init = DimerParams.__post_init__, StationaryState.__init__

        def counting_post_init(self):
            built["params"] += 1
            post_init(self)

        def counting_init(self, *args):
            built["states"] += 1
            init(self, *args)

        monkeypatch.setattr(DimerParams, "__post_init__", counting_post_init)
        monkeypatch.setattr(StationaryState, "__init__", counting_init)
        branches = stitched_branches(SYSTEM, params, "gamma",
                                     cli._grid(CLI_RANGE), CFG)
        meeting = [meeting_branches(pt, branches, step) for pt in points]
        text = branches_to_csv(branches)
        monkeypatch.undo()
        # the samples meeting_branches reads: those within a step of a
        # point, and at a pitchfork the nearest one of each meeting branch
        # up to the continuing one
        read = {(br.branch_id, k) for pt in points for br in branches
                for k, value in enumerate(br.values)
                if abs(value - pt.location) <= step}
        for pt, (ids, continuing) in zip(points, meeting):
            if pt.kind == "pitchfork":
                asked = ids[:ids.index(continuing) + 1] if (
                    continuing is not None) else ids
                read |= {(bid, min(
                    range(len(branches[bid].values)),
                    key=lambda k: abs(branches[bid].values[k] - pt.location)))
                    for bid in asked}
        samples = sum(len(br.samples) for br in branches)
        assert built == {"params": 0, "states": len(read)}
        assert 0 < len(read) < samples / 10
        assert len(text.splitlines()) == 1 + samples


class TestScanCounts:
    """Where a scan of the CLI's default gamma grid holds fewer than four
    states: only where states coalesce on a grid point, by the closed
    forms, at the tangent gamma = v (three states) and at the pitchfork
    g^2 + 4 gamma^2 = 4 v^2 (two)."""

    GAMMAS = [0.05 + k * 0.01 for k in range(136)]

    @staticmethod
    def along(g):
        points = [DimerParams(v=1.0, g=g, gamma=gamma)
                  for gamma in TestScanCounts.GAMMAS]
        return points, find_states_along(SYSTEM, points, CFG)

    @pytest.mark.parametrize("g", [-0.85, 1.2, -1.2, 1.6, 2.25, -0.4])
    def test_four_states_except_where_they_coalesce(self, g):
        pitchfork = (pitchfork_gamma_closed_form(1.0, g) if abs(g) < 2.0
                     else math.nan)
        counts = {}
        for gamma, states in zip(self.GAMMAS, self.along(g)[1]):
            if len(states) != 4:
                counts[gamma] = len(states)
        want = {1.0: 3}
        want.update({gamma: 2 for gamma in self.GAMMAS
                     if abs(gamma - pitchfork) < 1e-9})
        assert counts == want
        assert (abs(g) in (1.2, 1.6)) == (len(want) == 2)

    def test_two_seeds_per_state_below_the_linear_scale(self):
        # below |g| = 1e-3 v every state has two seeds, so every point
        # deduplicates; away from the tangent four states remain
        points, along = self.along(5e-4)
        _, owner = SYSTEM.packed_candidates(control_rows(points))
        assert set(np.bincount(owner).tolist()) == {8}
        for gamma, states in zip(self.GAMMAS, along):
            assert 1 <= len(states) <= 4
            if abs(gamma - 1.0) > 0.005:
                assert len(states) == 4


def _reference_assign(cost):
    """The one-matrix match before the batched one: the first map whose
    ``sum`` of costs is within the tie bound of the least."""
    n_rows, n_cols = len(cost), len(cost[0])
    if n_rows > n_cols:
        return sorted((r, c) for c, r in _reference_assign(list(zip(*cost))))
    maps = list(itertools.permutations(range(n_cols), n_rows))
    costs = [sum(map(operator.getitem, cost, cols)) for cols in maps]
    least = min(costs)
    bound = least + continuation._TIE_TOL * max(1.0, least)
    return list(enumerate(next(ch for ch, c in zip(maps, costs)
                               if c <= bound)))


class TestAssignMany:
    SHAPES = [(1, 1), (1, 4), (4, 1), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4),
              (4, 5), (5, 4)]

    @staticmethod
    def check(stack):
        got = continuation._assign_many(stack)
        assert got.shape == stack.shape[:2]
        for cost, cols in zip(stack.tolist(), got.tolist()):
            want = _reference_assign(cost)
            assert [(r, c) for r, c in enumerate(cols) if c >= 0] == want
            assert continuation._assign(cost) == want

    @pytest.mark.parametrize("shape", SHAPES)
    def test_random(self, shape):
        rng = np.random.default_rng(sum(shape))
        self.check(rng.uniform(0.0, 2.0, (40, *shape)))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_equal_totals(self, shape, scale):
        rng = np.random.default_rng(7 * sum(shape))
        self.check(scale * rng.integers(0, 3, (60, *shape)).astype(float))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_totals_within_the_tie_bound(self, shape, scale):
        # totals a few 1e-8 apart, relative, on both sides of the bound
        rng = np.random.default_rng(11 * sum(shape))
        base = rng.integers(1, 3, (200, *shape)).astype(float)
        nudge = rng.choice([-1.0, 0.0, 1.0], base.shape) * rng.choice(
            [2e-8, 3e-8, 5e-8, 9.9e-8, 1e-7, 1.01e-7], base.shape)
        self.check(scale * base * (1.0 + nudge))


def _reference_meeting_branches(point, branches, step):
    """meeting_branches with its old tie rule: of every sorted combination
    of branch ids, the first whose ``sum`` of nearest distances is within
    the tie bound of the least."""
    nearest = {}
    for br in branches:
        dists = [state_distance(st, point.coalesced_state)
                 for value, st in br.samples
                 if abs(value - point.location) <= step]
        if dists:
            nearest[br.branch_id] = min(dists)
    k = min(3 if point.kind == "pitchfork" else 2, len(nearest))
    choices = list(itertools.combinations(sorted(nearest), k))
    costs = [sum(nearest[bid] for bid in ids) for ids in choices]
    least = min(costs)
    bound = least + continuation._TIE_TOL * max(1.0, least)
    ids = list(next(ch for ch, c in zip(choices, costs) if c <= bound))
    if point.kind != "pitchfork":
        return ids, None
    symmetric = [
        bid for bid in ids
        if min(branches[bid].samples,
               key=lambda sample: abs(sample[0] - point.location))[1]
        .is_pt_symmetric]
    return ids, (symmetric[0] if symmetric else None)


class TestMeetingBranches:
    """The branches through a point, picked by _assign_many from equal rows
    of nearest distances, are those the old combination rule picked."""

    # the `bifurcations` reference scans: (v, g, s, gamma range)
    SCANS = [*((1.0, g, 0.0, (0.05, 1.4, 0.01))
               for g in (0.0, 0.01, -0.4, -0.8, 1.2, 5e-4)),
             (1.0, -1.5, 0.05, (0.05, 1.4, 0.01)),
             (2.0, 1.2, 0.0, (0.05, 2.8, 0.02))]

    @pytest.mark.parametrize("scan", SCANS)
    def test_reference_scans(self, scan):
        v, g, s, (lo, hi, step) = scan
        params = DimerParams(v=v, g=g, s=s)
        n = int(math.floor((hi - lo) / step + 1e-9))
        branches = stitched_branches(SYSTEM, params, "gamma",
                                     [lo + k * step for k in range(n + 1)],
                                     CFG)
        points = SYSTEM.bifurcation_set(params, "gamma", lo, hi, CFG)
        assert points or g == 0.0
        for pt in points:
            assert meeting_branches(pt, branches, step) == (
                _reference_meeting_branches(pt, branches, step))

    @staticmethod
    def branches(dists, rng):
        """One branch per distance, whose sample at 0 lies that far from
        the zero state, and one more after each with no sample within 0.5
        of 0 (None: only that one); PT flags drawn at random."""
        out = []
        for d in dists:
            for value, dist in ((0.0, d), (2.0, 1e-3)):
                if value == 0.0 and d is None:
                    continue
                row = [dist, *[0.0] * 11, 0.0, 1.0, rng.integers(0, 2)]
                out.append(continuation.Branch(
                    parameter="gamma", samples=continuation._Samples(
                        [value], np.array([row], dtype=float)),
                    branch_id=len(out)))
        return out

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("kind", ["tangent", "pitchfork"])
    @pytest.mark.parametrize("n_near", [0, 1, 2, 3, 4, 5])
    def test_ties_near_the_bound(self, n_near, kind, scale):
        # distances a few 1e-8 apart, relative, on both sides of the tie
        # bound; k = min(2 or 3, n_near) branches are picked
        rng = np.random.default_rng(100 * n_near + len(kind))
        zero = Bicomplex(0.0, 0.0, 0.0, 0.0)
        point = BifurcationPoint(kind, 0.0, (), StationaryState(
            zero, zero, zero, 0.0, True, True), 0.0)
        for _ in range(60):
            base = rng.integers(1, 3, n_near).astype(float)
            nudge = rng.choice([-1.0, 0.0, 1.0], n_near) * rng.choice(
                [2e-8, 5e-8, 9.9e-8, 1e-7, 1.01e-7, 2e-7], n_near)
            dists = (scale * base * (1.0 + nudge)).tolist() or [None]
            branches = self.branches(dists, rng)
            ids, continuing = meeting_branches(point, branches, 0.5)
            assert (ids, continuing) == _reference_meeting_branches(
                point, branches, 0.5)
            assert len(ids) == min(3 if kind == "pitchfork" else 2, n_near)


def _reference_states_table(rows, lead=(), extra=()):
    """states_table as it was, with one repr per cell."""
    header = [*lead, continuation._STATE_COLUMNS, *extra,
              "is_complex_state", "is_pt_symmetric"]
    lines = [",".join(header)]
    for lead_cells, st, extra_cells in rows:
        mu = st.mu.as_tuple()
        cells = [*lead_cells, *map(repr, (*st.psi1.as_tuple(),
                                          *st.psi2.as_tuple(), *mu, *mu)),
                 *extra_cells]
        cells.append("true" if st.is_complex_state else "false")
        cells.append("true" if st.is_pt_symmetric else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestStatesTable:
    def test_scan(self):
        branches = stitched_branches(SYSTEM, DimerParams(v=1.0, g=-1.0),
                                     "gamma", [0.9 + 0.01 * k
                                               for k in range(21)], CFG)
        rows = [((repr(value), str(br.branch_id)), st, ())
                for br in branches for value, st in br.samples]
        want = _reference_states_table(rows, lead=("param", "branch_id"))
        assert continuation.states_table(rows, lead=("param", "branch_id")) \
            == want == branches_to_csv(branches)

    def test_numpy_components_and_extra_cells(self):
        rng = np.random.default_rng(3)
        rows = []
        for k in range(12):
            z = [Bicomplex(*rng.normal(size=4) * 10.0 ** rng.integers(-20, 20))
                 for _ in range(3)]
            z[k % 3] = Bicomplex(*np.array([0.0, -0.0, 1e-300, np.inf]))
            st = StationaryState(*z, float(rng.uniform()), bool(k % 2),
                                 np.bool_(k % 3 == 0))
            assert isinstance(st.mu.z0, np.float64)
            rows.append(((), st, (repr(st.residual_norm), "x")))
        extra = ("residual_norm", "tag")
        got = continuation.states_table(rows, extra=extra)
        assert got == _reference_states_table(rows, extra=extra)
        assert "np.float64" not in got

    @staticmethod
    def special_rows():
        """15-value rows holding -0.0 beside 0.0 in every column, nan and
        +-inf, the least subnormal and 17-digit values, each value repeated
        across columns and rows, and as StationaryState rows."""
        specials = np.array([0.0, -0.0, math.nan, math.inf, -math.inf,
                             5e-324, -5e-324, 0.1 + 0.2,
                             math.nextafter(1.0, 2.0), -1e-300 / 3.0,
                             2.0 ** 0.5 * 1e16, 1.0])
        rng = np.random.default_rng(11)
        rows = []
        for k in range(48):
            values = rng.choice(specials, 12).tolist()
            values[k % 12] = -0.0 if k // 12 % 2 else 0.0
            rows.append([*values, 0.5, float(k % 2), float(k % 3 == 0)])
        states = [StationaryState(Bicomplex(*r[0:4]), Bicomplex(*r[4:8]),
                                  Bicomplex(*r[8:12]), r[12], bool(r[13]),
                                  bool(r[14])) for r in rows]
        return rows, states

    def test_special_values(self):
        rows, states = self.special_rows()
        want = _reference_states_table(
            [((str(k),), st, ()) for k, st in enumerate(states)],
            lead=("row",))
        for form in (rows, states):
            assert continuation.states_table(
                [((str(k),), st, ()) for k, st in enumerate(form)],
                lead=("row",)) == want
        assert "-0.0" in want and ",0.0," in want and "5e-324" in want

    def test_a_table_keyed_by_value_fails_on_them(self, monkeypatch):
        # 0.0 == -0.0, so a table keyed by value writes one for the other
        def by_value(values):
            values = np.asarray(values, dtype=float)
            table = {}
            return np.array([table.setdefault(x, repr(x))
                             for x in values.ravel().tolist()],
                            dtype=object).reshape(values.shape)

        rows, states = self.special_rows()
        want = _reference_states_table([((), st, ()) for st in states])
        monkeypatch.setattr(continuation, "_reprs", by_value)
        assert continuation.states_table([((), r, ()) for r in rows]) != want

    def test_empty(self):
        for lead in ((), ("param", "branch_id")):
            assert continuation.states_table([], lead=lead) == \
                _reference_states_table([], lead=lead)
        assert branches_to_csv([]) == _reference_states_table(
            [], lead=("param", "branch_id"))


class TestLocators:
    def test_tangent_for_each_g(self):
        for g in (-1.5, -1.0, 1.0, 1.5):
            loc, coalesced = find_tangent(SYSTEM, DimerParams(v=1.0, g=g),
                                          "gamma", CFG)
            assert abs(loc - 1.0) < 1e-6
            assert coalesced.is_pt_symmetric

    @pytest.mark.parametrize("source", SOURCES)
    def test_tangent_invariant_under_sweep_step(self, source):
        # the first located point, the pitchfork at sqrt(3)/2, does not
        # depend on how the branches were produced
        p = DimerParams(v=1.0, g=-1.0, gamma=0.0)
        locs = []
        for step in (0.02, 0.01):
            if source == "stitched":
                _, points = stitched_scenario(-1.0, rng=(0.0, 1.4, step))
            else:
                upper = max(symmetric_states(p), key=lambda s: s.mu.z0)
                br = sweep_branch(SYSTEM, upper, p, "gamma", 1.4, step, CFG)
                points = detect_bifurcations([br,
                    sweep_branch(SYSTEM,
                                 min(symmetric_states(p),
                                     key=lambda s: s.mu.z0),
                                 p, "gamma", 1.4, step, CFG)],
                    SYSTEM, p, CFG)
            locs.append(points[0].location)
        assert abs(locs[0] - locs[1]) < 1e-8

    @pytest.mark.parametrize("g", [-1.0, 0.0, 1.0])
    def test_fold_from_pair_already_on_it(self, g):
        # a pair 1e-9 apart, 1e-12 below the tangent: probes on either side
        # re-solve both onto one branch, which is no approach to the fold
        gam0 = 1.0 - 1e-12
        p = DimerParams(v=1.0, g=g, gamma=gam0)
        upper = max(symmetric_states(p), key=lambda s: s.mu.z0)
        twin = dataclasses.replace(upper, mu=upper.mu + 1e-9)
        loc, _, _ = locate_fold(SYSTEM, p, "gamma", upper, twin, gam0, CFG)
        assert abs(loc - 1.0) < 1e-6

    def test_fold_picks_the_point_nearest_the_pair(self):
        # the broken pair at 0.85, born at gamma_P = 0.8, is searched in a
        # window that also holds the tangent at 1.0
        g, gam0 = 1.2, 0.85
        p = DimerParams(v=1.0, g=g, gamma=gam0)
        broken = [s for s in find_all_states(SYSTEM, p, CFG)
                  if s.is_complex_state and not s.is_pt_symmetric]
        assert len(broken) == 2
        loc, coalesced, _ = locate_fold(SYSTEM, p, "gamma", *broken, gam0,
                                        CFG)
        assert type(loc) is float
        assert abs(loc - 0.8) < 1e-10
        assert coalesced.is_complex_state

    def test_fold_without_a_point_in_reach_raises(self):
        p = DimerParams(v=1.0, g=-1.0, gamma=0.5)
        upper = max(symmetric_states(p), key=lambda s: s.mu.z0)
        with pytest.raises(NoConvergence):
            locate_fold(SYSTEM, p, "gamma", upper, upper, 0.5, CFG)

    def test_pitchfork_location(self):
        for g in (-1.0, 1.0, -1.5):
            found = locate_pitchfork_gamma(SYSTEM, DimerParams(v=1.0, g=g),
                                           1.0, CFG)
            assert found is not None
            assert abs(found[0] - pitchfork_gamma_closed_form(1.0, g)) < 1e-6

    @pytest.mark.parametrize("g,tol", [(0.05, 1e-10), (-0.05, 1e-10),
                                       (0.01, 1e-8), (-0.01, 1e-8)])
    def test_pitchfork_location_at_small_g(self, g, tol):
        found = locate_pitchfork_gamma(SYSTEM, DimerParams(v=1.0, g=g),
                                       1.0, CFG)
        assert found is not None
        assert abs(found[0] - pitchfork_gamma_closed_form(1.0, g)) < tol

    def test_pitchfork_location_shrinks_towards_threshold(self):
        locs = []
        for g in (-1.0, -1.5, -1.9):
            found = locate_pitchfork_gamma(SYSTEM, DimerParams(v=1.0, g=g),
                                           1.0, CFG)
            locs.append(found[0])
        assert locs[0] > locs[1] > locs[2]

    def test_existence_map(self):
        ex = {g: locate_pitchfork_gamma(SYSTEM, DimerParams(v=1.0, g=g), 1.0,
                                        CFG) is not None
              for g in (-2.5, -1.0, 1.0, 2.5)}
        assert ex == {-2.5: False, -1.0: True, 1.0: True, 2.5: False}

    def test_merger_negative_window(self):
        g_star, gamma_star = find_merger(SYSTEM, DimerParams(v=1.0),
                                         (-2.5, -0.1), CFG)
        assert abs(g_star + 2.0) < 1e-10
        assert gamma_star < 0.1

    def test_merger_positive_window(self):
        g_star, gamma_star = find_merger(SYSTEM, DimerParams(v=1.0),
                                         (0.1, 2.5), CFG)
        assert abs(g_star - 2.0) < 1e-10

    def test_no_merger(self):
        with pytest.raises(NoMerger):
            find_merger(SYSTEM, DimerParams(v=1.0), (-1.5, -0.5), CFG)


def bits(location, state=None) -> bytes:
    """A location and the 12 floats of its state, if given, as bytes."""
    return np.array([location, *(state_floats(state) if state else ())]
                    ).tobytes()


class TestLocatorsReadTheSet:
    """Each locator answers with a point of a fully read bifurcation set,
    bit for bit, and solves only the state it returns."""

    @pytest.fixture
    def solves(self, monkeypatch):
        count = [0]
        solve_at = solver._solve_at

        def counting(*args):
            count[0] += 1
            return solve_at(*args)

        monkeypatch.setattr(solver, "_solve_at", counting)
        return count

    @staticmethod
    def read_set(params, parameter, lo, hi):
        points = SYSTEM.bifurcation_set(params, parameter, lo, hi, CFG)
        for pt in points:
            pt.coalesced_state
        return points

    # g of both signs on both sides of the merger |g| = 2v, small |g|,
    # v = 2 and s != 0
    CASES = [(v, v * g, s) for v in (1.0, 2.0)
             for g in (-2.5, -1.5, -0.05, 0.01, 1.5, 2.5) for s in (0.0, 0.05)]

    @pytest.mark.parametrize("v,g,s", CASES)
    def test_find_tangent(self, solves, v, g, s):
        params = DimerParams(v=v, g=g, s=s)
        tangents = [pt for pt in self.read_set(params, "gamma", -2 * v, 2 * v)
                    if pt.kind == "tangent"]
        solves[0] = 0
        if not tangents:  # at small |g| and s != 0 the set has no point
            with pytest.raises(NoConvergence):
                find_tangent(SYSTEM, params, "gamma", CFG)
            assert solves[0] == 0 and abs(g) < 0.2
            return
        want = min(tangents, key=lambda pt: abs(pt.location - v))
        loc, state = find_tangent(SYSTEM, params, "gamma", CFG)
        assert solves[0] == 1
        assert bits(loc, state) == bits(want.location, want.coalesced_state)

    @pytest.mark.parametrize("v,g,s", CASES)
    def test_locate_pitchfork_gamma(self, solves, v, g, s):
        params = DimerParams(v=v, g=g, s=s)
        want = [pt for pt in self.read_set(params, "gamma", 0.0, v)
                if pt.kind == "pitchfork" and pt.location > 0][:1]
        solves[0] = 0
        found = locate_pitchfork_gamma(SYSTEM, params, v, CFG)
        assert solves[0] == len(want)
        if want:
            assert bits(*found) == bits(want[0].location,
                                        want[0].coalesced_state)
        else:
            assert found is None

    @pytest.mark.parametrize("v", [1.0, 2.0])
    @pytest.mark.parametrize("gamma", [Bicomplex(0.0), Bicomplex(0.5),
                                       Bicomplex(0.0, 0.2),
                                       Bicomplex(0.0, 0.5)])
    def test_find_merger(self, solves, v, gamma):
        params = DimerParams(v=v, gamma=gamma * v)
        want = next(pt for pt in self.read_set(params, "g", -2.5 * v,
                                               -0.1 * v)
                    if pt.kind == "pitchfork")
        solves[0] = 0
        g_star, gamma_star = find_merger(SYSTEM, params, cfg=CFG)
        assert solves[0] == 0
        assert bits(g_star) == bits(want.location)
        assert gamma_star == params.gamma.z0

    def test_an_unread_failure_does_not_abort(self, solves, monkeypatch):
        # no point's state solves; the merger at -2 sqrt(1.04) is found
        reads = []

        def failing(*args):
            reads.append(args)
            raise NoConvergence("no state")

        monkeypatch.setattr(model, "_coalesced", failing)
        params = DimerParams(v=1.0, gamma=Bicomplex(0.0, 0.2))
        points = SYSTEM.bifurcation_set(params, "g", -2.5, 2.5, CFG)
        assert [pt.kind for pt in points] == ["pitchfork", "pitchfork"]
        g_star, _ = find_merger(SYSTEM, params, (-2.5, 2.5), CFG)
        assert g_star == points[0].location == -2.039607805437114
        assert reads == []
        with pytest.raises(NoConvergence):
            points[0].coalesced_state
        with pytest.raises(NoConvergence):  # a failed read is not kept
            points[0].coalesced_state
        assert len(reads) == 2 and solves[0] == 0


class TestBifurcationPoint:
    STATE = StationaryState(Bicomplex(0.5), Bicomplex(0.5), Bicomplex(1.0),
                            0.0, True, True)

    def test_a_given_state_is_kept(self):
        pt = BifurcationPoint("tangent", 1.0, (), self.STATE, 0.0)
        assert pt.coalesced_state is self.STATE
        assert [f.name for f in dataclasses.fields(pt)] == [
            "kind", "location", "branch_ids", "coalesced_state",
            "detection_residual", "continuing_branch_id"]
        with pytest.raises(TypeError):
            BifurcationPoint("tangent", 1.0, ())

    def test_a_deferred_state_is_solved_once_on_read(self):
        calls = []

        def solve():
            calls.append(1)
            return self.STATE

        lazy = BifurcationPoint("tangent", 1.0, (), functools.partial(solve),
                                0.0)
        assert calls == []
        given = BifurcationPoint("tangent", 1.0, (), self.STATE, 0.0)
        assert lazy == given and calls == [1]
        assert repr(lazy) == repr(given)
        assert dataclasses.replace(lazy, branch_ids=(0, 1)).coalesced_state \
            is self.STATE
        assert lazy.coalesced_state is self.STATE and calls == [1]


class TestExport:
    @pytest.mark.parametrize("source", SOURCES)
    def test_branch_csv_schema(self, source):
        p = DimerParams(v=1.0, g=0.0, gamma=0.0)
        if source == "stitched":
            # the upper symmetric branch, stitched on the same grid
            br = max((b for b in stitched_branches(
                          SYSTEM, p, "gamma", cli._grid((0.0, 0.2, 0.05)),
                          CFG)
                      if b.samples[0][1].is_pt_symmetric),
                     key=lambda b: b.samples[0][1].mu.z0)
        else:
            upper = max(symmetric_states(p), key=lambda s: s.mu.z0)
            br = sweep_branch(SYSTEM, upper, p, "gamma", 0.2, 0.05, CFG)
        text = branches_to_csv([br])
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["param", "branch_id"]
        assert header[2:6] == ["psi1_0", "psi1_1", "psi1_2", "psi1_3"]
        assert header[-6:] == [
            "re_mu_0", "re_mu_2", "im_mu_0", "im_mu_2",
            "is_complex_state", "is_pt_symmetric",
        ]
        assert len(lines) == 1 + len(br.samples)
        row = lines[1].split(",")
        assert len(row) == len(header)
        assert row[1] == str(br.branch_id)
        # floats round-trip
        assert float(row[0]) == br.samples[0][0]
        # re/im columns mirror the mu components
        st = br.samples[0][1]
        assert float(row[header.index("re_mu_0")]) == st.mu.z0
        assert float(row[header.index("re_mu_2")]) == st.mu.z1
        assert float(row[header.index("im_mu_0")]) == st.mu.z2
        assert float(row[header.index("im_mu_2")]) == st.mu.z3
