import dataclasses
import json
import math

import pytest

from bcdimer.cli import run
from bcdimer.model import DimerParams, DimerSystem, residual
from bcdimer.solver import NoConvergence, SolveConfig, find_all_states
from bcdimer.continuation import (
    NoMerger,
    branches_to_csv,
    detect_bifurcations,
    find_merger,
    find_tangent,
    locate_fold,
    locate_pitchfork_gamma,
    pt_partner_check,
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


class TestSweep:
    def test_tracks_closed_form(self):
        p = DimerParams(v=1.0, g=0.0, gamma=0.0)
        upper = max(symmetric_states(p), key=lambda s: s.mu.z0)
        br = sweep_branch(SYSTEM, upper, p, "gamma", 0.99, 0.01, CFG)
        assert br.termination == "range_end"
        for gam, st in br.samples:
            assert abs(st.mu.z0 - math.sqrt(1 - gam * gam)) < 1e-9

    def test_terminates_at_fold(self):
        p = DimerParams(v=1.0, g=0.0, gamma=0.0)
        upper = max(symmetric_states(p), key=lambda s: s.mu.z0)
        br = sweep_branch(SYSTEM, upper, p, "gamma", 1.4, 0.01, CFG)
        assert br.termination == "step_underflow"
        assert abs(br.end - 1.0) < 1e-3

    def test_continues_through_fold_onto_partner(self):
        # stitched, the upper symmetric branch runs on past its fold
        g = -1.0
        p = DimerParams(v=1.0, g=g, gamma=0.0)
        grid = [k * 0.01 for k in range(141)]
        branches = stitched_branches(SYSTEM, p, "gamma", grid, CFG)
        br = max((b for b in branches if b.samples[0][1].is_pt_symmetric),
                 key=lambda b: b.samples[0][1].mu.z0)
        assert br.start == 0.0 and br.end == grid[-1]
        assert br.samples[0][1].is_complex_state
        gam, st = br.samples[-1]
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

    def test_every_sample_reverifies(self):
        p = DimerParams(v=1.0, g=-1.0, gamma=0.0)
        upper = max(symmetric_states(p), key=lambda s: s.mu.z0)
        br = sweep_branch(SYSTEM, upper, p, "gamma", 0.9, 0.02, CFG)
        for gam, st in br.samples:
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

    def test_linear_has_one_tangent_no_pitchfork(self):
        p = DimerParams(v=1.0, g=0.0, gamma=0.0)
        branches = [
            sweep_branch(SYSTEM, st, p, "gamma", 1.4, 0.01, CFG)
            for st in symmetric_states(p)
        ]
        points = detect_bifurcations(branches, SYSTEM, p, CFG)
        kinds = [pt.kind for pt in points]
        assert kinds == ["tangent"]
        assert type(points[0].location) is float
        assert abs(points[0].location - 1.0) < 1e-10

    @pytest.mark.parametrize("g,side", [(-1.0, "upper"), (1.0, "lower")])
    def test_pitchfork_branch_side(self, g, side):
        branches = self.sweep_scenario(g)
        p = DimerParams(v=1.0, g=g)
        points = detect_bifurcations(branches, SYSTEM, p, CFG)
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

    @pytest.mark.parametrize("g", [1.2, -1.2])
    def test_no_spurious_pitchfork_on_swept_branches(self, g):
        points = detect_bifurcations(self.sweep_scenario(g), SYSTEM,
                                     DimerParams(v=1.0, g=g), CFG)
        assert [pt.kind for pt in points] == ["pitchfork", "tangent"]
        assert abs(points[0].location - 0.8) < 1e-10
        assert abs(points[1].location - 1.0) < 1e-10

    def test_pitchfork_near_the_tangent_on_swept_branches(self):
        # the broken pair is born at gamma_P = sqrt(0.96), above the 0.95
        # seeds, so no swept branch follows it
        points = detect_bifurcations(self.sweep_scenario(-0.4), SYSTEM,
                                     DimerParams(v=1.0, g=-0.4), CFG)
        assert [pt.kind for pt in points] == ["pitchfork", "tangent"]
        assert abs(points[0].location - math.sqrt(0.96)) < 1e-10

    def test_both_folds_off_symmetry_on_swept_branches(self):
        points = detect_bifurcations(self.sweep_scenario(1.2, s=0.05), SYSTEM,
                                     DimerParams(v=1.0, g=1.2, s=0.05), CFG)
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
        p9 = DimerParams(v=1.0, g=g, gamma=0.9)
        broken = [
            s
            for s in find_all_states(SYSTEM, p9, CFG)
            if s.is_complex_state and not s.is_pt_symmetric
        ]
        assert len(broken) == 2
        a = sweep_branch(SYSTEM, broken[0], p9, "gamma", 1.1, 0.01, CFG)
        b = sweep_branch(SYSTEM, broken[1], p9, "gamma", 1.1, 0.01, CFG)
        assert pt_partner_check(a, b)


class TestLocators:
    def test_tangent_for_each_g(self):
        for g in (-1.5, -1.0, 1.0, 1.5):
            loc, coalesced = find_tangent(SYSTEM, DimerParams(v=1.0, g=g),
                                          "gamma", CFG)
            assert abs(loc - 1.0) < 1e-6
            assert coalesced.is_pt_symmetric

    def test_tangent_invariant_under_sweep_step(self):
        # the located fold does not depend on how the seeds were produced
        p = DimerParams(v=1.0, g=-1.0, gamma=0.0)
        locs = []
        for step in (0.02, 0.01):
            upper = max(symmetric_states(p), key=lambda s: s.mu.z0)
            br = sweep_branch(SYSTEM, upper, p, "gamma", 1.4, step, CFG)
            points = detect_bifurcations([br,
                sweep_branch(SYSTEM,
                             min(symmetric_states(p), key=lambda s: s.mu.z0),
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
        g_star, gamma_star = find_merger(1.0, SYSTEM, (-2.5, -0.1), CFG)
        assert abs(g_star + 2.0) < 1e-10
        assert gamma_star < 0.1

    def test_merger_positive_window(self):
        g_star, gamma_star = find_merger(1.0, SYSTEM, (0.1, 2.5), CFG)
        assert abs(g_star - 2.0) < 1e-10

    def test_no_merger(self):
        with pytest.raises(NoMerger):
            find_merger(1.0, SYSTEM, (-1.5, -0.5), CFG)


class TestExport:
    def test_branch_csv_schema(self):
        p = DimerParams(v=1.0, g=0.0, gamma=0.0)
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
        # floats round-trip
        assert float(row[0]) == br.samples[0][0]
        # re/im columns mirror the mu components
        st = br.samples[0][1]
        assert float(row[header.index("re_mu_0")]) == st.mu.z0
        assert float(row[header.index("re_mu_2")]) == st.mu.z1
        assert float(row[header.index("im_mu_0")]) == st.mu.z2
        assert float(row[header.index("im_mu_2")]) == st.mu.z3
