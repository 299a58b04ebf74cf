import json
import math

import pytest

from bcdimer.model import DimerParams, DimerSystem
from bcdimer.solver import (
    DEDUP_TOL,
    SolveConfig,
    find_all_states,
    state_distance,
)
from bcdimer.continuation import locate_pitchfork_gamma
from bcdimer.ep import (
    AmbiguousMatch,
    LoopSpec,
    classify_ep,
    encircle,
    trace_summary_json,
    trace_to_csv,
)

SYSTEM = DimerSystem()
CFG = SolveConfig(jacobian="analytic")


def make_tangent_loop(radius=0.1, steps=128, turns=1, reverse=False):
    center = DimerParams(v=1.0, g=0.0, gamma=1.0)
    p0 = center.with_control("gamma", 1.0 + radius)
    tracked = [
        s for s in find_all_states(SYSTEM, p0, CFG) if s.is_complex_state
    ]
    assert len(tracked) == 2
    return LoopSpec(
        center=center,
        which="gamma",
        radius=radius,
        steps=steps,
        states_to_track=tracked,
        turns=turns,
        reverse=reverse,
    )


@pytest.fixture(scope="module")
def pitchfork_setup():
    g = -1.0
    found = locate_pitchfork_gamma(SYSTEM, DimerParams(v=1.0, g=g), 1.0, CFG)
    assert found is not None
    gamma_p, coalesced = found
    center = DimerParams(v=1.0, g=g, gamma=gamma_p)
    return center, coalesced


def participating(center, coalesced, which, radius):
    value0 = center.control(which).z0 + radius
    p0 = center.with_control(which, value0)
    states = find_all_states(SYSTEM, p0, CFG)
    return [s for s in states if state_distance(s, coalesced) < 0.25]


class TestTangentLoop:
    def test_single_loop_swaps(self):
        tr = encircle(SYSTEM, make_tangent_loop(), CFG)
        assert tr.cycle_type == [2]
        assert tr.permutation == [1, 0]
        assert tr.match_margin > 2
        assert tr.reliable

    def test_double_loop_is_identity(self):
        tr = encircle(SYSTEM, make_tangent_loop(turns=2), CFG)
        assert tr.permutation == [0, 1]
        assert tr.cycle_type == [1, 1]

    def test_reverse_loop_gives_inverse(self):
        fwd = encircle(SYSTEM, make_tangent_loop(), CFG)
        rev = encircle(SYSTEM, make_tangent_loop(reverse=True), CFG)
        n = len(fwd.permutation)
        inverse = [0] * n
        for i, j in enumerate(fwd.permutation):
            inverse[j] = i
        assert rev.permutation == inverse

    def test_non_enclosing_loop_is_identity(self):
        center = DimerParams(v=1.0, g=0.0, gamma=0.5)
        p0 = center.with_control("gamma", 0.55)
        tracked = [
            s for s in find_all_states(SYSTEM, p0, CFG) if s.is_complex_state
        ]
        spec = LoopSpec(center=center, which="gamma", radius=0.05, steps=64,
                        states_to_track=tracked)
        tr = encircle(SYSTEM, spec, CFG)
        assert tr.cycle_type == [1, 1]
        assert tr.match_margin > 2

    def test_cycle_type_stable_under_refinement(self):
        a = encircle(SYSTEM, make_tangent_loop(radius=0.1, steps=128), CFG)
        b = encircle(SYSTEM, make_tangent_loop(radius=0.05, steps=256), CFG)
        assert a.cycle_type == b.cycle_type == [2]

    def test_endpoints_coincide_as_sets(self):
        tr = encircle(SYSTEM, make_tangent_loop(), CFG)
        start, end = tr.start_states(), tr.end_states()
        for e in end:
            assert min(state_distance(e, s) for s in start) < DEDUP_TOL


class TestPitchforkLoops:
    def test_gamma_loop_swaps_broken_pair(self, pitchfork_setup):
        center, coalesced = pitchfork_setup
        tracked = participating(center, coalesced, "gamma", 2e-3)
        assert len(tracked) == 3
        spec = LoopSpec(center=center, which="gamma", radius=2e-3, steps=128,
                        states_to_track=tracked)
        tr = encircle(SYSTEM, spec, CFG)
        assert tr.cycle_type == [2, 1]
        assert tr.match_margin > 2
        # the fixed state is the one that stayed PT symmetric
        fixed = [i for i, j in enumerate(tr.permutation) if i == j]
        assert len(fixed) == 1
        assert tracked[fixed[0]].is_pt_symmetric

    def test_gamma_loop_stable_under_refinement(self, pitchfork_setup):
        center, coalesced = pitchfork_setup
        tracked = participating(center, coalesced, "gamma", 2e-3)
        a = encircle(SYSTEM, LoopSpec(center=center, which="gamma",
                                      radius=2e-3, steps=128,
                                      states_to_track=tracked), CFG)
        tracked_b = participating(center, coalesced, "gamma", 1e-3)
        b = encircle(SYSTEM, LoopSpec(center=center, which="gamma",
                                      radius=1e-3, steps=256,
                                      states_to_track=tracked_b), CFG)
        assert a.cycle_type == b.cycle_type

    def test_s_loop_three_cycle(self, pitchfork_setup):
        # the symmetry-breaking probe permutes all three participants:
        # a measured property of this model, not a literature value
        center, coalesced = pitchfork_setup
        tracked = participating(center, coalesced, "s", 1e-4)
        assert len(tracked) == 3
        spec = LoopSpec(center=center, which="s", radius=1e-4, steps=128,
                        states_to_track=tracked)
        tr = encircle(SYSTEM, spec, CFG)
        assert tr.cycle_type == [3]
        assert tr.match_margin > 2

    def test_s_loop_stable_and_composes(self, pitchfork_setup):
        center, coalesced = pitchfork_setup
        tracked = participating(center, coalesced, "s", 1e-4)
        single = encircle(SYSTEM, LoopSpec(center=center, which="s",
                                           radius=1e-4, steps=128,
                                           states_to_track=tracked), CFG)
        half = encircle(SYSTEM, LoopSpec(center=center, which="s",
                                         radius=5e-5, steps=256,
                                         states_to_track=tracked), CFG)
        assert single.cycle_type == half.cycle_type == [3]
        double = encircle(SYSTEM, LoopSpec(center=center, which="s",
                                           radius=1e-4, steps=128, turns=2,
                                           states_to_track=tracked), CFG)
        # square of the single-loop permutation
        squared = [single.permutation[j] for j in single.permutation]
        assert double.permutation == squared
        assert double.cycle_type == [3]


class TestClassify:
    def test_tangent_report(self):
        spec = make_tangent_loop()
        tr = encircle(SYSTEM, spec, CFG)
        report = classify_ep(SYSTEM, [tr], CFG)
        assert report.order_lower_bound == 2
        assert report.states_coalesce
        assert "order >= 2" in report.summary

    def test_pitchfork_report_from_two_controls(self, pitchfork_setup):
        center, coalesced = pitchfork_setup
        tr_g = encircle(SYSTEM, LoopSpec(
            center=center, which="gamma", radius=2e-3, steps=128,
            states_to_track=participating(center, coalesced, "gamma", 2e-3),
        ), CFG)
        tr_s = encircle(SYSTEM, LoopSpec(
            center=center, which="s", radius=1e-4, steps=128,
            states_to_track=participating(center, coalesced, "s", 1e-4),
        ), CFG)
        report = classify_ep(SYSTEM, [tr_g, tr_s], CFG)
        assert report.cycle_types["gamma"] == [2, 1]
        assert report.cycle_types["s"] == [3]
        assert report.order_lower_bound == 3
        assert report.states_coalesce

    def test_mismatched_centers_rejected(self):
        a = encircle(SYSTEM, make_tangent_loop(steps=32), CFG)
        other = DimerParams(v=1.0, g=0.0, gamma=0.5)
        p0 = other.with_control("gamma", 0.55)
        tracked = [
            s for s in find_all_states(SYSTEM, p0, CFG) if s.is_complex_state
        ]
        b = encircle(SYSTEM, LoopSpec(center=other, which="gamma",
                                      radius=0.05, steps=32,
                                      states_to_track=tracked), CFG)
        with pytest.raises(ValueError):
            classify_ep(SYSTEM, [a, b], CFG)


class TestSpecValidation:
    def test_spec_invariants(self):
        center = DimerParams(v=1.0, g=0.0, gamma=1.0)
        with pytest.raises(ValueError):
            LoopSpec(center=center, which="gamma", radius=-1.0,
                     states_to_track=[None]).validate()
        with pytest.raises(ValueError):
            LoopSpec(center=center, which="gamma", radius=0.1, steps=8,
                     states_to_track=[None]).validate()
        with pytest.raises(ValueError):
            LoopSpec(center=center, which="v", radius=0.1,
                     states_to_track=[None]).validate()
        for radius, turns in ((math.nan, 1), (math.inf, 1), (0.1, 0),
                              (0.1, -1)):
            with pytest.raises(ValueError):
                LoopSpec(center=center, which="gamma", radius=radius,
                         turns=turns, states_to_track=[None]).validate()

    def test_default_radius(self):
        center = DimerParams(v=1.0, g=0.0, gamma=1.0)
        spec = LoopSpec(center=center, which="gamma", states_to_track=[None])
        assert spec.resolved_radius() == pytest.approx(1e-3)
        center5 = DimerParams(v=1.0, g=0.0, gamma=5.0)
        spec5 = LoopSpec(center=center5, which="gamma", states_to_track=[None])
        assert spec5.resolved_radius() == pytest.approx(5e-3)


class TestExports:
    def test_csv_and_json(self):
        tr = encircle(SYSTEM, make_tangent_loop(steps=32), CFG)
        text = trace_to_csv(tr)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "phi"
        assert "branch0_mu_0" in header
        assert "branch1_mu_minus_im" in header
        assert len(lines) == 1 + 32 + 1  # header + steps + closing point
        summary = json.loads(trace_summary_json(tr))
        assert summary["cycle_type"] == [2]
        assert summary["permutation"] == [1, 0]
        assert summary["match_margin"] > 2
        assert summary["reliable"] is True
