import importlib.util
import itertools
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bcdimer import ep, solver
from bcdimer.bicomplex import Bicomplex
from bcdimer.model import DimerParams, DimerSystem, _as_seed, control_rows
from bcdimer.solver import (
    DEDUP_TOL,
    NoConvergence,
    SolveConfig,
    find_all_states,
    find_states_along,
    state_distance,
)
from bcdimer.continuation import find_merger, locate_pitchfork_gamma
from bcdimer.ep import (
    AmbiguousMatch,
    LoopSpec,
    classify_ep,
    encircle,
    trace_summary_json,
    trace_to_csv,
)
from bcdimer.solver import newton_solve

SYSTEM = DimerSystem()
CFG = SolveConfig(jacobian="analytic")


def _load_ref_loops():
    """tools/ref_loops.py is a script, not part of the package; its
    PointByPoint is the dimer with its seeds listed point by point."""
    path = Path(__file__).resolve().parents[1] / "tools" / "ref_loops.py"
    spec = importlib.util.spec_from_file_location("_ref_loops", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REF = _load_ref_loops()
EP3_GAMMA = math.sqrt(3) / 2  # the pitchfork at g = -1


def loop_point(spec, phi):
    """The loop point at phi as DimerParams, from its control row."""
    v, *c = ep._loop_controls(spec, [phi])[0].tolist()
    return DimerParams(v, *(Bicomplex(*c[k:k + 4]) for k in (0, 4, 8)))


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


def ep3_loop(pitchfork_setup, which, radius):
    center, coalesced = pitchfork_setup
    return LoopSpec(center=center, which=which, radius=radius, steps=128,
                    states_to_track=participating(center, coalesced, which,
                                                  radius))


def all_states_loop(center, which, radius=None, **loop):
    spec = LoopSpec(center=center, which=which, radius=radius, **loop)
    value0 = center.control(which).z0 + spec.resolved_radius()
    spec.states_to_track = find_all_states(
        SYSTEM, center.with_control(which, value0), CFG)
    return spec


def no_candidates(points):
    """packed_candidates listing no seed at any point."""
    return np.empty((0, 12)), np.empty(0, dtype=int)


class TestSeededSteps:
    """Each loop step starts from the system's candidate seeds; the states
    must be those Newton reaches from the previous step's states."""

    @pytest.mark.parametrize("loop, cycle_type, permutation", [
        ("tangent", [2], [1, 0]),
        ("ep3 gamma", [2, 1], [0, 2, 1]),
        ("ep3 g", [2, 1], [1, 0, 2]),
        ("ep3 s", [3], [1, 2, 0]),
        # 8 seeds per point: Q's roots and the linear eigenpairs
        ("tangent g=5e-4", [2, 2], [1, 0, 3, 2]),
        # the mirror pair shares mu all round the loop
        ("merger g", [2, 1, 1], [0, 2, 1, 3]),
    ])
    def test_same_continuation_as_newton_tracking(
            self, pitchfork_setup, loop, cycle_type, permutation):
        if loop == "tangent":
            spec = make_tangent_loop()
        elif loop.startswith("ep3"):
            which = loop.split()[1]
            spec = ep3_loop(pitchfork_setup, which,
                            1e-4 if which == "s" else 2e-3)
        elif loop == "merger g":
            g_star, gamma_star = find_merger(SYSTEM, DimerParams(v=1.0),
                                             cfg=CFG)
            spec = all_states_loop(
                DimerParams(v=1.0, g=g_star, gamma=gamma_star), "g")
        else:
            spec = all_states_loop(DimerParams(v=1.0, g=5e-4, gamma=1.0),
                                   "gamma", 0.01)
        tr = encircle(SYSTEM, spec, CFG)
        assert tr.cycle_type == cycle_type
        assert tr.permutation == permutation
        assert tr.fallback_steps == 0
        if loop == "merger g":  # all four states, |g| >= 0.05 v
            assert root_cycle_type(spec) == tr.cycle_type
        for k in range(1, len(tr.phis)):
            params = loop_point(tr.spec, tr.phis[k])
            for prev, state in zip(tr.states[k - 1], tr.states[k]):
                tracked = newton_solve(SYSTEM, params, prev, CFG)
                assert state_distance(state, tracked) < 1e-9

    def test_merger_gamma_loop_keeps_its_states_apart(self):
        # Newton from the previous step let three branches land on one
        # state at 128 steps (margin 1), and only the doubled loop passed
        g_star, gamma_star = find_merger(SYSTEM, DimerParams(v=1.0),
                                         cfg=CFG)
        center = DimerParams(v=1.0, g=g_star, gamma=gamma_star)
        spec = all_states_loop(center, "gamma")
        tr = encircle(SYSTEM, spec, CFG)
        assert tr.spec.steps == 128
        assert tr.permutation == [0, 1, 2, 3]
        assert root_cycle_type(spec) == tr.cycle_type
        assert tr.match_margin > 2
        end = tr.end_states()
        assert len(end) == 4
        for i, a in enumerate(end):
            for b in end[i + 1:]:
                assert state_distance(a, b) > DEDUP_TOL

    def test_mirror_pair_with_equal_mu_needs_no_fallback(self):
        # at gamma = s = 0 the two mirror states share mu all round a g-loop;
        # their rows still tell them apart, so neither needs Newton tracking
        g_star, gamma_star = find_merger(SYSTEM, DimerParams(v=1.0),
                                         cfg=CFG)
        center = DimerParams(v=1.0, g=g_star, gamma=gamma_star)
        spec = all_states_loop(center, "g")
        tr = encircle(SYSTEM, spec, CFG)
        assert tr.cycle_type == [2, 1, 1]
        assert tr.permutation == [0, 2, 1, 3]
        assert root_cycle_type(spec) == tr.cycle_type
        assert tr.match_margin > 2
        assert tr.fallback_steps == 0

    @pytest.mark.parametrize("loop, permutation, margin", [
        ("tangent", [1, 0], 77.44059782946478),
        ("ep3 s", [1, 2, 0], 77.58454861025903),
    ])
    def test_without_candidates_every_step_falls_back(
            self, pitchfork_setup, monkeypatch, loop, permutation, margin):
        # the permutation and margin of Newton tracking alone, as recorded
        # before the seeded steps
        spec = (make_tangent_loop() if loop == "tangent"
                else ep3_loop(pitchfork_setup, "s", 1e-4))
        monkeypatch.setattr(SYSTEM, "packed_candidates", no_candidates)
        tr = encircle(SYSTEM, spec, CFG)
        assert tr.fallback_steps == len(spec.states_to_track) * spec.steps
        assert tr.permutation == permutation
        assert tr.match_margin == pytest.approx(margin, rel=1e-9)

    def test_seeds_with_swapped_mu_change_nothing(self, pitchfork_setup,
                                                  monkeypatch):
        # each seed carries the mu of another state; Newton still solves
        # every seed to some state, and the states are matched on their
        # solved rows, so the mislabelled mu must not matter
        center, _coalesced = pitchfork_setup
        spec = all_states_loop(center, "s", 1e-4)
        assert len(spec.states_to_track) == 4
        seeded = encircle(SYSTEM, spec, CFG)
        assert root_cycle_type(spec) == seeded.cycle_type
        real = SYSTEM.packed_candidates

        def mislabelled(points):
            rows, owner = real(points)
            for k in range(len(points)):
                at = np.flatnonzero(owner == k)
                rows[at, 8:12] = rows[at[::-1], 8:12]
            return rows, owner

        monkeypatch.setattr(SYSTEM, "packed_candidates", mislabelled)
        swapped = encircle(SYSTEM, spec, CFG)
        monkeypatch.setattr(SYSTEM, "packed_candidates", no_candidates)
        tracked = encircle(SYSTEM, spec, CFG)
        assert swapped.fallback_steps == 0
        assert swapped.permutation == tracked.permutation == seeded.permutation
        assert root_cycle_type(spec) == swapped.cycle_type == (
            tracked.cycle_type)
        for row, clean in zip(swapped.states, seeded.states):
            for state, expected in zip(row, clean):
                assert state_distance(state, expected) < 1e-9


def state_bits(states):
    """The 12 floats, residual and flags of each state."""
    return [(*s.psi1.as_tuple(), *s.psi2.as_tuple(), *s.mu.as_tuple(),
             s.residual_norm, s.is_complex_state, s.is_pt_symmetric)
            for s in states]


def trace_bits(trace):
    """The :func:`state_bits` of every step of a trace."""
    return [state_bits(row) for row in trace.states]


class TestBlockedSteps:
    """The seeds of a block of loop points and Newton from them run once
    for the whole block; a loop's states must not depend on the blocks."""

    @pytest.fixture(params=["tangent", "ep3 s"])
    def spec(self, request, pitchfork_setup):
        if request.param == "tangent":
            return make_tangent_loop()
        return ep3_loop(pitchfork_setup, "s", 1e-4)

    def test_small_blocks_give_the_same_bits(self, spec, monkeypatch):
        whole = encircle(SYSTEM, spec, CFG)
        monkeypatch.setattr(solver, "_BLOCK", 7)
        blocked = encircle(SYSTEM, spec, CFG)
        assert trace_bits(blocked) == trace_bits(whole)
        assert blocked.permutation == whole.permutation
        assert blocked.match_margin == whole.match_margin
        assert blocked.fallback_steps == whole.fallback_steps == 0

    def test_loop_longer_than_a_block(self, monkeypatch):
        spec = make_tangent_loop(steps=300)
        assert spec.steps > solver._BLOCK
        tr = encircle(SYSTEM, spec, CFG)
        assert len(tr.states) == 301
        assert tr.permutation == [1, 0]
        assert tr.fallback_steps == 0
        monkeypatch.setattr(solver, "_BLOCK", 512)
        assert trace_bits(encircle(SYSTEM, spec, CFG)) == trace_bits(tr)

    @pytest.mark.parametrize("loop", ["tangent", "ep3 s",
                                      "tangent g=5e-4"])
    def test_system_with_seeds_point_by_point(self, pitchfork_setup, loop):
        if loop == "tangent":
            spec = make_tangent_loop()
        elif loop == "ep3 s":
            spec = ep3_loop(pitchfork_setup, "s", 1e-4)
        else:
            spec = all_states_loop(DimerParams(v=1.0, g=5e-4, gamma=1.0),
                                   "gamma", 0.01)
        generic = encircle(REF.PointByPoint(), spec, CFG)
        packed = encircle(SYSTEM, spec, CFG)
        assert trace_bits(generic) == trace_bits(packed)
        assert generic.permutation == packed.permutation
        assert generic.match_margin == packed.match_margin

    def test_point_by_point_seeds_solve_alike(self):
        # find_states_along on more lanes than _CROSSOVER, where the kernel
        # runs on arrays, and on one point, where it runs on floats; below
        # |g| = 1e-3 v (8 seeds a point), at g = 0, off symmetry, at a
        # j-continued gamma and at v = 2
        generic = REF.PointByPoint()
        points = [DimerParams(v=v, g=g, gamma=Bicomplex(gamma, j), s=s)
                  for v, g, j, s in [(1.0, -0.85, 0.0, 0.0),
                                     (1.0, 5e-4, 0.0, 0.0),
                                     (1.0, 0.0, 0.1, 0.05),
                                     (2.0, 1.2, 0.2, -0.1)]
                  for gamma in (0.1, 0.5, 0.9, 1.3)]
        along = find_states_along(generic, points, CFG)
        assert sum(map(len, along)) > solver._CROSSOVER
        assert ([state_bits(states) for states in along]
                == [state_bits(states) for states in
                    find_states_along(SYSTEM, points, CFG)])
        for p in points[::3]:
            states = find_all_states(generic, p, CFG)
            assert state_bits(states) == state_bits(
                find_all_states(SYSTEM, p, CFG))
            seeds, _ = SYSTEM.packed_candidates(control_rows([p]))
            for seed in map(_as_seed, seeds[:2].tolist()):
                assert state_bits([newton_solve(generic, p, seed, CFG)]) == (
                    state_bits([newton_solve(SYSTEM, p, seed, CFG)]))

    def test_nan_seed_falls_back(self, monkeypatch):
        spec = make_tangent_loop()
        clean = encircle(SYSTEM, spec, CFG)
        real = SYSTEM.packed_candidates

        def with_nan(points):
            rows, owner = real(points)
            rows[np.flatnonzero(owner == 5)[1]] = math.nan
            return rows, owner

        monkeypatch.setattr(SYSTEM, "packed_candidates", with_nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = encircle(SYSTEM, spec, CFG)
        # the nan seed solves to no row, so the one state it would have
        # given has no partner at loop point 6 and falls back there
        assert tr.fallback_steps == 1
        assert tr.permutation == clean.permutation
        bits, clean_bits = trace_bits(tr), trace_bits(clean)
        assert bits[:6] == clean_bits[:6] and bits[7:] == clean_bits[7:]
        for state, seeded in zip(tr.states[6], clean.states[6]):
            assert state_distance(state, seeded) < 1e-9

    @pytest.mark.parametrize("second, pick", [
        # one ulp nearer the second tracked state than the first: a tie
        (math.nextafter(0.5, 0.0), [-1, -1]),
        (0.25, [-1, -1]),  # twice as near: still no clear pick
        (0.2, [-1, 0]),  # more than twice as near: the second takes it
    ])
    def test_a_row_about_as_near_two_states_is_no_pick(self, monkeypatch,
                                                       second, pick):
        # hand-made solved rows (12 floats, residual, flags): the tracked
        # states differ from the one seeded row in their first float only,
        # by 0.5 and by ``second``
        seeded = np.zeros((1, 15))
        rows = np.zeros((2, 15))
        rows[:, 0] = -0.5, second
        fallbacks = []

        def fallback(system, spec, row, phi0, phi1, cfg):
            fallbacks.append(row[0])
            return row

        monkeypatch.setattr(ep, "_track_segment", fallback)
        new, dists, got = ep._step(SYSTEM, None, rows, seeded, 0.0, 0.1, CFG)
        assert got.tolist() == pick
        assert fallbacks == [rows[i, 0] for i in range(2) if pick[i] < 0]
        for i in np.flatnonzero(got >= 0):
            assert np.array_equal(new[i], seeded[0])
            assert dists[i].tolist() == [0.5, second]


def stepwise(system, spec, cfg=CFG):
    """One pass around the loop of ``spec`` with every step through
    ep._step, from the rows of its own loop point: each step's solved rows,
    the distances the margin is taken over (the closure's last), the margin
    and the fallback count."""
    sign = -1.0 if spec.reverse else 1.0
    n = spec.steps * spec.turns
    phis = [sign * 2.0 * math.pi * spec.turns * k / n for k in range(n + 1)]
    controls = ep._loop_controls(spec, [0.0, *phis[1:]])
    rows = solver._solve_at(system, controls[:1],
                            solver._rows(spec.states_to_track), cfg)
    steps, dists, fallbacks = [rows], [], 0
    at_points = (solved[lo:hi] for solved, first
                 in solver._candidate_solves(system, controls[1:], cfg)
                 for lo, hi in zip(first.tolist(), first[1:].tolist()))
    for k, seeded in enumerate(at_points, start=1):
        rows, near, pick = ep._step(system, spec, rows, seeded, phis[k - 1],
                                    phis[k], cfg)
        steps.append(rows)
        dists.append(near)
        fallbacks += int((pick < 0).sum())
    dists.append(solver._distances(rows[:, :12], steps[0][:, :12]))
    dists = np.array(dists)
    return steps, dists, ep._match_margin(dists), fallbacks


class TestBlockLoopPath:
    """Steps chained on the rows of a block of loop points give the bits
    of ep._step at every step."""

    LOOPS = {
        "tangent g=-1, all states": ({"g": -1.0, "gamma": 1.0}, "gamma",
                                     1e-3, {}),
        "EP3 s-loop, all states": ({"g": -1.0, "gamma": EP3_GAMMA}, "s",
                                   1e-3, {}),
        "tangent g=0.1, reversed": ({"g": 0.1, "gamma": 1.0}, "gamma", 0.01,
                                    {"reverse": True}),
        "tangent g=-1, two turns": ({"g": -1.0, "gamma": 1.0}, "gamma", 1e-3,
                                    {"turns": 2}),
        "tangent g=-1, 300 steps": ({"g": -1.0, "gamma": 1.0}, "gamma", 1e-3,
                                    {"steps": 300}),
        # 8 rows a point: Q's roots and the linear eigenpairs
        "tangent g=5e-4, duplicate seeds": ({"g": 5e-4, "gamma": 1.0},
                                            "gamma", 0.01, {}),
        "tangent g=0, complex states": "tangent",
        "EP3 gamma-loop, complex states": "ep3 gamma",
        "tangent g=-1, no seeds": ({"g": -1.0, "gamma": 1.0}, "gamma", 1e-3,
                                   {"steps": 32}),
        # loop point 6 lists one state's seed twice and another's not: that
        # state falls back there, with as many rows as states
        "tangent g=-1, a seed doubled": ({"g": -1.0, "gamma": 1.0}, "gamma",
                                         1e-3, {"steps": 32}),
        # four tracked states, one of them twice: one row a point each, and
        # the second copy falls back at every step
        "tangent g=-1, a state tracked twice": ({"g": -1.0, "gamma": 1.0},
                                                "gamma", 1e-3, {"steps": 32}),
    }
    # ep._step calls: each block's first step where every point has one row
    # per tracked state, and there also the doubled seed's step and the next
    STEP_CALLS = {"tangent g=-1, 300 steps": 2,
                  "tangent g=-1, a seed doubled": 3,
                  **dict.fromkeys(["tangent g=-1, all states",
                                   "EP3 s-loop, all states",
                                   "tangent g=0.1, reversed",
                                   "tangent g=-1, two turns"], 1)}

    def spec(self, name, pitchfork_setup):
        loop = self.LOOPS[name]
        if loop == "tangent":
            return make_tangent_loop()
        if loop == "ep3 gamma":
            return ep3_loop(pitchfork_setup, "gamma", 2e-3)
        controls, which, radius, options = loop
        spec = all_states_loop(DimerParams(v=1.0, **controls), which, radius,
                               **options)
        if "twice" in name:
            spec.states_to_track[3] = spec.states_to_track[0]
        return spec

    @pytest.mark.parametrize("name", LOOPS)
    def test_same_bits_as_every_step_through_step(
            self, name, pitchfork_setup, monkeypatch):
        spec = self.spec(name, pitchfork_setup)
        system = REF.NoSeeds() if "no seeds" in name else SYSTEM
        if "doubled" in name:
            real = SYSTEM.packed_candidates

            def doubled(points):
                rows, owner = real(points)
                at = np.flatnonzero(owner == 5)
                rows[at[1]] = rows[at[0]]
                return rows, owner

            monkeypatch.setattr(SYSTEM, "packed_candidates", doubled)
        steps, dists, margin, fallbacks = stepwise(system, spec)
        margins, calls, real_step = [], [], ep._step

        def recording(dists):
            margins.append(dists)
            return ep_margin(dists)

        def counting(*args):
            calls.append(args)
            return real_step(*args)

        ep_margin = ep._match_margin
        monkeypatch.setattr(ep, "_match_margin", recording)
        monkeypatch.setattr(ep, "_step", counting)
        tr = ep._encircle_once(system, spec, CFG)
        assert trace_bits(tr) == [state_bits(solver._states(rows.tolist()))
                                  for rows in steps]
        (got,) = margins
        assert np.array_equal(got.view(np.int64), dists.view(np.int64))
        assert tr.match_margin == margin
        assert tr.fallback_steps == fallbacks
        assert (fallbacks > 0) == any(
            case in name for case in ("no seeds", "doubled", "twice"))
        assert len(calls) == self.STEP_CALLS.get(name, len(tr.phis) - 1)
        if (len(spec.states_to_track) == 4 and "twice" not in name
                and abs(spec.center.g.z0) >= 0.05):
            assert root_cycle_type(spec) == tr.cycle_type


class TestLoopPoints:
    """A loop's points are carried as control rows from the loop to the
    matched rows, and its states are built only where they are read."""

    @pytest.mark.parametrize("which, loop", [
        ("gamma", {}), ("s", {"turns": 2}), ("g", {"reverse": True})])
    def test_controls_are_the_loop_params(self, which, loop):
        center = DimerParams(v=2.0, g=-1.0, gamma=Bicomplex(0.3, 0.2),
                             s=Bicomplex(0.05, -0.0))
        spec = LoopSpec(center=center, which=which, radius=1e-3, steps=64,
                        states_to_track=[None], **loop)
        total = (-1.0 if spec.reverse else 1.0) * 2 * math.pi * spec.turns
        phis = [total * k / 128 for k in range(129)] + [0.0, -0.0]
        value = center.control(which).z0
        want = control_rows([
            center.with_control(which, value + 1e-3 * math.cos(phi),
                                1e-3 * math.sin(phi)) for phi in phis])
        got = ep._loop_controls(spec, phis)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("seeded", [True, False])
    def test_loop_builds_no_params_per_point(self, monkeypatch, seeded):
        # without seeds every step falls back to Newton from the previous
        # step's row, which builds no params either
        spec = all_states_loop(DimerParams(v=1.0, g=-1.0, gamma=0.5),
                               "gamma", 0.05, steps=64)
        if not seeded:
            monkeypatch.setattr(SYSTEM, "packed_candidates", no_candidates)
        calls = {"with_control": 0, "built": 0}
        with_control, post_init = (DimerParams.with_control,
                                   DimerParams.__post_init__)

        def counting_with_control(self, *args):
            calls["with_control"] += 1
            return with_control(self, *args)

        def counting_post_init(self):
            calls["built"] += 1
            post_init(self)

        monkeypatch.setattr(DimerParams, "with_control",
                            counting_with_control)
        monkeypatch.setattr(DimerParams, "__post_init__", counting_post_init)
        tr = encircle(SYSTEM, spec, CFG)
        assert len(tr.states) == 65
        assert tr.fallback_steps == (0 if seeded else 64 * 4)
        assert calls == {"with_control": 0, "built": 0}
        assert root_cycle_type(spec) == tr.cycle_type

    def test_states_read_in_any_order_have_the_same_bits(self):
        spec = all_states_loop(DimerParams(v=1.0, g=-1.0, gamma=EP3_GAMMA),
                               "s", 1e-3, steps=64)
        whole = trace_bits(encircle(SYSTEM, spec, CFG))
        tr = encircle(SYSTEM, spec, CFG)
        assert len(spec.states_to_track) == 4
        assert root_cycle_type(spec) == tr.cycle_type
        order = np.random.default_rng(5).permutation(len(whole)).tolist()
        by_step = {}
        for k in order:
            step = tr.states[k - len(whole) if k % 2 else k]
            assert tr.states[k] is step  # built once
            by_step[k] = trace_bits(SimpleNamespace(states=[step]))[0]
        assert [by_step[k] for k in range(len(whole))] == whole
        assert trace_bits(SimpleNamespace(states=tr.states[2:9:3])) == (
            whole[2:9:3])
        assert tr.start_states() is tr.states[0]
        assert tr.end_states() is tr.states[-1]
        assert trace_bits(tr) == whole


class TestDoubledRetry:
    """A loop whose match margin is <= 2 runs once more at twice the steps;
    if that pass is no better, encircle raises AmbiguousMatch."""

    def test_unreliable_first_pass_retries_at_double_steps(self,
                                                           monkeypatch):
        spec = make_tangent_loop(steps=64)
        doubled = encircle(SYSTEM, make_tangent_loop(steps=128), CFG)
        real, calls = ep._match_margin, []

        def first_call_ambiguous(dists):
            calls.append(dists)
            return 1.0 if len(calls) == 1 else real(dists)

        monkeypatch.setattr(ep, "_match_margin", first_call_ambiguous)
        tr = encircle(SYSTEM, spec, CFG)
        assert tr.spec.steps == 2 * spec.steps
        assert len(tr.phis) == len(tr.states) == 2 * spec.steps + 1
        assert tr.reliable and tr.match_margin > 2
        assert tr.permutation == [1, 0]
        assert trace_bits(tr) == trace_bits(doubled)

    def test_unreliable_both_passes_raise(self, monkeypatch):
        monkeypatch.setattr(ep, "_match_margin", lambda dists: 1.0)
        with pytest.raises(AmbiguousMatch, match="doubled resolution"):
            encircle(SYSTEM, make_tangent_loop(steps=16), CFG)


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


def q_roots(p):
    """The four roots of the dimer's quartic Q at the plus components of
    the controls of p (in units of v), Q's coefficients written out here
    from the quartic in :class:`~bcdimer.model.DimerSystem`'s docstring."""
    g, gamma, s = (p.control(name).to_idempotent().plus / p.v
                   for name in ("g", "gamma", "s"))
    gg, g2 = gamma * gamma, g * g
    return np.roots([
        2 * gamma - 1j * g,
        -8j * gg - 2 * gamma * g + 8 * gamma * s - 1j * g2 - 2j * g * s,
        (-8 * gg * gamma - 16j * gg * s - 2 * gamma * g2 + 8 * gamma * s * s
         - 4 * gamma),
        8j * gg - 2 * gamma * g - 8 * gamma * s + 1j * g2 - 2j * g * s,
        2 * gamma + 1j * g,
    ])


def root_cycle_type(spec, max_halvings=7):
    """The cycle type of the permutation of Q's four roots around the loop
    of ``spec``, with no Newton, gauge or state: at g != 0 each root is one
    state.  Roots are matched from one loop point to the next by the least
    total distance; the phi step halves, for the rest of the loop, while 4
    times the largest move exceeds the smallest gap between the roots."""
    total = (-1.0 if spec.reverse else 1.0) * 2 * math.pi * spec.turns
    maps = [list(m) for m in itertools.permutations(range(4))]
    start = current = q_roots(loop_point(spec, 0.0))
    n, k, halvings = spec.steps * spec.turns, 0, 0
    while k < n:
        roots = q_roots(loop_point(spec, total * (k + 1) / n))
        moved = min((roots[m] for m in maps),
                    key=lambda r: np.abs(r - current).sum())
        gap = min(abs(a - b) for a, b in itertools.combinations(current, 2))
        if 4 * np.abs(moved - current).max() > gap:
            assert halvings < max_halvings, "the roots crowd"
            n, k, halvings = 2 * n, 2 * k, halvings + 1
            continue
        current, k = moved, k + 1
    perm = [int(np.abs(start - x).argmin()) for x in current]
    assert sorted(perm) == [0, 1, 2, 3]
    return ep._cycles(perm)


class TestRootMonodromy:
    """Q's roots followed around a loop give its permutation without
    Newton; every loop of the direction-1 table in ROADMAP.md with
    |g| >= 0.05 v (below that the roots crowd as Q tends to a square)."""

    @pytest.mark.parametrize("g, gamma, which, radius, loop, cycle_type", [
        (0.1, 1.0, "gamma", 0.01, {}, [2, 2]),
        (-1.0, 1.0, "gamma", 1e-3, {}, [2, 1, 1]),
        (-1.0, 1.0, "gamma", 1e-3, {"turns": 2}, [1, 1, 1, 1]),
        (-1.0, 1.0, "gamma", 1e-3, {"reverse": True}, [2, 1, 1]),
        (-1.0, EP3_GAMMA, "gamma", 1e-3, {}, [2, 1, 1]),
        (-1.0, EP3_GAMMA, "s", 1e-3, {}, [3, 1]),
        (-1.0, EP3_GAMMA, "g", 1e-3, {}, [2, 1, 1]),
        (-2.0, 0.0, "gamma", 2e-3, {}, [1, 1, 1, 1]),
        (-2.0, 0.0, "s", 2e-3, {}, [3, 1]),
        (-2.0, 0.0, "g", 2e-3, {}, [2, 1, 1]),
        (-1.0, 0.5, "gamma", 0.05, {}, [1, 1, 1, 1]),
        (0.05, 1.0, "gamma", 0.01, {}, [2, 2]),
    ])
    def test_same_cycle_type_as_encircle(self, g, gamma, which, radius, loop,
                                         cycle_type):
        spec = all_states_loop(DimerParams(v=1.0, g=g, gamma=gamma), which,
                               radius, **loop)
        assert len(spec.states_to_track) == 4
        assert root_cycle_type(spec) == cycle_type
        assert encircle(SYSTEM, spec, CFG).cycle_type == cycle_type


def ep4_center(v, g_sign, s_sign):
    """An EP4 of the dimer: at plus components (g, gamma, s) = (-2i g_sign,
    sqrt(3)/2, s_sign/2) v, Q is a fourth power, reached only with a purely
    j-continued nonlinearity."""
    return DimerParams(v, g=Bicomplex(0.0, g_sign * 2 * v),
                       gamma=math.sqrt(3) / 2 * v, s=s_sign * v / 2)


EP4_CENTERS = [pytest.param(v, g_sign, s_sign,
                            id=f"v{v:g}-g{g_sign:+d}j-s{s_sign:+d}")
               for v in (1.0, 2.0) for g_sign in (1, -1) for s_sign in (1, -1)]


class TestEP4:
    """All four states coalesce at the EP4, and a gamma- or s-loop round it
    permutes them in one 4-cycle (ROADMAP direction 10)."""

    @pytest.mark.parametrize("v, g_sign, s_sign", EP4_CENTERS)
    def test_one_state_at_the_center(self, v, g_sign, s_sign):
        center = ep4_center(v, g_sign, s_sign)
        assert len(find_all_states(SYSTEM, center, CFG)) == 1

    @pytest.mark.parametrize("radius", [1e-2, 1e-3])
    @pytest.mark.parametrize("which", ["gamma", "s"])
    @pytest.mark.parametrize("v, g_sign, s_sign", EP4_CENTERS)
    def test_loops_give_one_four_cycle(self, v, g_sign, s_sign, which,
                                       radius):
        spec = all_states_loop(ep4_center(v, g_sign, s_sign), which, radius)
        assert len(spec.states_to_track) == 4
        trace = encircle(SYSTEM, spec, CFG)
        assert trace.cycle_type == [4]
        assert trace.fallback_steps == 0
        assert trace.reliable
        assert root_cycle_type(spec) == [4]

    @pytest.mark.parametrize("v", [1.0, 2.0])
    def test_classify_bounds_the_order_by_four(self, v):
        center = ep4_center(v, 1, 1)
        report = classify_ep(SYSTEM, [
            encircle(SYSTEM, all_states_loop(center, which, 1e-2), CFG)
            for which in ("gamma", "s")], CFG)
        assert report.cycle_types == {"gamma": [4], "s": [4]}
        assert report.order_lower_bound == 4

    @pytest.mark.parametrize("v", [1.0, 2.0])
    def test_classify_sees_the_states_coalesce(self, v):
        center = ep4_center(v, 1, 1)
        report = classify_ep(SYSTEM, [
            encircle(SYSTEM, all_states_loop(center, "s", 1e-2), CFG)], CFG)
        # all four tracked states map to the one state found at the center
        assert report.states_coalesce
        assert report.max_pairwise_center_distance == 0.0


class TestFallbackBisection:
    """A fallback step that fails bisects in phi; one that never converges
    raises TrackingLost.  On the dimer with no seeds every state of every
    step takes the fallback, whose Newton calls have one seed each."""

    @staticmethod
    def spec():
        return all_states_loop(DimerParams(v=1.0, g=-1.0, gamma=1.0),
                               "gamma", 1e-3, steps=64)

    def test_a_failed_first_try_is_bisected(self, monkeypatch):
        spec = self.spec()
        want = encircle(REF.NoSeeds(), spec, CFG)
        assert want.spec.steps == 64 and want.cycle_type == [2, 1, 1]
        steps = {row.tobytes() for row in ep._loop_controls(spec,
                                                           want.phis[1:])}
        solve_at, failed = ep._solve_at, []

        def first_try_fails(system, controls, seeds, cfg):
            if controls.tobytes() in steps - set(failed):
                failed.append(controls.tobytes())
                raise NoConvergence("first try")
            return solve_at(system, controls, seeds, cfg)

        monkeypatch.setattr(ep, "_solve_at", first_try_fails)
        got = encircle(REF.NoSeeds(), spec, CFG)
        assert len(failed) == 64
        assert got.spec.steps == 64
        assert got.cycle_type == want.cycle_type
        assert got.permutation == want.permutation
        assert got.fallback_steps == want.fallback_steps == 4 * 64

    @staticmethod
    def fallback_never_converges(monkeypatch):
        """ep._solve_at failing every one-seed call; its calls."""
        solve_at, calls = ep._solve_at, []

        def never(system, controls, seeds, cfg):
            if len(seeds) > 1:  # the loop's start
                return solve_at(system, controls, seeds, cfg)
            calls.append(controls)
            raise NoConvergence("never")

        monkeypatch.setattr(ep, "_solve_at", never)
        return calls

    def test_a_fallback_that_never_converges_is_lost(self, monkeypatch):
        spec = self.spec()
        calls = self.fallback_never_converges(monkeypatch)
        with pytest.raises(ep.TrackingLost,
                           match=r"between phi=0\.0000 and phi=0\.0004"):
            encircle(REF.NoSeeds(), spec, CFG)
        # phi1 = 2 pi / 64, then its halves down to depth 8
        step = 2.0 * math.pi / 64
        assert [c.tolist() for c in calls] == [
            ep._loop_controls(spec, [step / 2 ** d]).tolist()
            for d in range(9)]

    def test_the_cli_maps_tracking_lost_to_exit_3(self, monkeypatch, capsys,
                                                  tmp_path):
        from bcdimer.cli import run

        monkeypatch.setattr(ep, "_candidate_solves",
                            lambda system, controls, cfg:
                            solver._candidate_solves(REF.NoSeeds(), controls,
                                                     cfg))
        calls = self.fallback_never_converges(monkeypatch)
        assert run(["encircle", "--g", "-1", "--gamma", "1", "--radius",
                    "1e-3", "--steps", "64", "--track", "all",
                    "--out", str(tmp_path)]) == 3
        (line,) = capsys.readouterr().out.strip().splitlines()
        out = json.loads(line)
        assert out["error"] == "TrackingLost"
        assert out["message"].startswith("state lost between phi=0.0000")
        assert len(calls) == 9
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("which", ["gamma", "g", "s"])
    def test_looped_control_must_be_real_at_the_center(self, which):
        # the loop sets the looped control's j part: one at the center
        # would be dropped without a word
        center = DimerParams(v=1.0, g=0.5, gamma=0.3, s=0.1)
        value = center.control(which).z0
        spec = LoopSpec(center=center.with_control(which, value, 0.2),
                        which=which, radius=0.01, states_to_track=[None])
        with pytest.raises(ValueError, match="j part"):
            spec.validate()
        with pytest.raises(ValueError, match="j part"):
            encircle(SYSTEM, spec, CFG)
        # the loop keeps the j part of every other control
        other = next(name for name in ("gamma", "g", "s") if name != which)
        LoopSpec(center=center.with_control(other, 0.3, 0.2), which=which,
                 radius=0.01, states_to_track=[None]).validate()

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
