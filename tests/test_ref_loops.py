import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bcdimer import solver
from bcdimer.bicomplex import Bicomplex
from bcdimer.ep import encircle
from bcdimer.model import (DimerParams, DimerSystem, StationaryState,
                           control_rows)


def _load_ref_loops():
    """tools/ref_loops.py is a script, not part of the package."""
    path = Path(__file__).resolve().parents[1] / "tools" / "ref_loops.py"
    spec = importlib.util.spec_from_file_location("_ref_loops", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REF = _load_ref_loops()

STATE = StationaryState(Bicomplex(0.5, 0.0, 0.1, 0.0),
                        Bicomplex(0.5, 0.0, -0.1, 0.0),
                        Bicomplex(1.0, 0.0, 0.0, 0.0), 1e-16, True, True)
OTHER = StationaryState(Bicomplex(0.5, 0.0, 0.1, 0.0),
                        Bicomplex(-0.5, 0.0, 0.1, 0.0),
                        Bicomplex(-1.0, 0.0, 0.0, 0.0), 2e-16, True, False)
TRACE = SimpleNamespace(phis=[0.0, 3.141592653589793, 6.283185307179586],
                        states=[[STATE, OTHER], [OTHER, STATE],
                                [STATE, OTHER]],
                        permutation=[0, 1], cycle_type=[1, 1],
                        match_margin=12.5, reliable=True, fallback_steps=0)


def record(**loops):
    """A record of the loop TRACE under the name "a", a failed loop "b",
    one grid of two points and that grid stitched into two branches;
    ``loops`` replaces or adds loops."""
    out = {"loops": {"a": REF.trace_record(TRACE),
                     "b": {"error": "TrackingLost: state lost"}},
           "grids": {"g": [[REF.state_record(STATE)],
                           [REF.state_record(STATE),
                            REF.state_record(OTHER)]]},
           "stitched": {"g": REF.branches_record([
               SimpleNamespace(branch_id=0,
                               samples=[(0.1, STATE), (0.2, STATE)]),
               SimpleNamespace(branch_id=1, samples=[(0.2, OTHER)])])}}
    out["loops"].update(loops)
    return json.loads(json.dumps(out))  # as read back from a process


def nudged(value: float) -> StationaryState:
    """STATE with the first component of mu moved to ``value``."""
    return StationaryState(STATE.psi1, STATE.psi2, Bicomplex(value, 0, 0, 0),
                           STATE.residual_norm, True, True)


class TestRecords:
    def test_floats_are_exact(self):
        row = REF.state_record(STATE)
        assert [float.fromhex(c) for c in row[:13]] == [
            *STATE.psi1.as_tuple(), *STATE.psi2.as_tuple(),
            *STATE.mu.as_tuple(), STATE.residual_norm]
        assert row[13:] == [True, True]
        assert REF.state_record(nudged(1.0000000000000002)) != row

    def test_trace_fields(self):
        rec = REF.trace_record(TRACE)
        assert rec["permutation"] == [0, 1] and rec["cycle_type"] == [1, 1]
        assert float.fromhex(rec["match_margin"]) == 12.5
        assert len(rec["phis"]) == len(rec["states"]) == 3
        assert rec["reliable"] is True and rec["fallback_steps"] == 0


class TestCompare:
    def test_identical(self):
        comparison = REF.compare(record(), record())
        assert comparison == {"loops/a": {"identical": True},
                              "loops/b": {"identical": True},
                              "grids/g": {"identical": True},
                              "stitched/g": {"identical": True}}
        assert REF.verdict(record(), comparison) == {
            "loops": 2, "loop_steps": 3, "grids": 1, "grid_points": 2,
            "stitched": 1, "stitched_samples": 3,
            "not_identical": [], "other_differs": [], "missing": []}

    def test_one_bit_of_one_state(self):
        # a 1-ulp nudge of one float: sized, and nothing else differs
        trace = SimpleNamespace(**vars(TRACE))
        trace.states = [[STATE, OTHER], [OTHER, nudged(1.0000000000000002)],
                        [STATE, OTHER]]
        comparison = REF.compare(record(),
                                 record(a=REF.trace_record(trace)))
        assert comparison["loops/a"] == {
            "identical": False, "at": "/states/1/1/8",
            "max_abs_diff": 2.220446049250313e-16, "other_equal": True}
        out = REF.verdict(record(), comparison)
        assert out["not_identical"] == ["loops/a"]
        assert out["other_differs"] == []

    def test_permutation_margin_and_fallbacks(self):
        for field, value, at, size, other_equal in [
                ("permutation", [1, 0], "/permutation/0", 0.0, False),
                ("match_margin", 12.500000000000002, "/match_margin",
                 1.7763568394002505e-15, True),
                ("fallback_steps", 1, "/fallback_steps", 0.0, False),
                ("reliable", False, "/reliable", 0.0, False)]:
            trace = SimpleNamespace(**vars(TRACE))
            setattr(trace, field, value)
            comparison = REF.compare(record(),
                                     record(a=REF.trace_record(trace)))
            assert comparison["loops/a"] == {
                "identical": False, "at": at, "max_abs_diff": size,
                "other_equal": other_equal}
            assert REF.verdict(record(), comparison)["other_differs"] == (
                [] if other_equal else ["loops/a"])

    def test_a_lost_state_and_an_error(self):
        trace = SimpleNamespace(**vars(TRACE))
        trace.states = [[STATE, OTHER], [OTHER], [STATE, OTHER]]
        comparison = REF.compare(
            record(), record(a=REF.trace_record(trace),
                             b=REF.trace_record(TRACE)))
        assert comparison["loops/a"] == {
            "identical": False, "at": "/states/1 (length 2 != 1)",
            "max_abs_diff": 0.0, "other_equal": False}
        assert comparison["loops/b"] == {
            "identical": False, "at": " (keys)", "max_abs_diff": 0.0,
            "other_equal": False}

    def test_flag_is_not_a_number(self):
        changed = record()
        changed["grids"]["g"][1][1][-1] = 0  # False, as an integer
        assert REF.compare(record(), changed)["grids/g"] == {
            "identical": False, "at": "/1/1/14", "max_abs_diff": 0.0,
            "other_equal": False}

    def test_branch_id_and_sample_value(self):
        for at, field, value in [("/0/id", "id", 2),
                                 ("/1/samples/0/0", "value", 0.2000001)]:
            changed = record()
            branch = changed["stitched"]["g"][int(at[1])]
            if field == "id":
                branch["id"] = value
            else:
                branch["samples"][0][0] = float(value).hex()
            out = REF.compare(record(), changed)["stitched/g"]
            assert (out["identical"], out["at"]) == (False, at)
            assert out["other_equal"] == (field == "value")
            assert out["max_abs_diff"] == pytest.approx(
                1e-7 if field == "value" else 0.0, rel=1e-6)

    def test_sizes_of_nan_and_infinite_floats(self):
        for a, b, size in [(math.nan, math.nan, 0.0),
                           (math.nan, 1.0, math.inf),
                           (math.inf, math.inf, 0.0),
                           (math.inf, 1.0, math.inf)]:
            out = REF.size_difference([a.hex()], [b.hex()], {
                "max_abs_diff": 0.0, "other_equal": True})
            assert out == {"max_abs_diff": size, "other_equal": True}

    def test_missing_on_one_side(self):
        extra = record(c=REF.trace_record(TRACE))
        comparison = REF.compare(record(), extra)
        assert comparison["loops/c"] == {"identical": False, "missing": True}
        out = REF.verdict(record(), comparison)
        assert out["missing"] == ["loops/c"] and out["not_identical"] == []


class TestLoops:
    """The loops of LOOPS take the seed paths that the workload's loops do
    not; each seeded one runs round without a fallback, each seedless one
    falls back at every step of every tracked state, and each one that
    tracks the complex states has more seeds a point than it tracks."""

    def test_seed_paths_and_answers(self):
        system = DimerSystem()
        systems = REF.systems()
        specs = {name: REF.loop_spec(name) for name in REF.LOOPS}
        seeds = {name: len(system.packed_candidates(
            control_rows([spec.center]))[0]) for name, spec in specs.items()}
        assert seeds["tangent g=5e-4"] == 8  # Q's roots and the linear model
        assert specs["s-loop at gamma=0.3+0.2j"].center.gamma.z1 == 0.2
        assert specs["pitchfork v=2"].center.v == 2.0
        assert specs["tangent g=-1, 300 steps"].steps > solver._BLOCK
        tracked = {"tangent g=0, complex states": 2,
                   "tangent g=0.1, complex states": 2,
                   "merger s-loop, complex states": 2}
        cycle_types = {"tangent g=0, complex states": [2],
                       "tangent g=0.1, complex states": [2],
                       "merger s-loop, complex states": [1, 1],
                       "tangent g=5e-4": [2, 2],
                       "tangent g=5e-4, point by point": [2, 2],
                       "s-loop at gamma=0.3+0.2j": [1, 1, 1, 1],
                       "pitchfork v=2": [2, 1, 1],
                       "tangent g=-1, 300 steps": [2, 1, 1],
                       "tangent g=-1, no seeds": [2, 1, 1],
                       "EP3 s-loop, no seeds": [3, 1],
                       "no EP, no seeds": [1, 1, 1, 1]}
        traces = {}
        for name, spec in specs.items():
            assert len(spec.states_to_track) == tracked.get(name, 4)
            assert (seeds[name] > len(spec.states_to_track)) == (
                name in tracked or name.startswith("tangent g=5e-4"))
            trace = encircle(systems[REF.LOOPS[name][0]], spec)
            assert trace.cycle_type == cycle_types[name]
            assert trace.reliable
            if REF.LOOPS[name][0] == "no seeds":
                assert trace.fallback_steps == trace.spec.steps * 4
                # Newton from the previous step reaches the seeded states
                seeded = encircle(system, spec)
                assert seeded.fallback_steps == 0
                assert trace.permutation == seeded.permutation
            else:
                assert trace.fallback_steps == 0
            traces[name] = REF.trace_record(trace)
        # seeds listed point by point give the batched seeds' bits
        assert (traces["tangent g=5e-4, point by point"]
                == traces["tangent g=5e-4"])


class TestPointByPoint:
    """The tool's system lists each point's seeds on their own, with the
    bits of the dimer's batched seeds."""

    def test_seeds_one_point_at_a_time(self, monkeypatch):
        points = [DimerParams(v=1.0, g=g, gamma=Bicomplex(gamma, 0.1))
                  for g in (5e-4, -0.85) for gamma in (0.3, 0.9, 1.2)]
        controls = control_rows(points)
        calls = []
        batched = DimerSystem.packed_candidates
        monkeypatch.setattr(DimerSystem, "packed_candidates",
                            lambda self, c: calls.append(len(c)) or batched(
                                self, c))
        rows, owner = REF.PointByPoint().packed_candidates(controls)
        assert calls == [1] * len(points)
        calls.clear()
        want, want_owner = DimerSystem().packed_candidates(controls)
        assert calls == [len(points)]
        assert rows.tobytes() == want.tobytes()
        assert owner.tolist() == want_owner.tolist()
        assert np.bincount(owner).tolist() == [8, 8, 8, 4, 4, 4]
