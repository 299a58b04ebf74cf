import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bcdimer
from bcdimer import cli
from bcdimer.cli import run
from bcdimer.model import DimerParams, DimerSystem
from bcdimer.solver import find_all_states


def summary(capsys) -> dict:
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def points(capsys) -> list:
    return [(pt["kind"], pt["location"]) for pt in summary(capsys)["points"]]


class TestExitCodes:
    def test_solve_succeeds_with_summary(self, capsys):
        code = run(["solve", "--g", "-1", "--gamma", "0.5"])
        assert code == 0
        out = summary(capsys)
        assert set(out) == {"command", "n_states", "n_complex", "mu"}
        assert out["command"] == "solve"
        assert out["n_states"] == 4
        assert len(out["mu"]) == 4

    @pytest.mark.parametrize("v", ["-1", "0"])
    def test_bad_coupling_is_a_usage_error(self, capsys, v):
        code = run(["solve", "--v", v])
        assert code == 2
        out = summary(capsys)
        assert out["error"] == "usage"
        assert "coupling v must be positive" in out["message"]

    def test_bad_tolerance_is_a_usage_error(self, capsys):
        assert run(["solve", "--tol", "0"]) == 2
        assert summary(capsys)["error"] == "usage"

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert run(["solve", "--seed-grid", "coarse"]) == 2
        out = summary(capsys)
        assert out["error"] == "usage"
        assert "unrecognized arguments: --seed-grid coarse" in out["message"]

    def test_bad_choice_is_a_usage_error(self, capsys):
        assert run(["solve", "--jacobian", "exact"]) == 2
        out = summary(capsys)
        assert out["error"] == "usage"
        assert "invalid choice: 'exact'" in out["message"]

    def test_help_exits_zero(self, capsys):
        assert run(["solve", "--help"]) == 0
        assert "--jacobian" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["solve", "--g", "nan"],
        ["solve", "--gamma", "inf"],
        ["solve", "--s", "nan"],
        ["solve", "--gamma-j", "inf"],
        ["solve", "--v", "inf"],
        ["sweep", "--gamma-range", "0:nan:0.1"],
        ["sweep", "--gamma-range", "0:inf:0.1"],
        ["encircle", "--steps", "4"],
        ["encircle", "--radius", "-1"],
        ["encircle", "--radius", "0"],
        ["encircle", "--radius", "nan"],
        ["encircle", "--turns", "0"],
        ["encircle", "--turns", "-1"],
        ["classify", "--steps", "3"],
        ["sweep", "--format", "json", "--gamma-range", "0:1:0.1"],
    ])
    def test_bad_value_is_a_usage_error(self, capsys, monkeypatch, args):
        def no_solving(*_args, **_kwargs):
            raise AssertionError("solved before the settings were checked")

        monkeypatch.setattr(cli, "_resolve_center", no_solving)
        monkeypatch.setattr(cli, "find_all_states", no_solving)
        assert run(args) == 2
        assert summary(capsys)["error"] == "usage"

    def test_missing_pitchfork_is_a_numerical_failure(self, capsys):
        code = run(["encircle", "--around", "pitchfork", "--g", "-2.5"])
        assert code == 3
        assert summary(capsys)["error"] == "NoConvergence"


class TestArtifacts:
    @pytest.mark.parametrize("fmt,name", [("csv", "states.csv"),
                                          ("json", "states.json")])
    def test_identical_runs_write_identical_bytes(self, tmp_path, capsys,
                                                  fmt, name):
        args = ["solve", "--g", "-1.3", "--gamma", "1.2", "--s", "0.1",
                "--format", fmt]
        texts = []
        for k in range(2):
            out = tmp_path / str(k)
            assert run(args + ["--out", str(out)]) == 0
            texts.append((out / name).read_bytes())
        assert texts[0] == texts[1]
        assert len(texts[0]) > 0


    def test_classify_writes_a_json_report(self, tmp_path, capsys):
        assert run(["classify", "--around", "pitchfork", "--g", "-1",
                    "--track", "all", "--out", str(tmp_path)]) == 0
        assert summary(capsys)["command"] == "classify"
        text = (tmp_path / "ep_report.json").read_text()
        report = json.loads(text)
        assert report["states_coalesce"] is True
        assert '"states_coalesce": true' in text
        assert type(report["max_pairwise_center_distance"]) is float


class TestAnswers:
    def test_loop_past_a_tangent_off_g_zero_needs_track_all(self, capsys):
        # the pair that coalesces at the g = -1 tangent is bicomplex
        assert run(["encircle", "--around", "tangent", "--g", "-1"]) == 3
        assert "--track all" in summary(capsys)["message"]
        assert run(["encircle", "--around", "tangent", "--g", "-1",
                    "--track", "all"]) == 0
        assert summary(capsys)["cycle_type"] == [2]

    @pytest.mark.parametrize("g", ["2.3", "-2.3"])
    def test_bifurcations_beyond_merger_report_only_the_tangent(self, capsys,
                                                                 g):
        # past the merger only the symmetric pair exists; its branches must
        # stop at the fold gamma = v, not ride on onto the bicomplex partner
        assert run(["bifurcations", "--g", g, "--jacobian", "analytic"]) == 0
        points = [(pt["kind"], pt["location"])
                  for pt in summary(capsys)["points"]]
        assert points == [("tangent", 1.0)]

    def test_bifurcations_find_the_pitchfork_near_the_tangent(self, capsys):
        assert run(["bifurcations", "--g", "-0.4"]) == 0
        assert points(capsys) == [("pitchfork", 0.9797958971132712),
                                  ("tangent", 1.0)]

    @pytest.mark.parametrize("g", ["1.2", "-1.2"])
    def test_bifurcations_report_no_spurious_pitchfork(self, capsys, g):
        assert run(["bifurcations", "--g", g]) == 0
        assert points(capsys) == [("pitchfork", 0.8), ("tangent", 1.0)]

    def test_bifurcations_report_both_folds_off_symmetry(self, capsys):
        assert run(["bifurcations", "--g", "1.2", "--s", "0.05"]) == 0
        found = points(capsys)
        assert [kind for kind, _ in found] == ["tangent", "tangent"]
        assert [round(loc, 9) for _, loc in found] == [0.951990632, 1.003563497]
        # each fold changes the number of complex states
        for _, loc in found:
            counts = [
                sum(st.is_complex_state for st in find_all_states(
                    DimerSystem(), DimerParams(g=1.2, gamma=loc + d, s=0.05)))
                for d in (-1e-3, 1e-3)
            ]
            assert counts[0] != counts[1]

    def test_bifurcations_scale_with_v(self, capsys):
        assert run(["bifurcations", "--v", "2", "--g", "1.2",
                    "--gamma-range", "0.05:2.8:0.02"]) == 0
        assert points(capsys) == [("pitchfork", 2 * math.sqrt(0.91)),
                                  ("tangent", 2.0)]


def test_cli_import_leaves_scipy_out():
    src = Path(bcdimer.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, bcdimer.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"
