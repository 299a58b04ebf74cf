import json

import pytest

from bcdimer.cli import run


def summary(capsys) -> dict:
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


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


class TestAnswers:
    @pytest.mark.parametrize("g", ["2.3", "-2.3"])
    def test_bifurcations_beyond_merger_report_only_the_tangent(self, capsys,
                                                                 g):
        # past the merger only the symmetric pair exists; its branches must
        # stop at the fold gamma = v, not ride on onto the bicomplex partner
        assert run(["bifurcations", "--g", g, "--jacobian", "analytic"]) == 0
        points = [(pt["kind"], pt["location"])
                  for pt in summary(capsys)["points"]]
        assert points == [("tangent", 1.0)]
