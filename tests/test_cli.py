import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bcdimer
from bcdimer import cli, ep
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

    def test_finite_difference_jacobian_is_a_usage_error(self, capsys):
        assert run(["solve", "--jacobian", "finite-difference"]) == 2
        out = summary(capsys)
        assert out["error"] == "usage"
        assert "invalid choice: 'finite-difference'" in out["message"]

    @pytest.mark.parametrize("g,gamma", [("-1", "0.5"), ("0.5", "1.2")])
    def test_explicit_analytic_jacobian_is_the_default(self, capsys, g, gamma):
        assert run(["solve", "--g", g, "--gamma", gamma]) == 0
        default = summary(capsys)
        assert run(["solve", "--g", g, "--gamma", gamma,
                    "--jacobian", "analytic"]) == 0
        assert summary(capsys) == default

    def test_solve_where_q_has_a_double_zero_root(self, capsys):
        # at gamma = 0, gamma_j = g/2 the two lowest coefficients of Q vanish
        assert run(["solve", "--g", "1", "--gamma-j", "0.5"]) == 0
        assert summary(capsys)["n_states"] == 2

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
        # a j part that the loop, or the real-gamma locators, would drop
        ["encircle", "--g", "0.5", "--gamma", "0.3", "--gamma-j", "0.2",
         "--track", "all"],
        ["encircle", "--s-j", "0.1", "--param", "s"],
        ["encircle", "--around", "tangent", "--g", "0.5", "--gamma-j", "0.2",
         "--track", "all"],
        ["encircle", "--around", "pitchfork", "--g", "-1", "--gamma-j",
         "0.2", "--param", "s", "--track", "all"],
        ["classify", "--param", "gamma", "--param", "s", "--s-j", "0.1"],
        # a control looped twice
        ["classify", "--param", "gamma", "--param", "gamma", "--around",
         "pitchfork", "--g", "-1", "--track", "all"],
    ])
    def test_bad_value_is_a_usage_error(self, capsys, monkeypatch, args):
        def no_solving(*_args, **_kwargs):
            raise AssertionError("solved before the settings were checked")

        monkeypatch.setattr(cli, "_resolve_center", no_solving)
        monkeypatch.setattr(cli, "find_all_states", no_solving)
        assert run(args) == 2
        assert summary(capsys)["error"] == "usage"

    # far more grid or loop points than the cap: rejected with the count
    # before any point is made, where 1e12 points would exhaust memory
    @pytest.mark.parametrize("args,count", [
        (["sweep", "--gamma-range", "0:1:1e-12"], "1000000000001"),
        (["sweep", "--g-range=-1e308:1e308:1e-300"], "inf"),
        (["bifurcations", "--gamma-range", "0:1:1e-12"], "1000000000001"),
        (["encircle", "--steps", "1000000000000"], "1000000000001"),
        (["encircle", "--steps", "50000", "--turns", "3"], "150001"),
        (["classify", "--steps", "1000000000000"], "1000000000001"),
    ])
    def test_too_many_points_is_a_usage_error(self, capsys, monkeypatch,
                                              args, count):
        def no_solving(*_args, **_kwargs):
            raise AssertionError("solved before the points were counted")

        for name in ("_resolve_center", "find_all_states",
                     "stitched_branches"):
            monkeypatch.setattr(cli, name, no_solving)
        assert run(args) == 2
        out = summary(capsys)
        assert out["error"] == "usage"
        assert f"has {count} points, more than 100000" in out["message"]

    def test_point_cap_is_inclusive(self):
        assert len(cli._grid((0.0, 99999.0, 1.0))) == cli._MAX_POINTS
        with pytest.raises(cli._Usage, match="has 100001 points"):
            cli._grid((0.0, 100000.0, 1.0))

    @pytest.mark.parametrize("command", ["solve", "merger", "encircle",
                                         "classify"])
    def test_controls_are_checked_before_the_tolerance(self, capsys,
                                                       command):
        assert run([command, "--tol", "0", "--v", "-1"]) == 2
        assert "coupling v must be positive" in summary(capsys)["message"]

    @pytest.mark.parametrize("args", [
        ["bifurcations", "--g", "-1", "--gamma-j", "0.1"],
        ["sweep", "--g", "-1", "--gamma-range", "0:1.4:0.01", "--gamma-j",
         "0.1"],
    ])
    def test_gamma_scan_refuses_a_j_part(self, capsys, monkeypatch,
                                         tmp_path, args):
        # the scan sweeps gamma's real part and would drop its j part
        def no_solving(*_args, **_kwargs):
            raise AssertionError("solved before the settings were checked")

        monkeypatch.setattr(cli, "stitched_branches", no_solving)
        monkeypatch.setattr(DimerSystem, "bifurcation_set", no_solving)
        out_dir = tmp_path / "out"
        assert run(args + ["--out", str(out_dir)]) == 2
        assert summary(capsys) == {
            "error": "usage",
            "message": "--gamma-range scans a real gamma; --gamma-j must be "
                       "0, got 0.1"}
        assert not out_dir.exists()

    def test_g_scan_keeps_the_j_part_of_gamma(self, capsys):
        assert run(["sweep", "--gamma", "0.5", "--gamma-j", "0.1",
                    "--g-range=-1:1:0.5"]) == 0
        assert summary(capsys)["parameter"] == "g"

    def test_loop_keeps_the_j_part_of_another_control(self, capsys):
        assert run(["encircle", "--g", "0.5", "--gamma", "0.3", "--gamma-j",
                    "0.2", "--param", "s", "--track", "all"]) == 0
        assert summary(capsys)["which"] == "s"

    def test_merger_window_is_not_a_grid(self, capsys):
        # merger's lo:hi:step keeps the syntax; its step makes no points
        assert run(["merger", "--g-range=-2.5:-0.1:1e-12"]) == 0
        assert summary(capsys)["g_star"] == pytest.approx(-2.0)

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # build_parser is cached; a run must parse as a fresh parser would,
        # and classify's --param list must not carry over between calls
        calls = [["solve", "--g", "-1", "--gamma", "0.5"],
                 ["classify", "--steps", "16", "--param", "gamma",
                  "--param", "s"],
                 ["classify", "--steps", "16"],
                 ["classify", "--steps", "16", "--param", "s"]]
        assert cli.build_parser() is cli.build_parser()
        shared = []
        for argv in calls:
            assert vars(cli.build_parser().parse_args(argv)) == vars(
                cli.build_parser.__wrapped__().parse_args(argv))
            assert run(argv) == 0
            shared.append(summary(capsys))
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        for argv, got in zip(calls, shared):
            assert run(argv) == 0
            assert got == summary(capsys)

    @pytest.mark.parametrize("args", [
        ["sweep", "--gamma-range", "0:1:0.5", "--g-range=-1:1:1"],
        ["sweep", "--g", "1"],
    ])
    def test_sweep_takes_exactly_one_range(self, capsys, monkeypatch, args):
        def no_solving(*_args, **_kwargs):
            raise AssertionError("swept with a range left out")

        monkeypatch.setattr(cli, "stitched_branches", no_solving)
        assert run(args) == 2
        out = summary(capsys)
        assert out["error"] == "usage"
        assert "--g-range" in out["message"]

    def test_missing_pitchfork_is_a_numerical_failure(self, capsys):
        code = run(["encircle", "--around", "pitchfork", "--g", "-2.5"])
        assert code == 3
        assert summary(capsys)["error"] == "NoConvergence"

    def test_ambiguous_loop_is_a_numerical_failure(self, capsys,
                                                   monkeypatch):
        # no margin above 2 at either resolution
        monkeypatch.setattr(ep, "_match_margin", lambda dists: 1.0)
        assert run(["encircle", "--around", "tangent", "--g", "0",
                    "--steps", "16"]) == 3
        out = summary(capsys)
        assert out["error"] == "AmbiguousMatch"
        assert "doubled resolution" in out["message"]

    @pytest.mark.parametrize("args", [
        ["solve", "--g", "1e100", "--gamma", "0.5"],
        ["solve", "--s", "1e100", "--g", "1"],
        ["solve", "--g", "1e155", "--gamma", "1"],
        ["solve", "--v", "1e-300", "--g", "1"],
        ["sweep", "--g-range=1e150:1e160:1e159"],
        ["solve", "--gamma", "1e10"],
        ["solve", "--g", "1e-200", "--gamma", "1e-200", "--s", "1e160"],
        # the discriminant of Q overflows in the bifurcation locators
        ["bifurcations", "--g", "1e300"],
        ["bifurcations", "--g", "1", "--v", "1e-300"],
        ["bifurcations", "--g", "-1", "--gamma-range", "1e300:1e301:1e300"],
        ["merger", "--gamma", "1e300"],
        ["merger", "--g-range=-1e300:1e300:1"],
        ["encircle", "--around", "tangent", "--g", "1e300"],
        ["classify", "--around", "pitchfork", "--g", "1e300"],
        ["encircle", "--around", "merger", "--gamma", "1e300"],
        ["bifurcations", "--g", "1e100"],  # finite Q, overflowing interpolant
    ])
    def test_overflowing_controls_keep_the_contract(self, capsys, args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(args)
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1
        out = json.loads(captured.out)
        assert isinstance(out, dict)
        assert not caught and not captured.err
        if args[0] in ("solve", "sweep"):
            assert code in (0, 3)
        else:
            # a scan that overflows proves no absence (the tangent at
            # gamma = v exists for every g), so no locator reads it as none
            assert code == 3
            assert out["error"] == "NoConvergence"
            assert "overflow" in out["message"]


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

    # a negative value in exponent form, a range with a negative end, or a
    # negative infinity or nan, given as the next argument reads as it does
    # after "="; argparse alone took it for an option ("expected one
    # argument"), where a non-finite control is the typed usage error
    @pytest.mark.parametrize("option,value,args", [
        ("--g", "-1e-3", ["solve", "--gamma", "0.3"]),
        ("--g", "-2.5E+0", ["solve", "--format", "json"]),
        ("--s", "-.5e-1", ["solve", "--g", "1"]),
        ("--g-range", "-2.5:-0.1:0.1", ["merger"]),
        ("--gamma-range", "-0.2:0.3:0.05", ["bifurcations", "--g", "-1e-1"]),
        ("--g-range", "-1e-1:1e-1:5e-2", ["sweep", "--gamma", "0.5"]),
        ("--g", "-inf", ["solve"]),
        ("--g", "-Infinity", ["solve"]),
        ("--gamma", "-INF", ["solve"]),
        ("--s", "-nan", ["solve", "--g", "1"]),
        ("--g", "-NaN", ["solve"]),
    ])
    def test_negative_values_read_as_after_equals(self, tmp_path, capsys,
                                                  option, value, args):
        finite = not value[1:].lower().startswith(("inf", "nan"))
        code = 0 if finite else 2
        got = []
        for k, given in enumerate(([option, value], [f"{option}={value}"])):
            out = tmp_path / str(k)
            assert run([*args, *given, "--out", str(out)]) == code
            got.append(capsys.readouterr() +
                       ({path.name: path.read_bytes()
                         for path in sorted(out.glob("*"))},))
        assert got[0] == got[1]
        summary = json.loads(got[0][0])
        if finite:
            assert "error" not in summary
        else:
            assert summary["error"] == "usage"
            assert summary["message"].startswith(
                f"control {option[2:]} must be finite")

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
        out = summary(capsys)
        assert out["cycle_type"] == [2]
        assert out["fallback_steps"] == 0

    def test_merger_gamma_loop_needs_no_doubled_retry(self, capsys, tmp_path):
        assert run(["encircle", "--around", "merger", "--track", "all",
                    "--param", "gamma", "--out", str(tmp_path)]) == 0
        assert summary(capsys)["permutation"] == [0, 1, 2, 3]
        loop = json.loads((tmp_path / "trace_summary.json").read_text())
        assert loop["steps"] == 128
        assert loop["match_margin"] > 2
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(rows) == 1 + 128 + 1  # header, steps, closing point

    def test_one_tracked_state_writes_valid_json(self, capsys, tmp_path):
        # one tracked state has no second-nearest state, so the library's
        # match margin is inf; JSON (RFC 8259) has no token for it
        def strict(token):
            raise ValueError(f"{token} is not JSON")

        assert run(["encircle", "--around", "tangent", "--g", "0.5",
                    "--out", str(tmp_path)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        for text in (line, (tmp_path / "trace_summary.json").read_text()):
            loop = json.loads(text, parse_constant=strict)
            assert loop["match_margin"] is None
            assert loop["permutation"] == [0] and loop["cycle_type"] == [1]

    def test_merger_g_loop_needs_no_fallback(self, capsys):
        # the mirror pair shares mu all round this loop; their rows do not
        assert run(["encircle", "--around", "merger", "--param", "g",
                    "--track", "all"]) == 0
        out = summary(capsys)
        assert out["cycle_type"] == [2, 1, 1]
        assert out["fallback_steps"] == 0

    @pytest.mark.parametrize("v,gamma", [("1", "0.3"), ("1.2", "0.9")])
    def test_merger_loop_centers_at_the_given_gamma(self, capsys, v, gamma):
        # the pitchfork reaches gamma at |g| = 2 sqrt(v^2 - gamma^2)
        assert run(["encircle", "--around", "merger", "--v", v,
                    "--gamma", gamma, "--track", "all"]) == 0
        out = summary(capsys)
        v, gamma = float(v), float(gamma)
        assert out["center"]["gamma"] == gamma
        assert abs(out["center"]["g"]
                   + 2 * math.sqrt(v * v - gamma * gamma)) < 1e-12
        assert out["cycle_type"] == [2, 1, 1]

    @pytest.mark.parametrize("v", ["0.5", "2"])
    def test_merger_window_scales_with_v(self, capsys, v):
        # the merger is at g = -2v, outside (-2.5, -0.1) for v > 1.25
        assert run(["merger", "--v", v]) == 0
        assert abs(summary(capsys)["g_star"] + 2 * float(v)) < 1e-12
        assert run(["encircle", "--around", "merger", "--v", v,
                    "--track", "all"]) == 0
        assert abs(summary(capsys)["center"]["g"] + 2 * float(v)) < 1e-12

    def test_merger_reports_the_j_part_of_gamma(self, capsys):
        # the pitchfork reaches gamma = 0.2j at |g| = 2 sqrt(1 + 0.2^2)
        assert run(["merger", "--gamma-j", "0.2"]) == 0
        out = summary(capsys)
        assert (out["gamma_star"], out["gamma_star_j"]) == (0.0, 0.2)
        assert out["g_star"] == -2.039607805437114
        assert abs(out["g_star"] + 2 * math.sqrt(1.04)) < 1e-12
        assert run(["merger"]) == 0
        assert summary(capsys)["gamma_star_j"] == 0.0

    def test_loops_report_the_j_parts_of_their_center(self, capsys,
                                                      tmp_path):
        # the merger at gamma = 0.2j, and a tangent loop at s = 0.1j; the
        # real parts stay under "center"
        assert run(["encircle", "--around", "merger", "--gamma-j", "0.2",
                    "--param", "g", "--track", "all"]) == 0
        out = summary(capsys)
        assert out["center"]["gamma"] == 0.0
        assert out["center"]["g"] == -2.039607805437114
        assert out["center_j"] == {"gamma": 0.2, "g": 0.0, "s": 0.0}
        assert run(["classify", "--g", "0.5", "--gamma", "0.3", "--s-j",
                    "0.1", "--param", "g", "--track", "all", "--out",
                    str(tmp_path)]) == 0
        want = {"gamma": 0.0, "g": 0.0, "s": 0.1}
        assert summary(capsys)["center_j"] == want
        report = json.loads((tmp_path / "ep_report.json").read_text())
        assert report["center_j"] == want
        assert report["center"]["s"] == 0.0 and report["center"]["g"] == 0.5

    def test_merger_loop_off_symmetry_has_no_merger(self, capsys):
        # at s != 0 the pitchfork unfolds: there is no merger to loop around,
        # as `bcdimer merger --s 0.05` reports too
        args = ["--s", "0.05"]
        assert run(["merger"] + args) == 3
        assert summary(capsys)["error"] == "NoMerger"
        assert run(["encircle", "--around", "merger"] + args) == 3
        assert summary(capsys)["error"] == "NoMerger"

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

    @pytest.mark.xfail(strict=True, reason="three branches meet at the "
                       "pitchfork, but it names two branch_ids, [0, 3] "
                       "(ROADMAP direction 4)")
    @pytest.mark.parametrize("g", ["1.2", "-1.2"])
    def test_pitchfork_names_three_branches(self, capsys, tmp_path, g):
        assert run(["bifurcations", "--g", g, "--out", str(tmp_path)]) == 0
        found = json.loads((tmp_path / "bifurcations.json").read_text())
        pitchfork, = [pt for pt in found if pt["kind"] == "pitchfork"]
        assert pitchfork["location"] == 0.8
        assert len(pitchfork["branch_ids"]) == 3

    @pytest.mark.xfail(strict=True, reason="at g = 0.002 the scan misses "
                       "the tangent at gamma = 1 and reports only the "
                       "pitchfork at 0.999999499999875 (ROADMAP direction "
                       "7)")
    def test_bifurcations_find_the_tangent_at_small_g(self, capsys):
        assert run(["bifurcations", "--g", "0.002"]) == 0
        assert any(kind == "tangent" and abs(loc - 1.0) < 1e-9
                   for kind, loc in points(capsys))

    @pytest.mark.xfail(strict=True, reason="at g = 0.001 the tangent "
                       "locator finds no tangent and the loop exits 3 with "
                       "NoConvergence (ROADMAP direction 7)")
    def test_loop_around_the_tangent_at_small_g(self, capsys):
        assert run(["encircle", "--around", "tangent", "--g", "0.001"]) == 0

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
