import importlib.util
import json
from pathlib import Path

import pytest


def _load_bench_pairs():
    """tools/bench_pairs.py is a script, not part of the package."""
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("_bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_PAIRS = _load_bench_pairs()
HIGHER = {"unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"unit": "s", "better": "lower", "bound": 0.25}


def verdict(spec, before, after):
    return BENCH_PAIRS._compare(spec, before, after)["bound_verdict"]


class TestBoundVerdict:
    def test_small_change_with_narrow_spread_is_within(self):
        before = [10.0, 10.1, 9.9, 10.0]
        assert verdict(HIGHER, before, [9.5, 9.6, 9.4, 9.5]) == "within"
        assert verdict(LOWER, before, [10.5, 10.6, 10.4, 10.5]) == "within"

    def test_large_loss_with_narrow_spread_is_worse(self):
        before = [10.0, 10.1, 9.9, 10.0]
        assert verdict(HIGHER, before, [7.0, 7.1, 6.9, 7.0]) == "worse"
        assert verdict(LOWER, before, [13.0, 13.1, 12.9, 13.0]) == "worse"

    @pytest.mark.parametrize("spec", [HIGHER, LOWER])
    def test_spread_wider_than_the_bound_is_unresolved(self, spec):
        # Parent quartiles 7.5 and 12.5: IQR 5 on a median of 10, over 25 %.
        before = [5.0, 7.5, 10.0, 12.5, 15.0]
        assert verdict(spec, before, [10.0, 10.0, 10.0, 10.0, 10.0]) \
            == "unresolved"
        # Even a median that reads better stays unresolved.
        better = 11.0 if spec["better"] == "higher" else 9.0
        assert verdict(spec, before, [better] * 5) == "unresolved"

    def test_wide_spread_is_resolved_when_every_change_run_wins(self):
        before = [5.0, 7.5, 10.0, 12.5, 15.0]
        assert verdict(HIGHER, before, [16.0, 17.0, 18.0, 19.0, 20.0]) \
            == "within"
        assert verdict(LOWER, before, [1.0, 2.0, 3.0, 4.0, 4.5]) == "within"

    def test_claim_needs_nine_wins_in_ten_and_a_gain_over_the_iqr(self):
        before = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.0, 10.1, 9.9, 10.0]
        after = [v + 1.0 for v in before]
        out = BENCH_PAIRS._compare(HIGHER, before, after)
        assert out["change_wins"] == 10 and out["claim_met"]
        after[0] = after[1] = 9.0
        out = BENCH_PAIRS._compare(HIGHER, before, after)
        assert out["change_wins"] == 8 and not out["claim_met"]


class TestBytecode:
    def test_records_the_setting_and_each_sides_pycache(self, tmp_path,
                                                        monkeypatch):
        sides = {"parent": tmp_path / "a", "change": tmp_path / "b"}
        for path in sides.values():
            (path / "src" / "bcdimer").mkdir(parents=True)
        (sides["change"] / "src" / "bcdimer" / "__pycache__").mkdir()
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        assert BENCH_PAIRS._bytecode(sides) == {
            "PYTHONDONTWRITEBYTECODE": "1",
            "pycache": {"parent": False, "change": True}}
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
        out = BENCH_PAIRS._bytecode(sides)
        assert out["PYTHONDONTWRITEBYTECODE"] is None
        assert out["pycache"] == {"parent": False, "change": True}


class TestOneSidedBytecode:
    """A side with src/bcdimer/__pycache__ where the other has none is an
    error: before the first pair, and after the last."""

    @pytest.fixture
    def sides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        sides = {"parent": tmp_path / "a", "change": tmp_path / "b"}
        for path in sides.values():
            (path / "src" / "bcdimer").mkdir(parents=True)
        (sides["parent"] / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 1, "end_to_end": [dict(HIGHER, name="q")]}))
        monkeypatch.setattr(BENCH_PAIRS, "_checkout_info",
                            lambda checkout: {"sha": "0", "dirty": False})
        return sides

    def main(self, sides, tmp_path):
        return BENCH_PAIRS.main([str(sides["parent"]), str(sides["change"]),
                                 "--workload", "loops", "--seed", "1",
                                 "--pairs", "2",
                                 "--out", str(tmp_path / "record.json")])

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_before_the_first_pair(self, sides, tmp_path, monkeypatch,
                                   capsys, side):
        (sides[side] / "src" / "bcdimer" / "__pycache__").mkdir()
        monkeypatch.setattr(BENCH_PAIRS, "_run", None)  # never called
        with pytest.raises(SystemExit) as exc:
            self.main(sides, tmp_path)
        assert exc.value.code == 2
        assert f"only the {side} side" in capsys.readouterr().err
        assert not (tmp_path / "record.json").exists()

    @pytest.mark.parametrize("compiled", [(), ("change",),
                                          ("parent", "change")])
    def test_after_the_last_pair(self, sides, tmp_path, monkeypatch, capsys,
                                 compiled):
        def run(checkout, ns, seconds):
            for side in compiled:
                (sides[side] / "src" / "bcdimer" / "__pycache__").mkdir(
                    exist_ok=True)
            return {"metrics": {"q": {"value": 1.0}}, "failed": 0,
                    "correct": True}

        monkeypatch.setattr(BENCH_PAIRS, "_run", run)
        code = self.main(sides, tmp_path)
        record = json.loads((tmp_path / "record.json").read_text())
        assert record["bytecode"]["after"]["pycache"] == {
            side: side in compiled for side in sides}
        err = capsys.readouterr().err
        if len(compiled) == 1:
            assert code == 2 and "only the change side" in err
        else:
            assert code == 0 and "error" not in err
