import importlib.util
import json
import math
from pathlib import Path


def _load_ref_artifacts():
    """tools/ref_artifacts.py is a script, not part of the package."""
    path = Path(__file__).resolve().parents[1] / "tools" / "ref_artifacts.py"
    spec = importlib.util.spec_from_file_location("_ref_artifacts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REF = _load_ref_artifacts()

CSV = ("param,branch_id,mu_0,is_complex_state,is_pt_symmetric\n"
       "0.05,0,1.0000000000000002,true,true\n"
       "0.05,1,-0.5,true,false\n")


def csv_with(**changes) -> bytes:
    """CSV above with cells replaced: {column}_{row} = new text."""
    lines = [line.split(",") for line in CSV.splitlines()]
    header = lines[0]
    for key, value in changes.items():
        column, row = key.rsplit("_", 1)
        lines[1 + int(row)][header.index(column)] = value
    return ("\n".join(",".join(cells) for cells in lines) + "\n").encode()


class TestCompareCsv:
    def test_identical_bytes(self):
        assert REF.compare("branches.csv", CSV.encode(), CSV.encode()) == {
            "identical": True}

    def test_numbers_within_rounding(self):
        out = REF.compare("branches.csv", CSV.encode(),
                          csv_with(mu_0_0="1.0000000000000004"))
        assert not out["identical"]
        assert math.isclose(out["max_abs_diff"], 2.220446049250313e-16)
        assert out["rows_equal"] and out["ids_equal"] and out["flags_equal"]
        assert out["other_equal"]

    def test_changed_branch_id(self):
        out = REF.compare("branches.csv", CSV.encode(),
                          csv_with(branch_id_0="1", branch_id_1="0"))
        assert not out["ids_equal"]
        assert out["flags_equal"] and out["max_abs_diff"] == 0.0

    def test_changed_flag(self):
        out = REF.compare("branches.csv", CSV.encode(),
                          csv_with(is_pt_symmetric_1="true"))
        assert not out["flags_equal"] and out["ids_equal"]

    def test_missing_row(self):
        short = "\n".join(CSV.splitlines()[:2]) + "\n"
        out = REF.compare("branches.csv", CSV.encode(), short.encode())
        assert not out["rows_equal"] and out["max_abs_diff"] == math.inf


class TestCompareJson:
    REPORT = {"points": [{"kind": "tangent", "location": 1.0,
                          "branch_ids": [0, 3], "continuing_branch_id": None,
                          "mu": [0.5, 0.0, -0.25, 0.0]}],
              "states": [{"is_complex_state": True, "is_pt_symmetric": False,
                          "residual_norm": 1e-16}]}

    def dumps(self, value) -> bytes:
        return json.dumps(value, sort_keys=True).encode()

    def changed(self, edit):
        other = json.loads(json.dumps(self.REPORT))
        edit(other)
        return REF.compare("bifurcations.json", self.dumps(self.REPORT),
                           self.dumps(other))

    def test_nested_number(self):
        out = self.changed(lambda r: r["points"][0]["mu"].__setitem__(2, -0.5))
        assert out["max_abs_diff"] == 0.25
        assert out["ids_equal"] and out["flags_equal"] and out["other_equal"]

    def test_branch_ids_and_continuing_branch(self):
        out = self.changed(lambda r: r["points"][0].__setitem__(
            "branch_ids", [1, 3]))
        assert not out["ids_equal"] and out["max_abs_diff"] == 0.0
        out = self.changed(lambda r: r["points"][0].__setitem__(
            "continuing_branch_id", 0))
        assert not out["ids_equal"]

    def test_flags_and_strings(self):
        out = self.changed(lambda r: r["states"][0].__setitem__(
            "is_complex_state", False))
        assert not out["flags_equal"] and out["other_equal"]
        out = self.changed(lambda r: r["points"][0].__setitem__(
            "kind", "pitchfork"))
        assert not out["other_equal"] and out["flags_equal"]

    def test_key_added_at_the_top_level(self):
        out = self.changed(lambda r: r.__setitem__("gamma_star_j", 0.2))
        assert out["keys_added"] == ["/gamma_star_j"]
        assert out["keys_removed"] == []
        assert out["rows_equal"] and out["max_abs_diff"] == 0.0
        assert out["ids_equal"] and out["flags_equal"] and out["other_equal"]

    def test_key_added_and_removed_in_a_nested_object(self):
        def edit(r):
            r["points"][0]["gamma_star_j"] = 0.0
            del r["states"][0]["residual_norm"]

        out = self.changed(edit)
        assert out["keys_added"] == ["/points/0/gamma_star_j"]
        assert out["keys_removed"] == ["/states/0/residual_norm"]
        assert out["rows_equal"] and out["other_equal"]

    def test_number_beside_an_added_key_is_measured(self):
        def edit(r):
            r["points"][0]["gamma_star_j"] = 0.2
            r["points"][0]["location"] = 1.5

        out = self.changed(edit)
        assert out["keys_added"] == ["/points/0/gamma_star_j"]
        assert out["max_abs_diff"] == 0.5
        assert out["rows_equal"] and out["ids_equal"]

    def test_structure(self):
        out = self.changed(lambda r: r["points"].append(r["points"][0]))
        assert not out["rows_equal"]
        out = REF.compare("summary.json", b"{", b"{}")
        assert not out["rows_equal"] and out["max_abs_diff"] == math.inf
