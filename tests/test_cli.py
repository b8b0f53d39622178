"""Command-line interface: formats, determinism, exit codes."""

import json

import pytest

from trinegame import lp_engine
from trinegame.cli import MAX_GRID_POINTS, _parse_grid, main


def run(argv, tmp_path, name):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


class TestCurve:
    def test_single_point_row(self, tmp_path):
        code, data = run(
            ["curve", "--alpha0", "0.6666666666666666", "--seed", "1"],
            tmp_path,
            "curve.csv",
        )
        assert code == 0
        lines = data.decode().strip().splitlines()
        assert lines[0] == "alpha0,p_q,p_nc"
        assert lines[1] == "0.666667,0.622008,0.500000"

    def test_extreme_point_values_coincide(self, tmp_path):
        code, data = run(
            ["curve", "--alpha0", "1.0", "--include-classical"],
            tmp_path,
            "curve.csv",
        )
        assert code == 0
        row = data.decode().strip().splitlines()[1].split(",")
        assert row[1] == row[2] == row[3] == "0.583333"

    def test_empty_grid_gives_header_only(self, tmp_path):
        code, data = run(["curve", "--grid", "0.9:0.1:0.05"], tmp_path, "curve.csv")
        assert code == 0
        assert data.decode() == "alpha0,p_q,p_nc\n"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["curve", "--grid", "0:1:0.5", "--seed", "3"]
        _, first = run(args, tmp_path, "a.csv")
        _, second = run(args, tmp_path, "b.csv")
        assert first == second

    def test_bad_grid_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--grid", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("grid", ["0:1:inf", "nan:1:0.1", "0:inf:0.1", "0:1:1e-300", "0:1:1e-6"])
    def test_non_finite_or_oversized_grid_is_usage_error(self, grid):
        # 0:1:1e-6 has 10**6 + 1 points, one more than the limit
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--grid", grid])
        assert exc.value.code == 2

    def test_largest_grid_is_accepted(self):
        grid = _parse_grid(f"0:1:{1 / (MAX_GRID_POINTS - 1)!r}")
        assert len(grid) == MAX_GRID_POINTS and grid[-1] == 1.0

    def test_nan_weight_is_an_invalid_value(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--alpha0", "nan", "--out", str(out)]) == 1
        assert "outcome weights (nan, nan, nan) leave [0, 1]" in capsys.readouterr().err
        assert not out.exists()


class TestBounds:
    def test_symmetric_anchor_report(self, tmp_path):
        code, data = run(
            ["bounds", "--alpha0", "0.6666666666666666"],
            tmp_path,
            "bounds.json",
        )
        assert code == 0
        payload = json.loads(data)
        assert payload["all_pass"]
        values = {r["quantity"]: r["value"] for r in payload["results"]}
        assert values["p_q"] == pytest.approx(0.622008, abs=1e-4)
        assert values["p_nc"] == pytest.approx(0.5, abs=1e-9)
        assert values["p_c"] == pytest.approx(7 / 12, abs=1e-9)
        for record in payload["results"]:
            assert set(record) == {"quantity", "value", "reference_value", "tolerance", "pass"}


    def test_nan_weight_is_an_invalid_value(self, capsys):
        assert main(["bounds", "--alpha0", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: outcome weights (nan, nan, nan) leave [0, 1]\n"

    @pytest.mark.parametrize("alpha0", ["0", "0.925"])
    def test_upper_record_brackets_p_q(self, tmp_path, alpha0):
        code, data = run(["bounds", "--alpha0", alpha0], tmp_path, "bounds.json")
        assert code == 0
        records = {r["quantity"]: r for r in json.loads(data)["results"]}
        p_q, upper = records["p_q"]["value"], records["p_q_upper"]["value"]
        assert records["p_q_upper"]["pass"]
        assert p_q <= upper <= p_q + 1e-8


class TestSimulate:
    def test_five_outcome_report(self, tmp_path):
        code, data = run(["simulate", "5"], tmp_path, "sim.json")
        assert code == 0
        payload = json.loads(data)
        values = {r["quantity"]: r["value"] for r in payload["results"]}
        assert values["h0"] == pytest.approx(0.894427191, abs=1e-9)
        assert values["h1"] == pytest.approx(0.552786404, abs=1e-9)
        assert values["element_residual"] < 1e-12
        assert values["target_extremal"] == 0.0
        assert values["members_extremal"] == 1.0

    def test_zero_tolerance_is_kept(self, tmp_path):
        code, data = run(["simulate", "5", "--tol", "0"], tmp_path, "sim.json")
        records = {r["quantity"]: r for r in json.loads(data)["results"]}
        assert records["element_residual"]["tolerance"] == 0.0
        assert code == (0 if records["element_residual"]["value"] == 0.0 else 1)


class TestIncompat:
    def test_full_report_passes(self, tmp_path):
        code, data = run(["incompat", "--polygon-k", "48"], tmp_path, "inc.json")
        assert code == 0
        payload = json.loads(data)
        values = {r["quantity"]: r["value"] for r in payload["results"]}
        assert values["p_prior"] == pytest.approx(2 / 3, abs=1e-12)
        assert values["p_post_upper"] < 0.64
        assert values["witness_margin"] > 0.02
        assert values["pairs_incompatible"] == 10

    def test_lp_failure_exits_with_code_three(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(lp_engine, "_MAX_ITERS", 1)
        out = tmp_path / "inc.json"
        assert main(["incompat", "--polygon-k", "8", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "error: simplex iteration limit exceeded\n"
        assert not out.exists()

    @pytest.mark.parametrize("polygon_k", ["2", "0"])
    def test_polygon_below_three_vertices_is_usage_error(self, polygon_k):
        with pytest.raises(SystemExit) as exc:
            main(["incompat", "--polygon-k", polygon_k])
        assert exc.value.code == 2


class TestCoherence:
    def test_classification_report(self, tmp_path):
        code, data = run(["coherence", "--samples", "60"], tmp_path, "coh.json")
        assert code == 0
        payload = json.loads(data)
        values = {r["quantity"]: r["value"] for r in payload["results"]}
        assert values["trine_free_any_basis"] == 0.0
        assert values["degenerate_sharp_free"] == 1.0
        assert values["formulations_agree"] == 60

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_samples_is_usage_error(self, samples):
        with pytest.raises(SystemExit) as exc:
            main(["coherence", "--samples", samples])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        *([command, "--format", "json"] for command in ("curve", "bounds", "simulate", "incompat", "coherence")),
        *([command, "--restarts", "5"] for command in ("curve", "bounds", "simulate", "incompat", "coherence")),
        *([command, "--tol", "1e-9"] for command in ("curve", "incompat", "coherence")),
    ],
)
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
