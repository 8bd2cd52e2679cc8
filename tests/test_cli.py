"""Command-line harness: artifacts, exit codes, reproducibility, schemas."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from wealthsim.cli import RunConfig, main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def read_json(path):
    return json.loads(Path(path).read_text())


def run_simulate(out, extra=()):
    return main(
        [
            "simulate",
            "--agents", "2",
            "--lambda", "0.95,0.8",
            "--initial-wealth", "1000,2000",
            "--background", "constant",
            "--epsilon", "0.51,0.49",
            "--transactions", "300",
            "--seed", "7",
            "--out", str(out),
            *extra,
        ]
    )


# ------------------------------------------------------------------ simulate


def test_simulate_matches_closed_form_row_by_row(tmp_path):
    import wealthsim as ws

    assert run_simulate(tmp_path / "run") == 0
    header, rows = read_csv(tmp_path / "run" / "trajectory.csv")
    assert header == ["m", "wealth_0", "wealth_1"]
    sol = ws.closed_form(ws.TwoEconomyParams(0.95, 0.8, 0.51, 1000.0, 2000.0))
    xs, ys = ws.evaluate_series(sol, 300)
    assert len(rows) == 301
    for row in rows:
        m = int(row[0])
        assert abs(float(row[1]) - xs[m]) <= 1e-9 * abs(xs[m])
        assert abs(float(row[2]) - ys[m]) <= 1e-9 * abs(ys[m])
        # wealth columns sum row-wise to the initial total
        assert abs(float(row[1]) + float(row[2]) - 3000.0) <= 1e-9 * 3000.0


def test_simulate_frozen_lambda_rows_identical(tmp_path):
    code = main(
        [
            "simulate",
            "--agents", "3",
            "--lambda", "1.0",
            "--initial-wealth", "5,6,7",
            "--transactions", "50",
            "--seed", "1",
            "--out", str(tmp_path / "frozen"),
        ]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "frozen" / "trajectory.csv")
    for row in rows:
        assert row[1:] == ["5.0", "6.0", "7.0"]


def test_simulate_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "run"
    assert run_simulate(out) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_simulate(out) == 0  # identical config, same output dir
    for name in ("trajectory.csv", "histogram.csv"):
        assert (out / name).read_bytes() == first[name]
    ma = json.loads(first["manifest.json"])
    mb = read_json(out / "manifest.json")
    ma.pop("duration_seconds")
    mb.pop("duration_seconds")
    assert ma == mb


def test_simulate_histogram_counts_partition_agents(tmp_path):
    code = main(
        [
            "simulate",
            "--agents", "40",
            "--lambda", "0.9",
            "--initial-wealth", "10",
            "--transactions", "500",
            "--seed", "3",
            "--bins", "8",
            "--out", str(tmp_path / "h"),
        ]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "h" / "histogram.csv")
    assert sum(int(r[2]) for r in rows) == 40
    manifest = read_json(tmp_path / "h" / "manifest.json")
    jsonschema.validate(manifest, load_schema("manifest.schema.json"))
    assert manifest["conservation"]["max_relative_drift"] <= 1e-9


def test_manifest_config_round_trip(tmp_path):
    assert run_simulate(tmp_path / "rt") == 0
    manifest = read_json(tmp_path / "rt" / "manifest.json")
    config = RunConfig.from_dict(manifest["config"])
    assert config.to_dict() == manifest["config"]
    assert config.agents == 2
    assert config.background == {"kind": "constant", "epsilon": [0.51, 0.49]}


# ------------------------------------------------------------------- compare


def test_compare_smoke_emits_schema_valid_json(tmp_path):
    code = main(
        [
            "compare",
            "--agents", "10",
            "--lambda", "0.9",
            "--initial-wealth", "10",
            "--transactions", "3000",
            "--replicas", "1",
            "--seed", "5",
            "--out", str(tmp_path / "cmp"),
        ]
    )
    assert code == 0
    payload = read_json(tmp_path / "cmp" / "comparison.json")
    jsonschema.validate(payload, load_schema("comparison.schema.json"))
    header, rows = read_csv(tmp_path / "cmp" / "variance_uniform.csv")
    assert header == ["m", "variance"]
    assert len(rows) == 3001
    manifest = read_json(tmp_path / "cmp" / "manifest.json")
    jsonschema.validate(manifest, load_schema("manifest.schema.json"))


def test_compare_self_test_reduction_zero(tmp_path):
    code = main(
        [
            "compare",
            "--agents", "8",
            "--lambda", "0.9",
            "--initial-wealth", "10",
            "--transactions", "1000",
            "--replicas", "2",
            "--seed", "5",
            "--self-test",
            "--out", str(tmp_path / "null"),
        ]
    )
    assert code == 0
    payload = read_json(tmp_path / "null" / "comparison.json")
    assert payload["reduction_fraction"] == 0.0
    assert payload["self_test"] is True
    uni = (tmp_path / "null" / "variance_uniform.csv").read_bytes()
    gau = (tmp_path / "null" / "variance_gaussian.csv").read_bytes()
    assert uni == gau


# --------------------------------------------------------------------- solve


def test_solve_reference_case(tmp_path):
    code = main(
        [
            "solve",
            "--lambda-x", "0.95",
            "--lambda-y", "0.8",
            "--epsilon", "0.51",
            "--x0", "1000",
            "--y0", "2000",
            "--m-max", "250",
            "--out", str(tmp_path / "sol"),
        ]
    )
    assert code == 0
    payload = read_json(tmp_path / "sol" / "roots.json")
    jsonschema.validate(payload, load_schema("roots.schema.json"))
    assert abs(payload["root_decay"] - 0.8735) < 1e-12
    assert abs(payload["fixed_point"][0] - 2418.97) < 0.01
    assert abs(payload["fixed_point"][1] - 581.03) < 0.01
    header, rows = read_csv(tmp_path / "sol" / "solution.csv")
    assert header == ["m", "x_m", "y_m"]
    assert len(rows) == 251
    assert float(rows[0][1]) == 1000.0 and float(rows[0][2]) == 2000.0
    # wealth columns sum to the initial total on every row
    for row in rows:
        assert abs(float(row[1]) + float(row[2]) - 3000.0) <= 1e-9 * 3000.0


def test_solve_equal_propensities(tmp_path):
    code = main(
        [
            "solve",
            "--lambda-x", "0.6",
            "--lambda-y", "0.6",
            "--epsilon", "0.3",
            "--x0", "10",
            "--y0", "20",
            "--out", str(tmp_path / "eq"),
        ]
    )
    assert code == 0
    payload = read_json(tmp_path / "eq" / "roots.json")
    assert payload["roots"] == [1.0, 0.6]


def test_solve_m_max_zero(tmp_path):
    code = main(
        [
            "solve",
            "--lambda-x", "0.5",
            "--lambda-y", "0.5",
            "--epsilon", "0.5",
            "--x0", "1",
            "--y0", "2",
            "--m-max", "0",
            "--out", str(tmp_path / "z"),
        ]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "z" / "solution.csv")
    assert rows == [["0", "1.0", "2.0"]]


# --------------------------------------------------------------- concordance


def test_concordance_constant_background(tmp_path):
    code = main(
        [
            "concordance",
            "--lambda-x", "0.95",
            "--lambda-y", "0.8",
            "--x0", "1000",
            "--y0", "2000",
            "--background", "constant",
            "--epsilon", "0.51,0.49",
            "--replicas", "2",
            "--transactions", "50",
            "--seed", "2",
            "--out", str(tmp_path / "con"),
        ]
    )
    assert code == 0
    payload = read_json(tmp_path / "con" / "concordance_summary.json")
    jsonschema.validate(payload, load_schema("concordance.schema.json"))
    assert payload["max_relative_deviation"] <= 1e-9
    assert payload["passed"] is True
    assert payload["epsilon_det"] == 0.51
    header, rows = read_csv(tmp_path / "con" / "concordance.csv")
    assert header == ["m", "ensemble_mean_x", "deterministic_x"]
    assert len(rows) == 51


def test_concordance_gaussian_smoke(tmp_path):
    code = main(
        [
            "concordance",
            "--lambda-x", "0.95",
            "--lambda-y", "0.8",
            "--x0", "1000",
            "--y0", "2000",
            "--background", "gaussian",
            "--replicas", "100",
            "--transactions", "60",
            "--seed", "2",
            "--out", str(tmp_path / "gcon"),
        ]
    )
    assert code == 0
    payload = read_json(tmp_path / "gcon" / "concordance_summary.json")
    assert payload["epsilon_det"] == 0.5
    assert payload["max_relative_deviation"] <= 0.05


def test_concordance_zero_threshold_fails(tmp_path):
    code = main(
        [
            "concordance",
            "--lambda-x", "0.95",
            "--lambda-y", "0.8",
            "--x0", "1000",
            "--y0", "2000",
            "--background", "gaussian",
            "--replicas", "5",
            "--transactions", "30",
            "--threshold", "0",
            "--seed", "2",
            "--out", str(tmp_path / "fail"),
        ]
    )
    assert code == 2
    payload = read_json(tmp_path / "fail" / "concordance_summary.json")
    assert payload["passed"] is False


# ------------------------------------------------------------ config plumbing


def test_config_file_with_flag_override(tmp_path):
    config = {
        "agents": 4,
        "lambdas": 0.8,
        "initial_wealth": 25.0,
        "transactions": 40,
        "seed": 99,
        "background": {"kind": "gaussian", "mean": 0.5, "sigma": 0.1},
        "output_dir": str(tmp_path / "ignored"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "cfg_run"
    code = main(
        ["simulate", "--config", str(cfg_path), "--transactions", "60", "--out", str(out)]
    )
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["transactions"] == 60  # flag wins
    assert manifest["config"]["agents"] == 4
    assert manifest["config"]["background"]["sigma"] == 0.1
    _, rows = read_csv(out / "trajectory.csv")
    assert rows[-1][0] == "60"


def test_invalid_config_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"agents": 4, "no_such_key": 1}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    assert main(["simulate", "--config", str(notjson), "--out", str(tmp_path / "y")]) == 1
    # bad parameter values surface as usage errors too
    assert main(["simulate", "--agents", "0", "--out", str(tmp_path / "z")]) == 1
    assert main(["simulate", "--lambda", "1.5", "--out", str(tmp_path / "w")]) == 1
    # constant-background shares must match the agent count
    assert (
        main(
            [
                "simulate",
                "--agents", "3",
                "--background", "constant",
                "--epsilon", "0.51,0.49",
                "--transactions", "5",
                "--out", str(tmp_path / "v"),
            ]
        )
        == 1
    )
    # total wealth that overflows to inf would disable the conservation check
    huge = ["--agents", "2", "--initial-wealth", "1e308", "--transactions", "5"]
    assert main(["simulate", *huge, "--out", str(tmp_path / "u")]) == 1
    assert main(["compare", *huge, "--replicas", "1", "--out", str(tmp_path / "t")]) == 1
    pair = ["--lambda-x", "0.5", "--lambda-y", "0.5", "--x0", "1e308", "--y0", "1e308"]
    assert main(["concordance", *pair, "--transactions", "5", "--replicas", "2",
                 "--out", str(tmp_path / "s")]) == 1
    assert main(["solve", *pair, "--epsilon", "0.5", "--out", str(tmp_path / "r")]) == 1
    # an ensemble needs at least one replica
    assert main(["compare", "--replicas", "0", "--out", str(tmp_path / "q")]) == 1
    assert main(["concordance", "--replicas", "0", "--out", str(tmp_path / "p")]) == 1


def test_usage_error_exits_one():
    assert main([]) == 1
    assert main(["simulate", "--transactions", "notanint"]) == 1
    assert main(["no-such-command"]) == 1


def test_unwritable_output_exits_three(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = main(
        [
            "simulate",
            "--agents", "2",
            "--lambda", "0.5",
            "--initial-wealth", "1",
            "--transactions", "5",
            "--out", str(blocker / "sub"),
        ]
    )
    assert code == 3


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wealthsim.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "concordance" in proc.stdout
