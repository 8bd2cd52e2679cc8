"""Command-line harness: artifacts, exit codes, reproducibility, schemas."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from wealthsim import cli
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


PAIR_FLAGS = ["--lambda-x", "0.95", "--lambda-y", "0.8", "--x0", "1000", "--y0", "2000"]
GAUSSIAN_RUN = ["--background", "gaussian", "--replicas", "3", "--transactions", "50",
                "--seed", "13"]


def run_concordance(out, args):
    assert main(["concordance", *args, "--out", str(out)]) == 0
    return (out / "concordance.csv").read_bytes()


def test_concordance_manifest_echoes_the_run(tmp_path):
    first = run_concordance(tmp_path / "a", [*PAIR_FLAGS, *GAUSSIAN_RUN])
    config = read_json(tmp_path / "a" / "manifest.json")["config"]
    assert config["lambdas"] == [0.95, 0.8]
    assert config["initial_wealth"] == [1000.0, 2000.0]
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(config))
    assert run_concordance(tmp_path / "b", ["--config", str(echo)]) == first


def test_concordance_lists_match_pair_flags(tmp_path):
    pairs = run_concordance(tmp_path / "a", [*PAIR_FLAGS, *GAUSSIAN_RUN])
    lists = run_concordance(
        tmp_path / "b", ["--lambda", "0.95,0.8", "--initial-wealth", "1000,2000", *GAUSSIAN_RUN]
    )
    assert lists == pairs
    # one pair flag overrides one entry of a list given by flag
    mixed = run_concordance(
        tmp_path / "c",
        ["--lambda", "0.5,0.8", "--lambda-x", "0.95", "--initial-wealth", "1,2000",
         "--x0", "1000", *GAUSSIAN_RUN],
    )
    assert mixed == pairs


def test_concordance_old_style_config_runs(tmp_path):
    pairs = run_concordance(tmp_path / "a", [*PAIR_FLAGS, *GAUSSIAN_RUN])
    old = {
        "agents": 2, "lambdas": 0.9, "initial_wealth": 100.0,
        "background": {"kind": "gaussian"}, "transactions": 50, "replicas": 3,
        "seed": 13, "record_every": None, "output_dir": "out", "bins": 50,
        "threshold": 0.05, "self_test": False,
        "lambda_x": 0.95, "lambda_y": 0.8, "x0": 1000.0, "y0": 2000.0,
    }
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    assert run_concordance(tmp_path / "b", ["--config", str(path)]) == pairs
    config = read_json(tmp_path / "b" / "manifest.json")["config"]
    assert config["lambdas"] == [0.95, 0.8]
    assert config["initial_wealth"] == [1000.0, 2000.0]
    # without the pair keys a concordance runs at the run defaults
    assert main(["concordance", "--replicas", "2", "--transactions", "10",
                 "--out", str(tmp_path / "c")]) == 0
    config = read_json(tmp_path / "c" / "manifest.json")["config"]
    assert (config["lambdas"], config["initial_wealth"]) == (0.9, 100.0)


#: Config key -> mistyped or out-of-range values: every run key and every
#: two-economy entry key.  Each command must refuse each value before its run,
#: including the keys it ignores.
MISTYPED = {
    "agents": [None, True, "2", 2.0, 2.5, [2]],
    "lambdas": [
        None, True, "0.9", [0.9, "x"], [0.9, None], [0.9, False], {"x": 0.9}, 10**400
    ],
    "initial_wealth": [None, False, "100", [100, "x"], [100, None], 10**400],
    "background": [
        None, True, "gaussian", [0.9, "x"], {"kind": "gaussian", "mean": "x"},
        {"kind": "gaussian", "mean": None}, {"kind": "gaussian", "sigma": True},
        {"kind": "constant", "epsilon": [0.5, "x"]}, {"kind": "pareto"},
    ],
    "transactions": [None, True, "5", 5.0, 5.5],
    "replicas": [None, True, "2", 2.0, 2.5],
    "seed": [None, True, "1", 1.0, 1.5],
    "record_every": [True, "1", 1.0, 2.5],
    "output_dir": [None, True, 5, ["out"]],
    "bins": [None, True, "5", 5.0, 0],
    "threshold": [None, True, "0.1", -1, [0.1]],
    "self_test": [None, 1, "true"],
    "lambda_x": [None, True, "0.5"],
    "lambda_y": [None, False, [0.5]],
    "x0": [None, True, "1.0"],
    "y0": [None, False, {"y": 1.0}],
}


@pytest.mark.parametrize(
    "key", [*(f.name for f in dataclasses.fields(RunConfig)), *cli._ENTRY_KEYS]
)
def test_mistyped_config_values_exit_one(key, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # output_dir defaults to "out" under the cwd
    conf = tmp_path / "run.json"
    for command in ("simulate", "compare", "concordance"):
        for value in MISTYPED[key]:
            conf.write_text(json.dumps({"agents": 2, "transactions": 5, "replicas": 2,
                                        key: value}))
            assert main([command, "--config", str(conf)]) == 1, (command, value)
            assert [p.name for p in tmp_path.iterdir()] == ["run.json"], (command, value)


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


def test_utf8_config_runs_under_an_ascii_locale(tmp_path):
    # Under LC_ALL=C with UTF-8 mode off, the locale's encoding is ASCII: the
    # config is still read as UTF-8, and its directory is named in UTF-8.
    run = ["simulate", "--agents", "3", "--background", "gaussian", "--transactions", "40",
           "--record-every", "1", "--seed", "5"]
    assert main([*run, "--out", str(tmp_path / "default")]) == 0
    runs, config = tmp_path / "runs", tmp_path / "config.json"
    runs.mkdir()
    output_dir = str(runs / "r\u00e9sultats")
    config.write_text(json.dumps({"output_dir": output_dir}, ensure_ascii=False), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "wealthsim.cli", *run, "--config", str(config)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (out,) = runs.iterdir()
    assert os.fsencode(out.name) == "r\u00e9sultats".encode("utf-8")
    assert csv_bytes(out) == csv_bytes(tmp_path / "default")


def test_invalid_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"agents": 4, "no_such_key": 1}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    assert main(["simulate", "--config", str(notjson), "--out", str(tmp_path / "y")]) == 1
    # Python's json refuses an integer of more than 4300 digits with a bare ValueError
    notjson.write_text('{"seed": 1' + "0" * 5000 + "}")
    assert main(["simulate", "--config", str(notjson), "--out", str(tmp_path / "y")]) == 1
    assert not (tmp_path / "y").exists()
    # mistyped values are rejected, not coerced or left to crash
    for i, conf in enumerate(
        [
            {"agents": 2.5},
            {"agents": True},
            {"bins": "5"},
            {"seed": 1.5},
            {"record_every": 2.0},
            {"background": "gaussian"},
            {"lambdas": "0.9"},
            {"initial_wealth": [1.0, None]},
            {"background": {"kind": "pareto"}},
            {"background": {"kind": "constant", "epsilon": [0.5, "x"]}},
            {"background": {"kind": "constant", "epsilon": "abc"}},
            {"background": {"kind": "gaussian", "mean": True, "sigma": 0.5}},
            {"background": {"kind": "constant", "epsilon": [True, False]}},
        ]
    ):
        typed = tmp_path / f"typed{i}.json"
        typed.write_text(json.dumps({"transactions": 5, **conf}))
        out = tmp_path / f"typed{i}"
        assert main(["simulate", "--config", str(typed), "--out", str(out)]) == 1, conf
        assert not out.exists()
    typed.write_text(json.dumps({"threshold": [0.1], "lambda_x": 0.5, "lambda_y": 0.5,
                                 "x0": 1.0, "y0": 1.0}))
    assert main(["concordance", "--config", str(typed), "--out", str(tmp_path / "r")]) == 1
    typed.write_text(json.dumps({"x0": "1.0"}))
    assert main(["concordance", "--config", str(typed), "--out", str(tmp_path / "r")]) == 1
    # the summary schema needs a threshold >= 0, and JSON has no NaN or Infinity
    short = ["--transactions", "20", "--replicas", "2"]
    for i, threshold in enumerate(["-0.5", "nan", "inf"]):
        out = tmp_path / f"threshold{i}"
        assert main(["concordance", *short, "--threshold", threshold, "--out", str(out)]) == 1
        assert not out.exists(), threshold
        typed.write_text(json.dumps({"threshold": float(threshold)}))
        out = tmp_path / f"threshold_file{i}"
        assert main(["concordance", *short, "--config", str(typed), "--out", str(out)]) == 1
        assert not out.exists(), threshold
    # a config file must hold an object; concordance needs two agents, and an
    # entry flag needs a two-entry list under it
    typed.write_text(json.dumps([1, 2]))
    assert main(["simulate", "--config", str(typed), "--out", str(tmp_path / "l")]) == 1
    assert not (tmp_path / "l").exists()
    assert main(["concordance", "--agents", "3", "--out", str(tmp_path / "k")]) == 1
    assert not (tmp_path / "k").exists()
    typed.write_text(json.dumps({"lambdas": [0.5, 0.6, 0.7]}))
    assert main(["concordance", "--config", str(typed), "--lambda-x", "0.5",
                 "--out", str(tmp_path / "j")]) == 1
    assert not (tmp_path / "j").exists()
    assert main(["solve", "--lambda-x", "0.5", "--lambda-y", "0.5", "--epsilon", "0.5",
                 "--x0", "1", "--y0", "1", "--m-max", "-1", "--out", str(tmp_path / "i")]) == 1
    assert not (tmp_path / "i").exists()
    # concordance records every transaction; a thinner cadence is refused
    thin = ["--transactions", "200", "--replicas", "2", "--record-every", "50"]
    assert main(["concordance", *thin, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    # a Gaussian with too little mass in [0, 1] fails before the run starts
    wide = ["--agents", "10", "--background", "gaussian", "--sigma", "1000",
            "--transactions", "2000", "--seed", "3"]
    assert main(["simulate", *wide, "--out", str(tmp_path / "n")]) == 1
    assert not (tmp_path / "n").exists()
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
    assert not (tmp_path / "u").exists()
    assert main(["compare", *huge, "--replicas", "1", "--out", str(tmp_path / "t")]) == 1
    assert not (tmp_path / "t").exists()
    # a finite total whose cross-agent variance overflows is refused in one line
    capsys.readouterr()
    assert main(["compare", "--agents", "2", "--initial-wealth", "1e307", "--transactions", "40",
                 "--replicas", "2", "--out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cross-agent wealth variance" in err, err
    assert not (tmp_path / "t").exists()
    pair = ["--lambda-x", "0.5", "--lambda-y", "0.5", "--x0", "1e308", "--y0", "1e308"]
    assert main(["concordance", *pair, "--transactions", "5", "--replicas", "2",
                 "--out", str(tmp_path / "s")]) == 1
    assert not (tmp_path / "s").exists()
    assert main(["solve", *pair, "--epsilon", "0.5", "--out", str(tmp_path / "r")]) == 1
    assert not (tmp_path / "r").exists()
    # an ensemble needs at least one replica
    assert main(["compare", "--replicas", "0", "--out", str(tmp_path / "q")]) == 1
    assert not (tmp_path / "q").exists()
    assert main(["concordance", "--replicas", "0", "--out", str(tmp_path / "p")]) == 1
    assert not (tmp_path / "p").exists()
    # concordance checks its run before it solves, with the message of simulate
    capsys.readouterr()
    assert main(["concordance", "--transactions", "-5", "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err == ("wealthsim: config error: transactions must be in "
                                         "[1, 9223372036854775807], got -5\n")
    assert not (tmp_path / "m").exists()
    # a count past 2**63 - 1 is refused before stepping, even at a cadence that keeps few records
    assert main(["simulate", "--agents", "3", "--transactions", "10000000000000000000",
                 "--record-every", "1000000000000000000", "--out", str(tmp_path / "l")]) == 1
    assert capsys.readouterr().err == ("wealthsim: config error: transactions must be in "
                                         "[1, 9223372036854775807], got 10000000000000000000\n")
    assert not (tmp_path / "l").exists()
    # a run that fails, before or after stepping, writes nothing
    for i, bad_run in enumerate(
        [
            ["--agents", "5", "--transactions", "300", "--bins", "0"],
            ["--transactions", "0"],
            ["--record-every", "-3"],
        ]
    ):
        out = tmp_path / f"failed{i}"
        assert main(["simulate", *bad_run, "--out", str(out)]) == 1, bad_run
        assert not out.exists(), bad_run
    # a count too large for any numpy array is refused before the run, in one line
    too_many = "10000000000000000000"
    for i, bad_run in enumerate(
        [
            ["simulate", "--agents", "3", "--transactions", too_many, "--record-every", "1"],
            ["simulate", "--agents", "3", "--transactions", "5", "--bins", too_many],
            ["solve", "--lambda-x", "0.9", "--lambda-y", "0.8", "--epsilon", "0.5", "--x0", "1",
             "--y0", "1", "--m-max", too_many],
            ["compare", "--agents", "2", "--transactions", "1", "--replicas", too_many],
            ["concordance", "--transactions", "1", "--replicas", str(2**62)],
        ]
    ):
        out = tmp_path / f"oversized{i}"
        capsys.readouterr()
        assert main([*bad_run, "--out", str(out)]) == 1, bad_run
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("wealthsim: config error: "), err
        assert not out.exists(), bad_run


def test_bad_bins_fail_before_the_run(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_trajectory", unreachable)
    for bins in ("0", "-2", "10000000000000000000"):
        out = tmp_path / f"bins{bins}"
        assert main(["simulate", "--bins", bins, "--out", str(out)]) == 1
        assert not out.exists()
    conf = tmp_path / "bins.json"
    conf.write_text(json.dumps({"bins": 0}))
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "c")]) == 1


def _fields(path):
    header, rows = read_csv(path)
    return header, list(zip(*rows))


def _assert_ints(fields, expected):
    assert all(str(int(f)) == f for f in fields)
    assert [int(f) for f in fields] == expected.tolist()


def _assert_floats(fields, expected):
    assert np.array([float(f) for f in fields]).tobytes() == expected.astype(float).tobytes()


def test_csv_fields_round_trip_exactly(tmp_path):
    """Integer fields print as plain ints and float fields parse to the library's bits."""
    import wealthsim as ws

    sim = ["--agents", "5", "--lambda", "0.9", "--initial-wealth", "10",
           "--background", "gaussian", "--transactions", "40", "--seed", "3", "--bins", "4"]
    assert main(["simulate", *sim, "--out", str(tmp_path / "sim")]) == 0
    params = ws.make_agents(5, 0.9, 10.0)
    traj = ws.run_trajectory(params, ws.GaussianBackground(), 40, 3, 1)
    header, cols = _fields(tmp_path / "sim" / "trajectory.csv")
    assert header == ["m", *(f"wealth_{j}" for j in range(5))]
    _assert_ints(cols[0], traj.indices)
    for j in range(5):
        _assert_floats(cols[1 + j], traj.wealth[:, j])
    hist = ws.build_histogram(traj.final.wealth, bins=4)
    _, cols = _fields(tmp_path / "sim" / "histogram.csv")
    _assert_floats(cols[0], hist.bin_edges[:-1])
    _assert_floats(cols[1], hist.bin_edges[1:])
    _assert_ints(cols[2], hist.counts)

    cmp_ = ["--agents", "4", "--lambda", "0.9", "--initial-wealth", "10",
            "--transactions", "60", "--replicas", "2", "--seed", "4"]
    assert main(["compare", *cmp_, "--out", str(tmp_path / "cmp")]) == 0
    result = ws.compare_backgrounds(ws.make_agents(4, 0.9, 10.0), 60, 2, 4)
    for arm in ("uniform", "gaussian"):
        _, cols = _fields(tmp_path / "cmp" / f"variance_{arm}.csv")
        _assert_ints(cols[0], result.indices)
        _assert_floats(cols[1], getattr(result, f"ensemble_variance_{arm}"))

    p = ws.TwoEconomyParams(0.95, 0.8, 0.51, 1000.0, 2000.0)
    assert main(["solve", "--lambda-x", "0.95", "--lambda-y", "0.8", "--epsilon", "0.51",
                 "--x0", "1000", "--y0", "2000", "--m-max", "30",
                 "--out", str(tmp_path / "sol")]) == 0
    xs, ys = ws.evaluate_series(ws.closed_form(p), 30)
    _, cols = _fields(tmp_path / "sol" / "solution.csv")
    _assert_ints(cols[0], np.arange(31))
    _assert_floats(cols[1], xs)
    _assert_floats(cols[2], ys)

    run_concordance(tmp_path / "con", [*PAIR_FLAGS, *GAUSSIAN_RUN])
    report = ws.concordance(
        ws.TwoEconomyParams(0.95, 0.8, 0.5, 1000.0, 2000.0), ws.GaussianBackground(), 3, 50, 13
    )
    _, cols = _fields(tmp_path / "con" / "concordance.csv")
    _assert_ints(cols[0], report.transaction_indices)
    _assert_floats(cols[1], report.ensemble_mean_x)
    _assert_floats(cols[2], report.deterministic_x)


# ------------------------------------------------------------ split writing


def split_every_csv(monkeypatch, cpus, command=None):
    """Split every CSV into parts of one field or more over ``cpus`` CPUs.

    Returns the list of worker processes started, each running ``command``
    in place of the worker's if one is given.
    """
    started = []
    popen = subprocess.Popen

    def recording_popen(args, **kwargs):
        started.append(popen(command or args, **kwargs))
        return started[-1]

    monkeypatch.setattr(cli, "_SPLIT_FIELDS", 1)
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    return started


def csv_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


SPLIT_RUNS = [
    ["simulate", "--agents", "5", "--background", "gaussian", "--transactions", "41",
     "--record-every", "1", "--bins", "7", "--seed", "3"],
    ["compare", "--agents", "4", "--transactions", "61", "--replicas", "2", "--seed", "4"],
    ["solve", "--lambda-x", "0.95", "--lambda-y", "0.8", "--epsilon", "0.51", "--x0", "1000",
     "--y0", "2000", "--m-max", "40"],
    ["concordance", *PAIR_FLAGS, *GAUSSIAN_RUN],
]


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("command", SPLIT_RUNS, ids=[r[0] for r in SPLIT_RUNS])
def test_split_csvs_are_byte_identical_to_serial_ones(command, cpus, tmp_path, monkeypatch):
    assert main([*command, "--out", str(tmp_path / "serial")]) == 0
    serial = csv_bytes(tmp_path / "serial")
    started = split_every_csv(monkeypatch, cpus)
    assert main([*command, "--out", str(tmp_path / "split")]) == 0
    assert all(p.poll() is not None for p in started)
    assert csv_bytes(tmp_path / "split") == serial
    # One worker per extra CPU for each CSV; one CPU keeps the serial path.
    assert len(started) == (cpus - 1) * len(serial)


EDGE_INTS = np.array([0, -1, 2**63 - 1, -(2**63), 7], dtype=np.int64)
EDGE_FLOATS = np.array([-0.0, 5e-324, 1e-5, 9.999e-05, 1e16, 1e300, -1.7976931348623157e308])


@pytest.mark.parametrize("cpus", [1, 2, 4])
@pytest.mark.parametrize("rows", [1, 3, 7, 10])
def test_split_rows_keep_every_field_and_row_order(rows, cpus, tmp_path, monkeypatch):
    # 1-D int64 and int32 columns beside 2-D float columns, one of them not
    # contiguous, with fewer rows than parts (3 rows of 10 fields over 4 CPUs
    # makes 3 parts) and odd row counts.  One CPU makes one part.
    ints = np.resize(EDGE_INTS, rows)
    small = np.resize(np.array([-(2**31), 2**31 - 1, 0, -5], dtype=np.int32), rows)
    wide = np.resize(EDGE_FLOATS, (rows, 5))
    narrow = np.resize(EDGE_FLOATS[::-1], (rows, 2))[:, ::-1]
    files = {"edge.csv": (["i", "s", *"abcdefg"], ints, small, wide, narrow)}
    cli._write_artifacts(str(tmp_path / "serial"), files, {}, 0.0, 0.0)
    expected = "i,s,a,b,c,d,e,f,g\n" + "".join(
        ",".join(map(repr, [i, s, *w, *v])) + "\n"
        for i, s, w, v in zip(ints.tolist(), small.tolist(), wide.tolist(), narrow.tolist())
    )
    assert (tmp_path / "serial" / "edge.csv").read_text() == expected
    started = split_every_csv(monkeypatch, cpus)
    cli._write_artifacts(str(tmp_path / "split"), files, {}, 0.0, 0.0)
    assert all(p.poll() is not None for p in started)
    assert len(started) == min(cpus, rows) - 1
    assert (tmp_path / "split" / "edge.csv").read_text() == expected


def test_rows_of_a_worker_that_cannot_start_are_written_in_process(tmp_path, monkeypatch):
    assert run_simulate(tmp_path / "serial") == 0

    def no_process(*args, **kwargs):
        raise OSError("Resource temporarily unavailable")

    split_every_csv(monkeypatch, 4)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    assert run_simulate(tmp_path / "split") == 0
    assert csv_bytes(tmp_path / "split") == csv_bytes(tmp_path / "serial")


def test_rows_of_a_worker_without_temporary_files_are_written_in_process(tmp_path, monkeypatch):
    assert run_simulate(tmp_path / "serial") == 0

    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    started = split_every_csv(monkeypatch, 4)
    monkeypatch.setattr(tempfile, "TemporaryFile", no_space)
    assert run_simulate(tmp_path / "split") == 0
    assert csv_bytes(tmp_path / "split") == csv_bytes(tmp_path / "serial")
    assert started == []


def test_a_failed_worker_exits_three(tmp_path, monkeypatch, capsys):
    started = split_every_csv(monkeypatch, 2, [sys.executable, "-c", "import sys; sys.exit(1)"])
    assert run_simulate(tmp_path / "run") == 3
    assert "exited with code 1" in capsys.readouterr().err
    assert started and all(p.poll() == 1 for p in started)


def test_a_worker_refuses_input_of_the_wrong_length():
    from wealthsim import _rows

    worker = [sys.executable, "-I", "-S", _rows.__file__, "2", "q1", "d3"]
    rows = np.array([1, 2]).tobytes() + np.arange(6.0).tobytes()
    done = subprocess.run(worker, input=rows, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, b"1,0.0,1.0,2.0\n2,3.0,4.0,5.0\n")
    done = subprocess.run(worker, input=rows[:-8], capture_output=True, timeout=60)
    assert done.returncode == 1 and b"expected 64 bytes on stdin, got 56" in done.stderr


def test_a_worker_imports_only_sys_and_itertools():
    from wealthsim import _rows

    worker = [sys.executable, "-I", "-S", "-X", "importtime", _rows.__file__, "1", "q1", "d2"]
    rows = np.array([1], dtype=np.int64).tobytes() + np.arange(2.0).tobytes()
    done = subprocess.run(worker, input=rows, capture_output=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, b"1,0.0,1.0\n")
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.decode().splitlines()}
    assert "itertools" in imported
    heavy = {"numpy", "wealthsim", "os", "shutil", "subprocess", "tempfile", "array"}
    assert not {name.split(".")[0] for name in imported} & heavy


def test_workers_are_stopped_when_the_parent_cannot_write(tmp_path, monkeypatch):
    def full_disk(*args):
        raise OSError("No space left on device")

    started = split_every_csv(monkeypatch, 4, [sys.executable, "-c", "import time; time.sleep(60)"])
    monkeypatch.setattr(cli._rows, "lines", full_disk)
    assert run_simulate(tmp_path / "run") == 3
    assert len(started) == 3
    # Killed, not waited for through their minute of sleep.
    assert all(p.poll() is not None and p.returncode != 0 for p in started)


def test_compare_of_variances_whose_sums_overflow_runs_clean(tmp_path):
    # Variances near 1e307 are finite while their sums overflow: over the
    # detection window, and with 100 replicas over the ensemble and the final
    # tenth too.  The runs exit 0 with no RuntimeWarning, which fails the suite.
    huge = ["compare", "--agents", "2", "--initial-wealth", "1.35e154", "--seed", "1"]
    for transactions, replicas in (("40", "4"), ("400", "100")):
        out = tmp_path / replicas
        assert main([*huge, "--transactions", transactions, "--replicas", replicas,
                     "--out", str(out)]) == 0
        result = read_json(out / "comparison.json")
        assert 1e305 < result["variance_gaussian"] < result["variance_uniform"] < math.inf


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


def test_tiny_total_wealth_runs(tmp_path):
    # 1 / 1e-310 overflows; the drift must be measured by division.
    out = tmp_path / "tiny"
    code = main(["simulate", "--agents", "2", "--lambda", "0.5", "--initial-wealth", "1e-310,0",
                 "--transactions", "100", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert read_json(out / "manifest.json")["conservation"]["max_relative_drift"] <= 1e-9


def test_solve_checks_the_drift_its_manifest_reports(tmp_path, monkeypatch, capsys):
    # Series that total 2 where the solution holds 4 must not reach a manifest.
    monkeypatch.setattr(cli, "evaluate_series", lambda sol, m_max: (np.ones(m_max + 1),) * 2)
    out = tmp_path / "sol"
    assert main(["solve", "--lambda-x", "0.9", "--lambda-y", "0.8", "--epsilon", "0.5",
                 "--x0", "1", "--y0", "3", "--m-max", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("wealthsim: conservation error: ")
    assert not out.exists()


def test_a_run_that_breaks_conservation_exits_one(tmp_path, capsys):
    # Halving one ulp of wealth rounds it to zero: the run loses all its wealth.
    out = tmp_path / "run"
    code = main(["simulate", "--agents", "2", "--lambda", "0.5", "--initial-wealth", "5e-324,0",
                 "--transactions", "100", "--seed", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("wealthsim: conservation error: ")
    assert not out.exists()


@pytest.mark.parametrize("wealth", ["1e300,1e300", "1,1.0000000000000002"])
def test_a_histogram_span_too_narrow_for_its_bins_exits_one(wealth, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--agents", "2", "--lambda", "1", "--initial-wealth", wealth,
                 "--transactions", "1", "--seed", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("wealthsim: config error: ")
    assert "50 bins" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, allocator",
    [
        (["solve", "--lambda-x", "0.9", "--lambda-y", "0.8", "--epsilon", "0.5", "--x0", "1",
          "--y0", "2", "--m-max", "1000000000000"], "evaluate_series"),
        (["simulate", "--agents", "2", "--transactions", "5", "--bins", "1000000000000"],
         "build_histogram"),
    ],
)
def test_a_run_without_memory_exits_one(command, allocator, tmp_path, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, allocator, out_of_memory)
    out = tmp_path / "run"
    assert main([*command, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Unable to allocate" in err
    assert not out.exists()
