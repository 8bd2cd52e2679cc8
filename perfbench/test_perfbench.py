"""Tests of the benchmark itself: layer arithmetic, tracing and exact counts.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import LAYERS, analyse, dominant
from workloads import WORKLOADS, artifact_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def span(name, parent, start, end, work=None):
    return [name, parent, start, end, work]


def test_analyse_partitions_wall_time():
    spans = [
        span("cli.main", -1, 0, 100_000),
        span("cli.build_parser", 0, 1_000, 3_000),
        span("cli.cmd_simulate", 0, 5_000, 95_000),
        span("core.run_trajectory", 2, 10_000, 80_000, {"records": 2}),
        span("core.sample_epsilon_matrix", 3, 12_000, 30_000, {"rows": 10, "cells": 1000}),
        span("core.sample_raw", 4, 13_000, 25_000),
        span("core.WealthState", 3, 40_000, 45_000),
        span("stats.build_histogram", 2, 82_000, 84_000),
    ]
    metrics, shares = analyse(spans, wall_s=110e-6, data_bytes=50, total_bytes=2**20)

    assert set(shares) == set(LAYERS)
    assert math.isclose(sum(shares.values()), 1.0)
    assert math.isclose(shares["core.sample_raw"], 12 / 110)
    assert math.isclose(shares["core.normalize"], 6 / 110)
    assert math.isclose(shares["core.step"], 47 / 110)
    assert math.isclose(shares["core.record"], 5 / 110)
    assert math.isclose(shares["cli.write"], 18 / 110)
    assert math.isclose(shares["cli.config"], 10 / 110)
    # build_histogram (2 us) and the 10 us outside cli.main.
    assert math.isclose(shares["residual"], 12 / 110)
    assert metrics["core.transactions"] == 10
    assert metrics["core.records"] == 2
    assert metrics["core.sample_calls"] == 1
    assert math.isclose(metrics["core.sample_raw_us_per_txn"], 1.2)
    assert math.isclose(metrics["core.step_us_per_txn"], 4.7)
    assert math.isclose(metrics["core.record_us_per_record"], 5.0)
    assert math.isclose(metrics["core.sample_block_mb"], 1000 * 8 * 3 / 2**20)
    assert math.isclose(metrics["cli.write_mb_per_s"], 1 / 18e-6)
    assert dominant(shares) == "core.step"


def run_child(argv, out: Path, trace: bool) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    result = out.parent / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(result), "1" if trace else "0", "--",
         *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def test_tracer_wraps_public_functions_only(tmp_path):
    out = tmp_path / "out"
    argv = ["simulate", "--agents", "3", "--transactions", "50", "--seed", "1", "--out", str(out)]
    traced = run_child(argv, out, trace=True)
    names = {s[0] for s in traced["spans"]}
    assert {"cli.main", "cli.cmd_simulate", "core.run_trajectory",
            "core.sample_epsilon_matrix", "core.sample_raw", "core.WealthState"} <= names
    assert not any(name.split(".", 1)[1].startswith("_") for name in names)
    traced_digest = artifact_digest(out)[0]
    # Tracing must not change what the program writes.
    assert run_child(argv, out, trace=False)["spans"] is None
    assert artifact_digest(out)[0] == traced_digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    workload = WORKLOADS[name]
    counts = []
    out = tmp_path / "out"
    for _ in range(2):
        result = run_child(workload.argv(7, out), out, trace=True)
        digest, data_bytes, total_bytes = artifact_digest(out)
        metrics, _ = analyse(result["spans"], result["main_s"], data_bytes, total_bytes)
        counts.append((digest, *(metrics[m] for m in (
            "core.transactions", "core.records", "core.sample_calls", "cli.artifact_bytes"))))
    assert counts[0] == counts[1]
    assert counts[0][1] == workload.transactions


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
