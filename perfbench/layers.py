"""Per-layer metrics of one traced invocation, computed from its spans.

A span's self time is its duration minus the durations of its direct child
spans.  Time under ``cli.main`` but outside every ``cli.cmd_*`` call is
configuration (argument parsing, config merge); self time of a ``cmd_*``
call is artifact formatting and writing; every other span under a
``cmd_*`` call is charged to the layer its function belongs to.  Whatever
no named layer claims, plus the part of the measured wall time outside
``cli.main``, is the residual.  The shares of all layers and the residual
sum to one.
"""

from __future__ import annotations

US = 1e-3  # ns -> us
S = 1e-9  # ns -> s
MB = 2**20

#: Span name -> layer for spans under a ``cli.cmd_*`` call.
LAYER_OF = {
    "core.sample_raw": "core.sample_raw",
    "core.sample_epsilon_matrix": "core.normalize",
    "core.run_trajectory": "core.step",
    "stats.variance_trajectory": "core.step",
    "solver.concordance": "core.step",
    "core.WealthState": "core.record",
    "stats.detect_equilibrium": "stats.detect",
    "stats.compare_backgrounds": "stats.reduce",
    "solver.closed_form": "solver.oracle",
    "solver.fixed_point": "solver.oracle",
    "solver.characteristic_roots": "solver.oracle",
    "solver.evaluate_series": "solver.oracle",
}
LAYERS = (
    "core.sample_raw",
    "core.normalize",
    "core.step",
    "core.record",
    "stats.detect",
    "stats.reduce",
    "solver.oracle",
    "cli.write",
    "cli.config",
    "residual",
)
#: Layers reported together when naming the dominant one.
GROUPS = {"core.sample_raw": "core.sampling", "core.normalize": "core.sampling"}

UNITS = {
    "core.sample_raw_us_per_txn": "us/txn",
    "core.normalize_us_per_txn": "us/txn",
    "core.sample_block_mb": "MB",
    "core.sample_calls": "count",
    "core.step_us_per_txn": "us/txn",
    "core.record_us_per_record": "us/record",
    "core.transactions": "count",
    "core.records": "count",
    "stats.detect_s": "s",
    "stats.reduce_s": "s",
    "solver.oracle_s": "s",
    "solver.us_per_replica": "us/replica",
    "cli.write_s": "s",
    "cli.write_mb_per_s": "MB/s",
    "cli.artifact_bytes": "bytes",
    "cli.config_s": "s",
    "trace.residual_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Live float64 copies of a (count, n) block at the end of
#: ``sample_epsilon_matrix``: raw draws, their squares, the normalised shares.
BLOCK_COPIES = 3


def analyse(spans: list, wall_s: float, data_bytes: int, total_bytes: int) -> tuple[dict, dict]:
    """Return ``(metrics, shares)`` for one traced invocation.

    ``wall_s`` is the wall time of ``cli.main`` measured outside the tracer;
    ``data_bytes`` and ``total_bytes`` are the artifact sizes without and
    with the manifest.
    """
    n = len(spans)
    dur = [end - start for _, _, start, end, _ in spans]
    own = list(dur)
    under_cmd = [False] * n
    for i, (name, parent, _, _, _) in enumerate(spans):
        if parent >= 0:
            own[parent] -= dur[i]
        under_cmd[i] = name.startswith("cli.cmd_") or (parent >= 0 and under_cmd[parent])

    layer_ns = dict.fromkeys(LAYERS, 0)
    count: dict[str, int] = {}
    work: dict[str, int] = {}
    max_cells = 0
    main_ns = cmd_ns = concordance_ns = 0
    for i, (name, _, _, _, w) in enumerate(spans):
        count[name] = count.get(name, 0) + 1
        for key, value in (w or {}).items():
            work[key] = work.get(key, 0) + value
        if w and "cells" in w:
            max_cells = max(max_cells, w["cells"])
        if name == "solver.concordance":
            concordance_ns += dur[i]
        if name == "cli.main":
            main_ns += dur[i]
        elif name.startswith("cli.cmd_"):
            cmd_ns += dur[i]
            layer_ns["cli.write"] += own[i]
        elif under_cmd[i]:
            layer_ns[LAYER_OF.get(name, "residual")] += own[i]
    wall_ns = wall_s / S
    layer_ns["cli.config"] = main_ns - cmd_ns
    layer_ns["residual"] += wall_ns - main_ns

    txn = work.get("rows", 0)
    per_txn = 1.0 / txn if txn else 0.0
    records_kept = count.get("core.WealthState", 0)
    replicas = work.get("replicas", 0)
    write_s = layer_ns["cli.write"] * S
    metrics = {
        "core.sample_raw_us_per_txn": layer_ns["core.sample_raw"] * US * per_txn,
        "core.normalize_us_per_txn": layer_ns["core.normalize"] * US * per_txn,
        "core.sample_block_mb": max_cells * 8 * BLOCK_COPIES / MB,
        "core.sample_calls": count.get("core.sample_epsilon_matrix", 0),
        "core.step_us_per_txn": layer_ns["core.step"] * US * per_txn,
        "core.record_us_per_record": (
            layer_ns["core.record"] * US / records_kept if records_kept else 0.0
        ),
        "core.transactions": txn,
        "core.records": work.get("records", 0),
        "stats.detect_s": layer_ns["stats.detect"] * S,
        "stats.reduce_s": layer_ns["stats.reduce"] * S,
        "solver.oracle_s": layer_ns["solver.oracle"] * S,
        "solver.us_per_replica": (
            concordance_ns * US / replicas if replicas else 0.0
        ),
        "cli.write_s": write_s,
        "cli.write_mb_per_s": total_bytes / MB / write_s if write_s > 0 else 0.0,
        "cli.artifact_bytes": data_bytes,
        "cli.config_s": layer_ns["cli.config"] * S,
        "trace.residual_frac": layer_ns["residual"] / wall_ns,
    }
    shares = {layer: ns / wall_ns for layer, ns in layer_ns.items()}
    return metrics, shares


def dominant(shares: dict) -> str:
    """Name of the largest layer, counting raw sampling and normalisation as one."""
    grouped: dict[str, float] = {}
    for layer, share in shares.items():
        key = GROUPS.get(layer, layer)
        grouped[key] = grouped.get(key, 0.0) + share
    return max(grouped, key=grouped.get)
