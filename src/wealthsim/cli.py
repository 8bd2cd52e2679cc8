"""Command-line harness: simulate | compare | solve | concordance.

Runs are configured by a JSON file (--config) with flag overrides (flags
win) and write CSV/JSON artifacts plus a manifest into the output directory.
Re-running with the manifest's config and seed reproduces the data artifacts
byte for byte; floats are written in shortest round-trip form.

Exit codes: 0 success, 1 usage or config error, 2 acceptance-threshold
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    CONSERVATION_RTOL,
    GENERATOR_NAME,
    UniformBackground,
    background_from_dict,
    make_agents,
    run_trajectory,
)
from .errors import DegenerateInputError, ParameterError
from .solver import TwoEconomyParams, characteristic_roots, closed_form, concordance, evaluate_series, induced_epsilon_mean
from .stats import build_histogram, compare_backgrounds

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_THRESHOLD = 2
EXIT_IO = 3


@dataclass
class RunConfig:
    """Settings for ensemble subcommands; serialized verbatim into manifests."""

    agents: int = 100
    lambdas: float | list = 0.9
    initial_wealth: float | list = 100.0
    background: dict = field(default_factory=lambda: {"kind": "uniform"})
    transactions: int = 100_000
    replicas: int = 20
    seed: int = 0
    record_every: int | None = None
    output_dir: str = "out"
    bins: int = 50
    threshold: float = 0.05
    self_test: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def effective_record_every(self) -> int:
        if self.record_every is not None:
            return self.record_every
        return max(1, self.transactions // 10_000)


def _fmt(v: float) -> str:
    """Shortest decimal that round-trips the 64-bit float."""
    return repr(float(v))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_manifest(out: Path, config_echo: dict, duration: float, drift: float) -> None:
    _write_json(
        out / "manifest.json",
        {
            "config": config_echo,
            "generator": GENERATOR_NAME,
            "numpy_version": np.__version__,
            "version": __version__,
            "duration_seconds": duration,
            "conservation": {
                "checked": True,
                "max_relative_drift": drift,
                "tolerance": CONSERVATION_RTOL,
            },
        },
    )


def cmd_simulate(config: RunConfig) -> int:
    """One trajectory: trajectory.csv, histogram.csv of final wealth, manifest."""
    params = make_agents(config.agents, config.lambdas, config.initial_wealth)
    background = background_from_dict(config.background)
    cadence = config.effective_record_every()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    traj = run_trajectory(params, background, config.transactions, config.seed, cadence)
    duration = time.perf_counter() - start

    header = ["m"] + [f"wealth_{j}" for j in range(config.agents)]
    # One row at a time: a whole-array tolist() would hold every record as
    # Python floats at once.
    rows = (
        [str(m)] + [repr(v) for v in row.tolist()]
        for m, row in zip(traj.indices.tolist(), traj.wealth)
    )
    _write_csv(out / "trajectory.csv", header, rows)

    hist = build_histogram(traj.final.wealth, bins=config.bins)
    _write_csv(
        out / "histogram.csv",
        ["bin_lo", "bin_hi", "count"],
        (
            [_fmt(hist.bin_edges[i]), _fmt(hist.bin_edges[i + 1]), str(int(c))]
            for i, c in enumerate(hist.counts)
        ),
    )
    _write_manifest(out, config.to_dict(), duration, traj.max_conservation_drift)
    return EXIT_OK


def cmd_compare(config: RunConfig) -> int:
    """Uniform vs Gaussian arms: comparison.json plus per-arm variance CSVs.

    --self-test runs the uniform background on both arms; paired seeding then
    forces a reduction fraction of exactly zero.
    """
    params = make_agents(config.agents, config.lambdas, config.initial_wealth)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    result = compare_backgrounds(
        params,
        config.transactions,
        config.replicas,
        config.seed,
        background_b=UniformBackground() if config.self_test else None,
        record_every=config.effective_record_every(),
    )
    duration = time.perf_counter() - start

    payload = {
        "variance_uniform": result.variance_uniform,
        "variance_gaussian": result.variance_gaussian,
        "reduction_fraction": result.reduction_fraction,
        "convergence_index_uniform": result.convergence_uniform.equilibrium_index,
        "convergence_index_gaussian": result.convergence_gaussian.equilibrium_index,
        "convergence_uniform": dataclasses.asdict(result.convergence_uniform),
        "convergence_gaussian": dataclasses.asdict(result.convergence_gaussian),
        "replicas": result.replicas,
        "replica_variance_uniform": result.replica_variance_uniform,
        "replica_variance_gaussian": result.replica_variance_gaussian,
        "replica_convergence_uniform": result.replica_convergence_uniform,
        "replica_convergence_gaussian": result.replica_convergence_gaussian,
        "self_test": config.self_test,
    }
    _write_json(out / "comparison.json", payload)
    for name, series in (
        ("variance_uniform.csv", result.ensemble_variance_uniform),
        ("variance_gaussian.csv", result.ensemble_variance_gaussian),
    ):
        _write_csv(
            out / name,
            ["m", "variance"],
            ([str(int(m)), _fmt(v)] for m, v in zip(result.indices, series)),
        )
    _write_manifest(out, config.to_dict(), duration, result.max_conservation_drift)
    return EXIT_OK


def cmd_solve(p: TwoEconomyParams, m_max: int, output_dir: str) -> int:
    """Deterministic closed form: solution.csv rows (m, x_m, y_m) + roots.json."""
    if m_max < 0:
        raise ParameterError(f"m-max must be >= 0, got {m_max}")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    sol = closed_form(p)
    roots = characteristic_roots(p)
    xs, ys = evaluate_series(sol, m_max)
    duration = time.perf_counter() - start

    _write_csv(
        out / "solution.csv",
        ["m", "x_m", "y_m"],
        ([str(m), _fmt(x), _fmt(y)] for m, (x, y) in enumerate(zip(xs, ys))),
    )
    _write_json(
        out / "roots.json",
        {
            "roots": [roots.root_unit, roots.root_decay],
            "root_unit": roots.root_unit,
            "root_decay": roots.root_decay,
            "fixed_point": [sol.fixed_point_x, sol.fixed_point_y],
            "coefficients": [sol.coeff_x, sol.coeff_y],
            "m_max": m_max,
            "params": dataclasses.asdict(p),
        },
    )
    w = p.total
    drift = float(np.abs((xs + ys) - w).max() / w) if w > 0.0 else 0.0
    _write_manifest(
        out,
        {**dataclasses.asdict(p), "m_max": m_max, "output_dir": output_dir},
        duration,
        drift,
    )
    return EXIT_OK


def cmd_concordance(config: RunConfig, extras: dict) -> int:
    """Ensemble mean vs closed form; exit 2 when the deviation tops the threshold.

    ``extras`` carries the two-economy keys ``lambda_x``, ``lambda_y``, ``x0``
    and ``y0``.
    """
    if config.agents != 2:
        raise ParameterError(f"concordance requires agents = 2, got {config.agents}")
    missing = [k for k in _CONCORDANCE_KEYS if k not in extras]
    if missing:
        raise ParameterError(f"concordance needs {missing} via flags or config")
    background = background_from_dict(config.background)
    p = TwoEconomyParams(
        extras["lambda_x"],
        extras["lambda_y"],
        induced_epsilon_mean(background, n=2),
        extras["x0"],
        extras["y0"],
    )
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    report = concordance(p, background, config.replicas, config.transactions, config.seed)
    duration = time.perf_counter() - start

    _write_csv(
        out / "concordance.csv",
        ["m", "ensemble_mean_x", "deterministic_x"],
        (
            [str(int(m)), _fmt(a), _fmt(b)]
            for m, a, b in zip(
                report.transaction_indices, report.ensemble_mean_x, report.deterministic_x
            )
        ),
    )
    passed = report.max_relative_deviation <= config.threshold
    _write_json(
        out / "concordance_summary.json",
        {
            "max_relative_deviation": report.max_relative_deviation,
            "threshold": config.threshold,
            "passed": passed,
            "epsilon_det": report.epsilon_det,
            "replicas": report.replicas,
            "transactions": config.transactions,
            "total_wealth": report.total_wealth,
        },
    )
    _write_manifest(
        out,
        {
            **config.to_dict(),
            "lambda_x": p.lambda_x,
            "lambda_y": p.lambda_y,
            "x0": p.x0,
            "y0": p.y0,
        },
        duration,
        report.max_conservation_drift,
    )
    if not passed:
        print(
            f"concordance deviation {report.max_relative_deviation:.4f} exceeds "
            f"threshold {config.threshold}",
            file=sys.stderr,
        )
        return EXIT_THRESHOLD
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1 (argparse defaults to 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _scalar_or_list(text: str) -> float | list:
    parts = [s for s in text.split(",") if s != ""]
    if len(parts) == 1:
        return float(parts[0])
    return [float(s) for s in parts]


def _float_list(text: str) -> list:
    return [float(s) for s in text.split(",") if s != ""]


def _add_run_flags(sub: argparse.ArgumentParser, *, background: bool = True) -> None:
    sub.add_argument("--config", type=str, default=None, help="JSON config file")
    sub.add_argument("--seed", type=int, default=None, help="64-bit unsigned RNG seed")
    sub.add_argument("--agents", type=int, default=None)
    sub.add_argument("--lambda", dest="lambdas", type=_scalar_or_list, default=None,
                     metavar="F|LIST", help="saving propensity, scalar or comma list")
    sub.add_argument("--initial-wealth", type=_scalar_or_list, default=None,
                     metavar="F|LIST")
    sub.add_argument("--transactions", type=int, default=None)
    sub.add_argument("--record-every", type=int, default=None)
    sub.add_argument("--out", dest="output_dir", type=str, default=None, metavar="DIR")
    if background:
        sub.add_argument("--background", choices=["uniform", "gaussian", "constant"],
                         default=None)
        sub.add_argument("--mean", type=float, default=None, help="Gaussian mean")
        sub.add_argument("--sigma", type=float, default=None, help="Gaussian sigma")
        sub.add_argument("--epsilon", type=_float_list, default=None, metavar="LIST",
                         help="constant background shares, comma list")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wealthsim",
        description="Closed-economy wealth-exchange simulator and two-economy solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trajectory and emit CSV artifacts")
    _add_run_flags(sim)
    sim.add_argument("--bins", type=int, default=None, help="final-wealth histogram bins")

    cmp_ = sub.add_parser("compare", help="uniform vs Gaussian matched-ensemble comparison")
    _add_run_flags(cmp_, background=False)
    cmp_.add_argument("--replicas", type=int, default=None)
    cmp_.add_argument("--self-test", action="store_true", default=None,
                      help="run the uniform background on both arms (null comparison)")

    sol = sub.add_parser("solve", help="closed-form deterministic two-economy solution")
    sol.add_argument("--lambda-x", type=float, required=True)
    sol.add_argument("--lambda-y", type=float, required=True)
    sol.add_argument("--epsilon", type=float, required=True)
    sol.add_argument("--x0", type=float, required=True)
    sol.add_argument("--y0", type=float, required=True)
    sol.add_argument("--m-max", type=int, default=200)
    sol.add_argument("--out", dest="output_dir", type=str, default="out", metavar="DIR")

    con = sub.add_parser("concordance", help="stochastic ensemble mean vs closed form")
    _add_run_flags(con)
    con.add_argument("--replicas", type=int, default=None)
    con.add_argument("--threshold", type=float, default=None,
                     help="max allowed deviation as a fraction of total wealth")
    con.add_argument("--lambda-x", type=float, default=None)
    con.add_argument("--lambda-y", type=float, default=None)
    con.add_argument("--x0", type=float, default=None)
    con.add_argument("--y0", type=float, default=None)

    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as f:
        loaded = json.load(f)
    if not isinstance(loaded, dict):
        raise ParameterError(f"config file {path} must hold a JSON object")
    return loaded


_RUN_KEYS = [f.name for f in dataclasses.fields(RunConfig)]
_CONCORDANCE_KEYS = ["lambda_x", "lambda_y", "x0", "y0"]


def _merge_run_config(args: argparse.Namespace, defaults: dict | None = None) -> tuple[RunConfig, dict]:
    """defaults < config file < explicit flags; returns extras for concordance."""
    merged: dict = dict(defaults or {})
    file_conf = _load_config_file(args.config)
    extras = {k: file_conf.pop(k) for k in list(file_conf) if k in _CONCORDANCE_KEYS}
    merged.update(file_conf)

    background = dict(merged.get("background", {"kind": "uniform"}))
    if getattr(args, "background", None) is not None:
        background = {"kind": args.background}
    if getattr(args, "mean", None) is not None:
        background["mean"] = args.mean
    if getattr(args, "sigma", None) is not None:
        background["sigma"] = args.sigma
    if getattr(args, "epsilon", None) is not None:
        background["epsilon"] = args.epsilon
    merged["background"] = background

    for key in _RUN_KEYS:
        if key == "background":
            continue
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    for key in _CONCORDANCE_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            extras[key] = val
    return RunConfig.from_dict(merged), extras


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "simulate":
            config, _ = _merge_run_config(args)
            return cmd_simulate(config)
        if args.command == "compare":
            config, _ = _merge_run_config(args)
            return cmd_compare(config)
        if args.command == "solve":
            p = TwoEconomyParams(args.lambda_x, args.lambda_y, args.epsilon, args.x0, args.y0)
            return cmd_solve(p, args.m_max, args.output_dir)
        if args.command == "concordance":
            config, extras = _merge_run_config(
                args,
                defaults={"agents": 2, "replicas": 1000, "transactions": 200,
                          "background": {"kind": "gaussian"}},
            )
            return cmd_concordance(config, extras)
        raise ParameterError(f"unknown command {args.command!r}")
    except (ParameterError, DegenerateInputError, json.JSONDecodeError) as exc:
        print(f"wealthsim: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"wealthsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
