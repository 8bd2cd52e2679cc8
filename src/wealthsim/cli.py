"""Command-line harness: simulate | compare | solve | concordance.

Runs are configured by a JSON file (--config) with flag overrides (flags
win) and write CSV/JSON artifacts plus a manifest into the output directory.
Re-running with the manifest's config and seed reproduces the data artifacts
byte for byte; floats are written in shortest round-trip form.

Exit codes: 0 success, 1 usage or config error, out of memory or a broken
conservation check, 2 acceptance-threshold failure, 3 I/O error (also a
failed CSV worker process).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, _rows
from .core import (
    BACKGROUNDS,
    CONSERVATION_RTOL,
    GENERATOR_NAME,
    UniformBackground,
    _drift,
    _integer,
    _is_bool,
    _number,
    background_from_dict,
    make_agents,
    run_trajectory,
)
from .errors import ConservationError, DegenerateInputError, ParameterError
from .solver import TwoEconomyParams, characteristic_roots, closed_form, concordance, evaluate_series
from .stats import _bins, build_histogram, compare_backgrounds

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_THRESHOLD = 2
EXIT_IO = 3


#: Run config key -> (check, what a value must be) for the keys that some
#: command ignores or reads only after its run; every command hands the other
#: keys to a library check first.  A check raises ParameterError or returns False.
_CONFIG_TYPES = {
    "background": (background_from_dict, "a background descriptor"),
    "replicas": (lambda v: _integer(v, "replicas"), "an integer"),
    "output_dir": (lambda v: isinstance(v, str), "a string"),
    "bins": (_bins, "an integer >= 1"),
    "threshold": (lambda v: _number(v, "threshold", 0), "a finite number >= 0"),
    "self_test": (_is_bool, "true or false"),
}


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
        unknown = set(d) - cls.__dataclass_fields__.keys()
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        for key, (check, kind) in _CONFIG_TYPES.items():
            if key in d and check(d[key]) is False:
                raise ParameterError(f"config key {key!r} must be {kind}, got {d[key]!r}")
        return cls(**d)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _write_artifacts(
    output_dir: str, files: dict, config_echo: dict, duration: float, drift: float
) -> None:
    """Create ``output_dir`` and write ``files`` plus manifest.json into it.

    ``files`` maps a ``.json`` name to its payload and a ``.csv`` name to
    ``(header, *columns)``; a column is a 1-D array, or a 2-D array whose
    rows fill several fields.  Fields are the ``repr`` of Python ints and
    floats.  Commands call this only after the run has succeeded, so a
    failed command writes nothing, not even ``output_dir``.

    CSV rows are written by ``_write_rows``, with worker processes for a
    large CSV.
    """
    manifest = {
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
    }
    out = Path(output_dir)
    try:
        os.fsencode(out)
    except UnicodeEncodeError:  # "é" from a UTF-8 config under LC_ALL=C: name it in UTF-8
        out = Path(os.fsdecode(output_dir.encode("utf-8")))
    out.mkdir(parents=True, exist_ok=True)
    for name, content in {**files, "manifest.json": manifest}.items():
        with open(out / name, "w", encoding="utf-8", newline="") as f:
            if not name.endswith(".csv"):
                f.write(json.dumps(content, indent=2) + "\n")
                continue
            header, *columns = content
            f.write(",".join(header) + "\n")
            _write_rows(f, columns)


#: Fields a CSV needs per part before its rows are split between processes.
#: A worker starts in about 10 ms, the time this process takes to format
#: about 36k fields, so a part of this size saves at least about 25 ms.
_SPLIT_FIELDS = 1 << 17


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_rows(f, columns) -> None:
    """Write the CSV rows of ``columns`` to the text file ``f``.

    The rows are split into one part per CPU, or fewer, so that each part
    holds at least ``_SPLIT_FIELDS`` fields.  This process formats the first
    part, and a worker process running ``_rows.py`` formats each other into
    a temporary file, which is appended to ``f`` in order.  Both read the
    columns as the same flat buffers through ``_rows.lines``, so the bytes
    are those one process writes.  The rows of a worker that cannot be
    started, or whose temporary files cannot be made, are formatted by this
    process; a worker that fails raises OSError, which the CLI reports with
    exit 3.  Every worker has ended when this returns or raises.
    """
    rows = len(columns[0])
    parts = max(1, min(_cpus(), sum(c.size for c in columns) // _SPLIT_FIELDS, rows))
    flat = [(memoryview(c.ravel()), math.prod(c.shape[1:])) for c in columns]
    spec = [f"{view.format}{width}" for view, width in flat]
    bounds = [rows * k // parts for k in range(parts + 1)]
    pieces = []  # (lo, hi, worker or None if this process formats the rows, its output file)
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            import subprocess  # here: only a split CSV needs them, and they take about 4 ms
            import tempfile

            proc = made = None
            try:
                made = tempfile.TemporaryFile()
                # The worker reads its rows from a file, not a pipe, so this
                # process does not wait on the worker's start-up to hand them over.
                with tempfile.TemporaryFile() as given:
                    for view, width in flat:
                        given.write(view[lo * width:hi * width])
                    given.seek(0)
                    proc = subprocess.Popen(
                        [sys.executable, "-I", "-S", _rows.__file__, str(hi - lo), *spec],
                        stdin=given, stdout=made,
                    )
            except OSError:  # this process formats these rows instead
                pass
            pieces.append((lo, hi, proc, made))
        f.writelines(_rows.lines(flat, 0, bounds[1]))
        for lo, hi, proc, made in pieces:
            if proc is None:
                f.writelines(_rows.lines(flat, lo, hi))
                continue
            if proc.wait() != 0:
                raise OSError(f"CSV worker for rows {lo}-{hi} exited with code {proc.returncode}")
            f.flush()
            made.seek(0)
            shutil.copyfileobj(made, f.buffer)
    finally:
        for _, _, proc, made in pieces:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
            if made is not None:
                made.close()


def cmd_simulate(config: RunConfig) -> int:
    """One trajectory: trajectory.csv, histogram.csv of final wealth, manifest."""
    params = make_agents(config.agents, config.lambdas, config.initial_wealth)
    background = background_from_dict(config.background)

    start = time.perf_counter()
    traj = run_trajectory(
        params, background, config.transactions, config.seed, config.record_every
    )
    duration = time.perf_counter() - start

    hist = build_histogram(traj.final.wealth, bins=config.bins)
    files = {
        "trajectory.csv": (
            ["m", *(f"wealth_{j}" for j in range(config.agents))], traj.indices, traj.wealth
        ),
        "histogram.csv": (
            ["bin_lo", "bin_hi", "count"], hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts
        ),
    }
    _write_artifacts(
        config.output_dir, files, config.to_dict(), duration, traj.max_conservation_drift
    )
    return EXIT_OK


def cmd_compare(config: RunConfig) -> int:
    """Uniform vs Gaussian arms: comparison.json plus per-arm variance CSVs.

    --self-test runs the uniform background on both arms; paired seeding then
    forces a reduction fraction of exactly zero.
    """
    params = make_agents(config.agents, config.lambdas, config.initial_wealth)

    start = time.perf_counter()
    result = compare_backgrounds(
        params,
        config.transactions,
        config.replicas,
        config.seed,
        background_b=UniformBackground() if config.self_test else None,
        record_every=config.record_every,
    )
    duration = time.perf_counter() - start

    files = {
        "comparison.json": {
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
        },
        "variance_uniform.csv": (
            ["m", "variance"], result.indices, result.ensemble_variance_uniform
        ),
        "variance_gaussian.csv": (
            ["m", "variance"], result.indices, result.ensemble_variance_gaussian
        ),
    }
    _write_artifacts(
        config.output_dir, files, config.to_dict(), duration, result.max_conservation_drift
    )
    return EXIT_OK


def cmd_solve(p: TwoEconomyParams, m_max: int, output_dir: str) -> int:
    """Deterministic closed form: solution.csv rows (m, x_m, y_m) + roots.json."""
    start = time.perf_counter()
    sol = closed_form(p)
    roots = characteristic_roots(p)
    xs, ys = evaluate_series(sol, m_max)
    duration = time.perf_counter() - start

    files = {
        "solution.csv": (["m", "x_m", "y_m"], np.arange(m_max + 1), xs, ys),
        "roots.json": {
            "roots": [roots.root_unit, roots.root_decay],
            "root_unit": roots.root_unit,
            "root_decay": roots.root_decay,
            "fixed_point": [sol.fixed_point_x, sol.fixed_point_y],
            "coefficients": [sol.coeff_x, sol.coeff_y],
            "m_max": m_max,
            "params": dataclasses.asdict(p),
        },
    }
    echo = {**dataclasses.asdict(p), "m_max": m_max, "output_dir": output_dir}
    _write_artifacts(output_dir, files, echo, duration, _drift((xs + ys)[:, None], p.total, 0))
    return EXIT_OK


def cmd_concordance(config: RunConfig) -> int:
    """Ensemble mean vs closed form; exit 2 when the deviation tops the threshold.

    Agent 0 is economy x and agent 1 economy y.  Every transaction is
    recorded, so ``record_every`` must be null or 1.
    """
    if _integer(config.agents, "agents") != 2:
        raise ParameterError(f"concordance requires agents = 2, got {config.agents}")
    if config.record_every is not None and _integer(config.record_every, "record_every") != 1:
        raise ParameterError(
            f"concordance records every transaction; record_every must be null or 1, "
            f"got {config.record_every}"
        )
    ax, ay = make_agents(2, config.lambdas, config.initial_wealth)
    background = background_from_dict(config.background)
    p = TwoEconomyParams(
        ax.lam, ay.lam, background.mean_share(2), ax.initial_wealth, ay.initial_wealth
    )

    start = time.perf_counter()
    report = concordance(p, background, config.replicas, config.transactions, config.seed)
    duration = time.perf_counter() - start

    passed = report.max_relative_deviation <= config.threshold
    files = {
        "concordance.csv": (
            ["m", "ensemble_mean_x", "deterministic_x"],
            report.transaction_indices,
            report.ensemble_mean_x,
            report.deterministic_x,
        ),
        "concordance_summary.json": {
            "max_relative_deviation": report.max_relative_deviation,
            "threshold": config.threshold,
            "passed": passed,
            "epsilon_det": report.epsilon_det,
            "replicas": report.replicas,
            "transactions": config.transactions,
            "total_wealth": report.total_wealth,
        },
    }
    _write_artifacts(
        config.output_dir, files, config.to_dict(), duration, report.max_conservation_drift
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
        sub.add_argument("--background", choices=list(BACKGROUNDS), default=None)
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
    with open(path, encoding="utf-8") as f:
        try:
            loaded = json.load(f)
        except ValueError as exc:  # not JSON, or an integer of more than 4300 digits
            raise ParameterError(f"config file {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ParameterError(f"config file {path} must hold a JSON object")
    return loaded


#: Two-economy name -> (run key, entry).  ``concordance`` flags and config
#: files with these keys set entry 0 (economy x) or 1 (economy y) of a run
#: key; a run value that is not a list is first broadcast to two entries.
_ENTRY_KEYS = {
    "lambda_x": ("lambdas", 0),
    "lambda_y": ("lambdas", 1),
    "x0": ("initial_wealth", 0),
    "y0": ("initial_wealth", 1),
}


def _set_entries(merged: dict, source: dict) -> None:
    for key, (run_key, entry) in _ENTRY_KEYS.items():
        if key not in source:
            continue
        current = merged.get(run_key, getattr(RunConfig, run_key))
        if not isinstance(current, list):
            current = [current, current]
        if len(current) != 2:
            raise ParameterError(f"{key!r} sets entry {entry} of {run_key}, got {current!r}")
        merged[run_key] = [source[key] if i == entry else v for i, v in enumerate(current)]


def _merge_run_config(args: argparse.Namespace, defaults: dict | None = None) -> RunConfig:
    """defaults < config file < explicit flags; ``--mean`` etc. edit the background."""
    flags = {k: v for k, v in vars(args).items()
             if v is not None and (k in RunConfig.__dataclass_fields__ or k in _ENTRY_KEYS)}
    if "background" in flags:
        flags["background"] = {"kind": flags["background"]}
    merged: dict = dict(defaults or {})
    for source in (_load_config_file(args.config), flags):
        merged.update({k: v for k, v in source.items() if k not in _ENTRY_KEYS})
        _set_entries(merged, source)
    shares = {k: getattr(args, k, None) for k in ("mean", "sigma", "epsilon")}
    shares = {k: v for k, v in shares.items() if v is not None}
    background = merged.get("background", {"kind": "uniform"})
    if shares and isinstance(background, dict):  # RunConfig.from_dict rejects a non-object
        merged["background"] = {**background, **shares}
    return RunConfig.from_dict(merged)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "simulate":
            return cmd_simulate(_merge_run_config(args))
        if args.command == "compare":
            return cmd_compare(_merge_run_config(args))
        if args.command == "solve":
            p = TwoEconomyParams(args.lambda_x, args.lambda_y, args.epsilon, args.x0, args.y0)
            return cmd_solve(p, args.m_max, args.output_dir)
        config = _merge_run_config(  # concordance, the last of the required subcommands
            args,
            defaults={"agents": 2, "replicas": 1000, "transactions": 200,
                      "background": {"kind": "gaussian"}},
        )
        return cmd_concordance(config)
    except (ParameterError, DegenerateInputError) as exc:
        print(f"wealthsim: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConservationError as exc:
        print(f"wealthsim: conservation error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"wealthsim: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"wealthsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
