"""Benchmark wealthsim end to end through its CLI, one workload at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

A run is a closed loop with one client: after one untimed warm-up, it runs
the workload's CLI command in a fresh child process (``perfbench/child.py``),
waits for it, checks its artifacts, and starts the next, until ``--seconds``
have passed (at least three timed invocations).  Every invocation receives
the same argv, generated from ``--seed``.

``--trace 0`` reports the end-to-end metrics as medians over the timed
invocations.  ``--trace 1`` alternates untraced and traced invocations and
reports the per-layer metrics of the traced ones (medians) plus the tracing
overhead; end-to-end figures never come from traced invocations.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in turn
and prints one summary table.

An invocation fails if its exit code is not 0, if an artifact is missing or
malformed, if conservation drift exceeds 1e-9, if the workload's own gate
fails, or if its data artifacts differ from those of the run's first
invocation.  The benchmark exits non-zero without a result when the
wealthsim sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

from layers import UNITS, analyse, dominant
from workloads import WORKLOADS, artifact_digest, check_outputs, program_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "wealthsim"
SCHEMA_DIR = ROOT / "docs" / "schemas"
WORK_DIR = ROOT / ".perfbench_work"
#: Artifacts go to the same path, relative to the checkout, in every
#: invocation: the manifest echoes it, and the digest must not depend on
#: where the checkout lives.  Runs in one checkout therefore go one at a time.
OUT_DIR = Path(".perfbench_work") / "out"
RESULT_FILE = WORK_DIR / "result.json"

MIN_INVOCATIONS = 3
#: A run stops starting invocations once another could end past this.
RUN_LIMIT_S = 160.0
#: BLAS/OpenMP threads in the child: one keeps runs steady on a shared
#: machine, and the sequential step loop has nothing to spread.
BLAS_THREADS = 1
#: The held-out seed is recorded so that a later claim can be confirmed on
#: a seed no tuning run used.
HELDOUT_OFFSET = 1_000_000

END_TO_END_UNITS = {"txn_per_s": "txn/s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Invocation:
    traced: bool
    problems: list
    setup_s: float = 0.0
    main_s: float = 0.0
    rss_mb: float = 0.0
    digest: str = ""
    data_bytes: int = 0
    total_bytes: int = 0
    spans: list | None = None


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def warm_up() -> None:
    """Import wealthsim once in a child so later set-ups find compiled bytecode."""
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
                    "import wealthsim.cli"], cwd=ROOT, env=child_env(), check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=60)


def invoke(workload, seed: int, traced: bool, timeout: float) -> Invocation:
    """Run one CLI invocation in a child process and check what it wrote."""
    shutil.rmtree(ROOT / OUT_DIR, ignore_errors=True)
    RESULT_FILE.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(RESULT_FILE), "1" if traced else "0",
           "--", *workload.argv(seed, OUT_DIR)]
    started_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return Invocation(traced, [f"timed out after {timeout:.0f} s"])
    if proc.returncode != 0 or not RESULT_FILE.is_file():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return Invocation(traced, [f"exit code {proc.returncode}: {' | '.join(tail)}"])
    result = json.loads(RESULT_FILE.read_text())
    out = ROOT / OUT_DIR
    digest, data_bytes, total_bytes = artifact_digest(out)
    return Invocation(
        traced=traced,
        problems=check_outputs(workload, out, SCHEMA_DIR),
        setup_s=(result["setup_end_ns"] - started_ns) * 1e-9,
        main_s=result["main_s"],
        rss_mb=result["maxrss_kb"] / 1024.0,
        digest=digest,
        data_bytes=data_bytes,
        total_bytes=total_bytes,
        spans=result["spans"],
    )


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload, seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": workload.name,
        "seed": seed,
        "heldout_seed": seed + HELDOUT_OFFSET,
        "program_seed": program_seed(workload.name, seed),
        "argv": workload.argv(seed, OUT_DIR),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name: str, values: list, unit: str) -> str:
    q1, med, q3 = quartiles(values)
    samples = " ".join(f"{v:.6g}" for v in values)
    return (f"{name:<28} {med:14.6g} {unit:<10} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"
            f"\n  samples: {samples}")


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """One benchmark run; returns the result object and the lines to print."""
    WORK_DIR.mkdir(exist_ok=True)
    lines = [f"meta {json.dumps(metadata(workload, seed))}"]
    begun = time.monotonic()
    try:
        warm_up()
        runs: list[Invocation] = []
        deadline = time.monotonic() + seconds
        while len(runs) < MIN_INVOCATIONS or time.monotonic() < deadline:
            longest = max((i.setup_s + i.main_s for i in runs), default=0.0) + 5.0
            left = RUN_LIMIT_S - (time.monotonic() - begun)
            if left < longest:
                break
            traced = trace and len(runs) % 2 == 1
            runs.append(invoke(workload, seed, traced, left))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    reference = runs[0].digest
    for inv in runs:
        if not inv.problems and inv.digest != reference:
            inv.problems.append(f"data artifacts differ: {inv.digest} vs {reference}")
    lines.append(f"digest sha256:{reference} ({runs[0].data_bytes} data bytes)")

    good = [i for i in runs if not i.problems]
    plain = [i for i in good if not i.traced]
    metrics: dict = {}
    if trace:
        traced = [i for i in good if i.traced]
        per_inv = []
        share_rows = []
        for inv in traced:
            m, shares = analyse(inv.spans, inv.main_s, inv.data_bytes, inv.total_bytes)
            if m["core.transactions"] != workload.transactions:
                inv.problems.append(
                    f"traced {m['core.transactions']} transactions, "
                    f"expected {workload.transactions}")
            per_inv.append(m)
            share_rows.append(shares)
        for name in ("core.transactions", "core.records", "core.sample_calls", "cli.artifact_bytes"):
            if len({m[name] for m in per_inv}) > 1:
                for inv in traced:
                    inv.problems.append(f"{name} differs between traced invocations")
        if per_inv and plain:
            for name in per_inv[0]:
                metrics[name] = statistics.median(m[name] for m in per_inv)
            overhead = (statistics.median(i.main_s for i in traced)
                        / statistics.median(i.main_s for i in plain) - 1.0)
            metrics["trace.overhead_frac"] = overhead
            shares = {k: statistics.median(s[k] for s in share_rows) for k in share_rows[0]}
            lines.append("layer shares of main() wall time (median over traced invocations):")
            lines += [f"  {k:<16} {v:7.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])]
            found = dominant(shares)
            verdict = "matches" if found == workload.dominant else "DIFFERS from"
            lines.append(f"dominant layer {found} {verdict} expected {workload.dominant}")
            for name, value in metrics.items():
                lines.append(f"{name:<28} {value:14.6g} {UNITS[name]}")
    elif plain:
        series = {
            "txn_per_s": [workload.transactions / i.main_s for i in plain],
            "setup_s": [i.setup_s for i in plain],
            "peak_rss_mb": [i.rss_mb for i in plain],
        }
        for name, values in series.items():
            metrics[name] = statistics.median(values)
            lines.append(describe(name, values, END_TO_END_UNITS[name]))

    failed = sum(1 for i in runs if i.problems)
    for inv in runs:
        for problem in inv.problems:
            lines.append(f"FAILED ({'traced' if inv.traced else 'untraced'}): {problem}")
    lines.append(f"{'failed_frac':<28} {failed / len(runs):14.6g} ratio ({failed}/{len(runs)})")
    units = UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "cli.py").is_file() or not SCHEMA_DIR.is_dir():
        print(f"perfbench: wealthsim sources not found under {ROOT}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        result, lines = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if not result["metrics"]:
            print("\n".join(lines), file=sys.stderr)
            print(f"perfbench: {name}: no invocation succeeded", file=sys.stderr)
            return 1
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) > 1:
        print("== summary")
        for name, result in results.items():
            cells = [f"{m} {v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()]
            frac = result["failed"] / result["attempted"]
            print(f"{name:<20} " + "  ".join(cells) + f"  failed_frac {frac:.6g} ratio")
        print(json.dumps(results))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
