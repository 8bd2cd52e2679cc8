"""The four benchmark workloads: generated argv, expected artifacts, checks.

Each workload is one ``wealthsim`` CLI command at a fixed shape.  The
benchmark seed only picks the simulator's 64-bit seed, so every invocation
of a run receives the same argv and must write byte-identical data
artifacts.  Sizes keep one invocation between one and two seconds on a
2-core Xeon, so a 25-second run takes its medians over 12 to 20 invocations.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema

CONSERVATION_LIMIT = 1e-9
#: Share of paired replicas in which the Gaussian arm must end with the lower
#: variance (the hard gate of acceptance criterion 6).
PAIRED_WIN_SHARE = 0.95

#: Artifact name -> schema file under docs/schemas.
SCHEMAS = {
    "manifest.json": "manifest.schema.json",
    "comparison.json": "comparison.schema.json",
    "concordance_summary.json": "concordance.schema.json",
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: The layer the traced run is expected to find dominant.
    dominant: str
    #: CLI arguments before ``--seed`` and ``--out``.
    args: tuple[str, ...]
    #: Transactions stepped per invocation, over all arms and replicas.
    transactions: int
    #: Artifact name -> expected number of CSV lines (header included), or
    #: ``None`` for a JSON artifact.
    artifacts: dict
    #: Workload-specific output check; returns the problems found.
    check: Callable[[Path], list[str]]

    def argv(self, seed: int, out: Path) -> list[str]:
        return [*self.args, "--seed", str(program_seed(self.name, seed)), "--out", str(out)]


def program_seed(workload: str, seed: int) -> int:
    """The simulator seed a benchmark seed stands for (64-bit, per workload)."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _check_compare(out: Path) -> list[str]:
    result = _read_json(out / "comparison.json")
    pairs = zip(result["replica_variance_uniform"], result["replica_variance_gaussian"])
    wins = sum(g < u for u, g in pairs)
    need = math.ceil(PAIRED_WIN_SHARE * result["replicas"])
    return [] if wins >= need else [f"gaussian below uniform in {wins} pairings, need {need}"]


def _check_concordance(out: Path) -> list[str]:
    summary = _read_json(out / "concordance_summary.json")
    if summary["passed"] is not True:
        return [f"concordance failed: deviation {summary['max_relative_deviation']}"]
    return []


def _no_check(out: Path) -> list[str]:
    return []


DESK = ("--agents", "100", "--lambda", "0.9", "--initial-wealth", "100")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare-desk",
            dominant="core.step",
            args=("compare", *DESK, "--transactions", "20000", "--replicas", "2"),
            transactions=2 * 2 * 20000,
            # Default cadence 20000 // 10000 = 2: records at 0, 2, ..., 20000.
            artifacts={
                "comparison.json": None,
                "manifest.json": None,
                "variance_uniform.csv": 10002,
                "variance_gaussian.csv": 10002,
            },
            check=_check_compare,
        ),
        Workload(
            name="concordance-2agent",
            dominant="core.step",
            args=(
                "concordance", "--lambda-x", "0.95", "--lambda-y", "0.8",
                "--x0", "1000", "--y0", "2000", "--background", "gaussian",
                "--transactions", "200", "--replicas", "1000",
            ),
            transactions=1000 * 200,
            artifacts={"concordance.csv": 202, "concordance_summary.json": None, "manifest.json": None},
            check=_check_concordance,
        ),
        Workload(
            name="simulate-dense",
            dominant="cli.write",
            args=(
                "simulate", *DESK, "--background", "gaussian",
                "--transactions", "6000", "--record-every", "1",
            ),
            transactions=6000,
            artifacts={"trajectory.csv": 6002, "histogram.csv": 51, "manifest.json": None},
            check=_no_check,
        ),
        Workload(
            name="simulate-wide",
            dominant="core.sampling",
            args=(
                "simulate", "--agents", "1000", "--lambda", "0.9", "--initial-wealth", "100",
                "--background", "gaussian", "--transactions", "30000", "--record-every", "30000",
            ),
            transactions=30000,
            artifacts={"trajectory.csv": 3, "histogram.csv": 51, "manifest.json": None},
            check=_no_check,
        ),
    )
}


def check_outputs(workload: Workload, out: Path, schema_dir: Path) -> list[str]:
    """Problems with one invocation's artifacts; an empty list means correct."""
    present = sorted(p.name for p in out.iterdir())
    if present != sorted(workload.artifacts):
        return [f"artifacts {present}, expected {sorted(workload.artifacts)}"]
    problems = []
    for name, lines in workload.artifacts.items():
        path = out / name
        if lines is None:
            try:
                jsonschema.validate(_read_json(path), _read_json(schema_dir / SCHEMAS[name]))
            except jsonschema.ValidationError as exc:
                problems.append(f"{name}: {exc.message}")
        elif (got := path.read_bytes().count(b"\n")) != lines:
            problems.append(f"{name}: {got} lines, expected {lines}")
    conservation = _read_json(out / "manifest.json")["conservation"]
    drift = conservation["max_relative_drift"]
    if not conservation["checked"] or drift is None or drift > CONSERVATION_LIMIT:
        problems.append(f"conservation drift {drift} above {CONSERVATION_LIMIT}")
    return problems or workload.check(out)


def artifact_digest(out: Path) -> tuple[str, int, int]:
    """Digest of the data artifacts, their size, and the size of all artifacts.

    The manifest enters the digest without ``duration_seconds``, the one
    field that differs between reruns; for the same reason it is left out of
    the data size.
    """
    h = hashlib.sha256()
    data_bytes = total_bytes = 0
    for path in sorted(out.iterdir()):
        raw = path.read_bytes()
        total_bytes += len(raw)
        if path.name == "manifest.json":
            manifest = json.loads(raw)
            manifest.pop("duration_seconds")
            raw = json.dumps(manifest, sort_keys=True).encode()
        else:
            data_bytes += len(raw)
        h.update(path.name.encode() + b"\0" + raw + b"\0")
    return h.hexdigest(), data_bytes, total_bytes
