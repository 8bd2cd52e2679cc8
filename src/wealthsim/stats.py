"""Distributional statistics for wealth trajectories.

Covers the cross-agent wealth variance, mergeable histograms and running
moments for ensemble aggregation, a method-of-moments Gamma fit of the
equilibrium wealth distribution, windowed equilibrium detection on variance
series, and a matched-ensemble comparison of two noise backgrounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    AgentParams,
    GaussianBackground,
    NoiseBackground,
    UniformBackground,
    WealthState,
    _evolve,
)
from .errors import DegenerateInputError, ParameterError


def wealth_variance(state: WealthState | Sequence[float] | np.ndarray) -> float:
    """Population variance of agent wealth at a single transaction index."""
    w = state.wealth if isinstance(state, WealthState) else np.asarray(state, dtype=float)
    if w.size < 1:
        raise ParameterError("need at least one agent")
    return float(np.var(w))


class RunningMoments:
    """Streaming mean/variance accumulator with associative merge.

    ``merge`` combines two accumulators as if their samples had been pushed
    into one, so ensemble statistics can be reduced in any order.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        out = RunningMoments()
        total = self.count + other.count
        if total == 0:
            return out
        delta = other._mean - self._mean
        out.count = total
        out._mean = self._mean + delta * other.count / total
        out._m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / total
        return out

    def mean(self) -> float:
        if self.count == 0:
            raise DegenerateInputError("no samples pushed")
        return self._mean

    def variance(self) -> float:
        """Population variance of the pushed samples."""
        if self.count == 0:
            raise DegenerateInputError("no samples pushed")
        return self._m2 / self.count


@dataclass(eq=False)
class Histogram:
    """Counts over contiguous bins; mergeable when edges coincide."""

    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.bin_edges = np.asarray(self.bin_edges, dtype=float)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.bin_edges.ndim != 1 or self.bin_edges.size < 2:
            raise ParameterError("need at least two bin edges")
        if np.any(np.diff(self.bin_edges) <= 0.0):
            raise ParameterError("bin edges must be strictly increasing")
        if self.counts.size != self.bin_edges.size - 1:
            raise ParameterError("counts length must be edges length - 1")
        if self.counts.min() < 0:
            raise ParameterError("counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def build_histogram(
    samples: Sequence[float] | np.ndarray,
    bins: int,
    range: tuple[float, float] | None = None,
) -> Histogram:
    """Histogram with left-closed right-open bins (last bin closed).

    Without an explicit range the sample min/max is used (widened by 0.5
    either side when all samples coincide).  Samples outside an explicit
    range are rejected so counts always partition the input.
    """
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise ParameterError("samples must be non-empty")
    if bins < 1:
        raise ParameterError(f"bins must be >= 1, got {bins}")
    if range is None:
        lo, hi = float(s.min()), float(s.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
    else:
        lo, hi = float(range[0]), float(range[1])
        if not lo < hi:
            raise ParameterError(f"range low must be < high, got ({lo}, {hi})")
        if s.min() < lo or s.max() > hi:
            raise ParameterError("samples fall outside the given range")
    counts, edges = np.histogram(s, bins=bins, range=(lo, hi))
    return Histogram(edges, counts)


def merge_histograms(a: Histogram, b: Histogram) -> Histogram:
    """Combine two histograms over identical edges by summing counts."""
    if not np.array_equal(a.bin_edges, b.bin_edges):
        raise ParameterError("histograms must share identical bin edges")
    return Histogram(a.bin_edges.copy(), a.counts + b.counts)


@dataclass(frozen=True)
class GammaFit:
    """Moment-matched Gamma parameters: shape*scale = mean, shape*scale**2 = variance."""

    shape: float
    scale: float
    sample_mean: float
    sample_variance: float


def gamma_fit_moments(samples: Sequence[float] | np.ndarray) -> GammaFit:
    """Fit Gamma(shape, scale) by matching the first two sample moments.

    shape = mean**2 / variance, scale = variance / mean (population variance).
    """
    s = np.asarray(samples, dtype=float)
    if s.size < 2:
        raise ParameterError(f"need at least 2 samples, got {s.size}")
    if s.min() < 0.0:
        raise ParameterError("samples must be non-negative")
    mean = float(s.mean())
    var = float(s.var())
    if var <= 0.0:
        raise DegenerateInputError("zero-variance sample admits no Gamma fit")
    return GammaFit(shape=mean * mean / var, scale=var / mean, sample_mean=mean, sample_variance=var)


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of windowed equilibrium detection on a variance series."""

    converged: bool
    equilibrium_index: int | None
    window: int
    tolerance: float
    final_variance: float


def detect_equilibrium(
    variance_series: Sequence[tuple[int, float]] | np.ndarray,
    window: int = 1000,
    tolerance: float = 1e-3,
) -> ConvergenceReport:
    """Find where a variance series settles, by trailing-window averages.

    The series is a sequence of (index, variance) pairs sorted by index.
    A trailing mean over ``window`` points is tracked; the series converges
    at the first position where the relative change between consecutive
    trailing means drops below ``tolerance`` and stays below it for one full
    further window.  A series shorter than 2*window is not enough data
    (``converged=False``, no error).  ``final_variance`` is the trailing
    mean at the last point.
    """
    arr = np.asarray(variance_series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise ParameterError("variance series must be a non-empty sequence of (index, value)")
    if window < 2:
        raise ParameterError(f"window must be >= 2, got {window}")
    if not tolerance > 0.0:
        raise ParameterError(f"tolerance must be > 0, got {tolerance}")
    idx = arr[:, 0]
    v = arr[:, 1]
    if np.any(np.diff(idx) < 0):
        raise ParameterError("variance series must be sorted by index")
    t = v.size
    final_variance = float(v[-min(window, t):].mean())
    if t < 2 * window:
        return ConvergenceReport(False, None, window, tolerance, final_variance)

    cum = np.concatenate(([0.0], np.cumsum(v)))
    trailing = (cum[window:] - cum[:-window]) / window  # mean of v[j:j+window]
    change = np.abs(np.diff(trailing))
    prev = trailing[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(prev > 0.0, change / prev, np.where(change == 0.0, 0.0, np.inf))
    below = rel < tolerance  # below[j] <-> series position window + j

    need = window + 1  # first quiet position plus one full confirming window
    if below.size >= need:
        runs = np.convolve(below.astype(np.int64), np.ones(need, dtype=np.int64), "valid")
        hits = np.flatnonzero(runs == need)
        if hits.size:
            pos = window + int(hits[0])
            return ConvergenceReport(True, int(round(idx[pos])), window, tolerance, final_variance)
    return ConvergenceReport(False, None, window, tolerance, final_variance)


def variance_trajectory(
    params: Sequence[AgentParams],
    background: NoiseBackground,
    transactions: int,
    seed: int,
    record_every: int,
    replicas: int = 1,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Cross-agent wealth variance at the recording cadence, per replica.

    Replica k runs with seed ``(seed + k) mod 2**64``.  Returns (indices of
    shape ``(records,)``, variances of shape ``(replicas, records)``, max
    conservation drift) without storing full states; the workhorse behind
    background comparisons.
    """
    lam = np.array([p.lam for p in params])
    x0 = np.array([p.initial_wealth for p in params])
    indices: list[int] = []
    variances: list[np.ndarray] = []

    def record(i: int, x: np.ndarray) -> None:
        indices.append(i)
        variances.append(x.var(axis=1))

    drift = _evolve(lam, x0, background, transactions, seed, replicas, record_every, record)
    return np.array(indices, dtype=np.int64), np.stack(variances, axis=1), drift


@dataclass
class ComparisonResult:
    """Matched-ensemble comparison of wealth variance under two backgrounds.

    Arm "uniform" defaults to the uniform background and arm "gaussian" to
    Gaussian(1/2, 1/12); replica k uses seed base_seed + k on both arms so
    the pairing cancels replica-level noise.  Arm variances are the mean of
    the ensemble-averaged variance series over the final tail of recorded
    points; per-replica values support pairwise win counts and convergence
    medians.
    """

    variance_uniform: float
    variance_gaussian: float
    reduction_fraction: float
    convergence_uniform: ConvergenceReport
    convergence_gaussian: ConvergenceReport
    replicas: int
    replica_variance_uniform: list[float] = field(default_factory=list)
    replica_variance_gaussian: list[float] = field(default_factory=list)
    replica_convergence_uniform: list[int | None] = field(default_factory=list)
    replica_convergence_gaussian: list[int | None] = field(default_factory=list)
    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    ensemble_variance_uniform: np.ndarray = field(default_factory=lambda: np.empty(0))
    ensemble_variance_gaussian: np.ndarray = field(default_factory=lambda: np.empty(0))
    max_conservation_drift: float = 0.0


def compare_backgrounds(
    params: Sequence[AgentParams],
    transactions: int,
    replicas: int,
    base_seed: int,
    *,
    background_a: NoiseBackground | None = None,
    background_b: NoiseBackground | None = None,
    record_every: int | None = None,
    window: int = 1000,
    tolerance: float = 1e-3,
    tail_fraction: float = 0.1,
) -> ComparisonResult:
    """Run paired ensembles under two backgrounds and compare variances.

    Same agents and paired seeds on both arms; arm A defaults to uniform and
    arm B to Gaussian(1/2, 1/12).  The equilibrium variance of a series is
    its mean over the final ``tail_fraction`` of recorded points; the
    reduction fraction is (var_A - var_B) / var_A (0 when var_A is 0).
    Convergence detection runs on post-transaction records only: the
    pre-transaction snapshot is not a dynamics outcome and would skew the
    first detection window.
    """
    bg_a = UniformBackground() if background_a is None else background_a
    bg_b = GaussianBackground() if background_b is None else background_b
    cadence = record_every if record_every is not None else max(1, transactions // 10_000)

    indices, series_a, da = variance_trajectory(
        params, bg_a, transactions, base_seed, cadence, replicas
    )
    _, series_b, db = variance_trajectory(params, bg_b, transactions, base_seed, cadence, replicas)

    tail = max(1, int(round(indices.size * tail_fraction)))
    rep_var_a = [float(v[-tail:].mean()) for v in series_a]
    rep_var_b = [float(v[-tail:].mean()) for v in series_b]

    acc_a = RunningMoments()
    acc_b = RunningMoments()
    for va, vb in zip(rep_var_a, rep_var_b):
        acc_a.push(va)
        acc_b.push(vb)
    var_a = acc_a.mean()
    var_b = acc_b.mean()

    ens_a = np.mean(series_a, axis=0)
    ens_b = np.mean(series_b, axis=0)

    def detect(values: np.ndarray) -> ConvergenceReport:
        return detect_equilibrium(
            np.column_stack((indices[1:], values[1:])), window, tolerance
        )

    conv_a = detect(ens_a)
    conv_b = detect(ens_b)
    rep_conv_a = [detect(v).equilibrium_index for v in series_a]
    rep_conv_b = [detect(v).equilibrium_index for v in series_b]

    reduction = (var_a - var_b) / var_a if var_a > 0.0 else 0.0
    return ComparisonResult(
        variance_uniform=var_a,
        variance_gaussian=var_b,
        reduction_fraction=reduction,
        convergence_uniform=conv_a,
        convergence_gaussian=conv_b,
        replicas=replicas,
        replica_variance_uniform=rep_var_a,
        replica_variance_gaussian=rep_var_b,
        replica_convergence_uniform=rep_conv_a,
        replica_convergence_gaussian=rep_conv_b,
        indices=indices,
        ensemble_variance_uniform=ens_a,
        ensemble_variance_gaussian=ens_b,
        max_conservation_drift=max(da, db),
    )
