"""Distributional statistics for wealth trajectories.

Covers cross-agent wealth-variance series, mergeable histograms for ensemble
aggregation, a method-of-moments Gamma fit of the equilibrium wealth
distribution, windowed equilibrium detection on variance series, and a
matched-ensemble comparison of two noise backgrounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    _MAX_ARRAY_BYTES,
    AgentParams,
    GaussianBackground,
    NoiseBackground,
    UniformBackground,
    _array,
    _entries,
    _evolve,
    _integer,
    _number,
)
from .errors import DegenerateInputError, ParameterError


@dataclass(eq=False)
class Histogram:
    """Counts over contiguous bins; mergeable when edges coincide."""

    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.bin_edges = _array(self.bin_edges, "bin edge")
        if self.bin_edges.ndim != 1 or self.bin_edges.size < 2:
            raise ParameterError("need at least two bin edges")
        if np.any(np.diff(self.bin_edges) <= 0.0):
            raise ParameterError("bin edges must be strictly increasing")
        counts = _entries(self.counts, "count")
        if counts.shape != (self.bin_edges.size - 1,):
            raise ParameterError("counts must be a 1-D vector with one entry per bin")
        self.counts = np.array([_integer(c, "count", 0, 2**63 - 1) for c in counts], np.int64)

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
    range are rejected so counts always partition the input.  A span too
    narrow (or too wide for a float) for ``bins`` bins of finite positive
    width is refused with ``ParameterError``.
    """
    s = _array(samples, "sample")
    if s.size == 0:
        raise ParameterError("samples must be non-empty")
    bins = _bins(bins)
    if range is None:
        lo, hi = float(s.min()), float(s.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
    else:
        ends = _array(range, "range end")
        if ends.shape != (2,) or not ends[0] < ends[1]:
            raise ParameterError(f"range must be (low, high) with low < high, got {range!r}")
        lo, hi = ends.tolist()
        if s.min() < lo or s.max() > hi:
            raise ParameterError("samples fall outside the given range")
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.linspace(lo, hi, bins + 1)  # the edges np.histogram will draw
    if not (np.diff(edges) > 0.0).all():
        raise ParameterError(f"cannot split [{lo!r}, {hi!r}] into {bins} bins of finite width > 0")
    counts, edges = np.histogram(s, bins=bins, range=(lo, hi))
    return Histogram(edges, counts)


def _bins(value: object) -> int:
    # ``value`` as a bin count whose bins + 1 float edges an array can hold.
    return _integer(value, "bins", 1, _MAX_ARRAY_BYTES // 8 - 1)


def merge_histograms(a: Histogram, b: Histogram) -> Histogram:
    """Combine two histograms over identical edges by summing counts."""
    if not np.array_equal(a.bin_edges, b.bin_edges):
        raise ParameterError("histograms must share identical bin edges")
    return Histogram(a.bin_edges, a.counts + b.counts)


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
    s = _array(samples, "sample", 0)
    if s.size < 2:
        raise ParameterError(f"need at least 2 samples, got {s.size}")
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
    further window.  A series of at most 2*window points is not enough data
    (``converged=False``, no error).  ``final_variance`` is the trailing
    mean at the last point.
    """
    arr = _array(variance_series, "variance series entry")
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise ParameterError("variance series must be a non-empty sequence of (index, value)")
    window = _integer(window, "window", 2)
    tolerance = _number(tolerance, "tolerance")
    if not tolerance > 0.0:
        raise ParameterError(f"tolerance must be > 0, got {tolerance}")
    idx, v = arr.T
    if np.any(np.diff(idx) < 0):
        raise ParameterError("variance series must be sorted by index")
    t = v.size
    final_variance = float(_mean(v[-min(window, t):]))
    if t <= 2 * window:
        return ConvergenceReport(False, None, window, tolerance, final_variance)

    def trailing_means(s: np.ndarray) -> np.ndarray:  # mean of s[j:j+window]
        cum = np.concatenate(([0.0], np.cumsum(s)))
        return (cum[window:] - cum[:-window]) / window

    trailing, _ = _rescaled(trailing_means, v)  # only their ratios are used
    change = np.abs(np.diff(trailing))
    prev = trailing[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rel = np.where(prev > 0.0, change / prev, np.where(change == 0.0, 0.0, np.inf))
    below = rel < tolerance  # below[j] <-> series position window + j

    need = window + 1  # first quiet position plus one full confirming window
    hits = np.flatnonzero(_window_counts(below, need) == need)
    if hits.size:
        pos = window + int(hits[0])
        return ConvergenceReport(True, int(round(idx[pos])), window, tolerance, final_variance)
    return ConvergenceReport(False, None, window, tolerance, final_variance)


def _mean(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    # ``a.mean(axis)``, bit for bit unless its sum overflows a finite ``a``.
    means, scale = _rescaled(lambda s: s.mean(axis=axis), a)
    return means * scale


def _rescaled(f, v: np.ndarray) -> tuple[np.ndarray, float]:
    # (f(v), 1.0) for a finite series v, or, when the sums inside f overflow
    # (inf, or NaN from inf - inf), (f(v / peak), peak) for v's largest magnitude.
    with np.errstate(over="ignore", invalid="ignore"):
        out = f(v)
    if np.isfinite(out).all():
        return out, 1.0
    peak = float(np.abs(v).max())
    return f(v / peak), peak


def _window_counts(flags: np.ndarray, width: int) -> np.ndarray:
    # The number of true entries in each window flags[j:j+width], in O(flags.size).
    counts = np.concatenate(([0], np.cumsum(flags, dtype=np.int64)))
    return counts[width:] - counts[:-width]


def variance_trajectory(
    params: Sequence[AgentParams],
    background: NoiseBackground | tuple[NoiseBackground, ...],
    transactions: int,
    seed: int,
    record_every: int | None,
    replicas: int = 1,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Cross-agent wealth variance at the recording cadence, per replica.

    Replica k runs with seed ``(seed + k) mod 2**64``; ``record_every=None``
    keeps about 10,000 records (see ``core._evolve``).  ``background`` may be
    a tuple of A arms, stepped as one ensemble on the same paired seeds.
    Returns (indices of shape ``(records,)``, variances of shape
    ``(A * replicas, records)``, arm-major, so arm a's replica k is row
    ``a * replicas + k``, max conservation drift) without storing full
    states; the workhorse behind background comparisons.
    """
    lam = np.array([p.lam for p in params])
    x0 = np.array([p.initial_wealth for p in params])
    try:
        with np.errstate(over="raise"):
            indices, variances, drift = _evolve(
                lam, x0, background, transactions, seed, replicas, record_every,
                lambda s: s.var(axis=2),
            )
    except FloatingPointError:
        raise ParameterError(
            f"the cross-agent wealth variance overflows a float at total wealth {x0.sum():.6g}"
        ) from None
    # C order keeps the bits of the per-arm means in compare_backgrounds.
    return indices, np.ascontiguousarray(variances.T), drift


#: Share of recorded points, at the end of a series, whose mean is taken as
#: the equilibrium variance.
_TAIL_FRACTION = 0.1


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
    replica_variance_uniform: list[float]
    replica_variance_gaussian: list[float]
    replica_convergence_uniform: list[int | None]
    replica_convergence_gaussian: list[int | None]
    indices: np.ndarray
    ensemble_variance_uniform: np.ndarray
    ensemble_variance_gaussian: np.ndarray
    max_conservation_drift: float


def compare_backgrounds(
    params: Sequence[AgentParams],
    transactions: int,
    replicas: int,
    base_seed: int,
    *,
    background_a: NoiseBackground | None = None,
    background_b: NoiseBackground | None = None,
    record_every: int | None = None,
) -> ComparisonResult:
    """Run paired ensembles under two backgrounds and compare variances.

    Same agents and paired seeds on both arms; arm A defaults to uniform and
    arm B to Gaussian(1/2, 1/12).  The equilibrium variance of a series is
    its mean over the final tenth of recorded points; the
    reduction fraction is (var_A - var_B) / var_A (0 when var_A is 0).
    Convergence detection runs on post-transaction records only: the
    pre-transaction snapshot is not a dynamics outcome and would skew the
    first detection window.
    """
    indices, series, drift = variance_trajectory(
        params,
        (UniformBackground() if background_a is None else background_a,
         GaussianBackground() if background_b is None else background_b),
        transactions, base_seed, record_every, replicas,
    )
    tail = max(1, int(round(indices.size * _TAIL_FRACTION)))

    def arm(rows: np.ndarray) -> tuple:
        # variance, replica variances, ensemble, convergence, replica convergence
        rep_var = [float(_mean(v[-tail:])) for v in rows]
        ens = _mean(rows, axis=0)
        conv = [detect_equilibrium(np.column_stack((indices[1:], v[1:]))) for v in (ens, *rows)]
        return (float(_mean(np.array(rep_var))), rep_var, ens, conv[0],
                [c.equilibrium_index for c in conv[1:]])

    var_a, rep_var_a, ens_a, conv_a, rep_conv_a = arm(series[:replicas])
    var_b, rep_var_b, ens_b, conv_b, rep_conv_b = arm(series[replicas:])

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
        max_conservation_drift=drift,
    )
