"""Exact solution of the deterministic two-economy exchange system.

With a constant share pair (eps, 1 - eps) the exchange law is linear,
x_{m+1} = M x_m with the column-stochastic update matrix

    M = [[lx + e*(1-lx),  e*(1-ly)    ],
         [(1-e)*(1-lx),   ly + (1-e)*(1-ly)]],

whose characteristic polynomial z**2 - (1+r) z + r = (z - 1)(z - r) always
carries the unit root (conservation) next to the decay root

    r = lx - e*lx + e*ly,

a convex combination of the two saving propensities.  Solving the recurrence
in the transform domain and inverting gives a fixed point plus a geometric
transient,

    x(m) = x* + (x0 - x*) r**m,      y(m) = y* + (y0 - y*) r**m,

with x* = W e (1-ly) / D, y* = W - x*, D = (1-e)(1-lx) + e(1-ly), W = x0+y0.
D == 0 means no wealth is ever exchanged (r == 1) and every state is fixed.

Systems of more than two agents have no closed form here and are handled by
direct matrix iteration only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NoiseBackground, _evolve
from .errors import ConservationError, ParameterError


@dataclass(frozen=True)
class TwoEconomyParams:
    """Saving propensities, constant share of economy x, and initial wealth."""

    lambda_x: float
    lambda_y: float
    epsilon: float
    x0: float
    y0: float

    def __post_init__(self) -> None:
        for name in ("lambda_x", "lambda_y", "epsilon"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ParameterError(f"{name} must be in [0, 1], got {v}")
        for name in ("x0", "y0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ParameterError(f"{name} must be >= 0, got {v}")
        if not math.isfinite(self.total):
            raise ParameterError(f"x0 + y0 must be finite, got {self.total}")

    @property
    def total(self) -> float:
        return self.x0 + self.y0


@dataclass(frozen=True)
class RootPair:
    """Characteristic roots: the unit root and the geometric decay rate."""

    root_unit: float
    root_decay: float


@dataclass(frozen=True)
class ClosedFormSolution:
    """Trajectory coefficients: x(m) = fixed_point_x + coeff_x * decay_root**m.

    coeff_y == -coeff_x exactly, so x(m) + y(m) is conserved term by term.
    """

    fixed_point_x: float
    fixed_point_y: float
    decay_root: float
    coeff_x: float
    coeff_y: float

    @property
    def total(self) -> float:
        return self.fixed_point_x + self.fixed_point_y


def system_matrix(p: TwoEconomyParams) -> np.ndarray:
    """Time-domain update matrix M; both columns sum to 1 (conservation)."""
    lx, ly, e = p.lambda_x, p.lambda_y, p.epsilon
    return np.array(
        [
            [lx + e * (1.0 - lx), e * (1.0 - ly)],
            [(1.0 - e) * (1.0 - lx), ly + (1.0 - e) * (1.0 - ly)],
        ]
    )


def characteristic_roots(p: TwoEconomyParams) -> RootPair:
    """Roots {1, r} of det(zI - M) = z**2 - (1+r) z + r.

    Equal saving propensities give r = lambda_x exactly, without the
    round-off of the general expression.
    """
    if p.lambda_x == p.lambda_y:
        decay = p.lambda_x
    else:
        decay = p.lambda_x - p.epsilon * p.lambda_x + p.epsilon * p.lambda_y
    return RootPair(root_unit=1.0, root_decay=decay)


def fixed_point(p: TwoEconomyParams) -> tuple[float, float]:
    """Equilibrium wealth split (x*, y*) with x* + y* = x0 + y0.

    When no wealth is exchanged (D == 0, e.g. both propensities 1) every
    state is fixed and the initial condition is returned.
    """
    a = p.epsilon * (1.0 - p.lambda_y)
    b = (1.0 - p.epsilon) * (1.0 - p.lambda_x)
    d = a + b
    if d == 0.0:
        return (p.x0, p.y0)
    w = p.total
    x_star = w * (a / d)
    return (x_star, w - x_star)


def closed_form(p: TwoEconomyParams) -> ClosedFormSolution:
    """Fixed point plus geometric transient for the deterministic system."""
    fx, fy = fixed_point(p)
    r = characteristic_roots(p).root_decay
    cx = p.x0 - fx
    return ClosedFormSolution(
        fixed_point_x=fx,
        fixed_point_y=fy,
        decay_root=r,
        coeff_x=cx,
        coeff_y=-cx,
    )


def evaluate(sol: ClosedFormSolution, m: int) -> tuple[float, float]:
    """Trajectory value (x(m), y(m)) after m transactions."""
    if m < 0:
        raise ParameterError(f"m must be >= 0, got {m}")
    t = sol.decay_root ** m
    x = sol.fixed_point_x + sol.coeff_x * t
    y = sol.fixed_point_y + sol.coeff_y * t
    w = sol.total
    if w > 0.0 and not abs((x + y) - w) / w <= 1e-9:
        raise ConservationError(f"closed form drifted total wealth at m = {m}")
    return (float(x), float(y))


def evaluate_series(sol: ClosedFormSolution, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized trajectory for m = 0..m_max."""
    if m_max < 0:
        raise ParameterError(f"m_max must be >= 0, got {m_max}")
    powers = sol.decay_root ** np.arange(m_max + 1, dtype=float)
    return sol.fixed_point_x + sol.coeff_x * powers, sol.fixed_point_y + sol.coeff_y * powers


def induced_epsilon_mean(background: NoiseBackground, n: int = 2) -> float:
    """Mean share of the first agent under the given background.

    Raw draws are i.i.d. across agents, so after normalization the shares
    are exchangeable and sum to one: each has mean exactly 1/n regardless of
    the draw distribution.  A constant background's share is its stored value.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return background.mean_share(n)


@dataclass
class ConcordanceReport:
    """Stochastic ensemble mean of x(m) against its deterministic counterpart."""

    transaction_indices: np.ndarray
    ensemble_mean_x: np.ndarray
    deterministic_x: np.ndarray
    max_relative_deviation: float
    epsilon_det: float
    replicas: int
    total_wealth: float
    max_conservation_drift: float = 0.0


def concordance(
    p: TwoEconomyParams,
    background: NoiseBackground,
    replicas: int,
    transactions: int,
    base_seed: int,
) -> ConcordanceReport:
    """Compare a stochastic two-agent ensemble with the closed form.

    Replica k runs with seed base_seed + k (mod 2**64); the ensemble mean
    of x(m) is compared against the closed form evaluated at the
    background's induced mean share.  The reported deviation is max over m of
    |mean_x(m) - x_det(m)| / total wealth.
    """
    eps_det = induced_epsilon_mean(background, n=2)
    det = TwoEconomyParams(p.lambda_x, p.lambda_y, eps_det, p.x0, p.y0)
    x_det, _ = evaluate_series(closed_form(det), transactions)

    lam = np.array([p.lambda_x, p.lambda_y])
    x0 = np.array([p.x0, p.y0])
    acc = np.zeros(transactions + 1)

    def record(i: int, x: np.ndarray) -> None:
        # A running sum in replica order; a pairwise x[:, 0].sum() rounds differently.
        acc[i] = np.cumsum(x[:, 0])[-1]

    max_drift = _evolve(lam, x0, background, transactions, base_seed, replicas, 1, record)
    mean_x = acc / replicas

    w = float(x0.sum())
    dev = float(np.abs(mean_x - x_det).max() / w) if w > 0.0 else 0.0
    return ConcordanceReport(
        transaction_indices=np.arange(transactions + 1, dtype=np.int64),
        ensemble_mean_x=mean_x,
        deterministic_x=x_det,
        max_relative_deviation=dev,
        epsilon_det=eps_det,
        replicas=replicas,
        total_wealth=w,
        max_conservation_drift=max_drift,
    )
