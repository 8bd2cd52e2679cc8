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

Systems of more than two agents have no closed form here; they run through
``run_trajectory`` with a ``ConstantBackground``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _MAX_ARRAY_BYTES, NoiseBackground, _drift, _evolve, _integer, _number, _total


@dataclass(frozen=True)
class TwoEconomyParams:
    """Saving propensities, constant share of economy x, and initial wealth."""

    lambda_x: float
    lambda_y: float
    epsilon: float
    x0: float
    y0: float

    def __post_init__(self) -> None:
        for name, high in (("lambda_x", 1), ("lambda_y", 1), ("epsilon", 1),
                           ("x0", None), ("y0", None)):
            object.__setattr__(self, name, _number(getattr(self, name), name, 0, high))
        _total(np.array([self.x0, self.y0]))

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
    """(x(m), y(m)) after m transactions, m an integer in [0, 2**63 - 1]: evaluate_series' row m."""
    m = _integer(m, "m", 0, 2**63 - 1)
    xs, ys = _trajectory(sol, np.array([m], dtype=float), m)
    return (float(xs[0]), float(ys[0]))


def evaluate_series(sol: ClosedFormSolution, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized trajectory for m = 0..m_max; ``m_max`` must be an integer."""
    m_max = _integer(m_max, "m_max", 0, _MAX_ARRAY_BYTES // 8 - 1)  # m_max + 1 floats
    return _trajectory(sol, np.arange(m_max + 1, dtype=float), 0)


def _trajectory(
    sol: ClosedFormSolution, ms: np.ndarray, first: int
) -> tuple[np.ndarray, np.ndarray]:
    # (x(m), y(m)) at the consecutive transaction counts ``ms``, from ``first``,
    # through numpy's vectorised power, whose bits scalar ``pow`` need not share.
    powers = sol.decay_root ** ms
    xs, ys = sol.fixed_point_x + sol.coeff_x * powers, sol.fixed_point_y + sol.coeff_y * powers
    _drift((xs + ys)[:, None], sol.total, first, "closed form: ")
    return xs, ys


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
    max_conservation_drift: float


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
    background's induced mean share, which replaces ``p.epsilon``.  The
    reported deviation is max over m of |mean_x(m) - x_det(m)| / total wealth.
    """
    lam = np.array([p.lambda_x, p.lambda_y])
    x0 = np.array([p.x0, p.y0])
    # The run comes first, so its own checks refuse bad replica, transaction
    # and seed values.  A running sum in replica order; a pairwise
    # x[:, 0].sum() rounds differently.
    indices, sums, max_drift = _evolve(
        lam, x0, background, transactions, base_seed, replicas, 1,
        lambda s: np.cumsum(s[:, :, 0], axis=1)[:, -1],
    )
    mean_x = sums / replicas
    eps_det = background.mean_share(2)
    det = TwoEconomyParams(p.lambda_x, p.lambda_y, eps_det, p.x0, p.y0)
    x_det, _ = evaluate_series(closed_form(det), transactions)

    w = float(x0.sum())
    dev = float(np.abs(mean_x - x_det).max() / w) if w > 0.0 else 0.0
    return ConcordanceReport(
        transaction_indices=indices,
        ensemble_mean_x=mean_x,
        deterministic_x=x_det,
        max_relative_deviation=dev,
        epsilon_det=eps_det,
        replicas=replicas,
        total_wealth=w,
        max_conservation_drift=max_drift,
    )
