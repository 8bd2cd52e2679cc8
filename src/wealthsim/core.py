"""Closed-economy wealth exchange with pluggable noise backgrounds.

The model: n agents hold non-negative wealth x_j. Each transaction, agent j
keeps a fraction lam_j of its wealth (the saving propensity) and releases
the rest into a common pool

    P = sum_k (1 - lam_k) * x_k,

which is redistributed according to a random share vector eps on the
probability simplex:

    x'_j = lam_j * x_j + eps_j * P,      sum_j eps_j = 1,  eps_j >= 0.

Because the shares sum to one, total wealth is conserved exactly; every
step is checked against a relative drift tolerance.

Share vectors are built from a vector of raw draws u via director-cosine
normalization,

    eps_j = u_j**2 / sum_k u_k**2,

where the raw draws come from a *noise background*: uniform on [0, 1], a
Gaussian rejection-sampled into [0, 1], or a fixed (deterministic) share
vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Sequence

import numpy as np

from .errors import ConservationError, DegenerateInputError, ParameterError

#: Generator recorded in run manifests; trajectories are reproducible for a
#: fixed (seed, config, numpy version) triple.
GENERATOR_NAME = "numpy.random.Generator(PCG64)"

#: Per-step relative tolerance on the drift of total wealth.
CONSERVATION_RTOL = 1e-9

#: Absolute tolerance on the simplex sum of a share vector.
SIMPLEX_ATOL = 1e-12

MAX_SEED = 2**64 - 1

# Resampling sweeps allowed before a truncated Gaussian is declared to keep
# too little mass in [0, 1].
_MAX_REJECTION_SWEEPS = 1000


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; ``seed`` must be a 64-bit unsigned integer."""
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ParameterError(f"seed must be in [0, 2**64 - 1], got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class AgentParams:
    """Per-agent saving propensity ``lam`` in [0, 1] and starting wealth."""

    lam: float
    initial_wealth: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and 0.0 <= self.lam <= 1.0):
            raise ParameterError(f"saving propensity must be in [0, 1], got {self.lam}")
        if not (math.isfinite(self.initial_wealth) and self.initial_wealth >= 0.0):
            raise ParameterError(f"initial wealth must be >= 0, got {self.initial_wealth}")


def make_agents(
    n: int,
    lam: float | Sequence[float],
    initial_wealth: float | Sequence[float],
) -> list[AgentParams]:
    """Build an agent list, broadcasting scalar ``lam``/``initial_wealth`` to n."""
    if n < 1:
        raise ParameterError(f"agent count must be >= 1, got {n}")
    lams = [float(lam)] * n if np.isscalar(lam) else [float(v) for v in lam]
    wealth = (
        [float(initial_wealth)] * n
        if np.isscalar(initial_wealth)
        else [float(v) for v in initial_wealth]
    )
    if len(lams) != n or len(wealth) != n:
        raise ParameterError(
            f"per-agent lists must have length {n}, got {len(lams)} and {len(wealth)}"
        )
    return [AgentParams(l, w) for l, w in zip(lams, wealth)]


@dataclass
class WealthState:
    """Wealth vector after ``transaction_index`` transactions."""

    transaction_index: int
    wealth: np.ndarray

    def __post_init__(self) -> None:
        self.wealth = np.asarray(self.wealth, dtype=float)
        if self.wealth.ndim != 1 or self.wealth.size < 1:
            raise ParameterError("wealth must be a non-empty 1-D vector")
        if self.transaction_index < 0:
            raise ParameterError("transaction index must be >= 0")
        if not np.all(np.isfinite(self.wealth)) or self.wealth.min() < 0.0:
            raise ParameterError("wealth entries must be finite and >= 0")

    @property
    def total(self) -> float:
        return float(self.wealth.sum())


def validate_epsilon(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Check the simplex invariants and return the shares as a float array.

    Entries must lie in [0, 1] and sum to 1 within ``SIMPLEX_ATOL``.
    """
    eps = np.array(values, dtype=float)
    if eps.ndim != 1 or eps.size < 1:
        raise ParameterError("share vector must be a non-empty 1-D vector")
    if not np.all(np.isfinite(eps)) or eps.min() < 0.0 or eps.max() > 1.0:
        raise ParameterError("share entries must lie in [0, 1]")
    total = float(eps.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise ParameterError(f"shares must sum to 1 within {SIMPLEX_ATOL}, got {total!r}")
    return eps


class NoiseBackground:
    """Distribution of the raw draws behind each transaction's share vector."""

    kind: ClassVar[str] = ""

    def sample_raw(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Return a (count, n) array of raw draws, every entry in [0, 1]."""
        raise NotImplementedError

    def shares(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``count`` share vectors of length n as the rows of a matrix.

        Raw rows are director-cosine normalized; all-zero raw rows
        (probability zero for continuous backgrounds) are resampled.
        """
        raw = self.sample_raw(count, n, rng)
        sq = raw * raw
        totals = sq.sum(axis=1)
        zero = np.flatnonzero(totals == 0.0)
        while zero.size:
            redraw = self.sample_raw(zero.size, n, rng)
            sq[zero] = redraw * redraw
            totals[zero] = sq[zero].sum(axis=1)
            zero = zero[totals[zero] == 0.0]
        return sq / totals[:, None]

    def mean_share(self, n: int) -> float:
        """Mean share of the first of n agents: 1/n, as i.i.d. draws make shares exchangeable."""
        return 1.0 / n

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformBackground(NoiseBackground):
    """Raw draws i.i.d. uniform on [0, 1]."""

    kind: ClassVar[str] = "uniform"

    def sample_raw(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random((count, n))

    def to_dict(self) -> dict:
        return {"kind": self.kind}


def _normal_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


@dataclass(frozen=True)
class GaussianBackground(NoiseBackground):
    """Raw draws i.i.d. Gaussian, rejection-sampled into [0, 1].

    Out-of-range draws are redrawn rather than clipped, so the density keeps
    its shape with no atoms at the boundaries.  The defaults put the 6-sigma
    band exactly on [0, 1], making rejections negligible.
    """

    mean: float = 0.5
    sigma: float = 1.0 / 12.0

    kind: ClassVar[str] = "gaussian"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")
        if not math.isfinite(self.mean):
            raise ParameterError(f"mean must be finite, got {self.mean}")
        mass = _normal_cdf((1.0 - self.mean) / self.sigma) - _normal_cdf(
            (0.0 - self.mean) / self.sigma
        )
        if mass < 1e-9:
            raise ParameterError(
                f"Gaussian({self.mean}, {self.sigma}) keeps {mass:.3e} mass in [0, 1]; "
                "truncation by rejection is not viable"
            )

    def sample_raw(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.normal(self.mean, self.sigma, size=count * n)
        bad = np.flatnonzero((u < 0.0) | (u > 1.0))
        sweeps = 0
        while bad.size:
            sweeps += 1
            if sweeps > _MAX_REJECTION_SWEEPS:
                raise ParameterError(
                    "rejection sampling into [0, 1] failed to terminate; "
                    "background keeps too little mass in range"
                )
            redraw = rng.normal(self.mean, self.sigma, size=bad.size)
            u[bad] = redraw
            bad = bad[(redraw < 0.0) | (redraw > 1.0)]
        return u.reshape(count, n)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "mean": self.mean, "sigma": self.sigma}


@dataclass(frozen=True, eq=False)
class ConstantBackground(NoiseBackground):
    """A fixed share vector used every transaction (deterministic runs).

    The stored vector must already satisfy the simplex invariants; it is
    returned unchanged by sampling and bypasses normalization.
    """

    epsilon: np.ndarray

    kind: ClassVar[str] = "constant"

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", validate_epsilon(self.epsilon))

    def _check_size(self, n: int) -> None:
        if n != self.epsilon.size:
            raise ParameterError(
                f"constant background has {self.epsilon.size} shares, asked for {n}"
            )

    def sample_raw(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        self._check_size(n)
        return np.broadcast_to(self.epsilon, (count, n)).copy()

    def shares(self, count: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.sample_raw(count, n, rng)

    def mean_share(self, n: int) -> float:
        self._check_size(n)
        return float(self.epsilon[0])

    def to_dict(self) -> dict:
        return {"kind": self.kind, "epsilon": [float(v) for v in self.epsilon]}


def background_from_dict(d: dict) -> NoiseBackground:
    """Build a background from its serialized descriptor (see ``to_dict``)."""
    desc = dict(d)
    kind = desc.pop("kind", None)
    try:
        if kind == "uniform":
            bg = UniformBackground(**desc)
        elif kind == "gaussian":
            bg = GaussianBackground(**desc)
        elif kind == "constant":
            bg = ConstantBackground(np.asarray(desc.pop("epsilon"), dtype=float), **desc)
        else:
            raise ParameterError(f"unknown background kind {kind!r}")
    except (TypeError, KeyError) as exc:
        raise ParameterError(f"bad background descriptor {d!r}: {exc}") from exc
    return bg


def sample_background(
    background: NoiseBackground, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw one raw vector of length n from the background."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return background.sample_raw(1, n, rng)[0]


def normalize_epsilon(u: Sequence[float] | np.ndarray) -> np.ndarray:
    """Director-cosine normalization: eps_j = u_j**2 / sum_k u_k**2.

    The result lies on the probability simplex for any nonzero input.
    An all-zero vector has no direction; callers resample on
    ``DegenerateInputError``.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise ParameterError("raw vector must be a non-empty 1-D vector")
    if not np.all(np.isfinite(u)):
        raise ParameterError("raw vector entries must be finite")
    sq = u * u
    total = sq.sum()
    if total == 0.0:
        raise DegenerateInputError("all-zero raw vector cannot be normalized")
    return sq / total


def sample_epsilon_matrix(
    background: NoiseBackground, count: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` share vectors of length n as the rows of a matrix.

    Equivalent to sampling raw vectors and normalizing each row (see
    ``NoiseBackground.shares``); constant backgrounds return their stored
    shares directly.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return background.shares(count, n, rng)


def _step_kernel(
    lam: np.ndarray, release: np.ndarray, x: np.ndarray, eps: np.ndarray
) -> np.ndarray:
    # Shared by step() and the trajectory loop so both routes are bit-identical.
    # x is one state (n,) or a stack (R, n); the stacked matmul takes the same
    # per-row dot as ``release @ x``, where ``x @ release`` would not.
    pool = np.matmul(x[..., None, :], release[:, None])[..., 0]
    return lam * x + eps * pool


def step(
    state: WealthState, params: Sequence[AgentParams], epsilon: np.ndarray
) -> WealthState:
    """Apply one transaction: pool the released wealth, redistribute by shares.

    Total wealth is conserved within ``CONSERVATION_RTOL`` and every output
    entry is non-negative.
    """
    x = state.wealth
    n = x.size
    if len(params) != n or len(epsilon) != n:
        raise ParameterError(
            f"state ({n}), params ({len(params)}) and shares ({len(epsilon)}) "
            "must have equal length"
        )
    lam = np.array([p.lam for p in params])
    eps = np.asarray(epsilon, dtype=float)
    new = _step_kernel(lam, 1.0 - lam, x, eps)
    total = x.sum()
    if total > 0.0 and abs(new.sum() - total) / total > CONSERVATION_RTOL:
        raise ConservationError(
            f"single step drifted total wealth by more than {CONSERVATION_RTOL:.0e}"
        )
    return WealthState(state.transaction_index + 1, new)


def pairwise_delta(
    state: WealthState,
    params: Sequence[AgentParams],
    epsilon: np.ndarray,
    a: int,
    b: int,
) -> float:
    """Net wealth flow between agents a and b in one transaction.

    Returns eps_b*(1-lam_a)*x_a - eps_a*(1-lam_b)*x_b, the amount b gains
    from a's released wealth minus the amount a gains from b's.
    Antisymmetric in (a, b); zero on the diagonal.
    """
    x = state.wealth
    n = x.size
    if len(params) != n or len(epsilon) != n:
        raise ParameterError("state, params and shares must have equal length")
    if not (0 <= a < n) or not (0 <= b < n):
        raise ParameterError(f"agent indices must be in [0, {n}), got ({a}, {b})")
    eps = np.asarray(epsilon, dtype=float)
    return float(
        eps[b] * (1.0 - params[a].lam) * x[a] - eps[a] * (1.0 - params[b].lam) * x[b]
    )


@dataclass
class Trajectory:
    """Recorded states of one run plus conservation diagnostics.

    ``indices`` (int64, shape ``(records,)``) holds the transaction index of
    each record and ``wealth`` (shape ``(records, n)``) the wealth vector:
    the initial state, every ``record_every``-th state, and the final state.
    Behaves as a sequence of ``WealthState`` built on access.
    """

    indices: np.ndarray
    wealth: np.ndarray
    max_conservation_drift: float
    total_wealth: float

    def __len__(self) -> int:
        return self.indices.size

    def __getitem__(self, i: int) -> WealthState:
        return WealthState(int(self.indices[i]), self.wealth[i])

    def __iter__(self) -> Iterator[WealthState]:
        return (self[r] for r in range(len(self)))

    @property
    def final(self) -> WealthState:
        return self[-1]


def _evolve(
    lam: np.ndarray,
    wealth: np.ndarray,
    background: NoiseBackground,
    transactions: int,
    seed: int,
    replicas: int,
    record_every: int,
    on_record: Callable[[int, np.ndarray], None],
) -> float:
    """Step ``replicas`` copies of the exchange law side by side, recording via callback.

    Replica k draws its shares from seed ``(seed + k) mod 2**64``; ``seed``
    itself must lie in [0, 2**64 - 1].  The ``(replicas, n)`` state is
    recorded at transaction 0, every ``record_every`` transactions, and at
    the end.  Returns the max relative drift of any replica's total wealth;
    raises ``ConservationError`` on negative wealth, or after a block in
    which drift passed tolerance.
    """
    if transactions < 1:
        raise ParameterError(f"transactions must be >= 1, got {transactions}")
    if record_every < 1:
        raise ParameterError(f"record_every must be >= 1, got {record_every}")
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    rngs = [make_rng(seed)] + [make_rng((seed + k) & MAX_SEED) for k in range(1, replicas)]
    x0 = np.asarray(wealth, dtype=float)
    lam = np.asarray(lam, dtype=float)
    n = x0.size
    release = 1.0 - lam
    with np.errstate(over="ignore"):
        total = float(x0.sum())
    if not math.isfinite(total):
        raise ParameterError(f"total wealth must be finite, got {total}")
    inv_total = 1.0 / total if total > 0.0 else 0.0
    max_drift = 0.0
    x = np.tile(x0, (replicas, 1))
    lam_rows = np.tile(lam, (replicas, 1))  # a same-shape product is cheaper than a broadcast
    on_record(0, x)
    per_block = max(1, 8192 // replicas)
    eps = np.empty((min(per_block, transactions), replicas, n))
    sums = np.empty((len(eps), replicas))
    for done in range(0, transactions, per_block):
        todo = min(per_block, transactions - done)
        for k, rng in enumerate(rngs):
            eps[:todo, k] = sample_epsilon_matrix(background, todo, n, rng)
        for j in range(todo):
            x = _step_kernel(lam_rows, release, x, eps[j])
            x.sum(axis=1, out=sums[j])
            m = done + j + 1
            if not x.min() >= 0.0:
                raise ConservationError(f"wealth went negative at transaction {m}")
            if m % record_every == 0 or m == transactions:
                on_record(m, x)
        # While wealth stays non-negative it is bounded by the total, so the
        # drift of a whole block can be checked after it.
        drift = abs(sums[:todo] - total).max(axis=1) * inv_total
        over = np.flatnonzero(drift > CONSERVATION_RTOL)
        if over.size:
            j = int(over[0])
            raise ConservationError(
                f"total wealth drifted by {drift[j]:.3e} at transaction {done + j + 1}"
            )
        max_drift = max(max_drift, drift.max())
    return float(max_drift)


def run_trajectory(
    params: Sequence[AgentParams],
    background: NoiseBackground,
    transactions: int,
    seed: int,
    record_every: int = 1,
) -> Trajectory:
    """Simulate one trajectory; deterministic for a fixed seed.

    Each transaction draws a raw vector from the background, normalizes it to
    a share vector (constant backgrounds skip normalization) and applies the
    exchange step.  States are recorded at transaction 0, every
    ``record_every`` transactions, and at the end.
    """
    if len(params) < 1:
        raise ParameterError("need at least one agent")
    lam = np.array([p.lam for p in params])
    x0 = np.array([p.initial_wealth for p in params])
    indices = wealth = np.empty(0)

    def record(i: int, x: np.ndarray) -> None:
        nonlocal indices, wealth
        if i == 0:  # _evolve has checked transactions and record_every by now
            rows = -(-transactions // record_every) + 1
            indices = np.empty(rows, dtype=np.int64)
            wealth = np.empty((rows, x0.size))
        r = -(-i // record_every)  # the final record may fall between cadence points
        indices[r] = i
        wealth[r] = x[0]

    max_drift = _evolve(lam, x0, background, transactions, seed, 1, record_every, record)
    return Trajectory(
        indices=indices,
        wealth=wealth,
        max_conservation_drift=max_drift,
        total_wealth=float(x0.sum()),
    )
