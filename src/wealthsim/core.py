"""Closed-economy wealth exchange with pluggable noise backgrounds.

The model: n agents hold non-negative wealth x_j. Each transaction, agent j
keeps a fraction lam_j of its wealth (the saving propensity) and releases
the rest into a common pool

    P = sum_k (1 - lam_k) * x_k,

which is redistributed according to a random share vector eps on the
probability simplex:

    x'_j = lam_j * x_j + eps_j * P,      sum_j eps_j = 1,  eps_j >= 0.

Because the shares sum to one, total wealth is conserved exactly; every
step's total is kept and checked against a relative drift tolerance at the
end of its sampling block, where non-negativity is checked once as a
tripwire.

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
from typing import Callable, ClassVar, Iterator, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConservationError, DegenerateInputError, ParameterError

#: Generator recorded in run manifests; trajectories are reproducible for a
#: fixed (seed, config, numpy version) triple.
GENERATOR_NAME = "numpy.random.Generator(PCG64)"

#: Per-step relative tolerance on the drift of total wealth.
CONSERVATION_RTOL = 1e-9

#: Absolute tolerance on the simplex sum of a share vector.
SIMPLEX_ATOL = 1e-12

MAX_SEED = 2**64 - 1

# What sampling takes as ``rng``: one generator, or one per replica.
_Rngs = Union[np.random.Generator, Sequence[np.random.Generator]]

# Resampling sweeps allowed before a truncated Gaussian is declared to keep
# too little mass in [0, 1].
_MAX_REJECTION_SWEEPS = 1000

# Bytes of the arrays one sampling block of ``_evolve`` keeps live; blocks
# are sized to this whatever the agent, replica and arm counts, and one
# ``sample_epsilon_matrix`` call draws an arm's block for all its replicas.
# A block with too few rows for each replica's generator call to fill
# _MIN_CALL_DRAWS draws grows towards that floor, as long as one call for all
# replicas stays within _BLOCK_BYTES // 8 draws and the block within
# 2 * _BLOCK_BYTES live bytes.  Sampling streams are split-invariant, so the
# block size changes no result.
_BLOCK_BYTES = 512 * 1024

# Draws a replica's generator call should fill: each call costs about 1 µs
# whatever its size, against 14 ns a normal draw.
_MIN_CALL_DRAWS = 128

# Most bytes of an array sized by a count: half numpy's intp limit, as np.arange refuses below it.
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max // 2

# Smallest in-range mass a truncated Gaussian may keep.  Each draw slot gets
# 1 + _MAX_REJECTION_SWEEPS tries, whichever replica's stream it is in, so a
# call for one block of at most _BLOCK_BYTES // 8 draws (all replicas
# together) runs out of sweeps with probability at most 1e-12; the draw
# floor never takes a call past that.  A block is never less than one row,
# so past the row bytes of ``_evolve`` (8 * R * (n + 2) + 9 for R replicas,
# more when staged) a call draws R * n values, more than this bound assumes.
_MIN_GAUSSIAN_MASS = 1.0 - (1e-12 / (_BLOCK_BYTES // 8)) ** (1.0 / (1 + _MAX_REJECTION_SWEEPS))


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; ``seed`` must be a 64-bit unsigned integer.

    Its ``bit_generator.state`` is that of ``np.random.PCG64(seed)``, but its
    ``seed_seq`` is no numpy ``SeedSequence``, so it cannot ``spawn``.
    """
    return _seeded(seed, 1)[0][0]


class _SeedWords(ISeedSequence):
    # The four uint64 words that PCG64 asks its seed sequence for, and no others.
    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _seeded(seed: int, count: int, copies: int = 1) -> list[list[np.random.Generator]]:
    # ``copies`` lists of PCG64 generators at the seeds (seed + k) mod 2**64,
    # k < count, each in the state of ``np.random.PCG64(seed + k)``, after one
    # check of ``seed``.  The words PCG64 asks of ``SeedSequence(seed + k)`` come
    # from numpy's own steps (numpy/random/bit_generator.pyx: hashmix, mix,
    # mix_entropy and generate_state), run once on uint32 arrays that hold
    # every seed; array products wrap without a scalar-overflow warning.
    INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
    MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
    hash_const = INIT_A

    def hashmix(value: np.ndarray, mult: int = MULT_A) -> np.ndarray:
        # generate_state runs the same steps with MULT_B.
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult % 2**32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        return value

    seed = _integer(seed, "seed", 0, MAX_SEED)
    seeds = np.arange(count, dtype=np.uint64)
    seeds += np.uint64(seed)  # wraps past 2**64 - 1
    # mix_entropy: the pool hashes a seed's two 32-bit words, low first, then
    # two words of 0, as numpy hashes the pool words past a seed's entropy.
    entropy = seeds.astype("<u8").view("<u4").reshape(count, 2).T
    pool = [hashmix(word) for word in (*entropy, *np.zeros((2, count), np.uint32))]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:  # mix(pool[i_dst], hashmix(pool[i_src]))
                mixed = np.uint32(MIX_MULT_L) * pool[i_dst]
                mixed -= np.uint32(MIX_MULT_R) * hashmix(pool[i_src])
                mixed ^= mixed >> 16
                pool[i_dst] = mixed
    # generate_state(4, np.uint64): eight words from the cycled pool, paired
    # little-endian into 64-bit ones, as numpy pairs them.
    hash_const = INIT_B
    state = np.stack([hashmix(pool[i % 4], MULT_B) for i in range(8)], axis=1, dtype="<u4")
    words = state.view("<u8").astype(np.uint64)
    return [[np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]
            for _ in range(copies)]


@dataclass(frozen=True)
class AgentParams:
    """Per-agent saving propensity ``lam`` in [0, 1] and starting wealth, as floats."""

    lam: float
    initial_wealth: float

    def __post_init__(self) -> None:
        for name, what, high in (("lam", "saving propensity", 1),
                                 ("initial_wealth", "initial wealth", None)):
            object.__setattr__(self, name, _number(getattr(self, name), what, 0, high))


def make_agents(
    n: int,
    lam: float | Sequence[float],
    initial_wealth: float | Sequence[float],
) -> list[AgentParams]:
    """Build an agent list, broadcasting scalar ``lam``/``initial_wealth`` to n."""
    n = _integer(n, "agent count", 1)
    lams, wealth = _array(lam, "saving propensity"), _array(initial_wealth, "initial wealth")
    lams, wealth = (a.repeat(n) if a.ndim == 0 else a for a in (lams, wealth))
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
        self.transaction_index = _integer(self.transaction_index, "transaction index", 0)
        self.wealth = _array(self.wealth, "wealth entry", 0)
        if self.wealth.ndim != 1 or self.wealth.size < 1:
            raise ParameterError("wealth must be a non-empty 1-D vector")


def _is_bool(value: object) -> bool:
    return isinstance(value, (bool, np.bool_))


def _integer(value: object, what: str, low: int | None = None, high: int | None = None) -> int:
    # ``value`` as a Python int in the closed range [low, high], where a None
    # bound is absent; booleans, floats and strings are refused.
    if _is_bool(value) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return _within(int(value), what, low, high)


def _number(
    value: object, what: str, low: float | None = None, high: float | None = None
) -> float:
    # ``value`` as a finite Python float in [low, high], as for ``_integer``:
    # Python and numpy reals pass; booleans, strings, None, inf, NaN and
    # integers too large for a float are refused.
    if _is_bool(value) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{what} must be a number, not a boolean or string, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ParameterError(f"{what} must be finite, got an integer too large for a float")
    if not math.isfinite(v):
        raise ParameterError(f"{what} must be finite, got {v}")
    return _within(v, what, low, high)


def _array(
    values: object, what: str, low: float | None = None, high: float | None = None
) -> np.ndarray:
    # A new float array of ``values``' shape whose every entry passes ``_number(entry,
    # what, low, high)``: an integer or float ndarray by its extremes, else entry by entry.
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        out = values.astype(float)
        for extreme in (out.min(), out.max()) if out.size else ():
            _number(extreme, what, low, high)
        return out
    entries = _entries(values, what)
    return np.array([_number(v, what, low, high) for v in entries.flat]).reshape(entries.shape)


def _entries(values: object, what: str) -> np.ndarray:
    # ``values`` as an object array, for checks that go entry by entry.
    try:
        return np.asarray(values, dtype=object)
    except ValueError:  # nested arrays numpy cannot lay out
        raise ParameterError(f"{what} values must nest evenly, got {values!r}")


def _within(v: float, what: str, low: float | None, high: float | None) -> float:
    # ``v`` if it lies in [low, high]; no caller gives ``high`` without ``low``.
    if (low is not None and v < low) or (high is not None and v > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        # Python refuses to print an integer of more than 4300 digits.
        big = not isinstance(v, float) and v.bit_length() >= 1000
        shown = f"an integer of {v.bit_length()} bits" if big else v
        raise ParameterError(f"{what} must be {bound}, got {shown}")
    return v


def validate_epsilon(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Check the simplex invariants and return the shares as a float array.

    Entries must be numbers (booleans are refused), lie in [0, 1] and sum
    to 1 within ``SIMPLEX_ATOL``.
    """
    eps = _array(values, "share entry", 0, 1)
    if eps.ndim != 1 or eps.size < 1:
        raise ParameterError("share vector must be a non-empty 1-D vector")
    total = float(eps.sum())
    if abs(total - 1.0) > SIMPLEX_ATOL:
        raise ParameterError(f"shares must sum to 1 within {SIMPLEX_ATOL}, got {total!r}")
    return eps


class NoiseBackground:
    """Distribution of the raw draws behind each transaction's share vector.

    Sampling takes integers ``count`` and ``n`` >= 1, and ``rng`` as one
    ``Generator`` or a list or tuple of R generators (one per replica), and
    ``count`` must be a multiple of R (else ``ParameterError``): with
    m = count // R, rows ``k*m`` to ``(k+1)*m - 1`` of a result are generator
    k's next rows in its stream order, so ``reshape(R, m, n)`` is a
    replica-major block of R replicas.  One ``Generator`` is the case R = 1.
    Two consecutive calls for ``a`` and ``b`` rows per replica return the
    rows of one call for ``a + b``: the block sizes of the caller change no
    draw.
    """

    kind: ClassVar[str] = ""

    def sample_raw(self, count: int, n: int, rng: _Rngs) -> np.ndarray:
        """Return a freshly allocated (count, n) array of raw draws in [0, 1].

        ``shares`` normalizes the array in place.  A background class must
        define it; the base class refuses with ``ParameterError``.
        """
        raise ParameterError(f"{type(self).__name__} defines no sample_raw to draw from")

    def shares(self, count: int, n: int, rng: _Rngs) -> np.ndarray:
        """Return ``count`` share vectors of length n as the rows of a matrix.

        Raw rows are director-cosine normalized in place, once for the whole
        block.  All-zero raw rows (probability zero for continuous
        backgrounds) are dropped and the replica's rows are topped up from its
        own stream, so each replica gets the first usable rows of its stream
        in order and stays split-invariant.
        """
        rngs = _generators(rng, count, n)
        sq = self.sample_raw(count, n, rng)
        sq *= sq
        totals = _row_sums(sq)
        if not totals.all():
            _top_up(
                sq,
                rngs,
                lambda rows: rows.any(axis=1),
                lambda g, m: np.square(self.sample_raw(m, n, g)),
                DegenerateInputError(
                    f"{_MAX_REJECTION_SWEEPS} top-up sweeps still left all-zero raw rows"
                ),
            )
            totals = _row_sums(sq)
        sq /= totals[:, None]
        return sq

    def mean_share(self, n: int) -> float:
        """Mean share of the first of n agents: 1/n, as i.i.d. draws make shares exchangeable."""
        return 1.0 / _integer(n, "n", 1)


def _row_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # ``a.sum(axis=-1, out=out)``, bit for bit.  Below 8 entries numpy's
    # pairwise sum is a plain loop from +0, which a fold of the columns repeats
    # in one ufunc call per column instead of one reduction per row (16 ns).
    n = a.shape[-1]
    if n >= 8:
        return a.sum(axis=-1, out=out)
    out = np.add(a[..., 0], 0.0, out=out)
    for j in range(1, n):
        np.add(out, a[..., j], out=out)
    return out


def _generators(rng: _Rngs, count: int, n: int) -> Sequence[np.random.Generator]:
    # The generators of a sampling call, and its one argument check: ``count``
    # and ``n`` are integers >= 1 and ``count`` splits evenly among the
    # generators; the entries of a list or tuple are not type-checked.
    count, _ = _integer(count, "count", 1), _integer(n, "n", 1)
    rngs = (rng,) if isinstance(rng, np.random.Generator) else rng
    if not isinstance(rngs, (list, tuple)):
        raise ParameterError(f"rng must be a Generator or a list or tuple of them, got {rng!r}")
    if not rngs or count % len(rngs):
        raise ParameterError(f"count ({count}) must be a multiple of len(rng), {len(rngs)}")
    return rngs


def _top_up(block: np.ndarray, rngs: Sequence[np.random.Generator], usable: Callable,
            draw: Callable, error: Exception) -> None:
    # Refills ``block`` in place so that generator k's slab, the k-th of
    # len(rngs) equal runs of its items, holds the first usable items of its
    # stream in order.  Only the slabs in which one ``usable`` mask of the whole
    # block refuses an item are swept: each sweep keeps the items ``usable``
    # marks and appends ``draw(g, missing)``, the stream's next items, so the
    # result does not depend on how a caller splits its rows into calls.
    masks = usable(block).reshape(len(rngs), -1)
    m = masks.shape[1]
    for k in np.flatnonzero(~masks.all(axis=1)):
        items = slab = block[k * m : (k + 1) * m]  # a view, whatever block's layout
        keep = masks[k]
        for _ in range(_MAX_REJECTION_SWEEPS):
            items = np.concatenate((items[keep], draw(rngs[k], m - np.count_nonzero(keep))))
            keep = usable(items)
            if keep.all():
                break
        else:
            raise error
        slab[...] = items


def _draw(count: int, n: int, rngs: Sequence[np.random.Generator], fill: Callable) -> np.ndarray:
    # A (count, n) block of len(rngs) slabs of consecutive rows: ``fill(g, slab)``
    # draws generator g's next rows into its C-contiguous slab, as ``out=`` requires.
    block = np.empty((count, n))
    for g, slab in zip(rngs, block.reshape(len(rngs), -1, n)):
        fill(g, slab)
    return block


@dataclass(frozen=True)
class UniformBackground(NoiseBackground):
    """Raw draws i.i.d. uniform on [0, 1]."""

    kind: ClassVar[str] = "uniform"

    def sample_raw(self, count: int, n: int, rng: _Rngs) -> np.ndarray:
        return _draw(count, n, _generators(rng, count, n), lambda g, out: g.random(out=out))


def _normal_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


@dataclass(frozen=True)
class GaussianBackground(NoiseBackground):
    """Raw draws i.i.d. Gaussian, rejection-sampled into [0, 1].

    Out-of-range draws are dropped rather than clipped, so the density keeps
    its shape with no atoms at the boundaries; the next in-range draw of the
    stream takes their place.  The defaults put the 6-sigma band exactly on
    [0, 1], making rejections negligible.
    """

    mean: float = 0.5
    sigma: float = 1.0 / 12.0

    kind: ClassVar[str] = "gaussian"

    def __post_init__(self) -> None:
        for name in ("mean", "sigma"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if not self.sigma > 0.0:
            raise ParameterError(f"sigma must be > 0, got {self.sigma}")
        mass = _normal_cdf((1.0 - self.mean) / self.sigma) - _normal_cdf(
            (0.0 - self.mean) / self.sigma
        )
        if mass < _MIN_GAUSSIAN_MASS:
            raise ParameterError(
                f"Gaussian({self.mean}, {self.sigma}) keeps {mass:.3e} mass in [0, 1], "
                f"below {_MIN_GAUSSIAN_MASS:.3f}; truncation by rejection is not viable"
            )

    def sample_raw(self, count: int, n: int, rng: _Rngs) -> np.ndarray:
        # Scaling standard_normal draws gives the bits of rng.normal(mean,
        # sigma).  The range is checked once for the whole block; only the
        # slab of a replica with a draw out of range is redone, on its own stream.
        rngs = _generators(rng, count, n)
        u = _draw(count, n, rngs, lambda g, out: g.standard_normal(out=out))
        u *= self.sigma
        u += self.mean
        if u.min(initial=0.0) < 0.0 or u.max(initial=1.0) > 1.0:
            _top_up(
                u.reshape(-1),
                rngs,
                lambda v: (v >= 0.0) & (v <= 1.0),
                lambda g, m: g.normal(self.mean, self.sigma, m),
                ParameterError(
                    "rejection sampling into [0, 1] failed to terminate; "
                    "background keeps too little mass in range"
                ),
            )
        return u


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
        if _integer(n, "n", 1) != self.epsilon.size:
            raise ParameterError(
                f"constant background has {self.epsilon.size} shares, asked for {n}"
            )

    def sample_raw(self, count: int, n: int, rng: _Rngs) -> np.ndarray:
        _generators(rng, count, n)
        self._check_size(n)
        return np.broadcast_to(self.epsilon, (count, n)).copy()

    def shares(self, count: int, n: int, rng: _Rngs) -> np.ndarray:
        return self.sample_raw(count, n, rng)

    def mean_share(self, n: int) -> float:
        self._check_size(n)
        return float(self.epsilon[0])


#: Background kind -> class: the kinds a config or ``--background`` can name.
BACKGROUNDS = {cls.kind: cls for cls in (UniformBackground, GaussianBackground, ConstantBackground)}


def background_from_dict(d: dict) -> NoiseBackground:
    """Build a background from its descriptor, as a config or manifest holds it.

    The descriptor's ``kind`` is looked up in ``BACKGROUNDS``; the other keys
    are the class's constructor arguments.
    """
    if not isinstance(d, dict):
        raise ParameterError(f"background descriptor must be an object, got {d!r}")
    desc = dict(d)
    kind = desc.pop("kind", None)
    if not (isinstance(kind, str) and kind in BACKGROUNDS):
        raise ParameterError(f"unknown background kind {kind!r}")
    try:
        return BACKGROUNDS[kind](**desc)
    except TypeError as exc:
        raise ParameterError(f"bad background descriptor {d!r}: {exc}") from exc


def normalize_epsilon(u: Sequence[float] | np.ndarray) -> np.ndarray:
    """Director-cosine normalization: eps_j = u_j**2 / sum_k u_k**2.

    The result lies on the probability simplex for any nonzero input.
    An all-zero vector has no direction; callers resample on
    ``DegenerateInputError``.
    """
    u = _array(u, "raw entry")
    if u.ndim != 1 or u.size < 1:
        raise ParameterError("raw vector must be a non-empty 1-D vector")
    with np.errstate(over="ignore"):
        sq = u * u
        total = sq.sum()
    if not 0.0 < total < math.inf:
        # The squares underflowed to zero or overflowed: rescale by the
        # largest magnitude, which changes no share, and square again.
        peak = np.abs(u).max()
        if peak == 0.0:
            raise DegenerateInputError("all-zero raw vector cannot be normalized")
        u = u / peak
        sq = u * u
        total = sq.sum()
    return sq / total


def sample_epsilon_matrix(
    background: NoiseBackground, count: int, n: int, rng: _Rngs
) -> np.ndarray:
    """Draw ``count`` share vectors of length n as the rows of a matrix.

    ``rng`` follows the generator convention of ``NoiseBackground``.
    Equivalent to sampling raw vectors and normalizing each row (see
    ``NoiseBackground.shares``); constant backgrounds return their stored
    shares directly.
    """
    if not isinstance(background, NoiseBackground):
        raise ParameterError(f"background must be a NoiseBackground, got {background!r}")
    return background.shares(count, n, rng)


def _drift(totals: np.ndarray, total: float, first: int, what: str = "") -> float:
    # The largest relative drift from ``total`` of a (transactions, replicas)
    # array ``totals``, which it overwrites.  NaN, or a drift past the tolerance,
    # raises at row r's transaction ``first + r``; a zero total drifts by nothing.
    totals -= total
    drift = np.abs(totals, out=totals).max(axis=1)
    drift /= abs(total) or math.inf  # a finite deviation over inf is 0
    over = np.flatnonzero(~(drift <= CONSERVATION_RTOL))
    if over.size:
        raise ConservationError(f"{what}total wealth drifted by {drift[over[0]]:.3e} "
                                f"at transaction {first + over[0]}")
    return float(drift.max())


def _total(wealth: np.ndarray) -> float:
    # The sum of ``wealth``, which must be finite.
    with np.errstate(over="ignore"):
        total = float(np.sum(wealth))
    if not math.isfinite(total):
        raise ParameterError(f"total wealth must be finite, got {total}")
    return total


def _transaction(
    state: WealthState, params: Sequence[AgentParams], epsilon: object
) -> tuple[np.ndarray, np.ndarray]:
    # The wealth and shares of one transaction, checked to have one entry per agent.
    x, eps = state.wealth, _array(epsilon, "share entry", 0, 1)
    if len(params) != x.size or eps.shape != x.shape:
        raise ParameterError("state, params and shares must have equal length")
    return x, eps


def step(
    state: WealthState, params: Sequence[AgentParams], epsilon: np.ndarray
) -> WealthState:
    """Apply one transaction: pool the released wealth, redistribute by shares.

    Total wealth is conserved within ``CONSERVATION_RTOL`` and every output
    entry is non-negative.
    """
    x, eps = _transaction(state, params, epsilon)
    total = _total(x)
    lam = np.array([p.lam for p in params])
    # The dot and the sum of _evolve's per-agent step, so the two are bit-identical.
    pool = np.matmul(x[None], (1.0 - lam)[:, None])[0]
    new = eps * pool + lam * x
    _drift(np.array([[new.sum()]]), total, state.transaction_index + 1, "single step: ")
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
    x, eps = _transaction(state, params, epsilon)
    a, b = _integer(a, "agent index", 0, x.size - 1), _integer(b, "agent index", 0, x.size - 1)
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
        return WealthState(self.indices[i], self.wealth[i])

    def __iter__(self) -> Iterator[WealthState]:
        return (self[r] for r in range(len(self)))

    @property
    def final(self) -> WealthState:
        return self[-1]


def _evolve(
    lam: np.ndarray,
    wealth: np.ndarray,
    background: NoiseBackground | tuple[NoiseBackground, ...],
    transactions: int,
    seed: int,
    replicas: int,
    record_every: int | None,
    reduce: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, float]:
    """Step ``replicas`` copies of the exchange law side by side and record them.

    ``background`` is one background or a tuple of A arms, each run on its
    own generators; replica k of every arm draws its shares from seed
    ``(seed + k) mod 2**64``, and ``seed`` itself must lie in [0, 2**64 - 1];
    ``transactions`` lies in [1, 2**63 - 1], so every record index is int64,
    and ``replicas`` is at least 1 and small enough that the float64 state
    below fits in one array.
    The ``(A * replicas, n)`` state, arm-major (arm a's replica k is row
    ``a * replicas + k``), is recorded at transaction 0, every
    ``record_every`` transactions, and at the end; ``record_every=None`` is
    ``max(1, transactions // 10_000)``, which keeps about 10,000 records.
    ``reduce`` maps a ``(c, A * replicas, n)`` stack of recorded states to c
    result rows, once per sampling block; the stack may live in the block's
    share rows, which the next block overwrites, so ``reduce`` must not keep
    a view of it.  Returns the int64 record indices, the result rows stacked
    in record order, and the max relative drift of any replica's total
    wealth; raises ``ConservationError`` after a block that ends with
    negative wealth or in which drift passed tolerance.

    One loop steps every block: each new state is written into the share
    row it was stepped from, then one sum gives the drift check's row totals
    and one view of the block's cadence rows its records; the initial state,
    and a final one off cadence, are recorded from the state vector.  Only
    the pool differs with ``lam``.
    When every entry is equal, the pool is the constant ``(1 - lam) * W``
    for the initial total W, and the result agrees with ``step`` to
    rounding, which the contraction by lam keeps from growing.  Per-agent
    lam pools the contiguous state as ``step`` does, bit for bit, and then
    stores it in its row.  Either way each state depends only on the one
    before it, so no result depends on the block size, the replica count or
    the other arms.

    Runs of several arms copy each block into a time-major stage, so that
    one transaction's shares for all rows are contiguous for the step's
    ufuncs; a one-arm run steps the sampled block in place, as a stage would
    cut its rows per block, by up to half, and so add generator calls.
    """
    arms = background if isinstance(background, tuple) else (background,)
    if not arms:
        raise ParameterError("need at least one background")
    transactions = _integer(transactions, "transactions", 1, np.iinfo(np.int64).max)
    if record_every is None:
        record_every = max(1, transactions // 10_000)
    record_every = _integer(record_every, "record_every", 1)
    x0 = np.asarray(wealth, dtype=float)
    lam = np.asarray(lam, dtype=float)
    n = x0.size
    if n < 1:
        raise ParameterError("need at least one agent")
    replicas = _integer(replicas, "replicas", 1)
    _within(replicas, "replicas", 1, _MAX_ARRAY_BYTES // (8 * n * len(arms)))  # the state fits
    streams = _seeded(seed, replicas, len(arms))
    release = 1.0 - lam
    total = _total(x0)
    # At one lam the pool is the constant (1 - lam) * total, so each step is
    # the filter x' = lam * x + eps * fixed_pool; else it is summed per step.
    fixed_pool = (1.0 - lam[0]) * total if (lam == lam[0]).all() else None
    width = len(arms) * replicas  # state rows
    staged = len(arms) > 1
    max_drift = 0.0
    x = np.tile(x0, (width, 1))
    lam_rows = np.tile(lam, (width, 1))  # a same-shape product is cheaper than a broadcast
    first = reduce(x[None])
    records = (transactions - 1) // record_every + 2  # int64 indices and rows like first[0]
    _integer(records, "record count", 2, _MAX_ARRAY_BYTES // max(8, first[0].nbytes))
    indices = np.append(np.arange(0, transactions, record_every, dtype=np.int64), transactions)
    rows = np.empty((indices.size,) + first.shape[1:], first.dtype)
    rows[0] = first[0]
    r = 1  # the next record
    # Bytes per block row that _BLOCK_BYTES bounds, float64 but for the mask,
    # for W = A * R state rows: the shares (W, n), drawn and normalized in
    # place arm by arm, each replica's rows its generator's slab, and, when
    # staged, their copy in the stage (W, n) as well; their totals (W,); the
    # row sums (W,), reused in place by the drift check; the drift and its
    # mask.  So a row is 8 * W * (n + 2) + 9 bytes, or 8 * W * (2n + 2) + 9
    # staged.  One block is alive at a time; a block is at least one row, so
    # a row past the budget overruns it.  A rejected Gaussian draw or an
    # all-zero raw row briefly adds a mask of the block and compacted copies
    # of one replica's rows.  The draw floor (see _BLOCK_BYTES) may double the budget.
    row_bytes = 8 * width * ((1 + staged) * n + 2) + 9
    floor = min(-(-_MIN_CALL_DRAWS // n), _BLOCK_BYTES // 8 // (replicas * n),
                2 * _BLOCK_BYTES // row_bytes)
    per_block = max(1, _BLOCK_BYTES // row_bytes, floor)
    sums = np.empty((min(per_block, transactions), width))
    stage = np.empty((len(sums), width, n)) if staged else None
    pool = np.empty((width, 1, 1))
    gain = np.empty_like(x)
    for done in range(0, transactions, per_block):
        todo = min(per_block, transactions - done)
        if stage is None:
            eps = sample_epsilon_matrix(arms[0], replicas * todo, n, streams[0])
            eps = eps.reshape(replicas, todo, n)
        else:
            eps = stage[:todo].swapaxes(0, 1)  # eps[:, j] is a C-contiguous (W, n) row
            for a, (bg, rngs) in enumerate(zip(arms, streams)):
                eps[a * replicas : (a + 1) * replicas] = sample_epsilon_matrix(
                    bg, replicas * todo, n, rngs
                ).reshape(replicas, todo, n)
        # Each state overwrites the share row it was stepped from, so row j
        # ends as the state after transaction done + j + 1.
        if fixed_pool is not None:
            eps *= fixed_pool
        prev = x
        for row in eps.swapaxes(0, 1):
            np.multiply(prev, lam_rows, out=gain)
            if fixed_pool is None:  # pool the contiguous state as step() does, then store it
                np.matmul(x[:, None, :], release[:, None], out=pool)
                np.multiply(row, pool[:, 0], out=x)
                x += gain
                row[...] = x
            else:
                np.add(row, gain, out=row)
                prev = row
        del prev, row  # a view would keep this block alive through the next draw
        x[...] = eps[:, -1]
        _row_sums(eps, out=sums[:todo].T)
        on = eps[:, -(done + 1) % record_every :: record_every]  # the block's cadence rows
        c = on.shape[1]
        if c:
            rows[r : r + c] = reduce(on.swapaxes(0, 1))
            r += c
        del eps, on  # the next block is drawn with this one freed
        # With lam and eps in [0, 1] and x >= 0, every new entry is a sum of
        # non-negative products, which IEEE rounding keeps >= 0; so one check
        # per block is a tripwire for broken inputs (it also catches NaN).
        if not x.min() >= 0.0:
            raise ConservationError(f"wealth went negative by transaction {done + todo}")
        # While wealth stays non-negative it is bounded by the total, so the
        # drift of a whole block can be checked after it.
        max_drift = max(max_drift, _drift(sums[:todo], total, done + 1))
    if transactions % record_every:  # the final record is off cadence
        rows[r] = reduce(x[None])[0]
    return indices, rows, max_drift


def run_trajectory(
    params: Sequence[AgentParams],
    background: NoiseBackground,
    transactions: int,
    seed: int,
    record_every: int | None = 1,
) -> Trajectory:
    """Simulate one trajectory; deterministic for a fixed seed.

    Each transaction draws a raw vector from the background, normalizes it to
    a share vector (constant backgrounds skip normalization) and applies the
    exchange step.  States are recorded at transaction 0, every
    ``record_every`` transactions, and at the end (None: about 10,000
    records, see ``_evolve``).
    """
    lam = np.array([p.lam for p in params])
    x0 = np.array([p.initial_wealth for p in params])
    indices, wealth, max_drift = _evolve(
        lam, x0, background, transactions, seed, 1, record_every, lambda s: s[:, 0]
    )
    return Trajectory(
        indices=indices,
        wealth=wealth,
        max_conservation_drift=max_drift,
        total_wealth=float(x0.sum()),
    )
