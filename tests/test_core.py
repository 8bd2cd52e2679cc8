"""Exchange law, share normalization, and noise backgrounds."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import wealthsim as ws
from wealthsim import core
from wealthsim.core import _evolve


REF_LAMBDAS = [0.95, 0.8]
REF_WEALTH = [1000.0, 2000.0]
REF_EPSILON = np.array([0.51, 0.49])


def ref_state():
    return ws.WealthState(0, np.array(REF_WEALTH))


def ref_params():
    return ws.make_agents(2, REF_LAMBDAS, REF_WEALTH)


# ---------------------------------------------------------------- backgrounds


def test_constant_background_is_identity():
    rng = ws.make_rng(0)
    bg = ws.ConstantBackground(REF_EPSILON)
    out = bg.sample_raw(1, 2, rng)[0]
    assert np.array_equal(out, REF_EPSILON)


def test_constant_background_rejects_non_simplex():
    with pytest.raises(ws.ParameterError):
        ws.ConstantBackground(np.array([0.6, 0.6]))
    with pytest.raises(ws.ParameterError):
        ws.ConstantBackground(np.array([-0.1, 1.1]))
    for not_numbers in ([0.5, "x"], "abc"):
        with pytest.raises(ws.ParameterError):
            ws.ConstantBackground(not_numbers)


def test_gaussian_moments_and_truncation():
    rng = ws.make_rng(123)
    u = ws.GaussianBackground().sample_raw(1, 10**6, rng)[0]
    assert abs(u.mean() - 0.5) < 0.001
    assert abs(u.std() - 1.0 / 12.0) < 0.002
    assert u.min() >= 0.0 and u.max() <= 1.0


def test_uniform_moments():
    rng = ws.make_rng(456)
    u = ws.UniformBackground().sample_raw(1, 10**6, rng)[0]
    assert abs(u.mean() - 0.5) < 0.001
    assert abs(u.var() - 1.0 / 12.0) < 0.001
    assert u.min() >= 0.0 and u.max() <= 1.0


def test_background_parameter_errors():
    with pytest.raises(ws.ParameterError):
        ws.GaussianBackground(sigma=0.0)
    with pytest.raises(ws.ParameterError):
        ws.GaussianBackground(sigma=-1.0)
    with pytest.raises(ws.ParameterError):
        ws.sample_epsilon_matrix(ws.UniformBackground(), 0, 2, ws.make_rng(0))
    for count, n in ((2.0, 2), (2, True), ("2", 2)):
        with pytest.raises(ws.ParameterError, match="integer"):
            ws.sample_epsilon_matrix(ws.UniformBackground(), count, n, ws.make_rng(0))
    # hopeless truncation: nearly all mass outside [0, 1]
    with pytest.raises(ws.ParameterError):
        ws.GaussianBackground(mean=50.0, sigma=0.001)
    # 4e-4 of the mass in range: the sweep budget would run out mid-run
    with pytest.raises(ws.ParameterError):
        ws.GaussianBackground(0.5, 1000.0)


def test_background_round_trip():
    assert ws.background_from_dict({"kind": "uniform"}) == ws.UniformBackground()
    gaussian = ws.background_from_dict({"kind": "gaussian", "mean": 0.4, "sigma": 0.1})
    assert gaussian == ws.GaussianBackground(0.4, 0.1)
    constant = ws.background_from_dict({"kind": "constant", "epsilon": [0.3, 0.7]})
    assert type(constant) is ws.ConstantBackground
    assert np.array_equal(constant.epsilon, [0.3, 0.7])
    with pytest.raises(ws.ParameterError):
        ws.background_from_dict({"kind": "pareto"})
    with pytest.raises(ws.ParameterError):
        ws.background_from_dict({"kind": "uniform", "mean": 0.5})
    for bad in ({}, {"kind": ["uniform"]}, {"kind": "constant"}):
        with pytest.raises(ws.ParameterError):
            ws.background_from_dict(bad)


@pytest.mark.parametrize(
    "descriptor",
    [
        {"kind": "gaussian", "mean": True, "sigma": 0.5},
        {"kind": "gaussian", "mean": 0.5, "sigma": np.True_},
        {"kind": "constant", "epsilon": [True, False]},
        {"kind": "constant", "epsilon": [0.0, True]},
        {"kind": "constant", "epsilon": np.array([False, True])},
    ],
)
def test_backgrounds_refuse_booleans(descriptor):
    with pytest.raises(ws.ParameterError, match="boolean"):
        ws.background_from_dict(descriptor)


def test_validate_epsilon_refuses_booleans():
    for values in ([True, False], (np.False_, 1.0), np.array([True, 0.0], dtype=object)):
        with pytest.raises(ws.ParameterError, match="boolean"):
            ws.validate_epsilon(values)
    # 0 and 1 as numbers are still shares.
    assert np.array_equal(ws.validate_epsilon([1, 0]), [1.0, 0.0])
    assert np.array_equal(ws.validate_epsilon(np.array([0.25, 0.75])), [0.25, 0.75])


# ------------------------------------------------------------- normalization


def test_normalize_direct_arithmetic():
    out = ws.normalize_epsilon([3.0, 4.0])
    assert np.array_equal(out, np.array([9.0 / 25.0, 16.0 / 25.0]))


def test_normalize_symmetry():
    for n in (1, 2, 5, 17):
        out = ws.normalize_epsilon(np.full(n, 0.37))
        np.testing.assert_allclose(out, np.full(n, 1.0 / n), rtol=1e-15)


def test_normalize_single_support():
    assert np.array_equal(ws.normalize_epsilon([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_normalize_all_zero_is_degenerate():
    with pytest.raises(ws.DegenerateInputError):
        ws.normalize_epsilon(np.zeros(4))


def test_normalize_extreme_magnitudes():
    # Squares that underflow to zero or overflow to inf are rescaled first;
    # the error::RuntimeWarning filter turns any overflow warning into a failure.
    for u, expected in (
        ([1e-200, 1e-200], [0.5, 0.5]),
        ([1e200, 1.0], [1.0, 0.0]),
        ([1e160, 1e160], [0.5, 0.5]),
    ):
        assert np.array_equal(ws.normalize_epsilon(u), expected)


def test_normalize_simplex_property():
    rng = ws.make_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        u = rng.random(n)
        eps = ws.normalize_epsilon(u)
        assert abs(eps.sum() - 1.0) <= ws.SIMPLEX_ATOL
        assert eps.min() >= 0.0 and eps.max() <= 1.0


def test_sample_epsilon_matrix_rows_are_simplex():
    rng = ws.make_rng(7)
    for bg in (ws.UniformBackground(), ws.GaussianBackground()):
        rows = ws.sample_epsilon_matrix(bg, 2000, 12, rng)
        assert rows.shape == (2000, 12)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=ws.SIMPLEX_ATOL)
        assert rows.min() >= 0.0 and rows.max() <= 1.0


class _CoinBackground(ws.NoiseBackground):
    """Raw draws 0 or 1: two agents get an all-zero raw row a quarter of the time."""

    def sample_raw(self, count, n, rng):
        return (ws.UniformBackground().sample_raw(count, n, rng) >= 0.5).astype(float)


class _ZeroBackground(ws.NoiseBackground):
    """Raw draws all zero: no row can ever be normalized."""

    def sample_raw(self, count, n, rng):
        return np.zeros((count, n))


@settings(max_examples=25, deadline=None)
@given(
    a=st.integers(1, 40),
    b=st.integers(1, 40),
    n=st.integers(1, 12),
    mean=st.floats(-1.0, 2.0),
    sigma=st.floats(0.05, 2.0),
    seed=st.integers(0, ws.MAX_SEED),
)
def test_gaussian_sample_raw_is_split_invariant(a, b, n, mean, sigma, seed):
    scale = sigma * math.sqrt(2.0)
    assume(0.5 * (math.erf((1.0 - mean) / scale) + math.erf(mean / scale)) >= 0.1)
    bg = ws.GaussianBackground(mean, sigma)
    rng = ws.make_rng(seed)
    split = np.concatenate((bg.sample_raw(a, n, rng), bg.sample_raw(b, n, rng)))
    whole = bg.sample_raw(a + b, n, ws.make_rng(seed))
    assert whole.shape == (a + b, n)
    assert np.array_equal(split, whole)
    assert whole.min() >= 0.0 and whole.max() <= 1.0


@pytest.mark.parametrize(
    "mean, sigma", [(0.5, 1.0 / 12.0), (0.3, 0.2), (0.5, 0.5), (0.3, 0.4), (-0.2, 0.6)]
)
def test_gaussian_sample_raw_is_the_in_range_normal_stream(mean, sigma):
    bg = ws.GaussianBackground(mean, sigma)
    for seed in (0, 1, 2**63 + 5):
        for count, n in ((1, 1), (7, 3), (300, 20)):
            got = bg.sample_raw(count, n, ws.make_rng(seed))
            stream = ws.make_rng(seed).normal(mean, sigma, 50 * count * n)
            kept = stream[(stream >= 0.0) & (stream <= 1.0)][: count * n]
            assert kept.size == count * n
            assert np.array_equal(got, kept.reshape(count, n))


def test_shares_drop_zero_rows_in_stream_order():
    bg = _CoinBackground()
    whole = bg.shares(60, 2, ws.make_rng(5))
    for a in (1, 7, 30, 59):
        rng = ws.make_rng(5)
        split = np.concatenate((bg.shares(a, 2, rng), bg.shares(60 - a, 2, rng)))
        assert np.array_equal(split, whole)
    assert np.array_equal(whole.sum(axis=1), np.ones(60))


def test_shares_give_up_on_a_background_of_zero_rows():
    with pytest.raises(ws.DegenerateInputError):
        ws.sample_epsilon_matrix(_ZeroBackground(), 3, 2, ws.make_rng(0))


class _FarGenerator:
    """Stands in for a generator whose normal draws all lie 12 sigma above the mean."""

    def standard_normal(self, out):
        out.fill(12.0)
        return out

    def normal(self, mean, sigma, size):
        return np.full(size, mean + 12.0 * sigma)


def test_gaussian_gives_up_on_a_stream_out_of_range():
    with pytest.raises(ws.ParameterError, match="failed to terminate"):
        ws.GaussianBackground().sample_raw(2, 3, [_FarGenerator()])


# Backgrounds for the replica tests, all at n = 3: the rejecting Gaussian
# (about 27% of its draws fall outside [0, 1]) and the coin (an eighth of its
# rows are all zero) make the per-replica top-ups run.
REPLICA_BACKGROUNDS = {
    "uniform": ws.UniformBackground(),
    "gaussian": ws.GaussianBackground(),
    "gaussian-rejecting": ws.GaussianBackground(0.3, 0.4),
    "constant": ws.ConstantBackground(np.array([0.1, 0.6, 0.3])),
    "coin": _CoinBackground(),
}


@pytest.mark.parametrize("name", sorted(REPLICA_BACKGROUNDS))
def test_generator_sequence_stacks_one_generator_calls(name):
    bg = REPLICA_BACKGROUNDS[name]
    n = 3
    seeds = (3, 2**64 - 1, 40)
    for m in (1, 7, 50):
        alone = [ws.sample_epsilon_matrix(bg, m, n, ws.make_rng(s)) for s in seeds]
        rngs = [ws.make_rng(s) for s in seeds]
        got = ws.sample_epsilon_matrix(bg, len(seeds) * m, n, rngs)
        assert np.array_equal(got, np.concatenate(alone))
        # Each generator advanced exactly as its one-generator call did.
        follow = ws.sample_epsilon_matrix(bg, len(seeds), n, rngs)
        for k, s in enumerate(seeds):
            rng = ws.make_rng(s)
            ws.sample_epsilon_matrix(bg, m, n, rng)
            assert np.array_equal(follow[k], ws.sample_epsilon_matrix(bg, 1, n, rng)[0])
    rngs = [ws.make_rng(s) for s in seeds]
    raw = bg.sample_raw(len(seeds) * 20, n, rngs)
    alone = [bg.sample_raw(20, n, ws.make_rng(s)) for s in seeds]
    assert np.array_equal(raw, np.concatenate(alone))


@pytest.mark.parametrize("name", sorted(REPLICA_BACKGROUNDS))
def test_generator_sequence_must_divide_count(name):
    bg = REPLICA_BACKGROUNDS[name]
    n = 3
    rngs = [ws.make_rng(s) for s in range(3)]
    for count in (1, 7, 10):
        with pytest.raises(ws.ParameterError, match="multiple"):
            ws.sample_epsilon_matrix(bg, count, n, rngs)
    with pytest.raises(ws.ParameterError, match="multiple"):
        ws.sample_epsilon_matrix(bg, 3, n, [])


@pytest.mark.parametrize("name", sorted(REPLICA_BACKGROUNDS))
def test_evolve_is_bit_identical_across_block_budgets(name, monkeypatch):
    # Blocks of many rows, of a few rows and of one row, for one to five
    # replicas of one or three agents; row k of a multi-replica run is step()
    # driven by numpy's own PCG64 at seed + k, wrapping past 2**64 - 1: bit for
    # bit at per-agent lam, to rounding at one lam (one agent).
    seed = ws.MAX_SEED - 1
    replica_counts = (1, 2, 3, 5)
    for n in (1, 3):
        bg = REPLICA_BACKGROUNDS[name]
        if name == "constant" and n == 1:
            bg = ws.ConstantBackground(np.array([1.0]))
        lam = np.array([0.9, 0.5, 0.75])[:n]
        wealth = np.array([10.0, 200.0, 35.0])[:n]

        def run(replicas, seed):
            return _evolve(lam, wealth, bg, 700, seed, replicas, 9, lambda s: s.copy())

        stepped = _repeated_steps(bg, ws.make_agents(n, lam, wealth), seed, 5, 700)
        by_budget = []
        for budget in (512 * 1024, 64 * 1024, 4 * 1024, 1):
            monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
            by_budget.append([run(r, seed) for r in replica_counts])
        for runs in by_budget[1:]:
            for (indices, rows, drift), (ref_indices, ref_rows, ref_drift) in zip(
                runs, by_budget[0]
            ):
                assert np.array_equal(indices, ref_indices)
                assert np.array_equal(rows, ref_rows)
                assert drift == ref_drift
        for replicas, (indices, rows, _) in zip(replica_counts, by_budget[0]):
            assert rows.shape == (indices.size, replicas, n)
            reference = stepped[indices, :replicas]
            if n == 1:
                np.testing.assert_allclose(rows, reference, rtol=1e-12, atol=0)
            else:
                assert np.array_equal(rows, reference)


def _numpy_rng(seed):
    # numpy's own PCG64 at ``seed``, an oracle that shares no code with make_rng.
    return np.random.Generator(np.random.PCG64(seed % 2**64))


def _repeated_steps(bg, params, seed, replicas, transactions):
    # The states of ``replicas`` runs of step() at seeds (seed + k) mod 2**64,
    # stacked as (transactions + 1, replicas, n).
    wealth = np.array([p.initial_wealth for p in params])
    stepped = []
    for k in range(replicas):
        state, states = ws.WealthState(0, wealth), [wealth]
        for eps in ws.sample_epsilon_matrix(bg, transactions, wealth.size, _numpy_rng(seed + k)):
            state = ws.step(state, params, eps)
            states.append(state.wealth)
        stepped.append(states)
    return np.array(stepped).swapaxes(0, 1)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("name", sorted(REPLICA_BACKGROUNDS))
def test_one_lam_evolve_matches_repeated_step(name, lam, monkeypatch):
    # At one lam _evolve steps x' = lam * x + (1 - lam) * W * eps for the
    # initial total W, while step() pools each state's released wealth; the two
    # agree to rounding, which the contraction by lam keeps from growing.
    bg = REPLICA_BACKGROUNDS[name]
    wealth = np.array([10.0, 200.0, 35.0])
    n, seed, transactions = wealth.size, 11, 300
    params = ws.make_agents(n, lam, wealth)
    for replicas in (1, 3):
        stepped = _repeated_steps(bg, params, seed, replicas, transactions)
        for budget in (512 * 1024, 4 * 1024, 1):
            monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
            indices, rows, _ = _evolve(np.full(n, lam), wealth, bg, transactions, seed,
                                       replicas, 7, lambda s: s.copy())
            np.testing.assert_allclose(rows, stepped[indices], rtol=1e-12, atol=0)
            if lam == 1.0:
                assert (rows == wealth).all()


@pytest.mark.parametrize("lam", [[0.9, 0.5, 0.75], [1.0, 0.0, 0.5]], ids=["inner", "ends"])
@pytest.mark.parametrize("name", sorted(REPLICA_BACKGROUNDS))
def test_per_agent_evolve_is_repeated_step(name, lam, monkeypatch):
    # Per-agent lam pools each state as step() does, so the two agree bit for
    # bit: for three replicas stepped in strided rows, for blocks of many rows
    # and of one, and for records of every state or of every 7th, where the
    # final record (300) falls off cadence.
    bg = REPLICA_BACKGROUNDS[name]
    lam, wealth = np.array(lam), np.array([10.0, 200.0, 35.0])
    seed, transactions = 11, 300
    params = ws.make_agents(wealth.size, lam, wealth)
    for replicas in (1, 3):
        stepped = _repeated_steps(bg, params, seed, replicas, transactions)
        for budget in (512 * 1024, 4 * 1024, 1):
            monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
            for cadence in (1, 7):
                indices, rows, _ = _evolve(lam, wealth, bg, transactions, seed, replicas,
                                           cadence, lambda s: s.copy())
                assert indices[-2:].tolist() == ([299, 300] if cadence == 1 else [294, 300])
                assert np.array_equal(rows, stepped[indices])


@pytest.mark.parametrize("per_agent", [False, True], ids=["one-lam", "per-agent-lam"])
@pytest.mark.parametrize(
    "pair",
    [("uniform", "gaussian"), ("gaussian-rejecting", "constant"), ("constant", "uniform")],
    ids="-".join,
)
def test_two_arm_evolve_is_the_two_single_arm_runs(pair, per_agent, monkeypatch):
    # Arm a's replica k is row a * R + k of a two-arm run, bit for bit the
    # one-arm run's row k and the one-replica run at seed + k, whatever the
    # block budget and whether or not the run is staged.
    seed = ws.MAX_SEED - 1
    for n in (1, 3):
        arms = tuple(
            ws.ConstantBackground(np.array([1.0])) if name == "constant" and n == 1
            else REPLICA_BACKGROUNDS[name]
            for name in pair
        )
        lam = (np.array([0.9, 0.5, 0.75]) if per_agent else np.full(3, 0.9))[:n]
        wealth = np.array([10.0, 200.0, 35.0])[:n]

        def run(background, replicas, seed):
            return _evolve(lam, wealth, background, 300, seed, replicas, 7, lambda s: s.copy())

        alone = [[run(bg, 1, (seed + k) & ws.MAX_SEED)[1][:, 0] for k in range(5)] for bg in arms]
        for budget in (512 * 1024, 4 * 1024, 1):
            monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
            for replicas in (1, 2, 5):
                indices, rows, drift = run(arms, replicas, seed)
                assert rows.shape == (indices.size, 2 * replicas, n)
                drifts = []
                for a, bg in enumerate(arms):
                    one_indices, one_arm, one_drift = run(bg, replicas, seed)
                    assert np.array_equal(indices, one_indices)
                    assert np.array_equal(rows[:, a * replicas : (a + 1) * replicas], one_arm)
                    for k in range(replicas):
                        assert np.array_equal(one_arm[:, k], alone[a][k])
                    drifts.append(one_drift)
                assert drift == max(drifts)
        with pytest.raises(ws.ParameterError, match="at least one background"):
            run((), 2, seed)


def test_a_background_without_sample_raw_is_refused_by_name():
    class _Bare(ws.NoiseBackground):
        pass

    for bg in (ws.NoiseBackground(), _Bare()):
        name = type(bg).__name__
        with pytest.raises(ws.ParameterError, match=f"^{name} defines no sample_raw"):
            bg.sample_raw(5, 2, ws.make_rng(1))
        with pytest.raises(ws.ParameterError, match=f"^{name} defines no sample_raw"):
            ws.run_trajectory(ws.make_agents(2, 0.5, 1.0), bg, 5, 1)


def test_wide_trajectory_samples_in_small_blocks():
    # A 2000-row block at n=1000 would be 16 MB of shares alone.
    params = ws.make_agents(1000, 0.9, 100.0)
    ws.run_trajectory(params, ws.GaussianBackground(), 1, 1)  # lazy numpy imports
    tracemalloc.start()
    try:
        ws.run_trajectory(params, ws.GaussianBackground(), 2000, 1, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "background",
    [ws.UniformBackground(), ws.GaussianBackground(), ws.GaussianBackground(0.3, 0.4)],
    ids=["uniform", "gaussian", "rejecting-gaussian"],
)
def test_many_replica_trajectories_sample_in_small_blocks(background):
    # Eight replicas share one block budget.
    params = ws.make_agents(1000, 0.9, 100.0)
    ws.variance_trajectory(params, background, 1, 1, 1, replicas=8)  # lazy numpy imports
    tracemalloc.start()
    try:
        ws.variance_trajectory(params, background, 200, 1, 200, replicas=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("per_agent", [False, True], ids=["one-lam", "per-agent-lam"])
@pytest.mark.parametrize(
    "gaussian", [ws.GaussianBackground(), ws.GaussianBackground(0.3, 0.4)],
    ids=["gaussian", "rejecting-gaussian"],
)
def test_two_arm_comparison_samples_in_small_blocks(gaussian, per_agent):
    # Both arms of eight replicas, stepped through one stage, share one budget.
    lam = np.linspace(0.5, 0.95, 1000) if per_agent else 0.9
    params = ws.make_agents(1000, lam, 100.0)
    ws.compare_backgrounds(params, 1, 8, 1, background_b=gaussian)  # lazy numpy imports
    tracemalloc.start()
    try:
        ws.compare_backgrounds(params, 200, 8, 1, background_b=gaussian, record_every=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class _CountingGenerator:
    """A replica generator that records the number of draws of each call."""

    def __init__(self, rng, sizes):
        self._rng, self._sizes = rng, sizes

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            drawn = method(*args, **kwargs)
            self._sizes.append(drawn.size)
            return drawn

        return counted


def _counted_run(arms, replicas, n, transactions):
    # The draws of every replica generator call, by generator, and of every
    # ``sample_epsilon_matrix`` call of an _evolve run.
    by_generator, by_block = [], []
    seeded, sample = core._seeded, core.sample_epsilon_matrix

    def counting_seeded(seed, count, copies=1):
        streams = seeded(seed, count, copies)
        by_generator.extend([] for rngs in streams for _ in rngs)
        sizes = iter(by_generator)
        return [[_CountingGenerator(g, next(sizes)) for g in rngs] for rngs in streams]

    def counting_sample(background, count, n, rng):
        by_block.append(count * n)
        return sample(background, count, n, rng)

    lam, wealth = np.full(n, 0.9), np.linspace(1.0, 2.0, n)
    background = tuple(ws.UniformBackground() for _ in range(arms))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_seeded", counting_seeded)
        patch.setattr(core, "sample_epsilon_matrix", counting_sample)
        _evolve(lam, wealth, background, transactions, 77, replicas, 1, lambda s: s[:, :, 0])
    return by_generator, by_block


@pytest.mark.parametrize(
    "replicas, arms, n, rows",
    [
        # concordance's shape: the budget gives 16 rows of 32,009 bytes, the
        # floor asks 64, and both caps allow 32 (65,536 draws a call for all
        # replicas; 1 MiB of live bytes).
        (1000, 1, 2, 32),
        # 40 rows by the budget; the floor's 64 rows (128 draws) fit both caps.
        (400, 1, 2, 64),
        # 18 rows by the budget and 43 by the floor; the live-byte cap allows
        # 37, and the call cap 31 (65,536 draws over 2,100 a row).
        (700, 1, 3, 31),
        # Two staged arms of 7 agents: 5 rows by the budget, 19 by the floor,
        # and 10 by the live-byte cap (102,409 bytes a row).
        (400, 2, 7, 10),
        # Calls of 100 agents fill the floor in any one row: the budget rules.
        (2, 2, 100, 80),
    ],
)
def test_blocks_fill_a_floor_of_draws_per_generator_call(replicas, arms, n, rows, monkeypatch):
    # Every generator call but a replica's last fills ``rows`` rows, at least
    # _MIN_CALL_DRAWS draws unless a cap stops it, and no call for all of an
    # arm's replicas draws more than _BLOCK_BYTES // 8 values.  Uniform draws
    # need no top-up, so each generator call is one block's slab.
    transactions = 200
    by_generator, by_block = _counted_run(arms, replicas, n, transactions)
    calls = -(-transactions // rows)
    assert len(by_generator) == arms * replicas
    last = (transactions - (calls - 1) * rows) * n
    assert all(sizes == [rows * n] * (calls - 1) + [last] for sizes in by_generator)
    assert len(by_block) == arms * calls
    assert max(by_block) == replicas * rows * n <= core._BLOCK_BYTES // 8
    row_bytes = 8 * arms * replicas * ((1 + (arms > 1)) * n + 2) + 9
    assert rows * row_bytes <= 2 * core._BLOCK_BYTES
    capped = (rows + 1) * row_bytes > 2 * core._BLOCK_BYTES or (
        replicas * (rows + 1) * n > core._BLOCK_BYTES // 8
    )
    assert rows * n >= core._MIN_CALL_DRAWS or capped
    assert (rows - 1) * n < core._MIN_CALL_DRAWS or rows * row_bytes <= core._BLOCK_BYTES
    # A one-byte budget leaves the floor nothing: every block is one row.
    monkeypatch.setattr(core, "_BLOCK_BYTES", 1)
    by_generator, by_block = _counted_run(arms, replicas, n, transactions)
    assert all(sizes == [n] * transactions for sizes in by_generator)
    assert by_block == [replicas * n] * (arms * transactions)


def test_a_concordance_block_stays_within_twice_the_budget():
    # The draw floor may double the live bytes of a block: at concordance's
    # shape the run's peak is at most 2 * _BLOCK_BYTES above the same run in
    # one-row blocks, which holds the same generators, state and result rows.
    p = ws.TwoEconomyParams(0.95, 0.8, 0.5, 1000.0, 2000.0)
    ws.concordance(p, ws.GaussianBackground(), 1000, 3, 77)  # lazy numpy imports
    peaks = []
    for budget in (1, core._BLOCK_BYTES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_BLOCK_BYTES", budget)
            tracemalloc.start()
            try:
                ws.concordance(p, ws.GaussianBackground(), 1000, 200, 77)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2 * core._BLOCK_BYTES


_ROW_SUM_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.floats(5e299, 1.5e300),
    st.floats(-1.5e300, -5e299),
    st.floats(-1.0, 1.0),
)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    replicas=st.integers(1, 4),
    rows=st.integers(1, 5),
    data=st.data(),
)
def test_row_sums_are_numpys_sum_bit_for_bit(n, replicas, rows, data):
    # Below 8 entries the fold of columns repeats numpy's plain loop; from 8 on
    # numpy sums itself.  Checked on a C-contiguous matrix, on a replica-major
    # (R, rows, n) block and its time-major swapped view, and into transposed
    # outputs as _evolve writes its row sums.
    values = data.draw(st.lists(_ROW_SUM_VALUES, min_size=replicas * rows * n,
                                max_size=replicas * rows * n))
    block = np.array(values).reshape(replicas, rows, n)

    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    matrix = block.reshape(-1, n)
    assert same(core._row_sums(matrix), matrix.sum(axis=-1))
    for view in (block, block.swapaxes(0, 1)):
        assert same(core._row_sums(view), view.sum(axis=-1))
        out, expected = (np.empty(view.shape[-2::-1]).T for _ in range(2))
        assert core._row_sums(view, out=out) is out
        assert same(np.ascontiguousarray(out),
                    np.ascontiguousarray(view.sum(axis=-1, out=expected)))


@pytest.mark.parametrize("background", [ws.UniformBackground(), ws.GaussianBackground()])
def test_one_generator_draws_a_writable_c_contiguous_block(background):
    # ``shares`` normalizes the block in place, and numpy's ``out=`` needs C order.
    raw = background.sample_raw(16, 3, ws.make_rng(1))
    assert raw.shape == (16, 3)
    assert raw.flags.c_contiguous and raw.flags.writeable


# --------------------------------------------------------------------- step


def test_step_frozen_system():
    st = ref_state()
    params = ws.make_agents(2, 1.0, REF_WEALTH)
    out = ws.step(st, params, REF_EPSILON)
    assert np.array_equal(out.wealth, st.wealth)
    assert out.transaction_index == 1


def test_step_full_redistribution():
    st = ref_state()
    params = ws.make_agents(2, 0.0, REF_WEALTH)
    eps = np.array([0.3, 0.7])
    out = ws.step(st, params, eps)
    total = 1000.0 + 2000.0
    np.testing.assert_allclose(out.wealth, eps * total, rtol=1e-15)


def test_step_reference_case():
    # Independent one-step evaluation in plain scalar arithmetic.
    pool = (1.0 - 0.95) * 1000.0 + (1.0 - 0.8) * 2000.0
    expected = [0.95 * 1000.0 + 0.51 * pool, 0.8 * 2000.0 + 0.49 * pool]
    out = ws.step(ref_state(), ref_params(), REF_EPSILON)
    np.testing.assert_allclose(out.wealth, expected, rtol=1e-14)
    np.testing.assert_allclose(out.wealth, [1179.5, 1820.5], rtol=1e-12)
    np.testing.assert_allclose(pool, 450.0, rtol=1e-12)


def test_step_conserves_and_stays_nonnegative():
    rng = ws.make_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 20))
        params = ws.make_agents(n, rng.random(n), rng.random(n) * 100.0)
        st = ws.WealthState(0, np.array([p.initial_wealth for p in params]))
        eps = ws.normalize_epsilon(rng.random(n) + 1e-12)
        out = ws.step(st, params, eps)
        assert out.wealth.min() >= 0.0
        total = st.wealth.sum()
        if total > 0:
            assert abs(out.wealth.sum() - total) / total <= ws.CONSERVATION_RTOL


def test_step_refuses_shares_that_break_conservation():
    # 1e-8 of surplus share mints 5e-9 of the total at lam 0.5
    params = ws.make_agents(2, 0.5, REF_WEALTH)
    with pytest.raises(ws.ConservationError, match="single step"):
        ws.step(ref_state(), params, np.array([0.5, 0.5 + 1e-8]))


def test_an_overflowing_total_is_refused_by_step_run_and_closed_form():
    # 1e308 + 1e308 overflows; every entry point refuses it before stepping.
    params = ws.make_agents(2, 0.5, [1e308, 1e308])
    for run in (lambda: ws.step(ws.WealthState(0, [1e308, 1e308]), params, [0.5, 0.5]),
                lambda: ws.run_trajectory(params, ws.UniformBackground(), 5, 1),
                lambda: ws.TwoEconomyParams(0.5, 0.5, 0.5, 1e308, 1e308)):
        with pytest.raises(ws.ParameterError, match="^total wealth must be finite"):
            run()


def test_step_length_mismatch():
    with pytest.raises(ws.ParameterError):
        ws.step(ref_state(), ws.make_agents(3, 0.5, 1.0), REF_EPSILON)
    with pytest.raises(ws.ParameterError):
        ws.step(ref_state(), ref_params(), np.array([1.0]))


# ------------------------------------------------------------ pairwise delta


def test_pairwise_delta_diagonal_and_frozen():
    st, params = ref_state(), ref_params()
    assert ws.pairwise_delta(st, params, REF_EPSILON, 0, 0) == 0.0
    frozen = ws.make_agents(2, 1.0, REF_WEALTH)
    assert ws.pairwise_delta(st, frozen, REF_EPSILON, 0, 1) == 0.0


def test_pairwise_delta_reference_case():
    out = ws.pairwise_delta(ref_state(), ref_params(), REF_EPSILON, 0, 1)
    expected = 0.49 * 0.05 * 1000.0 - 0.51 * 0.2 * 2000.0  # 24.5 - 204
    np.testing.assert_allclose(out, expected, rtol=1e-12)
    np.testing.assert_allclose(out, -179.5, rtol=1e-12)


def test_pairwise_delta_antisymmetry():
    rng = ws.make_rng(31337)
    for _ in range(1000):
        n = int(rng.integers(2, 15))
        params = ws.make_agents(n, rng.random(n), rng.random(n) * 50.0)
        st = ws.WealthState(0, np.array([p.initial_wealth for p in params]))
        eps = ws.normalize_epsilon(rng.random(n) + 1e-12)
        a, b = rng.integers(0, n, size=2)
        d_ab = ws.pairwise_delta(st, params, eps, int(a), int(b))
        d_ba = ws.pairwise_delta(st, params, eps, int(b), int(a))
        assert d_ab == -d_ba


def test_pairwise_delta_matches_two_agent_step():
    # For two agents the step changes a's wealth by exactly delta(b, a).
    rng = ws.make_rng(2718)
    for _ in range(1000):
        params = ws.make_agents(2, rng.random(2), rng.random(2) * 100.0 + 1.0)
        st = ws.WealthState(0, np.array([p.initial_wealth for p in params]))
        eps = ws.normalize_epsilon(rng.random(2) + 1e-12)
        after = ws.step(st, params, eps)
        gain = after.wealth[0] - st.wealth[0]
        np.testing.assert_allclose(
            ws.pairwise_delta(st, params, eps, 1, 0), gain, rtol=1e-9, atol=1e-9
        )


def test_pairwise_delta_index_errors():
    with pytest.raises(ws.ParameterError):
        ws.pairwise_delta(ref_state(), ref_params(), REF_EPSILON, 0, 2)
    with pytest.raises(ws.ParameterError):
        ws.pairwise_delta(ref_state(), ref_params(), REF_EPSILON, -1, 0)
    for a in (True, 0.0, "0"):
        with pytest.raises(ws.ParameterError, match="integer"):
            ws.pairwise_delta(ref_state(), ref_params(), REF_EPSILON, a, 1)


# ---------------------------------------------------------------- trajectory


def test_trajectory_frozen_at_lambda_one():
    params = ws.make_agents(5, 1.0, [1.0, 2.0, 3.0, 4.0, 5.0])
    traj = ws.run_trajectory(params, ws.UniformBackground(), 500, 4, record_every=100)
    for st in traj:
        assert np.array_equal(st.wealth, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_trajectory_reproducible():
    params = ws.make_agents(10, 0.7, 10.0)
    a = ws.run_trajectory(params, ws.GaussianBackground(), 300, 123, record_every=10)
    b = ws.run_trajectory(params, ws.GaussianBackground(), 300, 123, record_every=10)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.transaction_index == sb.transaction_index
        assert np.array_equal(sa.wealth, sb.wealth)
    c = ws.run_trajectory(params, ws.GaussianBackground(), 300, 124, record_every=10)
    assert not np.array_equal(a.final.wealth, c.final.wealth)


def test_trajectory_recording_cadence(monkeypatch):
    params = ws.make_agents(3, 0.5, 1.0)
    traj = ws.run_trajectory(params, ws.UniformBackground(), 25, 8, record_every=10)
    assert [st.transaction_index for st in traj] == [0, 10, 20, 25]
    assert traj.indices.dtype == np.int64
    assert traj.indices.tolist() == [0, 10, 20, 25]
    assert traj.wealth.shape == (4, 3)
    for r in range(len(traj)):
        assert np.array_equal(traj.wealth[r], traj[r].wealth)
    traj = ws.run_trajectory(params, ws.UniformBackground(), 20, 8, record_every=10)
    assert [st.transaction_index for st in traj] == [0, 10, 20]
    # At n = 1000 a sampling block is 65 rows, or 32 at a 256 KiB budget:
    # there cadence 40 leaves the first block with no record.  Each block's
    # records are one view of its cadence rows; at both cadences the final
    # record is off cadence and is taken from the state after the last block.
    # Both one lam and per-agent lam record this way.
    for lam in (0.5, np.linspace(0.1, 0.9, 1000)):
        wide = ws.make_agents(1000, lam, 1.0)
        for budget in (512 * 1024, 256 * 1024):
            monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
            every = ws.run_trajectory(wide, ws.UniformBackground(), 100, 8, record_every=1)
            for cadence in (40, 7):
                traj = ws.run_trajectory(wide, ws.UniformBackground(), 100, 8,
                                         record_every=cadence)
                assert traj.indices.tolist() == [*range(0, 100, cadence), 100]
                assert np.array_equal(traj.wealth, every.wealth[traj.indices])
    monkeypatch.undo()
    # None is the default cadence max(1, transactions // 10_000): 2 at 25,000.
    default, two = (
        ws.run_trajectory(params, ws.UniformBackground(), 25_000, 8, record_every=cadence)
        for cadence in (None, 2)
    )
    assert np.array_equal(default.indices, two.indices)
    assert np.array_equal(default.wealth, two.wealth)
    default, two = (
        ws.variance_trajectory(params, ws.UniformBackground(), 25_000, 8, cadence)
        for cadence in (None, 2)
    )
    assert np.array_equal(default[0], two[0])
    assert np.array_equal(default[1], two[1])


def test_trajectory_matches_repeated_step():
    # The engine's per-agent step is step()'s dot and sum, so they agree bit for bit.
    params = ref_params()
    bg = ws.ConstantBackground(REF_EPSILON)
    traj = ws.run_trajectory(params, bg, 50, 0, record_every=1)
    st = ws.WealthState(0, np.array(REF_WEALTH))
    for recorded in list(traj)[1:]:
        st = ws.step(st, params, REF_EPSILON)
        assert np.array_equal(recorded.wealth, st.wealth)
        assert recorded.transaction_index == st.transaction_index


def test_trajectory_conserves_under_noise():
    params = ws.make_agents(20, np.linspace(0.0, 0.99, 20), 50.0)
    for bg in (ws.UniformBackground(), ws.GaussianBackground()):
        traj = ws.run_trajectory(params, bg, 2000, 5, record_every=500)
        assert traj.max_conservation_drift <= ws.CONSERVATION_RTOL
        total = traj.total_wealth
        for st in traj:
            assert abs(st.wealth.sum() - total) / total <= ws.CONSERVATION_RTOL
            assert st.wealth.min() >= 0.0


def test_trajectory_parameter_errors():
    params = ws.make_agents(2, 0.5, 1.0)
    with pytest.raises(ws.ParameterError):
        ws.run_trajectory(params, ws.UniformBackground(), 0, 1)
    with pytest.raises(ws.ParameterError):
        ws.run_trajectory(params, ws.UniformBackground(), 10, 1, record_every=0)
    with pytest.raises(ws.ParameterError):
        ws.run_trajectory(params, ws.ConstantBackground(np.array([1.0])), 10, 1)


def test_negative_wealth_raises_under_optimize():
    # The invariant checks must not be asserts: python -O strips those.
    script = """
import numpy as np
from wealthsim import (ClosedFormSolution, ConservationError, ConstantBackground, WealthState,
                       evaluate, evaluate_series, make_agents, step)
from wealthsim.core import _evolve
try:
    _evolve(np.array([1.5, 0.0]), np.array([100.0, 0.0]),
            ConstantBackground(np.array([0.5, 0.5])), transactions=10, seed=0, replicas=1,
            record_every=1, reduce=lambda s: s[:, 0])
except ConservationError:
    pass
else:
    raise SystemExit("negative wealth went unnoticed")
for drifting in (lambda: evaluate(ClosedFormSolution(1.0, 1.0, 0.5, 1.0, 1.0), 1),
                 lambda: evaluate_series(ClosedFormSolution(1.0, 1.0, 0.5, 1.0, 1.0), 3),
                 lambda: step(WealthState(0, np.array([1.0, 2.0])), make_agents(2, 0.5, 1.0),
                              np.array([0.5, 0.5 + 1e-8]))):
    try:
        drifting()
    except ConservationError:
        pass
    else:
        raise SystemExit("drift went unnoticed")
"""
    src = str(Path(ws.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


class _TurnsNegativeBackground(ws.NoiseBackground):
    """Uniform shares for the first sampling block, then a negative share per row."""

    def __init__(self):
        self.calls = 0

    def shares(self, count, n, rng):
        self.calls += 1
        if self.calls == 1:
            return ws.UniformBackground().shares(count, n, rng)
        return np.tile([2.0, -1.0], (count, 1))


def test_negative_wealth_is_caught_at_the_end_of_a_later_block():
    bg = _TurnsNegativeBackground()
    with pytest.raises(ws.ConservationError, match="negative"):
        _evolve(np.array([0.5, 0.5]), np.array([50.0, 50.0]), bg, transactions=30_000,
                seed=0, replicas=1, record_every=1, reduce=lambda s: s[:, 0])
    assert bg.calls == 2  # the first block passed its checks


class _MintingBackground(ws.NoiseBackground):
    """Uniform shares for the first sampling block, then rows summing to 1 + 1e-8."""

    def __init__(self):
        self.counts = []

    def shares(self, count, n, rng):
        self.counts.append(count)
        if len(self.counts) == 1:
            return ws.UniformBackground().shares(count, n, rng)
        return np.tile([0.5, 0.5 + 1e-8], (count, 1))


def test_drift_is_caught_at_its_first_transaction_in_a_later_block():
    bg = _MintingBackground()
    with pytest.raises(ws.ConservationError, match="drifted") as info:
        _evolve(np.array([0.5, 0.5]), np.array([50.0, 50.0]), bg, transactions=30_000,
                seed=0, replicas=1, record_every=1, reduce=lambda s: s[:, 0])
    assert len(bg.counts) == 2  # the first block passed its checks
    assert str(info.value).endswith(f"at transaction {bg.counts[0] + 1}")


def _conservation_verdicts(x0, y0):
    # One transaction at lam 0.5 and shares (0.5, 0.5) through each route that
    # checks the total; True where the route accepts it.
    params = ws.make_agents(2, 0.5, [x0, y0])
    shares = ws.ConstantBackground([0.5, 0.5])
    sol = ws.closed_form(ws.TwoEconomyParams(0.5, 0.5, 0.5, x0, y0))
    routes = {
        "run_trajectory": lambda: ws.run_trajectory(params, shares, 1, 0),
        "step": lambda: ws.step(ws.WealthState(0, np.array([x0, y0])), params, shares.epsilon),
        "evaluate": lambda: ws.evaluate(sol, 1),
        "evaluate_series": lambda: ws.evaluate_series(sol, 1),
    }
    verdicts = {}
    for name, route in routes.items():
        try:
            route()
            verdicts[name] = True
        except ws.ConservationError:
            verdicts[name] = False
    return verdicts


# Totals whose reciprocal overflows (1e-310) or is inf (1e-320) are as
# conserved as any other; a zero total drifts by nothing.
@pytest.mark.parametrize("x0, y0", [(1e-310, 0.0), (1e-320, 0.0), (0.0, 0.0), (1000.0, 2000.0),
                                    (1e300, 1e300)])
def test_every_route_gives_one_conservation_verdict(x0, y0):
    assert _conservation_verdicts(x0, y0) == dict.fromkeys(
        ["run_trajectory", "step", "evaluate", "evaluate_series"], True)
    traj = ws.run_trajectory(ws.make_agents(2, 0.5, [x0, y0]), ws.UniformBackground(), 100, 1)
    assert traj.max_conservation_drift <= ws.CONSERVATION_RTOL


def test_a_step_that_rounds_away_one_ulp_is_refused():
    # Half of the smallest subnormal rounds to zero, so the step loses all of
    # the wealth; the closed form keeps that half ulp and is not refused.
    verdicts = _conservation_verdicts(5e-324, 0.0)
    assert not verdicts["run_trajectory"] and not verdicts["step"]
    with pytest.raises(ws.ConservationError, match="drifted by 1.000e[+]00 at transaction 1$"):
        ws.run_trajectory(ws.make_agents(2, 0.5, [5e-324, 0.0]), ws.UniformBackground(), 100, 1)


# ------------------------------------------------------------------ plumbing


def test_agent_params_validation():
    with pytest.raises(ws.ParameterError):
        ws.AgentParams(lam=1.5, initial_wealth=1.0)
    with pytest.raises(ws.ParameterError):
        ws.AgentParams(lam=-0.1, initial_wealth=1.0)
    with pytest.raises(ws.ParameterError):
        ws.AgentParams(lam=0.5, initial_wealth=-1.0)
    with pytest.raises(ws.ParameterError):
        ws.make_agents(3, [0.5, 0.5], 1.0)
    # numpy reals pass and are stored as Python floats
    agents = ws.make_agents(np.int64(100), ws.make_rng(1001).random(100), np.int64(7))
    assert all(type(a.lam) is float and type(a.initial_wealth) is float for a in agents)
    assert agents[0].initial_wealth == 7.0
    assert ws.AgentParams(np.float32(0.5), 3) == ws.AgentParams(0.5, 3.0)


# Neither a numpy Generator nor a list or tuple of them.
_NOT_RNGS = (None, 7, np.random.RandomState(1))

# Not a NoiseBackground instance.
_NOT_BACKGROUNDS = (None, "gaussian", {"kind": "uniform"}, ws.UniformBackground)


@pytest.mark.parametrize(
    "func, args",
    [
        (ws.make_agents, (2, True, [True, 5])),
        (ws.make_agents, (2, "0.5", 1.0)),
        (ws.make_agents, (2, None, 1.0)),
        (ws.make_agents, (2, 0.5, [1.0, None])),
        (ws.make_agents, (2.0, 0.5, 1.0)),
        (ws.AgentParams, ("0.5", 1.0)),
        (ws.TwoEconomyParams, (True, 0.8, False, 1000, 2000)),
        (ws.TwoEconomyParams, (0.95, 0.8, 0.5, "1000", 2000)),
        (ws.GaussianBackground, ("0.5",)),
        (ws.GaussianBackground, (0.5, None)),
        (ws.background_from_dict, ("gaussian",)),
        (ws.background_from_dict, (None,)),
        (ws.run_trajectory, (ref_params(), ws.UniformBackground(), 5, 1, 2.5)),
        (ws.run_trajectory, (ref_params(), ws.UniformBackground(), 5, 1, True)),
        (ws.run_trajectory, (ref_params(), ws.UniformBackground(), 10.5, 1)),
        (ws.variance_trajectory, (ref_params(), ws.UniformBackground(), 5, 1, 1, 2.5)),
        (ws.compare_backgrounds, (ref_params(), 5.0, 2, 1)),
        (ws.concordance, (ws.TwoEconomyParams(0.95, 0.8, 0.5, 1000, 2000),
                          ws.UniformBackground(), 1.5, 5, 1)),
        (ws.UniformBackground().mean_share, (2.0,)),
        # numbers must be finite, integers too large for a float included
        (ws.make_agents, (2, 0.5, 10**400)),
        (ws.TwoEconomyParams, (0.95, 0.8, 0.5, 10**400, 1)),
        (ws.detect_equilibrium, ([(0, 1.0), (1, 1.0)], 2, True)),
        (ws.detect_equilibrium, ([(0, 1.0), (1, 1.0)], 2, math.inf)),
        (ws.build_histogram, ([1.0, 2.0], 2, (True, 5))),
        (ws.build_histogram, ([1.0, 2.0], 2, (0, math.inf))),
        (ws.GaussianBackground, (0.5, math.inf)),
        # Python refuses to print an integer of more than 4300 digits
        (ws.make_rng, (10**5000,)),
        # array arguments follow the scalar rule entry by entry
        (ws.WealthState, (0, ["x"])),
        (ws.normalize_epsilon, (["x"],)),
        (ws.build_histogram, (["x"], 2)),
        (ws.gamma_fit_moments, (["x", "y"],)),
        (ws.detect_equilibrium, ([("a", 1.0)], 2)),
        (ws.build_histogram, ([1.0, 2.0], 2, (0,))),
        (ws.build_histogram, ([1.0, 2.0], 2, 5)),
        (ws.make_agents, (2, 0.5, object())),
        (ws.step, (ref_state(), ref_params(), 5.0)),
        (ws.pairwise_delta, (ref_state(), ref_params(), None, 0, 1)),
        (ws.WealthState, (0, np.array([True, False]))),
        (ws.build_histogram, (np.array([True, False]), 2)),
        (ws.normalize_epsilon, (np.array([True, False]),)),
        (ws.detect_equilibrium, ([(0, 1.0), (1, math.nan)], 2)),
        (ws.Histogram, ([0, 1, 2], [1.5, 2])),
        (ws.Histogram, ([0, 1, 2], [True, False])),
        (ws.Histogram, ([0, 1, 2], ["a", "b"])),
        # ragged nestings and counts of the wrong shape
        (ws.make_agents, (2, [np.zeros((2, 2)), np.zeros((2, 3))], 1.0)),
        (ws.Histogram, ([0, 1, 2], [np.zeros((2, 2)), np.zeros((2, 3))])),
        (ws.Histogram, ([0, 1], 5)),
        (ws.Histogram, ([0, 1, 2], [[1], [2]])),
        # a mean share is for a whole number of agents
        (ws.UniformBackground().mean_share, (0,)),
        (ws.UniformBackground().mean_share, (-1,)),
        (ws.UniformBackground().mean_share, (2.5,)),
        (ws.UniformBackground().mean_share, (True,)),
        (ws.ConstantBackground([1.0]).mean_share, (True,)),
        # a sampling call checks its count, n and rng before it draws; the
        # constant background checked n against its share count already
        *[(sample, (count, n, rng))
          for bg in (ws.UniformBackground(), ws.GaussianBackground(),
                     ws.ConstantBackground([0.5, 0.5]))
          for sample in (bg.sample_raw, bg.shares)
          for count, n, rng in [(c, 2, ws.make_rng(0)) for c in (0, -1, True, 2.0)]
          + [(2, v, ws.make_rng(0)) for v in (0, True) if bg.kind != "constant"]
          + [(2, 2, r) for r in _NOT_RNGS]],
        *[(ws.sample_epsilon_matrix, (ws.UniformBackground(), 2, 2, r)) for r in _NOT_RNGS],
        # a run refuses what is not a background; compare_backgrounds takes
        # None for its default arm
        *[(run, args)
          for bad in _NOT_BACKGROUNDS
          for run, args in (
              (ws.run_trajectory, (ref_params(), bad, 5, 1)),
              (ws.variance_trajectory, (ref_params(), bad, 5, 1, 1)),
              (ws.concordance, (ws.TwoEconomyParams(0.95, 0.8, 0.5, 1000, 2000), bad, 2, 5, 1)),
              (ws.sample_epsilon_matrix, (bad, 2, 2, ws.make_rng(0))),
          )],
        *[(lambda *a, bad=bad: ws.compare_backgrounds(*a, background_a=bad),
           (ref_params(), 5, 2, 1)) for bad in _NOT_BACKGROUNDS[1:]],
        # vectors of the wrong shape, too few or unordered bin edges, and a
        # variance series that is not (index, value) pairs
        (ws.WealthState, (0, [])),
        (ws.WealthState, (0, [[1.0]])),
        (ws.validate_epsilon, ([],)),
        (ws.validate_epsilon, ([[1.0]],)),
        (ws.normalize_epsilon, ([],)),
        (ws.pairwise_delta, (ref_state(), ref_params(), [1.0], 0, 1)),
        (ws.Histogram, ([0.0], [])),
        (ws.Histogram, ([0.0, 0.0, 1.0], [1, 1])),
        (ws.detect_equilibrium, ([1.0, 2.0], 2)),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_library_refuses_mistyped_values(func, args):
    with pytest.raises(ws.ParameterError):
        func(*args)


def _histogram(samples):
    hist = ws.build_histogram(samples, 2)
    return np.concatenate((hist.bin_edges, hist.counts))


def _gamma(samples):
    fit = ws.gamma_fit_moments(samples)
    return np.array([fit.shape, fit.scale, fit.sample_mean, fit.sample_variance])


@pytest.mark.parametrize(
    "func, valid, bad",
    [
        (ws.validate_epsilon, [0.25, 0.75], [[math.nan, 1.0], [math.inf, 0.0], [1.5, -0.5]]),
        (lambda v: ws.WealthState(0, v).wealth, [1.0, 2.0],
         [[math.nan, 1.0], [math.inf, 1.0], [-1.0, 2.0]]),
        (_histogram, [1.0, 2.0, 4.0], [[math.nan, 1.0], [1.0, -math.inf]]),
        (_gamma, [1.0, 2.0, 4.0], [[math.nan, 1.0], [1.0, math.inf], [-1.0, 2.0]]),
    ],
    ids=["validate_epsilon", "WealthState", "build_histogram", "gamma_fit_moments"],
)
def test_list_and_ndarray_entries_are_one_contract(func, valid, bad):
    assert np.array_equal(func(valid), func(np.array(valid)))
    for entries in bad:
        messages = []
        for values in (entries, np.array(entries)):
            with pytest.raises(ws.ParameterError) as info:
                func(values)
            messages.append(str(info.value).split(", got")[0])
        assert messages[0] == messages[1]


def test_wealth_state_keeps_its_own_copy():
    wealth = np.array([1.0, 2.0])
    state = ws.WealthState(0, wealth)
    wealth[0] = 5.0
    assert np.array_equal(state.wealth, [1.0, 2.0])


def _solution():
    return ws.closed_form(ws.TwoEconomyParams(0.95, 0.8, 0.51, 1000, 2000))


def _delta(a, b):
    return ws.pairwise_delta(ws.WealthState(0, np.array([1.0, 2.0])), ref_params(), [0.5, 0.5],
                             a, b)


_BELOW_0 = np.nextafter(0.0, -1.0)
_ABOVE_1 = np.nextafter(1.0, 2.0)


@pytest.mark.parametrize(
    "build, bound, past",
    [
        pytest.param(lambda v: ws.AgentParams(v, 1.0), 0.0, _BELOW_0, id="lam-0"),
        pytest.param(lambda v: ws.AgentParams(v, 1.0), 1.0, _ABOVE_1, id="lam-1"),
        pytest.param(lambda v: ws.AgentParams(0.5, v), 0.0, _BELOW_0, id="wealth-0"),
        pytest.param(lambda v: ws.validate_epsilon([v, 0.0]), 1.0, _ABOVE_1, id="share-1"),
        pytest.param(lambda v: ws.validate_epsilon([1.0, v]), 0.0, _BELOW_0, id="share-0"),
        pytest.param(lambda v: ws.TwoEconomyParams(0.9, 0.8, v, 1.0, 2.0), 1.0, _ABOVE_1,
                     id="epsilon-1"),
        pytest.param(lambda v: ws.TwoEconomyParams(0.9, 0.8, 0.5, v, 2.0), 0.0, _BELOW_0,
                     id="x0-0"),
        pytest.param(lambda v: ws.make_agents(v, 0.5, 1.0), 1, 0, id="agents-1"),
        pytest.param(lambda v: ws.build_histogram([1.0, 2.0], v), 1, 0, id="bins-1"),
        pytest.param(lambda v: ws.detect_equilibrium([(0, 1.0), (1, 1.0)], v), 2, 1,
                     id="window-2"),
        pytest.param(lambda v: ws.evaluate(_solution(), v), 0, -1, id="m-0"),
        pytest.param(lambda v: ws.evaluate_series(_solution(), v), 0, -1, id="m_max-0"),
        pytest.param(ws.make_rng, 0, -1, id="seed-0"),
        pytest.param(ws.make_rng, ws.MAX_SEED, ws.MAX_SEED + 1, id="seed-max"),
        pytest.param(lambda v: ws.WealthState(v, np.array([1.0])), 0, -1, id="index-0"),
        pytest.param(lambda v: _delta(0, v), 1, 2, id="agent-index-n-1"),
        pytest.param(lambda v: _delta(v, 1), 0, -1, id="agent-index-0"),
        pytest.param(lambda v: ws.sample_epsilon_matrix(ws.UniformBackground(), v, 2,
                                                        ws.make_rng(0)), 1, 0, id="count-1"),
        pytest.param(ws.UniformBackground().mean_share, 1, 0, id="n-1"),
        pytest.param(lambda v: ws.run_trajectory(ref_params(), ws.UniformBackground(), v, 0),
                     1, 0, id="transactions-1"),
        pytest.param(lambda v: ws.run_trajectory(ref_params(), ws.UniformBackground(), 3, 0, v),
                     1, 0, id="record_every-1"),
        pytest.param(lambda v: ws.variance_trajectory(ref_params(), ws.UniformBackground(), 3,
                                                      0, 1, v), 1, 0, id="replicas-1"),
    ],
)
def test_entry_points_take_their_inclusive_bound(build, bound, past):
    build(bound)
    with pytest.raises(ws.ParameterError, match=r"must be (>=|in \[)"):
        build(past)


def test_wealth_state_validation():
    with pytest.raises(ws.ParameterError):
        ws.WealthState(0, np.array([-1.0, 2.0]))
    with pytest.raises(ws.ParameterError):
        ws.WealthState(-1, np.array([1.0]))
    for index in (1.5, 1.0, True, None):
        with pytest.raises(ws.ParameterError, match="integer"):
            ws.WealthState(index, np.array([1.0]))
    assert type(ws.WealthState(np.int64(3), np.array([1.0])).transaction_index) is int


def test_seed_validation():
    with pytest.raises(ws.ParameterError):
        ws.make_rng(-1)
    with pytest.raises(ws.ParameterError):
        ws.make_rng(2**64)
    ws.make_rng(2**64 - 1)
    for seed in (1.5, 1.0, True, np.bool_(False), "7", None):
        with pytest.raises(ws.ParameterError, match="integer"):
            ws.make_rng(seed)
    with pytest.raises(ws.ParameterError, match="integer"):
        ws.run_trajectory(ref_params(), ws.UniformBackground(), 3, 1.5)
    first = ws.make_rng(7).random(4)
    for seed in (np.int64(7), np.uint64(7)):
        assert np.array_equal(ws.make_rng(seed).random(4), first)
    # Replica seeds wrap past 2**64 - 1 for numpy integers as for Python ints.
    def rows(seed):
        lam, wealth = np.array([0.9, 0.5]), np.array([1.0, 2.0])
        return _evolve(lam, wealth, ws.UniformBackground(), 5, seed, 2, 1, lambda s: s.copy())[1]

    for seed, as_numpy in ((ws.MAX_SEED, np.uint64), (7, np.int64)):
        assert np.array_equal(rows(as_numpy(seed)), rows(seed))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(
        st.integers(0, ws.MAX_SEED),
        st.integers(2**32 - 40, 2**32 - 1),  # replica seeds that cross into two 32-bit words
        st.integers(ws.MAX_SEED - 39, ws.MAX_SEED),  # and that wrap past 2**64 - 1
    ),
    count=st.integers(1, 40),
)
@example(seed=0, count=1)
@example(seed=2**32 - 1, count=2)
@example(seed=2**32, count=1)
@example(seed=2**63, count=3)
@example(seed=ws.MAX_SEED, count=2)
def test_batched_seeding_is_numpys_pcg64(seed, count):
    # Each of the copies of a run's generators starts in the state numpy's own
    # PCG64 takes at (seed + k) mod 2**64, and so does make_rng at that seed.
    copies = core._seeded(seed, count, 2)
    assert copies[0][0] is not copies[1][0]
    for rngs in copies:
        assert len(rngs) == count
        for k, rng in enumerate(rngs):
            assert rng.bit_generator.state == _numpy_rng(seed + k).bit_generator.state
    assert ws.make_rng(seed).bit_generator.state == _numpy_rng(seed).bit_generator.state


def test_replica_count_is_bounded_by_the_state_array():
    # A replica count whose (arms * replicas, n) float64 state outgrows any
    # array is refused before a generator is seeded; no count near the bound runs.
    lam, wealth, bg = np.array([0.5, 0.5]), np.array([1.0, 2.0]), ws.UniformBackground()
    bound = core._MAX_ARRAY_BYTES // (8 * 2 * 2)
    for replicas in (bound + 1, 10**19):
        with pytest.raises(ws.ParameterError, match=rf"replicas must be in \[1, {bound}\]"):
            _evolve(lam, wealth, (bg, bg), 1, 0, replicas, 1, lambda s: s.copy())
    with pytest.raises(ws.ParameterError, match=r"replicas must be in \[1, "):
        ws.variance_trajectory(ref_params(), bg, 1, 0, 1, replicas=2**62)


def test_transaction_count_is_bounded_by_int64():
    # A count past 2**63 - 1 is refused before any stepping, whatever the
    # cadence; the largest count passes its own check and meets the record bound.
    params, bg = ref_params(), ws.UniformBackground()
    for transactions in (2**63, 10**19):
        with pytest.raises(ws.ParameterError, match=r"transactions must be in \[1, "):
            ws.run_trajectory(params, bg, transactions, 0, 10**18)
    with pytest.raises(ws.ParameterError, match="record count"):
        ws.run_trajectory(params, bg, 2**63 - 1, 0, 1)
    assert ws.run_trajectory(params, bg, 25, 0, 10).indices.dtype == np.int64
