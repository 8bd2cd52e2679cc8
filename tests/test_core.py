"""Exchange law, share normalization, and noise backgrounds."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wealthsim as ws


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
    out = ws.sample_background(bg, 2, rng)
    assert np.array_equal(out, REF_EPSILON)


def test_constant_background_rejects_non_simplex():
    with pytest.raises(ws.ParameterError):
        ws.ConstantBackground(np.array([0.6, 0.6]))
    with pytest.raises(ws.ParameterError):
        ws.ConstantBackground(np.array([-0.1, 1.1]))


def test_gaussian_moments_and_truncation():
    rng = ws.make_rng(123)
    u = ws.sample_background(ws.GaussianBackground(), 10**6, rng)
    assert abs(u.mean() - 0.5) < 0.001
    assert abs(u.std() - 1.0 / 12.0) < 0.002
    assert u.min() >= 0.0 and u.max() <= 1.0


def test_uniform_moments():
    rng = ws.make_rng(456)
    u = ws.sample_background(ws.UniformBackground(), 10**6, rng)
    assert abs(u.mean() - 0.5) < 0.001
    assert abs(u.var() - 1.0 / 12.0) < 0.001
    assert u.min() >= 0.0 and u.max() <= 1.0


def test_background_parameter_errors():
    with pytest.raises(ws.ParameterError):
        ws.GaussianBackground(sigma=0.0)
    with pytest.raises(ws.ParameterError):
        ws.GaussianBackground(sigma=-1.0)
    with pytest.raises(ws.ParameterError):
        ws.sample_background(ws.UniformBackground(), 0, ws.make_rng(0))
    # hopeless truncation: nearly all mass outside [0, 1]
    with pytest.raises(ws.ParameterError):
        ws.GaussianBackground(mean=50.0, sigma=0.001)


def test_background_round_trip():
    for bg in (
        ws.UniformBackground(),
        ws.GaussianBackground(0.4, 0.1),
        ws.ConstantBackground(np.array([0.3, 0.7])),
    ):
        rebuilt = ws.background_from_dict(bg.to_dict())
        assert type(rebuilt) is type(bg)
        assert rebuilt.to_dict() == bg.to_dict()
    with pytest.raises(ws.ParameterError):
        ws.background_from_dict({"kind": "pareto"})
    with pytest.raises(ws.ParameterError):
        ws.background_from_dict({"kind": "uniform", "mean": 0.5})


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


def test_trajectory_recording_cadence():
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


def test_trajectory_matches_repeated_step():
    # The fast loop and the single-step operation share one kernel.
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
from wealthsim import ClosedFormSolution, ConservationError, ConstantBackground, evaluate
from wealthsim.core import _evolve
try:
    _evolve(np.array([1.5, 0.0]), np.array([100.0, 0.0]),
            ConstantBackground(np.array([0.5, 0.5])), transactions=10, seed=0, replicas=1,
            record_every=1, on_record=lambda i, x: None)
except ConservationError:
    pass
else:
    raise SystemExit("negative wealth went unnoticed")
try:
    evaluate(ClosedFormSolution(1.0, 1.0, 0.5, 1.0, 1.0), 1)
except ConservationError:
    pass
else:
    raise SystemExit("closed-form drift went unnoticed")
"""
    src = str(Path(ws.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


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


def test_wealth_state_validation():
    with pytest.raises(ws.ParameterError):
        ws.WealthState(0, np.array([-1.0, 2.0]))
    with pytest.raises(ws.ParameterError):
        ws.WealthState(-1, np.array([1.0]))


def test_seed_validation():
    with pytest.raises(ws.ParameterError):
        ws.make_rng(-1)
    with pytest.raises(ws.ParameterError):
        ws.make_rng(2**64)
    ws.make_rng(2**64 - 1)
