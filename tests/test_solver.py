"""Two-economy deterministic solution: matrix, roots, fixed point, concordance."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wealthsim as ws
from wealthsim import solver


REF = ws.TwoEconomyParams(0.95, 0.8, 0.51, 1000.0, 2000.0)
REF_FIXED_X = 2418.9723320158096
REF_FIXED_Y = 581.0276679841904


def random_params(rng):
    return ws.TwoEconomyParams(
        float(rng.random()),
        float(rng.random()),
        float(rng.random()),
        float(rng.random() * 1000.0),
        float(rng.random() * 1000.0),
    )


# -------------------------------------------------------------- system matrix


def test_matrix_frozen_system_is_identity():
    p = ws.TwoEconomyParams(1.0, 1.0, 0.3, 10.0, 20.0)
    assert np.array_equal(ws.system_matrix(p), np.eye(2))


def test_matrix_total_absorption():
    p = ws.TwoEconomyParams(0.0, 0.0, 1.0, 10.0, 20.0)
    assert np.array_equal(ws.system_matrix(p), np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_matrix_reference_case():
    m = ws.system_matrix(REF)
    np.testing.assert_allclose(
        m, np.array([[0.9755, 0.102], [0.0245, 0.898]]), rtol=1e-12
    )
    np.testing.assert_allclose(m.sum(axis=0), [1.0, 1.0], atol=1e-15)


def test_matrix_columns_stochastic():
    rng = ws.make_rng(10)
    for _ in range(1000):
        m = ws.system_matrix(random_params(rng))
        np.testing.assert_allclose(m.sum(axis=0), [1.0, 1.0], atol=1e-12)
        assert m.min() >= 0.0


# --------------------------------------------------------------------- roots


def test_roots_equal_propensities_exact():
    rng = ws.make_rng(11)
    for _ in range(1000):
        lam = float(rng.random())
        p = ws.TwoEconomyParams(lam, lam, float(rng.random()), 1.0, 2.0)
        roots = ws.characteristic_roots(p)
        assert roots.root_unit == 1.0
        assert roots.root_decay == lam


def test_roots_reference_case():
    roots = ws.characteristic_roots(REF)
    np.testing.assert_allclose(roots.root_decay, 0.8735, rtol=1e-12)


def test_roots_one_step_equilibration():
    p = ws.TwoEconomyParams(0.0, 0.0, 0.7, 1.0, 2.0)
    roots = ws.characteristic_roots(p)
    assert roots.root_unit == 1.0 and roots.root_decay == 0.0


def test_roots_invariants():
    rng = ws.make_rng(12)
    for _ in range(1000):
        p = random_params(rng)
        r = ws.characteristic_roots(p).root_decay
        lo, hi = min(p.lambda_x, p.lambda_y), max(p.lambda_x, p.lambda_y)
        assert lo - 1e-12 <= r <= hi + 1e-12
        if p.lambda_x < 1.0 and p.lambda_y < 1.0:
            assert r < 1.0
        m = ws.system_matrix(p)
        # decay root is trace - 1 and an eigenvalue of the update matrix
        assert abs(r - (np.trace(m) - 1.0)) <= 1e-12
        assert np.abs(np.linalg.eigvals(m) - r).min() <= 1e-12
        # z = 1 kills the characteristic polynomial z^2 - tr z + det
        assert abs(1.0 - np.trace(m) + np.linalg.det(m)) <= 1e-12


# --------------------------------------------------------------- fixed point


def test_fixed_point_symmetric_split():
    p = ws.TwoEconomyParams(0.6, 0.6, 0.5, 10.0, 30.0)
    fx, fy = ws.fixed_point(p)
    np.testing.assert_allclose([fx, fy], [20.0, 20.0], rtol=1e-12)


def test_fixed_point_reference_case():
    fx, fy = ws.fixed_point(REF)
    np.testing.assert_allclose(fx, REF_FIXED_X, rtol=1e-12)
    np.testing.assert_allclose(fy, REF_FIXED_Y, rtol=1e-12)
    # independent route: solve (M - I) v = 0 with v summing to total wealth
    m = ws.system_matrix(REF)
    a = np.array([[m[0, 0] - 1.0, m[0, 1]], [1.0, 1.0]])
    ref = np.linalg.solve(a, [0.0, 3000.0])
    np.testing.assert_allclose([fx, fy], ref, rtol=1e-12)


def test_fixed_point_by_iteration():
    # 200 constant-share exchange steps land on the fixed point
    traj = ws.run_trajectory(
        ws.make_agents(2, [0.95, 0.8], [1000.0, 2000.0]),
        ws.ConstantBackground(np.array([0.51, 0.49])),
        200,
        1,
        record_every=200,
    )
    np.testing.assert_allclose(
        traj.final.wealth, [REF_FIXED_X, REF_FIXED_Y], rtol=1e-9
    )


def test_fixed_point_total_absorption():
    p = ws.TwoEconomyParams(0.3, 0.7, 1.0, 100.0, 200.0)
    fx, fy = ws.fixed_point(p)
    assert fx == 300.0 and fy == 0.0


def test_fixed_point_frozen_families():
    # no wealth is ever exchanged: every state is fixed
    for p in (
        ws.TwoEconomyParams(1.0, 1.0, 0.4, 5.0, 7.0),
        ws.TwoEconomyParams(0.5, 1.0, 1.0, 5.0, 7.0),
        ws.TwoEconomyParams(1.0, 0.5, 0.0, 5.0, 7.0),
    ):
        assert ws.fixed_point(p) == (5.0, 7.0)
        assert ws.characteristic_roots(p).root_decay == 1.0
        xs, ys = ws.evaluate_series(ws.closed_form(p), 50)
        assert np.all(xs == 5.0) and np.all(ys == 7.0)


def test_fixed_point_is_matrix_fixed_point():
    rng = ws.make_rng(13)
    for _ in range(500):
        p = random_params(rng)
        fx, fy = ws.fixed_point(p)
        v = np.array([fx, fy])
        np.testing.assert_allclose(ws.system_matrix(p) @ v, v, atol=1e-9 * (1 + v.sum()))


# --------------------------------------------------------------- closed form


def test_closed_form_invariants():
    rng = ws.make_rng(14)
    for _ in range(500):
        p = random_params(rng)
        sol = ws.closed_form(p)
        assert sol.coeff_x + sol.coeff_y == 0.0
        np.testing.assert_allclose(sol.total, p.total, rtol=1e-14)
        x0, y0 = ws.evaluate(sol, 0)
        np.testing.assert_allclose([x0, y0], [p.x0, p.y0], rtol=1e-12, atol=1e-12)


def test_closed_form_reference_trajectory():
    sol = ws.closed_form(REF)
    np.testing.assert_allclose(sol.decay_root, 0.8735, rtol=1e-12)
    np.testing.assert_allclose(sol.coeff_x, 1000.0 - REF_FIXED_X, rtol=1e-12)
    x1, y1 = ws.evaluate(sol, 1)
    np.testing.assert_allclose([x1, y1], [1179.5, 1820.5], rtol=1e-9)


def test_closed_form_matches_matrix_iteration():
    rng = ws.make_rng(15)
    for _ in range(100):
        p = random_params(rng)
        sol = ws.closed_form(p)
        m = ws.system_matrix(p)
        xs, ys = ws.evaluate_series(sol, 1000)
        v = np.array([p.x0, p.y0])
        scale = max(p.total, 1e-9)
        for step_i in range(1001):
            assert abs(xs[step_i] - v[0]) <= 1e-9 * scale
            assert abs(ys[step_i] - v[1]) <= 1e-9 * scale
            v = m @ v


def test_closed_form_matches_stochastic_run_with_constant_shares():
    sol = ws.closed_form(REF)
    traj = ws.run_trajectory(
        ws.make_agents(2, [0.95, 0.8], [1000.0, 2000.0]),
        ws.ConstantBackground(np.array([0.51, 0.49])),
        300,
        0,
        record_every=1,
    )
    xs, ys = ws.evaluate_series(sol, 300)
    for st in traj:
        m = st.transaction_index
        np.testing.assert_allclose(st.wealth, [xs[m], ys[m]], rtol=1e-9)


# ------------------------------------------------------------------ evaluate


def test_evaluate_long_horizon_reaches_fixed_point():
    sol = ws.closed_form(REF)
    x, y = ws.evaluate(sol, 500)
    w = REF.total
    assert abs(x - REF_FIXED_X) <= 1e-20 * w
    assert abs(y - REF_FIXED_Y) <= 1e-20 * w


def test_evaluate_monotone_approach():
    sol = ws.closed_form(REF)
    xs, ys = ws.evaluate_series(sol, 200)
    assert np.all(np.diff(xs) > 0.0)
    assert np.all(np.diff(ys) < 0.0)


def test_evaluate_conserves_total():
    sol = ws.closed_form(REF)
    xs, ys = ws.evaluate_series(sol, 1000)
    np.testing.assert_allclose(xs + ys, REF.total, rtol=1e-9)


def test_evaluate_rejects_negative_m():
    sol = ws.closed_form(REF)
    with pytest.raises(ws.ParameterError):
        ws.evaluate(sol, -1)
    with pytest.raises(ws.ParameterError):
        ws.evaluate_series(sol, -1)
    for m_max in (2.5, 3.0, True, "3"):
        with pytest.raises(ws.ParameterError, match="integer"):
            ws.evaluate_series(sol, m_max)
        with pytest.raises(ws.ParameterError, match="integer"):
            ws.evaluate(sol, m_max)
    assert ws.evaluate(sol, np.int64(3)) == ws.evaluate(sol, 3)
    xs, _ = ws.evaluate_series(sol, np.int64(3))
    assert xs.size == 4


_UNIT = st.floats(0.0, 1.0)
_WEALTH = st.floats(0.0, 1e6)


@settings(max_examples=300, deadline=None)
@given(_UNIT, _UNIT, _UNIT, _WEALTH, _WEALTH, st.integers(0, 300))
@example(0.95, 0.8, 0.51, 1000.0, 2000.0, 6)  # REF: scalar pow rounds x(6) apart on AVX-512
def test_evaluate_is_evaluate_series_at_its_index(lx, ly, eps, x0, y0, m):
    sol = ws.closed_form(ws.TwoEconomyParams(lx, ly, eps, x0, y0))
    xs, ys = ws.evaluate_series(sol, m)
    assert ws.evaluate(sol, m) == (xs[m], ys[m])


@pytest.mark.parametrize(
    "sol",
    [
        ws.ClosedFormSolution(1.0, 1.0, 0.5, 1.0, 1.0),  # totals 4, 3, 2.5, 2.25 against 2
        ws.ClosedFormSolution(np.nan, 1.0, 0.5, 1.0, -1.0),  # a NaN total
    ],
    ids=["drifting", "nan-total"],
)
def test_both_evaluators_refuse_a_drifting_solution(sol):
    with pytest.raises(ws.ConservationError, match="at transaction 0$"):
        ws.evaluate_series(sol, 3)
    with pytest.raises(ws.ConservationError, match="at transaction 1$"):
        ws.evaluate(sol, 1)


def test_params_validation():
    with pytest.raises(ws.ParameterError):
        ws.TwoEconomyParams(1.2, 0.5, 0.5, 1.0, 1.0)
    with pytest.raises(ws.ParameterError):
        ws.TwoEconomyParams(0.5, 0.5, -0.1, 1.0, 1.0)
    with pytest.raises(ws.ParameterError):
        ws.TwoEconomyParams(0.5, 0.5, 0.5, -1.0, 1.0)


# --------------------------------------------------------------- concordance


def test_mean_share():
    assert ws.UniformBackground().mean_share(2) == 0.5
    assert ws.GaussianBackground().mean_share(2) == 0.5
    assert ws.UniformBackground().mean_share(4) == 0.25
    bg = ws.ConstantBackground(np.array([0.51, 0.49]))
    assert bg.mean_share(2) == 0.51


def test_mean_share_monte_carlo_cross_check():
    # exchangeability argument vs a large pre-sample
    for bg, seed in ((ws.GaussianBackground(), 654), (ws.UniformBackground(), 655)):
        rng = ws.make_rng(seed)
        first = ws.sample_epsilon_matrix(bg, 10**6, 2, rng)[:, 0]
        se = first.std() / 1000.0
        assert abs(first.mean() - bg.mean_share(2)) <= 5.0 * se


def test_concordance_constant_background_is_exact():
    bg = ws.ConstantBackground(np.array([0.51, 0.49]))
    rep = ws.concordance(REF, bg, replicas=2, transactions=100, base_seed=9)
    assert rep.epsilon_det == 0.51
    assert rep.max_relative_deviation <= 1e-9


def test_concordance_gaussian_ensemble():
    rep = ws.concordance(
        REF, ws.GaussianBackground(), replicas=200, transactions=100, base_seed=31
    )
    assert rep.epsilon_det == 0.5
    assert rep.max_relative_deviation <= 0.05
    assert rep.ensemble_mean_x.shape == (101,)
    assert rep.max_conservation_drift <= ws.CONSERVATION_RTOL


def test_concordance_mean_matches_single_replica_runs():
    bg = ws.GaussianBackground()
    rep = ws.concordance(REF, bg, replicas=3, transactions=60, base_seed=17)
    r0, r1, r2 = (
        ws.concordance(REF, bg, replicas=1, transactions=60, base_seed=17 + k).ensemble_mean_x
        for k in range(3)
    )
    assert np.array_equal(rep.ensemble_mean_x, (r0 + r1 + r2) / 3)
    # 50 replicas x 1000 transactions span several sampling blocks.
    rep = ws.concordance(REF, bg, replicas=50, transactions=1000, base_seed=17)
    total = 0.0
    for k in range(50):
        total = total + ws.concordance(
            REF, bg, replicas=1, transactions=1000, base_seed=17 + k
        ).ensemble_mean_x
    assert np.array_equal(rep.transaction_indices, np.arange(1001))
    assert np.array_equal(rep.ensemble_mean_x, total / 50)


def test_concordance_rejects_zero_replicas():
    with pytest.raises(ws.ParameterError):
        ws.concordance(REF, ws.GaussianBackground(), replicas=0, transactions=10, base_seed=1)


def test_concordance_checks_its_run_before_it_solves(monkeypatch):
    # The closed form builds its series, of a million rows here, only for a run
    # that the engine accepts.
    calls = []
    monkeypatch.setattr(solver, "evaluate_series", lambda *args: calls.append(args))
    with pytest.raises(ws.ParameterError, match="replicas must be >= 1"):
        ws.concordance(REF, ws.GaussianBackground(), replicas=0, transactions=10**6, base_seed=1)
    assert not calls


def test_concordance_single_replica_sanity_bound():
    rep = ws.concordance(
        REF, ws.GaussianBackground(), replicas=1, transactions=200, base_seed=5
    )
    det = ws.closed_form(
        ws.TwoEconomyParams(REF.lambda_x, REF.lambda_y, 0.5, REF.x0, REF.y0)
    )
    transient_scale = abs(REF.x0 - det.fixed_point_x) / REF.total
    assert rep.max_relative_deviation <= transient_scale
