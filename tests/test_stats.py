"""Histograms, Gamma fits, convergence detection, background comparison."""

import statistics
import warnings

import numpy as np
import pytest

import wealthsim as ws
from wealthsim.stats import _window_counts


# ----------------------------------------------------------------- histogram


def test_histogram_boundary_convention():
    h = ws.build_histogram([0.0, 0.5, 1.0], bins=2, range=(0.0, 1.0))
    assert list(h.counts) == [1, 2]


def test_histogram_identical_values():
    h = ws.build_histogram(np.full(17, 4.2), bins=5)
    assert h.total == 17
    assert h.counts.max() == 17


def test_histogram_binomial_bound():
    rng = ws.make_rng(321)
    h = ws.build_histogram(rng.random(10**6), bins=10, range=(0.0, 1.0))
    assert h.total == 10**6
    assert np.all(np.abs(h.counts - 100_000) <= 1500)


def test_histogram_errors():
    with pytest.raises(ws.ParameterError):
        ws.build_histogram([], bins=3)
    with pytest.raises(ws.ParameterError):
        ws.build_histogram([1.0], bins=0)
    for bins in (2.0, True, "2"):
        with pytest.raises(ws.ParameterError, match="integer"):
            ws.build_histogram([1.0], bins=bins)
    with pytest.raises(ws.ParameterError):
        ws.build_histogram([1.0], bins=2, range=(2.0, 1.0))
    with pytest.raises(ws.ParameterError):
        ws.build_histogram([1.0, 5.0], bins=2, range=(0.0, 1.0))
    for bad in ([np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(ws.ParameterError):
            ws.build_histogram(bad, bins=3)


@pytest.mark.parametrize(
    "samples, bins, range_",
    [
        ([1e300, 1e300], 50, None),  # the +-0.5 widening rounds away
        ([1.0, 1.0000000000000002], 50, None),
        ([1.0, 1.0], 3, (1.0, 1.0000000000000002)),
        ([-1e308, 1e308], 2, None),  # the span overflows
    ],
)
def test_histogram_refuses_a_span_too_narrow_for_its_bins(samples, bins, range_):
    with pytest.raises(ws.ParameterError, match=f"into {bins} bins of finite width > 0"):
        ws.build_histogram(samples, bins, range=range_)


def test_histogram_merge_matches_concatenation():
    rng = ws.make_rng(888)
    for _ in range(1000):
        lo, hi = 0.0, float(rng.random() * 9.0 + 1.0)
        bins = int(rng.integers(1, 12))
        a = rng.random(int(rng.integers(1, 50))) * hi
        b = rng.random(int(rng.integers(1, 50))) * hi
        ha = ws.build_histogram(a, bins, range=(lo, hi))
        hb = ws.build_histogram(b, bins, range=(lo, hi))
        merged = ws.merge_histograms(ha, hb)
        both = ws.build_histogram(np.concatenate([a, b]), bins, range=(lo, hi))
        assert np.array_equal(merged.counts, both.counts)
        # commutativity
        assert np.array_equal(ws.merge_histograms(hb, ha).counts, merged.counts)


def test_histogram_merge_associative():
    rng = ws.make_rng(889)
    hs = [
        ws.build_histogram(rng.random(30), bins=6, range=(0.0, 1.0)) for _ in range(3)
    ]
    left = ws.merge_histograms(ws.merge_histograms(hs[0], hs[1]), hs[2])
    right = ws.merge_histograms(hs[0], ws.merge_histograms(hs[1], hs[2]))
    assert np.array_equal(left.counts, right.counts)


def test_histogram_merge_requires_identical_edges():
    a = ws.build_histogram([0.1, 0.9], bins=2, range=(0.0, 1.0))
    b = ws.build_histogram([0.1, 0.9], bins=2, range=(0.0, 2.0))
    with pytest.raises(ws.ParameterError):
        ws.merge_histograms(a, b)


# ----------------------------------------------------------------- gamma fit


def test_gamma_fit_moment_identities_simple():
    # mean 2, population variance 1
    fit = ws.gamma_fit_moments([1.0, 3.0])
    assert fit.shape == 4.0
    assert fit.scale == 0.5


def test_gamma_fit_identities_random():
    rng = ws.make_rng(555)
    for _ in range(1000):
        s = rng.random(int(rng.integers(2, 60))) * 10.0 + 0.01
        if s.var() == 0.0:
            continue
        fit = ws.gamma_fit_moments(s)
        np.testing.assert_allclose(fit.shape * fit.scale, fit.sample_mean, rtol=1e-12)
        np.testing.assert_allclose(
            fit.shape * fit.scale**2, fit.sample_variance, rtol=1e-12
        )


def test_gamma_fit_recovers_parameters():
    rng = ws.make_rng(789)
    samples = rng.gamma(4.0, 0.5, size=10**6)
    fit = ws.gamma_fit_moments(samples)
    assert abs(fit.shape - 4.0) < 0.05
    assert abs(fit.scale - 0.5) < 0.01


def test_gamma_fit_errors():
    with pytest.raises(ws.DegenerateInputError):
        ws.gamma_fit_moments(np.full(10, 2.0))
    with pytest.raises(ws.ParameterError):
        ws.gamma_fit_moments([-1.0, 2.0])
    with pytest.raises(ws.ParameterError):
        ws.gamma_fit_moments([1.0])
    for bad in ([np.nan, 1.0], [np.inf, 1.0]):
        with pytest.raises(ws.ParameterError):
            ws.gamma_fit_moments(bad)


# -------------------------------------------------------------- equilibrium


def scan_equilibrium(indices, values, window, tolerance):
    """Direct-scan reference implementation of the windowed criterion."""
    total = len(values)
    if total < 2 * window:
        return None
    means = [sum(values[j : j + window]) / window for j in range(total - window + 1)]
    quiet = []
    for p in range(1, len(means)):
        prev, cur = means[p - 1], means[p]
        if prev == 0.0:
            quiet.append(cur == 0.0)
        else:
            quiet.append(abs(cur - prev) / prev < tolerance)
    for q in range(len(quiet) - window):
        if all(quiet[q : q + window + 1]):
            return indices[window + q]
    return None


def test_detect_equilibrium_constant_series():
    series = [(i * 10, 5.0) for i in range(300)]
    rep = ws.detect_equilibrium(series, window=20, tolerance=1e-3)
    assert rep.converged
    assert rep.equilibrium_index == 200  # first eligible position
    assert rep.equilibrium_index == scan_equilibrium(
        [i * 10 for i in range(300)], [5.0] * 300, 20, 1e-3
    )
    assert rep.final_variance == 5.0


def test_detect_equilibrium_diverging_series():
    series = [(i, float(2.0**i)) for i in range(120)]
    rep = ws.detect_equilibrium(series, window=10, tolerance=1e-3)
    assert not rep.converged
    assert rep.equilibrium_index is None


def test_detect_equilibrium_geometric_decay():
    # Variance settling like 1 + r^m: the quiet point tracks where r^m drops
    # below the tolerance scale tol*window/(1 - r^window).
    r = 0.8735
    m = np.arange(200)
    values = 1.0 + r**m
    rep = ws.detect_equilibrium(
        np.column_stack((m, values)), window=50, tolerance=1e-3
    )
    assert rep.converged
    assert rep.equilibrium_index == 73
    assert rep.equilibrium_index == scan_equilibrium(list(m), list(values), 50, 1e-3)
    # analytic cross-check: decay clears the detector scale 23 points in
    scale = 1e-3 * 50 / (1.0 - r**50)
    first_quiet = int(np.ceil(np.log(scale) / np.log(r)))
    assert rep.equilibrium_index == 50 + first_quiet


def test_detect_equilibrium_of_a_series_whose_sums_overflow():
    # Variances near 1e307 are finite, but their window sums are not: the
    # detector rescales such a series and reads it as the unscaled one, with
    # no overflow warning (RuntimeWarnings fail the suite).  A power of two
    # scales every trailing mean exactly.
    r, scale = 0.8735, 2.0**1020
    m = np.arange(200)
    values = 1.0 + r**m
    for window in (50, 150):  # the second leaves too little data to detect
        plain = ws.detect_equilibrium(np.column_stack((m, values)), window, 1e-3)
        huge = ws.detect_equilibrium(np.column_stack((m, values * scale)), window, 1e-3)
        assert huge.converged == plain.converged
        assert huge.equilibrium_index == plain.equilibrium_index
        assert huge.final_variance == plain.final_variance * scale
    assert ws.detect_equilibrium([(0, 1e308), (1, 1e308)], 5).final_variance == 1e308
    # A jump from 1e-300 whose relative change overflows is an infinite change.
    jump = [1e-300] * 3 + [1e10] * 10
    rep = ws.detect_equilibrium(list(enumerate(jump)), window=2, tolerance=1e-3)
    assert rep.equilibrium_index == 5


def test_detect_equilibrium_not_enough_data():
    rep = ws.detect_equilibrium([(0, 1.0), (1, 1.0)], window=5, tolerance=1e-3)
    assert not rep.converged
    assert rep.equilibrium_index is None
    # A constant series settles at once, but needs window + 1 quiet changes
    # of its trailing mean: 2 * window points give only window of them.
    idx = np.arange(11) * 3
    rep = ws.detect_equilibrium(np.column_stack((idx[:10], np.ones(10))), window=5)
    assert not rep.converged
    assert rep.equilibrium_index is None
    rep = ws.detect_equilibrium(np.column_stack((idx, np.ones(11))), window=5)
    assert rep.converged
    assert rep.equilibrium_index == idx[5]


def test_detect_equilibrium_validation():
    with pytest.raises(ws.ParameterError):
        ws.detect_equilibrium([(1, 1.0), (0, 1.0)], window=2)
    with pytest.raises(ws.ParameterError):
        ws.detect_equilibrium([(0, 1.0)], window=1)
    with pytest.raises(ws.ParameterError):
        ws.detect_equilibrium([(0, 1.0)], window=2, tolerance=0.0)
    for window in (2.5, 2.0, True, "2"):
        with pytest.raises(ws.ParameterError, match="integer"):
            ws.detect_equilibrium([(0, 1.0)], window=window)


def test_detect_matches_scan_on_noisy_series():
    rng = ws.make_rng(9090)
    for _ in range(50):
        t = int(rng.integers(30, 120))
        w = int(rng.integers(2, 8))
        vals = list(1.0 + 0.8 ** np.arange(t) + rng.random(t) * 0.002)
        idx = list(range(t))
        rep = ws.detect_equilibrium(
            np.column_stack((idx, vals)), window=w, tolerance=5e-3
        )
        expected = scan_equilibrium(idx, vals, w, 5e-3)
        assert rep.equilibrium_index == expected
        assert rep.converged == (expected is not None)


def test_window_counts_match_a_convolution():
    # The run counts detect_equilibrium tests for a full quiet window.
    rng = ws.make_rng(2020)
    for _ in range(200):
        size = int(rng.integers(1, 300))
        width = int(rng.integers(1, size + 1))
        # Densities up to 1, so that some windows are all quiet.
        flags = rng.random(size) < min(1.0, 1.2 * rng.random())
        expected = np.convolve(flags.astype(np.int64), np.ones(width, np.int64), "valid")
        got = _window_counts(flags, width)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------- comparison


@pytest.mark.parametrize(
    "bg",
    [ws.UniformBackground(), ws.GaussianBackground(), ws.GaussianBackground(0.5, 0.5)],
    ids=["uniform", "gaussian", "gaussian-wide"],
)
def test_variance_trajectory_replica_k_runs_seed_plus_k(bg):
    # 3000 transactions span two sampling blocks at 3 replicas and one at 1.
    params = ws.make_agents(8, 0.8, 5.0)
    indices, batch, _ = ws.variance_trajectory(params, bg, 3000, 40, 7, replicas=3)
    assert batch.shape == (3, indices.size)
    for k in range(3):
        _, single, _ = ws.variance_trajectory(params, bg, 3000, 40 + k, 7)
        assert single.shape == (1, indices.size)
        assert np.array_equal(batch[k], single[0])
    # replica seeds wrap modulo 2**64
    _, top, _ = ws.variance_trajectory(params, bg, 3000, ws.MAX_SEED, 7, replicas=2)
    _, zero, _ = ws.variance_trajectory(params, bg, 3000, 0, 7)
    assert np.array_equal(top[1], zero[0])


def test_variance_trajectory_matches_stored_states():
    # At n=1000 a chunk of recorded states holds few of them, so it is reduced
    # several times; 1001 is off the cadence of 3, which leaves a partial chunk.
    params = ws.make_agents(1000, 0.8, 5.0)
    bg = ws.GaussianBackground()
    for replicas in (1, 3):
        indices, batch, _ = ws.variance_trajectory(params, bg, 1001, 9, 3, replicas)
        assert batch.shape == (replicas, indices.size)
        for k in range(replicas):
            traj = ws.run_trajectory(params, bg, 1001, 9 + k, 3)
            assert np.array_equal(indices, traj.indices)
            assert np.array_equal(batch[k], traj.wealth.var(axis=1))


def test_compare_ensemble_sums_replicas_in_order():
    # The mean over replicas of a row-major (replicas, records) array adds the
    # rows in order; over a column-major one it sums them pairwise, and at 20
    # replicas that rounds differently.
    params = ws.make_agents(10, 0.9, 100.0)
    res = ws.compare_backgrounds(params, 300, 20, 3, record_every=1)
    _, rows, _ = ws.variance_trajectory(params, ws.UniformBackground(), 300, 3, 1, 20)
    total = 0.0
    for row in rows:
        total = total + row
    assert np.array_equal(res.ensemble_variance_uniform, total / 20)


def test_compare_arms_are_single_arm_variance_trajectories():
    # Both arms run as one staged ensemble; each arm's rows, and so every
    # figure built from them, are bit for bit those of its own one-arm call.
    params = ws.make_agents(5, [0.2, 0.4, 0.6, 0.8, 0.95], [1.0, 2.0, 3.0, 4.0, 5.0])
    arms = (ws.UniformBackground(), ws.GaussianBackground(0.3, 0.4))
    res = ws.compare_backgrounds(params, 3000, 3, 10, background_b=arms[1], record_every=3)
    indices, both, drift = ws.variance_trajectory(params, arms, 3000, 10, 3, 3)
    assert both.shape == (6, indices.size)
    assert np.array_equal(res.indices, indices)
    singles = [ws.variance_trajectory(params, bg, 3000, 10, 3, 3) for bg in arms]
    for a, (ensemble, (_, rows, _)) in enumerate(
        zip((res.ensemble_variance_uniform, res.ensemble_variance_gaussian), singles)
    ):
        assert np.array_equal(both[3 * a : 3 * (a + 1)], rows)
        assert np.array_equal(ensemble, np.mean(rows, axis=0))
    assert res.max_conservation_drift == drift == max(d for _, _, d in singles)
    tail = max(1, round(indices.size * 0.1))
    for replica_variances, (_, rows, _) in zip(
        (res.replica_variance_uniform, res.replica_variance_gaussian), singles
    ):
        assert replica_variances == [float(v[-tail:].mean()) for v in rows]


def test_compare_rejects_bad_replicas_and_seed():
    params = ws.make_agents(4, 0.9, 1.0)
    with pytest.raises(ws.ParameterError):
        ws.compare_backgrounds(params, 10, 0, 1)
    with pytest.raises(ws.ParameterError):
        ws.compare_backgrounds(params, 10, 2, -1)


def test_compare_refuses_an_overflowing_variance():
    # Two agents of 1e307 keep a finite total, but the squares of their
    # deviations overflow; 1e154 stays finite and runs as before.
    with pytest.raises(ws.ParameterError, match="cross-agent wealth variance.*2e\\+307"):
        ws.compare_backgrounds(ws.make_agents(2, 0.9, 1e307), 40, 2, 0)
    result = ws.compare_backgrounds(ws.make_agents(2, 0.9, 1e154), 40, 2, 41)
    assert 0.0 < result.variance_uniform < np.inf


def test_runs_without_agents_raise_before_any_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ws.ParameterError, match="at least one agent"):
            ws.variance_trajectory([], ws.UniformBackground(), 10, 1, 1)
        with pytest.raises(ws.ParameterError, match="at least one agent"):
            ws.compare_backgrounds([], 10, 1, 1)
        with pytest.raises(ws.ParameterError, match="at least one agent"):
            ws.run_trajectory([], ws.UniformBackground(), 10, 1)


def test_compare_self_test_is_exactly_zero():
    params = ws.make_agents(20, 0.9, 10.0)
    res = ws.compare_backgrounds(
        params, 2000, 3, 11, background_b=ws.UniformBackground(), record_every=10
    )
    assert res.reduction_fraction == 0.0
    assert res.variance_uniform == res.variance_gaussian
    assert res.replica_variance_uniform == res.replica_variance_gaussian


def test_compare_constant_vs_identical_constant():
    bg = ws.ConstantBackground(np.full(10, 0.1))
    params = ws.make_agents(10, 0.9, [float(i + 1) for i in range(10)])
    res = ws.compare_backgrounds(
        params, 500, 2, 3, background_a=bg, background_b=bg, record_every=5
    )
    assert res.reduction_fraction == 0.0


def test_compare_direction_smoke():
    params = ws.make_agents(50, 0.9, 100.0)
    res = ws.compare_backgrounds(params, 20_000, 5, 777)
    wins = sum(
        b < a
        for a, b in zip(res.replica_variance_uniform, res.replica_variance_gaussian)
    )
    assert wins == 5
    assert res.variance_gaussian < res.variance_uniform
    assert 0.0 < res.reduction_fraction < 1.0
    assert res.max_conservation_drift <= ws.CONSERVATION_RTOL
    # paired-arm convergence on a matched cadence
    assert len(res.replica_convergence_uniform) == 5
    med_u = statistics.median(
        c if c is not None else float("inf") for c in res.replica_convergence_uniform
    )
    med_g = statistics.median(
        c if c is not None else float("inf") for c in res.replica_convergence_gaussian
    )
    assert med_g <= med_u


def test_compare_result_fields_consistent():
    params = ws.make_agents(10, 0.8, 5.0)
    res = ws.compare_backgrounds(params, 1000, 2, 42, record_every=10)
    assert res.replicas == 2
    expected = (res.variance_uniform - res.variance_gaussian) / res.variance_uniform
    assert res.reduction_fraction == expected
    assert res.indices[0] == 0 and res.indices[-1] == 1000
    assert len(res.ensemble_variance_uniform) == len(res.indices)
