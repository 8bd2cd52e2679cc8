"""Histograms, Gamma fits, convergence detection, background comparison."""

import statistics

import numpy as np
import pytest

import wealthsim as ws


# ------------------------------------------------------------------ variance


def test_wealth_variance_examples():
    assert ws.wealth_variance(np.full(7, 3.25)) == 0.0
    assert ws.wealth_variance([0.0, 2.0]) == 1.0
    assert ws.wealth_variance([1000.0, 2000.0]) == 250000.0
    state = ws.WealthState(3, np.array([1000.0, 2000.0]))
    assert ws.wealth_variance(state) == 250000.0


def test_wealth_variance_scale_quadratic():
    rng = ws.make_rng(42)
    for _ in range(1000):
        x = rng.random(int(rng.integers(1, 40))) * 10.0
        c = float(rng.random() * 5.0 + 0.1)
        np.testing.assert_allclose(
            ws.wealth_variance(c * x), c * c * ws.wealth_variance(x), rtol=1e-10
        )


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
    with pytest.raises(ws.ParameterError):
        ws.build_histogram([1.0], bins=2, range=(2.0, 1.0))
    with pytest.raises(ws.ParameterError):
        ws.build_histogram([1.0, 5.0], bins=2, range=(0.0, 1.0))


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


def test_detect_equilibrium_not_enough_data():
    rep = ws.detect_equilibrium([(0, 1.0), (1, 1.0)], window=5, tolerance=1e-3)
    assert not rep.converged
    assert rep.equilibrium_index is None


def test_detect_equilibrium_validation():
    with pytest.raises(ws.ParameterError):
        ws.detect_equilibrium([(1, 1.0), (0, 1.0)], window=2)
    with pytest.raises(ws.ParameterError):
        ws.detect_equilibrium([(0, 1.0)], window=1)
    with pytest.raises(ws.ParameterError):
        ws.detect_equilibrium([(0, 1.0)], window=2, tolerance=0.0)


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


# ----------------------------------------------------------- running moments


def test_running_moments_merge_matches_batch():
    rng = ws.make_rng(77)
    for _ in range(300):
        a = rng.random(int(rng.integers(1, 40)))
        b = rng.random(int(rng.integers(1, 40)))
        ma, mb = ws.RunningMoments(), ws.RunningMoments()
        for v in a:
            ma.push(float(v))
        for v in b:
            mb.push(float(v))
        merged = ma.merge(mb)
        both = np.concatenate([a, b])
        np.testing.assert_allclose(merged.mean(), both.mean(), rtol=1e-12)
        np.testing.assert_allclose(merged.variance(), both.var(), rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------- comparison


@pytest.mark.parametrize(
    "bg", [ws.UniformBackground(), ws.GaussianBackground()], ids=["uniform", "gaussian"]
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


def test_compare_rejects_bad_replicas_and_seed():
    params = ws.make_agents(4, 0.9, 1.0)
    with pytest.raises(ws.ParameterError):
        ws.compare_backgrounds(params, 10, 0, 1)
    with pytest.raises(ws.ParameterError):
        ws.compare_backgrounds(params, 10, 2, -1)


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
