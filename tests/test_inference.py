import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_closed_form, stats_from_moments, stats_from_params
from isingmarket import inference
from isingmarket.inference import (InferenceConfig, InferenceResult, infer,
                                   infer_exact, infer_ip, infer_nmf, infer_sm,
                                   infer_tap, moment_residual)
from isingmarket.model import IsingParams, metropolis_sample, params_to_json
from isingmarket.stats import WindowStats, window_stats
from isingmarket.synthetic import BlockSpec, block_model, random_model, sample_binary_panel

CFG = InferenceConfig()


def pair_matrix(n, i, k, v):
    j = np.zeros((n, n))
    j[i, k] = j[k, i] = v
    return j


def two_spin_stats(c, m=(0.0, 0.0)):
    m = np.asarray(m, dtype=float)
    cov = np.array([[1 - m[0] ** 2, c], [c, 1 - m[1] ** 2]])
    return stats_from_moments(m, cov)


class TestNmf:
    def test_two_spin_zero_mean_closed_form(self):
        # pair-effective coupling 2J equals the inverse-covariance formula
        # c / (1 - c^2); fields vanish at zero mean
        c = 0.2
        res = infer_nmf(two_spin_stats(c), CFG)
        assert 2 * res.params.J[0, 1] == pytest.approx(c / (1 - c**2), abs=1e-12)
        np.testing.assert_allclose(res.params.h, 0.0, atol=1e-12)

    def test_diagonal_covariance_gives_zero_params(self):
        m = np.zeros(3)
        res = infer_nmf(stats_from_moments(m, np.eye(3)), CFG)
        np.testing.assert_allclose(res.params.J, 0.0, atol=1e-12)
        np.testing.assert_allclose(res.params.h, 0.0, atol=1e-12)

    def test_weak_coupling_recovers_plant(self):
        # the inversion tends to the true coupling as correlations shrink;
        # the leading error is (8/3) j^3
        for j in (0.05, 0.02, 0.01):
            params = IsingParams(np.zeros(2), pair_matrix(2, 0, 1, j))
            res = infer_nmf(stats_from_params(params), CFG)
            assert abs(res.params.J[0, 1] - j) < 3 * j**3 + 1e-12

    def test_diagonal_trick_changes_fields_only(self):
        params = random_model(5, 0.4, 0.2, seed=0)
        st = stats_from_params(params)
        on = infer_nmf(st, InferenceConfig(diagonal_trick=True))
        off = infer_nmf(st, InferenceConfig(diagonal_trick=False))
        np.testing.assert_array_equal(on.params.J, off.params.J)
        assert not np.allclose(on.params.h, off.params.h)

    def test_saturated_mean_rejected(self):
        st = stats_from_moments(np.array([1.0, 0.0]),
                                np.array([[1e-12, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="series 0"):
            infer_nmf(st, CFG)

    @pytest.mark.parametrize("method", ("exact", "nmf", "tap", "sm"))
    def test_shared_inverse_is_bit_identical(self, method):
        # a fit on a WindowStats whose inverse is already cached equals a fit
        # on a fresh one
        rng = np.random.default_rng(8)
        panel = np.where(rng.random((6, 300)) < 0.5, -1.0, 1.0)
        cfg = InferenceConfig(method=method, ridge=1e-3, max_iters=5, seed=4)
        cached = window_stats(panel)
        cached.inverse(cfg.ridge)
        alone, shared = infer(window_stats(panel), cfg), infer(cached, cfg)
        assert shared.params.J.tobytes() == alone.params.J.tobytes()
        assert shared.params.h.tobytes() == alone.params.h.tobytes()
        for f in fields(InferenceResult):
            if f.name != "params":
                assert getattr(shared, f.name) == getattr(alone, f.name), f.name

    def test_singular_covariance_suggests_ridge(self):
        st = stats_from_moments(np.zeros(2), np.ones((2, 2)))
        with pytest.raises(ValueError, match="ridge"):
            infer_nmf(st, CFG)
        res = infer_nmf(st, InferenceConfig(ridge=1e-6))
        assert np.all(np.isfinite(res.params.J))
        # the ridge reached the inverse
        assert res.cond_cov == np.linalg.cond(st.covariance + 1e-6 * np.eye(2))


class TestTap:
    def test_equals_nmf_at_zero_mean(self):
        rng = np.random.default_rng(1)
        cov = rng.normal(size=(6, 60))
        cov = cov @ cov.T / 60
        st = stats_from_moments(np.zeros(6), cov)
        j_tap = infer_tap(st, CFG).params.J
        j_nmf = infer_nmf(st, CFG).params.J
        np.testing.assert_array_equal(j_tap, j_nmf)

    def test_root_satisfies_quadratic(self):
        params = random_model(6, 0.5, 0.15, seed=2)
        st = stats_from_params(params)
        res = infer_tap(st, CFG)
        assert res.tap_fallbacks == 0
        cinv = np.linalg.inv(st.covariance)
        m = st.means
        for i in range(6):
            for k in range(i + 1, 6):
                x = 2 * res.params.J[i, k]  # pair-effective coupling
                resid = 2 * m[i] * m[k] * x**2 + x + cinv[i, k]
                assert abs(resid) < 1e-10

    def test_negative_discriminant_falls_back(self):
        # strongly magnetized, strongly anti-correlated pair: discriminant < 0
        m = np.array([0.9, 0.9])
        cov = np.array([[0.19, -0.17], [-0.17, 0.19]])
        st = stats_from_moments(m, cov)
        res = infer_tap(st, CFG)
        assert res.tap_fallbacks == 1
        assert np.all(np.isfinite(res.params.J))
        cinv = np.linalg.inv(cov)
        assert 2 * res.params.J[0, 1] == pytest.approx(-cinv[0, 1])

    def test_trick_fields_match_nmf(self):
        params = random_model(4, 0.3, 0.1, seed=3)
        st = stats_from_params(params)
        h_tap = infer_tap(st, InferenceConfig(diagonal_trick=True)).params.h
        h_nmf = infer_nmf(st, InferenceConfig(diagonal_trick=True)).params.h
        np.testing.assert_array_equal(h_tap, h_nmf)

    def test_untricked_fields_include_reaction_term(self):
        params = random_model(4, 0.3, 0.1, seed=4)
        st = stats_from_params(params)
        res = infer_tap(st, InferenceConfig(diagonal_trick=False))
        cinv = np.linalg.inv(st.covariance)
        m = st.means
        j_nmf_off = np.diag(1 / (1 - m**2)) - cinv
        np.fill_diagonal(j_nmf_off, 0.0)
        h_nmf = np.arctanh(m) - j_nmf_off @ m
        x = 2 * res.params.J
        expected = h_nmf - m * (1 - m**2) * (x**2).sum(axis=1)
        np.testing.assert_allclose(res.params.h, expected, atol=1e-12)


class TestIp:
    def test_zero_mean_closed_form(self):
        # the joint-table formula reduces to atanh(c) for the
        # pair-effective coupling
        c = 0.3
        res = infer_ip(two_spin_stats(c), CFG)
        assert 2 * res.params.J[0, 1] == pytest.approx(np.arctanh(c), abs=1e-12)

    def test_uncorrelated_pair_gives_zero(self):
        res = infer_ip(two_spin_stats(0.0), CFG)
        np.testing.assert_allclose(res.params.J, 0.0, atol=1e-15)
        np.testing.assert_allclose(res.params.h, 0.0, atol=1e-15)

    @pytest.mark.parametrize("h", [(0.0, 0.0), (0.3, -0.6), (0.8, 0.5)])
    @pytest.mark.parametrize("j", [0.15, -0.3, 0.45])
    def test_exact_round_trip_two_spins(self, h, j):
        # plant -> exhaustive moments -> invert recovers the coupling exactly
        planted = IsingParams(np.asarray(h), pair_matrix(2, 0, 1, j))
        res = infer_ip(stats_from_params(planted), CFG)
        assert res.params.J[0, 1] == pytest.approx(j, abs=1e-10)

    def test_inconsistent_table_named(self):
        st = stats_from_moments(np.array([0.9, 0.9]),
                                np.array([[0.19, -0.5], [-0.5, 0.19]]))
        with pytest.raises(ValueError, match=r"pair \(series 0, series 1\)"):
            infer_ip(st, CFG)


class TestSm:
    def test_two_spin_cancellation(self):
        # mean-field and correction terms cancel, leaving the pair formula
        c = 0.25
        res = infer_sm(two_spin_stats(c), CFG)
        assert 2 * res.params.J[0, 1] == pytest.approx(np.arctanh(c), abs=1e-12)

    def test_zero_correlation_gives_zero(self):
        res = infer_sm(two_spin_stats(0.0), CFG)
        np.testing.assert_allclose(res.params.J, 0.0, atol=1e-15)

    @pytest.mark.parametrize("h", [(0.2, -0.5), (0.0, 0.9)])
    def test_exact_round_trip_two_spins_any_mean(self, h):
        planted = IsingParams(np.asarray(h), pair_matrix(2, 0, 1, 0.35))
        res = infer_sm(stats_from_params(planted), CFG)
        assert res.params.J[0, 1] == pytest.approx(0.35, abs=1e-10)

    def test_definitional_identity(self):
        # per entry: J_sm = J_nmf + J_ip - correction/2 (all in stored units)
        params = random_model(10, 0.3, 0.1, seed=5)
        st = stats_from_params(params)
        j_sm = infer_sm(st, CFG).params.J
        j_nmf = infer_nmf(st, CFG).params.J
        j_ip = infer_ip(st, CFG).params.J
        m, cov = st.means, st.covariance
        with np.errstate(divide="ignore"):
            corr = cov / (np.outer(1 - m**2, 1 - m**2) - cov**2)
        np.fill_diagonal(corr, 0.0)
        np.testing.assert_allclose(j_sm, j_nmf + j_ip - corr / 2, atol=1e-12)

    def test_fields_are_pair_fields(self):
        params = random_model(4, 0.4, 0.1, seed=6)
        st = stats_from_params(params)
        np.testing.assert_array_equal(infer_sm(st, CFG).params.h,
                                      infer_ip(st, CFG).params.h)


class TestHalvingCalibration:
    # any planted pair, through exhaustive moments, comes back from both pair
    # formulas: the closed forms' halving (module docstring) holds everywhere
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), st.floats(-1.0, 1.0))
    def test_planted_pair_round_trips_through_ip_and_sm(self, h, j):
        planted = IsingParams(np.asarray(h), pair_matrix(2, 0, 1, j))
        stats = stats_from_params(planted)
        for fit in (infer_ip, infer_sm):
            assert abs(fit(stats, CFG).params.J[0, 1] - j) <= 1e-10, fit.__name__


class TestExactLearning:
    def test_trivial_fixed_point(self):
        st = stats_from_moments(np.zeros(3), np.eye(3))
        res = infer_exact(st, InferenceConfig(method="exact", max_iters=50))
        assert res.converged
        np.testing.assert_allclose(res.params.h, 0.0, atol=1e-12)
        np.testing.assert_allclose(res.params.J, 0.0, atol=1e-12)

    def test_two_spin_target(self):
        # target <s1 s2> = tanh(2*0.5): the coupling converges to 0.5
        st = two_spin_stats(np.tanh(1.0))
        cfg = InferenceConfig(method="exact", eta_h=0.2, eta_j=0.2,
                              eta_decay=1.0, tol=1e-10, max_iters=2000)
        res = infer_exact(st, cfg)
        assert res.converged
        assert res.params.J[0, 1] == pytest.approx(0.5, abs=1e-8)

    def test_planted_round_trip_exact_loop(self):
        truth = random_model(5, 0.3, 0.2, seed=7)
        cfg = InferenceConfig(method="exact", eta_h=0.2, eta_j=0.2,
                              eta_decay=1.0, tol=1e-9, max_iters=5000)
        res = infer_exact(stats_from_params(truth), cfg)
        assert res.converged
        np.testing.assert_allclose(res.params.h, truth.h, atol=1e-6)
        np.testing.assert_allclose(res.params.J, truth.J, atol=1e-6)

    def test_fixed_point_reproduces_data_moments(self):
        truth = random_model(4, 0.4, 0.25, seed=8)
        st = stats_from_params(truth)
        cfg = InferenceConfig(method="exact", eta_decay=1.0, tol=1e-6,
                              max_iters=3000)
        res = infer_exact(st, cfg)
        assert res.converged
        assert moment_residual(res.params, st, cfg) < 1e-6

    def test_residual_monotone_after_transient(self):
        # with exact moments and a small rate, the residual should almost
        # never increase once past the first few iterations
        ok = 0
        for seed in range(5):
            truth = random_model(4, 0.3, 0.2, seed=100 + seed)
            cfg = InferenceConfig(method="exact", eta_h=0.05, eta_j=0.05,
                                  eta_decay=1.0, tol=1e-10, max_iters=400)
            res = infer_exact(stats_from_params(truth), cfg)
            hist = np.asarray(res.residual_history[10:])
            frac_up = np.mean(np.diff(hist) > 1e-12)
            ok += frac_up == 0.0 and hist[-1] < hist[0]
        assert ok >= 4

    def test_divergence_detector(self):
        st = two_spin_stats(np.tanh(1.0))
        cfg = InferenceConfig(method="exact", eta_h=8.0, eta_j=8.0,
                              eta_decay=1.0, tol=1e-12, max_iters=5000)
        res = infer_exact(st, cfg)
        assert not res.converged
        assert res.stop_reason == "diverged"
        assert res.iterations < 5000
        assert res.residual == res.residual_history[-1]

    def test_mc_loop_runs_deterministically(self):
        truth = random_model(3, 0.2, 0.2, seed=9)
        st = stats_from_params(truth)
        cfg = InferenceConfig(method="exact", exact_max_n=0, mc_chains=50,
                              mc_sweeps=20, mc_burnin=20, max_iters=30,
                              tol=1e-6, seed=21)
        a = infer_exact(st, cfg)
        b = infer_exact(st, cfg)
        assert a.params.h.tobytes() == b.params.h.tobytes()
        assert a.params.J.tobytes() == b.params.J.tobytes()
        other = infer_exact(st, replace(cfg, seed=22))
        assert other.params.J.tobytes() != a.params.J.tobytes()


def planted_window(n_obs, seed, n=24):
    """Window stats of a T-day panel drawn from mc_learn's planted 3-sector model."""
    truth, _ = block_model(BlockSpec(n, 3, 0.04, h_scale=0.05), seed=seed)
    panel = sample_binary_panel(truth, n_obs, seed=seed + 1, n_burnin=200)
    return truth, window_stats(panel, truth.tickers)


def without_length(st):
    """The same moments with no window length: no data floor."""
    return WindowStats(st.means, st.covariance, st.tickers)


# sampled learning at N=24 on a small budget
FLOOR_CFG = InferenceConfig(method="exact", mc_chains=200, mc_sweeps=50, mc_burnin=50,
                            tol=1e-4, max_iters=6, seed=5)


class TestStopReasons:
    def test_tol_on_an_enumerated_planted_model(self):
        truth = random_model(5, 0.3, 0.2, seed=7)
        cfg = InferenceConfig(method="exact", eta_h=0.2, eta_j=0.2, eta_decay=1.0,
                              tol=1e-6, max_iters=5000)
        res = infer_exact(stats_from_params(truth), cfg)
        assert res.stop_reason == "tol" and res.converged
        assert res.residual < cfg.tol

    def test_max_iters_returns_the_parameters_it_measured(self):
        # the residual belongs to the returned parameters: no update is
        # applied after the last measured step
        st = stats_from_params(random_model(5, 0.3, 0.2, seed=7))
        cfg = InferenceConfig(method="exact", tol=1e-9, max_iters=3)
        res = infer_exact(st, cfg)
        assert res.stop_reason == "max_iters" and not res.converged
        assert res.iterations == len(res.residual_history) == 3
        assert moment_residual(res.params, st, cfg) == res.residual

    def test_enumerated_fit_ignores_the_data_floor(self):
        truth = random_model(6, 0.2, 0.1, seed=3)
        st = window_stats(sample_binary_panel(truth, 500, seed=4), truth.tickers)
        res = infer_exact(st, InferenceConfig(method="exact", tol=1e-9, max_iters=5))
        assert res.stop_reason == "max_iters"

    def test_data_floor_on_a_sampled_planted_window(self):
        _, st = planted_window(500, seed=11)
        assert st.n_obs == 500
        res = infer_exact(st, FLOOR_CFG)
        assert res.stop_reason == "data_floor" and res.converged
        # checked only after one learning step, and measured on the result
        assert res.iterations == 2
        assert res.residual == res.residual_history[-1] > FLOOR_CFG.tol
        assert res.mc_r_hat_max is not None

    def test_no_data_floor_without_a_window_length(self):
        _, st = planted_window(500, seed=11)
        res = infer_exact(without_length(st), replace(FLOOR_CFG, max_iters=3))
        assert res.stop_reason == "max_iters" and not res.converged
        assert res.iterations == 3

    def test_floor_is_data_floor_z_standard_errors(self, monkeypatch):
        # with z = 0 no sampled gap is ever within the floor
        _, st = planted_window(500, seed=11)
        monkeypatch.setattr(inference, "DATA_FLOOR_Z", 0.0)
        res = infer_exact(st, replace(FLOOR_CFG, max_iters=3))
        assert res.stop_reason == "max_iters"

    @pytest.mark.slow
    @pytest.mark.parametrize("n_obs", [500, 2000])
    def test_floor_stop_loses_no_accuracy_against_twelve_steps(self, n_obs):
        # mc_learn's budget: 500 chains x 100 sweeps, 12 iterations
        cfg = InferenceConfig(method="exact", mc_chains=500, mc_sweeps=100,
                              mc_burnin=100, tol=1e-4, max_iters=12, seed=1)
        floor, full = [], []
        for seed in (21, 22, 23):
            truth, st = planted_window(n_obs, seed)
            iu = np.triu_indices(truth.n, 1)
            stopped = infer_exact(st, cfg)
            ran = infer_exact(without_length(st), cfg)
            assert stopped.stop_reason == "data_floor"
            assert ran.stop_reason == "max_iters" and ran.iterations == 12
            for res, out in ((stopped, floor), (ran, full)):
                out.append(np.sqrt(np.mean((res.params.J[iu] - truth.J[iu]) ** 2)))
        assert np.mean(floor) - np.mean(full) <= np.std(full, ddof=1)


MC_CFG = InferenceConfig(method="exact", exact_max_n=0, mc_chains=40, mc_sweeps=10,
                         mc_burnin=25, max_iters=6, tol=1e-9, seed=3)


class TestPersistentChains:
    def test_burn_in_once_then_continue(self, monkeypatch):
        calls = []

        def spy(params, **kwargs):
            stats = metropolis_sample(params, **kwargs)
            calls.append((kwargs, stats))
            return stats

        monkeypatch.setattr(inference, "metropolis_sample", spy)
        st = stats_from_params(random_model(4, 0.2, 0.2, seed=5))
        res = infer_exact(st, MC_CFG)
        assert res.iterations == len(calls) == MC_CFG.max_iters
        first, _ = calls[0]
        assert first["n_burnin"] == MC_CFG.mc_burnin
        assert isinstance(first["init"], str) and first["init"] == "random"
        for (kwargs, _), (_, previous) in zip(calls[1:], calls):
            assert kwargs["n_burnin"] == 0
            assert kwargs["init"] is previous.final_states
        seeds = [kwargs["seed"] for kwargs, _ in calls]
        assert len({s.spawn_key for s in seeds}) == len(seeds)
        assert res.mc_r_hat_max == calls[-1][1].r_hat.max()

    def test_enumerated_fit_has_no_r_hat(self):
        st = stats_from_params(random_model(4, 0.2, 0.2, seed=6))
        res = infer_exact(st, replace(MC_CFG, exact_max_n=16))
        assert res.mc_r_hat_max is None

    def test_seed_entropy_tuple_equals_its_seed_sequence(self):
        # the pipeline hands each fit its (seed, window, salt) entropy as a tuple
        st = stats_from_params(random_model(4, 0.2, 0.2, seed=5))
        by_tuple = infer_exact(st, replace(MC_CFG, seed=(7, 3, 100)))
        by_sequence = infer_exact(st, replace(MC_CFG, seed=np.random.SeedSequence([7, 3, 100])))
        assert params_to_json(by_tuple.params) == params_to_json(by_sequence.params)
        assert by_tuple.residual_history == by_sequence.residual_history


class TestFinish:
    def test_couplings_are_built_in_one_array(self, monkeypatch):
        n = 200
        rng = np.random.default_rng(0)
        j_single, h = rng.normal(size=(n, n)), rng.normal(size=n)
        st = WindowStats(np.zeros(n), np.eye(n))
        # the assembly alone: IsingParams' own checks allocate the same on any input
        monkeypatch.setattr(inference, "IsingParams", lambda h, j, tickers: j)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            j = inference._finish(j_single, h, "nmf", st).params
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one N x N float64 array plus numpy's iteration buffer for the transpose,
        # below the two arrays of an assembly that copies
        assert peak - base < 1.5 * n * n * 8
        expected = (j_single + j_single.T) / 2.0
        np.fill_diagonal(expected, 0.0)
        assert j.tobytes() == (expected / 2.0).tobytes()


def pm_window(n, t, seed):
    """A seeded (n, t) window of fair +-1 coins."""
    return np.where(np.random.default_rng(seed).random((n, t)) < 0.5, -1.0, 1.0)


def tap_edge_window():
    """A 7-series +-1 window with a pair whose TAP discriminant is negative
    (two magnetized series that are -1 together on one day only, so they
    anti-correlate) and a series of mean exactly 0, so its products m_i m_j
    sit below the nMF-limit floor."""
    w = pm_window(7, 400, seed=21)
    rng = np.random.default_rng(22)
    w[0] = 1.0
    w[1] = 1.0
    down = rng.permutation(400)[:79]
    w[0, down[:40]] = -1.0
    w[1, down[39:]] = -1.0
    w[2] = rng.permutation(np.repeat([-1.0, 1.0], 200))
    return w


class TestInPlaceKernels:
    """The closed-form fits build their couplings in place; every bit of h and
    J equals the plain formulas kept in conftest."""

    @pytest.mark.parametrize("method", ("nmf", "tap", "ip", "sm"))
    @pytest.mark.parametrize("trick", (True, False))
    @pytest.mark.parametrize("n", (2, 7, 60, 200))
    def test_bit_equal_to_the_formulas(self, method, trick, n):
        cfg = InferenceConfig(method=method, diagonal_trick=trick)
        st = window_stats(pm_window(n, max(50, 3 * n), seed=n))
        h, j = reference_closed_form(st, cfg)
        got = infer(st, cfg).params
        assert got.h.tobytes() == h.tobytes()
        assert got.J.tobytes() == j.tobytes()

    @pytest.mark.parametrize("method", ("nmf", "tap", "ip", "sm"))
    @pytest.mark.parametrize("trick", (True, False))
    def test_bit_equal_with_fallbacks_and_zero_means(self, method, trick):
        st = window_stats(tap_edge_window())
        assert np.abs(np.outer(st.means, st.means)).min() < inference._TAP_MEAN_PRODUCT_FLOOR
        cfg = InferenceConfig(method=method, diagonal_trick=trick)
        res = infer(st, cfg)
        if method == "tap":
            assert res.tap_fallbacks > 0
        h, j = reference_closed_form(st, cfg)
        assert res.params.h.tobytes() == h.tobytes()
        assert res.params.J.tobytes() == j.tobytes()

    @pytest.mark.parametrize("method", ("ip", "sm"))
    def test_non_positive_pair_term_names_the_same_pair(self, method):
        # series 5 is never +1 with series 2, nor series 6 with series 4:
        # two empty cells of the pair tables, the first named
        w = pm_window(7, 400, seed=23)
        w[5, w[2] > 0] = -1.0
        w[6, w[4] > 0] = -1.0
        st = window_stats(w, tickers=tuple("ABCDEFG"))
        cfg = InferenceConfig(method=method)
        with pytest.raises(ValueError) as want:
            reference_closed_form(st, cfg)
        assert "pair (C, F)" in str(want.value)
        with pytest.raises(ValueError) as got:
            infer(st, cfg)
        assert str(got.value) == str(want.value)


class TestDispatchAndInvariants:
    @pytest.mark.parametrize("method", ["nmf", "tap", "ip", "sm"])
    def test_all_methods_return_valid_params(self, method):
        truth = random_model(6, 0.3, 0.15, seed=10)
        panel = sample_binary_panel(truth, 800, seed=11)
        st = window_stats(panel)
        res = infer(st, InferenceConfig(method=method))
        j = res.params.J
        np.testing.assert_array_equal(j, j.T)
        np.testing.assert_array_equal(np.diag(j), 0.0)
        assert np.all(np.isfinite(res.params.h))
        assert res.method == method

    def test_report_residual_for_closed_form(self):
        truth = random_model(3, 0.2, 0.2, seed=12)
        st = stats_from_params(truth)
        cfg = InferenceConfig(method="ip")
        assert moment_residual(infer(st, cfg).params, st, cfg) < 0.2

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            InferenceConfig(method="plm")

    def test_moment_residual_mc_path(self):
        truth = random_model(3, 0.2, 0.2, seed=15)
        st = stats_from_params(truth)
        cfg = InferenceConfig(exact_max_n=0, mc_chains=200, mc_sweeps=100,
                              mc_burnin=100, seed=5)
        # the true parameters should nearly reproduce their own moments
        assert moment_residual(truth, st, cfg) < 0.05

    def test_full_universe_scale_smoke(self):
        # 71 series over a 250-day window, the working point of the whole
        # pipeline; T barely exceeds N so the inversion is ridge-assisted
        rng = np.random.default_rng(16)
        n = 71
        j = np.triu(rng.normal(0.01, 0.03, (n, n)), 1)
        truth = IsingParams(rng.uniform(-0.1, 0.1, n), j + j.T)
        panel = sample_binary_panel(truth, 250, seed=17, n_burnin=300)
        st = window_stats(panel)
        cfg = InferenceConfig(ridge=1e-4)
        for fn in (infer_nmf, infer_tap, infer_ip, infer_sm):
            res = fn(st, cfg)
            assert np.all(np.isfinite(res.params.h))
            assert np.all(np.isfinite(res.params.J))
            np.testing.assert_array_equal(res.params.J, res.params.J.T)
