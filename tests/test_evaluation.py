import numpy as np
import pytest

from isingmarket.evaluation import (compare_methods, fit_power_law, nrmse,
                                    pearson, scaling_exponents,
                                    subset_coupling_scan)
from isingmarket.inference import InferenceConfig, infer_nmf
from isingmarket.model import IsingParams
from isingmarket.panels import Panel
from isingmarket.stats import window_stats
from isingmarket.synthetic import (BlockSpec, block_model, random_model,
                                   sample_binary_panel, synthetic_tickers)


def binary_panel_from(params, n_steps, seed):
    values = sample_binary_panel(params, n_steps, seed=seed, n_burnin=200)
    tickers = params.tickers or synthetic_tickers(params.n)
    dates = tuple(f"d{t:05d}" for t in range(n_steps))
    return Panel(tickers, dates, values, "binary")


class TestNrmse:
    def test_identical_vectors(self):
        y = np.array([1.0, 2.0, 3.0])
        assert nrmse(y, y) == 0.0

    def test_constant_at_reference_mean_is_one(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        x = np.full(4, y.mean())
        assert nrmse(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_common_affine_map(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        base = nrmse(x, y)
        for a, b in ((2.0, 1.0), (-0.5, 3.0), (10.0, -7.0)):
            assert nrmse(a * x + b, a * y + b) == pytest.approx(base, rel=1e-10)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=20)
        y = x.copy()
        y[3] += 1e-6
        assert nrmse(x, x) == 0.0
        assert nrmse(x, y) > 1e-12

    def test_constant_reference_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            nrmse(np.array([1.0, 2.0]), np.array([3.0, 3.0]))


class TestPearson:
    def test_invariant_under_separate_positive_affine_maps(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=40)
        y = x + rng.normal(size=40)
        base = pearson(x, y)
        assert pearson(3 * x + 1, 0.5 * y - 2) == pytest.approx(base, rel=1e-10)

    def test_equal_constants_define_unit_correlation(self):
        assert pearson(np.ones(5), np.ones(5)) == 1.0


class TestCompareMethods:
    def test_identical_params(self):
        p = random_model(4, 0.5, 0.3, seed=3)
        cmp = compare_methods(p, p)
        assert cmp.h.nrmse == 0.0 and cmp.j.nrmse == 0.0
        assert cmp.h.pearson == pytest.approx(1.0)
        assert cmp.j.pearson == pytest.approx(1.0)

    def test_doubled_zero_mean_reference(self):
        # hand computation: x = a, y = 2a with zero-mean a gives
        # nrmse = sqrt(mean(a^2) / (4 var(a))) = 0.5 and perfect correlation
        h = np.array([-1.0, 0.0, 1.0])
        j = np.zeros((3, 3))
        j[0, 1] = j[1, 0] = 0.2
        j[0, 2] = j[2, 0] = -0.2
        a = IsingParams(h, j)
        b = IsingParams(2 * h, 2 * j)
        cmp = compare_methods(a, b)
        assert cmp.h.pearson == pytest.approx(1.0)
        assert cmp.h.nrmse == pytest.approx(0.5, abs=1e-12)
        assert cmp.j.nrmse > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            compare_methods(random_model(3, 0.1, 0.1, seed=4),
                            random_model(4, 0.1, 0.1, seed=5))


class TestFitPowerLaw:
    def test_exact_plants(self):
        sizes = np.array([10, 20, 40, 80])
        for alpha in (-0.75, 0.0, 0.5):
            values = 3.0 * sizes.astype(float) ** alpha
            assert fit_power_law(sizes, values) == pytest.approx(alpha, abs=1e-12)

    def test_negative_values_allowed_with_common_sign(self):
        sizes = np.array([10, 20, 40])
        values = -2.0 * sizes.astype(float) ** 0.3
        assert fit_power_law(sizes, values) == pytest.approx(0.3, abs=1e-12)

    def test_sign_crossing_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            fit_power_law([10, 20, 40], [1.0, -1.0, 1.0])

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            fit_power_law([10, 20, 40], [1.0, 0.0, 1.0])


def planted_moment_params(n_sub: int) -> IsingParams:
    """Parameter source with exactly known moment scaling: the field vector
    has mean n^-0.75, population std n^0.5, skew 0 and kurtosis -2."""
    alt = np.resize([1.0, -1.0], n_sub)
    h = n_sub**-0.75 + n_sub**0.5 * alt
    return IsingParams(h, np.zeros((n_sub, n_sub)))


def coin_panel(n=40, steps=60, seed=6):
    values = np.sign(np.random.default_rng(seed).normal(size=(n, steps)))
    dates = tuple(f"d{t:05d}" for t in range(steps))
    return Panel(synthetic_tickers(n), dates, values, "binary")


# Boltzmann learning that samples at every subset size, on a small budget
SAMPLED_EXACT = InferenceConfig(method="exact", exact_max_n=2, max_iters=3,
                                mc_sweeps=20, mc_chains=4, mc_burnin=5)


class TestScalingExponents:
    def make_panel(self, n=40, steps=60):
        return coin_panel(n, steps)

    def test_sampled_fits_reproducible_for_a_seed(self):
        panel = self.make_panel(n=8)
        tracks = []
        for _ in range(2):
            report = scaling_exponents(panel.values[:, -50:], sizes=[3, 5, 8],
                                       repeats=2, fit=SAMPLED_EXACT, seed=0)
            tracks.append([(fit.alphas, fit.n_excluded)
                           for fits in (report.h, report.j) for fit in fits.values()])
        assert tracks[0] == tracks[1]

    def test_planted_power_laws_recovered(self):
        panel = self.make_panel()
        report = scaling_exponents(
            panel.values[:, -50:], sizes=[10, 20, 40], repeats=4,
            fit=lambda window: planted_moment_params(window.shape[0]),
            seed=0)
        assert report.h["mean"].alpha == pytest.approx(-0.75, abs=1e-9)
        assert report.h["std"].alpha == pytest.approx(0.5, abs=1e-9)
        assert report.h["kurt"].alpha == pytest.approx(0.0, abs=1e-9)
        # skew is exactly zero at every size: excluded, not fabricated
        assert report.h["skew"].n_excluded == 4
        assert np.isnan(report.h["skew"].alpha)
        # couplings were identically zero: every moment excluded
        assert report.j["mean"].n_excluded == 4

    def test_size_independent_std_has_zero_exponent(self):
        panel = self.make_panel()

        def flat_std(window):
            n_sub = window.shape[0]
            alt = np.resize([1.0, -1.0], n_sub)
            return IsingParams(2.0 + alt, np.zeros((n_sub, n_sub)))

        report = scaling_exponents(panel.values[:, -50:],
                                   sizes=[10, 20, 40], repeats=3,
                                   fit=flat_std, seed=1)
        assert report.h["std"].alpha == pytest.approx(0.0, abs=1e-9)

    def test_inference_method_end_to_end(self):
        truth = random_model(24, 0.2, 0.05, seed=7)
        panel = binary_panel_from(truth, 600, seed=8)
        report = scaling_exponents(panel.values[:, -600:],
                                   sizes=[6, 12, 24], repeats=3,
                                   seed=2)
        fit = report.h["std"]
        assert np.isfinite(fit.alpha)
        assert len(fit.alphas) + fit.n_excluded == 3

    def test_needs_three_sizes(self):
        panel = self.make_panel()
        with pytest.raises(ValueError, match="three distinct"):
            scaling_exponents(panel.values[:, -50:], sizes=[10, 20], repeats=2)


class TestSubsetCouplingScan:
    def test_sampled_fits_reproducible_for_a_seed(self):
        panel = coin_panel(n=8, seed=17)
        scans = [subset_coupling_scan(panel.values[:, -50:], [0, 1, 2],
                                      totals=[3, 5, 8], fit=SAMPLED_EXACT, seed=0)
                 for _ in range(2)]
        for a, b in zip(scans[0].entries, scans[1].entries):
            assert a.members == b.members
            np.testing.assert_array_equal(a.couplings, b.couplings)

    def test_single_total_matches_direct_inference(self):
        truth = random_model(30, 0.1, 0.08, seed=9)
        panel = binary_panel_from(truth, 700, seed=10)
        subset = list(range(3, 23))  # 20 tickers
        scan = subset_coupling_scan(panel.values[:, -700:], subset,
                                    totals=[20], seed=11)
        window = panel.values[:, -700:]
        direct = infer_nmf(window_stats(window[np.asarray(subset)]),
                           InferenceConfig()).params.J
        assert np.array_equal(scan.entries[0].couplings, direct)

    def test_totals_validated(self):
        truth = random_model(10, 0.1, 0.05, seed=12)
        panel = binary_panel_from(truth, 200, seed=13)
        with pytest.raises(ValueError, match="exceeds"):
            subset_coupling_scan(panel.values[:, -200:], list(range(5)), totals=[11])
        with pytest.raises(ValueError, match="at least the subset"):
            subset_coupling_scan(panel.values[:, -200:], list(range(5)), totals=[4])

    def test_block_model_extremes_stable_across_totals(self):
        # strongest subset couplings keep their identity as the universe grows
        params, _ = block_model(BlockSpec(n_stocks=30, n_sectors=3,
                                          j_intra=0.12, j_inter=0.0), seed=14)
        panel = binary_panel_from(params, 1500, seed=15)
        subset = [0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23]
        scan = subset_coupling_scan(panel.values[:, -1500:], subset,
                                    totals=[12, 20, 30], seed=16)
        tops = [{(i, j) for i, j, _ in entry.top_pairs} for entry in scan.entries]
        assert len(tops[0] & tops[-1]) >= 8
        # couplings shrink as more of the system is modeled explicitly
        assert scan.entries[-1].mean < scan.entries[0].mean
