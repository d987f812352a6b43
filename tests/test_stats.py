import json
import logging
import re

import numpy as np
import pytest

from isingmarket import stats as stats_module
from isingmarket.panels import standardize_window
from isingmarket.pipeline import RunConfig, run
from isingmarket.model import third_order_from_samples
from isingmarket.stats import (bootstrap_ci, dft_amplitudes, eigen_csv_rows,
                               moment_summary, off_diagonal_summary,
                               off_diagonal_values, stats_csv_rows, window_stats)


def stage_moments(x):
    """Per-series moments as the stats stage writes them, keyed by stat."""
    columns = {}
    for _, _, stat, value, _, _ in stats_csv_rows("d", range(len(x)), x):
        columns.setdefault(stat, []).append(value)
    return {stat: np.array(values) for stat, values in columns.items()}


def spectrum(cov):
    """Every covariance eigenvalue as the stats stage writes them."""
    return np.array([value for _, _, value in eigen_csv_rows("d", cov, len(cov))])


def emitted_correlation(tmp_path, returns):
    """Correlation matrix that `stats --emit-matrices` writes for one window
    spanning the given (N, T) log returns."""
    n, t = returns.shape
    prices = 100.0 * np.exp(np.concatenate([np.zeros((n, 1)),
                                            np.cumsum(returns, axis=1)], axis=1))
    path = tmp_path / "prices.csv"
    path.write_text("date," + ",".join(f"S{i}" for i in range(n)) + "\n" + "".join(
        f"d{d:04d}," + ",".join(repr(float(v)) for v in prices[:, d]) + "\n"
        for d in range(t + 1)))
    run(RunConfig(prices=str(path), out_dir=str(tmp_path / "out"), kind="raw",
                  window_size=t, stages=("stats",), emit_matrices=True))
    [corr] = (tmp_path / "out" / "stats" / "matrices").glob("*_corr.json")
    return np.asarray(json.loads(corr.read_text())["matrix"])


class TestWindowStats:
    def test_fair_binary_series(self):
        # exactly half +1: closed-form moments of a fair +-1 variable
        x = np.array([[1.0, -1.0] * 50])
        st = window_stats(x)
        assert st.means[0] == 0.0
        assert st.covariance[0, 0] == 1.0
        moments = stage_moments(x)
        assert moments["skew"][0] == 0.0
        assert moments["kurt"][0] == -2.0

    @pytest.mark.parametrize("t", [2, 7, 250, 1001])
    def test_binary_series_closed_forms(self, t):
        # a +-1 series with mean m has skew -2m/sqrt(1-m^2) and excess
        # kurtosis (1+3m^2)/(1-m^2) - 3; one row per count of +1 days.
        # Kurtosis is compared before the -3, whose cancellation near
        # m^2 = 1/3 leaves no relative precision to test.
        ups = np.arange(1, t)
        x = np.where(np.arange(t) < ups[:, None], 1.0, -1.0)
        np.random.default_rng(t).permuted(x, axis=1, out=x)
        moments = stage_moments(x)
        m = (2.0 * ups - t) / t
        np.testing.assert_allclose(moments["skew"], -2.0 * m / np.sqrt(1.0 - m * m),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(moments["kurt"] + 3.0,
                                   (1.0 + 3.0 * m * m) / (1.0 - m * m),
                                   rtol=1e-12, atol=0)

    def test_stage_rows_follow_window_moments(self):
        rng = np.random.default_rng(8)
        x = np.sign(rng.normal(0.2, 1.0, size=(5, 250)))
        rows = stats_csv_rows("d", list("ABCDE"), x)
        assert [r[1:3] for r in rows[:8]] == [
            ("A", "mean"), ("A", "vol"), ("A", "skew"), ("A", "kurt"),
            ("B", "mean"), ("B", "vol"), ("B", "skew"), ("B", "kurt")]
        st = window_stats(x)
        moments = stage_moments(x)
        np.testing.assert_array_equal(moments["mean"], st.means)
        np.testing.assert_allclose(moments["vol"], np.sqrt(np.diag(st.covariance)),
                                   rtol=1e-13)

    def test_identical_pair_fully_correlated(self, tmp_path):
        rng = np.random.default_rng(0)
        row = 0.01 * rng.normal(size=200)
        corr = emitted_correlation(tmp_path, np.stack([row, row]))
        np.testing.assert_allclose(corr[0, 1], 1.0, atol=1e-12)

    def test_gaussian_window_moments_inside_bootstrap_ci(self):
        # sampling oracle: skew and kurt of a large normal sample should be
        # statistically indistinguishable from zero
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 10_000))
        moments = stage_moments(x)
        for stat in ("skew", "kurt"):
            lo, hi = bootstrap_ci(x[0], stat, n_resamples=500, level=0.95, seed=5)
            assert lo <= moments[stat][0] <= hi
            assert lo < 0.0 < hi

    def test_zero_variance_series_named(self):
        x = np.vstack([np.ones(10), np.arange(10.0)])
        with pytest.raises(ValueError, match="series 0"):
            window_stats(x)
        with pytest.raises(ValueError, match="AAA"):
            window_stats(x, ["AAA", "BBB"])

    def test_correlation_matches_standardized_covariance(self, tmp_path):
        rng = np.random.default_rng(2)
        corr = emitted_correlation(tmp_path, 0.01 * rng.normal(size=(5, 300)))
        prices = np.loadtxt(tmp_path / "prices.csv", delimiter=",", skiprows=1,
                            usecols=range(1, 6)).T
        z = standardize_window(np.diff(np.log(prices), axis=1))
        np.testing.assert_allclose(corr, z @ z.T / z.shape[1], atol=1e-8)

    def test_binary_variance_identity_exact(self):
        rng = np.random.default_rng(3)
        x = np.sign(rng.normal(0.3, 1.0, size=(6, 500)))
        st = window_stats(x)
        np.testing.assert_allclose(np.diag(st.covariance), 1.0 - st.means**2,
                                   atol=1e-15)

    def test_covariance_psd_when_t_exceeds_n(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 50))
        lam = spectrum(window_stats(x).covariance)
        assert lam.min() >= -1e-10 * lam.max()

    def test_eigen_sum_matches_trace(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(7, 60))
        st = window_stats(x)
        np.testing.assert_allclose(spectrum(st.covariance).sum(),
                                   np.trace(st.covariance), atol=1e-8)

    def test_third_order_symmetric(self):
        rng = np.random.default_rng(7)
        t = third_order_from_samples(rng.normal(size=(80, 4)))
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            np.testing.assert_allclose(t, np.transpose(t, perm), atol=1e-12)

    def test_third_order_guard(self):
        with pytest.raises(ValueError, match="limited"):
            third_order_from_samples(np.zeros((10, 200)))


class TestOffDiagonalSummary:
    def test_two_by_two(self):
        s = off_diagonal_summary(np.array([[1.0, 0.3], [0.3, 1.0]]))
        assert s.mean == 0.3
        assert s.std == 0.0
        assert s.degenerate

    def test_zero_matrix_flags_undefined(self):
        s = off_diagonal_summary(np.zeros((3, 3)))
        assert s.mean == 0.0 and s.std == 0.0
        assert np.isnan(s.skew) and np.isnan(s.kurt)

    def test_matches_bruteforce_extraction(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(6, 6))
        m = (m + m.T) / 2
        s = off_diagonal_summary(m)
        vals = [m[i, j] for i in range(6) for j in range(i + 1, 6)]
        vals = np.asarray(vals)
        np.testing.assert_allclose(s.mean, vals.mean(), rtol=1e-12)
        np.testing.assert_allclose(s.std, vals.std(), rtol=1e-12)
        np.testing.assert_allclose(
            s.skew, ((vals - vals.mean()) ** 3).mean() / vals.std() ** 3, rtol=1e-12)
        np.testing.assert_allclose(
            s.kurt, ((vals - vals.mean()) ** 4).mean() / vals.std() ** 4 - 3, rtol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            off_diagonal_values(np.array([[0.0, 1.0], [2.0, 0.0]]))


def per_resample_bootstrap(values, statistic, n_resamples, level, seed):
    """Reference bootstrap: one resample at a time, powers through `**`.

    Returns the interval and the number of zero-spread resamples redrawn.
    """
    v = np.asarray(values, dtype=np.float64)

    def moment(s, power):
        sd = s.std()
        if sd == 0.0:
            return float("nan")
        return float(((s - s.mean()) ** power).mean() / sd**power)

    fn = {"mean": lambda s: float(s.mean()), "std": lambda s: float(s.std()),
          "skew": lambda s: moment(s, 3), "kurt": lambda s: moment(s, 4) - 3.0}
    rng = np.random.default_rng(seed)
    out = []
    redraws = 0
    while len(out) < n_resamples:
        stat = fn[statistic](v[rng.integers(0, v.size, v.size)])
        if np.isnan(stat):
            redraws += 1
        else:
            out.append(stat)
    lo, hi = np.percentile(out, [100 * (1 - level) / 2, 100 * (1 + level) / 2])
    return (float(lo), float(hi)), redraws


def logged_redraws(caplog) -> int:
    counts = [int(re.search(r"redrew (\d+)", r.getMessage()).group(1))
              for r in caplog.records if "redrew" in r.getMessage()]
    assert len(counts) <= 1
    return counts[0] if counts else 0


def assert_matches_reference(values, statistic, n_resamples, level, seed, caplog):
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="isingmarket.stats"):
        got = bootstrap_ci(values, statistic, n_resamples, level, seed=seed)
    want, redraws = per_resample_bootstrap(values, statistic, n_resamples, level, seed)
    if statistic in ("mean", "std"):
        assert got == want
    else:
        # skew/kurt are scale-free; atol covers bounds that are zero up to
        # rounding (e.g. the skew of a symmetric two-point resample)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
    assert logged_redraws(caplog) == redraws
    return redraws


def reference_collections(count=200, seed=15):
    """Normal, heavy-tailed, rounded (tied) and two-valued collections of
    2-3000 values, log-uniform in size; the two-valued ones hold one or two
    1s among 0s, so many resamples have zero spread."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(np.exp(rng.uniform(np.log(2), np.log(3001))))
        kind = k % 4
        if kind == 0:
            v = rng.normal(size=n)
        elif kind == 1:
            v = rng.standard_t(2, size=n) * 10.0 ** int(rng.integers(-3, 4))
        elif kind == 2:
            v = np.round(rng.normal(size=n), 1)
        else:
            v = np.zeros(n)
            v[rng.choice(n, size=min(2, n - 1), replace=False)] = 1.0
        yield k, v


class TestBootstrap:
    def test_matches_per_resample_reference(self, caplog):
        total_redraws = 0
        for k, v in reference_collections():
            for i, name in enumerate(("mean", "std", "skew", "kurt")):
                total_redraws += assert_matches_reference(
                    v, name, 100 + k % 7, 0.9, 1000 * k + i, caplog)
        assert total_redraws > 1000

    def test_redraws_across_block_boundaries(self, caplog, monkeypatch):
        # 3000 values, one of them 1: about 37% of resamples are all zeros
        v = np.zeros(3000)
        v[17] = 1.0
        rows = stats_module._BLOCK_VALUES // v.size
        assert 1 < rows < 103 and 103 % rows
        assert assert_matches_reference(v, "skew", 103, 0.95, 3, caplog) > 3 * rows
        # blocks of 3 rows over 4 values, 101 resamples
        monkeypatch.setattr(stats_module, "_BLOCK_VALUES", 12)
        w = np.array([2.5, 2.5, 2.5, -1.0])
        for seed in range(5):
            for name in ("std", "kurt"):
                assert_matches_reference(w, name, 101, 0.8, seed, caplog)

    def test_non_finite_values_rejected(self):
        for bad in ([1.0, np.nan, 2.0], [1.0, np.inf, 2.0], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="non-finite"):
                bootstrap_ci(bad, "mean", 100, seed=0)
            with pytest.raises(ValueError, match="non-finite"):
                moment_summary(bad)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_level_outside_unit_interval_rejected(self, level):
        with pytest.raises(ValueError, match="level"):
            bootstrap_ci([1.0, 2.0, 4.0], "mean", 100, level=level, seed=0)
        with pytest.raises(ValueError, match="level"):
            moment_summary([1.0, 2.0, 4.0], n_boot=100, level=level, seed=0)

    def test_constant_collection_zero_width(self):
        lo, hi = bootstrap_ci(np.full(50, 3.25), "mean", 200, seed=0)
        assert lo == hi == 3.25

    def test_percentile_definition(self):
        values = np.random.default_rng(9).normal(size=120)
        lo, hi = bootstrap_ci(values, "mean", 1000, level=0.95, seed=42)
        # replay the exact resampling stream
        rng = np.random.default_rng(42)
        boot = np.array([values[rng.integers(0, 120, 120)].mean() for _ in range(1000)])
        np.testing.assert_allclose([lo, hi], np.percentile(boot, [2.5, 97.5]),
                                   rtol=1e-12)

    def test_mean_interval_coverage(self):
        # repeated-trial oracle: the 95% interval for the mean of a standard
        # normal sample should cover zero about 95% of the time
        rng = np.random.default_rng(10)
        covered = 0
        trials = 120
        for t in range(trials):
            sample = rng.standard_normal(1000)
            lo, hi = bootstrap_ci(sample, "mean", 300, level=0.95, seed=t)
            covered += lo <= 0.0 <= hi
        assert 0.88 <= covered / trials <= 0.99

    def test_degenerate_statistic_eventually_errors(self):
        with pytest.raises(ValueError, match="undefined"):
            bootstrap_ci(np.ones(10), "skew", 100, seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], "mean", 50)
        with pytest.raises(ValueError):
            bootstrap_ci([], "mean", 100)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], "median", 100)


class TestDftAmplitudes:
    def test_constant_series(self):
        amps = dft_amplitudes(np.full(16, 2.5))
        assert amps[0] == pytest.approx(2.5)
        np.testing.assert_allclose(amps[1:], 0.0, atol=1e-12)

    def test_cosine_peaks_at_its_bin(self):
        length, k = 64, 5
        x = np.cos(2 * np.pi * k * np.arange(length) / length)
        amps = dft_amplitudes(x)
        assert amps.argmax() == k
        assert amps[k] == pytest.approx(0.5, rel=1e-10)
        assert len(amps) == length // 2 + 1

    def test_invariant_under_circular_shift(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=101)
        base = dft_amplitudes(x)
        for shift in rng.integers(1, 100, size=5):
            np.testing.assert_allclose(dft_amplitudes(np.roll(x, shift)), base,
                                       atol=1e-10)


class TestEigenTop:
    """Covariance eigenvalues written to `stats/eigen.csv`."""

    def test_identity_correlation(self):
        # rows of a Sylvester-Hadamard matrix past the first are zero-mean and
        # orthogonal, so their population covariance is the identity
        h = np.array([[1.0]])
        for _ in range(3):
            h = np.block([[h, h], [h, -h]])
        st = window_stats(h[1:5])
        np.testing.assert_allclose(spectrum(st.covariance), 1.0, atol=1e-12)

    def test_rank_one_matrix(self):
        v = np.array([1.0, -1.0, 1.0, 1.0])  # |v|^2 = N
        z = np.tile([1.0, -1.0], 50)         # mean 0, population variance 1
        lam = spectrum(window_stats(np.outer(v, z)).covariance)
        assert lam[0] == pytest.approx(4.0)
        np.testing.assert_allclose(lam[1:], 0.0, atol=1e-12)

    def test_equicorrelation_closed_form(self):
        # N=4, rho=0.5: top eigenvalue 1+3*rho, the rest 1-rho
        rho = 0.5
        m = np.full((4, 4), rho)
        np.fill_diagonal(m, 1.0)
        np.testing.assert_allclose(spectrum(m), [2.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_from_window_stats(self):
        rng = np.random.default_rng(13)
        st = window_stats(rng.normal(size=(5, 100)))
        np.testing.assert_allclose(spectrum(st.covariance),
                                   np.linalg.eigvalsh(st.covariance)[::-1],
                                   atol=1e-12)

    def test_top_k_rows(self):
        rows = eigen_csv_rows("2001-01-02", np.diag([1.0, 3.0, 2.0]), 2)
        assert rows == [("2001-01-02", 1, 3.0), ("2001-01-02", 2, 2.0)]


class TestMomentSummaryCI:
    def test_summary_with_bootstrap(self):
        rng = np.random.default_rng(14)
        s = moment_summary(rng.normal(size=400), n_boot=200, level=0.9, seed=1)
        assert s.ci is not None and set(s.ci) == {"mean", "std", "skew", "kurt"}
        lo, hi = s.ci["mean"]
        assert lo <= s.mean <= hi
        assert s.ci_level == 0.9
