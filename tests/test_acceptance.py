"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -s -v`).

The criteria combine exact oracles (exhaustive enumeration, spanning-tree
brute force), planted-model round trips, and statistical reproductions of
the qualitative behaviors the library is built to exhibit.  Every
tolerance is stated inline; randomness is fully seeded.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (brute_force_max_tree_weight, cutoff_scan,
                      stats_from_moments, stats_from_params, weights_from_edges)
from isingmarket.evaluation import scaling_exponents, subset_coupling_scan
from isingmarket.inference import (InferenceConfig, infer_exact, infer_ip,
                                   infer_nmf, infer_sm, infer_tap)
from isingmarket.model import (IsingParams, boltzmann_distribution, energy_split,
                               exact_moments_small, metropolis_sample)
from isingmarket.network import mst_result, spectral_truncation
from isingmarket.panels import Panel, binarize, log_returns, shuffle_window, windows
from isingmarket.stats import window_stats
from isingmarket.synthetic import (random_model, sample_binary_panel,
                                   synthetic_tickers)


@contextmanager
def criterion(num: int, name: str):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[criterion {num:02d}] {name}: FAIL "
              f"({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"\n[criterion {num:02d}] {name}: PASS "
          f"({time.perf_counter() - t0:.1f}s)")


def upper(j):
    return j[np.triu_indices(j.shape[0], k=1)]


def random_bounded_model(seed_seq, n=4):
    rng = np.random.default_rng(seed_seq)
    h = rng.uniform(-1, 1, n)
    j = np.triu(rng.uniform(-1, 1, (n, n)), 1)
    return IsingParams(h, j + j.T)


@pytest.mark.slow
def test_criterion_01_sampler_matches_exhaustive_oracle():
    """50 random N=4 models: sampled moments within 3 MC standard errors of
    the exhaustive oracle, 16-state total variation < 0.01, under 2 min."""
    with criterion(1, "Metropolis sampler vs exhaustive oracle"):
        t0 = time.perf_counter()
        root = np.random.SeedSequence(42)
        for kid in root.spawn(50):
            model_seed, sampler_seed = kid.spawn(2)
            params = random_bounded_model(model_seed)
            exact = exact_moments_small(params)
            # 4000 chains x 250 recorded sweeps = 1e6 samples, warm-started
            # from the enumerated distribution (multimodal instances at
            # these coupling strengths cannot cross modes by single flips)
            samp = metropolis_sample(params, n_sweeps=250, n_burnin=10,
                                     n_chains=4000, seed=sampler_seed,
                                     track_states=True, init="exact")
            assert samp.sample_count == 1_000_000
            z_means = np.abs(samp.means - exact.means) / samp.se_means
            iu = np.triu_indices(params.n, k=1)
            z_pairs = (np.abs(samp.pair_moments - exact.pair_moments)[iu]
                       / samp.se_pairs[iu])
            assert z_means.max() < 3.0, f"mean z={z_means.max():.2f}"
            assert z_pairs.max() < 3.0, f"pair z={z_pairs.max():.2f}"
            emp = samp.state_counts / samp.state_counts.sum()
            tv = 0.5 * np.abs(emp - boltzmann_distribution(params)).sum()
            assert tv < 0.01, f"tv={tv:.4f}"
        assert time.perf_counter() - t0 < 120.0


@pytest.mark.slow
def test_criterion_02_exact_learning_fixed_point():
    """Planted N=8 model: exact-moment loop recovers parameters to 1e-3
    max-abs; 50000-sample Monte Carlo loop reaches Pearson(J) > 0.98 in
    under 5 min."""
    with criterion(2, "iterative learning recovers a planted model"):
        t0 = time.perf_counter()
        truth = random_model(8, h_scale=0.3, j_scale=0.15, seed=11)
        data = stats_from_params(truth)

        cfg_exact = InferenceConfig(method="exact", eta_h=0.2, eta_j=0.2,
                                    eta_decay=1.0, tol=1e-9, max_iters=5000)
        res = infer_exact(data, cfg_exact)
        assert res.converged
        assert np.abs(res.params.h - truth.h).max() <= 1e-3
        assert np.abs(res.params.J - truth.J).max() <= 1e-3

        cfg_mc = InferenceConfig(method="exact", eta_h=0.1, eta_j=0.1,
                                 eta_decay=0.995, tol=1e-5, max_iters=300,
                                 exact_max_n=0, mc_chains=500, mc_sweeps=100,
                                 mc_burnin=60, seed=123)
        res_mc = infer_exact(data, cfg_mc)
        r = np.corrcoef(upper(truth.J), upper(res_mc.params.J))[0, 1]
        assert r > 0.98, f"pearson={r:.4f}"
        assert time.perf_counter() - t0 < 300.0


def test_criterion_03_closed_form_exactness_two_spins():
    """IP and SM recover a planted N=2 coupling to 1e-10 from exhaustive
    moments at any magnetization; TAP equals nMF exactly at zero mean."""
    with criterion(3, "closed-form exactness at N=2"):
        t0 = time.perf_counter()
        cfg = InferenceConfig()
        for h in ((0.0, 0.0), (0.3, -0.6), (0.8, 0.5), (-0.9, 0.2)):
            for j in (0.15, -0.3, 0.45):
                coupling = np.array([[0.0, j], [j, 0.0]])
                planted = IsingParams(np.asarray(h), coupling)
                st = stats_from_params(planted)
                for fn in (infer_ip, infer_sm):
                    got = fn(st, cfg).params.J[0, 1]
                    assert abs(got - j) <= 1e-10, f"{fn.__name__}: {got} vs {j}"
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 40))
        cov = a @ a.T / 40
        d = np.sqrt(np.diag(cov))
        st0 = stats_from_moments(np.zeros(6), cov / np.outer(d, d))
        np.testing.assert_array_equal(infer_tap(st0, cfg).params.J,
                                      infer_nmf(st0, cfg).params.J)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_04_outlier_bias_shape():
    """Planted N=20 model with strong positive outlier couplings: the
    mean-field inversions overestimate the top-decile couplings while the
    small-correlation expansion's bias is smaller, in a majority of 10
    seeds."""
    with criterion(4, "mean-field outlier bias vs small-correlation fix"):
        wins = 0
        cfg = InferenceConfig()
        for seed in range(1000, 1010):
            rng = np.random.default_rng(seed)
            n, t = 20, 2000
            j = np.triu(rng.normal(0.0, 0.03, (n, n)), 1)
            iu = np.triu_indices(n, 1)
            strong = rng.permutation(len(iu[0]))[:8]
            j[iu[0][strong], iu[1][strong]] = 0.25
            truth = IsingParams(rng.uniform(-0.1, 0.1, n), j + j.T)
            panel = sample_binary_panel(truth, t, seed=seed + 1, n_burnin=150)
            st = window_stats(panel)
            true_flat = truth.J[iu]
            top = np.argsort(true_flat)[::-1][: len(true_flat) // 10]

            def top_bias(estimated):
                return float((estimated[iu][top] - true_flat[top]).mean())

            b_nmf = top_bias(infer_nmf(st, cfg).params.J)
            b_tap = top_bias(infer_tap(st, cfg).params.J)
            b_sm = top_bias(infer_sm(st, cfg).params.J)
            wins += (b_nmf > 0 and b_tap > 0
                     and abs(b_sm) < abs(b_nmf) and abs(b_sm) < abs(b_tap))
        assert wins >= 6, f"only {wins}/10 seeds show the expected shape"


def test_criterion_05_mst_correctness():
    """Spanning trees match brute-force maxima on 200 random small graphs;
    clustering quality hand cases and bounds hold exactly."""
    with criterion(5, "maximum spanning tree vs brute force"):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            w = rng.normal(size=(n, n))
            w = (w + w.T) / 2
            np.fill_diagonal(w, 0.0)
            total = sum(wt for _, _, wt in mst_result(w, ["A"] * n).edges)
            assert abs(total - brute_force_max_tree_weight(w)) <= 1e-10

        chain = [(i, i + 1, 1.0) for i in range(3)]
        w = weights_from_edges(4, chain)
        assert mst_result(w, ["A", "A", "B", "B"]).edges == chain
        assert mst_result(w, ["A", "A", "B", "B"]).q_mst == 1.0
        assert mst_result(w, ["A", "B", "A", "B"]).q_mst == 0.5

        w = rng.normal(size=(12, 12))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        for _ in range(1000):
            labels = [f"S{k}" for k in rng.integers(0, 4, size=12)]
            q = mst_result(w, labels).q_mst
            m = len(set(labels))
            assert m / 12 - 1e-12 <= q <= 1.0 + 1e-12


def _block_cutoff_trial(seed: int):
    n, n_sectors, a, t = 24, 3, 0.055, 220
    per = n // n_sectors
    labels = [f"SEC{k}" for k in range(n_sectors) for _ in range(per)]
    same = np.equal.outer(labels, labels)
    j = np.where(same, a, 0.0)
    np.fill_diagonal(j, 0.0)
    truth = IsingParams(np.zeros(n), j)
    panel = sample_binary_panel(truth, t, seed=seed, n_burnin=150)
    jest = infer_nmf(window_stats(panel), InferenceConfig()).params.J

    base = mst_result(jest, labels).q_mst
    vals = upper(jest)
    drop_top = base - cutoff_scan(
        jest, labels, [np.quantile(vals, 0.95)], "discard_above")[0].q_mst
    drop_neg = base - cutoff_scan(
        jest, labels, [np.median(vals[vals < 0])], "discard_below")[0].q_mst

    lam = np.sort(np.linalg.eigvalsh(jest))[::-1]
    th = (lam[2] + lam[3]) / 2
    q_eig = cutoff_scan(jest, labels, [th], "discard_above", eigen=True)[0].q_mst
    truncated = spectral_truncation(jest, th, "discard_above")
    rng = np.random.default_rng(seed * 7919 + 13)
    randomized = np.array([
        mst_result(truncated, [labels[i] for i in rng.permutation(n)]).q_mst
        for _ in range(200)])
    band_top = randomized.mean() + 2 * randomized.std()
    return drop_top > drop_neg, (base > band_top and q_eig < band_top)


def test_criterion_06_cutoff_analysis_on_planted_blocks():
    """Planted 3-block model: excluding the strongest 5% of couplings costs
    more clustering quality than excluding the weaker half of the negative
    ones, and truncating the top 3 eigenmodes pushes quality into the band
    of random sector assignments (mean + 2 sigma).  Majority over 10
    seeds."""
    with criterion(6, "coupling/eigenmode cutoffs destroy block clustering"):
        results = [_block_cutoff_trial(seed) for seed in range(1000, 1010)]
        coupling_wins = sum(a for a, _ in results)
        eigen_wins = sum(b for _, b in results)
        assert coupling_wins >= 6, f"coupling clause: {coupling_wins}/10"
        assert eigen_wins >= 6, f"eigen clause: {eigen_wins}/10"


def test_criterion_07_shuffled_baseline():
    """Within-window shuffling preserves per-series means bit-exactly and
    drives the mean inferred coupling to zero within 2 standard errors."""
    with criterion(7, "shuffled panels lose their mean coupling"):
        rng = np.random.default_rng(5)
        n = 16
        j = np.triu(rng.normal(0.04, 0.05, (n, n)), 1)
        truth = IsingParams(rng.uniform(-0.2, 0.2, n), j + j.T)
        panel = sample_binary_panel(truth, 1500, seed=6, n_burnin=150)
        cfg = InferenceConfig()
        base = upper(infer_nmf(window_stats(panel), cfg).params.J).mean()
        means0 = panel.mean(axis=1)
        shuffled_means = []
        for seed in range(60):
            shuffled = shuffle_window(panel, seed)
            # +-1 sums are integer-exact, so means survive reordering bit-for-bit
            assert np.array_equal(shuffled.mean(axis=1), means0)
            shuffled_means.append(
                upper(infer_nmf(window_stats(shuffled), cfg).params.J).mean())
        shuffled_means = np.asarray(shuffled_means)
        se = shuffled_means.std(ddof=1) / np.sqrt(len(shuffled_means))
        assert abs(shuffled_means.mean()) <= 2 * se
        assert base > 10 * se  # the unshuffled panel carries real coupling mass


def planted_moments_source(n_sub: int) -> IsingParams:
    # field vector with exactly known moment scaling: mean n^-0.75,
    # population std n^0.5, kurtosis excess -2 (size-independent)
    alt = np.resize([1.0, -1.0], n_sub)
    return IsingParams(n_sub**-0.75 + n_sub**0.5 * alt,
                       np.zeros((n_sub, n_sub)))


def test_criterion_08_scaling_machinery():
    """Planted power laws with exponents {-0.75, 0, 0.5} are recovered
    within two fit standard errors; the fixed-subset scan at its smallest
    total is bit-identical to direct subset inference."""
    with criterion(8, "scaling exponents and fixed-subset identity"):
        rng = np.random.default_rng(8)
        steps = 60
        values = np.sign(rng.normal(size=(40, steps)))
        panel = Panel(synthetic_tickers(40), tuple(f"d{t:05d}" for t in range(steps)),
                      values, "binary")
        report = scaling_exponents(panel.values[:, -50:],
                                   sizes=[10, 20, 40], repeats=5,
                                   fit=lambda w: planted_moments_source(w.shape[0]),
                                   seed=21)
        for moment, target in (("mean", -0.75), ("std", 0.5), ("kurt", 0.0)):
            fit = report.h[moment]
            tol = max(2 * fit.alpha_se, 1e-9)
            assert abs(fit.alpha - target) <= tol, (moment, fit.alpha)

        truth = random_model(30, 0.1, 0.08, seed=9)
        bin_panel = Panel(
            synthetic_tickers(30), tuple(f"d{t:05d}" for t in range(700)),
            sample_binary_panel(truth, 700, seed=10), "binary")
        subset = list(range(5, 25))  # a fixed subset of 20
        scan = subset_coupling_scan(bin_panel.values[:, -700:],
                                    subset, totals=[20], seed=12)
        direct = infer_nmf(
            window_stats(bin_panel.values[np.asarray(subset), -700:]),
            InferenceConfig()).params.J
        assert np.array_equal(scan.entries[0].couplings, direct)


def test_criterion_09_binarization_pipeline_sanity():
    """Synthetic geometric-Brownian prices: windowed mean raw and mean
    binary returns correlate above 0.8, and the binary covariance diagonal
    equals 1 - mean^2 to 1e-12."""
    with criterion(9, "binarization preserves windowed market trends"):
        rng = np.random.default_rng(0)
        n, days = 20, 2501
        t = np.arange(days - 1)
        drift = 0.0002 + 0.004 * np.sin(2 * np.pi * t / 400)
        r = drift + 0.01 * rng.standard_normal((n, days - 1))
        log_prices = np.cumsum(np.concatenate([np.zeros((n, 1)), r], axis=1),
                               axis=1)
        prices = Panel(synthetic_tickers(n),
                       tuple(f"d{k:05d}" for k in range(days)),
                       100.0 * np.exp(log_prices), "price")
        raw = log_returns(prices)
        binary = binarize(raw)
        mean_raw = [w.mean() for _, w in windows(raw, 250, 10)]
        mean_bin = [w.mean() for _, w in windows(binary, 250, 10)]
        corr = np.corrcoef(mean_raw, mean_bin)[0, 1]
        assert corr > 0.8, f"corr={corr:.3f}"

        st = window_stats(next(windows(binary, 250))[1])
        np.testing.assert_allclose(np.diag(st.covariance), 1.0 - st.means**2,
                                   atol=1e-12)


def test_criterion_10_energy_split_identity():
    """External plus internal energy reproduces the mean-field energy to
    1e-10 on random parameters; zero fields give exactly zero external
    energy."""
    with criterion(10, "external/internal energy decomposition"):
        rng = np.random.default_rng(13)
        for _ in range(50):
            params = random_model(8, 1.0, 1.0, seed=int(rng.integers(1 << 30)))
            m = rng.uniform(-1, 1, 8)
            split = energy_split(params, m)
            total = -(m @ params.h) - m @ params.J @ m
            assert abs(split.e_ext + split.e_int - total) <= 1e-10
        zero_h = IsingParams(np.zeros(5),
                             random_model(5, 0.0, 0.5, seed=14).J)
        split = energy_split(zero_h, rng.uniform(-1, 1, 5))
        assert split.e_ext == 0.0
        assert split.energy_ratio == 0.0
