import json

import numpy as np
import pytest

from isingmarket.inference import InferenceConfig, infer_nmf
from isingmarket.model import IsingParams, params_from_json
from isingmarket.network import mst_result
from isingmarket.panels import binarize, load_price_csv, log_returns
from isingmarket.stats import window_stats
from isingmarket.synthetic import (BlockSpec, block_model, generate_synthetic,
                                   prices_from_signs, random_model,
                                   sample_binary_panel, trading_dates)


class TestBlockModel:
    def test_structure(self):
        params, sectors = block_model(BlockSpec(12, 3, j_intra=0.2, j_inter=0.05),
                                      seed=0)
        assert params.n == 12
        assert params.J[0, 1] == 0.2      # same sector
        assert params.J[0, 4] == 0.05     # across sectors
        assert np.all(np.diag(params.J) == 0.0)
        assert len(sectors.sectors) == 3
        assert sectors.mapping["S000"] == "SEC0"

    def test_block_size_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            BlockSpec(10, 3, 0.1)


class TestSampling:
    def test_free_model_has_no_cross_correlations(self):
        params = IsingParams(np.zeros(6), np.zeros((6, 6)))
        panel = sample_binary_panel(params, 4000, seed=1)
        cov = np.cov(panel, bias=True)
        off = cov[~np.eye(6, dtype=bool)]
        assert np.abs(off).max() < 4 / np.sqrt(4000 / 2)

    def test_single_spin_mean_tracks_field(self):
        params = IsingParams(np.array([0.5]), np.zeros((1, 1)))
        panel = sample_binary_panel(params, 20_000, seed=2)
        se = np.sqrt((1 - np.tanh(0.5) ** 2) / 20_000) * 3  # iid bound
        assert abs(panel.mean() - np.tanh(0.5)) < 5 * se

    def test_days_are_independent_draws(self):
        # each day is its own chain, so the daily mean spin of a strongly
        # coupled block model carries no memory from one day to the next
        params = block_model(BlockSpec(24, 3, 0.08, 0.0, 0.05), seed=1)[0]
        panel = sample_binary_panel(params, 1000, seed=2)
        assert panel.shape == (24, 1000)
        assert np.all(np.abs(panel) == 1.0)
        daily = panel.mean(axis=0) - panel.mean()
        lag1 = daily[:-1] @ daily[1:] / (daily @ daily)
        assert abs(lag1) < 3 / np.sqrt(1000)


class TestGenerateSynthetic:
    def test_round_trip_preserves_signs(self, tmp_path):
        truth = random_model(5, 0.2, 0.1, seed=3)
        prices_path = tmp_path / "prices.csv"
        truth_path = tmp_path / "truth.json"
        generate_synthetic(prices_path, truth_path, n_days=301, model=truth,
                           seed=4)
        panel, dropped = load_price_csv(prices_path)
        assert not dropped
        assert panel.n_days == 301
        binary = binarize(log_returns(panel))
        # the emitted prices encode exactly the sampled spin panel
        regenerated = sample_binary_panel(truth, 300, seed=4)
        np.testing.assert_array_equal(binary.values, regenerated)
        loaded = params_from_json(truth_path.read_bytes())
        np.testing.assert_array_equal(loaded.J, truth.J)

    def test_block_spec_writes_sectors(self, tmp_path):
        spec = BlockSpec(9, 3, j_intra=0.15)
        generate_synthetic(tmp_path / "p.csv", tmp_path / "t.json", n_days=50,
                           model=spec, seed=5, out_sectors=tmp_path / "s.csv")
        text = (tmp_path / "s.csv").read_text()
        assert text.splitlines()[0] == "ticker,name,sector"
        assert len(text.splitlines()) == 10
        truth = json.loads((tmp_path / "t.json").read_text())
        assert len(truth["h"]) == 9

    def test_planted_blocks_recovered_end_to_end(self, tmp_path):
        # full path: planted model -> prices -> returns -> binarize ->
        # window stats -> inference -> spanning tree clustering
        spec = BlockSpec(18, 3, j_intra=0.12, j_inter=0.0)
        generate_synthetic(tmp_path / "p.csv", tmp_path / "t.json", n_days=2501,
                           model=spec, seed=6, out_sectors=tmp_path / "s.csv")
        panel, _ = load_price_csv(tmp_path / "p.csv")
        binary = binarize(log_returns(panel))
        res = infer_nmf(window_stats(binary.values), InferenceConfig())
        _, sectors = block_model(spec, seed=np.random.SeedSequence(6).spawn(2)[0])
        labels = sectors.labels_for(panel.tickers)
        assert mst_result(res.params.J, labels).q_mst >= 0.85

    def test_dates_ascend(self):
        dates = trading_dates(100)
        assert all(a < b for a, b in zip(dates, dates[1:]))

    def test_price_paths_positive(self):
        signs = np.sign(np.random.default_rng(7).normal(size=(3, 50)))
        prices = prices_from_signs(signs)
        assert prices.shape == (3, 51)
        assert np.all(prices > 0)
