import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isingmarket
from conftest import reference_json
from isingmarket.cli import build_parser, main
from isingmarket.model import IsingParams, metropolis_sample, params_from_json, params_to_json
from isingmarket.panels import binarize, load_price_csv, log_returns
from isingmarket.pipeline import (ConfigError, RunConfig, config_from_mapping,
                                  parse_config_file, run)
from isingmarket.synthetic import random_model, sample_binary_panel


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    """Synthetic three-sector market written once for all CLI tests."""
    root = tmp_path_factory.mktemp("market")
    rc = main(["synth", "--out-dir", str(root), "--n-stocks", "12",
               "--n-days", "401", "--n-sectors", "3", "--j-intra", "0.1",
               "--h-scale", "0.05", "--seed", "11"])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def singular_market(tmp_path_factory):
    """60 stocks over 1001 days: at T=40 < N=60 every window's covariance is singular."""
    root = tmp_path_factory.mktemp("singular")
    rc = main(["synth", "--out-dir", str(root), "--n-stocks", "60", "--n-sectors", "3",
               "--j-intra", "0.01", "--n-days", "1001", "--seed", "7"])
    assert rc == 0
    return root


def read_lines(path):
    return Path(path).read_text().splitlines()


class TestSynthAndIngest:
    def test_synth_outputs(self, market):
        assert (market / "prices.csv").exists()
        truth = json.loads((market / "truth.json").read_text())
        assert len(truth["h"]) == 12
        assert (market / "sectors.csv").exists()

    def test_synth_from_given_truth(self, tmp_path):
        # truth.json holds the given parameters bit for bit, no sectors file is
        # written, and the prices binarize to the panel sampled at the seed
        given = random_model(5, 0.3, 0.2, seed=3, tickers=("V", "W", "X", "Y", "Z"))
        (tmp_path / "given.json").write_bytes(params_to_json(given))
        out = tmp_path / "out"
        rc = main(["synth", "--truth", str(tmp_path / "given.json"), "--out-dir", str(out),
                   "--n-days", "41", "--seed", "9"])
        assert rc == 0
        truth = params_from_json((out / "truth.json").read_bytes())
        assert truth.h.tobytes() == given.h.tobytes()
        assert truth.J.tobytes() == given.J.tobytes()
        assert truth.tickers == given.tickers
        assert not (out / "sectors.csv").exists()
        panel, dropped = load_price_csv(out / "prices.csv")
        assert dropped == {} and panel.tickers == given.tickers
        signs = binarize(log_returns(panel)).values
        assert signs.tobytes() == sample_binary_panel(given, 40, seed=9).tobytes()

    def test_ingest_reports(self, market, tmp_path, capsys):
        rc = main(["ingest", "--prices", str(market / "prices.csv"),
                   "--sectors", str(market / "sectors.csv"),
                   "--out-dir", str(tmp_path), "--emit-returns", "binary"])
        assert rc == 0
        report = json.loads((tmp_path / "ingest_report.json").read_text())
        assert report["n_tickers"] == 12
        assert report["dropped"] == {}
        lines = read_lines(tmp_path / "returns_binary.csv")
        assert len(lines) == 401  # header + 400 return rows
        assert "kept 12 tickers" in capsys.readouterr().out

    # five price rows; BBB's blank cell drops it
    DROP_ONE = ("date,AAA,BBB,CCC\n2001-01-01,10.0,5.0,3.0\n2001-01-02,10.5,,3.1\n"
                "2001-01-03,10.1,5.1,3.2\n2001-01-04,10.4,5.2,3.1\n"
                "2001-01-05,10.2,5.0,3.0\n")

    def test_both_ingest_reports_pinned(self, tmp_path):
        prices, sectors = tmp_path / "p.csv", tmp_path / "s.csv"
        prices.write_text(self.DROP_ONE)
        sectors.write_text("ticker,name,sector\nAAA,a,X\nBBB,b,X\nCCC,c,Y\n")
        kept = {"n_rows": 5, "kept": ["AAA", "CCC"],
                "dropped": {"BBB": "missing or non-numeric price on 2001-01-02"}}
        assert main(["ingest", "--prices", str(prices), "--sectors", str(sectors),
                     "--out-dir", str(tmp_path / "ingest")]) == 0
        assert json.loads((tmp_path / "ingest" / "ingest_report.json").read_text()) == {
            **kept, "n_tickers": 2, "n_days": 5, "sectors": {"AAA": "X", "CCC": "Y"}}
        assert main(["run", "--prices", str(prices), "--out-dir", str(tmp_path / "run"),
                     "-T", "4"]) == 0
        assert json.loads((tmp_path / "run" / "ingest_report.json").read_text()) == {
            **kept, "n_return_steps": 4}

    def test_short_sector_row_is_numeric_failure(self, market, tmp_path, capsys):
        short = tmp_path / "s.csv"
        short.write_text("ticker,name,sector\nS000,zero,SEC0\nB,b\n")
        rc = main(["ingest", "--prices", str(market / "prices.csv"),
                   "--sectors", str(short), "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert f"{short}: row 3 has 2 cells, expected 3" in capsys.readouterr().err

    def test_repeated_ticker_is_numeric_failure(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        prices.write_text("date,A,B,A\n2001-01-01,1,2,3\n2001-01-02,1,2,3\n")
        rc = main(["ingest", "--prices", str(prices), "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert f"{prices}: duplicate ticker 'A'" in capsys.readouterr().err

    def test_unordered_dates_are_numeric_failure(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        prices.write_text("date,A,B\n2001-01-02,1,2\n2001-01-01,1,2\n")
        rc = main(["ingest", "--prices", str(prices), "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert (f"{prices}: row 3: date '2001-01-01' does not follow '2001-01-02'"
                in capsys.readouterr().err)


class TestLogLevel:
    PRICES = ("date,AAA,BBB\n2001-01-01,100.0,50.0\n2001-01-02,110.0,50.0\n"
              "2001-01-03,99.0,54.0\n")
    LINE = "INFO isingmarket.panels: binarize: 1 exact-zero returns mapped to +1"

    def ingest(self, tmp_path, *flags):
        """Run `ingest` in a fresh interpreter, whose logging is unconfigured."""
        prices = tmp_path / "flat.csv"
        prices.write_text(self.PRICES)
        env = dict(os.environ, PYTHONPATH=str(Path(isingmarket.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "isingmarket", "ingest", "--prices", str(prices),
             "--emit-returns", "binary", "--out-dir", str(tmp_path), *flags],
            capture_output=True, text=True, env=env, check=True)
        return proc.stderr

    def test_info_line_reaches_stderr(self, tmp_path):
        assert self.LINE in self.ingest(tmp_path, "--log-level", "info")

    def test_quiet_by_default(self, tmp_path):
        assert "binarize" not in self.ingest(tmp_path)
        assert "binarize" not in self.ingest(tmp_path, "--log-level", "warning")

    def test_not_a_config_key(self, market, tmp_path):
        rc = main(["stats", "--prices", str(market / "prices.csv"), "-T", "200",
                   "--stride", "200", "--out-dir", str(tmp_path),
                   "--log-level", "debug"])
        assert rc == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert "log_level" not in config


class TestStatsCommand:
    def test_toy_panel_matches_hand_computation(self, tmp_path):
        # three tickers, four days; moments computed from first principles
        prices = tmp_path / "toy.csv"
        prices.write_text(
            "date,AAA,BBB,CCC\n"
            "2001-01-01,100.0,50.0,10.0\n"
            "2001-01-02,110.0,45.0,10.0\n"
            "2001-01-03,99.0,54.0,11.0\n"
            "2001-01-04,108.9,48.6,12.1\n"
        )
        rc = main(["stats", "--prices", str(prices), "--out-dir", str(tmp_path),
                   "-T", "3", "--kind", "raw", "--seed", "0"])
        assert rc == 0
        rows = {}
        for line in read_lines(tmp_path / "stats" / "stats.csv")[1:]:
            date, series, stat, value = line.split(",")[:4]
            rows[(series, stat)] = float(value)
        # AAA returns: ln(1.1), ln(0.9), ln(1.1); population moments by hand
        a = np.array([np.log(1.1), np.log(0.9), np.log(1.1)])
        assert rows[("AAA", "mean")] == pytest.approx(a.mean(), rel=1e-12)
        # BBB returns: ln(0.9), ln(1.2), ln(0.9)
        b = np.array([np.log(0.9), np.log(1.2), np.log(0.9)])
        assert rows[("BBB", "mean")] == pytest.approx(b.mean(), rel=1e-12)
        assert rows[("BBB", "vol")] == pytest.approx(
            np.sqrt(((b - b.mean()) ** 2).mean()), rel=1e-12)
        # CCC returns: 0, ln(1.1), ln(1.1)
        c = np.array([0.0, np.log(1.1), np.log(1.1)])
        assert rows[("CCC", "skew")] == pytest.approx(
            (((c - c.mean()) / c.std()) ** 3).mean(), rel=1e-10)

    def test_stats_outputs(self, market, tmp_path):
        rc = main(["stats", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "200", "--stride", "100",
                   "--kind", "binary", "--seed", "3"])
        assert rc == 0
        lines = read_lines(tmp_path / "stats" / "stats.csv")
        assert lines[0] == "date,series,stat,value,ci_lo,ci_hi"
        # 3 windows x (12 tickers x 4 stats + 4 offdiag rows)
        assert len(lines) - 1 == 3 * (12 * 4 + 4)
        eig = read_lines(tmp_path / "stats" / "eigen.csv")
        assert len(eig) - 1 == 3 * 4
        assert (tmp_path / "stats" / "dft_mean_return.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["windows"] == 3
        assert manifest["failure"] is None
        assert set(manifest["stages"]) == {"ingest", "windows"}
        assert manifest["inputs"]["sectors"] is None

    def test_standardized_kind_normalizes_each_window(self, market, tmp_path):
        rc = main(["stats", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "200", "--stride", "200",
                   "--kind", "standardized", "--seed", "1"])
        assert rc == 0
        for line in read_lines(tmp_path / "stats" / "stats.csv")[1:]:
            _, series, stat, value = line.split(",")[:4]
            if series == "__offdiag__":
                continue
            if stat == "mean":
                assert abs(float(value)) < 1e-10
            elif stat == "vol":
                assert abs(float(value) - 1.0) < 1e-10

    @pytest.mark.parametrize("kind", ["raw", "standardized", "binary"])
    def test_zero_variance_names_window_and_ticker(self, tmp_path, capsys, kind):
        prices = tmp_path / "flat.csv"
        prices.write_text("date,AAA,BBB\n2001-01-01,100.0,50.0\n2001-01-02,110.0,50.0\n"
                          "2001-01-03,99.0,50.0\n2001-01-04,108.9,50.0\n")
        rc = main(["stats", "--prices", str(prices), "--out-dir", str(tmp_path / "out"),
                   "-T", "3", "--kind", kind])
        assert rc == 3
        err = capsys.readouterr().err
        assert "window ending 2001-01-04: BBB has zero variance" in err

    def test_window_too_long_is_config_error(self, market, tmp_path):
        rc = main(["stats", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "4000"])
        assert rc == 2
        # the run had started, so partial outputs are marked
        assert (tmp_path / ".partial").exists()


class TestInferCommand:
    def test_infer_writes_params_and_diagnostics(self, market, tmp_path):
        rc = main(["infer", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "300", "--stride", "100",
                   "--method", "nmf,tap,sm", "--seed", "5"])
        assert rc == 0
        for method in ("nmf", "tap", "sm"):
            files = sorted((tmp_path / "params" / method).glob("*.json"))
            assert len(files) == 2
            payload = json.loads(files[0].read_text())
            j = np.asarray(payload["J"])
            assert j.shape == (12, 12)
            np.testing.assert_allclose(j, j.T)
        diag = read_lines(tmp_path / "infer_diagnostics.csv")
        assert diag[0].startswith("date,method,converged")
        assert len(diag) - 1 == 2 * 3

    def test_params_files_are_json_dumps_bytes(self, market, tmp_path):
        # short windows give fits with values that orjson writes in another
        # notation than json.dumps (1e-05, 1e+16), so the fix-up path runs
        rc = main(["infer", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "60", "--stride", "20",
                   "--method", "nmf,tap,sm", "--seed", "5"])
        assert rc == 0
        files = sorted((tmp_path / "params").glob("*/*.json"))
        assert len(files) == 18 * 3
        odd_tokens = 0
        for path in files:
            data = path.read_bytes()
            odd_tokens += len(re.findall(rb"\de[-+]\d", data))
            assert data == reference_json(params_from_json(data)).encode() + b"\n"
        assert odd_tokens > 0

    def test_emit_matrices(self, market, tmp_path):
        rc = main(["stats", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "400",
                   "--emit-matrices", "--seed", "2"])
        assert rc == 0
        matrices = sorted((tmp_path / "stats" / "matrices").glob("*.json"))
        assert len(matrices) == 2  # one covariance, one correlation
        payload = json.loads(matrices[0].read_text())
        assert len(payload["tickers"]) == 12
        m = np.asarray(payload["matrix"])
        assert m.shape == (12, 12)

    def test_infer_only_run_needs_no_eigendecomposition(self, market, tmp_path,
                                                        monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("infer-only run called numpy.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        rc = main(["infer", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "300", "--stride", "50",
                   "--method", "nmf,tap,sm", "--seed", "2"])
        assert rc == 0
        assert len(list((tmp_path / "params" / "sm").glob("*.json"))) == 3

    def test_diag_trick_flag_changes_fields(self, market, tmp_path):
        params = {}
        for mode in ("on", "off"):
            out = tmp_path / mode
            rc = main(["infer", "--prices", str(market / "prices.csv"),
                       "--out-dir", str(out), "-T", "400",
                       "--diag-trick", mode, "--seed", "2"])
            assert rc == 0
            payload = json.loads(next((out / "params" / "nmf").glob("*.json"))
                                 .read_text())
            params[mode] = payload
        assert params["on"]["J"] == params["off"]["J"]
        assert params["on"]["h"] != params["off"]["h"]

    def test_exact_method_small_system(self, market, tmp_path):
        rc = main(["infer", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "400",
                   "--method", "exact", "--tol", "1e-3", "--max-iters", "400",
                   "--eta-h", "0.2", "--eta-j", "0.2", "--seed", "5"])
        assert rc == 0
        diag = read_lines(tmp_path / "infer_diagnostics.csv")[1]
        assert diag.split(",")[2] == "True"  # converged

    def test_raw_kind_rejected_for_inference(self, market, tmp_path):
        rc = main(["infer", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "300", "--kind", "raw"])
        assert rc == 2


class TestNetworkCommands:
    def test_mst_pipeline_mode(self, market, tmp_path):
        rc = main(["mst", "--prices", str(market / "prices.csv"),
                   "--sectors", str(market / "sectors.csv"),
                   "--out-dir", str(tmp_path), "-T", "400", "--seed", "2"])
        assert rc == 0
        q = read_lines(tmp_path / "mst" / "q_mst.csv")
        assert q[0] == "date,method,q_mst"
        assert len(q) == 2
        edges = read_lines(list((tmp_path / "mst" / "nmf").glob("*.csv"))[0])
        assert len(edges) - 1 == 11  # N-1 edges

    def test_mst_one_shot_mode(self, market, tmp_path):
        rc = main(["infer", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path / "fit"), "-T", "400",
                   "--seed", "2"])
        assert rc == 0
        params_file = next((tmp_path / "fit" / "params" / "nmf").glob("*.json"))
        rc = main(["mst", "--params", str(params_file),
                   "--sectors", str(market / "sectors.csv"),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "mst_summary.json").read_text())
        assert 0 < summary["q_mst"] <= 1.0
        assert set(summary) == {"q_mst", "clusters"}
        assert (tmp_path / "mst.dot").read_text().startswith("graph")

    def test_cutoff_one_shot(self, market, tmp_path):
        main(["infer", "--prices", str(market / "prices.csv"),
              "--out-dir", str(tmp_path / "fit"), "-T", "400", "--seed", "2"])
        params_file = next((tmp_path / "fit" / "params" / "nmf").glob("*.json"))
        rc = main(["cutoff", "--params", str(params_file),
                   "--sectors", str(market / "sectors.csv"),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        scan = read_lines(tmp_path / "coupling_scan.csv")
        assert scan[0] == "threshold,q_mst,disconnected"
        assert len(scan) > 5
        assert (tmp_path / "eigen_scan.csv").exists()

    def test_one_shot_trees_match_the_pipeline(self, market, tmp_path):
        cfgfile = tmp_path / "pipeline.cfg"
        cfgfile.write_text("stages=infer,mst,cutoff\n")
        rc = main(["run", "--prices", str(market / "prices.csv"),
                   "--sectors", str(market / "sectors.csv"), "--config", str(cfgfile),
                   "--out-dir", str(tmp_path / "run"), "-T", "300", "--stride", "100",
                   "--method", "nmf,tap,sm", "--seed", "3"])
        assert rc == 0
        for method in ("nmf", "tap", "sm"):
            fits = sorted((tmp_path / "run" / "params" / method).glob("*.json"))
            assert len(fits) == 2
            for params_file in fits:
                date, one = params_file.stem, tmp_path / "one" / method / params_file.stem
                common = ["--params", str(params_file), "--sectors",
                          str(market / "sectors.csv"), "--out-dir", str(one)]
                assert main(["mst", *common]) == 0
                assert main(["cutoff", *common]) == 0
                run = tmp_path / "run"
                assert ((one / "mst.csv").read_bytes()
                        == (run / "mst" / method / f"{date}.csv").read_bytes())
                q = json.loads((one / "mst_summary.json").read_text())["q_mst"]
                assert f"{date},{method},{q!r}" in read_lines(run / "mst" / "q_mst.csv")
                for kind in ("coupling", "eigen"):
                    assert ((one / f"{kind}_scan.csv").read_bytes()
                            == (run / "cutoff" / method / f"{kind}_{date}.csv").read_bytes())


class TestAnalysisCommands:
    def test_sample_command(self, market, tmp_path):
        rc = main(["sample", "--params", str(market / "truth.json"),
                   "--out-dir", str(tmp_path), "--sweeps", "200",
                   "--burnin", "100", "--chains", "20", "--seed", "4",
                   "--track-states"])
        assert rc == 0
        means = read_lines(tmp_path / "sample_means.csv")
        assert len(means) - 1 == 12
        assert means[0] == "ticker,mean,se,r_hat"
        assert all(0.9 < float(line.split(",")[3]) < 1.5 for line in means[1:])
        pairs = read_lines(tmp_path / "sample_pair_moments.csv")
        assert len(pairs) - 1 == 12
        assert pairs[1].split(",")[1] == "1.0"  # unit diagonal
        counts = read_lines(tmp_path / "sample_state_counts.csv")
        assert len(counts) - 1 == 2**12

    def test_sample_third_order(self, market, tmp_path):
        rc = main(["sample", "--params", str(market / "truth.json"),
                   "--out-dir", str(tmp_path), "--sweeps", "50", "--burnin", "20",
                   "--chains", "4", "--seed", "5", "--third-order"])
        assert rc == 0
        payload = json.loads((tmp_path / "sample_third_order.json").read_text())
        assert payload["tickers"] == read_lines(market / "prices.csv")[0].split(",")[1:]
        expected = metropolis_sample(params_from_json((market / "truth.json").read_bytes()),
                                     n_sweeps=50, n_burnin=20, n_chains=4, seed=5,
                                     with_third_order=True).third_order
        assert np.array(payload["tensor"]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("flags,n", [
        (["--sweeps", "0"], None), (["--burnin", "-1"], None), (["--chains", "0"], None),
        (["--track-states"], 17), (["--third-order"], 129), (["--seed", "-1"], None),
    ], ids=["--sweeps 0", "--burnin -1", "--chains 0", "--track-states", "--third-order",
            "--seed -1"])
    def test_sample_bad_settings_are_config_errors(self, market, tmp_path, monkeypatch,
                                                   flags, n):
        params = market / "truth.json"
        if n is not None:  # an output the sampler cannot produce at this N
            params = tmp_path / "wide.json"
            params.write_bytes(params_to_json(random_model(n, 0.1, 0.1, seed=0)))

        def no_sweeps(*args, **kwargs):
            raise AssertionError("sampled before rejecting the settings")

        monkeypatch.setattr(isingmarket.model, "_simulate", no_sweeps)
        rc = main(["sample", "--params", str(params), "--sweeps", "1", "--burnin", "0",
                   "--out-dir", str(tmp_path / "out"), *flags])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_energy_one_shot(self, market, tmp_path, capsys):
        rc = main(["energy", "--params", str(market / "truth.json"),
                   "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "400"])
        assert rc == 0
        payload = json.loads((tmp_path / "energy.json").read_text())
        assert np.isclose(payload["e_ext"] + payload["e_int"],
                          payload["e_ext"] + payload["e_int"])
        assert "E_ext" in capsys.readouterr().out

    def test_energy_without_window_uses_whole_history(self, market, tmp_path):
        outputs = []
        for name, flags in (("default", []), ("full", ["-T", "400"])):
            rc = main(["energy", "--params", str(market / "truth.json"),
                       "--prices", str(market / "prices.csv"),
                       "--out-dir", str(tmp_path / name), *flags])
            assert rc == 0
            outputs.append((tmp_path / name / "energy.json").read_text())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("t", ["-5", "0", "1", "401", "100000"])
    def test_energy_window_outside_history_is_config_error(self, market, tmp_path,
                                                           capsys, t):
        rc = main(["energy", "--params", str(market / "truth.json"),
                   "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path / "out"), "-T", t])
        assert rc == 2
        assert "-T/--window-size must lie in [2, 400]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_energy_joins_prices_by_ticker(self, market, tmp_path):
        # the same prices with their ticker columns reversed split the same
        rows = [line.split(",") for line in read_lines(market / "prices.csv")]
        reversed_prices = tmp_path / "reversed.csv"
        reversed_prices.write_text("".join(",".join([r[0], *r[:0:-1]]) + "\n"
                                           for r in rows))
        outputs = []
        for name, prices in (("as_is", market / "prices.csv"),
                             ("reversed", reversed_prices)):
            rc = main(["energy", "--params", str(market / "truth.json"),
                       "--prices", str(prices), "--out-dir", str(tmp_path / name)])
            assert rc == 0
            outputs.append((tmp_path / name / "energy.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_energy_accepts_a_ticker_that_rose_every_day(self, tmp_path):
        # S000 rises on each of the 29 return days: its binary mean is +1
        rng = np.random.default_rng(3)
        steps = np.vstack([np.full(29, 0.01), rng.normal(0.0, 0.01, (2, 29))])
        prices = 100.0 * np.exp(np.cumsum(np.hstack([np.zeros((3, 1)), steps]), axis=1))
        path = tmp_path / "prices.csv"
        path.write_text("date,S000,S001,S002\n" + "".join(
            f"2001-01-{d + 1:02d}," + ",".join(repr(float(v)) for v in prices[:, d]) + "\n"
            for d in range(30)))
        params = IsingParams(np.array([0.2, -0.1, 0.05]), 0.1 * (1.0 - np.eye(3)),
                             tickers=("S000", "S001", "S002"))
        (tmp_path / "params.json").write_bytes(params_to_json(params))
        rc = main(["energy", "--params", str(tmp_path / "params.json"),
                   "--prices", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "energy.json").read_text())
        means = np.where(steps >= 0.0, 1.0, -1.0).mean(axis=1)
        assert means[0] == 1.0
        assert np.isfinite(payload["e_ext"])
        assert payload["e_ext"] == pytest.approx(-params.h @ means)

    def test_energy_needs_every_params_ticker_in_prices(self, market, tmp_path, capsys):
        rows = [line.split(",") for line in read_lines(market / "prices.csv")]
        short = tmp_path / "short.csv"
        short.write_text("".join(",".join(r[:-1]) + "\n" for r in rows))
        untagged = tmp_path / "untagged.json"
        truth = json.loads((market / "truth.json").read_text())
        untagged.write_text(json.dumps({**truth, "tickers": None}))
        for params, prices, message in (
                (market / "truth.json", short, f"tickers missing from {short}: ['S011']"),
                (untagged, market / "prices.csv", "carries no tickers; cannot join prices")):
            rc = main(["energy", "--params", str(params), "--prices", str(prices),
                       "--out-dir", str(tmp_path / "out")])
            assert rc == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["ingest", "mst", "cutoff", "run",
                                         "mst --params", "cutoff --params"])
    def test_ticker_without_sector_is_config_error(self, market, tmp_path, capsys,
                                                   command):
        bad = tmp_path / "bad_sectors.csv"
        bad.write_text("".join(line + "\n" for line in read_lines(market / "sectors.csv")
                               if not line.startswith("S005,")))
        name, *params = command.split()
        args = [name, "--sectors", str(bad), "--out-dir", str(tmp_path / "out")]
        if params:
            args += ["--params", str(market / "truth.json")]
        else:
            args += ["--prices", str(market / "prices.csv")]
            args += [] if name == "ingest" else ["-T", "300"]
        assert main(args) == 2
        assert "tickers without sector assignment: ['S005']" in capsys.readouterr().err

    MISSING_FILES = {
        "sample --params": "sample --params {missing}",
        "mst --params": "mst --params {missing} --sectors {market}/sectors.csv",
        "mst --sectors": "mst --params {market}/truth.json --sectors {missing}",
        "cutoff --params": "cutoff --params {missing} --sectors {market}/sectors.csv",
        "energy --params": "energy --params {missing} --prices {market}/prices.csv",
        "energy --prices": "energy --params {market}/truth.json --prices {missing}",
        "ingest --prices": "ingest --prices {missing}",
        "ingest --sectors": "ingest --prices {market}/prices.csv --sectors {missing}",
        "synth --truth": "synth --truth {missing}",
        "compare --a": "compare --a {missing} --b {market}/truth.json",
        "compare --b": "compare --a {market}/truth.json --b {missing}",
        "infer --config": "infer --prices {market}/prices.csv --config {missing}",
    }

    @pytest.mark.parametrize("argv", MISSING_FILES.values(), ids=MISSING_FILES.keys())
    def test_missing_input_file_is_config_error(self, market, tmp_path, capsys, argv):
        missing = tmp_path / "nope.json"
        args = argv.format(missing=missing, market=market).split()
        assert main([*args, "--out-dir", str(tmp_path / "out")]) == 2
        assert f"file {str(missing)!r} is not a file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    MISSING_COMPANIONS = {
        "mst --params": ("mst --params", "--sectors"),
        "cutoff --params": ("cutoff --params", "--sectors"),
        "energy --params": ("energy --params", "--prices"),
        "compare --a": ("compare --a", "--b"),
        "compare --b": ("compare --b", "--a"),
    }

    @pytest.mark.parametrize("argv, companion", MISSING_COMPANIONS.values(),
                             ids=MISSING_COMPANIONS.keys())
    def test_one_shot_mode_without_companion_is_config_error(self, market, tmp_path,
                                                             capsys, argv, companion):
        args = [*argv.split(), str(market / "truth.json")]
        assert main([*args, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {argv} needs {companion}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_cutoff_direction_is_one_shot_only(self, market, tmp_path, capsys):
        rc = main(["cutoff", "--prices", str(market / "prices.csv"),
                   "--sectors", str(market / "sectors.csv"), "--direction", "discard_below",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "config error: cutoff --direction needs --params" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # one-shot: no --direction scans discard_above
        scans = {}
        for direction in (None, "discard_above", "discard_below"):
            out = tmp_path / str(direction)
            flags = ["--direction", direction] if direction else []
            assert main(["cutoff", "--params", str(market / "truth.json"),
                         "--sectors", str(market / "sectors.csv"),
                         "--out-dir", str(out), *flags]) == 0
            scans[direction] = (out / "coupling_scan.csv").read_text()
        assert scans[None] == scans["discard_above"] != scans["discard_below"]

    UNREAD_KEYS = {  # argv, the keys the mode reads, the keys it refuses
        "cutoff --config": ("cutoff --params {truth} --sectors {sectors} --config {cfg}",
                            ["cutoff_points", "out_dir", "sectors"], ["config"]),
        "mst --method --jobs": ("mst --params {truth} --sectors {sectors} --method tap "
                                "--jobs 4", ["out_dir", "sectors"], ["jobs", "methods"]),
        "energy --seed": ("energy --params {truth} --prices {prices} --seed 3",
                          ["out_dir", "prices", "window_size"], ["seed"]),
        "compare --pairs": ("compare --a {truth} --b {truth} --pairs nmf:tap",
                            ["out_dir"], ["compare_pairs"]),
    }

    @pytest.mark.parametrize("argv, reads, unread", UNREAD_KEYS.values(),
                             ids=UNREAD_KEYS.keys())
    def test_one_shot_mode_refuses_keys_it_does_not_read(self, market, tmp_path, capsys,
                                                        argv, reads, unread):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("cutoff_points=4\n")
        args = argv.format(truth=market / "truth.json", sectors=market / "sectors.csv",
                           prices=market / "prices.csv", cfg=cfg).split()
        assert main([*args, "--out-dir", str(tmp_path / "out")]) == 2
        mode = " ".join(args[:2])
        assert (f"config error: {mode} reads only the keys {reads}; drop {unread}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data", [b'{"tickers": null, "h": [0.1, 0.2], "J": [[0.0, ',
                                      b'{"tickers": null, "h": [NaN], "J": [[0.0]]}',
                                      b'{"tickers": ["\xff"], "h": [0.0], "J": [[0.0]]}',
                                      b'[1, 2]',
                                      b'{"tickers": "AB", "h": [0.0, 0.0], '
                                      b'"J": [[0.0, 0.0], [0.0, 0.0]]}'],
                             ids=["truncated", "NaN", "non-UTF-8", "not an object",
                                  "string tickers"])
    def test_unreadable_params_are_numeric_failures(self, tmp_path, capsys, data):
        params = tmp_path / "bad.json"
        params.write_bytes(data)
        rc = main(["sample", "--params", str(params), "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_compare_one_shot(self, market, tmp_path):
        rc = main(["compare", "--a", str(market / "truth.json"),
                   "--b", str(market / "truth.json"),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "compare.json").read_text())
        assert payload["h"]["nrmse"] == 0.0
        assert payload["J"]["pearson"] == pytest.approx(1.0)

    def test_scaling_command(self, market, tmp_path):
        rc = main(["scaling", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "300",
                   "--sizes", "4,6,12", "--repeats", "3", "--seed", "9"])
        assert rc == 0
        lines = read_lines(tmp_path / "scaling" / "scaling.csv")
        assert lines[0] == "size,repeat,moment,alpha"
        payload = json.loads((tmp_path / "scaling" / "scaling.json").read_text())
        assert payload["sizes"] == [4, 6, 12]

    def test_scaling_csv_labels_each_alpha_by_its_repeat(self, market, tmp_path,
                                                         monkeypatch):
        fits = []

        def zero_fields_in_repeat_0(window):  # repeat 0 fits sizes 4, 6 and 12 first
            fits.append(window)
            n = window.shape[0]
            h = np.zeros(n) if len(fits) <= 3 else n**-0.75 + np.resize([1.0, -1.0], n)
            return IsingParams(h, np.zeros((n, n)))

        scaling_exponents = isingmarket.pipeline.scaling_exponents
        monkeypatch.setattr(isingmarket.pipeline, "scaling_exponents",
                            lambda *args, fit, seed: scaling_exponents(
                                *args, fit=zero_fields_in_repeat_0, seed=seed))
        assert main(["scaling", "--prices", str(market / "prices.csv"),
                     "--out-dir", str(tmp_path), "-T", "300",
                     "--sizes", "4,6,12", "--repeats", "3"]) == 0
        rows = [line.split(",") for line in read_lines(tmp_path / "scaling" / "scaling.csv")]
        assert {repeat for _, repeat, moment, _ in rows[1:]
                if moment.startswith("h.")} == {"1", "2"}

    def test_subset_scan_command(self, market, tmp_path):
        rc = main(["subset-scan", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "300",
                   "--subset", "0,1,2,3", "--totals", "4,8,12", "--seed", "9"])
        assert rc == 0
        payload = json.loads((tmp_path / "subset" / "subset_scan.json").read_text())
        assert [e["total"] for e in payload["entries"]] == [4, 8, 12]
        assert np.asarray(payload["entries"][0]["couplings"]).shape == (4, 4)


class TestRunPipeline:
    def test_full_run_and_determinism(self, market, tmp_path):
        args = ["run", "--prices", str(market / "prices.csv"),
                "--sectors", str(market / "sectors.csv"),
                "-T", "300", "--stride", "100", "--method", "nmf,sm",
                "--seed", "17"]
        cfgfile = tmp_path / "pipeline.cfg"
        cfgfile.write_text(
            "stages=stats,infer,mst,cutoff,energy,compare\n"
            "compare_pairs=nmf:sm\n"
            "# comment line\n"
            "n_boot=120\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = main(args + ["--config", str(cfgfile), "--out-dir", str(out)])
            assert rc == 0
        # byte-identical numeric outputs for identical config + seed
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*")
                         if p.is_file() and p.name != "manifest.json")
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*")
                         if p.is_file() and p.name != "manifest.json")
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
        compare = read_lines(out_a / "compare" / "compare.csv")
        assert len(compare) - 1 == 2 * 2  # 2 windows x (h, J)
        energy = read_lines(out_a / "energy" / "energy.csv")
        assert len(energy) - 1 == 2 * 2  # 2 windows x 2 methods

    def test_manifest_records_input_digests(self, market, tmp_path):
        rc = main(["mst", "--prices", str(market / "prices.csv"),
                   "--sectors", str(market / "sectors.csv"),
                   "--out-dir", str(tmp_path), "-T", "400"])
        assert rc == 0
        inputs = json.loads((tmp_path / "manifest.json").read_text())["inputs"]
        assert set(inputs) == {"prices", "sectors"}
        for key, record in inputs.items():
            data = (market / f"{key}.csv").read_bytes()
            assert record == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}

    def test_jobs_flag_matches_serial(self, market, tmp_path):
        cfgfile = tmp_path / "pipeline.cfg"
        cfgfile.write_text("stages=stats,infer,mst,cutoff,energy,compare\n"
                           "compare_pairs=nmf:sm\n"
                           "n_boot=100\n")
        base = ["run", "--prices", str(market / "prices.csv"),
                "--sectors", str(market / "sectors.csv"), "--config", str(cfgfile),
                "-T", "200", "--stride", "50", "--method", "nmf,sm", "--seed", "23"]
        serial, par = tmp_path / "serial", tmp_path / "par"
        assert main(base + ["--out-dir", str(serial)]) == 0
        assert main(base + ["--out-dir", str(par), "--jobs", "3"]) == 0
        files = sorted(p.relative_to(serial) for p in serial.rglob("*")
                       if p.is_file() and p.name != "manifest.json")
        assert files == sorted(p.relative_to(par) for p in par.rglob("*")
                               if p.is_file() and p.name != "manifest.json")
        assert len(files) > 20
        for rel in files:
            assert (serial / rel).read_bytes() == (par / rel).read_bytes(), rel
        # collated rows stay in window order under threads
        dates = [line.split(",")[0] for line in read_lines(par / "mst" / "q_mst.csv")[1:]]
        assert dates == sorted(dates) and len(dates) == 5 * 2

    # 9 windows of T=200 at stride 25 over the market's 400 return days
    JOBS_ARGS = ["-T", "200", "--stride", "25", "--method", "nmf,sm", "--seed", "29"]

    def jobs_run(self, market, cfgfile):
        return ["run", "--prices", str(market / "prices.csv"),
                "--sectors", str(market / "sectors.csv"), "--config", str(cfgfile),
                *self.JOBS_ARGS]

    def test_jobs_stress_matches_serial(self, market, tmp_path):
        # more threads than cores, switching threads every 10 microseconds
        cfgfile = tmp_path / "pipeline.cfg"
        cfgfile.write_text("stages=stats,infer,mst,energy\n")
        base = self.jobs_run(market, cfgfile)
        serial, par = tmp_path / "serial", tmp_path / "par"
        assert main(base + ["--out-dir", str(serial)]) == 0
        script = ("import sys\n"
                  "from isingmarket.cli import main\n"
                  "interval = sys.getswitchinterval()\n"
                  "sys.setswitchinterval(1e-5)\n"
                  "try:\n"
                  "    code = main(sys.argv[1:])\n"
                  "finally:\n"
                  "    sys.setswitchinterval(interval)\n"
                  "sys.exit(code)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(isingmarket.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", script, *base, "--out-dir", str(par),
                        "--jobs", "6"], env=env, check=True, timeout=300)
        files = sorted(p.relative_to(serial) for p in serial.rglob("*")
                       if p.is_file() and p.name != "manifest.json")
        assert files == sorted(p.relative_to(par) for p in par.rglob("*")
                               if p.is_file() and p.name != "manifest.json")
        assert len(read_lines(serial / "mst" / "q_mst.csv")) - 1 == 9 * 2
        for rel in files:
            assert (serial / rel).read_bytes() == (par / rel).read_bytes(), rel

    def test_jobs_failed_window_keeps_serial_semantics(self, market, tmp_path,
                                                       monkeypatch, capsys):
        cfgfile = tmp_path / "pipeline.cfg"
        cfgfile.write_text("stages=stats,infer,mst\n")
        base = self.jobs_run(market, cfgfile)
        assert main(base + ["--out-dir", str(tmp_path / "full")]) == 0
        collated = ["stats/stats.csv", "stats/eigen.csv", "infer_diagnostics.csv",
                    "mst/q_mst.csv"]
        full = {rel: read_lines(tmp_path / "full" / rel) for rel in collated}
        dates = sorted({line.split(",")[0] for line in full["mst/q_mst.csv"][1:]})
        k = 3
        real, started = isingmarket.pipeline._window_unit, []

        def failing(cfg, out, idx, date, *args):
            started.append(idx)
            if idx == k:
                raise ValueError("planted failure")
            time.sleep(0.02)  # every other window outlasts the failure
            return real(cfg, out, idx, date, *args)

        monkeypatch.setattr(isingmarket.pipeline, "_window_unit", failing)
        outcomes = {}
        for jobs in ("1", "3"):
            started.clear()
            out = tmp_path / jobs
            code = main(base + ["--out-dir", str(out), "--jobs", jobs])
            outcomes[jobs] = code, capsys.readouterr().err
            assert (out / ".partial").exists()
            # exactly the rows of the windows before k
            for rel in collated:
                assert read_lines(out / rel) == [
                    line for n, line in enumerate(full[rel])
                    if n == 0 or line.split(",")[0] in dates[:k]], rel
            assert max(started) <= (k if jobs == "1" else k + 2)
        assert outcomes["1"] == outcomes["3"]
        assert outcomes["1"][0] == 3
        assert f"window ending {dates[k]}: planted failure" in outcomes["1"][1]

    def test_jobs_starts_no_more_threads_than_windows(self, market, tmp_path,
                                                      monkeypatch):
        pools, idents = [], set()

        class RecordingPool(isingmarket.pipeline.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        real = isingmarket.pipeline._window_unit

        def unit(*args):
            idents.add(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(isingmarket.pipeline, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(isingmarket.pipeline, "_window_unit", unit)
        rc = main(["infer", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "200", "--stride", "50",
                   "--jobs", "64"])
        assert rc == 0
        assert len(read_lines(tmp_path / "infer_diagnostics.csv")) - 1 == 5
        # 5 windows: the calling thread and at most 4 pool threads
        assert pools == [4]
        assert len(idents) <= 5

    # the scheduler's contract, called directly with toy work
    @staticmethod
    def map_in_order(fn, items, jobs, results):
        """_map_in_order appending each result to `results`, on the calling thread."""
        caller = threading.get_ident()

        def consume(result):
            assert threading.get_ident() == caller
            results.append(result)

        isingmarket.pipeline._map_in_order(fn, items, jobs, consume)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_jobs_scheduler_empty_list_consumes_nothing(self, jobs):
        results = []
        self.map_in_order(lambda item: pytest.fail("fn called"), [], jobs, results)
        assert results == []

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4, 5])
    def test_jobs_scheduler_consumes_in_item_order(self, jobs):
        sleeps = np.random.default_rng(jobs).uniform(0.0, 0.01, size=7)

        def fn(item):
            time.sleep(sleeps[item])
            return item * 10

        results = []
        self.map_in_order(fn, list(range(7)), jobs, results)
        assert results == [0, 10, 20, 30, 40, 50, 60]

    def test_jobs_scheduler_raises_a_pool_failure_after_earlier_results(self):
        # at jobs=3 the rounds are (0, 1, 2), (3, 4, 5), (6,): the calling
        # thread runs 3, which succeeds, and the pool runs 4, which fails
        planted, started, results = ValueError("item 4"), [], []

        def fn(item):
            started.append(item)
            if item == 4:
                raise planted
            time.sleep(0.01)
            return item

        with pytest.raises(ValueError) as err:
            self.map_in_order(fn, list(range(7)), 3, results)
        assert err.value is planted
        assert results == [0, 1, 2, 3]
        assert sorted(started) == [0, 1, 2, 3, 4, 5]  # no later round starts

    def test_jobs_scheduler_propagates_an_interrupt_of_the_calling_thread(self):
        def fn(item):
            if item == 2:  # the first item of the second round at jobs=2
                raise KeyboardInterrupt
            time.sleep(0.01)
            return item

        results = []
        with pytest.raises(KeyboardInterrupt):
            self.map_in_order(fn, list(range(6)), 2, results)
        assert results == [0, 1]

    def test_jobs_scheduler_one_job_runs_on_the_calling_thread(self):
        idents, results = [], []

        def fn(item):
            idents.append(threading.get_ident())
            return item

        self.map_in_order(fn, list(range(5)), 1, results)
        assert results == [0, 1, 2, 3, 4]
        assert idents == [threading.get_ident()] * 5

    def test_one_inverse_per_window(self, market, tmp_path, monkeypatch):
        calls = {"inv": 0, "cond": 0}
        for name in calls:
            def counted(*args, _fn=getattr(np.linalg, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        rc = main(["infer", "--prices", str(market / "prices.csv"),
                   "--out-dir", str(tmp_path), "-T", "300", "--stride", "50",
                   "--method", "exact,ip,nmf,tap,sm", "--max-iters", "5",
                   "--seed", "5"])
        assert rc == 0
        assert calls == {"inv": 3, "cond": 3}  # 3 windows, 4 inverting methods

    def test_singular_covariance_fails_until_ridged(self, tmp_path, capsys):
        # T=40 < N=60: the covariance is singular to working precision
        rc = main(["synth", "--out-dir", str(tmp_path), "--n-stocks", "60",
                   "--n-sectors", "3", "--j-intra", "0.01", "--n-days", "1001",
                   "--seed", "7"])
        assert rc == 0
        base = ["infer", "--prices", str(tmp_path / "prices.csv"), "-T", "40",
                "--stride", "50", "--method", "nmf,tap"]
        assert main(base + ["--out-dir", str(tmp_path / "bare")]) == 3
        err = capsys.readouterr().err
        assert ("window ending 1990-02-11: covariance matrix is singular "
                "(cond=1.71e+17); retry with a positive ridge") in err
        assert main(base + ["--out-dir", str(tmp_path / "ridged"), "--ridge", "1e-3"]) == 0
        rows = [line.split(",") for line in
                read_lines(tmp_path / "ridged" / "infer_diagnostics.csv")[1:]]
        assert len(rows) == 20 * 2
        assert float(rows[0][5]) == pytest.approx(4304, abs=0.5)
        assert max(float(row[5]) for row in rows) < 1e5

    def test_failure_leaves_partial_marker(self, market, tmp_path):
        # sectors file missing a ticker: the run fails at ingest, a config error
        bad_sectors = tmp_path / "bad_sectors.csv"
        bad_sectors.write_text("ticker,name,sector\nS000,zero,SEC0\n")
        rc = main(["mst", "--prices", str(market / "prices.csv"),
                   "--sectors", str(bad_sectors),
                   "--out-dir", str(tmp_path / "broken"), "-T", "300"])
        assert rc == 2
        assert (tmp_path / "broken" / ".partial").exists()
        manifest = json.loads((tmp_path / "broken" / "manifest.json").read_text())
        assert manifest["failure"] is not None

    def test_strict_nonconvergence_exit_code(self, market, tmp_path):
        cfgfile = tmp_path / "pipeline.cfg"
        cfgfile.write_text("stages=infer,mst\n")
        out = tmp_path / "out"
        rc = main(["run", "--prices", str(market / "prices.csv"),
                   "--sectors", str(market / "sectors.csv"), "--config", str(cfgfile),
                   "--out-dir", str(out), "-T", "300", "--stride", "50",
                   "--method", "exact", "--max-iters", "2", "--tol", "1e-12",
                   "--strict", "--seed", "1"])
        assert rc == 4
        assert (out / ".partial").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "NonConvergenceError" in manifest["failure"]["error"]
        # the error is raised after the last window, so every fit is listed
        fits = {(c["date"], c["method"]) for c in manifest["convergence"]}
        assert len(fits) == manifest["windows"] == 3
        diag = read_lines(out / "infer_diagnostics.csv")[1:]
        assert {tuple(line.split(",")[:2]) for line in diag} == fits
        q = read_lines(out / "mst" / "q_mst.csv")[1:]
        assert {tuple(line.split(",")[:2]) for line in q} == fits


    def test_manifest_convergence_carries_the_fit_record(self, market, tmp_path):
        # exact_max_n has no flag: a config file forces sampled learning
        cfgfile = tmp_path / "sampled.cfg"
        cfgfile.write_text("exact_max_n=0\nmc_chains=20\nmc_sweeps=10\nmc_burnin=10\n"
                           "max_iters=2\n")
        entries = {}
        for method in ("exact", "nmf"):
            out = tmp_path / method
            rc = main(["infer", "--prices", str(market / "prices.csv"),
                       "--config", str(cfgfile), "--out-dir", str(out), "-T", "300",
                       "--stride", "50", "--method", method, "--seed", "2"])
            assert rc == 0
            manifest = json.loads((out / "manifest.json").read_text())
            entries[method] = manifest["convergence"]
            assert len(entries[method]) == manifest["windows"] == 3
            diag = read_lines(out / "infer_diagnostics.csv")
            assert diag[0] == ("date,method,converged,iterations,residual,cond_cov,"
                               "tap_fallbacks")
            for entry, line in zip(entries[method], diag[1:]):
                assert set(entry) == {"date", "method", "converged", "iterations",
                                      "residual", "cond_cov", "tap_fallbacks",
                                      "stop_reason", "mc_r_hat_max"}
                assert entry["stop_reason"] != "diverged"
                assert line.split(",")[:4] == [entry["date"], method,
                                               str(entry["converged"]),
                                               str(entry["iterations"])]
        for entry in entries["exact"]:
            assert entry["iterations"] == 2
            assert np.isfinite(entry["mc_r_hat_max"])
        assert [e["mc_r_hat_max"] for e in entries["nmf"]] == [None] * 3
        assert [e["stop_reason"] for e in entries["nmf"]] == [None] * 3

    def test_strict_accepts_floor_stops_and_refuses_max_iters(self, market, tmp_path):
        # sampled learning on the 12-stock market: at T=300 one learning
        # step brings every moment within the data floor
        cfgfile = tmp_path / "sampled.cfg"
        cfgfile.write_text("exact_max_n=0\nmc_chains=200\nmc_sweeps=20\nmc_burnin=20\n")
        base = ["infer", "--prices", str(market / "prices.csv"), "--config", str(cfgfile),
                "-T", "300", "--stride", "50", "--method", "exact", "--seed", "2",
                "--tol", "1e-6", "--strict"]
        codes, reasons = {}, {}
        for max_iters in ("12", "1"):
            out = tmp_path / max_iters
            codes[max_iters] = main(base + ["--out-dir", str(out), "--max-iters", max_iters])
            manifest = json.loads((out / "manifest.json").read_text())
            reasons[max_iters] = {e["stop_reason"] for e in manifest["convergence"]}
        assert codes == {"12": 0, "1": 4}
        assert reasons == {"12": {"data_floor"}, "1": {"max_iters"}}

    FAILED_STAGES = {
        "short sectors row": ("ingest", []),
        "singular covariance": ("windows", ["ingest"]),
        "interrupt": ("windows", ["ingest"]),
    }

    @pytest.mark.parametrize("case", FAILED_STAGES, ids=FAILED_STAGES.keys())
    def test_failure_names_its_stage(self, singular_market, tmp_path, monkeypatch, case):
        stage, finished = self.FAILED_STAGES[case]
        out = tmp_path / "out"
        argv = ["infer", "--prices", str(singular_market / "prices.csv"), "-T", "40",
                "--stride", "50", "--method", "nmf,tap", "--out-dir", str(out)]
        if case == "short sectors row":
            short = tmp_path / "s.csv"
            short.write_text("ticker,name,sector\nB,b\n")
            argv += ["--sectors", str(short)]
        if case == "interrupt":
            def interrupted(*args, **kwargs):
                raise KeyboardInterrupt

            monkeypatch.setattr(isingmarket.pipeline, "_window_unit", interrupted)
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        else:
            assert main(argv) == 3
        assert (out / ".partial").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure"]["stage"] == stage
        assert list(manifest["stages"]) == finished


class TestRandomModuleImport:
    """numpy.random is imported by a stage that draws random numbers, and only then."""

    SCRIPT = ("import sys; from isingmarket.cli import main; "
              "rc = main(sys.argv[1:]); print(rc, 'numpy.random' in sys.modules)")

    def loads_random(self, market, tmp_path, command, *flags, config=""):
        """Run `command` on the market in a fresh interpreter; did it import numpy.random?"""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        env = dict(os.environ, PYTHONPATH=str(Path(isingmarket.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, command,
             "--prices", str(market / "prices.csv"), "--out-dir", str(tmp_path / "out"),
             "--config", str(cfgfile), "-T", "200", "--stride", "100", *flags],
            capture_output=True, text=True, env=env, check=True)
        rc, loaded = proc.stdout.splitlines()[-1].split()
        assert rc == "0", proc.stderr
        return loaded == "True"

    @pytest.mark.parametrize("command, flags, config", [
        ("infer", ["--method", "nmf,tap,sm,ip"], ""),
        ("run", ["--method", "nmf"], "stages=stats,infer\nn_boot=0\n"),
        ("infer", ["--method", "exact", "--max-iters", "3"], ""),  # enumerated: N=12
    ], ids=["closed form", "stats and infer", "enumerated exact"])
    def test_runs_without_draws_never_import_it(self, market, tmp_path, command, flags,
                                                config):
        assert not self.loads_random(market, tmp_path, command, *flags, config=config)

    @pytest.mark.parametrize("command, flags, config", [
        ("run", ["--method", "nmf", "--n-boot", "200"], ""),
        ("scaling", ["--method", "nmf", "--sizes", "4,6,8", "--repeats", "2"], ""),
        ("infer", ["--method", "exact", "--max-iters", "2", "--mc-sweeps", "5",
                   "--mc-chains", "4", "--mc-burnin", "5"], "exact_max_n=4\n"),
    ], ids=["bootstrap", "scaling", "sampled exact"])
    def test_stages_that_draw_import_it(self, market, tmp_path, command, flags, config):
        assert self.loads_random(market, tmp_path, command, *flags, config=config)

    def test_enumerated_residual_never_imports_it(self):
        script = ("import sys, numpy as np; from isingmarket import "
                  "InferenceConfig, infer_nmf, moment_residual, window_stats; "
                  "w = np.array([[1, -1, 1, 1, -1, 1, 1, -1], [1, 1, -1, 1, -1, -1, 1, 1], "
                  "[-1, 1, 1, 1, -1, 1, -1, -1]], dtype=float); "
                  "st = window_stats(w); cfg = InferenceConfig(method='nmf'); "
                  "moment_residual(infer_nmf(st, cfg).params, st, cfg); "
                  "print('numpy.random' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(isingmarket.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.split() == ["False"]


# config-file text by field type, each pool mixing cells that parse with ones that do not
CONFIG_NUMBERS = ["", "x", "0", "1", "-1", "2", "3", "12", "250", "0.5", "-0.5", "1e-3", "1e309",
                  "nan", "-inf", "1_0", "0x10", "9" * 30, "\u0661\u0662"]
CONFIG_WORDS = ["", "x y", "nmf", "tap", "sm", "ip", "exact", "nmf:sm", "exact:nmf", "nmf:", ":",
                "stats", "infer", "mst", "cutoff", "scaling", "subset", "energy", "compare",
                "binary", "raw", "standardized"]


def config_text(annotation):
    """Strategy for the text of a RunConfig field with this type annotation."""
    if annotation in ("int", "float"):
        return st.sampled_from(CONFIG_NUMBERS)
    if annotation == "bool":
        return st.sampled_from(["true", "off", "maybe", "1", ""])
    words = st.sampled_from(CONFIG_WORDS) | st.text(max_size=6)
    if annotation.startswith("tuple"):
        return st.lists(words | st.sampled_from(CONFIG_NUMBERS), max_size=4).map(",".join)
    return words


class TestConfigParsing:
    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("prices=a.csv  # inline comment\nwindow_size=100\n\n"
                       "methods=nmf,tap\n")
        mapping = parse_config_file(cfg)
        assert mapping == {"prices": "a.csv", "window_size": "100",
                           "methods": "nmf,tap"}

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_file(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({"prices": "x", "out_dir": "y", "bogus": "1"})

    def test_unknown_stage_rejected(self, market):
        with pytest.raises(ConfigError, match="unknown stages"):
            config_from_mapping({"prices": str(market / "prices.csv"),
                                 "out_dir": "z", "stages": "stats,plot"})

    def test_compare_pair_syntax(self, market):
        with pytest.raises(ConfigError, match="nmf:exact"):
            config_from_mapping({"prices": str(market / "prices.csv"),
                                 "out_dir": "z", "compare_pairs": "nmf-exact"})

    def test_too_few_bootstrap_resamples_is_config_error(self, market, tmp_path):
        cfgfile = tmp_path / "boot.cfg"
        cfgfile.write_text("stages=stats\nn_boot=50\n")
        rc = main(["run", "--prices", str(market / "prices.csv"), "--config",
                   str(cfgfile), "--out-dir", str(tmp_path / "out"), "-T", "300"])
        assert rc == 2
        assert not (tmp_path / "out" / "stats").exists()

    def test_config_file_not_utf8_is_config_error(self, market, tmp_path, capsys):
        cfgfile = tmp_path / "latin1.cfg"
        cfgfile.write_bytes(b"tol=1e-3\xff\n")
        rc = main(["infer", "--prices", str(market / "prices.csv"), "--config",
                   str(cfgfile), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: {cfgfile} is not UTF-8 text" in err
        assert not (tmp_path / "out").exists()

    def test_direct_runconfig_validation(self, market):
        with pytest.raises(ConfigError, match="sectors"):
            RunConfig(prices=str(market / "prices.csv"), out_dir="o",
                      stages=("mst",), kind="binary")

    # checks no other test reaches: (settings beside prices and out_dir, message);
    # text values are parsed, typed ones pass through and None drops the key
    CONFIG_CHECKS = {
        "kind": ({"kind": "log"}, "unknown transform kind 'log'"),
        "no methods": ({"stages": ("infer",), "methods": ()}, "no inference methods selected"),
        "compare pair": ({"stages": ("infer", "compare"), "methods": ("nmf",),
                          "compare_pairs": (("nmf", "tap"),)},
                         "compare pair nmf:tap not covered by methods"),
        "boolean text": ({"strict": "maybe"}, "strict: expected a boolean, got 'maybe'"),
        "no out_dir": ({"out_dir": None}, "missing required config keys: ['out_dir']"),
    }

    @pytest.mark.parametrize("case", CONFIG_CHECKS)
    def test_config_checks_name_what_they_reject(self, market, case):
        settings, message = self.CONFIG_CHECKS[case]
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"prices": str(market / "prices.csv"), "out_dir": "o",
                                 **settings})
        assert err.type is ConfigError and str(err.value) == message

    @settings(derandomize=True, database=None, max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from([(f.name, f.type) for f in dataclasses.fields(RunConfig)]
                                    + [("bogus", "str")])
                    .flatmap(lambda field: st.tuples(
                        st.just(field[0]), config_text(field[1]))),
                    max_size=6).map(dict))
    def test_any_text_mapping_builds_a_config_or_is_config_error(self, market, mapping):
        base = {"prices": str(market / "prices.csv"), "sectors": str(market / "sectors.csv"),
                "out_dir": "o"}
        try:
            cfg = config_from_mapping({**base, **mapping})
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)

    BAD_VALUES = [
        ("infer", ["--eta-h", "-1"], ""),
        ("infer", ["--eta-j", "nan"], ""),
        ("infer", ["--tol", "0"], ""),
        ("infer", ["--ridge", "-1"], ""),
        ("infer", [], "eta_decay=2"),
        ("infer", ["--max-iters", "0"], ""),
        ("infer", ["--mc-sweeps", "0"], ""),
        ("infer", ["--mc-chains", "0"], ""),
        ("infer", ["--mc-burnin", "-1"], ""),
        ("infer", [], "exact_max_n=-1"),
        ("infer", ["--jobs", "0"], ""),
        ("infer", [], "seed=abc"),
        ("infer", ["--method", "nmf,tap,nmf"], ""),
        ("stats", [], "n_boot=100\nboot_level=1.5"),
        ("stats", [], "boot_level=0"),
        ("stats", ["--eigen-top", "0"], ""),
        ("cutoff", ["--cutoff-points", "0"], ""),
        ("scaling", ["--sizes", "4,6,12", "--repeats", "0"], ""),
        ("scaling", ["--sizes", "1,5,10"], ""),
        ("subset-scan", ["--subset", "0,0,2", "--totals", "3,8"], ""),
        ("subset-scan", ["--subset", "0,1,2", "--totals", "2,8"], ""),
        ("mst", ["--sectors", ""], ""),
        ("infer", [], "exact_max_n=21"),
        ("stats", ["-T", "1"], ""),
        ("compare", ["--method", "nmf,tap"], ""),
        ("synth", ["--n-days", "1"], ""),
        ("synth", ["--n-stocks", "1"], ""),
        ("synth", ["--n-stocks", "10", "--n-sectors", "3"], ""),
        ("infer", ["--seed", "-1"], ""),
        ("run", [], "seed=-1"),
        ("synth", ["--seed", "-1", "--n-days", "3"], ""),
        ("run", [], "stages="),
    ]

    @pytest.mark.parametrize(
        "command,flags,config_text", BAD_VALUES,
        ids=[" ".join(flags) or text.replace("\n", ";") for _, flags, text in BAD_VALUES])
    def test_bad_value_exits_before_ingest(self, market, tmp_path, monkeypatch, command,
                                           flags, config_text):
        out = tmp_path / "out"
        if command == "synth":  # it reads no prices; a bad size must stop it before sampling
            def no_sweeps(*args, **kwargs):
                raise AssertionError("sampled before rejecting the settings")

            monkeypatch.setattr(isingmarket.synthetic, "_simulate", no_sweeps)
            argv = [command, "--out-dir", str(out), *flags]
        else:
            argv = [command, "--prices", str(market / "prices.csv"),
                    "--sectors", str(market / "sectors.csv"), "--out-dir", str(out),
                    "-T", "300", "--stride", "100", *flags]
        if config_text:
            (tmp_path / "bad.cfg").write_text(config_text + "\n")
            argv += ["--config", str(tmp_path / "bad.cfg")]
        assert main(argv) == 2
        assert not (out / "ingest_report.json").exists()
        assert not (out / ".partial").exists()
        assert not (out / "prices.csv").exists()

    @pytest.mark.parametrize("command,flags", [
        ("scaling", ["--sizes", "4,6,13"]),
        ("subset-scan", ["--subset", "0,1,12", "--totals", "3,8"]),
        ("subset-scan", ["--subset", "0,1,2", "--totals", "3,13"]),
    ], ids=["--sizes 4,6,13", "--subset 0,1,12", "--totals 3,13"])
    def test_setting_beyond_panel_exits_after_ingest(self, market, tmp_path, command,
                                                     flags):
        out = tmp_path / "out"
        rc = main([command, "--prices", str(market / "prices.csv"), "--out-dir", str(out),
                   "-T", "300", *flags])
        assert rc == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failure"]["stage"] == "ingest"
        assert manifest["failure"]["error"].startswith("ConfigError")
        assert not (out / "scaling").exists() and not (out / "subset").exists()

    def test_cutoff_params_rejects_zero_points(self, market, tmp_path):
        rc = main(["cutoff", "--params", str(market / "truth.json"),
                   "--sectors", str(market / "sectors.csv"),
                   "--out-dir", str(tmp_path), "--cutoff-points", "0"])
        assert rc == 2
        assert not (tmp_path / "coupling_scan.csv").exists()

    def test_every_field_round_trips_from_config_text(self, market, tmp_path):
        prices, sectors = str(market / "prices.csv"), str(market / "sectors.csv")
        samples = {  # field: (config-file text, parsed value); none a default
            "prices": (prices, prices),
            "out_dir": ("o", "o"),
            "sectors": (sectors, sectors),
            "kind": ("standardized", "standardized"),
            "window_size": ("300", 300),
            "stride": ("7", 7),
            "stages": (" stats, ", ("stats",)),
            "methods": ("nmf, tap,", ("nmf", "tap")),
            "compare_pairs": ("nmf:tap, tap : nmf", (("nmf", "tap"), ("tap", "nmf"))),
            "seed": ("5", 5),
            "jobs": ("2", 2),
            "strict": ("yes", True),
            "diag_trick": ("off", False),
            "eta_h": ("0.25", 0.25),
            "eta_j": ("2e-2", 0.02),
            "eta_decay": ("0.5", 0.5),
            "max_iters": ("9", 9),
            "tol": ("1e-4", 1e-4),
            "ridge": ("0.125", 0.125),
            "mc_sweeps": ("11", 11),
            "mc_chains": ("12", 12),
            "mc_burnin": ("0", 0),
            "exact_max_n": ("3", 3),
            "eigen_top_k": ("2", 2),
            "n_boot": ("150", 150),
            "boot_level": ("0.9", 0.9),
            "emit_matrices": ("1", True),
            "cutoff_points": ("4", 4),
            "scaling_sizes": ("4,6, 12", (4, 6, 12)),
            "scaling_repeats": ("3", 3),
            "subset_indices": ("0,1,2", (0, 1, 2)),
            "subset_totals": ("4,8", (4, 8)),
        }
        fields = dataclasses.fields(RunConfig)
        assert set(samples) == {f.name for f in fields}
        cfgfile = tmp_path / "all.cfg"
        cfgfile.write_text("".join(f"{k}={text}\n" for k, (text, _) in samples.items()))
        cfg = config_from_mapping(parse_config_file(cfgfile))
        for f in fields:
            text, value = samples[f.name]
            assert getattr(cfg, f.name) == value, f.name
            assert value != f.default, f"{f.name}: pick a non-default sample"

    def test_every_field_flag_reaches_the_manifest(self, market, tmp_path):
        values = {  # dest: (argv, value in manifest["config"])
            "prices": (["--prices", str(market / "prices.csv")],
                       str(market / "prices.csv")),
            "sectors": (["--sectors", str(market / "sectors.csv")],
                        str(market / "sectors.csv")),
            "kind": (["--kind", "binary"], "binary"),
            "window_size": (["-T", "300"], 300),
            "stride": (["--stride", "100"], 100),
            "methods": (["--method", "nmf,tap"], ["nmf", "tap"]),
            "seed": (["--seed", "5"], 5),
            "jobs": (["--jobs", "2"], 2),
            "strict": (["--strict"], True),
            "diag_trick": (["--diag-trick", "off"], False),
            "eta_h": (["--eta-h", "0.25"], 0.25),
            "eta_j": (["--eta-j", "0.5"], 0.5),
            "max_iters": (["--max-iters", "9"], 9),
            "tol": (["--tol", "1e-4"], 1e-4),
            "ridge": (["--ridge", "0.125"], 0.125),
            "mc_sweeps": (["--mc-sweeps", "11"], 11),
            "mc_chains": (["--mc-chains", "12"], 12),
            "mc_burnin": (["--mc-burnin", "13"], 13),
            "eigen_top_k": (["--eigen-top", "2"], 2),
            "n_boot": (["--n-boot", "100"], 100),
            "emit_matrices": (["--emit-matrices"], True),
            "cutoff_points": (["--cutoff-points", "3"], 3),
            "compare_pairs": (["--pairs", "nmf:tap"], [["nmf", "tap"]]),
            "scaling_sizes": (["--sizes", "4,6,12"], [4, 6, 12]),
            "scaling_repeats": (["--repeats", "2"], 2),
            "subset_indices": (["--subset", "0,1"], [0, 1]),
            "subset_totals": (["--totals", "4,8"], [4, 8]),
        }
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        subcommands = build_parser()._subparsers._group_actions[0].choices
        covered = set()
        for name, sub in subcommands.items():
            dests = [a.dest for a in sub._actions if a.dest in fields]
            if "methods" not in dests:  # not a pipeline subcommand
                continue
            out = tmp_path / name
            argv = [name, "--out-dir", str(out)]
            for dest in dests:
                if dest != "out_dir":
                    argv += values[dest][0]
            assert main(argv) == 0, name
            config = json.loads((out / "manifest.json").read_text())["config"]
            assert config["out_dir"] == str(out)
            for dest in dests:
                if dest != "out_dir":
                    assert config[dest] == values[dest][1], (name, dest)
            covered.update(dests)
        assert covered == set(values) | {"out_dir"}

    PIPELINE_COMMANDS = ("stats", "infer", "mst", "cutoff", "scaling", "subset-scan",
                         "energy", "compare", "run")

    def test_every_pipeline_subcommand_takes_the_same_flags(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        subcommands = build_parser()._subparsers._group_actions[0].choices
        for name in self.PIPELINE_COMMANDS:
            dests = {a.dest for a in subcommands[name]._actions if a.dest in fields}
            assert dests == fields - {"stages", "eta_decay", "exact_max_n",
                                      "boot_level"}, name

    def test_scaling_sizes_may_come_from_the_config_file(self, market, tmp_path):
        cfgfile = tmp_path / "scaling.cfg"
        cfgfile.write_text("scaling_sizes=4,6,12\nscaling_repeats=2\n")
        assert main(["scaling", "--prices", str(market / "prices.csv"), "-T", "300",
                     "--config", str(cfgfile), "--out-dir", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "scaling" / "scaling.json").read_text())
        assert payload["sizes"] == [4, 6, 12]

    def test_run_takes_n_boot(self, market, tmp_path):
        assert main(["run", "--prices", str(market / "prices.csv"), "-T", "300",
                     "--stride", "100", "--n-boot", "100",
                     "--out-dir", str(tmp_path)]) == 0
        rows = [line.split(",") for line in read_lines(tmp_path / "stats" / "stats.csv")]
        cis = [(lo, hi) for _, series, _, _, lo, hi in rows[1:] if series == "__offdiag__"]
        assert cis and all(float(lo) <= float(hi) for lo, hi in cis)


def test_readme_cli_section_names_every_flag():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text[text.index("## CLI"):text.index("## Module map")]
    parser = build_parser()
    subcommands = parser._subparsers._group_actions[0].choices.values()
    flags = {option for p in (parser, *subcommands) for action in p._actions
             for option in action.option_strings if option.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z0-9-]*", section)) == flags - {"--help", "--version"}
