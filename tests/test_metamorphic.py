"""Metamorphic relations of the pipeline: transformations of the input whose
effect on every output is known, checked on the golden market (see
golden.py) with all five methods.

- Global spin flip: inverted prices flip every return, so h -> -h, J -> J
  and every energy column and Q_mst are unchanged.
- Ticker permutation: h and J permute with the columns; trees (as ticker
  pairs), Q_mst, energy rows and the stats rows keyed by (date, series,
  stat) are unchanged.
- Sector relabelling: a one-to-one renaming of the sectors leaves Q_mst and
  every cutoff scan point unchanged.
- Stride independence: a window ending on a given date writes the same
  bytes at any stride.

Numbers compare at an absolute 1e-12 plus a relative 1e-9, and exactly
where rounding cannot reach them: the closed forms' flipped fields, Q_mst
and the stride outputs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from golden import SEED, STRIDE, SYNTH, WINDOW
from isingmarket.cli import main
from isingmarket.panels import binarize, load_price_csv, log_returns
from isingmarket.pipeline import RunConfig, run

METHODS = ("nmf", "tap", "sm", "ip", "exact")
CLOSED_FORMS = ("nmf", "tap", "sm", "ip")
STAGES = ("stats", "infer", "mst", "cutoff", "energy")
ATOL, RTOL = 1e-12, 1e-9


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_csv(path, rows) -> Path:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return Path(path)


def pipeline(out, prices, sectors, stride=STRIDE, methods=METHODS, stages=STAGES) -> Path:
    run(RunConfig(prices=str(prices), sectors=str(sectors), out_dir=str(out),
                  window_size=WINDOW, stride=stride, stages=stages, methods=methods,
                  seed=SEED))
    return Path(out)


def params(out, method, date) -> tuple[list[str], np.ndarray, np.ndarray]:
    doc = json.loads((out / "params" / method / f"{date}.json").read_bytes())
    return doc["tickers"], np.asarray(doc["h"]), np.asarray(doc["J"])


def dates(out) -> list[str]:
    return sorted({row[0] for row in read_csv(out / "mst" / "q_mst.csv")[1:]})


def assert_rows_close(got: dict, want: dict):
    """Rows keyed alike hold equal text or numbers equal within tolerance."""
    assert sorted(got) == sorted(want)
    for key, row in want.items():
        for a, b in zip(got[key], row, strict=True):
            if a == b:
                continue
            np.testing.assert_allclose(float(a), float(b), rtol=RTOL, atol=ATOL,
                                       err_msg=str(key))


def keyed(path, width) -> dict:
    """A collated CSV's rows keyed by their first `width` cells."""
    return {tuple(row[:width]): row[width:] for row in read_csv(path)[1:]}


@pytest.fixture(scope="module")
def market(tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    assert main([*SYNTH, "--seed", str(SEED), "--out-dir", str(root / "market"),
                 "--log-level", "error"]) == 0
    return root


@pytest.fixture(scope="module")
def base(market):
    return pipeline(market / "base", market / "market" / "prices.csv",
                    market / "market" / "sectors.csv")


def test_global_spin_flip(market, base):
    prices = read_csv(market / "market" / "prices.csv")
    flipped = write_csv(market / "flipped.csv", [prices[0]] + [
        [row[0], *(repr(1.0 / float(p)) for p in row[1:])] for row in prices[1:]])
    # a zero return binarizes to +1, so the relation needs a panel without any
    returns = log_returns(load_price_csv(market / "market" / "prices.csv")[0])
    assert np.all(returns.values != 0.0)
    flipped_signs = binarize(log_returns(load_price_csv(flipped)[0])).values
    assert np.array_equal(flipped_signs, -binarize(returns).values)

    out = pipeline(market / "flip", flipped, market / "market" / "sectors.csv")
    assert dates(out) == dates(base)
    for method in METHODS:
        for date in dates(base):
            tickers, h, j = params(base, method, date)
            tickers_f, h_f, j_f = params(out, method, date)
            assert tickers_f == tickers
            if method in CLOSED_FORMS:
                assert np.array_equal(h_f, -h), (method, date)
            else:
                np.testing.assert_allclose(h_f, -h, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(j_f, j, rtol=RTOL, atol=ATOL)
    assert (out / "mst" / "q_mst.csv").read_bytes() == (base / "mst" / "q_mst.csv").read_bytes()
    assert_rows_close(keyed(out / "energy" / "energy.csv", 2),
                      keyed(base / "energy" / "energy.csv", 2))


def test_ticker_permutation(market, base):
    prices = read_csv(market / "market" / "prices.csv")
    order = [0, *(1 + np.random.default_rng(3).permutation(len(prices[0]) - 1))]
    assert order != sorted(order)
    permuted = write_csv(market / "permuted.csv", [[row[k] for k in order] for row in prices])

    out = pipeline(market / "permuted", permuted, market / "market" / "sectors.csv")
    assert dates(out) == dates(base)
    for method in METHODS:
        for date in dates(base):
            tickers, h, j = params(base, method, date)
            tickers_p, h_p, j_p = params(out, method, date)
            perm = [tickers.index(t) for t in tickers_p]
            assert tickers_p == [prices[0][k] for k in order[1:]]
            np.testing.assert_allclose(h_p, h[perm], rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(j_p, j[np.ix_(perm, perm)], rtol=RTOL, atol=ATOL)
            tree = f"mst/{method}/{date}.csv"
            assert ({frozenset(row[:2]) for row in read_csv(out / tree)[1:]}
                    == {frozenset(row[:2]) for row in read_csv(base / tree)[1:]})
    assert (out / "mst" / "q_mst.csv").read_bytes() == (base / "mst" / "q_mst.csv").read_bytes()
    assert_rows_close(keyed(out / "energy" / "energy.csv", 2),
                      keyed(base / "energy" / "energy.csv", 2))
    # at n_boot=0 no resample depends on the order of the off-diagonal values
    assert_rows_close(keyed(out / "stats" / "stats.csv", 3),
                      keyed(base / "stats" / "stats.csv", 3))


def test_sector_relabelling(market, base):
    sectors = read_csv(market / "market" / "sectors.csv")
    names = sorted({row[2] for row in sectors[1:]})
    rename = dict(zip(names, ["zeta", "alpha", names[0]]))  # one-to-one, order changed
    assert len(names) == 3 and len(set(rename.values())) == 3
    relabelled = write_csv(market / "relabelled.csv", [sectors[0]] + [
        [ticker, name, rename[sector]] for ticker, name, sector in sectors[1:]])

    out = pipeline(market / "relabelled", market / "market" / "prices.csv", relabelled,
                   stages=("mst", "cutoff"))
    assert (out / "mst" / "q_mst.csv").read_bytes() == (base / "mst" / "q_mst.csv").read_bytes()
    scans = sorted(p.relative_to(base) for p in (base / "cutoff").rglob("*.csv"))
    assert scans == sorted(p.relative_to(out) for p in (out / "cutoff").rglob("*.csv"))
    assert len(scans) == 2 * len(METHODS) * len(dates(base))
    for rel in scans:
        assert (out / rel).read_bytes() == (base / rel).read_bytes(), rel


def test_stride_independence(market, base):
    # closed forms at n_boot=0 only: bootstrap and sampler seeds are keyed by
    # window index (the manifest's seed_rule), which moves with the stride
    out = pipeline(market / "stride", market / "market" / "prices.csv",
                   market / "market" / "sectors.csv", stride=STRIDE // 2,
                   methods=CLOSED_FORMS)
    shared = dates(base)
    assert set(shared) < set(dates(out))
    files = [f"{kind}/{method}/{prefix}{date}.{ext}" for method in CLOSED_FORMS
             for date in shared
             for kind, prefix, ext in (("params", "", "json"), ("mst", "", "csv"),
                                       ("mst", "", "dot"), ("cutoff", "coupling_", "csv"),
                                       ("cutoff", "eigen_", "csv"))]
    for rel in files:
        assert (out / rel).read_bytes() == (base / rel).read_bytes(), rel
    for rel in ("stats/stats.csv", "stats/eigen.csv", "infer_diagnostics.csv",
                "mst/q_mst.csv", "energy/energy.csv"):
        lines = (out / rel).read_text().splitlines()
        want = [line for line in (base / rel).read_text().splitlines()[1:]
                if line.split(",")[0] in shared
                and (rel.startswith("stats/") or line.split(",")[1] in CLOSED_FORMS)]
        assert want and [line for line in lines[1:]
                         if line.split(",")[0] in shared] == want, rel
