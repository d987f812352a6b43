"""Seeded input panels for the benchmark workloads.

The generator is the benchmark's own: it does not call `isingmarket synth`
or the library sampler, so a change to the package's synthetic data cannot
move the inputs between two commits under comparison.

Every day is an independent draw.  Block markets run one heat-bath chain
per day (all days advance together, vectorized) for `BURNIN_SWEEPS` full
sweeps from a uniform random start; fair-coin panels draw each sign
directly.  Energies follow the package convention H(s) = -h.s - s'Js, so a
spin feels the local field h_i + 2 sum_j J_ij s_j.
"""

from __future__ import annotations

import hashlib
import json
from datetime import date, timedelta
from pathlib import Path

import numpy as np

BURNIN_SWEEPS = 200
PRICE_STEP = 0.01


def block_truth(n_stocks: int, n_sectors: int, j_intra: float, h_scale: float,
                rng: np.random.Generator):
    """Planted couplings j_intra inside equal sectors, 0 across; fields
    uniform in [-h_scale, h_scale]; sector index per stock."""
    sector = np.repeat(np.arange(n_sectors), n_stocks // n_sectors)
    j = np.where(sector[:, None] == sector[None, :], j_intra, 0.0)
    np.fill_diagonal(j, 0.0)
    h = rng.uniform(-h_scale, h_scale, size=n_stocks) if h_scale else np.zeros(n_stocks)
    return h, j, sector


def heat_bath_days(h: np.ndarray, j: np.ndarray, n_days: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(N, n_days) spins, one independent equilibrated chain per day."""
    n = h.size
    s = rng.choice(np.array([-1.0, 1.0]), size=(n_days, n))
    for _ in range(BURNIN_SWEEPS):
        u = rng.random((n, n_days))
        for i in range(n):
            local = h[i] + 2.0 * (s @ j[:, i])
            s[:, i] = np.where(u[i] < 1.0 / (1.0 + np.exp(-2.0 * local)), 1.0, -1.0)
    return s.T.copy()


def _prices_csv(signs: np.ndarray, tickers, dates) -> str:
    """Price paths S(t+1) = S(t) exp(step * sign) starting at 100; the sign
    of each log return is the planted spin."""
    n = signs.shape[0]
    prices = np.exp(np.log(100.0) + PRICE_STEP * np.concatenate(
        [np.zeros((n, 1)), np.cumsum(signs, axis=1)], axis=1))
    lines = ["date," + ",".join(tickers)]
    for t, day in enumerate(dates):
        lines.append(day + "," + ",".join(repr(float(p)) for p in prices[:, t]))
    return "\n".join(lines) + "\n"


def write_inputs(spec: dict, seed: int, out: Path) -> dict:
    """Write prices.csv, sectors.csv and the planted truth.json.

    `spec` holds `kind` ("block" or "coin"), `n_stocks`, `n_days` and, for
    block markets, `n_sectors`, `j_intra` and `h_scale`.  Returns the file
    paths, the return dates and the sha256 digest over the written files.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 20150409]))
    n, n_days = spec["n_stocks"], spec["n_days"]
    tickers = [f"S{i:03d}" for i in range(n)]
    dates = [(date(1990, 1, 2) + timedelta(days=t)).isoformat() for t in range(n_days)]
    if spec["kind"] == "block":
        h, j, sector = block_truth(n, spec["n_sectors"], spec["j_intra"],
                                   spec["h_scale"], rng)
        signs = heat_bath_days(h, j, n_days - 1, rng)
    else:
        h, j, sector = np.zeros(n), np.zeros((n, n)), np.zeros(n, dtype=int)
        signs = rng.choice(np.array([-1.0, 1.0]), size=(n, n_days - 1))
    files = {
        "prices": out / "prices.csv",
        "truth": out / "truth.json",
        "sectors": out / "sectors.csv",
    }
    files["prices"].write_text(_prices_csv(signs, tickers, dates))
    files["truth"].write_text(json.dumps(
        {"tickers": tickers, "h": h.tolist(), "J": j.tolist()}))
    files["sectors"].write_text("ticker,name,sector\n" + "".join(
        f"{t},{t},SEC{sector[i]}\n" for i, t in enumerate(tickers)))
    digest = hashlib.sha256()
    for key in sorted(files):
        digest.update(files[key].read_bytes())
    return {"files": files, "return_dates": dates[1:], "digest": digest.hexdigest()}
