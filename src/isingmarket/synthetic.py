"""
Synthetic market generation from planted models, for end-to-end pipeline
verification against known ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .model import IsingParams, _check_sampling, _simulate, params_to_json
from .network import SectorMap
from .stats import ConfigError

PRICE_STEP = 0.01  # log-return magnitude; cosmetic, sign carries the signal


@dataclass(frozen=True)
class BlockSpec:
    """Equal-size sector blocks with intra/inter-sector couplings."""

    n_stocks: int
    n_sectors: int
    j_intra: float
    j_inter: float = 0.0
    h_scale: float = 0.0

    def __post_init__(self):
        if self.n_stocks < 2 or self.n_sectors < 1:
            raise ConfigError("need at least two stocks and one sector")
        if self.n_stocks % self.n_sectors:
            raise ConfigError("n_stocks must divide evenly into n_sectors blocks")


def synthetic_tickers(n: int) -> tuple[str, ...]:
    return tuple(f"S{i:03d}" for i in range(n))


def block_model(spec: BlockSpec, seed=None) -> tuple[IsingParams, SectorMap]:
    """Planted block model: couplings j_intra inside sectors, j_inter across,
    fields drawn uniformly in [-h_scale, h_scale]."""
    rng = np.random.default_rng(seed)
    n = spec.n_stocks
    per = n // spec.n_sectors
    sector_of = np.repeat(np.arange(spec.n_sectors), per)
    same = sector_of[:, None] == sector_of[None, :]
    j = np.where(same, spec.j_intra, spec.j_inter).astype(np.float64)
    np.fill_diagonal(j, 0.0)
    h = rng.uniform(-spec.h_scale, spec.h_scale, size=n) if spec.h_scale else np.zeros(n)
    tickers = synthetic_tickers(n)
    mapping = {t: f"SEC{sector_of[i]}" for i, t in enumerate(tickers)}
    return IsingParams(h, j, tickers=tickers), SectorMap(mapping)


def random_model(n: int, h_scale: float, j_scale: float, seed=None,
                 tickers=None) -> IsingParams:
    """Planted model with uniform fields and couplings."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(-h_scale, h_scale, size=n)
    j = rng.uniform(-j_scale, j_scale, size=(n, n))
    j = np.triu(j, k=1)
    j = j + j.T
    return IsingParams(h, j, tickers=tickers or synthetic_tickers(n))


def sample_binary_panel(params: IsingParams, n_steps: int, seed=None,
                        n_burnin: int = 500) -> np.ndarray:
    """Sample an (N, n_steps) +-1 panel from the model.

    Each column is the final state of its own Metropolis chain after
    n_burnin + 1 sweeps from a random start, so the days are independent
    draws, as the model's inference assumes.
    """
    _check_sampling(1, n_burnin, n_steps, seed)
    configs = _simulate(params, n_chains=n_steps, n_sweeps=1, n_burnin=n_burnin,
                        rng=np.random.default_rng(seed))
    return configs[:, 0].T.astype(np.float64)


def trading_dates(n: int, start: str = "1990-01-02") -> tuple[str, ...]:
    """n consecutive calendar-day identifiers in ISO format."""
    d0 = date.fromisoformat(start)
    return tuple((d0 + timedelta(days=k)).isoformat() for k in range(n))


def prices_from_signs(signs: np.ndarray, s0: float = 100.0,
                      step: float = PRICE_STEP) -> np.ndarray:
    """Price paths S(t+1) = S(t) exp(step * sign) from an (N, L-1) sign panel."""
    log_prices = np.cumsum(np.concatenate(
        [np.full((signs.shape[0], 1), np.log(s0)), step * signs], axis=1), axis=1)
    return np.exp(log_prices)


def prices_to_csv(tickers, dates, prices: np.ndarray) -> str:
    lines = ["date," + ",".join(tickers)]
    for t, d in enumerate(dates):
        lines.append(d + "," + ",".join(repr(float(p)) for p in prices[:, t]))
    return "\n".join(lines) + "\n"


def sectors_to_csv(sector_map: SectorMap) -> str:
    lines = ["ticker,name,sector"]
    for ticker in sorted(sector_map.mapping):
        lines.append(f"{ticker},{ticker},{sector_map.mapping[ticker]}")
    return "\n".join(lines) + "\n"


def generate_synthetic(out_prices, out_truth, n_days: int,
                       model: IsingParams | BlockSpec, seed=None,
                       out_sectors=None, n_burnin: int = 500) -> IsingParams:
    """Write a synthetic price CSV plus its ground-truth parameter JSON.

    `model` is either planted parameters or a BlockSpec (in which case a
    sector CSV can be written too).  Binarizing the log returns of the
    emitted prices recovers exactly the sampled spin panel.  Settings are
    checked (ConfigError) before the output directories are made.
    """
    if n_days < 2:
        raise ConfigError("need at least two price days")
    _check_sampling(1, n_burnin, n_days - 1, seed)
    if out_sectors is not None and not isinstance(model, BlockSpec):
        raise ConfigError("sector output requested but model has no sectors")
    for path in filter(None, (out_prices, out_truth, out_sectors)):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    if isinstance(model, BlockSpec):
        ss = np.random.SeedSequence(seed).spawn(2)
        params, sector_map = block_model(model, seed=ss[0])
        sample_seed = ss[1]
    else:
        params = model
        sample_seed = seed
    signs = sample_binary_panel(params, n_days - 1, seed=sample_seed,
                                n_burnin=n_burnin)
    prices = prices_from_signs(signs)
    tickers = params.tickers or synthetic_tickers(params.n)
    dates = trading_dates(n_days)
    with open(out_prices, "w") as fh:
        fh.write(prices_to_csv(tickers, dates, prices))
    with open(out_truth, "wb") as fh:
        fh.write(params_to_json(params))
    if out_sectors is not None:
        with open(out_sectors, "w") as fh:
            fh.write(sectors_to_csv(sector_map))
    return params
