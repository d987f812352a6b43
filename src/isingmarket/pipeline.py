"""
End-to-end pipeline: ingest, transform, one unit of work per window
(statistics, inference, network/energy/compare analyses, written as soon as
they are computed), last-window scaling/subset scans, and a reproducibility
manifest.

All outputs are plain CSV/JSON/DOT.  Their bytes are fixed by the config,
seed, BLAS library, BLAS thread count and CPU, whatever the worker
scheduling: per-window seeds are SeedSequence entropy (seed, window index,
stage salt).  They stay plain int tuples until a stage draws random
numbers, so a closed-form run never loads numpy.random.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .evaluation import (check_scaling, check_subset, compare_methods,
                         scaling_exponents, subset_coupling_scan)
from .inference import InferenceConfig, infer
from .model import check_seed, energy_split, write_params
from .network import check_cutoff_points, edges_to_dot, window_forests
from .panels import (RETURN_KINDS, _append_rows, _open_csv, binarize, check_file,
                     check_stride, load_price_csv, load_sector_csv, log_returns,
                     standardize_window, windows, write_csv)
from .stats import (ConfigError, check_bootstrap, dft_amplitudes, eigen_csv_rows,
                    off_diagonal_summary, stats_csv_rows, window_stats)

STAGES = ("stats", "infer", "mst", "cutoff", "scaling", "subset", "energy",
          "compare")
# stages that fit every window; scaling and subset fit the last window instead
_WINDOW_FIT_STAGES = {"infer", "mst", "cutoff", "energy", "compare"}


class NonConvergenceError(Exception):
    """Strict mode: some window failed to converge; maps to exit code 4."""


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run, checked when the config is made."""

    prices: str
    out_dir: str
    sectors: str | None = None
    kind: str = "binary"                  # one of panels.RETURN_KINDS
    window_size: int = 250
    stride: int = 1
    stages: tuple[str, ...] = ("stats", "infer")
    methods: tuple[str, ...] = ("nmf",)
    compare_pairs: tuple[tuple[str, str], ...] = ()
    seed: int = 0
    jobs: int = 1
    strict: bool = False
    # inference knobs: InferenceConfig's fields of the same name
    # (diag_trick is its diagonal_trick), defaults included
    diag_trick: bool = InferenceConfig.diagonal_trick
    eta_h: float = InferenceConfig.eta_h
    eta_j: float = InferenceConfig.eta_j
    eta_decay: float = InferenceConfig.eta_decay
    max_iters: int = InferenceConfig.max_iters
    tol: float = InferenceConfig.tol
    ridge: float = InferenceConfig.ridge
    mc_sweeps: int = InferenceConfig.mc_sweeps
    mc_chains: int = InferenceConfig.mc_chains
    mc_burnin: int = InferenceConfig.mc_burnin
    exact_max_n: int = InferenceConfig.exact_max_n
    # analysis knobs
    eigen_top_k: int = 4
    n_boot: int = 0
    boot_level: float = 0.95
    emit_matrices: bool = False
    cutoff_points: int = 15
    scaling_sizes: tuple[int, ...] = ()
    scaling_repeats: int = 20
    subset_indices: tuple[int, ...] = ()
    subset_totals: tuple[int, ...] = ()

    def __post_init__(self):
        for key, low in (("window_size", 2), ("jobs", 1), ("eigen_top_k", 1)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be at least {low}")
        check_stride(self.stride)
        check_cutoff_points(self.cutoff_points)
        check_bootstrap(self.n_boot, self.boot_level)
        check_seed(self.seed)
        if self.kind not in RETURN_KINDS:
            raise ConfigError(f"unknown transform kind {self.kind!r}")
        if not self.stages:
            raise ConfigError(f"no stages selected; choose from {STAGES}")
        unknown = set(self.stages) - set(STAGES)
        if unknown:
            raise ConfigError(f"unknown stages {sorted(unknown)}; choose from {STAGES}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ConfigError(f"methods repeated: {repeated}")
        for method in self.methods:
            self.inference_config(method, None)
        for key in ("prices", "sectors"):
            if (path := getattr(self, key)) is not None:
                check_file(key, path)
        fit_stages = (_WINDOW_FIT_STAGES | {"scaling", "subset"}) & set(self.stages)
        if fit_stages and self.kind != "binary":
            raise ConfigError("inference-based stages require kind=binary")
        if fit_stages and not self.methods:
            raise ConfigError("no inference methods selected")
        if {"mst", "cutoff"} & set(self.stages) and self.sectors is None:
            raise ConfigError("mst/cutoff stages need a sectors file")
        if "compare" in self.stages and not self.compare_pairs:
            raise ConfigError("compare stage needs compare_pairs")
        for a, b in self.compare_pairs:
            if a not in self.methods or b not in self.methods:
                raise ConfigError(f"compare pair {a}:{b} not covered by methods")
        if "scaling" in self.stages:
            check_scaling(self.scaling_sizes, self.scaling_repeats)
        if "subset" in self.stages:
            check_subset(self.subset_indices, self.subset_totals)

    def inference_config(self, method: str, seed) -> InferenceConfig:
        """InferenceConfig for `method`: every field the two classes share."""
        shared = {f.name: getattr(self, f.name)
                  for f in dataclasses.fields(InferenceConfig) if hasattr(self, f.name)}
        shared.update(method=method, seed=seed, diagonal_trick=self.diag_trick)
        return InferenceConfig(**shared)


def parse_config_file(path) -> dict:
    """key=value UTF-8 text config; '#' starts a comment, blank lines ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} is not UTF-8 text ({err})") from err
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _split(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _parse_bool(text: str) -> bool:
    v = text.strip().lower()
    if v in ("1", "true", "on", "yes"):
        return True
    if v in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_pair(chunk: str) -> tuple[str, str]:
    if ":" not in chunk:
        raise ValueError(f"compare pair {chunk!r} must look like nmf:exact")
    a, b = chunk.split(":", 1)
    return a.strip(), b.strip()


# text parser for each RunConfig field annotation
_PARSERS = {
    "str": str,
    "str | None": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[str, ...]": _split,
    "tuple[int, ...]": lambda text: tuple(int(v) for v in _split(text)),
    "tuple[tuple[str, str], ...]": lambda text: tuple(map(_parse_pair, _split(text))),
}


def config_from_mapping(mapping: dict) -> RunConfig:
    """Build a RunConfig from a mapping (config file and/or CLI).  Text values
    are parsed by their field's declared type; typed values pass through."""
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    kwargs = {}
    for key, value in mapping.items():
        if value is None:
            continue
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, str):
            try:
                value = _PARSERS[types[key]](value)
            except ValueError as err:
                raise ConfigError(f"{key}: {err}") from err
        kwargs[key] = value
    missing = {"prices", "out_dir"} - set(kwargs)
    if missing:
        raise ConfigError(f"missing required config keys: {sorted(missing)}")
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _file_record(path) -> dict:
    data = Path(path).read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


# Collated CSVs hold rows from every window, appended in window order.
_COLLATED = {
    "stats": ("stats/stats.csv", "date,series,stat,value,ci_lo,ci_hi"),
    "eigen": ("stats/eigen.csv", "date,rank,eigenvalue"),
    "diag": ("infer_diagnostics.csv",
             "date,method,converged,iterations,residual,cond_cov,tap_fallbacks"),
    "q_mst": ("mst/q_mst.csv", "date,method,q_mst"),
    "energy": ("energy/energy.csv",
               "date,method,e_ext,e_int,energy_ratio,bias_ratio,bias_ratio_sign"),
    "compare": ("compare/compare.csv", "date,pair,target,nrmse,pearson"),
}


# ---------------------------------------------------------------------------
# The run orchestrator
# ---------------------------------------------------------------------------

def _window_seed(root_seed: int, index: int, salt: int = 0) -> tuple[int, int, int]:
    """Entropy of one window's stage seed (the manifest's `seed_rule`); a stage
    that draws makes its SeedSequence from it."""
    return (root_seed, index, salt)


def run(cfg: RunConfig) -> dict:
    """Execute the configured stages; returns the manifest dictionary.

    On any failure, an interrupt included, partial outputs are kept, a
    `.partial` marker is written and the manifest records the failed stage
    before the exception propagates.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "version": __version__,
        "config": dataclasses.asdict(cfg),
        "seed_rule": "SeedSequence([seed, window_index, stage_salt])",
        "stages": {},
        "failure": None,
    }
    marker = out / ".partial"
    try:
        _run_stages(cfg, out, manifest)
    except BaseException:
        marker.touch()
        write_json(out / "manifest.json", manifest)
        raise
    write_json(out / "manifest.json", manifest)
    marker.unlink(missing_ok=True)
    return manifest


@contextmanager
def _stage(manifest: dict, name: str):
    """Time one stage into manifest["stages"]; an exception inside it, an
    interrupt included, is recorded as the run's failure and propagates."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as err:
        manifest["failure"] = {"stage": name, "error": f"{type(err).__name__}: {err}"}
        raise
    manifest["stages"][name] = {"seconds": time.perf_counter() - t0}


def _run_stages(cfg: RunConfig, out: Path, manifest: dict) -> None:
    with _stage(manifest, "ingest"):
        manifest["inputs"] = {key: _file_record(path) if path else None
                              for key, path in (("prices", cfg.prices), ("sectors", cfg.sectors))}
        panel, dropped = load_price_csv(cfg.prices)
        tickers = panel.tickers
        labels = (load_sector_csv(cfg.sectors).labels_for(tickers)
                  if cfg.sectors else None)
        returns = log_returns(panel)
        write_json(out / "ingest_report.json",
                   {"n_rows": panel.n_days, "kept": list(tickers),
                    "dropped": dropped, "n_return_steps": returns.n_days})
        binary = binarize(returns)
        items = list(enumerate(windows(binary if cfg.kind == "binary" else returns,
                                       cfg.window_size, cfg.stride)))
        if "scaling" in cfg.stages:
            check_scaling(cfg.scaling_sizes, cfg.scaling_repeats, panel.n_series)
        if "subset" in cfg.stages:
            check_subset(cfg.subset_indices, cfg.subset_totals, panel.n_series)
        manifest["windows"] = len(items)
        # spectrum of the cross-sectional mean return, raw vs binary
        dft_rows = [(kind, k, a) for kind, values in (("raw", returns.values),
                                                      ("binary", binary.values))
                    for k, a in enumerate(dft_amplitudes(values.mean(axis=0)))
                    ] if "stats" in cfg.stages else None
        # scaling and subset fit the last window
        last = (binary.values[:, -cfg.window_size:]
                if {"scaling", "subset"} & set(cfg.stages) else None)
        # the windows are views and keep alive only the panel they read
        del panel, returns, binary

    with _stage(manifest, "windows"):
        if dft_rows is not None:
            write_csv(out / "stats" / "dft_mean_return.csv", "kind,bin,amplitude", dft_rows)
        convergence: list[dict] = []
        if _WINDOW_FIT_STAGES & set(cfg.stages):
            manifest["convergence"] = convergence
        diag_columns = _COLLATED["diag"][1].split(",")

        def unit(item):
            idx, (date, block) = item
            try:
                return _window_unit(cfg, out, idx, date, block, tickers, labels)
            except ValueError as err:
                raise ValueError(f"window ending {date}: {err}") from err

        with ExitStack() as stack:
            files: dict = {}

            def collate(window_rows):  # on the calling thread, in window order
                for key, rows in window_rows.items():
                    if key not in files:
                        rel, header = _COLLATED[key]
                        files[key] = stack.enter_context(_open_csv(out / rel, header))
                    if key == "diag":  # each fit's record: a manifest entry and a CSV row
                        convergence.extend(rows)
                        rows = [[record[c] for c in diag_columns] for record in rows]
                    _append_rows(files[key], rows)

            _map_in_order(unit, items, cfg.jobs, collate)
        failed = sum(not record["converged"] for record in convergence)
        if cfg.strict and failed:
            raise NonConvergenceError(f"{failed} window/method fits did not converge")

    if "scaling" in cfg.stages:
        with _stage(manifest, "scaling"):
            _write_scaling_outputs(cfg, out, last)
    if "subset" in cfg.stages:
        with _stage(manifest, "subset"):
            _write_subset_outputs(cfg, out, last)


def _map_in_order(fn, items: list, jobs: int, consume) -> None:
    """Call `consume(fn(item))` for every item, in item order, on the calling
    thread.  min(jobs, len(items)) threads work in total, in rounds of that
    many items: a pool runs all but the first item of a round, the calling
    thread runs the first, then consumes the round's results in order.  The
    next round starts only then, so each pool item finds an idle thread.

    A failure, an interrupt included, raises at the earliest failed item once
    the results of every earlier item are consumed; the round's running items
    finish first, and no later round starts.
    """
    threads = max(1, min(jobs, len(items)))
    # a pool starts no thread until something is submitted, so jobs=1 starts none
    with ThreadPoolExecutor(max_workers=max(1, threads - 1)) as pool:
        for start in range(0, len(items), threads):
            first, *rest = items[start:start + threads]
            futures = [pool.submit(fn, item) for item in rest]
            consume(fn(first))
            for future in futures:
                consume(future.result())


def _window_unit(cfg: RunConfig, out: Path, idx: int, date: str, block,
                 tickers, labels) -> dict[str, list]:
    """Compute one window and write its own files: stats, each method's fit
    and params, trees, scans, energy and comparisons.  Returns the window's
    rows of the collated CSVs, keyed as in `_COLLATED` (a fit's `diag` row is
    its record, a dict); nothing else of the window outlives the call."""
    rows: dict[str, list] = {}
    if not {"stats", *_WINDOW_FIT_STAGES} & set(cfg.stages):
        return rows  # scaling and subset fit the last window instead
    if cfg.kind == "standardized":
        block = standardize_window(block, tickers)
    st = window_stats(block, tickers)
    if "stats" in cfg.stages:
        boot_seed = None
        if cfg.n_boot:  # the only stats step that imports numpy.random
            entropy = _window_seed(cfg.seed, idx, salt=7)
            boot_seed = int(np.random.SeedSequence(entropy).generate_state(1)[0])
        summary = off_diagonal_summary(st.covariance, n_boot=cfg.n_boot,
                                       level=cfg.boot_level, seed=boot_seed)
        rows["stats"] = stats_csv_rows(date, tickers, block, summary)
        rows["eigen"] = eigen_csv_rows(date, st.covariance, cfg.eigen_top_k)
        if cfg.emit_matrices:
            vol = np.sqrt(np.diag(st.covariance))
            corr = st.covariance / np.outer(vol, vol)
            np.fill_diagonal(corr, 1.0)
            corr = np.clip(corr, -1.0, 1.0)
            for name, m in (("cov", st.covariance), ("corr", corr)):
                write_json(out / "stats" / "matrices" / f"{date}_{name}.json",
                           {"tickers": list(tickers), "matrix": m.tolist()})
    if not _WINDOW_FIT_STAGES & set(cfg.stages):  # RunConfig ensures kind == "binary" past here
        return rows
    fits = {}  # each method's params, kept only for the stages that read them
    keep_fits = bool({"mst", "cutoff", "compare"} & set(cfg.stages))
    for m_i, method in enumerate(cfg.methods):
        seed = _window_seed(cfg.seed, idx, salt=100 + m_i)
        res = infer(st, cfg.inference_config(method, seed))
        params = res.params
        if keep_fits:
            fits[method] = params
        path = out / "params" / method / f"{date}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        # write_params writes J a row at a time; the rows reach the OS in 64 KiB pieces
        with open(path, "wb", buffering=1 << 16) as fh:
            write_params(fh, params)
            fh.write(b"\n")
        rows.setdefault("diag", []).append(  # the manifest's `convergence` entry
            {"date": date, "method": method, "converged": res.converged,
             "iterations": res.iterations, "residual": res.residual,
             "cond_cov": res.cond_cov, "tap_fallbacks": res.tap_fallbacks,
             "stop_reason": res.stop_reason, "mc_r_hat_max": res.mc_r_hat_max})
        if "energy" in cfg.stages:
            split = energy_split(params, st.means)
            rows.setdefault("energy", []).append(
                (date, method, split.e_ext, split.e_int, split.energy_ratio,
                 split.bias_ratio, split.bias_ratio_sign))
    if {"mst", "cutoff"} & set(cfg.stages):
        points = cfg.cutoff_points if "cutoff" in cfg.stages else 0
        trees = window_forests([p.J for p in fits.values()], labels,
                               mst="mst" in cfg.stages, cutoff_points=points)
        for method, (tree, coupling, eigen) in zip(fits, trees):
            if tree is not None:
                base = out / "mst" / method
                _write_edges_csv(base / f"{date}.csv", tree.edges, tickers, labels)
                (base / f"{date}.dot").write_text(edges_to_dot(tree.edges, tickers, labels))
                rows.setdefault("q_mst", []).append((date, method, tree.q_mst))
            if points:
                _write_scan_csv(out / "cutoff" / method / f"coupling_{date}.csv", coupling)
                _write_scan_csv(out / "cutoff" / method / f"eigen_{date}.csv", eigen)
    if "compare" in cfg.stages:
        rows["compare"] = []
        for a, b in cfg.compare_pairs:
            cmp = compare_methods(fits[a], fits[b])
            rows["compare"].append((date, f"{a}:{b}", "h", cmp.h.nrmse, cmp.h.pearson))
            rows["compare"].append((date, f"{a}:{b}", "J", cmp.j.nrmse, cmp.j.pearson))
    return rows


def _write_edges_csv(path: Path, edges, tickers, labels) -> None:
    write_csv(path, "i_ticker,j_ticker,weight,i_sector,j_sector",
              [(tickers[i], tickers[j], w, labels[i], labels[j]) for i, j, w in edges])


def _write_scan_csv(path: Path, points) -> None:
    write_csv(path, "threshold,q_mst,disconnected",
              [(p.threshold, p.q_mst, p.disconnected) for p in points])


def _write_scaling_outputs(cfg, out, window) -> None:
    method = cfg.methods[0]
    report = scaling_exponents(window, cfg.scaling_sizes, cfg.scaling_repeats,
                               fit=cfg.inference_config(method, None), seed=cfg.seed)
    rows = []
    summary = {}
    for param_name, fits in (("h", report.h), ("J", report.j)):
        for moment, fit in fits.items():
            for r, alpha in zip(fit.kept_repeats, fit.alphas):
                for size in report.sizes:
                    rows.append((size, r, f"{param_name}.{moment}", alpha))
            summary[f"{param_name}.{moment}"] = {
                "alpha": fit.alpha, "alpha_se": fit.alpha_se,
                "n_excluded": fit.n_excluded}
    write_csv(out / "scaling" / "scaling.csv", "size,repeat,moment,alpha", rows)
    write_json(out / "scaling" / "scaling.json",
               {"sizes": list(report.sizes), "repeats": report.repeats,
                "method": method, "exponents": summary})


def _write_subset_outputs(cfg, out, window) -> None:
    method = cfg.methods[0]
    scan = subset_coupling_scan(window, cfg.subset_indices, cfg.subset_totals,
                                fit=cfg.inference_config(method, None), seed=cfg.seed)
    rows = [(e.total, e.mean, e.std,
             ";".join(f"{i}-{j}" for i, j, _ in e.top_pairs),
             ";".join(f"{i}-{j}" for i, j, _ in e.bottom_pairs))
            for e in scan.entries]
    write_csv(out / "subset" / "subset_summary.csv",
              "total,mean,std,top_pairs,bottom_pairs", rows)
    write_json(out / "subset" / "subset_scan.json", {
        "subset": list(scan.subset),
        "method": method,
        "entries": [{"total": e.total, "members": list(e.members),
                     "couplings": e.couplings.tolist(),
                     "mean": e.mean, "std": e.std} for e in scan.entries],
    })
