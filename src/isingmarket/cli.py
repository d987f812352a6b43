"""
Command-line interface.

The pipeline subcommands (stats, infer, mst, cutoff, scaling, subset-scan,
energy, compare, run) orchestrate the windowed pipeline and take every
run-setting flag.  ingest, synth, sample and the one-shot modes of
mst/cutoff/energy/compare (--params, or --a/--b) operate on one file.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .evaluation import compare_methods
from .model import energy_split, metropolis_sample, params_from_json
from .network import check_cutoff_points, edges_to_dot, mst_result, window_forests
from .panels import (binarize, check_file, load_price_csv, load_sector_csv, log_returns,
                     write_csv)
from .pipeline import (ConfigError, NonConvergenceError, RunConfig, _write_edges_csv,
                       _write_scan_csv, config_from_mapping, parse_config_file, run, write_json)
from .synthetic import BlockSpec, generate_synthetic, synthetic_tickers


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--seed", type=int, help="global random seed")
    p.add_argument("--jobs", type=int,
                   help="threads that work the windows, the calling one included; they "
                        "share the GIL: on 2 cores, `infer` at N=200 (151 windows, 3 methods) "
                        "took a median (of 10 runs) 4.0 s at --jobs 1, 3.5 s at --jobs 2")
    p.add_argument("--out-dir", help="output directory")
    p.add_argument("--log-level", choices=["debug", "info", "warning", "error"],
                   default="warning", help="library log messages on stderr")


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prices", help="price CSV (date,TICKER1,...)")
    p.add_argument("--sectors", help="sector CSV (ticker,name,sector)")
    p.add_argument("--kind", choices=["raw", "standardized", "binary"])
    p.add_argument("-T", "--window-size", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--method", dest="methods", help="comma-separated inference methods")
    p.add_argument("--diag-trick", choices=["on", "off"])
    p.add_argument("--eta-h", type=float)
    p.add_argument("--eta-j", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--ridge", type=float)
    p.add_argument("--mc-sweeps", type=int)
    p.add_argument("--mc-chains", type=int)
    p.add_argument("--mc-burnin", type=int)
    p.add_argument("--strict", action="store_true", default=None)
    p.add_argument("--n-boot", type=int)
    p.add_argument("--emit-matrices", action="store_true", default=None)
    p.add_argument("--eigen-top", type=int, dest="eigen_top_k")
    p.add_argument("--cutoff-points", type=int)
    p.add_argument("--sizes", dest="scaling_sizes", help="comma-separated subset sizes")
    p.add_argument("--repeats", type=int, dest="scaling_repeats")
    p.add_argument("--subset", dest="subset_indices", help="comma-separated panel indices")
    p.add_argument("--totals", dest="subset_totals", help="comma-separated universe sizes")
    p.add_argument("--pairs", dest="compare_pairs",
                   help="pipeline mode: comma list like nmf:exact,tap:nmf")


_FIELDS = frozenset(f.name for f in dataclasses.fields(RunConfig))


# ---------------------------------------------------------------------------
# One-shot commands
# ---------------------------------------------------------------------------

def _cmd_ingest(args) -> int:
    panel, dropped = load_price_csv(args.prices)
    out = Path(args.out_dir or ".")
    payload = {"n_rows": panel.n_days, "kept": list(panel.tickers), "dropped": dropped,
               "n_tickers": panel.n_series, "n_days": panel.n_days}
    if args.sectors:
        labels = load_sector_csv(args.sectors).labels_for(panel.tickers)
        payload["sectors"] = dict(zip(panel.tickers, labels))
    write_json(out / "ingest_report.json", payload)
    if args.emit_returns:
        returns = log_returns(panel)
        if args.emit_returns == "binary":
            returns = binarize(returns)
        write_csv(out / f"returns_{args.emit_returns}.csv",
                  "date," + ",".join(panel.tickers),
                  [(returns.dates[t], *returns.values[:, t])
                   for t in range(returns.n_days)])
    print(f"kept {panel.n_series} tickers x {panel.n_days} days; "
          f"dropped {len(dropped)}")
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out_dir or ".")
    if args.truth:
        model = params_from_json(Path(args.truth).read_bytes())
        sectors_path = None
    else:
        model = BlockSpec(args.n_stocks, args.n_sectors, args.j_intra,
                          args.j_inter, args.h_scale)
        sectors_path = out / "sectors.csv"
    generate_synthetic(out / "prices.csv", out / "truth.json",
                       n_days=args.n_days, model=model,
                       seed=args.seed if args.seed is not None else 0,
                       out_sectors=sectors_path)
    print(f"wrote {out / 'prices.csv'} and ground truth")
    return 0


def _cmd_sample(args) -> int:
    params = params_from_json(Path(args.params).read_bytes())
    stats = metropolis_sample(params, n_sweeps=args.sweeps, n_burnin=args.burnin,
                              n_chains=args.chains,
                              seed=args.seed if args.seed is not None else 0,
                              with_third_order=args.third_order,
                              track_states=args.track_states)
    out = Path(args.out_dir or ".")
    tickers = params.tickers or synthetic_tickers(params.n)
    write_csv(out / "sample_means.csv", "ticker,mean,se,r_hat",
              [(t, stats.means[i],
                stats.se_means[i] if stats.se_means is not None else "",
                stats.r_hat[i] if stats.r_hat is not None else "")
               for i, t in enumerate(tickers)])
    write_csv(out / "sample_pair_moments.csv", "ticker," + ",".join(tickers),
              [(t, *stats.pair_moments[i]) for i, t in enumerate(tickers)])
    if args.third_order:
        write_json(out / "sample_third_order.json",
                   {"tickers": list(tickers), "tensor": stats.third_order.tolist()})
    if args.track_states:
        write_csv(out / "sample_state_counts.csv", "state,count",
                  list(enumerate(stats.state_counts.tolist())))
    print(f"sampled {args.chains * args.sweeps} configurations")
    return 0


def _load_params(path, joined: str):
    params = params_from_json(Path(path).read_bytes())
    if not params.tickers:
        raise ConfigError(f"{path} carries no tickers; cannot join {joined}")
    return params


def _cmd_mst(args) -> int:
    params = _load_params(args.params, "sectors")
    labels = load_sector_csv(args.sectors).labels_for(params.tickers)
    tree = mst_result(params.J, labels)
    out = Path(args.out_dir or ".")
    _write_edges_csv(out / "mst.csv", tree.edges, params.tickers, labels)
    (out / "mst.dot").write_text(edges_to_dot(tree.edges, params.tickers, labels))
    write_json(out / "mst_summary.json", {"q_mst": tree.q_mst, "clusters": tree.cluster_sizes})
    print(f"Q_mst = {tree.q_mst:.4f}")
    return 0


def _cmd_cutoff(args) -> int:
    params = _load_params(args.params, "sectors")
    labels = load_sector_csv(args.sectors).labels_for(params.tickers)
    out = Path(args.out_dir or ".")
    points = RunConfig.cutoff_points if args.cutoff_points is None else args.cutoff_points
    check_cutoff_points(points)
    _, pts, pts_e = window_forests([params.J], labels, mst=False, cutoff_points=points,
                                   direction=args.direction or "discard_above")[0]
    _write_scan_csv(out / "coupling_scan.csv", pts)
    _write_scan_csv(out / "eigen_scan.csv", pts_e)
    print(f"wrote scans over {len(pts)} coupling and {len(pts_e)} eigen thresholds")
    return 0


def _cmd_energy(args) -> int:
    params = _load_params(args.params, "prices")
    panel, _ = load_price_csv(args.prices)
    missing = [name for name in params.tickers if name not in panel.tickers]
    if missing:
        raise ConfigError(f"tickers missing from {args.prices}: {missing}")
    binary = binarize(log_returns(panel))
    t = binary.n_days if args.window_size is None else args.window_size
    if not 2 <= t <= binary.n_days:
        raise ConfigError(f"-T/--window-size must lie in [2, {binary.n_days}], "
                          f"the return history; got {t}")
    rows = [panel.tickers.index(name) for name in params.tickers]
    means = binary.values[rows, -t:].mean(axis=1)
    split = energy_split(params, means)
    out = Path(args.out_dir or ".")
    write_json(out / "energy.json", {
        "e_ext": split.e_ext, "e_int": split.e_int,
        "energy_ratio": split.energy_ratio, "bias_ratio": split.bias_ratio,
        "bias_ratio_sign": split.bias_ratio_sign,
        "h_ext_mean": float(np.mean(split.h_ext)),
        "h_int_mean": float(np.mean(split.h_int)),
    })
    print(f"E_ext={split.e_ext:.4f} E_int={split.e_int:.4f} "
          f"ratio={split.energy_ratio:.4f}")
    return 0


def _cmd_compare(args) -> int:
    a, b = (params_from_json(Path(path).read_bytes()) for path in (args.a, args.b))
    cmp = compare_methods(a, b)
    payload = {"h": {"nrmse": cmp.h.nrmse, "pearson": cmp.h.pearson},
               "J": {"nrmse": cmp.j.nrmse, "pearson": cmp.j.pearson}}
    if args.out_dir:
        write_json(Path(args.out_dir) / "compare.json", payload)
    print(json.dumps(payload, indent=1))
    return 0


# one-shot mode flags: setting any of them turns a pipeline subcommand one-shot
_MODE_FLAGS = {
    "params": {"help": "one-shot mode: parameter JSON with tickers"},
    "direction": {"choices": ["discard_above", "discard_below"],
                  "help": "one-shot mode only (default discard_above)"},
    "a": {"help": "one-shot mode: candidate parameter JSON"},
    "b": {"help": "one-shot mode: reference parameter JSON"},
}
# name, stages (None: the config's), help, and the one-shot mode or None:
# ({mode flag: the companion flag it needs}, handler, the RunConfig keys it reads)
_PIPELINE_COMMANDS = (
    ("stats", "stats", "per-window moments, spectra and summaries", None),
    ("infer", "infer", "per-window parameter inference", None),
    ("mst", "mst", "maximum spanning tree and sector clustering",
     ({"params": "sectors"}, _cmd_mst, {"sectors", "out_dir"})),
    ("cutoff", "cutoff", "coupling/eigenvalue threshold scans",
     ({"params": "sectors", "direction": "params"}, _cmd_cutoff,
      {"sectors", "out_dir", "cutoff_points"})),
    ("scaling", "scaling", "moment scaling exponents with subset size", None),
    ("subset-scan", "subset", "fixed-subset couplings vs universe size", None),
    ("energy", "energy", "external/internal energy decomposition",
     ({"params": "prices"}, _cmd_energy, {"prices", "out_dir", "window_size"})),
    ("compare", "compare", "agreement between two parameter sets",
     ({"a": "b", "b": "a"}, _cmd_compare, {"out_dir"})),
    ("run", None, "full configured pipeline", None),
)


def _pipeline_command(args, stages: str | None, one_shot) -> int:
    """The one-shot handler when a mode flag is set, refusing a mode flag without
    its companion, then --config and every key the handler does not read.
    Otherwise the pipeline, on the config file's entries overridden by every
    flag whose dest names a RunConfig field, overridden by the subcommand's
    stages."""
    modes, handler, reads = one_shot or ({}, None, set())
    flags = {k: v for k, v in vars(args).items() if k in _FIELDS and v is not None}
    for flag, companion in modes.items():
        if getattr(args, flag) and not getattr(args, companion):
            raise ConfigError(f"{args.command} --{flag} needs --{companion}")
    if mode := next((flag for flag in modes if getattr(args, flag)), None):
        unread = ["config"] * bool(args.config) + sorted(set(flags) - reads)
        if unread:
            raise ConfigError(f"{args.command} --{mode} reads only the keys "
                              f"{sorted(reads)}; drop {unread}")
        return handler(args)
    mapping = parse_config_file(args.config) if args.config else {}
    mapping.update(flags)
    if stages is not None:
        mapping["stages"] = stages
    cfg = config_from_mapping(mapping)
    manifest = run(cfg)
    print(f"wrote {cfg.out_dir} ({manifest['windows']} windows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingmarket",
        description="Pairwise maximum-entropy models of binarized stock returns")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a price CSV and report drops")
    _add_common(p)
    p.add_argument("--prices", required=True)
    p.add_argument("--sectors")
    p.add_argument("--emit-returns", choices=["raw", "binary"])
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("synth", help="generate synthetic prices from a planted model")
    _add_common(p)
    p.add_argument("--n-stocks", type=int, default=24)
    p.add_argument("--n-days", type=int, default=1001)
    p.add_argument("--n-sectors", type=int, default=3)
    p.add_argument("--j-intra", type=float, default=0.08)
    p.add_argument("--j-inter", type=float, default=0.0)
    p.add_argument("--h-scale", type=float, default=0.05)
    p.add_argument("--truth", help="sample from an existing parameter JSON instead")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("sample", help="Monte Carlo moments of a parameter file")
    _add_common(p)
    p.add_argument("--params", required=True)
    p.add_argument("--sweeps", type=int, default=5000)
    p.add_argument("--burnin", type=int, default=1000)
    p.add_argument("--chains", type=int, default=10)
    p.add_argument("--third-order", action="store_true")
    p.add_argument("--track-states", action="store_true")
    p.set_defaults(fn=_cmd_sample)

    for name, stages, help_text, one_shot in _PIPELINE_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        _add_pipeline_flags(p)
        for flag in one_shot[0] if one_shot else ():
            p.add_argument(f"--{flag}", **_MODE_FLAGS[flag])
        p.set_defaults(fn=partial(_pipeline_command, stages=stages, one_shot=one_shot))
    return parser


# flags that name a file some command reads; checked before any command runs
_INPUT_FILES = ("config", "prices", "sectors", "params", "truth", "a", "b")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=args.log_level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        for dest in _INPUT_FILES:
            if (path := getattr(args, dest, None)) is not None:
                check_file(f"--{dest}", path)
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NonConvergenceError as err:
        print(f"non-convergence: {err}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, KeyError, np.linalg.LinAlgError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
