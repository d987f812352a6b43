"""
Command-line interface.

Subcommands either orchestrate the windowed pipeline (stats, infer, mst,
cutoff, scaling, subset-scan, energy, compare, run) or operate one-shot on
parameter/price files (ingest, synth, sample, and the --params modes of
mst/cutoff/energy/compare).

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .evaluation import compare_methods
from .model import (STATE_TRACKING_MAX_N, THIRD_ORDER_MAX_N, energy_split,
                    metropolis_sample, params_from_json)
from .network import edges_to_csv, edges_to_dot, mst_result, window_forests
from .panels import binarize, load_price_csv, log_returns
from .pipeline import (ConfigError, NonConvergenceError, RunConfig,
                       _sector_labels, _write_scan_csv, config_from_mapping,
                       parse_config_file, run, write_csv, write_json)
from .stats import window_stats
from .synthetic import BlockSpec, generate_synthetic, synthetic_tickers


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--seed", type=int, help="global random seed")
    p.add_argument("--jobs", type=int,
                   help="window worker threads; they share the GIL: on 2 cores, `infer` "
                        "at N=200 took a median 5.5 s at --jobs 1 and 4.7 s at --jobs 2")
    p.add_argument("--out-dir", help="output directory")
    p.add_argument("--log-level", choices=["debug", "info", "warning", "error"],
                   default="warning", help="library log messages on stderr")


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prices", help="price CSV (date,TICKER1,...)")
    p.add_argument("--sectors", help="sector CSV (ticker,name,sector)")
    p.add_argument("--kind", choices=["raw", "standardized", "binary"])
    p.add_argument("-T", "--window-size", type=int, dest="window_size")
    p.add_argument("--stride", type=int)
    p.add_argument("--method", dest="methods",
                   help="comma-separated inference methods")
    p.add_argument("--diag-trick", dest="diag_trick", choices=["on", "off"])
    p.add_argument("--eta-h", type=float, dest="eta_h")
    p.add_argument("--eta-j", type=float, dest="eta_j")
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--tol", type=float)
    p.add_argument("--ridge", type=float)
    p.add_argument("--mc-sweeps", type=int, dest="mc_sweeps")
    p.add_argument("--mc-chains", type=int, dest="mc_chains")
    p.add_argument("--mc-burnin", type=int, dest="mc_burnin")
    p.add_argument("--strict", action="store_true", default=None)


def _pipeline_mapping(args, stages: str | None) -> dict:
    """Config file entries, overridden by every flag whose dest names a
    RunConfig field, overridden by the subcommand's stages."""
    mapping = parse_config_file(args.config) if args.config else {}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    mapping.update((k, v) for k, v in vars(args).items()
                   if k in fields and v is not None)
    if stages is not None:
        mapping["stages"] = stages
    return mapping


def _run_pipeline(args, stages: str | None) -> int:
    cfg = config_from_mapping(_pipeline_mapping(args, stages))
    manifest = run(cfg)
    print(f"wrote {cfg.out_dir} ({manifest['windows']} windows)")
    return 0


# ---------------------------------------------------------------------------
# One-shot commands
# ---------------------------------------------------------------------------

def _cmd_ingest(args) -> int:
    panel, report = load_price_csv(args.prices)
    out = Path(args.out_dir or ".")
    payload = {"n_rows": report.n_rows, "kept": report.kept,
               "dropped": report.dropped,
               "n_tickers": panel.n_series, "n_days": panel.n_days}
    if args.sectors:
        payload["sectors"] = dict(zip(panel.tickers,
                                      _sector_labels(args.sectors, panel.tickers)))
    write_json(out / "ingest_report.json", payload)
    if args.emit_returns:
        returns = log_returns(panel)
        if args.emit_returns == "binary":
            returns = binarize(returns)
        write_csv(out / f"returns_{args.emit_returns}.csv",
                  "date," + ",".join(panel.tickers),
                  [(returns.dates[t], *returns.values[:, t])
                   for t in range(returns.n_steps)])
    print(f"kept {panel.n_series} tickers x {panel.n_days} days; "
          f"dropped {len(report.dropped)}")
    return 0


def _cmd_synth(args) -> int:
    if args.n_days < 2:
        raise ConfigError("--n-days must be at least 2")
    out = Path(args.out_dir or ".")
    if args.truth:
        model = params_from_json(Path(args.truth).read_bytes())
        sectors_path = None
    else:
        try:
            model = BlockSpec(args.n_stocks, args.n_sectors, args.j_intra,
                              args.j_inter, args.h_scale)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        sectors_path = out / "sectors.csv"
    out.mkdir(parents=True, exist_ok=True)
    generate_synthetic(out / "prices.csv", out / "truth.json",
                       n_days=args.n_days, model=model,
                       seed=args.seed if args.seed is not None else 0,
                       out_sectors=sectors_path)
    print(f"wrote {out / 'prices.csv'} and ground truth")
    return 0


def _cmd_sample(args) -> int:
    for flag, value, low in (("--sweeps", args.sweeps, 1), ("--burnin", args.burnin, 0),
                             ("--chains", args.chains, 1)):
        if value < low:
            raise ConfigError(f"{flag} must be at least {low}")
    params = params_from_json(Path(args.params).read_bytes())
    for flag, wanted, max_n in (("--track-states", args.track_states,
                                 STATE_TRACKING_MAX_N),
                                ("--third-order", args.third_order, THIRD_ORDER_MAX_N)):
        if wanted and params.n > max_n:
            raise ConfigError(f"{flag} limited to N <= {max_n}; "
                              f"{args.params} has N={params.n}")
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
    if not args.params:
        return _run_pipeline(args, "mst")
    params = _load_params(args.params, "sectors")
    labels = _sector_labels(args.sectors, params.tickers)
    tree = mst_result(params.J, labels)
    out = Path(args.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "mst.csv").write_text(edges_to_csv(tree.edges, params.tickers, labels))
    (out / "mst.dot").write_text(edges_to_dot(tree.edges, params.tickers, labels))
    write_json(out / "mst_summary.json",
               {"q_mst": tree.q_mst,
                "clusters": tree.cluster_sizes,
                "disconnected": tree.disconnected})
    print(f"Q_mst = {tree.q_mst:.4f}")
    return 0


def _cmd_cutoff(args) -> int:
    if not args.params:
        return _run_pipeline(args, "cutoff")
    params = _load_params(args.params, "sectors")
    labels = _sector_labels(args.sectors, params.tickers)
    out = Path(args.out_dir or ".")
    points = RunConfig.cutoff_points if args.cutoff_points is None else args.cutoff_points
    if points < 1:
        raise ConfigError("cutoff_points must be at least 1")
    _, pts, pts_e = window_forests([params.J], labels, mst=False, cutoff_points=points,
                                   direction=args.direction)[0]
    _write_scan_csv(out / "coupling_scan.csv", pts)
    _write_scan_csv(out / "eigen_scan.csv", pts_e)
    print(f"wrote scans over {len(pts)} coupling and {len(pts_e)} eigen thresholds")
    return 0


def _cmd_energy(args) -> int:
    if not args.params:
        return _run_pipeline(args, "energy")
    params = _load_params(args.params, "prices")
    panel, _ = load_price_csv(args.prices)
    missing = [name for name in params.tickers if name not in panel.tickers]
    if missing:
        raise ConfigError(f"tickers missing from {args.prices}: {missing}")
    binary = binarize(log_returns(panel))
    t = binary.n_steps if args.window_size is None else args.window_size
    if not 2 <= t <= binary.n_steps:
        raise ConfigError(f"-T/--window-size must lie in [2, {binary.n_steps}], "
                          f"the return history; got {t}")
    rows = [panel.tickers.index(name) for name in params.tickers]
    means = window_stats(binary.values[rows, -t:]).means
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
    if not args.a:
        return _run_pipeline(args, "compare")
    a, b = (params_from_json(Path(path).read_bytes()) for path in (args.a, args.b))
    cmp = compare_methods(a, b)
    payload = {"h": {"nrmse": cmp.h.nrmse, "pearson": cmp.h.pearson},
               "J": {"nrmse": cmp.j.nrmse, "pearson": cmp.j.pearson}}
    if args.out_dir:
        write_json(Path(args.out_dir) / "compare.json", payload)
    print(json.dumps(payload, indent=1))
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

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

    for name, stages, extra in (
        ("stats", "stats", "per-window moments, spectra and summaries"),
        ("infer", "infer", "per-window parameter inference"),
        ("run", None, "full configured pipeline"),
    ):
        p = sub.add_parser(name, help=extra)
        _add_common(p)
        _add_pipeline_flags(p)
        if name == "stats":
            p.add_argument("--n-boot", type=int, dest="n_boot")
            p.add_argument("--emit-matrices", action="store_true",
                           default=None, dest="emit_matrices")
            p.add_argument("--eigen-top", type=int, dest="eigen_top_k")
        p.set_defaults(fn=lambda a, s=stages: _run_pipeline(a, s))

    p = sub.add_parser("sample", help="Monte Carlo moments of a parameter file")
    _add_common(p)
    p.add_argument("--params", required=True)
    p.add_argument("--sweeps", type=int, default=5000)
    p.add_argument("--burnin", type=int, default=1000)
    p.add_argument("--chains", type=int, default=10)
    p.add_argument("--third-order", action="store_true")
    p.add_argument("--track-states", action="store_true")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("mst", help="maximum spanning tree and sector clustering")
    _add_common(p)
    _add_pipeline_flags(p)
    p.add_argument("--params", help="one-shot mode: parameter JSON with tickers")
    p.set_defaults(fn=_cmd_mst)

    p = sub.add_parser("cutoff", help="coupling/eigenvalue threshold scans")
    _add_common(p)
    _add_pipeline_flags(p)
    p.add_argument("--params")
    p.add_argument("--direction", choices=["discard_above", "discard_below"],
                   default="discard_above")
    p.add_argument("--cutoff-points", type=int, dest="cutoff_points")
    p.set_defaults(fn=_cmd_cutoff)

    p = sub.add_parser("scaling", help="moment scaling exponents with subset size")
    _add_common(p)
    _add_pipeline_flags(p)
    p.add_argument("--sizes", dest="scaling_sizes", required=True,
                   help="comma-separated subset sizes")
    p.add_argument("--repeats", type=int, dest="scaling_repeats")
    p.set_defaults(fn=lambda a: _run_pipeline(a, "scaling"))

    p = sub.add_parser("subset-scan", help="fixed-subset couplings vs universe size")
    _add_common(p)
    _add_pipeline_flags(p)
    p.add_argument("--subset", dest="subset_indices", required=True,
                   help="comma-separated panel indices")
    p.add_argument("--totals", dest="subset_totals", required=True,
                   help="comma-separated universe sizes")
    p.set_defaults(fn=lambda a: _run_pipeline(a, "subset"))

    p = sub.add_parser("energy", help="external/internal energy decomposition")
    _add_common(p)
    _add_pipeline_flags(p)
    p.add_argument("--params")
    p.set_defaults(fn=_cmd_energy)

    p = sub.add_parser("compare", help="agreement between two parameter sets")
    _add_common(p)
    _add_pipeline_flags(p)
    p.add_argument("--a", help="candidate parameter JSON")
    p.add_argument("--b", help="reference parameter JSON")
    p.add_argument("--pairs", dest="compare_pairs",
                   help="pipeline mode: comma list like nmf:exact,tap:nmf")
    p.set_defaults(fn=_cmd_compare)

    return parser


# flags that name a file some command reads; checked before any command runs
_INPUT_FILES = ("config", "prices", "sectors", "params", "truth", "a", "b")
# (command, flag, companion): the one-shot mode that `flag` selects needs `companion`
_ONE_SHOT_NEEDS = (("mst", "params", "sectors"), ("cutoff", "params", "sectors"),
                   ("energy", "params", "prices"), ("compare", "a", "b"),
                   ("compare", "b", "a"))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=args.log_level.upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        for command, flag, companion in _ONE_SHOT_NEEDS:
            if (args.command == command and getattr(args, flag)
                    and not getattr(args, companion)):
                raise ConfigError(f"{command} --{flag} needs --{companion}")
        for dest in _INPUT_FILES:
            path = getattr(args, dest, None)
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"--{dest} file {path!r} is not a file")
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
