"""Output checks for one benchmark run of the isingmarket CLI.

A run passes when it exited 0, wrote every file its stages promise with
the expected row counts, every numeric CSV cell is finite, and every
params file round-trips through `params_from_json` (in child processes
started with the environment the program ran in).  The checks return a
list of problems (empty when the run passed) plus what the metrics need.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

CHECK_WORKERS = 2  # params round trips run after the timed run, in child processes


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _nonfinite(rows) -> int:
    bad = 0
    for row in rows:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            bad += not math.isfinite(value)
    return bad


def round_trip(paths: list[str], truth_path: str) -> list:
    """Load each params file through `params_from_json`; return
    [problem or None, RMSE of J against the planted truth] per file."""
    from isingmarket.model import params_from_json

    truth = json.loads(Path(truth_path).read_text())
    truth_j = np.asarray(truth["J"])
    iu = np.triu_indices(len(truth["tickers"]), k=1)
    results = []
    for path in map(Path, paths):
        rel = "/".join(path.parts[-3:])
        try:
            params = params_from_json(path.read_text())
        except (OSError, ValueError, KeyError, TypeError) as err:
            results.append([f"{rel}: {type(err).__name__}: {err}", None])
            continue
        if list(params.tickers or ()) != truth["tickers"]:
            results.append([f"{rel}: wrong tickers", None])
            continue
        results.append([None, float(np.sqrt(np.mean((params.J[iu] - truth_j[iu]) ** 2)))])
    return results


def round_trip_parallel(paths: list[Path], truth_path: Path, env: dict) -> list:
    """`round_trip` split over CHECK_WORKERS child processes (this file run
    as a script, request on stdin, results on stdout), in input order."""
    chunks = [[str(p) for p in paths[k::CHECK_WORKERS]] for k in range(CHECK_WORKERS)]
    procs = [subprocess.Popen([sys.executable, __file__], env=env, text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
             for _ in chunks]
    parts = []
    for proc, chunk in zip(procs, chunks):
        stdout, _ = proc.communicate(json.dumps({"paths": chunk, "truth": str(truth_path)}))
        parts.append(json.loads(stdout) if proc.returncode == 0
                     else [[f"params check exited {proc.returncode}", None]] * len(chunk))
    results = [None] * len(paths)
    for k, part in enumerate(parts):
        results[k::CHECK_WORKERS] = part
    return results


def expected_dates(return_dates: list[str], window: int, stride: int) -> list[str]:
    return [return_dates[end] for end in range(window - 1, len(return_dates), stride)]


def check_run(out: Path, plan: dict, truth_path: Path, env: dict) -> dict:
    """Check one finished run's out-dir against its plan.

    `plan` holds `dates`, `methods`, `stages`, `tickers` and the stage
    settings (`compare_pairs`, `cutoff_points`, `subset_totals`,
    `eigen_top_k`).  Returns `problems`, `planned_fits`, the mean
    J-vs-truth RMSE over valid fits, `q_mst` values and `residuals`.
    """
    problems: list[str] = []
    dates, methods, stages = plan["dates"], plan["methods"], set(plan["stages"])
    tickers = plan["tickers"]
    n = len(tickers)
    fits = [(m, d) for d in dates for m in methods]

    def need(rel: str) -> Path | None:
        path = out / rel
        if not path.is_file():
            problems.append(f"missing {rel}")
            return None
        return path

    def count(rel: str, want: int) -> list[list[str]]:
        path = need(rel)
        if path is None:
            return []
        rows = _rows(path)
        if len(rows) != want:
            problems.append(f"{rel}: {len(rows)} rows, expected {want}")
        return rows

    manifest_path = need("manifest.json")
    if manifest_path is not None:
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("failure") is not None:
            problems.append(f"manifest records failure {manifest['failure']}")
        if manifest.get("windows") != len(dates):
            problems.append(f"manifest windows {manifest.get('windows')}, "
                            f"expected {len(dates)}")
    if (out / ".partial").exists():
        problems.append("partial-run marker present")

    diag = count("infer_diagnostics.csv", len(fits))
    if sorted((row[1], row[0]) for row in diag) != sorted(fits):
        problems.append("infer_diagnostics.csv does not list every planned fit")
    residuals = [float(row[4]) for row in diag if row[4] != ""]

    paths = [out / "params" / method / f"{date}.json" for method, date in fits]
    checked = round_trip_parallel(paths, truth_path, env)
    problems += [problem for problem, _ in checked if problem]
    rmse = [value for problem, value in checked if not problem]

    if "stats" in stages:
        count("stats/stats.csv", len(dates) * (4 * n + 4))
        count("stats/eigen.csv", len(dates) * min(plan["eigen_top_k"], n))
        count("stats/dft_mean_return.csv", 2 * (plan["n_steps"] // 2 + 1))
    q_mst = []
    if "mst" in stages:
        q_rows = count("mst/q_mst.csv", len(fits))
        q_mst = [float(row[2]) for row in q_rows]
        if any(not 0.0 < q <= 1.0 for q in q_mst):
            problems.append("mst/q_mst.csv: Q_mst outside (0, 1]")
        for method, date in fits:
            count(f"mst/{method}/{date}.csv", n - 1)
            need(f"mst/{method}/{date}.dot")
    if "cutoff" in stages:
        for method, date in fits:
            for scan in ("coupling", "eigen"):
                count(f"cutoff/{method}/{scan}_{date}.csv", plan["cutoff_points"])
    if "energy" in stages:
        count("energy/energy.csv", len(fits))
    if "compare" in stages:
        count("compare/compare.csv", len(dates) * len(plan["compare_pairs"]) * 2)
    if "scaling" in stages:
        path = need("scaling/scaling.csv")
        if path is not None and not _rows(path):
            problems.append("scaling/scaling.csv: no rows")
        need("scaling/scaling.json")
    if "subset" in stages:
        count("subset/subset_summary.csv", len(plan["subset_totals"]))
        need("subset/subset_scan.json")

    for path in sorted(out.rglob("*.csv")):
        bad = _nonfinite(_rows(path))
        if bad:
            problems.append(f"{path.relative_to(out)}: {bad} non-finite values")
    return {"problems": problems, "planned_fits": len(fits),
            "j_rmse": float(np.mean(rmse)) if rmse else math.nan,
            "q_mst": q_mst, "residuals": residuals}


def output_digest(out: Path) -> str:
    """sha256 over every output but the manifest (it holds timings).

    Spanning-tree edge lists are compared as sets: their CSV rows and DOT
    lines are sorted before hashing, so a change of edge order alone does
    not change the digest.
    """
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel == "manifest.json":
            continue
        data = path.read_bytes()
        if rel.startswith("mst/") and rel != "mst/q_mst.csv":
            data = b"\n".join(sorted(data.splitlines()))
        digest.update(rel.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


if __name__ == "__main__":
    request = json.load(sys.stdin)
    print(json.dumps(round_trip(request["paths"], request["truth"])))
