"""Benchmark of the isingmarket CLI on seeded synthetic markets.

    python3 perfbench/run.py --workload market_full --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The benchmark writes the
workload's inputs from `--seed` (see `inputs.py`), times
`isingmarket ingest` on them (set-up), then runs the workload's command
as a subprocess, again while the `--seconds` budget allows, and checks
every run's outputs (see `checks.py`).  Nothing is installed: the CLI
runs from `src/` through PYTHONPATH.

With `--trace 0` the last output line carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics of one extra traced run
(`tracer.py`).  Preceding lines record the environment and the input
digest; each result is also appended to .perfbench_out/results.jsonl.
Work files go to .perfbench_out/ in the checkout; a run's outputs are
deleted once they pass the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import inputs
import traced_metrics

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_out")
SETUP_REPEATS = 9            # ingest is short and noisy; setup_s is their median
DEADLINE_S = 165.0          # every child is killed past this point of the run
RSS_POLL_S = 0.05
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NOT_APPLICABLE = 1.0        # q_mst_mean / fit_residual on workloads without them

MARKET_FULL_CONFIG = {
    "stages": "stats,infer,mst,cutoff,scaling,subset,energy,compare",
    "n_boot": "200",
    "compare_pairs": "nmf:sm,tap:sm",
    "scaling_sizes": "15,30,45,60",
    "subset_indices": "0,1,2,3,4,20,21,22,23,24",
    "subset_totals": "10,20,40,60",
}

WORKLOADS = {
    "market_full": {
        "inputs": {"kind": "block", "n_stocks": 60, "n_days": 2001,
                   "n_sectors": 3, "j_intra": 0.01, "h_scale": 0.05},
        "command": "run", "window": 250, "stride": 50,
        "methods": ["nmf", "tap", "sm"], "jobs": 1, "config": MARKET_FULL_CONFIG,
    },
    "wide_infer": {
        "inputs": {"kind": "coin", "n_stocks": 200, "n_days": 1001},
        "command": "infer", "window": 250, "stride": 5,
        "methods": ["nmf", "tap", "sm"], "jobs": 2, "config": {},
    },
    "mc_learn": {
        "inputs": {"kind": "block", "n_stocks": 24, "n_days": 2001,
                   "n_sectors": 3, "j_intra": 0.04, "h_scale": 0.05},
        "command": "run", "window": 500, "stride": 500,
        "methods": ["exact"], "jobs": 1,
        "config": {"stages": "infer,mst", "tol": "1e-4", "max_iters": "12"},
    },
}

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB",
             "fit_ok_ratio": "ratio", "j_truth_rmse": "1", "q_mst_mean": "1",
             "fit_residual": "1"}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _tree_rss_kb(pid: int) -> int:
    """Resident memory of a process and all its descendants, from /proc."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmRSS:"):
                    total += int(line.split()[1])
            for children in Path(f"/proc/{p}/task").glob("*/children"):
                todo.extend(int(c) for c in children.read_text().split())
        except (OSError, ValueError):
            continue
    return total


def spawn(argv: list[str], env: dict, log: Path, deadline: Deadline) -> dict:
    """Run argv to completion; return exit code, wall seconds and peak RSS.

    Peak RSS is the larger of the kernel's high-water mark for the child
    (and children it waited for) and the polled sum over the live process
    tree, so worker processes count.  The child is killed at the deadline.
    """
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
        stop = threading.Event()
        peak = [0]

        def poll():
            while not stop.wait(RSS_POLL_S):
                peak[0] = max(peak[0], _tree_rss_kb(proc.pid))
                if deadline.left() <= 0:
                    proc.kill()

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            stop.set()
            poller.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": max(usage.ru_maxrss, peak[0]) * 1024 / 1e6}


def cli_env(root: Path) -> dict:
    """The caller's environment with src/ on PYTHONPATH and BLAS pinned to
    one thread, so timings do not depend on how BLAS splits small matrices
    and outputs stay byte-comparable between machines."""
    env = dict(os.environ, **{k: "1" for k in PINNED_THREADS})
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, env: dict) -> dict:
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    probe = subprocess.run([sys.executable, str(HERE / "blasinfo.py")], env=env,
                           text=True, capture_output=True, timeout=60)
    record = {"git_sha": sha, "src_sha256": source_digest(root), "nproc": os.cpu_count(),
              "thread_env": {k: env[k] for k in PINNED_THREADS}}
    record.update(json.loads(probe.stdout))
    return record


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------

def command(wl: dict, files: dict, out: Path, seed: int, config: Path) -> list[str]:
    argv = [wl["command"], "--prices", str(files["prices"]), "--out-dir", str(out),
            "-T", str(wl["window"]), "--stride", str(wl["stride"]),
            "--method", ",".join(wl["methods"]), "--jobs", str(wl["jobs"]),
            "--seed", str(seed)]
    if "mst" in wl["config"].get("stages", ""):
        argv += ["--sectors", str(files["sectors"])]
    if wl["config"]:
        argv += ["--config", str(config)]
    return argv


def plan_for(wl: dict, return_dates: list[str]) -> dict:
    config = wl["config"]
    dates = checks.expected_dates(return_dates, wl["window"], wl["stride"])
    n = wl["inputs"]["n_stocks"]
    return {
        "dates": dates, "methods": wl["methods"],
        "stages": config.get("stages", "infer").split(","),
        "tickers": [f"S{i:03d}" for i in range(n)],
        "n_steps": len(return_dates),
        "compare_pairs": config.get("compare_pairs", "").split(","),
        "subset_totals": config.get("subset_totals", "").split(","),
        "cutoff_points": 15, "eigen_top_k": 4,
    }


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def measured_run(argv, env, out: Path, log: Path, deadline, plan, truth: Path) -> dict:
    if out.exists():
        shutil.rmtree(out)
    result = spawn(argv, env, log, deadline)
    verdict = checks.check_run(out, plan, truth, env)
    if result["code"] != 0:
        verdict["problems"].insert(0, f"exit code {result['code']}: "
                                      + log.read_text()[-400:].strip())
    failed = verdict["planned_fits"] if verdict["problems"] else 0
    result.update(verdict, failed_fits=failed, output_mb=dir_mb(out),
                  digest=checks.output_digest(out) if not verdict["problems"] else None)
    return result


def end_to_end(runs: list[dict], setup: list[float]) -> dict:
    first = runs[0]
    planned = sum(r["planned_fits"] for r in runs)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "output_mb": statistics.median(r["output_mb"] for r in runs),
        "fit_ok_ratio": 1.0 - sum(r["failed_fits"] for r in runs) / planned,
        "j_truth_rmse": first["j_rmse"],
        "q_mst_mean": (statistics.fmean(first["q_mst"]) if first["q_mst"]
                       else NOT_APPLICABLE),
        "fit_residual": (statistics.fmean(first["residuals"]) if first["residuals"]
                         else NOT_APPLICABLE),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def compare_digests(store: Path, key: str, runs: list[dict]) -> list[str]:
    """Outputs of one seed must be byte-equal (MST edges as sets) across the
    repeats of a run and across runs of the same code, inputs and BLAS setting."""
    digests = {r["digest"] for r in runs if r["digest"]}
    if len(digests) > 1:
        return ["outputs differ between repeats of the same seed"]
    if not digests:
        return []
    known = json.loads(store.read_text()) if store.exists() else {}
    digest = digests.pop()
    if known.setdefault(key, digest) != digest:
        return [f"outputs differ from an earlier run of the same seed and code ({key})"]
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "isingmarket" / "__init__.py").is_file():
        print(f"no isingmarket sources under {root / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2

    deadline = Deadline(DEADLINE_S)
    wl = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    generated = inputs.write_inputs(wl["inputs"], args.seed, work / "inputs")
    files = generated["files"]
    config = work / "run.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in wl["config"].items()))
    env = cli_env(root)
    cli = [sys.executable, "-m", "isingmarket"]
    out = work / "out"
    argv = cli + command(wl, files, out, args.seed, config)
    plan = plan_for(wl, generated["return_dates"])
    env_record = environment(root, env)

    # warm-up: byte-compiles the package and pulls the inputs into the page cache
    ingest = cli + ["ingest", "--prices", str(files["prices"]), "--out-dir", str(work / "ingest")]
    ingests = [spawn(ingest, env, work / "ingest.log", deadline)
               for _ in range(1 if args.trace else 1 + SETUP_REPEATS)]
    setup = [r["wall_s"] for r in ingests[1:]]

    runs = []
    budget = Deadline(args.seconds)
    while not runs or (budget.left() >= runs[-1]["wall_s"]
                       and deadline.left() > 2 * runs[-1]["wall_s"]):
        runs.append(measured_run(argv, env, out, work / "run.log", deadline, plan,
                                 files["truth"]))

    if args.trace:
        spans_path = work / "spans.json"
        traced_argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), "--"]
        traced = measured_run(traced_argv + argv[3:], env, out, work / "trace.log",
                              deadline, plan, files["truth"])
        runs.append(traced)

    key = ":".join([args.workload, str(args.seed), generated["digest"][:16],
                    env_record["src_sha256"][:16], env_record["numpy"],
                    str(env_record["blas"]["library"]), str(env_record["blas"]["threads"])])
    problems = [f"ingest exited {r['code']}" for r in ingests if r["code"]]
    problems += [p for r in runs for p in r["problems"]]
    problems += compare_digests(WORK / "digests.json", key, runs)
    attempted = sum(r["planned_fits"] for r in runs)
    failed = sum(r["failed_fits"] for r in runs)
    if problems and not failed:
        failed = attempted

    if args.trace and not traced["problems"]:
        metrics = traced_metrics.per_layer(
            json.loads(spans_path.read_text()), traced, runs[:-1], out)
        print(traced_metrics.layer_table(metrics))
    elif args.trace:
        metrics = {}
    else:
        metrics = end_to_end(runs, setup)
    if problems:  # a failed run can leave NaN values, which are not JSON
        metrics = {k: {**v, "value": v["value"] if math.isfinite(v["value"]) else None}
                   for k, v in metrics.items()}
    if not problems:  # the outputs are checked; wide_infer's take ~380 MB
        shutil.rmtree(out)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "input_sha256": generated["digest"],
              "runs": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")} for r in runs],
              "environment": env_record, "problems": problems, "metrics": metrics}
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("inputs " + generated["digest"])
    print("environment " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
