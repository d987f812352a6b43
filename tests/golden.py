"""Golden outputs: one small seeded run whose every output file but the
manifest is pinned in `golden_reference.json`, and the script that rebuilds
that reference.

The run: a 12-stock, 3-sector synthetic market (400 days, seed 5), then
`run -T 100 --stride 50` with all eight stages and all five methods.  At
N=12 the exact fit enumerates, so no Metropolis chain can fork on a last-bit
difference.  Each file is kept as cells: text verbatim, integers exactly,
other numbers to 12 significant digits, compared at a relative 1e-9 so that
other CPUs and BLAS thread counts pass.  Spanning-tree files are kept as
sets of lines, as the benchmark's output digest keeps them.

    PYTHONPATH=src python tests/golden.py

rebuilds the reference.  Rebuild it only with a change that moves an output
on purpose, and name the moved files and the reason in CHANGES.md.  Before
it writes, it checks that no discrete output (a spanning tree, a scan
point's Q_mst, a subset's pair ranking, an exact fit's iteration count) sits
within rounding of a tie or a threshold; if one does, pick another seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from isingmarket.cli import main as cli_main
from isingmarket.inference import InferenceConfig, infer_exact
from isingmarket.model import params_from_json
from isingmarket.network import window_forests
from isingmarket.panels import binarize, load_price_csv, load_sector_csv, log_returns, windows
from isingmarket.pipeline import RunConfig
from isingmarket.stats import window_stats

REFERENCE = Path(__file__).with_name("golden_reference.json")
SEED = 5
WINDOW, STRIDE = 100, 50
SYNTH = ["synth", "--n-stocks", "12", "--n-sectors", "3", "--n-days", "400"]
# nmf first: scaling and subset fit with the first method, and a closed form
# has no stopping rule whose threshold rounding could cross
CONFIG = """\
stages=stats,infer,mst,cutoff,scaling,subset,energy,compare
methods=nmf,tap,sm,ip,exact
n_boot=100
compare_pairs=nmf:exact,tap:exact,ip:sm
scaling_sizes=4,8,12
subset_indices=0,1,2
subset_totals=3,6,12
"""
REL_TOL = 1e-9
DIGITS = 12  # a stored number is off by at most 5e-12, relative
PERTURBATION = 1e-12  # relative: far above rounding, far below REL_TOL
DRAWS = 20


def run_golden(root: Path) -> Path:
    """Write the golden market and run the pipeline on it; return the out-dir."""
    market, out = root / "market", root / "out"
    (root / "run.cfg").write_text(CONFIG)
    assert cli_main([*SYNTH, "--seed", str(SEED), "--out-dir", str(market),
                     "--log-level", "error"]) == 0
    assert cli_main(["run", "--config", str(root / "run.cfg"),
                     "--prices", str(market / "prices.csv"),
                     "--sectors", str(market / "sectors.csv"),
                     "-T", str(WINDOW), "--stride", str(STRIDE), "--seed", str(SEED),
                     "--out-dir", str(out), "--log-level", "error"]) == 0
    return out


def _number(x):
    """A JSON value with floats cut to DIGITS and non-finite floats as text."""
    if isinstance(x, float):
        return float(f"{x:.{DIGITS}g}") if math.isfinite(x) else repr(x)
    if isinstance(x, list):
        return [_number(v) for v in x]
    if isinstance(x, dict):
        return {k: _number(v) for k, v in x.items()}
    return x


def _cell(text: str):
    for parse in (int, float):
        try:
            return _number(parse(text))
        except ValueError:
            pass
    return text


def summarize(out: Path) -> dict:
    """Every output file but the manifest as {relative path: cells}."""
    summary = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel == "manifest.json":
            continue
        text = path.read_text()
        if path.suffix == ".json":
            summary[rel] = _number(json.loads(text))
            continue
        lines = text.splitlines()
        if rel.startswith("mst/") and rel != "mst/q_mst.csv":
            lines = lines[:1] + sorted(lines[1:])  # edge order is not an output
        rows = (csv.reader(io.StringIO("\n".join(lines))) if path.suffix == ".csv"
                else (line.split('"') for line in lines))
        summary[rel] = [[_cell(c) for c in row] for row in rows]
    return summary


def mismatches(want, got, where: str = "") -> list[str]:
    """Where `got` differs from `want`: text and integers exactly, floats at
    a relative REL_TOL."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(want, got, rel_tol=REL_TOL) else [
            f"{where}: {got!r} != {want!r}"]
    if type(want) is not type(got):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(want[k], got[k], f"{where}/{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{where}: {len(got)} entries != {len(want)}"]
        return [m for k, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, f"{where}[{k}]")]
    return [] if want == got else [f"{where}: {got!r} != {want!r}"]


def _perturbed(a: np.ndarray, rng) -> np.ndarray:
    """`a` with each distinct value moved by its own relative amount up to
    PERTURBATION: exact ties stay tied (they break by index on every
    machine), near ties may flip, and a symmetric matrix stays symmetric."""
    values, where = np.unique(a, return_inverse=True)
    moved = values * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0, values.size))
    return moved[where].reshape(a.shape)


def _tree_outputs(j, labels):
    """What a window's files show of one fit's trees: the MST edge set and
    each scan point's (Q_mst, disconnected)."""
    tree, coupling, eigen = window_forests([j], labels, mst=True,
                                           cutoff_points=RunConfig.cutoff_points)[0]
    return ({(a, b) for a, b, _ in tree.edges},
            [(p.q_mst, p.disconnected) for p in coupling + eigen])


def near_ties(root: Path, out: Path) -> list[str]:
    """Discrete outputs of the golden run that rounding could flip."""
    rng = np.random.default_rng(0)
    problems = []
    market = root / "market"
    panel, _ = load_price_csv(market / "prices.csv")
    labels = load_sector_csv(market / "sectors.csv").labels_for(panel.tickers)
    for path in sorted(out.glob("params/*/*.json")):
        j = params_from_json(path.read_bytes()).J
        want = _tree_outputs(j, labels)
        if any(_tree_outputs(_perturbed(j, rng), labels) != want for _ in range(DRAWS)):
            problems.append(f"{path.relative_to(out)}: a tree or scan point flips")
    for entry in json.loads((out / "subset" / "subset_scan.json").read_text())["entries"]:
        block = np.asarray(entry["couplings"])
        vals = np.sort(block[np.triu_indices(len(block), k=1)])
        if np.any(np.diff(vals) <= REL_TOL * np.abs(vals).max()):
            problems.append(f"subset total {entry['total']}: tied pair couplings")
    cfg = InferenceConfig(method="exact")
    with open(out / "infer_diagnostics.csv", newline="") as fh:
        iterations = {r["date"]: int(r["iterations"]) for r in csv.DictReader(fh)
                      if r["method"] == "exact"}
    for date, window in windows(binarize(log_returns(panel)), WINDOW, STRIDE):
        fit = infer_exact(window_stats(window, panel.tickers), cfg)
        assert fit.iterations == iterations[date], "refit does not reproduce the run"
        if any(abs(r - cfg.tol) <= 1e-6 * cfg.tol for r in fit.residual_history):
            problems.append(f"exact {date}: a residual sits at tol")
    return problems


def rebuild() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = run_golden(root)
        problems = near_ties(root, out)
        if problems:
            print("\n".join(problems + ["reference not written: pick another seed"]),
                  file=sys.stderr)
            return 1
        summary = summarize(out)
    # one line per file, so a moved output shows as its own line in a diff
    lines = [f"{json.dumps(rel)}: {json.dumps(cells, separators=(',', ':'))}"
             for rel, cells in summary.items()]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {REFERENCE.name}: {len(summary)} files, {REFERENCE.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(rebuild())
