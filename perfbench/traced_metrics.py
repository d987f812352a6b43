"""Per-layer metrics from the spans `tracer.py` writes.

A span's self time is its duration minus the durations of its direct
children (children always run on the span's own thread).  A layer's self
time sums the self times of its spans: busy seconds, which can exceed
wall time when worker threads run in parallel.  A function's time counts
only its outermost calls, so recursion or nesting is not counted twice.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

LAYERS = ("panels", "stats", "inference", "model", "network", "evaluation",
          "pipeline")
INFER_FNS = {"infer", "infer_exact", "infer_nmf", "infer_tap", "infer_sm", "infer_ip"}

UNITS = {"_per_s": "1/s", "_s": "s", "_mb": "MB", "_ratio": "ratio"}  # first match wins


def _unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class Spans:
    def __init__(self, payload: dict):
        self.spans = payload["spans"]
        self.events = payload["events"]
        child_time = defaultdict(float)
        for layer, name, tid, t0, t1, parent, facts in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        self.self_time = [s[4] - s[3] - child_time[i] for i, s in enumerate(self.spans)]

    def _nested_in_same(self, index: int) -> bool:
        name = self.spans[index][1]
        parent = self.spans[index][5]
        while parent is not None:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][5]
        return False

    def of(self, *names: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[1] in names]

    def seconds(self, *names: str) -> float:
        return sum(self.spans[i][4] - self.spans[i][3] for i in self.of(*names)
                   if not self._nested_in_same(i))

    def calls(self, *names: str) -> int:
        return len(self.of(*names))

    def facts(self, *names: str) -> list[dict]:
        return [self.spans[i][6] for i in self.of(*names) if self.spans[i][6]]

    def layer_self(self, layer: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if s[0] == layer)

    def event(self, layer: str, *names: str, field: int = 2) -> float:
        return sum(e[field] for e in self.events if e[0] == layer and e[1] in names)

    def entry_fits(self) -> list[dict]:
        """Facts of inference calls made from outside the inference layer."""
        out = []
        for i in self.of(*INFER_FNS):
            parent = self.spans[i][5]
            if parent is None or self.spans[parent][0] != "inference":
                out.append(self.spans[i][6])
        return out


def per_layer(payload: dict, traced: dict, untraced: list[dict], out: Path) -> dict:
    sp = Spans(payload)
    fits = sp.entry_fits()
    exact = sp.facts("infer_exact")
    sample_s = sp.seconds("metropolis_sample")
    flips = sum(f["flips"] for f in sp.facts("metropolis_sample"))
    metrics = {
        "panels.ingest_s": sp.seconds("load_price_csv", "load_sector_csv"),
        "panels.windows": json.loads((out / "manifest.json").read_text())["windows"],
        "stats.window_stats_s": sp.seconds("window_stats"),
        "stats.window_stats_calls": sp.calls("window_stats"),
        "stats.eigh_calls": sp.event("stats", "eigh", "eigvalsh"),
        "stats.summary_s": sp.seconds("off_diagonal_summary"),
        "stats.bootstrap_resamples": sum(f["resamples"] for f in sp.facts("bootstrap_ci")),
        "inference.fits": len(fits),
        "inference.nmf_s": sp.seconds("infer_nmf"),
        "inference.tap_s": sp.seconds("infer_tap"),
        "inference.sm_s": sp.seconds("infer_sm"),
        "inference.exact_s": sp.seconds("infer_exact"),
        "inference.exact_iterations": sum(f["iterations"] for f in exact),
        "inference.converged_ratio": (sum(f["converged"] for f in fits) / len(fits)
                                      if fits else 0.0),
        "inference.tap_fallbacks": sum(f["tap_fallbacks"] for f in sp.facts("infer_tap")),
        "inference.inv_calls": sp.event("inference", "inv"),
        "inference.cond_calls": sp.event("inference", "cond"),
        "model.sample_s": sample_s,
        "model.sample_calls": sp.calls("metropolis_sample"),
        "model.flips_per_s": flips / sample_s if sample_s else 0.0,
        "model.params_json_s": sp.seconds("params_to_json"),
        "model.params_json_mb": sum(f["bytes"] for f in sp.facts("params_to_json")) / 1e6,
        "network.mst_s": sp.seconds("mst_result"),
        "network.coupling_scan_s": sp.seconds("coupling_cutoff_scan"),
        "network.eigen_scan_s": sp.seconds("eigen_cutoff_scan"),
        "network.trees": sp.calls("build_mst", "max_spanning_forest"),
        "network.eigh_calls": sp.event("network", "eigh", "eigvalsh"),
        "evaluation.compare_s": sp.seconds("compare_methods"),
        "evaluation.scaling_s": sp.seconds("scaling_exponents"),
        "evaluation.subset_s": sp.seconds("subset_coupling_scan"),
        "pipeline.write_s": (sp.seconds("write_csv", "write_json")
                             + sp.event("pipeline", "write_text", field=3)),
        "pipeline.files_written": sum(1 for p in out.rglob("*") if p.is_file()),
        "pipeline.wait_s": sp.layer_self("wait"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sp.layer_self(layer)
    metrics["trace.run_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = (traced["wall_s"]
                                   - statistics.median(r["wall_s"] for r in untraced))
    return {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}


def layer_table(metrics: dict) -> str:
    busy = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    lines = [f"{'layer':<12}{'self_s':>10}{'share':>8}"]
    for layer in LAYERS:
        value = metrics[f"{layer}.self_s"]["value"]
        lines.append(f"{layer:<12}{value:>10.3f}{value / busy:>8.1%}")
    lines.append(f"{'wait':<12}{metrics['pipeline.wait_s']['value']:>10.3f}")
    lines.append(f"{'busy total':<12}{busy:>10.3f}; traced wall "
                 f"{metrics['trace.run_s']['value']:.3f} s")
    return "\n".join(lines)
