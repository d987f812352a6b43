"""Run the isingmarket CLI in-process with a span around every call into
the package's public functions.

    python3 perfbench/tracer.py SPANS.json -- <isingmarket arguments>

Every public function defined in a package module is replaced, in every
package namespace and module-level dispatch table that refers to it, by a
wrapper that records a span: layer (the module; `cli` counts as
`pipeline`), function name, thread, start, end, parent span and a few
call facts.  Each thread keeps its own span stack, so spans from worker
threads never become children of another thread's span.

Calls to numpy.linalg eigh/eigvalsh/inv/cond and to Path.write_text are
not spans: they are counted, with their time, against the layer of the
enclosing span, so a layer's self time still includes them.  Waiting on a
worker pool's results (`Future.result`) is a span of its own layer,
`wait`, so the waiting thread's layer is not charged for the workers'
time.

Spans stay in memory and are written once, when the CLI returns.  The
process exits with the CLI's exit code.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import json
import pathlib
import sys
import threading
import time

import numpy as np

MODULES = ("panels", "stats", "inference", "model", "network", "evaluation",
           "pipeline", "synthetic", "cli")
LINALG = ("eigh", "eigvalsh", "inv", "cond")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [layer, name, tid, t0, t1, parent, facts]
        self.events: dict[tuple[str, str], list] = {}  # (layer, fn) -> [calls, s]
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, fn):
        facts_of = FACTS.get(fn.__name__)
        signature = inspect.signature(fn) if facts_of else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [layer, fn.__name__, threading.get_ident(), 0.0, 0.0,
                      stack[-1] if stack else None, None]
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if facts_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[6] = facts_of(bound.arguments, result)
            return result

        return wrapper

    def event(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack = self._stack()
                layer = self.spans[stack[-1]][0] if stack else "outside"
                with self._lock:
                    slot = self.events.setdefault((layer, name), [0, 0.0])
                    slot[0] += 1
                    slot[1] += dt

        return wrapper

    def dump(self, path: str) -> None:
        payload = {
            "spans": self.spans,
            "events": [[layer, name, calls, secs]
                       for (layer, name), (calls, secs) in self.events.items()],
        }
        pathlib.Path(path).write_text(json.dumps(payload))


def _fit_facts(arguments, result):
    return {"converged": bool(result.converged),
            "iterations": int(result.iterations),
            "tap_fallbacks": int(result.diagnostics.get("tap_fallbacks") or 0)}


def _sample_facts(arguments, result):
    """Attempted flips: chains x (burn-in + sweeps) x N."""
    a = arguments
    return {"flips": a["n_chains"] * (a["n_burnin"] + a["n_sweeps"]) * a["params"].n}


FACTS = {
    "infer": _fit_facts,
    "infer_exact": _fit_facts,
    "infer_nmf": _fit_facts,
    "infer_tap": _fit_facts,
    "infer_sm": _fit_facts,
    "infer_ip": _fit_facts,
    "metropolis_sample": _sample_facts,
    "bootstrap_ci": lambda a, r: {"resamples": a["n_resamples"]},
    "params_to_json": lambda a, r: {"bytes": len(r)},
}


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and the counted library calls."""
    modules = {name: importlib.import_module(f"isingmarket.{name}") for name in MODULES}
    wrapped = {}
    for name, mod in modules.items():
        layer = "pipeline" if name == "cli" else name
        for attr, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[value] = tracer.span(layer, value)
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("isingmarket"):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
            elif isinstance(value, dict):
                for key, item in value.items():
                    if inspect.isfunction(item) and item in wrapped:
                        value[key] = wrapped[item]
    for name in LINALG:
        setattr(np.linalg, name, tracer.event(name, getattr(np.linalg, name)))
    pathlib.Path.write_text = tracer.event("write_text", pathlib.Path.write_text)
    future = concurrent.futures.Future
    future.result = tracer.span("wait", future.result)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <isingmarket arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    code = sys.modules["isingmarket.cli"].main(argv[2:])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
