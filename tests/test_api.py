"""The package's exports, README's library example and the benchmark tracer's
reads stay in step with the code."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import isingmarket
from isingmarket.inference import METHODS, InferenceConfig, infer
from isingmarket.stats import window_stats
from isingmarket.synthetic import BlockSpec, generate_synthetic

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_export_resolves():
    missing = [name for name in isingmarket.__all__ if not hasattr(isingmarket, name)]
    assert missing == []


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the quick start's `synth --out-dir demo --n-stocks 24 --n-days 2001
    # --n-sectors 3 --j-intra 0.08 --h-scale 0.05 --seed 7`
    demo = tmp_path / "demo"
    demo.mkdir()
    generate_synthetic(demo / "prices.csv", demo / "truth.json", n_days=2001,
                       model=BlockSpec(24, 3, 0.08, 0.0, 0.05), seed=7,
                       out_sectors=demo / "sectors.csv")
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
    date, q = capsys.readouterr().out.split()
    assert 0.0 < float(q) <= 1.0


@pytest.mark.parametrize("method", METHODS)
def test_tracer_reads_every_fit(method):
    # perfbench/tracer.py records these facts after every fit of a traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    rng = np.random.default_rng(5)
    st = window_stats(np.where(rng.random((4, 200)) < 0.5, -1.0, 1.0))
    facts = tracer.FACTS["infer"](None, infer(st, InferenceConfig(method=method,
                                                                  max_iters=3)))
    assert type(facts["tap_fallbacks"]) is int
    assert type(facts["iterations"]) is int
