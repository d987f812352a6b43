"""The package's exports, README's library example, the benchmark tracer's
reads and the settings checks stay in step with the code."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import isingmarket
from isingmarket import cli, evaluation, model, pipeline, synthetic
from isingmarket.inference import METHODS, InferenceConfig, infer
from isingmarket.network import SectorMap
from isingmarket.panels import Panel, windows
from isingmarket.stats import ConfigError, bootstrap_ci, moment_summary, window_stats
from isingmarket.synthetic import BlockSpec, generate_synthetic, random_model

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


def test_config_error_is_one_value_error():
    assert issubclass(ConfigError, ValueError)
    assert isingmarket.ConfigError is pipeline.ConfigError is ConfigError


_PANEL = Panel(("A", "B"), ("d1", "d2", "d3"), np.ones((2, 3)), "binary")
_WIDE = {n: random_model(n, 0.1, 0.1, seed=0) for n in (2, 17, 129)}

# each library check of a setting, called with a value it refuses
SETTINGS = {
    "InferenceConfig eta_h": lambda out: InferenceConfig(eta_h=-1.0),
    "InferenceConfig exact_max_n": lambda out: InferenceConfig(exact_max_n=21),
    "BlockSpec split": lambda out: BlockSpec(10, 3, 0.1),
    "BlockSpec size": lambda out: BlockSpec(1, 1, 0.1),
    "generate_synthetic n_days": lambda out: generate_synthetic(
        out / "p.csv", out / "t.json", n_days=1, model=_WIDE[2]),
    "generate_synthetic seed": lambda out: generate_synthetic(
        out / "p.csv", out / "t.json", n_days=5, model=BlockSpec(4, 2, 0.1), seed=-1),
    "generate_synthetic burnin": lambda out: generate_synthetic(
        out / "p.csv", out / "t.json", n_days=5, model=_WIDE[2], n_burnin=-1),
    "generate_synthetic sectors": lambda out: generate_synthetic(
        out / "p.csv", out / "t.json", n_days=5, model=_WIDE[2], out_sectors=out / "s.csv"),
    "windows size": lambda out: windows(_PANEL, 0),
    "windows stride": lambda out: windows(_PANEL, 2, stride=0),
    "windows too long": lambda out: windows(_PANEL, 4),
    "metropolis_sample sweeps": lambda out: model.metropolis_sample(_WIDE[2], 0),
    "metropolis_sample burnin": lambda out: model.metropolis_sample(_WIDE[2], 5, n_burnin=-1),
    "metropolis_sample chains": lambda out: model.metropolis_sample(_WIDE[2], 5, n_chains=0),
    "metropolis_sample seed": lambda out: model.metropolis_sample(_WIDE[2], 5, seed=-1),
    "metropolis_sample track_states": lambda out: model.metropolis_sample(
        _WIDE[17], 5, track_states=True),
    "metropolis_sample third order": lambda out: model.metropolis_sample(
        _WIDE[129], 5, with_third_order=True),
    "third_order_from_samples": lambda out: model.third_order_from_samples(np.ones((3, 129))),
    "sample_binary_panel steps": lambda out: synthetic.sample_binary_panel(_WIDE[2], 0),
    "sample_binary_panel seed": lambda out: synthetic.sample_binary_panel(_WIDE[2], 5, seed=-1),
    "check_scaling sizes": lambda out: evaluation.check_scaling([2, 3, 3], 1),
    "check_scaling size 1": lambda out: evaluation.check_scaling([1, 2, 3], 1),
    "check_scaling repeats": lambda out: evaluation.check_scaling([2, 3, 4], 0),
    "check_scaling above N": lambda out: evaluation.check_scaling([2, 3, 4], 1, n=3),
    "check_subset empty": lambda out: evaluation.check_subset([], [3]),
    "check_subset duplicates": lambda out: evaluation.check_subset([0, 0], [3]),
    "check_subset totals": lambda out: evaluation.check_subset([0, 1, 2], [2]),
    "check_subset index": lambda out: evaluation.check_subset([0, 3], [3], n=3),
    "check_subset total above N": lambda out: evaluation.check_subset([0, 1], [4], n=3),
    "scaling_exponents": lambda out: evaluation.scaling_exponents(np.ones((3, 9)),
                                                                  [2, 3, 4], 0),
    "subset_coupling_scan": lambda out: evaluation.subset_coupling_scan(np.ones((3, 9)),
                                                                        [0, 0], [3]),
    "SectorMap.labels_for": lambda out: SectorMap({"A": "X"}).labels_for(["A", "B"]),
    "RunConfig stages": lambda out: pipeline.RunConfig(__file__, str(out), stages=()),
    "RunConfig seed": lambda out: pipeline.RunConfig(__file__, str(out), seed=-1),
}


@pytest.mark.parametrize("call", SETTINGS.values(), ids=SETTINGS.keys())
def test_bad_setting_raises_config_error_before_any_work(call, tmp_path, monkeypatch):
    def no_sweeps(*args, **kwargs):
        raise AssertionError("sampled before rejecting the settings")

    monkeypatch.setattr(model, "_simulate", no_sweeps)
    monkeypatch.setattr(synthetic, "_simulate", no_sweeps)
    with pytest.raises(ConfigError):
        call(tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _cutoff_one_shot(tmp_path):
    params = random_model(4, 0.1, 0.1, seed=0)
    (tmp_path / "p.json").write_bytes(model.params_to_json(params))
    (tmp_path / "s.csv").write_text("ticker,name,sector\n" + "".join(
        f"{t},{t},X\n" for t in params.tickers))
    return cli.main(["cutoff", "--params", str(tmp_path / "p.json"), "--sectors",
                     str(tmp_path / "s.csv"), "--out-dir", str(tmp_path / "out"),
                     "--cutoff-points", "0"])


# each rule that RunConfig checks before ingest and another caller
# checks where it reads the value: (the RunConfig setting, the other caller)
SHARED_RULES = {
    "n_boot": (("n_boot", 50), lambda tmp: moment_summary([1.0, 2.0, 4.0], n_boot=50)),
    "boot_level": (("boot_level", 1.0),
                   lambda tmp: bootstrap_ci([1.0, 2.0, 4.0], "mean", 100, level=1.0)),
    "stride": (("stride", 0), lambda tmp: windows(_PANEL, 2, stride=0)),
    "cutoff_points": (("cutoff_points", 0), _cutoff_one_shot),
    "prices file": (("prices", "absent.csv"),
                    lambda tmp: cli.main(["ingest", "--prices", "absent.csv"])),
}


@pytest.mark.parametrize("rule", SHARED_RULES)
def test_rule_of_two_callers_is_one_check(rule, tmp_path, capsys):
    (key, value), other = SHARED_RULES[rule]
    settings = {"prices": __file__, "out_dir": str(tmp_path / "out"), key: value}
    with pytest.raises(ConfigError) as first:
        pipeline.RunConfig(**settings)
    try:
        assert other(tmp_path) == 2  # the CLI maps the error to exit 2
        second = capsys.readouterr().err
    except ConfigError as err:
        second = str(err)
    assert str(first.value) in second
    assert not (tmp_path / "out").exists()
