"""The package's exports and README's library example stay in step with the code."""

import re
from pathlib import Path

import isingmarket
from isingmarket.synthetic import BlockSpec, generate_synthetic

README = Path(__file__).resolve().parents[1] / "README.md"


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
