"""The golden run's outputs match the checked-in reference (see golden.py)."""

import json

from golden import REFERENCE, mismatches, run_golden, summarize


def test_outputs_match_reference(tmp_path):
    got = summarize(run_golden(tmp_path))
    want = json.loads(REFERENCE.read_text())
    assert sorted(got) == sorted(want), "the run writes other files than the reference"
    problems = mismatches(want, got)
    assert not problems, f"{len(problems)} cells moved, first: {problems[:10]}"
