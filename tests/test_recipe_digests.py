"""Byte identity as a test: the recipe prints the digests recorded in tests/.

tests/recipe_digests.sha256 is the text recipe_digests.py printed under
the environment recorded in tests/recipe_digests.env.json.  numpy's
float64 kernels differ by CPU dispatch, so under another environment the
test skips and names the difference instead of failing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import recipe_digests

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_recipe_prints_the_recorded_digests(tmp_path, monkeypatch):
    recorded = json.loads((TESTS / "recipe_digests.env.json").read_text(encoding="utf-8"))
    here = recipe_digests.environment()
    differ = {k: {"recorded": recorded.get(k), "here": here.get(k)}
              for k in sorted({*recorded, *here}) if recorded.get(k) != here.get(k)}
    if differ:
        pytest.skip(f"digests were recorded under another environment: {json.dumps(differ)}")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    expected = (TESTS / "recipe_digests.sha256").read_text(encoding="utf-8").splitlines()
    assert recipe_digests.run(tmp_path) == expected
