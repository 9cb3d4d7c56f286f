"""Start-up cost: scipy loads only in the commands that call it, numpy.ma in none.

Each check runs in a fresh interpreter, because pytest and the other tests
import scipy into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sendwhen

SRC = str(Path(sendwhen.__file__).resolve().parent.parent)

PRELUDE = """
import json, sys
from sendwhen.cli import main

def run(*argv):
    assert main([str(a) for a in argv]) == 0, argv
"""

REPORT = """
print(json.dumps(sorted(m for m in sys.modules if m == {0!r} or m.startswith({0!r} + "."))))
"""


def modules_after(body: str, cwd: Path, package: str = "scipy") -> list[str]:
    """Runs body after the prelude in a new interpreter; returns the package's modules loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body + REPORT.format(package)],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("imports")


@pytest.fixture(scope="module")
def after_ingest(run_dir):
    return modules_after(
        """
run("simulate", "--n-users", 30, "--seed", 5, "--out", "sim")
run("ingest", "--events", "sim/events.jsonl", "--schema", "sim/schema.json", "--out", "ing")
""",
        run_dir,
    )


@pytest.fixture(scope="module")
def after_train(run_dir, after_ingest):
    return modules_after(
        """
run("train", "--model", "aft", "--observations", "ing/observations.jsonl",
    "--schema", "ing/schema.json", "--out", "aft")
""",
        run_dir,
    )


def test_package_import_loads_no_scipy(run_dir):
    assert modules_after("import sendwhen, sendwhen.cli\n", run_dir) == []


def test_simulate_and_ingest_load_no_scipy(after_ingest):
    assert after_ingest == []


def test_train_aft_loads_scipy_optimize(after_train):
    assert "scipy.optimize" in after_train


def test_score_and_decide_load_no_scipy(run_dir, after_train):
    loaded = modules_after(
        """
run("score", "--model", "aft/model.json", "--contexts", "sim/contexts.jsonl", "--out", "score")
run("decide", "--scores", "score/deltas.jsonl", "--rule", "moo", "--c-send", 10,
    "--c-click", 2, "--synth-p-click-seed", 1, "--out", "decide")
""",
        run_dir,
    )
    assert loaded == []


def test_score_and_decide_moo_at_a_binding_floor_load_no_numpy_ma(run_dir, after_train):
    # np.unique loads numpy.ma, about 20 ms of start-up
    loaded = modules_after(
        """
run("score", "--model", "aft/model.json", "--contexts", "sim/contexts.jsonl", "--out", "s_ma")
run("decide", "--scores", "s_ma/deltas.jsonl", "--rule", "moo", "--c-send", 10,
    "--c-click", 6, "--synth-p-click-seed", 1, "--out", "d_ma")
report = json.load(open("d_ma/report.json"))
assert report["kappa1"] > 0 and report["n_fractional"] > 0, report
""",
        run_dir, package="numpy.ma",
    )
    assert loaded == []
