"""Start-up cost: each command loads only the package modules it runs; only train
loads scipy, and only its L-BFGS-B extension; numpy.ma loads in none; and a
command starts no BLAS worker thread unless its caller asks for them.

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


@pytest.fixture(scope="module")
def after_train_logistic(run_dir, after_ingest):
    return modules_after(
        """
run("train", "--model", "logistic:24", "--events", "sim/events.jsonl",
    "--schema", "sim/schema.json", "--out", "lg24")
""",
        run_dir,
    )


def test_package_import_loads_no_scipy(run_dir):
    assert modules_after("import sendwhen, sendwhen.cli\n", run_dir) == []


def test_simulate_and_ingest_load_no_scipy(after_ingest):
    assert after_ingest == []


def test_train_loads_only_the_lbfgsb_extension(after_train, after_train_logistic):
    # not scipy itself, nor scipy.optimize, scipy.special or scipy.linalg
    assert after_train == after_train_logistic == ["scipy.optimize._lbfgsb"]


def test_evaluate_loads_no_scipy(run_dir, after_train, after_train_logistic):
    loaded = modules_after(
        """
run("evaluate", "--aft-model", "aft/model.json", "--logistic-model", "lg24/model.json",
    "--events", "sim/events.jsonl", "--schema", "sim/schema.json", "--horizons", 24,
    "--out", "evaluate")
row, = json.load(open("evaluate/auc_report.json"))["rows"]
assert row["auc_logistic"] is not None, row  # the logistic model's probabilities were computed
""",
        run_dir,
    )
    assert loaded == []


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


def test_train_logistic_loads_no_numpy_ma(run_dir, after_ingest):
    # fit_logistic's label check once called np.unique and np.isin
    loaded = modules_after(
        """
run("train", "--model", "logistic:24", "--events", "sim/events.jsonl",
    "--schema", "sim/schema.json", "--out", "lg24_ma")
""",
        run_dir, package="numpy.ma",
    )
    assert loaded == []


# what every command loads: the CLI and what its settings and defaults need
BASE = ["cli", "errors", "features", "io", "optimize", "pipeline"]
LOADS = {  # command -> (its run, in order, and the modules it loads beyond BASE)
    "import": ("import sendwhen.cli", []),
    "simulate": ('run("simulate", "--n-users", 30, "--seed", 5, "--out", "m_sim")',
                 ["simulate", "survival"]),
    "ingest": ('run("ingest", "--events", "m_sim/events.jsonl", "--schema", "m_sim/schema.json",'
               ' "--out", "m_ing")', []),
    "train aft": ('run("train", "--model", "aft", "--observations", "m_ing/observations.jsonl",'
                  ' "--schema", "m_ing/schema.json", "--out", "m_aft")',
                  ["scoring", "survival", "training"]),
    "train logistic": ('run("train", "--model", "logistic:24", "--events", "m_sim/events.jsonl",'
                       ' "--schema", "m_sim/schema.json", "--out", "m_lg24")',
                       ["evaluation", "survival", "training"]),
    "evaluate": ('run("evaluate", "--aft-model", "m_aft/model.json", "--logistic-model",'
                 ' "m_lg24/model.json", "--events", "m_sim/events.jsonl", "--schema",'
                 ' "m_sim/schema.json", "--horizons", 24, "--out", "m_eval")',
                 ["evaluation", "scoring", "survival", "training"]),
    "score": ('run("score", "--model", "m_aft/model.json", "--contexts", "m_sim/contexts.jsonl",'
              ' "--out", "m_score")', ["scoring", "survival", "training"]),
    "decide": ('run("decide", "--scores", "m_score/deltas.jsonl", "--rule", "moo", "--c-send", 10,'
               ' "--c-click", 2, "--synth-p-click-seed", 1, "--out", "m_decide")', ["policies"]),
}


@pytest.fixture(scope="module")
def package_modules(run_dir):
    return {command: modules_after(body, run_dir, package="sendwhen")
            for command, (body, _) in LOADS.items()}


@pytest.mark.parametrize("command", list(LOADS))
def test_each_command_loads_only_the_package_modules_it_runs(package_modules, command):
    want = ["sendwhen", *(f"sendwhen.{m}" for m in sorted(BASE + LOADS[command][1]))]
    assert package_modules[command] == want


def test_scipy_optimize_imported_after_a_fit_reuses_its_extension(run_dir):
    loaded = modules_after(
        """
import numpy as np
from sendwhen.optimize import OptConfig, minimize_smooth
square = lambda w: (float(w @ w), 2.0 * w)
ours = minimize_smooth(square, np.ones(2), OptConfig())
import scipy.optimize
from scipy.optimize import _lbfgsb_py, minimize
assert _lbfgsb_py._lbfgsb is sys.modules["scipy.optimize._lbfgsb"]
assert scipy.optimize._lbfgsb is sys.modules["scipy.optimize._lbfgsb"]
from importlib.machinery import SourceFileLoader  # the package's own loader, not a wrapper
assert isinstance(scipy.optimize.__loader__, SourceFileLoader), scipy.optimize.__loader__
theirs = minimize(square, np.ones(2), jac=True, method="L-BFGS-B",
                  options={"gtol": 1e-7, "ftol": 1e-15})
assert np.array_equal(ours.x, theirs.x), (ours.x, theirs.x)
""",
        run_dir, package="scipy.optimize._lbfgsb",
    )
    assert loaded == ["scipy.optimize._lbfgsb"]


# -- threads --------------------------------------------------------------------

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
THREADS = """
import json, os, tempfile
threads = lambda: len(os.listdir("/proc/self/task"))
import sendwhen.cli
after_import = threads()
with tempfile.TemporaryDirectory() as tmp:
    observations = os.path.join(tmp, "observations.jsonl")
    with open(observations, "w") as f:
        for i in range(24):
            f.write(json.dumps({"censored": i % 4 == 0, "t_hours": 1.0 + 7 * i % 11,
                                "user_id": "u", "x": [1.0, i % 5 / 4]}) + "\\n")
    # train loads the L-BFGS-B extension, and with it scipy's own OpenBLAS
    argv = ["train", "--observations", observations, "--out", os.path.join(tmp, "aft")]
    assert sendwhen.cli.main(argv) == 0
print(json.dumps([after_import, threads()]))
"""
counts_threads = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                    reason="counts the threads listed in /proc/self/task")


def run_fresh(code: str, **variables: str):
    """The last line a fresh interpreter running code prints, read as JSON.

    The thread variables are removed from its environment, then variables set.
    """
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env={**env, **variables},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@counts_threads
def test_a_command_starts_no_blas_worker_thread():
    # a BLAS pool adds a thread per further core: numpy's on import, scipy's in train
    assert run_fresh(THREADS) == [1, 1]


def cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@counts_threads
@pytest.mark.skipif(cores() < 2, reason="OpenBLAS starts no more threads than it has cores")
@pytest.mark.parametrize("variable", THREAD_VARIABLES)
def test_a_thread_count_the_caller_sets_is_kept(variable):
    after_import, _ = run_fresh(THREADS, **{variable: "2"})
    assert after_import == 2  # numpy's pool: the main thread and one worker


def test_importing_the_package_sets_no_thread_count():
    loaded, variables = run_fresh(f"""
import json, os, sys, sendwhen
sendwhen.fit_aft  # loads the trainer, and numpy
print(json.dumps(["numpy" in sys.modules, sorted(set(os.environ) & set({THREAD_VARIABLES}))]))
""")
    assert loaded and variables == []


# an empty variable counts as unset, so the window sets it and must put "" back
@pytest.mark.parametrize("variables", [{}, {"OPENBLAS_NUM_THREADS": ""}], ids=["unset", "empty"])
def test_importing_the_cli_leaves_the_environment_as_it_was(variables):
    loaded, same = run_fresh("""
import json, os, sys
before = dict(os.environ)
import sendwhen.cli
print(json.dumps(["numpy" in sys.modules, dict(os.environ) == before]))
""", **variables)
    assert loaded and same
