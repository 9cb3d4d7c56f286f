"""Command-line surface tying the modules into reproducible runs.

Six subcommands cover the pipeline end to end: simulate, ingest, train,
evaluate, score, decide.  Each is a _Command (config defaults, needed input
flags, a settings function that types the merged config, and the body
cmd_<name>) run by one function, _run, which in order:

  * merges the defaults, then --config FILE, then every flag whose dest is
    a config key; --print-config prints the result and exits;
  * refuses a missing input flag, then a missing --out DIR;
  * builds the settings, typing each value by one rule (SimConfig.from_dict
    for simulate): a number through io.json_number, an integer through
    io.json_int, a name through io.json_str, and a key whose default is
    None also takes null; a wrongly typed value is a config error;
  * calls the body.

A command imports the modules it runs in its settings or body, so that
start-up loads none of the others (decide, say, loads no trainer).

Every command runs on one thread.  Its only BLAS work is matrix-vector
products on designs of a few schema slots, so numpy's OpenBLAS (loaded by
this module's import of numpy) and the one scipy's L-BFGS-B extension
brings (loaded by train) both load with OPENBLAS_NUM_THREADS=1, and
neither starts a worker pool.  The variable is set around those two loads
only, and the environment is as it was after each, so a process that
imports this module and its children keep the caller's setting.  A thread
count the caller sets in OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is kept.

Outputs land in --out DIR and are never overwritten without --force; each
output directory gets exactly one manifest.json recording the command,
config digest, input digests, package version, seed, and timestamps.
Exit codes: 0 success, 2 config error, 3 data error (including a missing
or unreadable input file), 4 numerical failure.  Timestamps honor
SOURCE_DATE_EPOCH so archived runs can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """OPENBLAS_NUM_THREADS=1 inside, unless the caller set a thread count; as before after.

    OpenBLAS reads its thread count once, when it loads, from the first of
    _THREAD_VARIABLES that holds a value (an empty one counts as unset).
    """
    if any(map(os.environ.get, _THREAD_VARIABLES)):
        yield
        return
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


with _one_blas_thread():
    import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DataError,
    NumericalError,
    SchemaError,
    SendwhenError,
)
from .io import (
    dump_json,
    file_sha256,
    json_int,
    json_number,
    json_str,
    line_of_record,
    load_json_config,
    read_contexts,
    read_events,
    read_model_json,
    read_observations_jsonl,
    read_schema_json,
    read_scores,
    write_decisions_jsonl,
    write_deltas_jsonl,
    write_events_jsonl,
    write_jsonl,
    write_model_json,
    write_observations_jsonl,
    write_schema_json,
)
from .optimize import OptConfig
from .pipeline import DEFAULT_HORIZONS, LABELERS, PipelineConfig, send_table

if TYPE_CHECKING:
    from .policies import CandidateColumns
    from .simulate import SimConfig
    from .training import LogisticModel, WeibullAftModel

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_MANIFEST_NAME = "manifest.json"


# -- shared plumbing ------------------------------------------------------------


def _utc_stamp() -> str:
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    epoch = int(raw) if raw else int(time.time())
    return datetime.fromtimestamp(epoch, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _prepare_out(out_dir: str, filenames: Sequence[str], force: bool) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"--out {out} is not a directory") from None
    existing = [n for n in (*filenames, _MANIFEST_NAME) if (out / n).exists()]
    if existing and not force:
        raise ConfigError(
            f"refusing to overwrite {existing} in {out}; pass --force to allow"
        )
    return out


@contextmanager
def _naming_lines(path: str):
    """Prefix path:line, read again from path, to a row error raised inside."""
    try:
        yield
    except SendwhenError as exc:
        if exc.row is None:
            raise
        raise type(exc)(f"{path}:{line_of_record(path, exc.row)}: {exc}") from None


def _write_manifest(
    out: Path,
    command: str,
    config: Mapping,
    inputs: Mapping[str, str],
    seed: int | None = None,
    model_version: str | None = None,
) -> None:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "config": dict(config),
        "config_digest": hashlib.sha256(blob.encode()).hexdigest(),
        "input_digests": {name: file_sha256(path) for name, path in inputs.items()},
        "model_version": model_version,
        "tool_version": __version__,
        "seed": seed,
        "created_utc": _utc_stamp(),
    }
    dump_json(out / _MANIFEST_NAME, manifest)


def _or_null(typed: Callable[[object, str], object], merged: Mapping, key: str):
    """typed(merged[key], key), or None for a null value."""
    return None if merged[key] is None else typed(merged[key], key)


def _pipeline_config(merged: Mapping) -> PipelineConfig:
    try:
        return PipelineConfig(
            duration_floor_hours=json_number(merged["duration_floor_hours"],
                                             "duration_floor_hours"),
            window_start=_or_null(json_number, merged, "window_start"),
            window_end=_or_null(json_number, merged, "window_end"),
        )
    except DataError as exc:  # a configuration problem at the CLI
        raise ConfigError(f"invalid pipeline config: {exc}") from None


# -- simulate ---------------------------------------------------------------------

_SIMULATE_DEFAULTS: dict = {
    "n_users": 100,
    "n_profile_features": 2,
    "true_coefficients": [3.2, 0.4, -0.3, -0.2, 0.05],
    "true_sigma": 1.5,
    "send_process": {"kind": "poisson", "rate_per_hour": 1.0 / 12.0},
    "window_hours": 168.0,
    "seed": 0,
    "include_interaction": True,
}


def _simulate_settings(merged: Mapping) -> SimConfig:
    from .simulate import SimConfig

    return SimConfig.from_dict(merged)


def cmd_simulate(args: argparse.Namespace, merged: Mapping, sim_cfg: SimConfig) -> int:
    from .simulate import default_sim_schema, generate_event_log

    result = generate_event_log(sim_cfg)  # first, so a run it refuses leaves no --out
    out = _prepare_out(
        args.out, ("events.jsonl", "contexts.jsonl", "truth.json", "schema.json"), args.force
    )
    schema = default_sim_schema(sim_cfg)

    write_events_jsonl(out / "events.jsonl", result.events)
    write_jsonl(
        out / "contexts.jsonl",
        [
            {
                "user_id": c.user_id,
                "features": dict(sorted(c.features.items())),
                "badge_count": c.badge_count,
                "w0_hours": c.w0_hours,
            }
            for c in result.contexts
        ],
    )
    dump_json(out / "truth.json", result.truth)
    write_schema_json(out / "schema.json", schema)
    _write_manifest(out, "simulate", merged, inputs={}, seed=sim_cfg.seed)
    stats = result.truth["stats"]
    print(
        f"simulate: {sim_cfg.n_users} users, {stats['n_sends']} sends, "
        f"{stats['n_visits']} visits -> {out}"
    )
    return EXIT_OK


# -- ingest -----------------------------------------------------------------------

_INGEST_DEFAULTS: dict = asdict(PipelineConfig())


def cmd_ingest(args: argparse.Namespace, merged: Mapping, pipe_cfg: PipelineConfig) -> int:
    schema = read_schema_json(args.schema)
    events = read_events(args.events)
    n_events = len(events)
    table = send_table(events, pipe_cfg)
    del events  # the table holds what it reads of them
    with _naming_lines(args.events):
        observations = table.observations(schema, pipe_cfg.duration_floor_hours)
    n_sends = len(table)
    del table
    n_uncensored = int(np.count_nonzero(observations.uncensored))
    report = {
        "n_events": n_events,
        "n_sends": n_sends,
        "n_observations": len(observations),
        "n_dropped_sends": n_sends - len(observations),
        "n_censored": len(observations) - n_uncensored,
        "n_uncensored": n_uncensored,
    }
    out = _prepare_out(args.out, ("observations.jsonl", "schema.json", "report.json"), args.force)
    write_observations_jsonl(out / "observations.jsonl", observations)
    write_schema_json(out / "schema.json", schema)
    dump_json(out / "report.json", report)
    _write_manifest(
        out, "ingest", merged, inputs={"events": args.events, "schema": args.schema}
    )
    if n_events == 0:
        print("ingest: warning: empty event input, wrote empty observations", file=sys.stderr)
    print(
        f"ingest: {report['n_events']} events -> {report['n_observations']} observations "
        f"({report['n_censored']} censored) -> {out}"
    )
    return EXIT_OK


# -- train ------------------------------------------------------------------------

_TRAIN_DEFAULTS: dict = {"model": "aft", **asdict(OptConfig()), **asdict(PipelineConfig())}


def _parse_model_kind(spec: str) -> tuple[str, float | None]:
    if spec == "aft":
        return "aft", None
    if spec.startswith("logistic:"):
        raw = spec.split(":", 1)[1]
        try:
            horizon = float(raw)
        except ValueError:
            raise ConfigError(f"bad horizon in model kind {spec!r}") from None
        if not horizon > 0:
            raise ConfigError(f"model horizon must be > 0, got {horizon}")
        return "logistic", horizon
    raise ConfigError(f"unknown model kind {spec!r}; expected 'aft' or 'logistic:T'")


def _train_settings(merged: Mapping) -> tuple[str, float | None, OptConfig, PipelineConfig]:
    kind, horizon = _parse_model_kind(json_str(merged["model"], "model"))
    opt_cfg = OptConfig(
        tol=json_number(merged["tol"], "tol"),
        max_iters=json_int(merged["max_iters"], "max_iters"),
        ridge=json_number(merged["ridge"], "ridge"),
        method=json_str(merged["method"], "method"),
        seed=json_int(merged["seed"], "seed"),
    )
    return kind, horizon, opt_cfg, _pipeline_config(merged)


def cmd_train(args: argparse.Namespace, merged: Mapping, settings: tuple) -> int:
    from .optimize import _setulb
    from .training import WeibullAftModel, fit_aft

    kind, horizon, opt_cfg, pipe_cfg = settings
    if kind == "aft" and args.observations is None:
        raise ConfigError("train --model aft needs --observations FILE")
    # the logistic baseline trains on per-send labels, so it needs the
    # raw event timeline rather than censored triplets
    if kind == "logistic" and (args.events is None or args.schema is None):
        raise ConfigError("train --model logistic:T needs --events and --schema")
    if opt_cfg.method == "lbfgs":  # the fit's extension loads scipy's own OpenBLAS
        with _one_blas_thread():
            _setulb()
    inputs: dict[str, str] = {}
    if kind == "aft":
        schema = read_schema_json(args.schema) if args.schema else None
        obs = read_observations_jsonl(args.observations, schema)
        inputs["observations"] = args.observations
        if args.schema:
            inputs["schema"] = args.schema
        model: WeibullAftModel | LogisticModel = fit_aft(obs, opt_cfg, schema=schema)
    else:
        from .evaluation import fit_logistic_baselines

        schema = read_schema_json(args.schema)
        inputs["events"] = args.events
        inputs["schema"] = args.schema
        with _naming_lines(args.events):
            model = fit_logistic_baselines(
                read_events(args.events), schema, [horizon], pipe_cfg, opt_cfg
            )[horizon]

    # the out directory is made only once the inputs have given a model
    out = _prepare_out(args.out, ("model.json",), args.force)
    write_model_json(out / "model.json", model)
    version = None
    if isinstance(model, WeibullAftModel):
        from .scoring import model_digest

        version = model_digest(model)
    _write_manifest(
        out, "train", merged, inputs=inputs, seed=opt_cfg.seed, model_version=version
    )
    label = kind if horizon is None else f"{kind} (T={horizon}h)"
    print(f"train: fitted {label} model -> {out / 'model.json'}")
    return EXIT_OK


# -- evaluate ---------------------------------------------------------------------

_EVALUATE_DEFAULTS: dict = {
    "horizons": list(DEFAULT_HORIZONS), "labeler": "naive", **asdict(PipelineConfig()),
}


def _evaluate_settings(merged: Mapping) -> tuple[list[float], str, PipelineConfig]:
    labeler = json_str(merged["labeler"], "labeler")
    if labeler not in LABELERS:
        raise ConfigError(f"unknown labeler {labeler!r}; expected one of {sorted(LABELERS)}")
    horizons = [json_number(t, "horizons") for t in merged["horizons"]]
    return horizons, labeler, _pipeline_config(merged)


def cmd_evaluate(args: argparse.Namespace, merged: Mapping, settings: tuple) -> int:
    from .evaluation import REFERENCE_AUC_POINTS, auc_vs_horizon
    from .scoring import model_digest
    from .training import LogisticModel, WeibullAftModel

    horizons, labeler, pipe_cfg = settings
    aft = read_model_json(args.aft_model)
    if not isinstance(aft, WeibullAftModel):
        raise SchemaError(f"{args.aft_model} does not hold a survival model")
    logistic_models: dict[float, LogisticModel] = {}
    for path in args.logistic_model:
        m = read_model_json(path)
        if not isinstance(m, LogisticModel):
            raise SchemaError(f"{path} does not hold a logistic model")
        logistic_models[m.horizon_t_hours] = m
    schema = read_schema_json(args.schema)
    with _naming_lines(args.events):
        report = auc_vs_horizon(
            aft, logistic_models, read_events(args.events), schema,
            horizons=horizons, labeler=labeler, cfg=pipe_cfg,
        )

    out = _prepare_out(args.out, ("auc_report.csv", "auc_report.json"), args.force)
    (out / "auc_report.csv").write_text(report.to_csv(), encoding="utf-8")
    rows = [
        {**asdict(r), "auc_aft": None, "auc_logistic": None} if r.flag else asdict(r)
        for r in report.rows
    ]
    dump_json(out / "auc_report.json", {"rows": rows, "reference_points": REFERENCE_AUC_POINTS})
    inputs = {"aft_model": args.aft_model, "events": args.events, "schema": args.schema}
    for i, path in enumerate(args.logistic_model):
        inputs[f"logistic_model_{i}"] = path
    _write_manifest(
        out, "evaluate", merged, inputs=inputs, model_version=model_digest(aft)
    )
    print(report.to_text())
    print(f"evaluate: {len(report.rows)} horizons -> {out / 'auc_report.csv'}")
    return EXIT_OK


# -- score ------------------------------------------------------------------------

_SCORE_DEFAULTS: dict = {
    "horizon_T": 24.0,
}


def _score_settings(merged: Mapping) -> float:
    horizon = json_number(merged["horizon_T"], "horizon_T")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ConfigError(f"horizon_T must be finite and > 0, got {horizon}")
    return horizon


def cmd_score(args: argparse.Namespace, merged: Mapping, horizon: float) -> int:
    from .scoring import model_digest, score_columns
    from .training import WeibullAftModel

    model = read_model_json(args.model)
    if not isinstance(model, WeibullAftModel):
        raise SchemaError(f"{args.model} does not hold a survival model; scoring needs one")
    if model.schema is None:
        raise SchemaError(f"{args.model} carries no feature schema; scoring needs one")

    user_ids, features, badges, w0 = read_contexts(args.contexts, model.schema)
    with _naming_lines(args.contexts):
        X0 = model.schema.materialize_columns(features, badges, np.zeros(len(user_ids)))
        scores = score_columns(model, X0, w0, horizon)

    out = _prepare_out(args.out, ("deltas.jsonl",), args.force)
    version = model_digest(model)
    write_deltas_jsonl(out / "deltas.jsonl", user_ids, w0, scores, horizon, version)
    _write_manifest(
        out,
        "score",
        merged,
        inputs={"model": args.model, "contexts": args.contexts},
        model_version=version,
    )
    if not user_ids:
        print("score: warning: empty context input, wrote empty deltas", file=sys.stderr)
    print(f"score: {len(user_ids)} users at T={horizon}h -> {out / 'deltas.jsonl'}")
    return EXIT_OK


# -- decide -----------------------------------------------------------------------

_DECIDE_DEFAULTS: dict = {
    "rule": "threshold",
    "kappa": 0.0,
    "c_click": 0.0,
    "c_send": 0.0,
    "evaluation_cadence_hours": 4.0,
    "synth_p_click_seed": None,
}


def _decide_settings(merged: Mapping) -> tuple:
    rule = json_str(merged["rule"], "rule")
    if rule not in ("threshold", "ratio", "moo"):
        raise ConfigError(f"unknown rule {rule!r}; expected threshold, ratio, or moo")
    return (
        rule,
        *(json_number(merged[key], key)
          for key in ("kappa", "c_click", "c_send", "evaluation_cadence_hours")),
        _or_null(json_int, merged, "synth_p_click_seed"),
    )


def _candidates_from_scores(
    path: str, synth_seed: int | None, need_p_click: bool
) -> CandidateColumns:
    from .policies import CandidateColumns

    user_ids, delta, p_wait, p_click, has_p_click = read_scores(path)
    missing = ~has_p_click
    n_missing = int(np.count_nonzero(missing))
    p_click = np.where(missing, 0.0, p_click)  # a missing p_click: a draw below, or 0.0
    if need_p_click and n_missing:
        if synth_seed is None:
            raise ConfigError(
                f"{n_missing} score rows lack p_click; supply p_click in the scores "
                "file or pass --synth-p-click-seed for placeholder draws"
            )
        # placeholder click-through rates: uniform draws, keyed by seed and
        # user order, documented as synthetic stand-ins for a real CTR model
        rng = np.random.default_rng([synth_seed])
        p_click[missing] = rng.uniform(0.0, 1.0, size=n_missing)
    with _naming_lines(path):  # Candidate's checks
        return CandidateColumns(user_ids, delta, p_wait, p_click)


def cmd_decide(args: argparse.Namespace, merged: Mapping, settings: tuple) -> int:
    from .policies import MooConfig, PolicyResult, moo_solve, ratio_rule, threshold_rule

    rule, kappa, c_click, c_send, cadence, synth_seed = settings
    candidates = _candidates_from_scores(args.scores, synth_seed, need_p_click=(rule == "moo"))
    report: dict = {
        "rule": rule,
        "n_candidates": len(candidates),
        "evaluation_cadence_hours": cadence,
        "status": "ok",
    }
    if not len(candidates):
        print("decide: warning: empty candidate input", file=sys.stderr)
        empty = np.zeros(0, dtype=bool)
        result = PolicyResult(rule, np.zeros(0), empty, empty)
    elif rule == "moo":
        result = moo_solve(candidates, MooConfig(c_click=c_click, c_send=c_send))
    else:
        result = (threshold_rule if rule == "threshold" else ratio_rule)(candidates, kappa)
    # the rule's own parameters; an infeasible LP and no candidates have none
    report.update(result.report, status=result.status, **result.params)
    if result.objective is not None:
        report["objective"] = result.objective
    if report["status"] == "ok":
        report["n_send"] = int(np.count_nonzero(result.send))
    out = _prepare_out(args.out, ("decisions.jsonl", "report.json"), args.force)
    write_decisions_jsonl(out / "decisions.jsonl", candidates.user_ids, result)
    dump_json(out / "report.json", report)
    _write_manifest(out, "decide", merged, inputs={"scores": args.scores})
    if report["status"] == "infeasible":
        print(
            f"decide: infeasible: click floor {c_click} unreachable "
            f"(max {report['max_click_reachable']:.6f})",
            file=sys.stderr,
        )
        return EXIT_DATA
    print(
        f"decide: {report['n_send']} of {len(candidates)} candidates send "
        f"({rule}) -> {out / 'decisions.jsonl'}"
    )
    return EXIT_OK


# -- running a command ------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    """What _run needs to know of one subcommand."""

    body: Callable[[argparse.Namespace, Mapping, object], int]
    defaults: Mapping
    settings: Callable[[Mapping], object]
    needs: tuple[str, ...] = ()  # input flags in check order, as refusals name them


_COMMANDS = {
    "simulate": _Command(cmd_simulate, _SIMULATE_DEFAULTS, _simulate_settings),
    "ingest": _Command(cmd_ingest, _INGEST_DEFAULTS, _pipeline_config, ("--events", "--schema")),
    "train": _Command(cmd_train, _TRAIN_DEFAULTS, _train_settings),
    "evaluate": _Command(
        cmd_evaluate, _EVALUATE_DEFAULTS, _evaluate_settings,
        ("--aft-model", "--events", "--schema", "--logistic-model FILE"),
    ),
    "score": _Command(cmd_score, _SCORE_DEFAULTS, _score_settings, ("--model", "--contexts")),
    "decide": _Command(cmd_decide, _DECIDE_DEFAULTS, _decide_settings, ("--scores FILE",)),
}


def _run(args: argparse.Namespace) -> int:
    name, spec = args.command, _COMMANDS[args.command]
    merged = dict(spec.defaults)
    if args.config is not None:
        merged.update(load_json_config(args.config, allowed_keys=list(spec.defaults)))
    for key in spec.defaults:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    if args.print_config:
        print(json.dumps(merged, sort_keys=True, indent=2))
        return EXIT_OK
    for need in spec.needs:
        flag = need.split()[0]
        value = getattr(args, flag[2:].replace("-", "_"))
        if value == []:  # a repeatable flag never given
            raise ConfigError(f"{name} needs at least one {need}")
        if value is None:
            raise ConfigError(f"{name} needs {need} (or --print-config)")
    if args.out is None:
        # commands with input flags already named --print-config in those refusals
        alt = "" if spec.needs else " (or --print-config)"
        raise ConfigError(f"{name} needs --out DIR{alt}")
    try:
        settings = spec.settings(merged)
    except SendwhenError:  # a ValueError too, but it keeps its own exit code
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name} config: {exc}") from None
    return spec.body(args, merged, settings)


# -- parser -----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", help="output directory")
    p.add_argument("--force", action="store_true", help="allow overwriting outputs")
    p.add_argument(
        "--print-config", action="store_true",
        help="print the effective config as JSON and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sendwhen",
        description="Censored survival modeling of time-to-visit and send/hold policies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic event log with ground truth")
    _add_common(p)
    p.add_argument("--n-users", type=int, dest="n_users")
    p.add_argument("--seed", type=int)
    p.add_argument("--window-hours", type=float, dest="window_hours")

    p = sub.add_parser("ingest", help="turn an event log into censored observations")
    _add_common(p)
    p.add_argument("--events", help="event log (.jsonl or .csv)")
    p.add_argument("--schema", help="feature schema JSON")
    p.add_argument("--duration-floor-hours", type=float, dest="duration_floor_hours")
    p.add_argument("--window-start", type=float, dest="window_start")
    p.add_argument("--window-end", type=float, dest="window_end")

    p = sub.add_parser("train", help="fit the survival model or a logistic baseline")
    _add_common(p)
    p.add_argument("--observations", help="observations JSONL (survival model)")
    p.add_argument("--events", help="event log (logistic baseline)")
    p.add_argument("--schema", help="feature schema JSON")
    p.add_argument("--model", help="aft or logistic:T (e.g. logistic:24)")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--ridge", type=float)
    p.add_argument("--method", choices=("lbfgs", "gd"))
    p.add_argument("--seed", type=int)

    p = sub.add_parser("evaluate", help="AUC-versus-horizon comparison report")
    _add_common(p)
    p.add_argument("--aft-model", dest="aft_model", help="survival model JSON")
    p.add_argument(
        "--logistic-model", dest="logistic_model", action="append", default=[],
        help="logistic model JSON; repeat once per horizon",
    )
    p.add_argument("--events", help="test event log")
    p.add_argument("--schema", help="feature schema JSON")
    p.add_argument("--horizons", type=float, nargs="+")
    p.add_argument("--labeler", choices=tuple(sorted(LABELERS)))

    p = sub.add_parser("score", help="per-user delta effect of sending now versus waiting")
    _add_common(p)
    p.add_argument("--model", help="survival model JSON")
    p.add_argument("--contexts", help="scoring contexts JSONL")
    p.add_argument("--horizon-T", type=float, dest="horizon_T")

    p = sub.add_parser("decide", help="turn scores into send/hold decisions")
    _add_common(p)
    p.add_argument("--scores", help="deltas JSONL from the score command")
    p.add_argument("--rule", choices=("threshold", "ratio", "moo"))
    p.add_argument("--kappa", type=float)
    p.add_argument("--c-click", type=float, dest="c_click")
    p.add_argument("--c-send", type=float, dest="c_send")
    p.add_argument(
        "--synth-p-click-seed", type=int, dest="synth_p_click_seed",
        help="seed for placeholder uniform p_click draws when the scores lack them",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except SendwhenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return EXIT_CONFIG
        # DataError, SchemaError and any other package error are data errors
        return EXIT_NUMERIC if isinstance(exc, NumericalError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
