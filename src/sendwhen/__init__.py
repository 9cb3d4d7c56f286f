"""Censored Weibull time-to-visit modeling and notification send policies.

Importing the package loads none of its modules.  Each name below is
imported from its module on first use (PEP 562), so a command that needs
only the event reader does not pay for the trainers or the policies.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "errors": ("ConfigError", "ConvergenceError", "DataError", "DomainError",
               "NumericalError", "SchemaError", "SendwhenError"),
    "evaluation": ("AucReport", "AucRow", "auc", "auc_vs_horizon", "label_censoring_clean",
                   "label_naive"),
    "features": ("FeatureSchema", "SlotSpec"),
    "io": ("dump_json", "file_sha256", "load_json_config", "read_events", "read_model_json",
           "read_observations_jsonl", "read_schema_json", "write_events_jsonl",
           "write_model_json", "write_observations_jsonl", "write_schema_json"),
    "optimize": ("OptConfig", "OptResult", "minimize_smooth"),
    "pipeline": ("DEFAULT_HORIZONS", "LABELERS", "Event", "EventColumns", "ObservationColumns",
                 "PipelineConfig", "SendInstance", "build_observations", "build_send_instances"),
    "policies": ("Candidate", "CandidateColumns", "MooConfig", "PolicyResult", "moo_solve",
                 "ratio_rule", "threshold_rule"),
    "scoring": ("ScoringContext", "score_batch", "score_columns"),
    "simulate": ("SendProcess", "SimConfig", "default_sim_schema", "generate_event_log"),
    "survival": ("WeibullParams",),
    "training": ("LogisticModel", "WeibullAftModel", "fit_aft", "fit_logistic",
                 "fit_logistic_baseline", "model_digest"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    """An exported name, imported from its module and kept; or a submodule."""
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
