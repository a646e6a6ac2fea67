"""The names ``import woesim`` exposes and the fields of its result and spec
types; adding or dropping one is a deliberate edit here."""

import dataclasses
import types

import woesim as ws

PUBLIC_NAMES = {
    # configs
    "BUILTIN_CONFIGS", "CONFIG_A", "CONFIG_B", "CONFIG_C", "CONFIG_D", "ConfigSpec",
    "EventRate", "PredictorSpec", "aggregate_iv", "aiv_joint", "bayes_posterior",
    "iv_between", "synthesize_config",
    # curve and charts
    "CurveFit", "fit_logistic_curve", "guideline_table", "emit_chart",
    # engine
    "STUDY_SIZES", "IterationRecord", "RunSpec", "SummaryRecord", "run_grid",
    "run_iteration", "summarize",
    # errors
    "ConfigError", "DegenerateDesign", "DegeneratePlan", "EmptyCell", "EnumerationLimitError",
    "InsufficientPoints", "SchemaError", "SpecError", "TargetUnreachable", "WoesimError",
    # metrics
    "METRIC_F1", "METRIC_P4", "ConfusionMatrix", "confusion", "default_cutoff_grid",
    "f1", "gini", "optimize_cutoff", "p4",
    # rng and sampling
    "RngStream", "Sample", "SamplingPlan", "generate_cells", "generate_sample", "make_plan",
    # scorecard
    "FittedModel", "WoeTable", "adjusted_woe", "estimate_woe", "fit_logistic",
    "predict_proba", "transform",
}


def test_public_names_are_pinned():
    exported = {
        name for name, value in vars(ws).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 56
    assert exported == PUBLIC_NAMES


#: Each public result or spec type's fields, in order.
PUBLIC_FIELDS = {
    "WoeTable": ("woe",),
    "FittedModel": ("beta", "converged", "iterations", "loglik"),
    "Sample": ("X", "Y", "bin_counts", "w"),
    "SamplingPlan": ("n", "n1", "pi1", "clamped"),
    "RunSpec": (
        "configs", "sizes", "rates", "iterations", "master_seed", "theta_adj", "fixed_events",
    ),
    "ConfigSpec": ("id", "predictors"),
    "PredictorSpec": ("name", "p_event", "p_nonevent"),
    "EventRate": ("pi1",),
    "CurveFit": ("L", "k", "x0", "rss"),
    "ConfusionMatrix": ("tp", "fp", "fn", "tn"),
    "IterationRecord": (
        "config_id", "aiv", "n", "event_rate", "iteration", "clamped", "converged",
        "theta_f1", "theta_p4", "f1_val", "f1_test", "p4_val", "p4_test", "gini_val", "gini_test",
    ),
    "SummaryRecord": (
        "config_id", "aiv", "n", "event_rate", "metric", "split",
        "median", "q25", "q75", "p05", "p95", "n_iter", "n_nonconverged",
    ),
}


def test_public_fields_are_pinned():
    found = {}
    for name in PUBLIC_FIELDS:
        cls = getattr(ws, name)
        if dataclasses.is_dataclass(cls):
            found[name] = tuple(f.name for f in dataclasses.fields(cls))
        else:
            found[name] = cls._fields
    assert found == PUBLIC_FIELDS
