"""The names ``import woesim`` exposes; adding or dropping one is a deliberate edit here."""

import types

import woesim as ws

PUBLIC_NAMES = {
    # configs
    "BUILTIN_CONFIGS", "CONFIG_A", "CONFIG_B", "CONFIG_C", "CONFIG_D", "ConfigSpec",
    "EventRate", "PredictorSpec", "aggregate_iv", "aiv_joint", "bayes_posterior",
    "information_value", "iv_between", "population_woe", "synthesize_config",
    # curve and charts
    "CurveFit", "fit_logistic_curve", "guideline_table", "emit_chart",
    # engine
    "STUDY_SIZES", "IterationRecord", "RunSpec", "SummaryRecord", "run_grid",
    "run_iteration", "summarize",
    # errors
    "ConfigError", "DegenerateDesign", "DegeneratePlan", "EmptyCell", "EnumerationLimitError",
    "InsufficientEvents", "InsufficientPoints", "NoEvents", "NoNonevents", "SchemaError",
    "TargetUnreachable", "WoesimError",
    # metrics
    "METRIC_F1", "METRIC_P4", "ConfusionMatrix", "confusion", "default_cutoff_grid",
    "f1", "gini", "optimize_cutoff", "p4",
    # rng and sampling
    "RngStream", "Sample", "SamplingPlan", "compress", "generate_sample", "make_plan",
    # scorecard
    "FittedModel", "WoeTable", "adjusted_woe", "estimate_woe", "fit_logistic",
    "predict_proba", "transform",
}


def test_public_names_are_pinned():
    exported = {
        name for name, value in vars(ws).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 60
    assert exported == PUBLIC_NAMES
