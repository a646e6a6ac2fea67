"""Simulation lab for class imbalance in weight-of-evidence logistic scorecards.

Generates class-conditional categorical data at controlled association
strengths, fits and evaluates WoE logistic scorecards over a Monte Carlo
grid of sample sizes and event rates, and condenses the results into
attainable-performance tables and figures.
"""

from .charts import emit_chart
from .configs import (
    BUILTIN_CONFIGS,
    CONFIG_A,
    CONFIG_B,
    CONFIG_C,
    CONFIG_D,
    ConfigSpec,
    EventRate,
    PredictorSpec,
    aggregate_iv,
    aiv_joint,
    bayes_posterior,
    information_value,
    iv_between,
    population_woe,
    synthesize_config,
)
from .curve import CurveFit, fit_logistic_curve, guideline_table
from .engine import (
    STUDY_SIZES,
    IterationRecord,
    RunSpec,
    SummaryRecord,
    run_grid,
    run_iteration,
    summarize,
)
from .errors import (
    ConfigError,
    DegenerateDesign,
    DegeneratePlan,
    EmptyCell,
    EnumerationLimitError,
    InsufficientEvents,
    InsufficientPoints,
    NoEvents,
    NoNonevents,
    SchemaError,
    TargetUnreachable,
    WoesimError,
)
from .metrics import (
    METRIC_F1,
    METRIC_P4,
    ConfusionMatrix,
    confusion,
    default_cutoff_grid,
    f1,
    gini,
    optimize_cutoff,
    p4,
)
from .rng import RngStream
from .sampling import (
    Sample,
    SamplingPlan,
    compress,
    generate_sample,
    make_plan,
)
from .scorecard import (
    FittedModel,
    WoeTable,
    adjusted_woe,
    estimate_woe,
    fit_logistic,
    predict_proba,
    transform,
)

__version__ = "0.1.0"
