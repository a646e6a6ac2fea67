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
    IvReport,
    PredictorSpec,
    aggregate_iv,
    aiv_joint,
    bayes_posterior,
    get_config,
    information_value,
    iv_between,
    population_woe,
    synthesize_config,
)
from .curve import (
    DEFAULT_AIV_GRID,
    CurveFit,
    GuidelineTable,
    fit_logistic_curve,
    guideline_table,
)
from .engine import (
    DEFAULT_RATES,
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
    CurveFitError,
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
from .io import (
    load_config,
    load_results_csv,
    load_summary_csv,
    resolve_config,
    save_config,
    save_guideline_csv,
    save_results_csv,
    save_summary_csv,
)
from .metrics import (
    METRIC_F1,
    METRIC_P4,
    ConfusionMatrix,
    CutoffResult,
    confusion,
    default_cutoff_grid,
    f1,
    gini,
    optimize_cutoff,
    p4,
)
from .rng import RngStream, splitmix64, substream_seed
from .sampling import (
    Sample,
    SamplingPlan,
    compress,
    generate_sample,
    make_plan,
)
from .scorecard import (
    LINEAR_PREDICTOR_CLAMP,
    FittedModel,
    WoeTable,
    adjusted_woe,
    estimate_woe,
    fit_logistic,
    predict_proba,
    transform,
)

__version__ = "0.1.0"
