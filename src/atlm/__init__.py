"""Transformed linear baseline model for software effort estimation.

A deliberately simple, deterministic, tuning-free reference model:
per-variable skewness-minimizing transforms (none/log/sqrt), ordinary
least squares with dummy-coded factors, predictions inverted back to the
original effort scale, plus the error measures and resampling harnesses
needed to benchmark other models against it on shared splits.
"""

from .bundled import builtin_names, builtin_recipe, load_builtin, load_builtin_raw
from .dataset import (
    CATEGORICAL,
    ColumnSchema,
    Dataset,
    EXPLANATORY,
    IGNORED,
    NUMERIC,
    PrepRecipe,
    RESPONSE,
    apply_recipe,
    load_csv,
    load_schema,
    split,
    write_csv,
    write_schema,
)
from .errors import (
    AtlmError,
    ConfigError,
    DegenerateSampleError,
    FitError,
    MetricError,
    MissingValueError,
    ParseError,
    PlanError,
    PredictionError,
    RecipeError,
    SchemaError,
    SplitError,
    TransformDomainError,
    UnseenLevelError,
    ValidationError,
)
from .linear import (
    DesignMatrix,
    FittedLinearModel,
    INTERCEPT,
    RANK_TOL,
    UNSEEN_AS_REFERENCE,
    UNSEEN_ERROR,
    build_design,
    fit_ols,
    predict,
)
from .metrics import (
    METRIC_FIELDS,
    MetricReport,
    MetricSummary,
    aggregate,
    lsd,
    mar,
    mmre,
    pred,
    re_star,
    report,
    sa,
)
from .pipeline import AtlmModel, PredictionSet, atlm_fit, atlm_predict, pooled
from .rng import Pcg32
from .transforms import (
    LOG,
    NONE,
    SQRT,
    TRANSFORM_KINDS,
    TransformEntry,
    TransformTable,
    apply_transforms,
    calculate_transforms,
    invert_predictions,
    skewness_b1,
)
from .validation import (
    CvRunSummary,
    FoldAssignment,
    FoldOutcome,
    HOLDOUT,
    KFOLD,
    LOOCV,
    ValidationPlan,
    ValidationResult,
    generate_folds,
    repeat_cv_experiment,
    run_validation,
)

__version__ = "0.1.0"
