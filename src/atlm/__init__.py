"""Transformed linear baseline model for software effort estimation.

A deliberately simple, deterministic, tuning-free reference model:
per-variable skewness-minimizing transforms (none/log/sqrt), ordinary
least squares with dummy-coded factors, predictions inverted back to the
original effort scale, plus the error measures and resampling harnesses
needed to benchmark other models against it on shared splits.

Model internals live in :mod:`atlm.linear` and :mod:`atlm.transforms`, and a
:class:`PredictionSet` is scored with :func:`atlm.metrics.report`.

The result records are outputs: :class:`AtlmModel`, :class:`TransformTable`,
:class:`MetricReport`, :class:`MetricSummary`, :class:`FoldOutcome`,
:class:`ValidationResult`, :class:`CvRunSummary` and :class:`FoldAssignment`
are built by the package, and their fields are not checked; the renderers of
:mod:`atlm.report` take them as the package built them.  A model is also the
input of :func:`atlm_predict`, which checks the type of each of its two fields.
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
    sa,
)
from .pipeline import AtlmModel, PredictionSet, atlm_fit, atlm_predict
from .rng import Pcg32
from .transforms import (
    LOG,
    NONE,
    SQRT,
    TRANSFORM_KINDS,
    TransformTable,
    calculate_transforms,
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
