"""Exception hierarchy.

Every error carries a short machine-readable ``code`` that the CLI prints
as a single-line prefix, and an ``exit_status`` (2 for usage/configuration
problems, 1 for computation failures).
"""


class AtlmError(Exception):
    code = "E_INTERNAL"
    exit_status = 1


class SchemaError(AtlmError):
    """Schema file or schema/data mismatch problems."""
    code = "E_SCHEMA"
    exit_status = 2


class ParseError(AtlmError):
    """Unparseable cell or malformed data file."""
    code = "E_PARSE"
    exit_status = 2


class RecipeError(AtlmError):
    """Preparation recipe referencing unknown columns or rows."""
    code = "E_RECIPE"
    exit_status = 2


class ConfigError(AtlmError):
    """Bad CLI arguments or run configuration."""
    code = "E_CONFIG"
    exit_status = 2


class PlanError(AtlmError):
    """Validation plan violating its invariants for the given dataset."""
    code = "E_PLAN"
    exit_status = 2


class SplitError(AtlmError):
    """Row ids that ``split`` cannot partition: empty, overlapping, repeated or unknown."""
    code = "E_SPLIT"


class MissingValueError(AtlmError):
    """Fit or predict attempted on data that still contains missing cells."""
    code = "E_MISSING"


class DegenerateSampleError(AtlmError):
    """Too few values or zero variance where a spread is required."""
    code = "E_DEGENERATE"


class TransformDomainError(AtlmError):
    """Cell outside the domain of the transform chosen on training data."""
    code = "E_DOMAIN"


class UnseenLevelError(AtlmError):
    """Factor level at prediction time that was never seen in training."""
    code = "E_UNSEEN_LEVEL"


class FitError(AtlmError):
    """A least-squares fit with too few rows, no usable column, or a singular solve."""
    code = "E_FIT"


class PredictionError(AtlmError):
    """A malformed or non-finite prediction set, or a model that is not an AtlmModel."""
    code = "E_PREDICT"


class MetricError(AtlmError):
    """A measure undefined for its prediction set, or a measure's malformed argument."""
    code = "E_METRIC"


class ValidationError(AtlmError):
    """A validation plan whose every fold failed, so nothing is left to score."""
    code = "E_VALIDATION"
