"""Anomalous-interval detection and counterfactual variable attribution.

Detection scans a multivariate series for the intervals whose delay-embedded
Gaussian fit diverges most from the rest of the data; attribution replaces
variable subsets inside a detected interval with draws from the nominal
distribution (conditioned on the untouched variables and the surrounding
context) and ranks subsets by how much the replacement lowers the score.
"""

from .attribution import (
    AttributionConfig,
    AttributionReport,
    SubsetScore,
    VariableSubset,
    attribute,
    enumerate_subsets,
    pre_event_scores,
    univariate_baseline,
)
from .counterfactual import (
    WindowModel,
    apply_replacement,
    assemble_joint,
    estimate_stationary,
    subset_cap,
)
from .detector import Detection, LocalRescorer, ScanConfig, detect, score_interval
from .errors import (
    AnomattrError,
    ConfigError,
    EstimationError,
    NumericalError,
    ParseError,
    ScoringError,
)
from .gaussian import interval_score
from .series import (
    Embedding,
    EmbeddingConfig,
    Interval,
    MultivariateSeries,
    ZScoreParams,
    embed,
    inverse_zscore,
    load_csv,
    write_csv,
    zscore,
)
from .synth import Injection, SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "AnomattrError",
    "AttributionConfig",
    "AttributionReport",
    "ConfigError",
    "Detection",
    "Embedding",
    "EmbeddingConfig",
    "EstimationError",
    "Injection",
    "Interval",
    "LocalRescorer",
    "MultivariateSeries",
    "NumericalError",
    "ParseError",
    "ScanConfig",
    "ScoringError",
    "SubsetScore",
    "SynthSpec",
    "VariableSubset",
    "WindowModel",
    "ZScoreParams",
    "apply_replacement",
    "assemble_joint",
    "attribute",
    "detect",
    "embed",
    "enumerate_subsets",
    "estimate_stationary",
    "generate",
    "interval_score",
    "inverse_zscore",
    "load_csv",
    "pre_event_scores",
    "score_interval",
    "subset_cap",
    "univariate_baseline",
    "write_csv",
    "zscore",
]
