"""lppgate: a cost-aware trust-or-escalate gate for LLM classification.

Extracts performance-predictor features from per-response token traces,
trains a calibrated correctness meta-model, and routes each item to trust
or human review by minimizing an explicit expected-cost objective.
"""

from .dataset import LabeledRows, ResampleConfig, SplitSpec, label_correctness
from .features import ALL_FAMILIES, FeatureFamily, assemble_feature_vector
from .policy import ConfusionCounts, CostModel, PolicyResult, expected_cost, sweep_threshold
from .schema import (
    ConfidenceBand,
    OutcomeLabel,
    ResponseTrace,
    StructuredResponse,
    parse_structured_response,
)
from .trainer import RidgeConfig, TrainedGate, cross_fit_calibrated, grid_search

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ALL_FAMILIES",
    "ConfidenceBand",
    "ConfusionCounts",
    "CostModel",
    "FeatureFamily",
    "LabeledRows",
    "OutcomeLabel",
    "PolicyResult",
    "ResampleConfig",
    "ResponseTrace",
    "RidgeConfig",
    "SplitSpec",
    "StructuredResponse",
    "TrainedGate",
    "assemble_feature_vector",
    "cross_fit_calibrated",
    "expected_cost",
    "grid_search",
    "label_correctness",
    "parse_structured_response",
    "sweep_threshold",
]
