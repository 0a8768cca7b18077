"""Performance-predictor features computed from one response trace.

Feature families, in fixed catalog order:

  A  outcome_topk  -- renormalized top-k outcome-token distribution
                      (entropy H2, normalized entropy, effective choices
                      2^H2, confidence 1-H2norm, max softmax probability,
                      top-2 margin, normalized margin, top-1/top-2 ratio)
  B  filtered      -- the same metrics over token mass collapsed onto the
                      valid schema labels and renormalized
  C  logodds       -- log-space margins between the two strongest
                      candidates, raw and label-filtered, each with a
                      validity flag so the vector keeps a fixed shape
  D  sequence      -- reasoning-span sequence stats: NLL in nats,
                      perplexity exp(NLL/T), plus an absent flag
  E  token         -- per-reasoning-token entropy/probability summaries
                      (mean entropy in bits, five-point quantiles)
  F  verbalized    -- self-reported confidence scalar (p_correct/100, 0.5
                      plus a missing flag when absent) and the one-hot
                      confidence band
  G  attribution   -- abstention indicators: evidence deficit (outcome 2),
                      policy gap (outcome 3), and their union

Entropies are in bits; sequence NLL/perplexity use natural logs. All
computations are pure and deterministic.

The outcome token (one row) and the reasoning span (T rows) are both
schema.TokenSpan arrays, and one row-wise kernel, renormalize_topk, turns
the top-k candidate logprobs of either into sorted probabilities.

assemble_feature_vector turns one trace into one float64 row whose columns
are catalog_names(include): the enabled families in the order above, each
family's values in _CATALOG order. Excluded families are absent from the
row entirely rather than zeroed. A row holding a nan or infinite value
raises NonFiniteFeature naming its first bad column. A column name is
"family.feature", and family_of reads the family back from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from numpy.typing import ArrayLike

from .schema import (
    ConfidenceBand,
    OutcomeLabel,
    ResponseTrace,
    StructuredResponse,
    TokenSpan,
    normalize_outcome_token,
)

__all__ = [
    "EPSILON",
    "DEFAULT_TOP_K",
    "FULL_SUPPORT",
    "FeatureFamily",
    "LabelDistribution",
    "SequenceStats",
    "EmptyCandidates",
    "NoLabelMass",
    "NonFiniteFeature",
    "renormalize_topk",
    "compute_topk_features",
    "collapse_to_labels",
    "compute_filtered_features",
    "compute_logodds_features",
    "compute_sequence_features",
    "compute_verbalized_features",
    "compute_attribution_features",
    "assemble_feature_vector",
    "catalog_names",
    "family_of",
    "ALL_FAMILIES",
]

#: Numerical guard used by normalized margins and ratios.
EPSILON = 1e-12

#: Family A is computed over the five most probable candidates by default.
DEFAULT_TOP_K = 5

#: The schema labels that outcome-token mass is collapsed onto.
FULL_SUPPORT = (
    OutcomeLabel.NO,
    OutcomeLabel.YES,
    OutcomeLabel.INCONCLUSIVE_EVIDENCE,
    OutcomeLabel.INCONCLUSIVE_DEFINITION,
)


class EmptyCandidates(ValueError):
    pass


class NoLabelMass(ValueError):
    """No candidate maps onto any schema label; the row is invalid and the
    item is escalated by default downstream."""


class NonFiniteFeature(ValueError):
    """A feature value is nan or infinite (e.g. the perplexity of a span
    whose mean chosen logprob is below about -709); like NoLabelMass, the
    row is invalid and the item is escalated by default downstream."""


class FeatureFamily(str, enum.Enum):
    OUTCOME_TOPK = "outcome_topk"
    FILTERED_OUTCOME = "filtered"
    LOGODDS_MARGIN = "logodds"
    SEQUENCE_COT = "sequence"
    TOKEN_LEVEL_COT = "token"
    VERBALIZED = "verbalized"
    ATTRIBUTION = "attribution"


ALL_FAMILIES: tuple[FeatureFamily, ...] = tuple(FeatureFamily)


@dataclass(frozen=True)
class LabelDistribution:
    """Token mass collapsed onto schema labels and renormalized; ``masses``
    keeps each label's summed exp(logprob) from before renormalization."""

    probs: Mapping[OutcomeLabel, float]
    masses: Mapping[OutcomeLabel, float]

    def __post_init__(self):
        total = sum(self.probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("label probabilities do not sum to 1")


@dataclass(frozen=True)
class SequenceStats:
    """Reasoning-span summary; all-zero with perplexity 1 when the span is
    empty (absent=True)."""

    nll: float
    perplexity: float
    mean_token_entropy_bits: float
    entropy_quantiles: tuple[float, float, float, float, float]
    prob_quantiles: tuple[float, float, float, float, float]
    absent: bool = False


def _entropy_bits(probs: np.ndarray) -> np.ndarray:
    """-sum p log2 p along the last axis, zero-probability terms contributing 0."""
    return -(probs * np.log2(np.where(probs > 0.0, probs, 1.0))).sum(axis=-1)


def renormalize_topk(logprobs: ArrayLike) -> np.ndarray:
    """Renormalize natural-log probabilities via a max-shifted softmax.

    ``logprobs`` is one row, or a 2-D array holding one distribution per
    row with unused entries padded by -inf. Each row becomes
    p_i = exp(l_i) / sum_j exp(l_j), computed after subtracting the row
    maximum for stability and sorted descending; padding becomes trailing
    zeros. Adding a constant to every entry of a row leaves it unchanged.

    Up to 7 entries per row numpy sums each row in order, so a padded 2-D
    call equals the 1-D call on each row bit for bit; from 8 entries it sums
    in unrolled blocks, and padding can change a row's last digits.
    """
    arr = np.asarray(logprobs, dtype=float)
    if arr.size == 0:
        raise EmptyCandidates("no candidate logprobs")
    top = arr.max(axis=-1, keepdims=True)
    # max propagates nan and +inf, and is -inf only for an all-padding row
    if not np.isfinite(top).all():
        raise ValueError("non-finite logprob")
    shifted = np.exp(arr - top)
    probs = np.sort(shifted / shifted.sum(axis=-1, keepdims=True), axis=-1)[..., ::-1]
    if np.any(probs < -1e-12) or np.any(probs > 1 + 1e-12):
        raise ValueError("probabilities outside [0, 1]")
    if np.any(np.abs(probs.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("probabilities do not sum to 1")
    return probs


def _distribution_metrics(probs: np.ndarray, k: int) -> dict[str, float]:
    """Shared entropy/margin metrics over a descending probability vector."""
    h2 = float(_entropy_bits(probs))
    h2_norm = h2 / np.log2(k) if k > 1 else 0.0
    p1 = float(probs[0])
    p2 = float(probs[1]) if len(probs) > 1 else 0.0
    return {
        "entropy": h2,
        "entropy_norm": float(h2_norm),
        "effective_choices": float(2.0**h2),
        "confidence": float(1.0 - h2_norm),
        "msp": p1,
        "margin": p1 - p2,
        "margin_norm": (p1 - p2) / max(p1, EPSILON),
        "top1_top2_ratio": p1 / max(p2, EPSILON),
    }


def compute_topk_features(probs: np.ndarray) -> dict[str, float]:
    """Family A: the eight top-k outcome-distribution metrics over one
    descending probability row (renormalize_topk's output), k its length."""
    return _distribution_metrics(probs, len(probs))


def collapse_to_labels(candidates: Iterable[tuple[str, float]]) -> LabelDistribution:
    """Collapse candidate token mass onto schema labels and renormalize.

    ``candidates`` are (surface, logprob) pairs. Every candidate whose
    surface normalizes to a label in FULL_SUPPORT contributes exp(logprob)
    to that label; labels with no matching candidate keep mass 0 (and still
    participate downstream, so the support size stays constant). Splitting
    one label's mass across several surface forms therefore does not change
    the result.

    Raises NoLabelMass when no candidate maps to any supported label.
    """
    masses = {label: 0.0 for label in FULL_SUPPORT}
    for surface, logprob in candidates:
        label = normalize_outcome_token(surface)
        if label is not None and label in masses:
            masses[label] += float(np.exp(logprob))
    total = sum(masses.values())
    if total <= 0.0:
        raise NoLabelMass("no candidate surface maps to a schema label")
    probs = {label: mass / total for label, mass in masses.items()}
    return LabelDistribution(probs, masses)


def compute_filtered_features(ldist: LabelDistribution) -> dict[str, float]:
    """Family B: family-A metrics over the collapsed label distribution.

    k is the support size (constant even for zero-mass labels), so the
    entropy normalization is stable. The filtered catalog carries seven
    metrics; there is no separate max-probability entry.
    """
    probs = np.array([ldist.probs[label] for label in FULL_SUPPORT], dtype=float)
    probs = np.sort(probs)[::-1]
    metrics = _distribution_metrics(probs, k=len(FULL_SUPPORT))
    del metrics["msp"]
    return metrics


def compute_logodds_features(
    outcome_candidates: Iterable[tuple[str, float]],
    ldist: LabelDistribution,
) -> dict[str, float]:
    """Family C: top-2 log-space margins, raw and label-filtered.

    ``outcome_candidates`` are (surface, logprob) pairs. margin = l(2) -
    l(1) <= 0; margin_norm divides by l(2) with l(2) replaced by
    min(l(2), -eps) to avoid dividing by zero. The filtered variant uses
    natural logs of ldist.masses, the label masses before renormalization.
    Degenerate inputs (fewer than two candidates, or fewer than two labels
    with mass) emit 0 with the validity flag cleared so the vector shape
    stays fixed.
    """

    def pair_metrics(l1: float, l2: float) -> tuple[float, float]:
        margin = l2 - l1
        return margin, margin / min(l2, -EPSILON)

    out: dict[str, float] = {}
    logprobs = sorted((lp for _, lp in outcome_candidates), reverse=True)
    if len(logprobs) >= 2:
        margin, margin_norm = pair_metrics(logprobs[0], logprobs[1])
        out.update(margin=margin, margin_norm=margin_norm, margin_valid=1.0)
    else:
        out.update(margin=0.0, margin_norm=0.0, margin_valid=0.0)

    positive = sorted((m for m in ldist.masses.values() if m > 0.0), reverse=True)
    if len(positive) >= 2:
        margin, margin_norm = pair_metrics(float(np.log(positive[0])), float(np.log(positive[1])))
        out.update(filtered_margin=margin, filtered_margin_norm=margin_norm, filtered_margin_valid=1.0)
    else:
        out.update(filtered_margin=0.0, filtered_margin_norm=0.0, filtered_margin_valid=0.0)
    return out


_QUANTILE_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)


def compute_sequence_features(reasoning: TokenSpan, k: int = DEFAULT_TOP_K) -> SequenceStats:
    """Families D-E inputs: reasoning-span NLL, perplexity, and per-token
    entropy/probability distributions.

    NLL sums the chosen-token negative logprobs in nats; perplexity is
    exp(NLL/T). Per-token entropies are computed in bits over each token's
    renormalized top-k candidates, one renormalize_topk call over the
    span's (T, k) logprob columns; quantiles interpolate linearly between
    closest ranks. An empty span yields zeros with perplexity 1, flagged
    absent.
    """
    chosen_lp = reasoning.chosen_logprobs
    if len(chosen_lp) == 0:
        zeros = (0.0,) * 5
        return SequenceStats(0.0, 1.0, 0.0, zeros, zeros, absent=True)
    nll = float(-chosen_lp.sum())
    # a mean chosen logprob below about -709 gives inf, which the row's
    # isfinite check reports as NonFiniteFeature
    with np.errstate(over="ignore"):
        ppl = float(np.exp(nll / len(chosen_lp)))

    entropies = _entropy_bits(renormalize_topk(reasoning.logprobs[:, :k]))
    quantiles = np.quantile(np.stack([entropies, np.exp(chosen_lp)]), _QUANTILE_POINTS, axis=1)
    ent_q = tuple(float(v) for v in quantiles[:, 0])
    prob_q = tuple(float(v) for v in quantiles[:, 1])
    return SequenceStats(nll, ppl, float(entropies.mean()), ent_q, prob_q)


_BAND_ORDER = (
    ConfidenceBand.VL,
    ConfidenceBand.L,
    ConfidenceBand.M,
    ConfidenceBand.H,
    ConfidenceBand.VH,
)


def compute_verbalized_features(s: StructuredResponse) -> dict[str, float]:
    """Family F: self-reported confidence scalar plus one-hot band.

    A missing p_correct is imputed at 0.5 with the missing flag raised; a
    missing band leaves the one-hot all zero.
    """
    out = {
        "confidence": s.p_correct / 100.0 if s.p_correct is not None else 0.5,
        "confidence_missing": 0.0 if s.p_correct is not None else 1.0,
    }
    for band in _BAND_ORDER:
        out[f"band_{band.value.lower()}"] = 1.0 if s.band is band else 0.0
    return out


def compute_attribution_features(outcome: OutcomeLabel) -> dict[str, float]:
    """Family G: abstention indicators distinguishing evidence deficits
    (aleatoric, outcome 2) from policy gaps (epistemic, outcome 3)."""
    evidence = 1.0 if outcome is OutcomeLabel.INCONCLUSIVE_EVIDENCE else 0.0
    policy = 1.0 if outcome is OutcomeLabel.INCONCLUSIVE_DEFINITION else 0.0
    return {
        "evidence_deficit": evidence,
        "policy_gap": policy,
        "inconclusive": max(evidence, policy),
    }


#: Short feature names per family, in catalog order. The one source of
#: both catalog_names and the column order of the assembled row.
_CATALOG: dict[FeatureFamily, tuple[str, ...]] = {
    FeatureFamily.OUTCOME_TOPK: (
        "entropy",
        "entropy_norm",
        "effective_choices",
        "confidence",
        "msp",
        "margin",
        "margin_norm",
        "top1_top2_ratio",
    ),
    FeatureFamily.FILTERED_OUTCOME: (
        "entropy",
        "entropy_norm",
        "effective_choices",
        "confidence",
        "margin",
        "margin_norm",
        "top1_top2_ratio",
    ),
    FeatureFamily.LOGODDS_MARGIN: (
        "margin",
        "margin_norm",
        "margin_valid",
        "filtered_margin",
        "filtered_margin_norm",
        "filtered_margin_valid",
    ),
    FeatureFamily.SEQUENCE_COT: ("nll", "ppl", "absent"),
    FeatureFamily.TOKEN_LEVEL_COT: (
        "mean_entropy",
        *(f"entropy_q{round(100 * p)}" for p in _QUANTILE_POINTS),
        *(f"prob_q{round(100 * p)}" for p in _QUANTILE_POINTS),
    ),
    FeatureFamily.VERBALIZED: (
        "confidence",
        "confidence_missing",
        *(f"band_{band.value.lower()}" for band in _BAND_ORDER),
    ),
    FeatureFamily.ATTRIBUTION: ("evidence_deficit", "policy_gap", "inconclusive"),
}


def _in_catalog_order(family: FeatureFamily, metrics: Mapping[str, float]) -> list[float]:
    return [metrics[name] for name in _CATALOG[family]]


def assemble_feature_vector(
    trace: ResponseTrace,
    include: Iterable[FeatureFamily] = ALL_FAMILIES,
    k: int = DEFAULT_TOP_K,
) -> np.ndarray:
    """One float64 feature row whose columns are catalog_names(include).

    Excluded families are absent from the row entirely. Direct-answer
    traces still carry the sequence/token families when enabled, with zero
    stats and the absent flag set. NoLabelMass and NonFiniteFeature (one isfinite check over the
    finished row, naming its first bad column) propagate to the caller as
    invalid-row markers. The outcome-span token, not the structured field,
    drives the token-derived families.
    """
    include_set = set(include)
    if not include_set:
        raise ValueError("at least one feature family must be included")

    outcome = trace.outcome
    candidates = list(zip(outcome.surfaces[0], outcome.logprobs[0].tolist()))
    values: list[float] = []

    ldist = None
    if FeatureFamily.FILTERED_OUTCOME in include_set or FeatureFamily.LOGODDS_MARGIN in include_set:
        ldist = collapse_to_labels(candidates)

    if FeatureFamily.OUTCOME_TOPK in include_set:
        probs = renormalize_topk(outcome.logprobs[0, :k])
        values += _in_catalog_order(FeatureFamily.OUTCOME_TOPK, compute_topk_features(probs))
    if FeatureFamily.FILTERED_OUTCOME in include_set:
        values += _in_catalog_order(FeatureFamily.FILTERED_OUTCOME, compute_filtered_features(ldist))
    if FeatureFamily.LOGODDS_MARGIN in include_set:
        metrics = compute_logodds_features(candidates, ldist)
        values += _in_catalog_order(FeatureFamily.LOGODDS_MARGIN, metrics)

    if include_set & {FeatureFamily.SEQUENCE_COT, FeatureFamily.TOKEN_LEVEL_COT}:
        stats = compute_sequence_features(trace.reasoning, k=k)
        # in _CATALOG order: (nll, ppl, absent) and (mean_entropy, quantiles...)
        if FeatureFamily.SEQUENCE_COT in include_set:
            values += (stats.nll, stats.perplexity, float(stats.absent))
        if FeatureFamily.TOKEN_LEVEL_COT in include_set:
            values += (stats.mean_token_entropy_bits, *stats.entropy_quantiles, *stats.prob_quantiles)

    if FeatureFamily.VERBALIZED in include_set:
        values += _in_catalog_order(FeatureFamily.VERBALIZED, compute_verbalized_features(trace.structured))
    if FeatureFamily.ATTRIBUTION in include_set:
        metrics = compute_attribution_features(trace.effective_outcome())
        values += _in_catalog_order(FeatureFamily.ATTRIBUTION, metrics)

    row = np.array(values, dtype=float)
    finite = np.isfinite(row)
    if not finite.all():
        bad = catalog_names(include_set)[int(np.argmin(finite))]
        raise NonFiniteFeature(f"non-finite value for {bad}")
    return row


def catalog_names(include: Iterable[FeatureFamily] = ALL_FAMILIES) -> list[str]:
    """Qualified feature names for the enabled families, in catalog order."""
    include_set = set(include)
    return [
        f"{family.value}.{name}"
        for family, names in _CATALOG.items()
        if family in include_set
        for name in names
    ]


def family_of(name: str) -> str:
    """The family value of a qualified feature name: the part before its
    first '.'."""
    return name.split(".", 1)[0]
