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
computations are pure and deterministic; excluded families are absent from
the vector entirely rather than zeroed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .schema import (
    ConfidenceBand,
    OutcomeLabel,
    ResponseTrace,
    StructuredResponse,
    TokenCandidate,
    TokenRecord,
    normalize_outcome_token,
)

__all__ = [
    "EPSILON",
    "DEFAULT_TOP_K",
    "FULL_SUPPORT",
    "FeatureFamily",
    "FeatureEntry",
    "FeatureVector",
    "TopKDistribution",
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
    "ALL_FAMILIES",
]

#: Numerical guard used by normalized margins and ratios.
EPSILON = 1e-12

#: Family A is computed over the five most probable candidates by default.
DEFAULT_TOP_K = 5

#: Expanded schema label support; the binary variant is (NO, YES).
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
class FeatureEntry:
    name: str
    family: FeatureFamily
    value: float

    @property
    def qualified_name(self) -> str:
        return f"{self.family.value}.{self.name}"


@dataclass(frozen=True)
class FeatureVector:
    entries: tuple[FeatureEntry, ...]

    def __post_init__(self):
        names = [e.qualified_name for e in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names")
        for e in self.entries:
            if not math.isfinite(e.value):
                raise NonFiniteFeature(f"non-finite value for {e.qualified_name}")

    def qualified_names(self) -> list[str]:
        return [e.qualified_name for e in self.entries]

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries], dtype=float)

    def as_mapping(self) -> dict[str, float]:
        return {e.qualified_name: e.value for e in self.entries}

    def families(self) -> dict[str, str]:
        return {e.qualified_name: e.family.value for e in self.entries}


@dataclass(frozen=True)
class TopKDistribution:
    """Renormalized probabilities over the top-k candidates, descending."""

    probs: tuple[float, ...]
    k: int

    def __post_init__(self):
        if self.k < 1 or len(self.probs) != self.k:
            raise ValueError("k must match the number of probabilities")
        arr = np.asarray(self.probs)
        if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
            raise ValueError("probabilities outside [0, 1]")
        if abs(float(arr.sum()) - 1.0) > 1e-9:
            raise ValueError("probabilities do not sum to 1")
        if np.any(np.diff(arr) > 1e-12):
            raise ValueError("probabilities not sorted descending")


@dataclass(frozen=True)
class LabelDistribution:
    """Token mass collapsed onto schema labels and renormalized."""

    probs: Mapping[OutcomeLabel, float]
    support: tuple[OutcomeLabel, ...]

    def __post_init__(self):
        total = sum(self.probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("label probabilities do not sum to 1")
        if any(label not in self.support for label in self.probs):
            raise ValueError("probability mass outside the declared support")


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


def _entropy_bits(probs: np.ndarray) -> float:
    """-sum p log2 p with zero-probability terms contributing 0."""
    p = probs[probs > 0.0]
    return float(-(p * np.log2(p)).sum())


def renormalize_topk(logprobs: Sequence[float]) -> TopKDistribution:
    """Renormalize natural-log probabilities via a max-shifted softmax.

    p_i = exp(l_i) / sum_j exp(l_j), computed after subtracting the maximum
    for stability; the result is sorted descending. Adding a constant to
    every input leaves the output unchanged.
    """
    if len(logprobs) == 0:
        raise EmptyCandidates("no candidate logprobs")
    arr = np.asarray(logprobs, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite logprob")
    shifted = np.exp(arr - arr.max())
    probs = shifted / shifted.sum()
    probs = np.sort(probs)[::-1]
    return TopKDistribution(tuple(float(p) for p in probs), k=len(probs))


def _distribution_metrics(probs: np.ndarray, k: int) -> dict[str, float]:
    """Shared entropy/margin metrics over a descending probability vector."""
    h2 = _entropy_bits(probs)
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


def compute_topk_features(dist: TopKDistribution) -> dict[str, float]:
    """Family A: the eight top-k outcome-distribution metrics."""
    return _distribution_metrics(np.asarray(dist.probs), dist.k)


def collapse_to_labels(
    candidates: Iterable[TokenCandidate],
    support: tuple[OutcomeLabel, ...] = FULL_SUPPORT,
) -> LabelDistribution:
    """Collapse candidate token mass onto schema labels and renormalize.

    Every candidate whose surface normalizes to a label in ``support``
    contributes exp(logprob) to that label; labels with no matching
    candidate keep mass 0 (and still participate downstream, so the support
    size stays constant). Splitting one label's mass across several surface
    forms therefore does not change the result.

    Raises NoLabelMass when no candidate maps to any supported label.
    """
    masses = _label_masses(candidates, support)
    total = sum(masses.values())
    if total <= 0.0:
        raise NoLabelMass("no candidate surface maps to a schema label")
    probs = {label: mass / total for label, mass in masses.items()}
    return LabelDistribution(probs, support)


def _label_masses(
    candidates: Iterable[TokenCandidate],
    support: tuple[OutcomeLabel, ...],
) -> dict[OutcomeLabel, float]:
    masses = {label: 0.0 for label in support}
    for cand in candidates:
        label = normalize_outcome_token(cand.surface)
        if label is not None and label in masses:
            masses[label] += float(np.exp(cand.logprob))
    return masses


def compute_filtered_features(ldist: LabelDistribution) -> dict[str, float]:
    """Family B: family-A metrics over the collapsed label distribution.

    k is the support size (constant even for zero-mass labels), so the
    entropy normalization is stable. The filtered catalog carries seven
    metrics; there is no separate max-probability entry.
    """
    probs = np.array([ldist.probs[label] for label in ldist.support], dtype=float)
    probs = np.sort(probs)[::-1]
    metrics = _distribution_metrics(probs, k=len(ldist.support))
    del metrics["msp"]
    return metrics


def compute_logodds_features(
    outcome_candidates: Sequence[TokenCandidate],
    ldist: LabelDistribution,
) -> dict[str, float]:
    """Family C: top-2 log-space margins, raw and label-filtered.

    margin = l(2) - l(1) <= 0; margin_norm divides by l(2) with l(2)
    replaced by min(l(2), -eps) to avoid dividing by zero. The filtered
    variant uses natural logs of the collapsed label masses before
    renormalization. Degenerate inputs (fewer than two candidates, or fewer
    than two labels with mass) emit 0 with the validity flag cleared so the
    vector shape stays fixed.
    """

    def pair_metrics(l1: float, l2: float) -> tuple[float, float]:
        margin = l2 - l1
        return margin, margin / min(l2, -EPSILON)

    out: dict[str, float] = {}
    logprobs = sorted((c.logprob for c in outcome_candidates), reverse=True)
    if len(logprobs) >= 2:
        margin, margin_norm = pair_metrics(logprobs[0], logprobs[1])
        out.update(margin=margin, margin_norm=margin_norm, margin_valid=1.0)
    else:
        out.update(margin=0.0, margin_norm=0.0, margin_valid=0.0)

    masses = _label_masses(outcome_candidates, ldist.support)
    positive = sorted((m for m in masses.values() if m > 0.0), reverse=True)
    if len(positive) >= 2:
        margin, margin_norm = pair_metrics(float(np.log(positive[0])), float(np.log(positive[1])))
        out.update(filtered_margin=margin, filtered_margin_norm=margin_norm, filtered_margin_valid=1.0)
    else:
        out.update(filtered_margin=0.0, filtered_margin_norm=0.0, filtered_margin_valid=0.0)
    return out


_QUANTILE_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)


def compute_sequence_features(
    reasoning: Sequence[TokenRecord], k: int = DEFAULT_TOP_K
) -> SequenceStats:
    """Families D-E inputs: reasoning-span NLL, perplexity, and per-token
    entropy/probability distributions.

    NLL sums the chosen-token negative logprobs in nats; perplexity is
    exp(NLL/T). Per-token entropies are computed in bits over each record's
    renormalized top-k candidates; quantiles interpolate linearly between
    closest ranks. An empty span yields zeros with perplexity 1, flagged
    absent.

    The span is one (T, w) logprob array, w = min(k, longest candidate
    list), padded with -inf; the max-shifted softmax, descending sort and
    entropy run row-wise over it, so padding only appends zero terms. For
    w <= 7 (the default k is 5) those leave each row's sum bit-identical to
    the per-record sum in renormalize_topk; from 8 entries numpy sums in
    unrolled blocks, and padding can change an entropy in its last digits.
    """
    if len(reasoning) == 0:
        zeros = (0.0,) * 5
        return SequenceStats(0.0, 1.0, 0.0, zeros, zeros, absent=True)
    chosen_lp = np.array([r.chosen.logprob for r in reasoning], dtype=float)
    nll = float(-chosen_lp.sum())
    ppl = float(np.exp(nll / len(reasoning)))

    rows = [r.candidates[:k] for r in reasoning]
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    if not lengths.all():
        raise EmptyCandidates("no candidate logprobs")
    flat = np.fromiter(
        (c.logprob for row in rows for c in row), dtype=float, count=int(lengths.sum())
    )
    if not np.isfinite(flat).all():
        raise ValueError("non-finite logprob")
    logprobs = np.full((len(rows), int(lengths.max())), -np.inf)
    logprobs[np.arange(logprobs.shape[1]) < lengths[:, None]] = flat

    shifted = np.exp(logprobs - logprobs.max(axis=1, keepdims=True))
    probs = np.sort(shifted / shifted.sum(axis=1, keepdims=True), axis=1)[:, ::-1]
    if np.any(probs < -1e-12) or np.any(probs > 1 + 1e-12):
        raise ValueError("probabilities outside [0, 1]")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("probabilities do not sum to 1")
    # zero-probability terms contribute 0
    entropies = -(probs * np.log2(np.where(probs > 0.0, probs, 1.0))).sum(axis=1)

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
#: both catalog_names and the order of the assembled vector.
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


def _sequence_entries(stats: SequenceStats) -> dict[str, float]:
    values = (stats.nll, stats.perplexity, 1.0 if stats.absent else 0.0)
    return dict(zip(_CATALOG[FeatureFamily.SEQUENCE_COT], values))


def _token_entries(stats: SequenceStats) -> dict[str, float]:
    values = (stats.mean_token_entropy_bits, *stats.entropy_quantiles, *stats.prob_quantiles)
    return dict(zip(_CATALOG[FeatureFamily.TOKEN_LEVEL_COT], values))


def assemble_feature_vector(
    trace: ResponseTrace,
    include: Iterable[FeatureFamily] = ALL_FAMILIES,
    k: int = DEFAULT_TOP_K,
    support: tuple[OutcomeLabel, ...] = FULL_SUPPORT,
) -> FeatureVector:
    """Concatenate the enabled feature families in fixed catalog order.

    Excluded families are absent from the vector entirely, which is what
    the ablation runner relies on. Direct-answer traces still carry the
    sequence/token families when enabled, with zero stats and the absent
    flag set. NoLabelMass and NonFiniteFeature propagate to the caller as
    invalid-row markers. The outcome-span token, not the structured field,
    drives the token-derived families.
    """
    include_set = set(include)
    if not include_set:
        raise ValueError("at least one feature family must be included")

    outcome_rec = trace.outcome_record()
    entries: list[FeatureEntry] = []

    def extend(family: FeatureFamily, metrics: Mapping[str, float]) -> None:
        entries.extend(FeatureEntry(name, family, float(metrics[name])) for name in _CATALOG[family])

    ldist = None
    if FeatureFamily.FILTERED_OUTCOME in include_set or FeatureFamily.LOGODDS_MARGIN in include_set:
        ldist = collapse_to_labels(outcome_rec.candidates, support)

    if FeatureFamily.OUTCOME_TOPK in include_set:
        dist = renormalize_topk([c.logprob for c in outcome_rec.candidates[:k]])
        extend(FeatureFamily.OUTCOME_TOPK, compute_topk_features(dist))
    if FeatureFamily.FILTERED_OUTCOME in include_set:
        extend(FeatureFamily.FILTERED_OUTCOME, compute_filtered_features(ldist))
    if FeatureFamily.LOGODDS_MARGIN in include_set:
        extend(FeatureFamily.LOGODDS_MARGIN, compute_logodds_features(outcome_rec.candidates, ldist))

    needs_sequence = include_set & {FeatureFamily.SEQUENCE_COT, FeatureFamily.TOKEN_LEVEL_COT}
    if needs_sequence:
        stats = compute_sequence_features(trace.reasoning_records(), k=k)
        if FeatureFamily.SEQUENCE_COT in include_set:
            extend(FeatureFamily.SEQUENCE_COT, _sequence_entries(stats))
        if FeatureFamily.TOKEN_LEVEL_COT in include_set:
            extend(FeatureFamily.TOKEN_LEVEL_COT, _token_entries(stats))

    if FeatureFamily.VERBALIZED in include_set:
        extend(FeatureFamily.VERBALIZED, compute_verbalized_features(trace.structured))
    if FeatureFamily.ATTRIBUTION in include_set:
        extend(FeatureFamily.ATTRIBUTION, compute_attribution_features(trace.effective_outcome()))

    return FeatureVector(tuple(entries))


def catalog_names(include: Iterable[FeatureFamily] = ALL_FAMILIES) -> list[str]:
    """Qualified feature names for the enabled families, in catalog order."""
    include_set = set(include)
    return [
        f"{family.value}.{name}"
        for family, names in _CATALOG.items()
        if family in include_set
        for name in names
    ]
