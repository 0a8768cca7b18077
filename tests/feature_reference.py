"""The per-trace feature functions that the corpus-wide kernels in
lppgate.features replaced, kept as the reference the kernels are checked
against: one dict per family and trace, one np.quantile per span. Also the
kernels' composition from before the outcome rows and the reasoning tokens
shared one renormalization (assemble_separately), and the per-block loop
that stacked rows of unequal width (stack_rows_loop)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from lppgate import features
from lppgate.features import EPSILON, FULL_SUPPORT, DEFAULT_TOP_K, EmptyCandidates, NoLabelMass, renormalize_topk
from lppgate.schema import ConfidenceBand, OutcomeLabel, ResponseTrace, StructuredResponse, TokenSpan, normalize_outcome_token

_QUANTILE_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)

_BAND_ORDER = (
    ConfidenceBand.VL,
    ConfidenceBand.L,
    ConfidenceBand.M,
    ConfidenceBand.H,
    ConfidenceBand.VH,
)


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
    return -(probs * np.log2(np.where(probs > 0.0, probs, 1.0))).sum(axis=-1)


def _distribution_metrics(probs: np.ndarray, k: int) -> dict[str, float]:
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
    """Family A over one descending probability row, k its length."""
    return _distribution_metrics(probs, len(probs))


def collapse_to_labels(candidates: Iterable[tuple[str, float]]) -> LabelDistribution:
    """Collapse (surface, logprob) candidate mass onto the schema labels and
    renormalize; NoLabelMass when no candidate maps to a label."""
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
    """Family B: family-A metrics over the collapsed label distribution,
    without msp, over a support of 4."""
    probs = np.array([ldist.probs[label] for label in FULL_SUPPORT], dtype=float)
    probs = np.sort(probs)[::-1]
    metrics = _distribution_metrics(probs, k=len(FULL_SUPPORT))
    del metrics["msp"]
    return metrics


def compute_logodds_features(
    outcome_candidates: Iterable[tuple[str, float]],
    ldist: LabelDistribution,
) -> dict[str, float]:
    """Family C: top-2 log-space margins, raw and label-filtered."""

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


def compute_sequence_features(reasoning: TokenSpan, k: int = DEFAULT_TOP_K) -> SequenceStats:
    """Families D-E over one span: one renormalize_topk over its (T, k)
    columns and one np.quantile over its entropies and probabilities."""
    chosen_lp = reasoning.chosen_logprobs
    if len(chosen_lp) == 0:
        zeros = (0.0,) * 5
        return SequenceStats(0.0, 1.0, 0.0, zeros, zeros, absent=True)
    nll = float(-chosen_lp.sum())
    with np.errstate(over="ignore"):
        ppl = float(np.exp(nll / len(chosen_lp)))

    entropies = _entropy_bits(renormalize_topk(reasoning.logprobs[:, :k]))
    quantiles = np.quantile(np.stack([entropies, np.exp(chosen_lp)]), _QUANTILE_POINTS, axis=1)
    ent_q = tuple(float(v) for v in quantiles[:, 0])
    prob_q = tuple(float(v) for v in quantiles[:, 1])
    return SequenceStats(nll, ppl, float(entropies.mean()), ent_q, prob_q)


def compute_verbalized_features(s: StructuredResponse) -> dict[str, float]:
    """Family F: confidence scalar (0.5 plus the missing flag when absent)
    and the one-hot band."""
    out = {
        "confidence": s.p_correct / 100.0 if s.p_correct is not None else 0.5,
        "confidence_missing": 0.0 if s.p_correct is not None else 1.0,
    }
    for band in _BAND_ORDER:
        out[f"band_{band.value.lower()}"] = 1.0 if s.band is band else 0.0
    return out


def effective_outcome(trace) -> OutcomeLabel:
    """The decision a trace actually emitted: the outcome-span token wins
    over the structured field when the two disagree."""
    label = normalize_outcome_token(trace.outcome.chosen[0])
    return label if label is not None else trace.structured.outcome


def compute_attribution_features(outcome: OutcomeLabel) -> dict[str, float]:
    """Family G: evidence deficit (outcome 2), policy gap (outcome 3), and
    their union."""
    evidence = 1.0 if outcome is OutcomeLabel.INCONCLUSIVE_EVIDENCE else 0.0
    policy = 1.0 if outcome is OutcomeLabel.INCONCLUSIVE_DEFINITION else 0.0
    return {
        "evidence_deficit": evidence,
        "policy_gap": policy,
        "inconclusive": max(evidence, policy),
    }


def renormalize_topk_elementwise(logprobs) -> np.ndarray:
    """renormalize_topk with its range and sum checks made elementwise, as
    they were before they became min and max reductions."""
    arr = np.asarray(logprobs, dtype=float)
    if arr.size == 0:
        raise EmptyCandidates("no candidate logprobs")
    top = arr.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise ValueError("non-finite logprob")
    shifted = np.exp(arr - top)
    probs = np.sort(shifted / shifted.sum(axis=-1, keepdims=True), axis=-1)[..., ::-1]
    if (probs < -1e-12).any() or (probs > 1 + 1e-12).any():
        raise ValueError("probabilities outside [0, 1]")
    if (np.abs(probs.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("probabilities do not sum to 1")
    return probs


def stack_rows_loop(blocks: Sequence[np.ndarray], width: int) -> np.ndarray:
    """features._stack_rows as it was: one -inf fill, then one slice
    assignment per block whenever some block is narrower than ``width``."""
    if all(b.shape[1] >= width for b in blocks):
        return np.concatenate([b[:, :width] for b in blocks])
    out = np.full((sum(len(b) for b in blocks), width), -np.inf)
    row = 0
    for b in blocks:
        out[row : row + len(b), : b.shape[1]] = b[:, :width]
        row += len(b)
    return out


def assemble_separately(traces: Sequence[ResponseTrace], k: int = DEFAULT_TOP_K) -> tuple[np.ndarray, np.ndarray]:
    """Every catalog column of every trace, and the rows with no label
    mass, as the kernels gave them when the outcome rows' top k and the
    reasoning tokens' top k were renormalized in two calls, each block at
    its own width."""
    widths = [t.outcome.logprobs.shape[1] for t in traces]
    logprobs = features._stack_rows([t.outcome.logprobs for t in traces], max(widths))
    outcome = np.empty((len(traces), features._OUTCOME_COLUMNS))
    no_mass = features._outcome_columns(traces, k, widths, logprobs, renormalize_topk_elementwise(logprobs[:, :k]), outcome)
    spans = [t.reasoning for t in traces]
    present = [s for s in spans if len(s.chosen_logprobs)]
    probs = None
    if present:
        width = min(k, max(s.logprobs.shape[1] for s in present))
        probs = renormalize_topk_elementwise(features._stack_rows([s.logprobs for s in present], width))
    reasoning = features.compute_sequence_features(spans, probs)
    verbalized = np.empty((len(traces), len(features._CATALOG[features.FeatureFamily.VERBALIZED])))
    attribution = np.empty((len(traces), len(features._CATALOG[features.FeatureFamily.ATTRIBUTION])))
    features._verbalized_columns(traces, verbalized)
    features._attribution_columns(traces, attribution)
    return np.concatenate([outcome, reasoning, verbalized, attribution], axis=1), no_mass
