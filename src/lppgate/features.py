"""Performance-predictor features, computed for a whole corpus of response
traces at once.

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

Each family is a column kernel over the whole corpus: assemble_feature_vector
turns N traces into one (N, F) float64 matrix whose columns are
catalog_names(include), the enabled families in the order above, each
family's values in _CATALOG order. Excluded families are absent from the
matrix entirely rather than zeroed. The outcome tokens of all N traces are
stacked into one -inf padded array and the reasoning tokens of all spans
into another, and one renormalize_topk call turns each into sorted
probabilities. The online path is the same code with N = 1.

A row's bits do not depend on N or on the rest of the corpus as long as no
token has more than 7 top-k candidates (k is 5 by default):

  * every exp/log/log2 runs on a C-contiguous array, because numpy may take
    a different code path, with different last bits, on a strided view;
  * sums run over rows of the true length (renormalize_topk's padded rows
    are exact up to 7 entries; spans are grouped by length rather than
    zero-padded, since numpy sums 8 or more terms in blocks);
  * 2^H2 is Python's float power per element; numpy's array power differs
    from it in the last bit for some entropies.

A row with no outcome mass on any schema label (when family B or C is
enabled) is invalid with NoLabelMass; a row holding a nan or infinite value
is invalid with NonFiniteFeature naming its first bad column. A column name
is "family.feature", and family_of reads the family back from it.
"""

from __future__ import annotations

import enum
import functools
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .schema import (
    ConfidenceBand,
    OutcomeLabel,
    ResponseTrace,
    TokenSpan,
    normalize_outcome_token,
)

__all__ = [
    "EPSILON",
    "DEFAULT_TOP_K",
    "FULL_SUPPORT",
    "FeatureFamily",
    "EmptyCandidates",
    "NoLabelMass",
    "NonFiniteFeature",
    "renormalize_topk",
    "compute_sequence_features",
    "assemble_feature_vector",
    "catalog_names",
    "family_of",
    "ALL_FAMILIES",
]

#: Numerical guard used by normalized margins and ratios.
EPSILON = 1e-12

#: Family A is computed over the five most probable candidates by default.
DEFAULT_TOP_K = 5

#: The schema labels that outcome-token mass is collapsed onto; label l's
#: mass is column int(l) of the label-mass array.
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

_QUANTILE_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)

_BAND_ORDER = (
    ConfidenceBand.VL,
    ConfidenceBand.L,
    ConfidenceBand.M,
    ConfidenceBand.H,
    ConfidenceBand.VH,
)

#: Short feature names per family, in catalog order. The one source of
#: both catalog_names and the column order of the assembled matrix.
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

_OUTCOME_FAMILIES = frozenset(
    (FeatureFamily.OUTCOME_TOPK, FeatureFamily.FILTERED_OUTCOME, FeatureFamily.LOGODDS_MARGIN)
)
_REASONING_FAMILIES = frozenset((FeatureFamily.SEQUENCE_COT, FeatureFamily.TOKEN_LEVEL_COT))
#: Family B's columns among the eight distribution metrics: all but msp.
_FILTERED_METRICS = [j for j, name in enumerate(_CATALOG[FeatureFamily.OUTCOME_TOPK]) if name != "msp"]


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
    if (probs < -1e-12).any() or (probs > 1 + 1e-12).any():
        raise ValueError("probabilities outside [0, 1]")
    if (np.abs(probs.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("probabilities do not sum to 1")
    return probs


def _stack_rows(blocks: Sequence[np.ndarray], width: int) -> np.ndarray:
    """The first ``width`` columns of each 2-D block, stacked into one
    C-contiguous array; blocks narrower than ``width`` are padded with -inf."""
    if all(b.shape[1] >= width for b in blocks):
        return np.concatenate([b[:, :width] for b in blocks])
    out = np.full((sum(len(b) for b in blocks), width), -np.inf)
    row = 0
    for b in blocks:
        out[row : row + len(b), : b.shape[1]] = b[:, :width]
        row += len(b)
    return out


def _distribution_metrics(probs: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Family A's eight metrics, one row per descending probability row.

    ``probs`` may carry trailing zero padding; ``support`` is each row's
    k, the length of its distribution before padding, which normalizes
    the entropy (a one-candidate row has normalized entropy 0).
    """
    h2 = _entropy_bits(probs)
    h2_norm = np.where(support > 1, h2 / np.log2(np.maximum(support, 2)), 0.0)
    p1 = probs[:, 0]
    p2 = probs[:, 1] if probs.shape[1] > 1 else np.zeros(len(probs))
    out = np.empty((len(probs), len(_CATALOG[FeatureFamily.OUTCOME_TOPK])))
    out[:, 0] = h2
    out[:, 1] = h2_norm
    out[:, 2] = [2.0**h for h in h2.tolist()]
    out[:, 3] = 1.0 - h2_norm
    out[:, 4] = p1
    out[:, 5] = p1 - p2
    out[:, 6] = out[:, 5] / np.maximum(p1, EPSILON)
    out[:, 7] = p1 / np.maximum(p2, EPSILON)
    return out


def _pair_margins(l1: np.ndarray, l2: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Family C's (margin, margin_norm, valid) for each pair of top-2 log
    values l1 >= l2, along a new last axis: margin = l2 - l1 <= 0, and
    margin_norm divides it by min(l2, -eps). Pairs that are not valid get
    zeros."""
    l2 = np.where(valid, l2, l1)
    margin = l2 - l1
    out = np.empty(valid.shape + (3,))
    out[..., 0] = np.where(valid, margin, 0.0)
    out[..., 1] = np.where(valid, margin / np.minimum(l2, -EPSILON), 0.0)
    out[..., 2] = valid
    return out


#: The label-mass bin of a surface that is no schema label, and of padding.
_NO_LABEL = len(FULL_SUPPORT)


@functools.lru_cache(maxsize=1 << 16)
def _label_code(surface: str) -> int:
    """The schema label a surface normalizes to, as an int, or _NO_LABEL."""
    label = normalize_outcome_token(surface)
    return _NO_LABEL if label is None else int(label)


def _label_masses(traces: Sequence[ResponseTrace], logprobs: np.ndarray) -> np.ndarray:
    """Each trace's outcome-token mass per schema label, as an (N, 4) array
    in FULL_SUPPORT order: the summed exp(logprob) of the candidates whose
    surface normalizes to that label, added in candidate order. ``logprobs``
    holds the traces' outcome rows, padded on the right with -inf."""
    n, width = logprobs.shape
    codes = [
        [_label_code(s) for s in t.outcome.surfaces[0]] + [_NO_LABEL] * (width - len(t.outcome.surfaces[0]))
        for t in traces
    ]
    bins = np.arange(0, (_NO_LABEL + 1) * n, _NO_LABEL + 1)[:, None] + np.array(codes)
    masses = np.bincount(bins.ravel(), weights=np.exp(logprobs).ravel(), minlength=(_NO_LABEL + 1) * n)
    return masses.reshape(n, _NO_LABEL + 1)[:, :_NO_LABEL]


def _outcome_columns(
    traces: Sequence[ResponseTrace], include: frozenset, k: int
) -> tuple[dict[FeatureFamily, np.ndarray], np.ndarray]:
    """Families A-C for every trace, and the rows whose outcome token has no
    mass on a schema label (all False unless B or C is enabled).

    A renormalizes each outcome row's top-k candidates. B collapses every
    candidate's exp(logprob) onto the label its surface normalizes to,
    summed in candidate order, and renormalizes over the four labels (a
    label without candidates keeps mass 0, so the support stays 4). C
    takes the top-2 raw logprobs and the logs of the top-2 label masses.
    """
    n = len(traces)
    widths = [t.outcome.logprobs.shape[1] for t in traces]
    width = max(widths)
    logprobs = _stack_rows([t.outcome.logprobs for t in traces], width)
    columns: dict[FeatureFamily, np.ndarray] = {}
    dists, supports = [], []
    if FeatureFamily.OUTCOME_TOPK in include:
        dists.append(renormalize_topk(logprobs[:, :k]))
        supports += [min(w, k) for w in widths]

    no_mass = np.zeros(n, dtype=bool)
    if include & {FeatureFamily.FILTERED_OUTCOME, FeatureFamily.LOGODDS_MARGIN}:
        masses = _label_masses(traces, logprobs)
        total = masses.sum(axis=1)
        no_mass = total <= 0.0
        # dividing by a positive total keeps the order, so one sort serves B and C
        ascending = np.sort(masses, axis=1)
        if FeatureFamily.FILTERED_OUTCOME in include:
            dists.append((ascending / np.where(no_mass, 1.0, total)[:, None])[:, ::-1])
            supports += [len(FULL_SUPPORT)] * n
        if FeatureFamily.LOGODDS_MARGIN in include:
            logs = np.log(np.where(ascending > 0.0, ascending, 1.0))
            # column 0 pairs the raw logprobs, column 1 the label masses' logs
            l1, l2, valid = np.empty((n, 2)), np.empty((n, 2)), np.empty((n, 2), dtype=bool)
            l1[:, 0], l2[:, 0], valid[:, 0] = logprobs[:, 0], logprobs[:, min(1, width - 1)], [w >= 2 for w in widths]
            l1[:, 1], l2[:, 1], valid[:, 1] = logs[:, 3], logs[:, 2], ascending[:, 2] > 0.0
            columns[FeatureFamily.LOGODDS_MARGIN] = _pair_margins(l1, l2, valid).reshape(n, -1)

    if dists:
        # A and B share one metrics call: B's rows follow A's, zero padded
        probs = np.zeros((n * len(dists), max(d.shape[1] for d in dists)))
        for j, d in enumerate(dists):
            probs[j * n : (j + 1) * n, : d.shape[1]] = d
        metrics = _distribution_metrics(probs, np.array(supports))
        if FeatureFamily.OUTCOME_TOPK in include:
            columns[FeatureFamily.OUTCOME_TOPK] = metrics[:n]
        if FeatureFamily.FILTERED_OUTCOME in include:
            columns[FeatureFamily.FILTERED_OUTCOME] = metrics[-n:, _FILTERED_METRICS]
    if no_mass.any():
        for family in include & {FeatureFamily.FILTERED_OUTCOME, FeatureFamily.LOGODDS_MARGIN}:
            columns[family][no_mass] = np.nan
    return columns, no_mass


@functools.lru_cache(maxsize=1024)
def _quantile_rule(n: int) -> tuple[np.ndarray, ...]:
    """numpy's linear quantile rule at _QUANTILE_POINTS for n sorted values:
    the lower and upper positions, the weight t of each point (taken against
    the lower position after numpy clips it to -1 at the top), 1 - t, and
    whether t >= 0.5."""
    virtual = (n - 1) * np.array(_QUANTILE_POINTS)
    lower = np.floor(virtual)
    upper = lower + 1
    top = virtual >= n - 1
    lower[top] = upper[top] = -1
    t = virtual - lower
    return lower.astype(np.intp), upper.astype(np.intp), t, 1 - t, t >= 0.5


def _sorted_quantiles(values: np.ndarray) -> np.ndarray:
    """The _QUANTILE_POINTS quantiles of each row of ``values`` (sorted
    along the last axis), interpolated exactly as np.quantile's _lerp:
    a + (b - a)·t, or b - (b - a)·(1 - t) when t >= 0.5."""
    lower, upper, t, one_minus_t, upper_half = _quantile_rule(values.shape[-1])
    a, b = values[..., lower], values[..., upper]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * one_minus_t, out=out, where=upper_half)
    return out


def compute_sequence_features(spans: Sequence[TokenSpan], k: int = DEFAULT_TOP_K) -> np.ndarray:
    """Families D-E for N reasoning spans: an (N, 14) array whose columns
    are D's then E's catalog names.

    NLL sums a span's chosen-token negative logprobs in nats; perplexity is
    exp(NLL/T). Per-token entropies are in bits over each token's
    renormalized top-k candidates, one renormalize_topk call over every
    span's tokens stacked; the quantiles interpolate linearly between
    closest ranks, as np.quantile does. Spans are summed, averaged and
    sorted in groups of equal length, so each span's values are those of
    the span on its own. An empty span yields zeros with perplexity 1,
    flagged absent.
    """
    lengths = [len(s.chosen_logprobs) for s in spans]
    out = np.zeros((len(spans), len(_CATALOG[FeatureFamily.SEQUENCE_COT]) + len(_CATALOG[FeatureFamily.TOKEN_LEVEL_COT])))
    out[:, 1] = 1.0
    groups: dict[int, list[int]] = {}
    for i, length in enumerate(lengths):
        groups.setdefault(length, []).append(i)
    if 0 in groups:
        out[groups.pop(0), 2] = 1.0
    if not groups:
        return out

    present = [s for s in spans if len(s.chosen_logprobs)]
    width = min(k, max(s.logprobs.shape[1] for s in present))
    # one row each of chosen logprobs, entropies and chosen probabilities
    tokens = np.empty((3, sum(lengths)))
    tokens[0] = np.concatenate([s.chosen_logprobs for s in present])
    tokens[1] = _entropy_bits(renormalize_topk(_stack_rows([s.logprobs for s in present], width)))
    tokens[2] = np.exp(tokens[0])
    starts = np.cumsum(lengths) - lengths
    # a mean chosen logprob below about -709 gives inf, which the row's
    # isfinite check reports as NonFiniteFeature
    with np.errstate(over="ignore"):
        for length, rows in groups.items():
            group = tokens[:, starts[rows, None] + np.arange(length)]
            nll = -group[0].sum(axis=1)
            out[rows, 0] = nll
            out[rows, 1] = np.exp(nll / length)
            out[rows, 3] = group[1].sum(axis=1) / length
            quantiles = _sorted_quantiles(np.sort(group[1:], axis=-1))
            out[rows, 4:] = quantiles.transpose(1, 0, 2).reshape(len(rows), -1)
    return out


def _verbalized_columns(traces: Sequence[ResponseTrace]) -> np.ndarray:
    """Family F: self-reported confidence scalar plus one-hot band.

    A missing p_correct is imputed at 0.5 with the missing flag raised; a
    missing band leaves the one-hot all zero.
    """
    out = np.zeros((len(traces), len(_CATALOG[FeatureFamily.VERBALIZED])))
    for i, t in enumerate(traces):
        s = t.structured
        out[i, 0] = s.p_correct / 100.0 if s.p_correct is not None else 0.5
        out[i, 1] = s.p_correct is None
        if s.band is not None:
            out[i, 2 + _BAND_ORDER.index(s.band)] = 1.0
    return out


def _attribution_columns(traces: Sequence[ResponseTrace]) -> np.ndarray:
    """Family G: abstention indicators distinguishing evidence deficits
    (aleatoric, outcome 2) from policy gaps (epistemic, outcome 3), read
    from each trace's effective outcome: the outcome-span token, or the
    structured field when that token is no label."""
    out = np.zeros((len(traces), len(_CATALOG[FeatureFamily.ATTRIBUTION])))
    for i, t in enumerate(traces):
        code = _label_code(t.outcome.chosen[0])
        outcome = t.structured.outcome if code == _NO_LABEL else code
        if outcome == OutcomeLabel.INCONCLUSIVE_EVIDENCE:
            out[i, [0, 2]] = 1.0
        elif outcome == OutcomeLabel.INCONCLUSIVE_DEFINITION:
            out[i, [1, 2]] = 1.0
    return out


def assemble_feature_vector(
    traces: Sequence[ResponseTrace],
    include: Iterable[FeatureFamily] = ALL_FAMILIES,
    k: int = DEFAULT_TOP_K,
) -> tuple[np.ndarray, dict[int, ValueError]]:
    """One float64 feature row per trace, as an (N, F) C-contiguous matrix
    whose columns are catalog_names(include), plus the invalid rows.

    Excluded families are absent from the matrix entirely. Direct-answer
    traces still carry the sequence/token families when enabled, with zero
    stats and the absent flag set. The outcome-span token, not the
    structured field, drives the token-derived families. The second value
    maps the index of each invalid row to its NoLabelMass or, for a row
    holding a nan or infinite value, its NonFiniteFeature naming the first
    bad column; a row with no label mass holds nan in its B and C columns.
    """
    include_set = frozenset(include)
    if not include_set:
        raise ValueError("at least one feature family must be included")

    columns: dict[FeatureFamily, np.ndarray] = {}
    no_mass = np.zeros(len(traces), dtype=bool)
    if include_set & _OUTCOME_FAMILIES:
        outcome_columns, no_mass = _outcome_columns(traces, include_set, k)
        columns.update(outcome_columns)
    if include_set & _REASONING_FAMILIES:
        stats = compute_sequence_features([t.reasoning for t in traces], k=k)
        n_sequence = len(_CATALOG[FeatureFamily.SEQUENCE_COT])
        columns[FeatureFamily.SEQUENCE_COT] = stats[:, :n_sequence]
        columns[FeatureFamily.TOKEN_LEVEL_COT] = stats[:, n_sequence:]
    if FeatureFamily.VERBALIZED in include_set:
        columns[FeatureFamily.VERBALIZED] = _verbalized_columns(traces)
    if FeatureFamily.ATTRIBUTION in include_set:
        columns[FeatureFamily.ATTRIBUTION] = _attribution_columns(traces)

    matrix = np.concatenate([columns[f] for f in ALL_FAMILIES if f in include_set], axis=1)
    invalid: dict[int, ValueError] = {}
    finite = np.isfinite(matrix)
    if not finite.all():
        names = catalog_names(include_set)
        for i in np.flatnonzero(no_mass).tolist():
            invalid[i] = NoLabelMass("no candidate surface maps to a schema label")
        for i in np.flatnonzero(~finite.all(axis=1)).tolist():
            invalid.setdefault(i, NonFiniteFeature(f"non-finite value for {names[int(np.argmin(finite[i]))]}"))
    return matrix, invalid


def catalog_names(include: Iterable[FeatureFamily] = ALL_FAMILIES) -> list[str]:
    """Qualified feature names for the enabled families, in catalog order."""
    return list(_catalog_names(frozenset(include)))


@functools.lru_cache(maxsize=None)
def _catalog_names(include: frozenset) -> tuple[str, ...]:
    return tuple(
        f"{family.value}.{name}"
        for family, names in _CATALOG.items()
        if family in include
        for name in names
    )


def family_of(name: str) -> str:
    """The family value of a qualified feature name: the part before its
    first '.'."""
    return name.split(".", 1)[0]
