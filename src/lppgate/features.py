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

Each family is a column kernel over the whole corpus, and every call
computes every family: assemble_feature_vector builds the (N, F) float64
matrix of all catalog columns, families in the order above, and keeps the
columns catalog_names(include), so a family's bits do not depend on which
others are included. The top-k candidates of all N outcome tokens and of
every reasoning token are stacked into one -inf padded array, and one
renormalize_topk call turns it into sorted probabilities, which families
A and E read. The online path is the same code with N = 1, where that one
call, in place of one per span kind, saves a fixed cost on every item.

A row's bits do not depend on N or on the rest of the corpus as long as no
token has more than 7 top-k candidates (k is 5 by default); from 8, they
may also depend on the width of the other span kind's rows, since both
share the padded block:

  * every exp/log/log2 runs on a C-contiguous array, because numpy may take
    a different code path, with different last bits, on a strided view;
  * sums run over rows of the true length (renormalize_topk's padded rows
    are exact up to 7 entries; spans are grouped by length rather than
    zero-padded, since numpy sums 8 or more terms in blocks);
  * 2^H2 is Python's float power per element; numpy's array power differs
    from it in the last bit for some entropies.

A row with no outcome mass on any schema label (when family B or C is
included) is invalid with NoLabelMass; a row holding a nan or infinite value
is invalid with NonFiniteFeature naming its first bad column. A column name
is "family.feature", and family_of reads the family back from it.
"""

from __future__ import annotations

import enum
import functools
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .schema import (
    ConfidenceBand,
    OutcomeLabel,
    Reason,
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
FULL_SUPPORT = tuple(OutcomeLabel)


class EmptyCandidates(ValueError):
    pass


class NoLabelMass(ValueError):
    """No candidate maps onto any schema label; the row is invalid and the
    item is escalated by default downstream."""

    reason = Reason.NO_LABEL_MASS


class NonFiniteFeature(ValueError):
    """A feature value is nan or infinite (e.g. the perplexity of a span
    whose mean chosen logprob is below about -709); like NoLabelMass, the
    row is invalid and the item is escalated by default downstream."""

    reason = Reason.NON_FINITE_FEATURE


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

_BAND_ORDER = tuple(ConfidenceBand)  # VL, L, M, H, VH

#: Family A's eight distribution metrics; family B's are _FILTERED_METRICS, all but msp.
_DISTRIBUTION_METRICS = (
    "entropy",
    "entropy_norm",
    "effective_choices",
    "confidence",
    "msp",
    "margin",
    "margin_norm",
    "top1_top2_ratio",
)
_FILTERED_METRICS = np.array([j for j, name in enumerate(_DISTRIBUTION_METRICS) if name != "msp"], dtype=np.intp)

#: Short feature names per family, in catalog order. The one source of
#: both catalog_names and the column order of the assembled matrix.
_CATALOG: dict[FeatureFamily, tuple[str, ...]] = {
    FeatureFamily.OUTCOME_TOPK: _DISTRIBUTION_METRICS,
    FeatureFamily.FILTERED_OUTCOME: tuple(_DISTRIBUTION_METRICS[j] for j in _FILTERED_METRICS),
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


#: The smallest positive float, so np.maximum(x, _TINY) is x for every x > 0.
_TINY = 5e-324


def _entropy_bits(probs: np.ndarray) -> np.ndarray:
    """-sum p log2 p along the last axis, zero-probability terms contributing 0.

    A zero term is 0 · log2(_TINY) = -0.0 where log2 of 1 would give +0.0;
    -0.0 adds as nothing, and numpy starts each row's sum from +0.0, so
    every row keeps the bits it has with +0.0 terms."""
    return -(probs * np.log2(np.maximum(probs, _TINY))).sum(axis=-1)


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
    top = np.maximum.reduce(arr, axis=-1, keepdims=True)
    # max propagates nan and +inf, and is -inf only for an all-padding row
    if np.count_nonzero(np.isfinite(top)) < top.size:
        raise ValueError("non-finite logprob")
    # every shifted entry is exp of a value <= 0 and each row's largest is
    # exactly 1, so each row lies in [0, 1] and sums to 1 within rounding
    shifted = np.exp(arr - top)
    shifted /= np.add.reduce(shifted, axis=-1, keepdims=True)
    shifted.sort(axis=-1)
    return shifted[..., ::-1]


def _stack_rows(blocks: Sequence[np.ndarray], width: int) -> np.ndarray:
    """The first ``width`` columns of each 2-D block, stacked into one
    C-contiguous array; blocks narrower than ``width`` are padded with -inf.

    With narrower blocks the whole array is filled with -inf once and every
    row's leading entries are written in one masked assignment: in row-major
    order they are the blocks' own entries, flattened one after another.
    """
    widths = [b.shape[1] for b in blocks]
    if min(widths, default=width) >= width:
        return np.concatenate([b[:, :width] for b in blocks])
    if max(widths) > width:
        blocks = [b[:, :width] for b in blocks]
        widths = [min(w, width) for w in widths]
    out = np.full((sum(len(b) for b in blocks), width), -np.inf)
    lead = np.arange(width) < np.repeat(widths, [len(b) for b in blocks])[:, None]
    out[lead] = np.concatenate([b.ravel() for b in blocks])
    return out


def _widest(spans: Iterable[TokenSpan]) -> int:
    """The most candidates any token of ``spans`` has; 0 for none."""
    return max((s.logprobs.shape[1] for s in spans), default=0)


def _distribution_metrics(probs: np.ndarray, support: ArrayLike) -> np.ndarray:
    """Family A's eight metrics, one row per descending probability row.

    ``probs`` may carry trailing zero padding; ``support`` is each row's
    k, the length of its distribution before padding, which normalizes
    the entropy (a one-candidate row has normalized entropy 0). Each
    metric is computed as one contiguous row of an (8, M) array, whose
    transpose is returned.
    """
    support = np.asarray(support)
    p1 = probs[:, 0]
    p2 = probs[:, 1] if probs.shape[1] > 1 else np.zeros(len(probs))
    met = np.empty((len(_DISTRIBUTION_METRICS), len(probs)))
    met[0] = h2 = _entropy_bits(probs)
    met[1] = np.where(support > 1, h2 / np.log2(np.maximum(support, 2)), 0.0)
    met[2] = [2.0**h for h in h2.tolist()]
    met[3] = 1.0 - met[1]
    met[4] = p1
    met[5] = p1 - p2
    met[6] = met[5] / np.maximum(met[4], EPSILON)
    met[7] = met[4] / np.maximum(p2, EPSILON)
    return met.T


def _pair_margins(l1: np.ndarray, l2: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Family C's margin, margin_norm and valid flag, as three rows, for
    each pair of top-2 log values l1 >= l2: margin = l2 - l1 <= 0, and
    margin_norm divides it by min(l2, -eps). Pairs that are not valid get
    zeros: their l2 is taken to be l1, which is finite, so their margin is
    l1 - l1 = 0."""
    out = np.empty((3, len(l1)))
    l2 = np.where(valid, l2, l1)
    out[0] = margin = l2 - l1
    out[1] = np.where(valid, margin / np.minimum(l2, -EPSILON), 0.0)
    out[2] = valid
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
    bins_per_row = _NO_LABEL + 1
    bins = []
    for i, t in enumerate(traces):
        surfaces, base = t.outcome.surfaces[0], bins_per_row * i
        bins += [base + _label_code(s) for s in surfaces]
        bins += [base + _NO_LABEL] * (width - len(surfaces))
    masses = np.bincount(bins, weights=np.exp(logprobs).ravel(), minlength=bins_per_row * n)
    return masses.reshape(n, bins_per_row)[:, :_NO_LABEL]


#: The column blocks of families A-C in the catalog: A's metrics, B's, C's.
_A_COLUMNS = len(_CATALOG[FeatureFamily.OUTCOME_TOPK])
_B_COLUMNS = len(_CATALOG[FeatureFamily.FILTERED_OUTCOME])
_OUTCOME_COLUMNS = _A_COLUMNS + _B_COLUMNS + len(_CATALOG[FeatureFamily.LOGODDS_MARGIN])


def _outcome_columns(
    traces: Sequence[ResponseTrace],
    k: int,
    widths: list[int],
    logprobs: np.ndarray,
    topk: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Families A-C for every trace, written into ``out`` as one block of
    columns in catalog order; returns the rows whose outcome token has no
    mass on a schema label, which hold nan in their B and C columns.

    ``widths`` holds each trace's count of outcome candidates, ``logprobs``
    the outcome rows, padded on the right with -inf, and ``topk`` their
    renormalized top-k candidates, which may carry trailing zeros. A reads
    ``topk``. B collapses every candidate's exp(logprob) onto the label its
    surface normalizes to, summed in candidate order, and renormalizes over
    the four labels (a label without candidates keeps mass 0, so the
    support stays 4). C takes the top-2 raw logprobs and the logs of the
    top-2 label masses.
    """
    n = len(traces)
    masses = _label_masses(traces, logprobs)
    total = np.add.reduce(masses, axis=1)
    no_mass = total <= 0.0
    # dividing by a positive total keeps the order, so one sort serves B and C
    ascending = np.sort(masses, axis=1)
    # A and B share one metrics call: B's rows follow A's, both zero padded
    # to the wider of the two; a row without mass (all zeros) is divided by
    # _TINY, not 0
    labels = len(FULL_SUPPORT)
    probs = np.zeros((2 * n, max(topk.shape[1], labels)))
    probs[:n, : topk.shape[1]] = topk
    probs[n:, :labels] = ascending[:, ::-1] / np.maximum(total, _TINY)[:, None]
    metrics = _distribution_metrics(probs, [min(w, k) for w in widths] + [labels] * n)
    a, b = _A_COLUMNS, _A_COLUMNS + _B_COLUMNS
    out[:, :a] = metrics[:n]
    out[:, a:b] = metrics[n:, _FILTERED_METRICS]
    # C's pairs: each trace's raw top-2 logprobs, then the logs of its top-2
    # label masses; a mass of 0 takes the finite log of _TINY, which reaches
    # no output: its pair is not valid, or its row is nan
    logs = np.log(np.maximum(ascending[:, :1:-1], _TINY))
    l1, l2, valid = np.empty(2 * n), np.empty(2 * n), np.empty(2 * n, dtype=bool)
    l1[:n], l2[:n], valid[:n] = logprobs[:, 0], logprobs[:, min(1, logprobs.shape[1] - 1)], [w >= 2 for w in widths]
    l1[n:], l2[n:], valid[n:] = logs[:, 0], logs[:, 1], ascending[:, 2] > 0.0
    # (margin, norm, valid) of the raw pair, then of the label pair
    out[:, b:].reshape(n, 2, 3)[...] = _pair_margins(l1, l2, valid).reshape(3, 2, n).transpose(2, 1, 0)
    if np.count_nonzero(no_mass):
        out[no_mass, a:] = np.nan
    return no_mass


@functools.lru_cache(maxsize=1024)
def _quantile_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's linear quantile rule at _QUANTILE_POINTS for n sorted values,
    as the positions to gather (the lower ones, the upper ones, then the
    base of each point) and each point's weight.

    np.quantile's _lerp is a + (b - a)·t, or b - (b - a)·(1 - t) when
    t >= 0.5, with t taken against the lower position after numpy clips it
    to -1 at the top. Both are base + (b - a)·w, with base a and w = t, or
    base b and w = -(1 - t), bit for bit: negating a factor negates the
    product exactly, and subtracting is adding the negation."""
    virtual = (n - 1) * np.array(_QUANTILE_POINTS)
    lower = np.floor(virtual)
    upper = lower + 1
    top = virtual >= n - 1
    lower[top] = upper[top] = -1
    t = virtual - lower
    upper_half = t >= 0.5
    base = np.where(upper_half, upper, lower)
    return np.concatenate([lower, upper, base]).astype(np.intp), np.where(upper_half, -(1 - t), t)


def _sorted_quantiles(values: np.ndarray) -> np.ndarray:
    """The _QUANTILE_POINTS quantiles of each row of ``values`` (sorted
    along the last axis), interpolated exactly as np.quantile's _lerp."""
    positions, weights = _quantile_rule(values.shape[-1])
    points = len(_QUANTILE_POINTS)
    gathered = values[..., positions]
    a, b, base = gathered[..., :points], gathered[..., points : 2 * points], gathered[..., 2 * points :]
    return base + (b - a) * weights


#: Families D and E: their columns in compute_sequence_features' block.
_SEQUENCE_COLUMNS = len(_CATALOG[FeatureFamily.SEQUENCE_COT]) + len(_CATALOG[FeatureFamily.TOKEN_LEVEL_COT])


# a mean chosen logprob below about -709 gives a perplexity of inf, which
# the row's isfinite check reports as NonFiniteFeature
@np.errstate(over="ignore")
def compute_sequence_features(spans: Sequence[TokenSpan], probs: np.ndarray) -> np.ndarray:
    """Families D-E for N reasoning spans: an (N, 14) array whose columns
    are D's then E's catalog names.

    NLL sums a span's chosen-token negative logprobs in nats; perplexity is
    exp(NLL/T). Per-token entropies are in bits over each token's
    renormalized top-k candidates: ``probs``, one row per token of the
    spans in order, as renormalize_topk gives them (trailing zeros
    allowed). The quantiles interpolate linearly between
    closest ranks, as np.quantile does. Spans are summed, averaged and
    sorted in groups of equal length, so each span's values are those of
    the span on its own; a group's 14 values are written as one block,
    through a slice when its spans are consecutive. An empty span yields
    zeros with perplexity 1, flagged absent.
    """
    lengths = [len(s.chosen_logprobs) for s in spans]
    out = np.zeros((len(spans), _SEQUENCE_COLUMNS))
    out[:, 1] = 1.0
    groups: dict[int, list[int]] = {}
    for i, length in enumerate(lengths):
        groups.setdefault(length, []).append(i)
    if 0 in groups:
        out[groups.pop(0), 2] = 1.0
    if not groups:
        return out

    present = [s for s in spans if len(s.chosen_logprobs)]
    # one row each of chosen logprobs, entropies and chosen probabilities
    tokens = np.empty((3, sum(lengths)))
    tokens[0] = np.concatenate([s.chosen_logprobs for s in present])
    tokens[1] = _entropy_bits(probs)
    tokens[2] = np.exp(tokens[0])
    starts = list(accumulate(lengths, initial=0))
    for length, rows in groups.items():
        first, last = rows[0], rows[-1]
        # consecutive spans' tokens are one run, and their rows one slice
        consecutive = last - first == len(rows) - 1
        if consecutive:
            group = tokens[:, starts[first] : starts[last + 1]].reshape(3, len(rows), length)
            block = out[first : last + 1]
        else:
            group = tokens[:, np.add.outer([starts[i] for i in rows], np.arange(length))]
            block = np.zeros((len(rows), _SEQUENCE_COLUMNS))
        block[:, 0] = nll = -group[0].sum(axis=1)
        block[:, 1] = np.exp(nll / length)
        block[:, 3] = group[1].sum(axis=1) / length
        group = group[1:].copy()
        group.sort(axis=-1)
        block[:, 4:].reshape(len(rows), 2, len(_QUANTILE_POINTS))[...] = _sorted_quantiles(group).transpose(1, 0, 2)
        if not consecutive:
            out[rows] = block
    return out


def _verbalized_columns(traces: Sequence[ResponseTrace], out: np.ndarray) -> None:
    """Family F, written into ``out``: self-reported confidence scalar plus
    one-hot band.

    A missing p_correct is imputed at 0.5 with the missing flag raised; a
    missing band leaves the one-hot all zero.
    """
    out[:] = 0.0
    for i, t in enumerate(traces):
        s = t.structured
        out[i, 0] = s.p_correct / 100.0 if s.p_correct is not None else 0.5
        out[i, 1] = s.p_correct is None
        if s.band is not None:
            out[i, 2 + _BAND_ORDER.index(s.band)] = 1.0


def _attribution_columns(traces: Sequence[ResponseTrace], out: np.ndarray) -> None:
    """Family G, written into ``out``: abstention indicators distinguishing
    evidence deficits (aleatoric, outcome 2) from policy gaps (epistemic,
    outcome 3), read from each trace's effective outcome: the outcome-span
    token, or the structured field when that token is no label."""
    out[:] = 0.0
    for i, t in enumerate(traces):
        code = _label_code(t.outcome.chosen[0])
        outcome = t.structured.outcome if code == _NO_LABEL else code
        if outcome == OutcomeLabel.INCONCLUSIVE_EVIDENCE:
            out[i, 0] = out[i, 2] = 1.0
        elif outcome == OutcomeLabel.INCONCLUSIVE_DEFINITION:
            out[i, 1] = out[i, 2] = 1.0


#: Where each family's block starts in the full catalog.
_VERBALIZED_START = _OUTCOME_COLUMNS + _SEQUENCE_COLUMNS
_ATTRIBUTION_START = _VERBALIZED_START + len(_CATALOG[FeatureFamily.VERBALIZED])


def assemble_feature_vector(
    traces: Sequence[ResponseTrace],
    include: Iterable[FeatureFamily] = ALL_FAMILIES,
    k: int = DEFAULT_TOP_K,
) -> tuple[np.ndarray, dict[int, ValueError]]:
    """One float64 feature row per trace, as an (N, F) C-contiguous matrix
    whose columns are catalog_names(include), plus the invalid rows.

    Every family is computed, each kernel writing its block of the full
    matrix, then the included families' columns are kept. Direct-answer
    traces carry zero sequence/token stats with the absent flag set. The
    outcome-span token, not the structured field, drives the token-derived
    families. The second value maps the index of each invalid row to its
    NoLabelMass (when B or C, which then hold nan, is included) or, for a
    row holding a nan or infinite kept value, its NonFiniteFeature naming
    the first bad column.
    """
    include_set = frozenset(include)
    if not include_set:
        raise ValueError("at least one feature family must be included")

    n = len(traces)
    widths = [t.outcome.logprobs.shape[1] for t in traces]
    logprobs = _stack_rows([t.outcome.logprobs for t in traces], max(widths))
    spans = [t.reasoning for t in traces]
    present = [s for s in spans if len(s.chosen_logprobs)]
    # the outcome rows' and every reasoning token's top k, renormalized in
    # one call; a row padded up to 7 entries keeps its bits
    width = min(k, max(logprobs.shape[1], _widest(present)))
    probs = renormalize_topk(_stack_rows([logprobs, *(s.logprobs for s in present)], width))
    matrix = np.empty((n, _ATTRIBUTION_START + len(_CATALOG[FeatureFamily.ATTRIBUTION])))
    no_mass = _outcome_columns(traces, k, widths, logprobs, probs[:n], matrix[:, :_OUTCOME_COLUMNS])
    matrix[:, _OUTCOME_COLUMNS:_VERBALIZED_START] = compute_sequence_features(spans, probs[n:])
    _verbalized_columns(traces, matrix[:, _VERBALIZED_START:_ATTRIBUTION_START])
    _attribution_columns(traces, matrix[:, _ATTRIBUTION_START:])
    kept = _kept_columns(include_set)
    if kept is not None:
        matrix = matrix.take(kept, axis=1)
    invalid: dict[int, ValueError] = {}
    finite = np.isfinite(matrix)
    if np.count_nonzero(finite) < finite.size:
        names = catalog_names(include_set)
        if FeatureFamily.FILTERED_OUTCOME in include_set or FeatureFamily.LOGODDS_MARGIN in include_set:
            for i in np.flatnonzero(no_mass).tolist():
                invalid[i] = NoLabelMass("no candidate surface maps to a schema label")
        for i in np.flatnonzero(~finite.all(axis=1)).tolist():
            invalid.setdefault(i, NonFiniteFeature(f"non-finite value for {names[int(np.argmin(finite[i]))]}"))
    return matrix, invalid


@functools.lru_cache(maxsize=None)
def _kept_columns(include: frozenset) -> np.ndarray | None:
    """The included families' column positions in the full catalog, or None
    when they are all of its columns."""
    names = _catalog_names(frozenset(ALL_FAMILIES))
    kept = [names.index(name) for name in _catalog_names(include)]
    return None if len(kept) == len(names) else np.array(kept, dtype=np.intp)


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
