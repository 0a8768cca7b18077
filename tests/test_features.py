import itertools
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppgate import features
from lppgate.features import (
    _CATALOG,
    ALL_FAMILIES,
    DEFAULT_TOP_K,
    FULL_SUPPORT,
    FeatureFamily,
    NoLabelMass,
    NonFiniteFeature,
    assemble_feature_vector,
    catalog_names,
    compute_sequence_features,
    family_of,
    renormalize_topk,
    EmptyCandidates,
)
from lppgate.pipeline import extract_table
from lppgate.schema import (
    ConfidenceBand,
    OutcomeLabel,
    ResponseTrace,
    StructuredResponse,
    TokenSpan,
    token_span,
)
from lppgate.synth import SynthConfig, generate_corpus
from tests import feature_reference
from tests.conftest import make_outcome_span, make_trace
from tests.feature_reference import LabelDistribution, SequenceStats
from tests.token_reference import record

DYADIC = (0.5, 0.25, 0.125, 0.0625, 0.0625)


# Each family's tests read the corpus kernels through one trace (or one
# distribution row) and name the values by their catalog names.


def _row(trace, include=ALL_FAMILIES, k=DEFAULT_TOP_K):
    """The feature row of one trace; its invalid marker is raised."""
    matrix, invalid = assemble_feature_vector([trace], include, k)
    if invalid:
        raise invalid[0]
    return matrix[0]


def _family(trace, family):
    """One family's values for one trace, by short name."""
    return dict(zip(_CATALOG[family], _row(trace, include=[family]).tolist()))


def _outcome_trace(candidates):
    """A trace whose outcome token has these (surface, logprob) candidates."""
    trace = make_trace()
    trace.outcome = make_outcome_span(dict(candidates))
    return trace


def compute_topk_features(probs):
    """Family A's metrics of one descending probability row, k its length."""
    metrics = features._distribution_metrics(np.asarray(probs, dtype=float)[None, :], np.array([len(probs)]))
    return dict(zip(_CATALOG[FeatureFamily.OUTCOME_TOPK], metrics[0].tolist()))


def collapse_to_labels(candidates):
    """The outcome mass of the candidates per label, from the label-mass
    kernel, and renormalized; NoLabelMass is the row's invalid marker."""
    trace = _outcome_trace(candidates)
    _row(trace, include=[FeatureFamily.FILTERED_OUTCOME])
    masses = features._label_masses([trace], trace.outcome.logprobs)[0].tolist()
    total = sum(masses)
    return LabelDistribution(
        {label: m / total for label, m in zip(FULL_SUPPORT, masses)}, dict(zip(FULL_SUPPORT, masses))
    )


def compute_filtered_features(ldist):
    """Family B's metrics of a label distribution: family A's kernel over
    the sorted label probabilities with support 4, without msp."""
    probs = np.sort([ldist.probs[label] for label in FULL_SUPPORT])[::-1]
    metrics = features._distribution_metrics(probs[None, :], np.array([len(FULL_SUPPORT)]))
    return dict(zip(_CATALOG[FeatureFamily.FILTERED_OUTCOME], metrics[0, features._FILTERED_METRICS].tolist()))


def compute_logodds_features(candidates, ldist):
    """Family C of a trace whose outcome token has these candidates; the
    kernel collapses them onto the labels itself, so ldist goes unread."""
    return _family(_outcome_trace(candidates), FeatureFamily.LOGODDS_MARGIN)


def _stats(span, k=DEFAULT_TOP_K):
    """The sequence/token columns of one span as SequenceStats, its top k
    renormalized as feature_reference.compute_sequence_features does."""
    probs = renormalize_topk(span.logprobs[:, :k]) if len(span.chosen) else None
    row = compute_sequence_features([span], probs)[0].tolist()
    return SequenceStats(row[0], row[1], row[3], tuple(row[4:9]), tuple(row[9:14]), absent=bool(row[2]))


def compute_verbalized_features(s):
    """Family F of a trace with this structured response."""
    return _family(make_trace(outcome=s.outcome, p_correct=s.p_correct, band=s.band), FeatureFamily.VERBALIZED)


def compute_attribution_features(outcome):
    """Family G of a trace whose outcome token is this label."""
    return _family(make_trace(outcome=outcome), FeatureFamily.ATTRIBUTION)


def _renormalize_topk_reference(logprobs):
    """renormalize_topk's softmax before it took padded rows."""
    arr = np.asarray(logprobs, dtype=float)
    shifted = np.exp(arr - arr.max())
    return np.sort(shifted / shifted.sum())[::-1]


# ties, exp underflow (-800) and a log(1) candidate come up often
_LOGPROBS = st.one_of(
    st.floats(min_value=-30, max_value=0), st.sampled_from((0.0, -0.7, -800.0))
)


class TestRenormalizeTopk:
    def test_equal_logprobs_uniform(self):
        probs = renormalize_topk([-3.2] * 5)
        assert probs == pytest.approx([0.2] * 5, abs=1e-12)

    def test_already_normalized_dyadic(self):
        probs = renormalize_topk([math.log(p) for p in DYADIC])
        assert probs == pytest.approx(DYADIC, abs=1e-12)

    def test_near_delta(self):
        probs = renormalize_topk([0.0, -50.0, -50.0, -50.0, -50.0])
        assert probs[0] == pytest.approx(1.0, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(EmptyCandidates):
            renormalize_topk([])
        with pytest.raises(EmptyCandidates):
            renormalize_topk(np.zeros((3, 0)))

    @given(
        st.lists(st.floats(min_value=-30, max_value=0), min_size=1, max_size=20),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_invariance(self, logprobs, c):
        base = renormalize_topk(logprobs)
        shifted = renormalize_topk([lp + c for lp in logprobs])
        assert np.allclose(base, shifted, atol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_LOGPROBS, min_size=1, max_size=7), min_size=1, max_size=10))
    def test_padded_rows_equal_row_calls(self, rows):
        width = max(map(len, rows))
        padded = np.array([r + [-np.inf] * (width - len(r)) for r in rows])
        got = renormalize_topk(padded)
        assert got.shape == padded.shape
        for row, probs in zip(rows, got):
            want = renormalize_topk(row)
            assert probs[: len(row)].tobytes() == want.tobytes()
            assert probs[len(row):].tobytes() == np.zeros(width - len(row)).tobytes()
            assert want.tobytes() == _renormalize_topk_reference(row).tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("two_d", [False, True], ids=["row", "padded"])
    def test_nan_and_positive_infinity_raise(self, bad, two_d):
        logprobs = np.array([[-0.5, bad, -np.inf], [-0.1, -0.2, -0.3]])
        with pytest.raises(ValueError, match="non-finite logprob"):
            renormalize_topk(logprobs if two_d else logprobs[0, :2])

    def test_all_padding_row_raises(self):
        with pytest.raises(ValueError, match="non-finite logprob"):
            renormalize_topk(np.array([[-0.1, -0.2], [-np.inf, -np.inf]]))


class TestTopkFeatures:
    def test_uniform_five(self):
        f = compute_topk_features(np.array((0.2,) * 5))
        assert f["entropy"] == pytest.approx(math.log2(5), abs=1e-12)
        assert f["entropy_norm"] == pytest.approx(1.0, abs=1e-12)
        assert f["effective_choices"] == pytest.approx(5.0, abs=1e-9)
        assert f["msp"] == 0.2
        assert f["margin"] == 0.0
        assert f["top1_top2_ratio"] == pytest.approx(1.0)

    def test_dyadic_exact(self):
        f = compute_topk_features(np.array(DYADIC))
        assert f["entropy"] == 1.875
        assert f["effective_choices"] == 2.0**1.875
        assert f["msp"] == 0.5
        assert f["margin"] == 0.25
        assert f["margin_norm"] == pytest.approx(0.5)
        assert f["top1_top2_ratio"] == pytest.approx(2.0)

    def test_delta(self):
        f = compute_topk_features(np.array((1.0, 0.0, 0.0, 0.0, 0.0)))
        assert f["entropy"] == 0.0
        assert f["effective_choices"] == 1.0
        assert f["confidence"] == 1.0
        assert f["msp"] == 1.0
        assert f["margin"] == 1.0

    def test_single_candidate_entropy_norm_defined(self):
        f = compute_topk_features(np.array((1.0,)))
        assert f["entropy_norm"] == 0.0
        assert f["confidence"] == 1.0

    @given(st.lists(st.floats(min_value=-20, max_value=0), min_size=2, max_size=5))
    def test_bounds(self, logprobs):
        f = compute_topk_features(renormalize_topk(logprobs))
        k = len(logprobs)
        assert -1e-12 <= f["entropy"] <= math.log2(k) + 1e-9
        assert 1.0 - 1e-9 <= f["effective_choices"] <= k + 1e-9
        assert 1.0 / k - 1e-9 <= f["msp"] <= 1.0 + 1e-12
        assert -1e-12 <= f["margin"] <= 1.0
        assert -1e-12 <= f["margin_norm"] <= 1.0 + 1e-12
        assert f["top1_top2_ratio"] >= 1.0 - 1e-9

    @given(st.lists(st.floats(min_value=-20, max_value=0), min_size=1, max_size=5))
    def test_consistency_identities(self, logprobs):
        f = compute_topk_features(renormalize_topk(logprobs))
        assert f["confidence"] == 1.0 - f["entropy_norm"]
        assert f["effective_choices"] == 2.0 ** f["entropy"]


COLLAPSE_EXAMPLE = {
    "0": math.log(0.4),
    " 0": math.log(0.2),
    "1": math.log(0.3),
    "2": math.log(0.05),
    "x": math.log(0.05),
}


def _candidates(mapping):
    return list(mapping.items())


class TestCollapseToLabels:
    def test_hand_summed_masses(self):
        ldist = collapse_to_labels(_candidates(COLLAPSE_EXAMPLE))
        assert ldist.probs[OutcomeLabel.NO] == pytest.approx(12 / 19, abs=1e-12)
        assert ldist.probs[OutcomeLabel.YES] == pytest.approx(6 / 19, abs=1e-12)
        assert ldist.probs[OutcomeLabel.INCONCLUSIVE_EVIDENCE] == pytest.approx(1 / 19, abs=1e-12)
        assert ldist.probs[OutcomeLabel.INCONCLUSIVE_DEFINITION] == 0.0
        # the raw masses, before renormalization, stay on the distribution
        assert ldist.masses[OutcomeLabel.NO] == pytest.approx(0.6, abs=1e-12)
        assert ldist.masses[OutcomeLabel.YES] == pytest.approx(0.3, abs=1e-12)
        assert ldist.masses[OutcomeLabel.INCONCLUSIVE_DEFINITION] == 0.0

    def test_already_normalized(self):
        ldist = collapse_to_labels(_candidates({"0": math.log(0.5), "1": math.log(0.5)}))
        assert ldist.probs[OutcomeLabel.NO] == pytest.approx(0.5)
        assert ldist.probs[OutcomeLabel.YES] == pytest.approx(0.5)
        assert ldist.probs[OutcomeLabel.INCONCLUSIVE_EVIDENCE] == 0.0

    def test_no_label_mass(self):
        with pytest.raises(NoLabelMass):
            collapse_to_labels(_candidates({"foo": 0.0}))

    def test_word_forms_count(self):
        ldist = collapse_to_labels(_candidates({"yes": math.log(0.6), "NO": math.log(0.4)}))
        assert ldist.probs[OutcomeLabel.YES] == pytest.approx(0.6)

    @given(st.integers(min_value=1, max_value=99))
    def test_surface_split_invariance(self, percent):
        frac = percent / 100.0
        base = {"0": math.log(0.6), "1": math.log(0.3), "2": math.log(0.1)}
        split = {
            "0": math.log(0.6 * frac),
            ' "0"': math.log(0.6 * (1 - frac)),
            "1": math.log(0.3),
            "2": math.log(0.1),
        }
        a = collapse_to_labels(_candidates(base))
        b = collapse_to_labels(_candidates(split))
        for label in FULL_SUPPORT:
            assert a.probs[label] == pytest.approx(b.probs[label], abs=1e-9)
        fa = compute_filtered_features(a)
        fb = compute_filtered_features(b)
        for name in fa:
            assert fa[name] == pytest.approx(fb[name], abs=1e-9)


class TestFilteredFeatures:
    def test_collapse_example_metrics(self):
        ldist = collapse_to_labels(_candidates(COLLAPSE_EXAMPLE))
        f = compute_filtered_features(ldist)
        assert set(f) == {
            "entropy",
            "entropy_norm",
            "effective_choices",
            "confidence",
            "margin",
            "margin_norm",
            "top1_top2_ratio",
        }
        assert f["margin"] == pytest.approx(6 / 19, abs=1e-12)
        assert f["top1_top2_ratio"] == pytest.approx(2.0, abs=1e-9)

    def test_uniform_four_labels(self):
        probs = {label: 0.25 for label in OutcomeLabel}
        ldist = LabelDistribution(probs, probs)
        f = compute_filtered_features(ldist)
        assert f["entropy"] == pytest.approx(2.0, abs=1e-12)
        assert f["entropy_norm"] == pytest.approx(1.0, abs=1e-12)
        assert f["effective_choices"] == pytest.approx(4.0, abs=1e-9)

    def test_delta_distribution(self):
        probs = {label: 0.0 for label in OutcomeLabel}
        probs[OutcomeLabel.YES] = 1.0
        f = compute_filtered_features(LabelDistribution(probs, probs))
        assert f["entropy"] == 0.0
        assert f["confidence"] == 1.0


class TestLogOddsFeatures:
    def test_hand_arithmetic(self):
        cands = [("1", -0.1), ("0", -2.1)]
        ldist = collapse_to_labels(cands)
        f = compute_logodds_features(cands, ldist)
        assert f["margin"] == pytest.approx(-2.0, abs=1e-12)
        assert f["margin_norm"] == pytest.approx(-2.0 / -2.1, abs=1e-6)
        assert f["margin_valid"] == 1.0

    def test_tie(self):
        cands = [("1", -0.7), ("0", -0.7)]
        f = compute_logodds_features(cands, collapse_to_labels(cands))
        assert f["margin"] == 0.0
        assert f["margin_norm"] == pytest.approx(0.0)

    def test_single_candidate_flagged_invalid(self):
        cands = [("1", -0.05)]
        f = compute_logodds_features(cands, collapse_to_labels(cands))
        assert f["margin"] == 0.0
        assert f["margin_norm"] == 0.0
        assert f["margin_valid"] == 0.0
        assert f["filtered_margin_valid"] == 0.0

    def test_filtered_uses_pre_normalization_masses(self):
        # one label split across two surfaces: filtered margin uses summed mass
        cands = [("0", math.log(0.3)), (" 0", math.log(0.3)), ("1", math.log(0.3))]
        f = compute_logodds_features(cands, collapse_to_labels(cands))
        assert f["filtered_margin"] == pytest.approx(math.log(0.3) - math.log(0.6), abs=1e-12)
        assert f["filtered_margin_norm"] == pytest.approx((math.log(0.3) - math.log(0.6)) / math.log(0.3), abs=1e-12)
        assert f["filtered_margin_valid"] == 1.0


def _reasoning_token(p_chosen, n_candidates=1):
    # n_candidates equally likely alternatives fix the per-token entropy at
    # log2(n_candidates); the chosen surface matches a candidate so nothing
    # extra is appended
    cands = [(f" c{j}", math.log(1.0 / n_candidates)) for j in range(n_candidates)]
    return " c0", math.log(p_chosen), cands


def _span(*tokens):
    return token_span(tokens)


def _sequence_features_reference(reasoning, k=DEFAULT_TOP_K):
    """The per-record path compute_sequence_features replaced: one softmax
    and masked entropy per reasoning record, one np.quantile per summary."""
    if len(reasoning) == 0:
        zeros = (0.0,) * 5
        return SequenceStats(0.0, 1.0, 0.0, zeros, zeros, absent=True)
    chosen_lp = np.array([r.chosen.logprob for r in reasoning], dtype=float)
    nll = float(-chosen_lp.sum())
    ppl = float(np.exp(nll / len(reasoning)))
    entropies = []
    for r in reasoning:
        p = _renormalize_topk_reference([c.logprob for c in r.candidates[:k]])
        p = p[p > 0.0]
        entropies.append(float(-(p * np.log2(p)).sum()))
    entropies = np.array(entropies)
    points = (0.0, 0.25, 0.5, 0.75, 1.0)
    ent_q = tuple(float(v) for v in np.quantile(entropies, points))
    prob_q = tuple(float(v) for v in np.quantile(np.exp(chosen_lp), points))
    return SequenceStats(nll, ppl, float(entropies.mean()), ent_q, prob_q)


@st.composite
def _reasoning_tokens(draw, max_candidates):
    tokens = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        n = draw(st.integers(min_value=1, max_value=max_candidates))
        cands = [(f" c{j}", draw(_LOGPROBS)) for j in range(n)]
        if draw(st.booleans()):
            # a chosen token missing from its candidates is appended to them
            chosen = (" missing", draw(_LOGPROBS))
        else:
            chosen = cands[draw(st.integers(min_value=0, max_value=n - 1))]
        tokens.append((*chosen, cands))
    return tokens


def _span_records(span):
    """A span's tokens as the reference records they stand for."""
    return [record(c, lp, zip(srf, row)) for c, lp, srf, row in zip(span.chosen, span.chosen_logprobs, span.surfaces, span.logprobs)]


class TestSequenceFeaturesVectorised:
    # a span whose chosen tokens all sit near -800 has perplexity inf on both paths
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(_reasoning_tokens(max_candidates=8))
    def test_equals_per_record_reference(self, tokens):
        records = [record(*t) for t in tokens]
        assert _stats(token_span(tokens), k=5) == _sequence_features_reference(records, k=5)

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(_reasoning_tokens(max_candidates=16))
    def test_wide_rows_match_reference(self, tokens):
        # numpy sums 8+ entries in blocks, where padding regroups the terms
        records = [record(*t) for t in tokens]
        got = _stats(token_span(tokens), k=12)
        want = _sequence_features_reference(records, k=12)
        assert (got.nll, got.perplexity, got.prob_quantiles) == (want.nll, want.perplexity, want.prob_quantiles)
        assert got.mean_token_entropy_bits == pytest.approx(want.mean_token_entropy_bits, rel=1e-12, abs=1e-15)
        assert got.entropy_quantiles == pytest.approx(want.entropy_quantiles, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_logprob_raises(self, bad):
        token = (" c0", math.log(0.5), [(" c0", -0.7), (" c1", bad), (" c2", -1.1)])
        with pytest.raises(ValueError, match="non-finite logprob"):
            _span(_reasoning_token(0.5, n_candidates=4), token)
        if bad == float("-inf"):
            return  # in a span's arrays -inf is padding
        span = _span(_reasoning_token(0.5, n_candidates=4), _reasoning_token(0.5, n_candidates=3))
        logprobs = span.logprobs.copy()
        logprobs[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite logprob"):
            _stats(TokenSpan(span.chosen, span.chosen_logprobs, span.surfaces, logprobs))

    def test_empty_candidate_list_raises(self):
        # a token without candidates keeps its chosen one; k=0 leaves none
        span = _span(_reasoning_token(0.5), (" c0", math.log(0.5), []))
        assert span.surfaces[1] == (" c0",)
        with pytest.raises(EmptyCandidates):
            _stats(span, k=0)

    def test_extract_table_matches_reference_rows(self, monkeypatch):
        traces, _ = generate_corpus(SynthConfig(n_items=300, cot=True, seed=42))
        assert all(len(t.reasoning.chosen) for t in traces)
        table = extract_table(traces)
        by_id = {t.item_id: t for t in traces}

        def reference(spans, probs):
            # probs, the rows assemble_feature_vector renormalized for the
            # outcome and reasoning tokens together, goes unused: the
            # reference renormalizes each record on its own
            rows = [_sequence_features_reference(_span_records(span)) for span in spans]
            return np.array(
                [(s.nll, s.perplexity, float(s.absent), s.mean_token_entropy_bits, *s.entropy_quantiles, *s.prob_quantiles) for s in rows]
            )

        monkeypatch.setattr(features, "compute_sequence_features", reference)
        expected, _ = assemble_feature_vector([by_id[i] for i in table.item_ids])
        assert table.matrix.tobytes() == expected.tobytes()


class TestSequenceFeatures:
    def test_uniform_halves(self):
        stats = _stats(_span(*[_reasoning_token(0.5)] * 4))
        assert stats.nll == pytest.approx(4 * math.log(2), abs=1e-12)
        assert stats.perplexity == pytest.approx(2.0, abs=1e-12)
        assert not stats.absent

    def test_entropy_quantiles_exact_ranks(self):
        # entropies 0, 1, 2 from 1, 2, 4 equally likely candidates
        span = _span(
            _reasoning_token(0.5, n_candidates=1),
            _reasoning_token(0.5, n_candidates=2),
            _reasoning_token(0.5, n_candidates=4),
        )
        stats = _stats(span)
        assert stats.entropy_quantiles == pytest.approx((0.0, 0.5, 1.0, 1.5, 2.0), abs=1e-9)
        assert stats.mean_token_entropy_bits == pytest.approx(1.0, abs=1e-9)

    def test_interpolated_quantile(self):
        span = _span(_reasoning_token(0.5, n_candidates=1), _reasoning_token(0.5, n_candidates=2))
        stats = _stats(span)
        assert stats.entropy_quantiles[1] == pytest.approx(0.25, abs=1e-12)

    def test_prob_quantiles_exact(self):
        stats = _stats(_span(*[_reasoning_token(p) for p in (0.1, 0.2, 0.3, 0.4, 0.5)]))
        assert stats.prob_quantiles == pytest.approx((0.1, 0.2, 0.3, 0.4, 0.5), abs=1e-9)

    def test_empty_span(self):
        stats = _stats(token_span([]))
        assert stats == SequenceStats(0.0, 1.0, 0.0, (0.0,) * 5, (0.0,) * 5, absent=True)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=30))
    def test_perplexity_at_least_one(self, probs):
        stats = _stats(_span(*[_reasoning_token(p) for p in probs]))
        assert stats.perplexity >= 1.0 - 1e-12
        assert stats.nll >= -1e-12


class TestVerbalizedFeatures:
    def test_direct_mapping(self):
        s = StructuredResponse(OutcomeLabel.YES, (), 85, ConfidenceBand.H)
        f = compute_verbalized_features(s)
        assert f["confidence"] == 0.85
        assert f["confidence_missing"] == 0.0
        assert [f[f"band_{b}"] for b in ("vl", "l", "m", "h", "vh")] == [0, 0, 0, 1, 0]

    def test_band_absent_all_zero(self):
        s = StructuredResponse(OutcomeLabel.YES, (), 85, None)
        f = compute_verbalized_features(s)
        assert all(f[f"band_{b}"] == 0.0 for b in ("vl", "l", "m", "h", "vh"))

    def test_missing_p_correct_imputed(self):
        s = StructuredResponse(OutcomeLabel.YES, (), None, ConfidenceBand.M)
        f = compute_verbalized_features(s)
        assert f["confidence"] == 0.5
        assert f["confidence_missing"] == 1.0


class TestAttributionFeatures:
    @pytest.mark.parametrize(
        "outcome,expected",
        [
            (OutcomeLabel.YES, (0, 0, 0)),
            (OutcomeLabel.NO, (0, 0, 0)),
            (OutcomeLabel.INCONCLUSIVE_EVIDENCE, (1, 0, 1)),
            (OutcomeLabel.INCONCLUSIVE_DEFINITION, (0, 1, 1)),
        ],
    )
    def test_indicators(self, outcome, expected):
        f = compute_attribution_features(outcome)
        assert (f["evidence_deficit"], f["policy_gap"], f["inconclusive"]) == expected


@dataclass(frozen=True)
class _FeatureEntry:
    name: str
    family: FeatureFamily
    value: float

    @property
    def qualified_name(self) -> str:
        return f"{self.family.value}.{self.name}"


@dataclass(frozen=True)
class _FeatureVector:
    entries: tuple[_FeatureEntry, ...]

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


def _assemble_feature_vector_reference(trace, include=ALL_FAMILIES, k=DEFAULT_TOP_K):
    """The per-trace path the corpus kernels replaced: one dict per family
    from the reference functions, one _FeatureEntry per feature, checked
    one by one."""
    include_set = set(include)
    if not include_set:
        raise ValueError("at least one feature family must be included")

    outcome = trace.outcome
    candidates = list(zip(outcome.surfaces[0], outcome.logprobs[0].tolist()))
    entries = []

    def extend(family: FeatureFamily, metrics: Mapping[str, float]) -> None:
        entries.extend(_FeatureEntry(name, family, float(metrics[name])) for name in _CATALOG[family])

    ldist = None
    if FeatureFamily.FILTERED_OUTCOME in include_set or FeatureFamily.LOGODDS_MARGIN in include_set:
        ldist = feature_reference.collapse_to_labels(candidates)

    if FeatureFamily.OUTCOME_TOPK in include_set:
        extend(FeatureFamily.OUTCOME_TOPK, feature_reference.compute_topk_features(renormalize_topk(outcome.logprobs[0, :k])))
    if FeatureFamily.FILTERED_OUTCOME in include_set:
        extend(FeatureFamily.FILTERED_OUTCOME, feature_reference.compute_filtered_features(ldist))
    if FeatureFamily.LOGODDS_MARGIN in include_set:
        extend(FeatureFamily.LOGODDS_MARGIN, feature_reference.compute_logodds_features(candidates, ldist))

    if include_set & {FeatureFamily.SEQUENCE_COT, FeatureFamily.TOKEN_LEVEL_COT}:
        stats = feature_reference.compute_sequence_features(trace.reasoning, k=k)
        if FeatureFamily.SEQUENCE_COT in include_set:
            values = (stats.nll, stats.perplexity, 1.0 if stats.absent else 0.0)
            extend(FeatureFamily.SEQUENCE_COT, dict(zip(_CATALOG[FeatureFamily.SEQUENCE_COT], values)))
        if FeatureFamily.TOKEN_LEVEL_COT in include_set:
            values = (stats.mean_token_entropy_bits, *stats.entropy_quantiles, *stats.prob_quantiles)
            extend(FeatureFamily.TOKEN_LEVEL_COT, dict(zip(_CATALOG[FeatureFamily.TOKEN_LEVEL_COT], values)))

    if FeatureFamily.VERBALIZED in include_set:
        extend(FeatureFamily.VERBALIZED, feature_reference.compute_verbalized_features(trace.structured))
    if FeatureFamily.ATTRIBUTION in include_set:
        extend(FeatureFamily.ATTRIBUTION, feature_reference.compute_attribution_features(feature_reference.effective_outcome(trace)))

    return _FeatureVector(tuple(entries))


class TestAssembleFeatureVector:
    def test_direct_trace_all_families(self):
        row = _row(make_trace())
        names = catalog_names()
        assert row.shape == (45,) and row.dtype == np.float64
        assert len(names) == 45
        m = dict(zip(names, row))
        assert m["sequence.absent"] == 1.0
        assert m["sequence.ppl"] == 1.0

    def test_catalog_names_are_unique(self):
        assert len(set(catalog_names())) == len(catalog_names())

    def test_single_family_cardinality(self):
        include = {FeatureFamily.OUTCOME_TOPK}
        row = _row(make_trace(), include=include)
        assert row.shape == (8,)
        assert len(catalog_names(include)) == 8

    def test_exclusion_removes_names(self):
        include = [f for f in ALL_FAMILIES if f is not FeatureFamily.ATTRIBUTION]
        row = _row(make_trace(), include=include)
        assert not any(n.startswith("attribution.") for n in catalog_names(include))
        assert row.shape == (42,)
        assert len(catalog_names(include)) == 42

    def test_empty_include_rejected(self):
        with pytest.raises(ValueError):
            _row(make_trace(), include=())

    def test_overflowing_perplexity_is_a_non_finite_feature(self):
        trace = make_trace(reasoning_logprobs=(-800.0,) * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteFeature, match="sequence.ppl"):
                _row(trace)

    def test_no_label_mass_propagates(self):
        trace = make_trace(outcome_probs={"1": 0.6, "junk": 0.4})
        trace.outcome = make_outcome_span({"junk": math.log(1.0)})
        with pytest.raises(NoLabelMass):
            _row(trace)

    def test_deterministic(self):
        a = _row(make_trace(reasoning_logprobs=(-0.4, -0.9)))
        b = _row(make_trace(reasoning_logprobs=(-0.4, -0.9)))
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("reasoning", [(), (-0.4, -0.9)], ids=["direct", "cot"])
    def test_names_match_catalog_for_every_subset(self, reasoning):
        # the row, read under catalog_names, is the per-entry reference
        trace = make_trace(reasoning_logprobs=reasoning)
        for size in range(1, len(ALL_FAMILIES) + 1):
            for include in itertools.combinations(ALL_FAMILIES, size):
                row = _row(trace, include=include)
                reference = _assemble_feature_vector_reference(trace, include=include)
                assert dict(zip(catalog_names(include), row)) == reference.as_mapping()
                assert reference.qualified_names() == catalog_names(include)
                assert row.tobytes() == reference.values().tobytes()

    @pytest.mark.parametrize("cot", [False, True], ids=["direct", "cot"])
    def test_extract_table_matches_entry_reference(self, cot):
        traces, _ = generate_corpus(SynthConfig(n_items=200, cot=cot, seed=7))
        table = extract_table(traces)
        references = [_assemble_feature_vector_reference(t) for t in sorted(traces, key=lambda t: t.item_id)]
        assert table.names == references[0].qualified_names()
        assert {name: family_of(name) for name in table.names} == references[0].families()
        assert table.matrix.tobytes() == np.stack([r.values() for r in references]).tobytes()

    def test_token_outcome_wins_for_attribution(self):
        # structured says YES but the emitted token is the abstention "2"
        trace = make_trace(
            outcome=OutcomeLabel.YES,
            outcome_probs={"2": 0.9, "1": 0.1},
        )
        trace.outcome = make_outcome_span({"2": 0.9, "1": 0.1}, chosen_surface="2")
        include = {FeatureFamily.ATTRIBUTION}
        row = _row(trace, include=include)
        assert dict(zip(catalog_names(include), row))["attribution.evidence_deficit"] == 1.0


_SURFACES = ("0", "1", "2", "3", " 0", ' "1"', "yes", "NO", "inconclusive_evidence", " the", "foo", "xx")
_JUNK = (" the", "foo", "xx")
# few distinct values, so entropies and probabilities tie often
_TIED_LOGPROBS = st.sampled_from((0.0, -0.25, -0.7, -0.7, -1.5, -3.0, -800.0))


@st.composite
def _corpus_traces(draw, max_candidates):
    """Direct and CoT traces mixed: outcome rows of 1..7 candidates, some
    with no label mass; reasoning spans of 1..60 tokens with tied entropies,
    some whose mean chosen logprob overflows the perplexity."""
    traces = []
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        surfaces = _JUNK if draw(st.booleans()) and draw(st.booleans()) else _SURFACES
        width = draw(st.integers(min_value=1, max_value=7))
        candidates = [(draw(st.sampled_from(surfaces)), draw(_LOGPROBS)) for _ in range(width)]
        outcome = token_span([(*candidates[draw(st.integers(min_value=0, max_value=width - 1))], candidates)])
        tokens = []
        if draw(st.booleans()):
            overflow = draw(st.integers(min_value=0, max_value=4)) == 0
            for _ in range(draw(st.integers(min_value=1, max_value=60))):
                n = draw(st.integers(min_value=1, max_value=max_candidates))
                cands = [(f" c{j}", draw(_TIED_LOGPROBS)) for j in range(n)]
                chosen = (" missing", -800.0) if overflow else cands[draw(st.integers(min_value=0, max_value=n - 1))]
                tokens.append((*chosen, cands))
        structured = StructuredResponse(
            draw(st.sampled_from(list(OutcomeLabel))),
            (),
            draw(st.one_of(st.none(), st.integers(min_value=0, max_value=20).map(lambda v: 5 * v))),
            draw(st.one_of(st.none(), st.sampled_from(list(ConfidenceBand)))),
        )
        traces.append(ResponseTrace(f"item-{i:02d}", structured, outcome, token_span(tokens)))
    return traces


def _reference_rows(traces, include, k):
    """Per trace, the reference row's bytes, or its invalid marker."""
    out = {}
    for t in traces:
        try:
            out[t.item_id] = _assemble_feature_vector_reference(t, include, k).values().tobytes()
        except (NoLabelMass, NonFiniteFeature) as exc:
            out[t.item_id] = (type(exc), str(exc))
    return out


class TestCorpusKernels:
    @settings(max_examples=150, deadline=None)
    @given(
        _corpus_traces(max_candidates=7),
        st.sampled_from((1, 2, 5)),
        st.sampled_from((ALL_FAMILIES, (FeatureFamily.LOGODDS_MARGIN, FeatureFamily.TOKEN_LEVEL_COT), (FeatureFamily.OUTCOME_TOPK,))),
    )
    def test_batch_equals_single_traces_and_reference(self, traces, k, include):
        matrix, invalid = assemble_feature_vector(traces, include, k)
        reference = _reference_rows(traces, include, k)
        for i, t in enumerate(traces):
            single, single_invalid = assemble_feature_vector([t], include, k)
            if i in invalid:
                assert (type(invalid[i]), str(invalid[i])) == reference[t.item_id]
                assert (type(single_invalid[0]), str(single_invalid[0])) == reference[t.item_id]
                with pytest.raises(ValueError, match="no valid traces"):
                    extract_table([t], include, k)
            else:
                assert not single_invalid
                assert matrix[i].tobytes() == single[0].tobytes() == reference[t.item_id]
                assert extract_table([t], include, k).matrix.tobytes() == single.tobytes()
        valid_ids = [t.item_id for i, t in enumerate(traces) if i not in invalid]
        if not valid_ids:
            with pytest.raises(ValueError, match="no valid traces"):
                extract_table(traces, include, k)
            return
        table = extract_table(traces, include, k)
        assert table.item_ids == valid_ids
        reasons = [(t.item_id, invalid[i].reason) for i, t in enumerate(traces) if i in invalid]
        assert list(table.invalid_ids.items()) == reasons
        assert table.matrix.tobytes() == b"".join(reference[i] for i in valid_ids)

    @settings(max_examples=150, deadline=None)
    @given(_corpus_traces(max_candidates=7), st.sampled_from((1, 2, 3, 5, 7)))
    def test_shared_renormalization_equals_separate_ones(self, traces, k):
        # outcome rows of width 1 up to 7, so at or above k for small k, and
        # below it for k = 7; reasoning rows, where present, of width up to
        # 8. Up to k = 7 a padded row keeps its bits; from 8 entries numpy
        # sums in blocks (test_wide_rows_match_within_rounding)
        expected, no_mass = feature_reference.assemble_separately(traces, k)
        matrix, invalid = assemble_feature_vector(traces, ALL_FAMILIES, k)
        assert matrix.tobytes() == expected.tobytes()
        assert sorted(i for i, e in invalid.items() if isinstance(e, NoLabelMass)) == np.flatnonzero(no_mass).tolist()
        for i, t in enumerate(traces):
            single, _ = assemble_feature_vector([t], ALL_FAMILIES, k)
            alone, _ = feature_reference.assemble_separately([t], k)
            assert single.tobytes() == alone.tobytes() == matrix[i : i + 1].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(1, 8)), min_size=1, max_size=12),
        st.integers(1, 8),
        st.randoms(use_true_random=False),
    )
    def test_stack_rows_equals_the_per_block_loop(self, shapes, width, random):
        # blocks narrower, as wide as and wider than width, zero-row blocks among them
        blocks = [np.array([random.uniform(-9.0, 0.0) for _ in range(n * w)]).reshape(n, w) for n, w in shapes]
        stacked = features._stack_rows(blocks, width)
        assert stacked.flags.c_contiguous
        assert stacked.tobytes() == feature_reference.stack_rows_loop(blocks, width).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(_corpus_traces(max_candidates=20))
    def test_wide_rows_match_within_rounding(self, traces):
        # from 8 candidates numpy sums a row in blocks, so padding the
        # stacked rows to the corpus width may move a value's last digits
        k = 20
        matrix, invalid = assemble_feature_vector(traces, ALL_FAMILIES, k)
        reference = _reference_rows(traces, ALL_FAMILIES, k)
        for i, t in enumerate(traces):
            single, single_invalid = assemble_feature_vector([t], ALL_FAMILIES, k)
            assert (i in invalid) == bool(single_invalid) == isinstance(reference[t.item_id], tuple)
            if i not in invalid:
                want = np.frombuffer(reference[t.item_id])
                np.testing.assert_allclose(matrix[i], want, rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(single[0], want, rtol=1e-12, atol=1e-15)


class TestOracleEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-15, max_value=0), min_size=2, max_size=5))
    def test_against_mpmath(self, logprobs):
        import mpmath

        mpmath.mp.dps = 50
        f = compute_topk_features(renormalize_topk(logprobs))

        exps = [mpmath.exp(mpmath.mpf(repr(lp))) for lp in logprobs]
        total = sum(exps)
        probs = sorted((e / total for e in exps), reverse=True)
        entropy = -sum(p * mpmath.log(p, 2) for p in probs if p > 0)
        assert f["entropy"] == pytest.approx(float(entropy), abs=1e-9)
        assert f["msp"] == pytest.approx(float(probs[0]), abs=1e-9)
        assert f["margin"] == pytest.approx(float(probs[0] - probs[1]), abs=1e-9)


def _numpy_calls(fn) -> tuple[int, int]:
    """The numpy calls fn() makes, counted by sys.setprofile: the C
    functions and ndarray methods it reports as c_call, and the calls into
    numpy's Python code (dispatchers and wrappers). Ufunc calls reach
    neither count, since the profiler does not report them."""
    npdir = os.path.dirname(np.__file__)
    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "c_call":
            owner = getattr(arg, "__self__", None)
            if any((getattr(x, "__module__", None) or "").startswith("numpy") for x in (arg, type(owner))):
                counts[0] += 1
        elif event == "call" and frame.f_code.co_filename.startswith(npdir):
            counts[1] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts[0], counts[1]


class TestOneTraceCost:
    def test_a_one_trace_extraction_makes_few_numpy_calls(self):
        # the bounds are the fewest calls one trace of this corpus made with
        # numpy 2.4 before the kernels wrote their blocks in place with
        # fewer, cheaper calls (53 and 36); the counts depend on numpy's own
        # wrappers, so the bounds leave room for another numpy release
        traces, _ = generate_corpus(SynthConfig(n_items=40, cot=True, seed=1))
        extract_table([traces[0]])  # first-call paths and caches
        for trace in traces[1:]:
            c_calls, python_calls = _numpy_calls(lambda: extract_table([trace]))
            assert c_calls < 53 and python_calls < 36, (trace.item_id, c_calls, python_calls)
