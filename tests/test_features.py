import itertools
import math
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
    LabelDistribution,
    NoLabelMass,
    NonFiniteFeature,
    SequenceStats,
    TopKDistribution,
    assemble_feature_vector,
    catalog_names,
    collapse_to_labels,
    compute_attribution_features,
    compute_filtered_features,
    compute_logodds_features,
    compute_sequence_features,
    compute_topk_features,
    compute_verbalized_features,
    renormalize_topk,
    EmptyCandidates,
    _entropy_bits,
)
from lppgate.pipeline import extract_table
from lppgate.schema import (
    ConfidenceBand,
    OutcomeLabel,
    Span,
    StructuredResponse,
    TokenCandidate,
    TokenRecord,
)
from lppgate.synth import SynthConfig, generate_corpus
from tests.conftest import make_outcome_record, make_trace

DYADIC = (0.5, 0.25, 0.125, 0.0625, 0.0625)


class TestRenormalizeTopk:
    def test_equal_logprobs_uniform(self):
        dist = renormalize_topk([-3.2] * 5)
        assert dist.probs == pytest.approx([0.2] * 5, abs=1e-12)

    def test_already_normalized_dyadic(self):
        dist = renormalize_topk([math.log(p) for p in DYADIC])
        assert dist.probs == pytest.approx(DYADIC, abs=1e-12)

    def test_near_delta(self):
        dist = renormalize_topk([0.0, -50.0, -50.0, -50.0, -50.0])
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(EmptyCandidates):
            renormalize_topk([])

    @given(
        st.lists(st.floats(min_value=-30, max_value=0), min_size=1, max_size=20),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_invariance(self, logprobs, c):
        base = renormalize_topk(logprobs)
        shifted = renormalize_topk([lp + c for lp in logprobs])
        assert np.allclose(base.probs, shifted.probs, atol=1e-9)


class TestTopkFeatures:
    def test_uniform_five(self):
        f = compute_topk_features(TopKDistribution((0.2,) * 5, 5))
        assert f["entropy"] == pytest.approx(math.log2(5), abs=1e-12)
        assert f["entropy_norm"] == pytest.approx(1.0, abs=1e-12)
        assert f["effective_choices"] == pytest.approx(5.0, abs=1e-9)
        assert f["msp"] == 0.2
        assert f["margin"] == 0.0
        assert f["top1_top2_ratio"] == pytest.approx(1.0)

    def test_dyadic_exact(self):
        f = compute_topk_features(TopKDistribution(DYADIC, 5))
        assert f["entropy"] == 1.875
        assert f["effective_choices"] == 2.0**1.875
        assert f["msp"] == 0.5
        assert f["margin"] == 0.25
        assert f["margin_norm"] == pytest.approx(0.5)
        assert f["top1_top2_ratio"] == pytest.approx(2.0)

    def test_delta(self):
        f = compute_topk_features(TopKDistribution((1.0, 0.0, 0.0, 0.0, 0.0), 5))
        assert f["entropy"] == 0.0
        assert f["effective_choices"] == 1.0
        assert f["confidence"] == 1.0
        assert f["msp"] == 1.0
        assert f["margin"] == 1.0

    def test_single_candidate_entropy_norm_defined(self):
        f = compute_topk_features(TopKDistribution((1.0,), 1))
        assert f["entropy_norm"] == 0.0
        assert f["confidence"] == 1.0

    @given(st.lists(st.floats(min_value=-20, max_value=0), min_size=2, max_size=5))
    def test_bounds(self, logprobs):
        dist = renormalize_topk(logprobs)
        f = compute_topk_features(dist)
        k = dist.k
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
    return [TokenCandidate(s, lp) for s, lp in mapping.items()]


class TestCollapseToLabels:
    def test_hand_summed_masses(self):
        ldist = collapse_to_labels(_candidates(COLLAPSE_EXAMPLE))
        assert ldist.probs[OutcomeLabel.NO] == pytest.approx(12 / 19, abs=1e-12)
        assert ldist.probs[OutcomeLabel.YES] == pytest.approx(6 / 19, abs=1e-12)
        assert ldist.probs[OutcomeLabel.INCONCLUSIVE_EVIDENCE] == pytest.approx(1 / 19, abs=1e-12)
        assert ldist.probs[OutcomeLabel.INCONCLUSIVE_DEFINITION] == 0.0

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
        for label in a.support:
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
        ldist = LabelDistribution(
            {label: 0.25 for label in OutcomeLabel}, tuple(OutcomeLabel)
        )
        f = compute_filtered_features(ldist)
        assert f["entropy"] == pytest.approx(2.0, abs=1e-12)
        assert f["entropy_norm"] == pytest.approx(1.0, abs=1e-12)
        assert f["effective_choices"] == pytest.approx(4.0, abs=1e-9)

    def test_delta_distribution(self):
        probs = {label: 0.0 for label in OutcomeLabel}
        probs[OutcomeLabel.YES] = 1.0
        f = compute_filtered_features(LabelDistribution(probs, tuple(OutcomeLabel)))
        assert f["entropy"] == 0.0
        assert f["confidence"] == 1.0


class TestLogOddsFeatures:
    def test_hand_arithmetic(self):
        cands = [TokenCandidate("1", -0.1), TokenCandidate("0", -2.1)]
        ldist = collapse_to_labels(cands)
        f = compute_logodds_features(cands, ldist)
        assert f["margin"] == pytest.approx(-2.0, abs=1e-12)
        assert f["margin_norm"] == pytest.approx(-2.0 / -2.1, abs=1e-6)
        assert f["margin_valid"] == 1.0

    def test_tie(self):
        cands = [TokenCandidate("1", -0.7), TokenCandidate("0", -0.7)]
        f = compute_logodds_features(cands, collapse_to_labels(cands))
        assert f["margin"] == 0.0
        assert f["margin_norm"] == pytest.approx(0.0)

    def test_single_candidate_flagged_invalid(self):
        cands = [TokenCandidate("1", -0.05)]
        f = compute_logodds_features(cands, collapse_to_labels(cands))
        assert f["margin"] == 0.0
        assert f["margin_norm"] == 0.0
        assert f["margin_valid"] == 0.0
        assert f["filtered_margin_valid"] == 0.0

    def test_filtered_uses_pre_normalization_masses(self):
        # one label split across two surfaces: filtered margin uses summed mass
        cands = [
            TokenCandidate("0", math.log(0.3)),
            TokenCandidate(" 0", math.log(0.3)),
            TokenCandidate("1", math.log(0.3)),
        ]
        f = compute_logodds_features(cands, collapse_to_labels(cands))
        assert f["filtered_margin"] == pytest.approx(math.log(0.3) - math.log(0.6), abs=1e-12)
        assert f["filtered_margin_valid"] == 1.0


def _reasoning_record(p_chosen, n_candidates=1):
    # n_candidates equally likely alternatives fix the per-token entropy at
    # log2(n_candidates); the chosen surface matches a candidate so nothing
    # extra is appended
    cands = [TokenCandidate(f" c{j}", math.log(1.0 / n_candidates)) for j in range(n_candidates)]
    chosen = TokenCandidate(" c0", math.log(p_chosen))
    return TokenRecord(chosen=chosen, candidates=cands, span=Span.REASONING)


def _sequence_features_reference(reasoning, k=DEFAULT_TOP_K):
    """The per-record path compute_sequence_features replaced: one
    renormalize_topk per reasoning token, one np.quantile per summary."""
    if len(reasoning) == 0:
        zeros = (0.0,) * 5
        return SequenceStats(0.0, 1.0, 0.0, zeros, zeros, absent=True)
    chosen_lp = np.array([r.chosen.logprob for r in reasoning], dtype=float)
    nll = float(-chosen_lp.sum())
    ppl = float(np.exp(nll / len(reasoning)))
    entropies = np.array(
        [
            _entropy_bits(np.asarray(renormalize_topk([c.logprob for c in r.candidates[:k]]).probs))
            for r in reasoning
        ]
    )
    points = (0.0, 0.25, 0.5, 0.75, 1.0)
    ent_q = tuple(float(v) for v in np.quantile(entropies, points))
    prob_q = tuple(float(v) for v in np.quantile(np.exp(chosen_lp), points))
    return SequenceStats(nll, ppl, float(entropies.mean()), ent_q, prob_q)


# ties, exp underflow (-800) and a log(1) candidate come up often
_LOGPROBS = st.one_of(
    st.floats(min_value=-30, max_value=0), st.sampled_from((0.0, -0.7, -800.0))
)


@st.composite
def _reasoning_records(draw, max_candidates):
    records = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        n = draw(st.integers(min_value=1, max_value=max_candidates))
        cands = [TokenCandidate(f" c{j}", draw(_LOGPROBS)) for j in range(n)]
        if draw(st.booleans()):
            # a chosen token missing from its candidates is appended to them
            chosen = TokenCandidate(" missing", draw(_LOGPROBS))
        else:
            chosen = cands[draw(st.integers(min_value=0, max_value=n - 1))]
        records.append(TokenRecord(chosen=chosen, candidates=cands, span=Span.REASONING))
    return records


class TestSequenceFeaturesVectorised:
    # a span whose chosen tokens all sit near -800 has perplexity inf on both paths
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(_reasoning_records(max_candidates=8))
    def test_equals_per_record_reference(self, records):
        assert compute_sequence_features(records, k=5) == _sequence_features_reference(records, k=5)

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(_reasoning_records(max_candidates=16))
    def test_wide_rows_match_reference(self, records):
        # numpy sums 8+ entries in blocks, where padding regroups the terms
        got = compute_sequence_features(records, k=12)
        want = _sequence_features_reference(records, k=12)
        assert (got.nll, got.perplexity, got.prob_quantiles) == (want.nll, want.perplexity, want.prob_quantiles)
        assert got.mean_token_entropy_bits == pytest.approx(want.mean_token_entropy_bits, rel=1e-12, abs=1e-15)
        assert got.entropy_quantiles == pytest.approx(want.entropy_quantiles, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_logprob_raises(self, bad):
        record = _reasoning_record(0.5, n_candidates=3)
        object.__setattr__(record.candidates[1], "logprob", bad)
        with pytest.raises(ValueError, match="non-finite logprob"):
            compute_sequence_features([_reasoning_record(0.5, n_candidates=4), record])

    def test_empty_candidate_list_raises(self):
        record = _reasoning_record(0.5, n_candidates=2)
        record.candidates = []
        with pytest.raises(EmptyCandidates):
            compute_sequence_features([_reasoning_record(0.5), record])

    def test_extract_table_matches_reference_rows(self, monkeypatch):
        traces, _ = generate_corpus(SynthConfig(n_items=300, cot=True, seed=42))
        assert all(t.reasoning_records() for t in traces)
        table = extract_table(traces)
        by_id = {t.item_id: t for t in traces}
        monkeypatch.setattr(features, "compute_sequence_features", _sequence_features_reference)
        expected = np.stack([assemble_feature_vector(by_id[i]) for i in table.item_ids])
        assert table.matrix.tobytes() == expected.tobytes()


class TestSequenceFeatures:
    def test_uniform_halves(self):
        records = [_reasoning_record(0.5) for _ in range(4)]
        stats = compute_sequence_features(records)
        assert stats.nll == pytest.approx(4 * math.log(2), abs=1e-12)
        assert stats.perplexity == pytest.approx(2.0, abs=1e-12)
        assert not stats.absent

    def test_entropy_quantiles_exact_ranks(self):
        # entropies 0, 1, 2 from 1, 2, 4 equally likely candidates
        records = [
            _reasoning_record(0.5, n_candidates=1),
            _reasoning_record(0.5, n_candidates=2),
            _reasoning_record(0.5, n_candidates=4),
        ]
        stats = compute_sequence_features(records)
        assert stats.entropy_quantiles == pytest.approx((0.0, 0.5, 1.0, 1.5, 2.0), abs=1e-9)
        assert stats.mean_token_entropy_bits == pytest.approx(1.0, abs=1e-9)

    def test_interpolated_quantile(self):
        records = [
            _reasoning_record(0.5, n_candidates=1),
            _reasoning_record(0.5, n_candidates=2),
        ]
        stats = compute_sequence_features(records)
        assert stats.entropy_quantiles[1] == pytest.approx(0.25, abs=1e-12)

    def test_prob_quantiles_exact(self):
        records = [_reasoning_record(p) for p in (0.1, 0.2, 0.3, 0.4, 0.5)]
        stats = compute_sequence_features(records)
        assert stats.prob_quantiles == pytest.approx((0.1, 0.2, 0.3, 0.4, 0.5), abs=1e-9)

    def test_empty_span(self):
        stats = compute_sequence_features([])
        assert stats == SequenceStats(0.0, 1.0, 0.0, (0.0,) * 5, (0.0,) * 5, absent=True)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=30))
    def test_perplexity_at_least_one(self, probs):
        stats = compute_sequence_features([_reasoning_record(p) for p in probs])
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


def _assemble_feature_vector_reference(trace, include=ALL_FAMILIES, k=DEFAULT_TOP_K, support=FULL_SUPPORT):
    """The per-entry assembly that assemble_feature_vector's float row
    replaced: one _FeatureEntry per feature, checked one by one."""
    include_set = set(include)
    if not include_set:
        raise ValueError("at least one feature family must be included")

    outcome_rec = trace.outcome_record()
    entries = []

    def extend(family: FeatureFamily, metrics: Mapping[str, float]) -> None:
        entries.extend(_FeatureEntry(name, family, float(metrics[name])) for name in _CATALOG[family])

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

    if include_set & {FeatureFamily.SEQUENCE_COT, FeatureFamily.TOKEN_LEVEL_COT}:
        stats = compute_sequence_features(trace.reasoning_records(), k=k)
        if FeatureFamily.SEQUENCE_COT in include_set:
            values = (stats.nll, stats.perplexity, 1.0 if stats.absent else 0.0)
            extend(FeatureFamily.SEQUENCE_COT, dict(zip(_CATALOG[FeatureFamily.SEQUENCE_COT], values)))
        if FeatureFamily.TOKEN_LEVEL_COT in include_set:
            values = (stats.mean_token_entropy_bits, *stats.entropy_quantiles, *stats.prob_quantiles)
            extend(FeatureFamily.TOKEN_LEVEL_COT, dict(zip(_CATALOG[FeatureFamily.TOKEN_LEVEL_COT], values)))

    if FeatureFamily.VERBALIZED in include_set:
        extend(FeatureFamily.VERBALIZED, compute_verbalized_features(trace.structured))
    if FeatureFamily.ATTRIBUTION in include_set:
        extend(FeatureFamily.ATTRIBUTION, compute_attribution_features(trace.effective_outcome()))

    return _FeatureVector(tuple(entries))


class TestAssembleFeatureVector:
    def test_direct_trace_all_families(self):
        row = assemble_feature_vector(make_trace())
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
        row = assemble_feature_vector(make_trace(), include=include)
        assert row.shape == (8,)
        assert len(catalog_names(include)) == 8

    def test_exclusion_removes_names(self):
        include = [f for f in ALL_FAMILIES if f is not FeatureFamily.ATTRIBUTION]
        row = assemble_feature_vector(make_trace(), include=include)
        assert not any(n.startswith("attribution.") for n in catalog_names(include))
        assert row.shape == (42,)
        assert len(catalog_names(include)) == 42

    def test_empty_include_rejected(self):
        with pytest.raises(ValueError):
            assemble_feature_vector(make_trace(), include=())

    def test_overflowing_perplexity_is_a_non_finite_feature(self):
        trace = make_trace(reasoning_logprobs=(-800.0,) * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteFeature, match="sequence.ppl"):
                assemble_feature_vector(trace)

    def test_no_label_mass_propagates(self):
        trace = make_trace(outcome_probs={"1": 0.6, "junk": 0.4})
        trace.outcome_record().candidates = [TokenCandidate("junk", math.log(1.0))]
        trace.outcome_record().chosen = TokenCandidate("junk", math.log(1.0))
        with pytest.raises(NoLabelMass):
            assemble_feature_vector(trace)

    def test_deterministic(self):
        a = assemble_feature_vector(make_trace(reasoning_logprobs=(-0.4, -0.9)))
        b = assemble_feature_vector(make_trace(reasoning_logprobs=(-0.4, -0.9)))
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("reasoning", [(), (-0.4, -0.9)], ids=["direct", "cot"])
    def test_names_match_catalog_for_every_subset(self, reasoning):
        # the row, read under catalog_names, is the per-entry reference
        trace = make_trace(reasoning_logprobs=reasoning)
        for size in range(1, len(ALL_FAMILIES) + 1):
            for include in itertools.combinations(ALL_FAMILIES, size):
                row = assemble_feature_vector(trace, include=include)
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
        assert table.families == references[0].families()
        assert table.matrix.tobytes() == np.stack([r.values() for r in references]).tobytes()

    def test_token_outcome_wins_for_attribution(self):
        # structured says YES but the emitted token is the abstention "2"
        trace = make_trace(
            outcome=OutcomeLabel.YES,
            outcome_probs={"2": 0.9, "1": 0.1},
        )
        trace.tokens[0] = make_outcome_record({"2": 0.9, "1": 0.1}, chosen_surface="2")
        include = {FeatureFamily.ATTRIBUTION}
        row = assemble_feature_vector(trace, include=include)
        assert dict(zip(catalog_names(include), row))["attribution.evidence_deficit"] == 1.0


class TestOracleEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-15, max_value=0), min_size=2, max_size=5))
    def test_against_mpmath(self, logprobs):
        import mpmath

        mpmath.mp.dps = 50
        dist = renormalize_topk(logprobs)
        f = compute_topk_features(dist)

        exps = [mpmath.exp(mpmath.mpf(repr(lp))) for lp in logprobs]
        total = sum(exps)
        probs = sorted((e / total for e in exps), reverse=True)
        entropy = -sum(p * mpmath.log(p, 2) for p in probs if p > 0)
        assert f["entropy"] == pytest.approx(float(entropy), abs=1e-9)
        assert f["msp"] == pytest.approx(float(probs[0]), abs=1e-9)
        assert f["margin"] == pytest.approx(float(probs[0] - probs[1]), abs=1e-9)
