import re

import numpy as np
import pytest

from lppgate.dataset import label_correctness
from lppgate.features import FeatureFamily
from lppgate.pipeline import extract_table
from lppgate.schema import OutcomeLabel, trace_to_dict
from lppgate.synth import SynthConfig, generate_corpus


class TestDeterminism:
    def test_byte_identical_regeneration(self):
        import json

        cfg = SynthConfig(n_items=300, seed=42)
        a_traces, a_labels = generate_corpus(cfg)
        b_traces, b_labels = generate_corpus(cfg)
        assert [trace_to_dict(t) for t in a_traces] == [trace_to_dict(t) for t in b_traces]
        assert a_labels == b_labels
        dumped = [json.dumps(trace_to_dict(t), separators=(",", ":")) for t in a_traces]
        assert dumped == [json.dumps(trace_to_dict(t), separators=(",", ":")) for t in b_traces]

    def test_different_seeds_differ(self):
        a, _ = generate_corpus(SynthConfig(n_items=100, seed=1))
        b, _ = generate_corpus(SynthConfig(n_items=100, seed=2))
        assert [trace_to_dict(t) for t in a] != [trace_to_dict(t) for t in b]


class TestRates:
    def test_realized_rates_on_target(self):
        cfg = SynthConfig(n_items=2000, error_rate=0.15, abstention_rate=0.03, seed=42)
        traces, labels = generate_corpus(cfg)
        z = np.array([label_correctness(OutcomeLabel(r.llm_outcome), r.ground_truth) for r in labels])
        error_rate = float(np.mean(z == 0))
        abstained = sum(1 for r in labels if r.llm_outcome >= 2)
        assert abs(error_rate - 0.15) <= 0.02
        assert abs(abstained / 2000 - 0.03) <= 0.02

    def test_correctness_labeler_reproduces_intended_z(self):
        cfg = SynthConfig(n_items=500, seed=7)
        traces, labels = generate_corpus(cfg)
        n_err = round(500 * cfg.error_rate)
        z = [label_correctness(OutcomeLabel(r.llm_outcome), r.ground_truth) for r in labels]
        assert sum(1 for v in z if v == 0) == n_err

    def test_abstentions_are_always_errors(self):
        _, labels = generate_corpus(SynthConfig(n_items=800, seed=3))
        for row in labels:
            if row.llm_outcome >= 2:
                assert label_correctness(OutcomeLabel(row.llm_outcome), row.ground_truth) == 0


class TestTraceShape:
    def test_traces_are_schema_valid(self):
        traces, labels = generate_corpus(SynthConfig(n_items=120, seed=11))
        for trace, row in zip(traces, labels):
            assert trace.item_id == row.item_id
            outcome = trace.outcome
            assert outcome.chosen == (str(row.llm_outcome),)
            assert outcome.chosen_logprobs[0] == outcome.logprobs[0].max()
            assert trace.structured.p_correct is None or trace.structured.p_correct % 5 == 0

    def test_direct_mode_has_no_reasoning(self):
        traces, _ = generate_corpus(SynthConfig(n_items=50, cot=False, seed=5))
        assert all(len(t.reasoning.chosen) == 0 for t in traces)

    def test_cot_mode_has_three_steps_and_reasoning_tokens(self):
        traces, _ = generate_corpus(SynthConfig(n_items=50, cot=True, seed=5))
        assert all(len(t.structured.reasoning_steps) == 3 for t in traces)
        assert all(len(t.reasoning.chosen) >= 15 for t in traces)

    def test_confident_abstentions_when_complementary(self):
        cfg = SynthConfig(n_items=2000, signal={"attribution": 1.0}, seed=42)
        traces, labels = generate_corpus(cfg)
        table = extract_table(traces, include=[FeatureFamily.OUTCOME_TOPK], k=5)
        rows = table.row_map()
        column = table.names.index("outcome_topk.msp")
        msp = []
        for row in labels:
            if row.llm_outcome >= 2:
                msp.append(table.matrix[rows[row.item_id], column])
        # peaked regime: abstained errors look confident
        assert np.mean(msp) > 0.6


class TestConfig:
    @pytest.mark.parametrize(
        "signal, match",
        [
            ({"sequnce": 0.9}, "signal family 'sequnce'"),
            ({"sequence": 7.0}, r"signal\['sequence'\] must be within \[0, 1\], got 7.0"),
            ({"verbalized": -1.0}, r"signal\['verbalized'\] must be within \[0, 1\], got -1.0"),
            ({"outcome_topk": float("nan")}, r"signal\['outcome_topk'\] must be within \[0, 1\], got nan"),
            ({"sequence": True}, r"signal\['sequence'\] must be a number, got True"),
            ({"verbalized": "0.9"}, r"signal\['verbalized'\] must be a number, got '0.9'"),
            ({"attribution": None}, r"signal\['attribution'\] must be a number, got None"),
        ],
        ids=["unknown-family", "above-one", "below-zero", "nan", "bool", "text", "null"],
    )
    def test_signal_checked(self, signal, match):
        with pytest.raises(ValueError, match=match):
            SynthConfig(signal=signal)

    @pytest.mark.parametrize("n_items", [0, -3, True, 2.0, "10", None])
    def test_n_items_must_be_a_positive_int(self, n_items):
        with pytest.raises(ValueError, match=re.escape(f"n_items must be an integer of at least 1, got {n_items!r}")):
            SynthConfig(n_items=n_items)

    def test_one_item_accepted(self):
        traces, labels = generate_corpus(SynthConfig(n_items=1))
        assert len(traces) == len(labels) == 1

    def test_signal_edges_accepted(self):
        SynthConfig(signal={"outcome_topk": 0.0, "attribution": 1.0})
