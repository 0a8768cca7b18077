import re

import numpy as np
import pytest

from lppgate import synth
from lppgate.dataset import label_correctness
from lppgate.features import FeatureFamily
from lppgate.pipeline import extract_table, save_labels
from lppgate.schema import OutcomeLabel, trace_to_dict, write_traces_jsonl
from lppgate.synth import DEFAULT_SIGNAL, SynthConfig, generate_corpus
from tests import synth_reference


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

    def test_cot_items_share_surfaces_and_steps(self):
        # a reasoning token holds no string of its own: every item reuses
        # the module's surface table and its one tuple of steps
        traces, _ = generate_corpus(SynthConfig(n_items=300, cot=True, seed=3))
        spans = [t.reasoning for t in traces]
        surfaces = {id(s) for span in spans for s in span.chosen} | {
            id(s) for span in spans for row in span.surfaces for s in row
        }
        assert sum(len(span.chosen) for span in spans) > len(synth._REASONING_SURFACES) * 5
        assert len(surfaces) <= len(synth._REASONING_SURFACES) * 5
        assert all(t.structured.reasoning_steps is traces[0].structured.reasoning_steps for t in traces)

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


class TestDrawsEqualNumpyCalls:
    """synth takes its draws from numpy's draw functions directly; the
    corpora must stay those of rng.dirichlet, rng.choice and
    rng.permutation, byte for byte."""

    @staticmethod
    def _files(tmp_path, name, cfg):
        traces, labels = generate_corpus(cfg)
        write_traces_jsonl(traces, tmp_path / f"{name}.jsonl")
        save_labels(labels, tmp_path / f"{name}.csv")
        return (tmp_path / f"{name}.jsonl").read_bytes(), (tmp_path / f"{name}.csv").read_bytes()

    @pytest.mark.parametrize("strength", [None, 0.0, 1.0], ids=["default", "edge-0", "edge-1"])
    @pytest.mark.parametrize("cot", [False, True], ids=["direct", "cot"])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_files_equal_the_reference_draws(self, tmp_path, monkeypatch, seed, cot, strength):
        signal = dict(DEFAULT_SIGNAL) if strength is None else dict.fromkeys(DEFAULT_SIGNAL, strength)
        cfg = SynthConfig(n_items=250, signal=signal, cot=cot, seed=seed)
        regimes = []
        outcome_probs = synth._outcome_probs

        def recorded(rng, peaked):
            regimes.append(peaked)
            return outcome_probs(rng, peaked)

        monkeypatch.setattr(synth, "_outcome_probs", recorded)
        traces_bytes, labels_bytes = self._files(tmp_path, "new", cfg)
        assert set(regimes) == {True, False}  # both Dirichlet regimes ran
        assert re.search(rb'" [0-3]"', traces_bytes)  # and the surface split

        monkeypatch.setattr(synth, "_outcome_token", synth_reference._outcome_token)
        monkeypatch.setattr(synth, "_reasoning_tokens", synth_reference._reasoning_tokens)
        assert self._files(tmp_path, "reference", cfg) == (traces_bytes, labels_bytes)

    def test_each_draw_equals_its_numpy_call(self):
        choices = ["1", "2", "3", " the"]
        values = []
        for seed in range(40):
            ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(25):
                for peaked, alpha in ((True, synth._PEAKED_ALPHA), (False, synth._FLAT_ALPHA)):
                    drawn = synth._outcome_probs(ours, peaked)
                    assert drawn == numpys.dirichlet(alpha).tolist()
                    values += drawn
                drawn = synth._normalized(ours.standard_exponential(4).tolist())
                assert drawn == numpys.dirichlet((1.0,) * 4).tolist()
                values += drawn
                assert synth._JUNK_SURFACES[int(ours.integers(0, 3))] == numpys.choice(synth._JUNK_SURFACES)
                assert [choices[j] for j in ours.permutation(4).tolist()] == numpys.permutation(choices).tolist()
                # the streams stay in step
                assert ours.random() == numpys.random()
        # one np.log over a list equals one call per value, and so does one
        # over an item's (T, 5) rows at every token count T
        one_by_one = [float(np.log(v)) for v in values]
        assert np.log(values).tolist() == one_by_one
        for t in range(1, synth._MAX_REASONING_TOKENS):
            for start in range(0, len(values) - 5 * t + 1, 5 * t):
                rows = [values[i:i + 5] for i in range(start, start + 5 * t, 5)]
                assert np.log(rows).tolist() == [one_by_one[i:i + 5] for i in range(start, start + 5 * t, 5)]
