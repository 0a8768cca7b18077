import json
import warnings
from itertools import product

import numpy as np
import pytest

from lppgate import cli, pipeline, policy, trainer
from lppgate.dataset import ResampleConfig, SplitSpec, label_correctness, stratified_split
from lppgate.features import ALL_FAMILIES, DEFAULT_TOP_K, FeatureFamily, family_of
from lppgate.schema import OutcomeLabel
from lppgate.synth import SynthConfig, generate_corpus
from tests.conftest import make_outcome_span, make_trace
from tests.policy_reference import always_trust_cost

QUICK_SPACE = [
    trainer.RidgeConfig(alpha=a, class_weight=cw, calibration=c)
    for a, cw, c in product((0.1, 10.0), ("1:1", "balanced"), ("sigmoid", "isotonic"))
]


def corpus(n=900, seed=42, **kwargs):
    cfg = SynthConfig(n_items=n, seed=seed, **kwargs)
    traces, rows = generate_corpus(cfg)
    labels = {r.item_id: (r.ground_truth, OutcomeLabel(r.llm_outcome)) for r in rows}
    return traces, labels


@pytest.fixture(scope="module")
def trained_setup():
    traces, labels = corpus()
    table = pipeline.extract_table(traces)
    rows = pipeline.build_examples(table, labels)
    split = stratified_split(rows, SplitSpec(test_negative_count=45, seed=42))
    ids = dict(zip(("train", "validation", "test"), split))
    gate, report = pipeline.train_gate(table, labels, ids["train"], ResampleConfig(seed=42), QUICK_SPACE, 42)
    return traces, labels, table, ids, gate, report


class TestExtractTable:
    def test_rows_sorted_by_item_id(self):
        traces, labels = corpus(n=50)
        table = pipeline.extract_table(reversed(traces))
        assert table.item_ids == sorted(table.item_ids)
        assert table.matrix.shape == (50, 45)

    def test_invalid_rows_collected(self):
        traces, labels = corpus(n=20)
        bad = make_trace(item_id="zzz-bad")
        bad.outcome = make_outcome_span({"junk": 0.0})
        table = pipeline.extract_table(list(traces) + [bad])
        assert table.invalid_ids == ["zzz-bad"]
        assert "zzz-bad" not in table.item_ids

    def test_non_finite_feature_row_is_invalid(self):
        # mean chosen logprob -800 makes the reasoning perplexity overflow
        traces, labels = corpus(n=20)
        bad = make_trace(item_id="item-overflow", reasoning_logprobs=(-800.0,) * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = pipeline.extract_table(list(traces) + [bad])
        assert table.invalid_ids == ["item-overflow"]
        assert table.item_ids == sorted(t.item_id for t in traces)
        assert np.isfinite(table.matrix).all()

    def test_family_subset(self):
        traces, _ = corpus(n=10)
        include = (FeatureFamily.OUTCOME_TOPK, FeatureFamily.ATTRIBUTION)
        table = pipeline.extract_table(traces, include)
        assert table.matrix.shape == (10, 11)
        assert {family_of(name) for name in table.names} == {"outcome_topk", "attribution"}


class TestBuildExamples:
    def test_labels_meet_rows_once(self):
        traces, labels = corpus(n=60, abstention_rate=0.2)
        table = pipeline.extract_table(traces)
        rows = pipeline.build_examples(table, labels)
        assert rows.item_ids == tuple(table.item_ids)
        assert rows.X is table.matrix
        for item_id, z, abstain in zip(rows.item_ids, rows.z, rows.abstain):
            truth, outcome = labels[item_id]
            assert z == label_correctness(outcome, truth)
            assert abstain == (outcome not in (OutcomeLabel.YES, OutcomeLabel.NO))
        assert rows.abstain.any() and not rows.z[rows.abstain].any()

    def test_ids_select_rows_in_the_given_order(self):
        traces, labels = corpus(n=30)
        table = pipeline.extract_table(traces)
        ids = [table.item_ids[i] for i in (7, 2, 19)]
        rows = pipeline.build_examples(table, labels, ids)
        assert rows.item_ids == tuple(ids)
        assert rows.X.tobytes() == table.matrix[[7, 2, 19]].tobytes()
        assert rows.z.tolist() == [label_correctness(labels[i][1], labels[i][0]) for i in ids]

    def test_row_without_label_raises(self):
        traces, labels = corpus(n=10)
        table = pipeline.extract_table(traces)
        missing = table.item_ids[3]
        del labels[missing]
        with pytest.raises(KeyError, match=missing):
            pipeline.build_examples(table, labels)
        with pytest.raises(KeyError, match=missing):
            pipeline.build_examples(table, labels, [table.item_ids[0], missing])
        pipeline.build_examples(table, labels, table.item_ids[:3])


class TestFileRoundTrips:
    def test_features_csv_lossless(self, tmp_path):
        traces, _ = corpus(n=40)
        table = pipeline.extract_table(traces)
        csv_path, sidecar = tmp_path / "f.csv", tmp_path / "f.json"
        pipeline.save_features(table, csv_path, sidecar)
        loaded = pipeline.load_features(csv_path, sidecar)
        assert loaded.item_ids == table.item_ids
        assert loaded.names == table.names
        assert np.array_equal(loaded.matrix, table.matrix)
        families = {name: family_of(name) for name in table.names}
        assert {name: family_of(name) for name in loaded.names} == families
        sidecar_families = json.loads(sidecar.read_text())["families"]
        assert {name: fam for fam, names in sidecar_families.items() for name in names} == families

    def test_labels_round_trip(self, tmp_path):
        _, rows = generate_corpus(SynthConfig(n_items=30, seed=1))
        path = tmp_path / "labels.csv"
        pipeline.save_labels(rows, path)
        labels = pipeline.load_labels(path)
        assert len(labels) == 30
        sample = rows[0]
        assert labels[sample.item_id] == (sample.ground_truth, OutcomeLabel(sample.llm_outcome))

    def test_id_list_round_trip(self, tmp_path):
        path = tmp_path / "ids.txt"
        pipeline.write_id_list(["a", "b", "c"], path)
        assert pipeline.read_id_list(path) == ["a", "b", "c"]


class TestTrainSweepEvaluate:
    def test_gate_records_feature_names(self, trained_setup):
        *_, gate, report = trained_setup
        assert gate.feature_names and gate.tau_star is None
        assert report["grid_size"] == len(QUICK_SPACE)

    def test_sweep_freezes_tau(self, trained_setup):
        traces, labels, table, ids, gate, _ = trained_setup
        result = pipeline.sweep_gate(gate, table, labels, ids["validation"], policy.CostModel(), policy.tau_grid())
        assert gate.tau_star == result.tau_star
        assert 0.35 <= result.tau_star <= 0.70

    def test_evaluate_methods_structure_and_consistency(self, trained_setup):
        traces, labels, table, ids, gate, _ = trained_setup
        cost = policy.CostModel()
        pipeline.sweep_gate(gate, table, labels, ids["validation"], cost, policy.tau_grid())
        out = pipeline.evaluate_methods(gate, table, labels, ids["validation"], ids["test"], cost, policy.tau_grid())
        assert set(out) == {"meta_model", "msp", "top2_margin", "entropy", "always_trust"}
        for method in ("meta_model", "msp", "top2_margin", "entropy"):
            entry = out[method]
            # sensitivity at r reproduces the main cost in c_mis units
            at_ratio = next(s for s in entry["sensitivity"] if s["r"] == cost.ratio)
            assert at_ratio["relative_cost"] == pytest.approx(
                entry["metrics"]["expected_cost"] / cost.c_mis, abs=1e-9
            )
        at = out["always_trust"]["metrics"]
        z_test = [label_correctness(labels[i][1], labels[i][0]) for i in ids["test"]]
        assert at["expected_cost"] == always_trust_cost(z_test, cost)

    def test_evaluate_requires_frozen_tau(self, trained_setup):
        traces, labels, table, ids, _, _ = trained_setup
        fresh_gate, _ = pipeline.train_gate(
            table, labels, ids["train"], ResampleConfig(seed=42), QUICK_SPACE[:1], 42
        )
        with pytest.raises(ValueError, match="frozen threshold"):
            pipeline.evaluate_methods(
                fresh_gate, table, labels, ids["validation"], ids["test"], policy.CostModel()
            )


def _run_ablation_reference(
    traces,
    labels,
    drop_families,
    split_spec,
    cost,
    include=ALL_FAMILIES,
    resample_cfg=None,
    space=None,
    grid=None,
    seed=42,
    k=DEFAULT_TOP_K,
):
    """The per-subset ablation that run_ablation's column masks replaced:
    extract and split the traces again for every family subset."""
    include = tuple(include)

    def end_to_end(families):
        table = pipeline.extract_table(traces, families, k=k)
        train_ids, validation_ids, test_ids = stratified_split(pipeline.build_examples(table, labels), split_spec)
        gate, _ = pipeline.train_gate(table, labels, train_ids, resample_cfg, space, seed)
        pipeline.sweep_gate(gate, table, labels, validation_ids, cost, grid)
        test, _, trust = pipeline.score_and_route(gate, table, labels, test_ids)
        return policy.expected_cost(policy.confusion(trust, test.z), cost)

    full_cost = end_to_end(include)
    rows = []
    for family in drop_families:
        if family not in include:
            raise ValueError(f"family {family.value!r} not in the included set")
        remaining = tuple(f for f in include if f is not family)
        if not remaining:
            raise ValueError("cannot drop every feature family")
        cost_without = end_to_end(remaining)
        rows.append(
            {
                "dropped_family": family.value,
                "expected_cost": cost_without,
                "delta_vs_full": cost_without - full_cost,
                "full_cost": full_cost,
            }
        )
    return rows


class TestAblation:
    def test_signal_bearing_family_increases_cost(self):
        traces, labels = corpus(n=1200, signal={"outcome_topk": 0.9, "attribution": 1.0})
        rows = pipeline.run_ablation(
            pipeline.extract_table(traces),
            labels,
            [FeatureFamily.ATTRIBUTION],
            SplitSpec(test_negative_count=60, seed=42),
            policy.CostModel(),
            space=QUICK_SPACE,
            seed=42,
        )
        assert rows[0]["dropped_family"] == "attribution"
        assert rows[0]["delta_vs_full"] > 0

    def test_noise_family_within_band(self):
        # verbalized carries no signal here; dropping it moves cost by at
        # most a noise band of 10% of the always-trust cost
        traces, labels = corpus(n=1200, signal={"outcome_topk": 0.9, "verbalized": 0.0, "attribution": 1.0})
        z = [label_correctness(v[1], v[0]) for v in labels.values()]
        at = always_trust_cost(z, policy.CostModel())
        rows = pipeline.run_ablation(
            pipeline.extract_table(traces),
            labels,
            [FeatureFamily.VERBALIZED],
            SplitSpec(test_negative_count=60, seed=42),
            policy.CostModel(),
            space=QUICK_SPACE,
            seed=42,
        )
        # band on the test split scale: test holds ~1/3 of items
        assert abs(rows[0]["delta_vs_full"]) <= 0.10 * at

    def test_dropping_everything_rejected(self):
        traces, labels = corpus(n=100)
        with pytest.raises(ValueError, match="every feature family"):
            pipeline.run_ablation(
                pipeline.extract_table(traces, (FeatureFamily.OUTCOME_TOPK,)),
                labels,
                [FeatureFamily.OUTCOME_TOPK],
                SplitSpec(test_negative_count=5, seed=42),
                policy.CostModel(),
                space=QUICK_SPACE[:1],
                seed=42,
            )

    def test_dropping_family_not_included_rejected(self):
        traces, labels = corpus(n=100)
        with pytest.raises(ValueError, match="not in the included set"):
            pipeline.run_ablation(
                pipeline.extract_table(traces, (FeatureFamily.OUTCOME_TOPK, FeatureFamily.ATTRIBUTION)),
                labels,
                [FeatureFamily.VERBALIZED],
                SplitSpec(test_negative_count=5, seed=42),
                policy.CostModel(),
                space=QUICK_SPACE[:1],
                seed=42,
            )

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=[f.value for f in ALL_FAMILIES])
    def test_without_equals_extraction_without_the_family(self, family):
        traces, _ = corpus(n=60, cot=True)
        dropped = pipeline.extract_table(traces).without(family)
        reference = pipeline.extract_table(traces, [f for f in ALL_FAMILIES if f is not family])
        assert dropped.item_ids == reference.item_ids
        assert dropped.names == reference.names
        assert dropped.matrix.tobytes() == reference.matrix.tobytes()

    def test_masks_equal_per_subset_reference(self):
        traces, labels = corpus(n=600, cot=True)
        args = (labels, ALL_FAMILIES, SplitSpec(test_negative_count=45, seed=42), policy.CostModel())
        kwargs = {"space": QUICK_SPACE[:1], "grid": policy.tau_grid(), "seed": 42}
        rows = pipeline.run_ablation(pipeline.extract_table(traces), *args, **kwargs)
        assert len(rows) == len(ALL_FAMILIES)
        assert rows == _run_ablation_reference(traces, *args, **kwargs)

    def test_ablate_extracts_and_splits_once(self, tmp_path, monkeypatch):
        calls = {"extract_table": 0, "stratified_split": 0}

        def counted(name):
            inner = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, wrapper)

        counted("extract_table")
        counted("stratified_split")
        out = tmp_path / "run"
        assert cli.main(["synth", "--out", str(out), "--n-items", "300"]) == 0
        argv = ["ablate", "--out", str(out), "--traces", str(out / "traces.jsonl"), "--labels", str(out / "labels.csv")]
        assert cli.main(argv + ["--family", "all", "--test-negatives", "20", "--quick-grid"]) == 0
        assert len((out / "ablation.csv").read_text().splitlines()) == 1 + len(ALL_FAMILIES)
        assert calls == {"extract_table": 1, "stratified_split": 1}

    def test_overflow_row_keeps_one_split_for_every_subset(self, monkeypatch):
        # dropping sequence would make this row valid if each subset were
        # extracted on its own, and so change that subset's split
        traces, labels = corpus(n=600, cot=True)
        bad = make_trace(item_id="item-overflow", reasoning_logprobs=(-800.0,) * 4)
        labels[bad.item_id] = (1, OutcomeLabel.YES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = pipeline.extract_table(list(traces) + [bad])
        assert table.invalid_ids == [bad.item_id]

        seen = []
        train_gate = pipeline.train_gate

        def recording(t, labels, train_ids, *args):
            seen.append(list(train_ids))
            return train_gate(t, labels, train_ids, *args)

        monkeypatch.setattr(pipeline, "train_gate", recording)
        pipeline.run_ablation(
            table, labels, ALL_FAMILIES, SplitSpec(test_negative_count=45, seed=42),
            policy.CostModel(), space=QUICK_SPACE[:1], seed=42,
        )
        assert len(seen) == 1 + len(ALL_FAMILIES)
        assert all(ids == seen[0] for ids in seen)
