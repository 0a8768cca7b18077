import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppgate.evaluation import (
    BASELINES,
    BaselineSpec,
    MissingFeature,
    always_trust_report,
    auc_roc,
    compute_metrics,
    emit_report,
    minmax_rescale,
    per_class_f1,
    run_baseline,
)
from lppgate.policy import ConfusionCounts, CostModel, confusion, cost_ratio_sensitivity, expected_cost


class TestAuc:
    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_all_ties_half(self):
        assert auc_roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_none(self):
        assert auc_roc([0.2, 0.8], [1, 1]) is None

    def test_partial_tie_half_credit(self):
        # one positive tied with one negative: AUC = (1 + 0.5) / 2
        assert auc_roc([0.9, 0.5, 0.5], [1, 1, 0]) == pytest.approx(0.75)

    def test_heavy_ties_match_pairwise_count(self):
        from fractions import Fraction

        rng = np.random.default_rng(19)
        s = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=301)
        z = (rng.uniform(size=301) < 0.35 + 0.4 * s).astype(int)
        pos, neg = s[z == 1], s[z == 0]
        wins = sum(int(p > n) for p in pos for n in neg)
        ties = sum(int(p == n) for p in pos for n in neg)
        oracle = Fraction(2 * wins + ties, 2 * len(pos) * len(neg))
        assert auc_roc(s, z) == float(oracle)

    @given(
        # coarse grid keeps the exp transform strictly increasing in floats
        st.lists(st.integers(min_value=-80, max_value=80), min_size=4, max_size=60),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_strictly_increasing_transform(self, grid_scores, seed):
        rng = np.random.default_rng(seed)
        z = rng.integers(0, 2, size=len(grid_scores))
        if len(set(z.tolist())) < 2:
            z[0], z[1] = 0, 1
        s = np.asarray(grid_scores, dtype=float) / 16.0
        base = auc_roc(s, z)
        assert auc_roc(np.exp(0.5 * s) + 3.0, z) == base
        assert auc_roc(s * 8.0, z) == base


class TestPerClassF1:
    def test_hand_confusion(self):
        f1_trust, f1_error = per_class_f1(confusion([True, True, False, False], [1, 0, 0, 1]))
        assert f1_trust == pytest.approx(0.5)
        assert f1_error == pytest.approx(0.5)

    def test_macro_symmetry(self):
        decisions = np.array([True, True, False, True, False])
        z = np.array([1, 0, 0, 1, 1])
        f1_trust, f1_error = per_class_f1(confusion(decisions, z))
        swapped_trust, swapped_error = per_class_f1(confusion(~decisions, 1 - z))
        assert f1_trust == pytest.approx(swapped_error)
        assert f1_error == pytest.approx(swapped_trust)

    def test_absent_class_reported_as_none(self):
        f1_trust, f1_error = per_class_f1(confusion([True, True], [1, 1]))
        assert f1_trust is not None
        assert f1_error is None


class TestComputeMetrics:
    def test_report_fields(self):
        m = CostModel(c_mis=100, c_rev=64)
        report = compute_metrics([0.9, 0.6, 0.4, 0.2], [True, True, False, False], [1, 0, 0, 1], m)
        assert report.macro_f1 == pytest.approx(0.5)
        assert report.escalations == 2
        assert report.escalation_ratio == 0.5
        assert report.expected_cost == 100 - 36 + 64

    def test_macro_none_when_class_absent(self):
        m = CostModel()
        report = compute_metrics([0.9, 0.8], [True, True], [1, 1], m)
        assert report.f1_error_class is None
        assert report.macro_f1 is None
        assert report.auc_roc is None


class TestMinMaxRescale:
    def test_endpoints(self):
        out = minmax_rescale(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert out.tolist() == [0.0, 1.0]

    def test_clips_outside_fit_range(self):
        out = minmax_rescale(np.array([1.0, 3.0]), np.array([0.0, 4.0]))
        assert out.tolist() == [0.0, 1.0]

    def test_constant_fit_goes_to_half(self):
        out = minmax_rescale(np.array([2.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        assert out.tolist() == [0.5, 0.5, 0.5]


def _feature_table(values_by_column, names):
    return np.column_stack([values_by_column[n] for n in names]), list(names)


class TestRunBaseline:
    NAMES = ["outcome_topk.entropy", "outcome_topk.msp", "outcome_topk.margin"]

    def _matrices(self, entropy_val, entropy_test, msp_val=None, msp_test=None):
        n_val, n_test = len(entropy_val), len(entropy_test)
        X_val = np.column_stack(
            [entropy_val, msp_val or np.linspace(0.3, 0.9, n_val), np.linspace(0, 1, n_val)]
        )
        X_test = np.column_stack(
            [entropy_test, msp_test or np.linspace(0.3, 0.9, n_test), np.linspace(0, 1, n_test)]
        )
        return X_val, X_test

    def test_entropy_orientation_trusts_deltas(self):
        # a delta distribution (entropy 0) rescales to trust score 1, which
        # clears every threshold in the sweep range, so it is always trusted
        entropy_val = np.array([0.0, 0.5, 1.0, 2.0])
        assert minmax_rescale(-entropy_val, -entropy_val)[0] == 1.0

        z_val = np.array([1, 1, 0, 0])
        X_val, X_test = self._matrices(entropy_val, entropy_val)
        spec = next(b for b in BASELINES if b.feature == "entropy")
        policy_result, metrics = run_baseline(
            spec, self.NAMES, X_val, z_val, X_test, z_val, CostModel()
        )
        assert policy_result.tau_star <= 1.0
        # the delta item is z=1 and trusted: it can never be a false negative
        assert metrics.counts.fn == 0

    def test_missing_feature(self):
        spec = BaselineSpec("msp", "higher_is_correct")
        with pytest.raises(MissingFeature):
            run_baseline(
                spec, ["other.column"], np.zeros((2, 1)), [0, 1], np.zeros((2, 1)), [0, 1], CostModel()
            )

    def test_two_point_minmax_exact(self):
        X_val = np.column_stack([[0.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        z_val = np.array([0, 1])
        spec = BaselineSpec("top2_margin", "higher_is_correct")
        policy_result, _ = run_baseline(
            spec, self.NAMES, X_val, z_val, X_val, z_val, CostModel()
        )
        # margins {0,1} rescale to {0,1}: escalating the 0 and trusting the 1
        # is achievable and optimal
        assert policy_result.counts.tn == 1 and policy_result.counts.tp == 1


class TestBaselineMetaEquivalence:
    def test_single_feature_identity_calibration_equal_cost(self):
        """With one feature, identity calibration, and validation scores
        clustered outside the sweep range on both parametrizations, every
        grid threshold induces the same partition, so tau* and cost agree
        exactly."""
        from lppgate.policy import sweep_threshold
        from lppgate.trainer import RidgeConfig, cross_fit_calibrated, predict_score

        rng = np.random.default_rng(21)
        n = 120
        msp_low = rng.uniform(0.05, 0.20, size=n // 2)
        msp_high = rng.uniform(0.80, 0.95, size=n // 2)
        msp = np.concatenate([msp_low, msp_high])
        z = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
        X = msp.reshape(-1, 1)
        m = CostModel()

        # baseline path: min-max rescale then sweep
        rescaled = minmax_rescale(msp, msp)
        baseline = sweep_threshold(rescaled, z, m)

        # meta path: ridge on the single feature with identity calibration
        gate = cross_fit_calibrated(
            X, z, RidgeConfig(alpha=0.1, calibration="identity"), seed=42, feature_names=["msp"]
        )
        meta_scores = predict_score(gate, ["msp"], X)
        assert np.all(meta_scores[z == 0] < 0.35)
        assert np.all(meta_scores[z == 1] > 0.70)
        meta = sweep_threshold(meta_scores, z, m)

        assert meta.tau_star == baseline.tau_star
        assert meta.expected_cost == pytest.approx(baseline.expected_cost, abs=1e-9)


class TestAlwaysTrust:
    def test_cost_is_mis_times_errors(self):
        m = CostModel(c_mis=100, c_rev=64)
        report = always_trust_report([1, 0, 0, 1, 1], m)
        assert report.expected_cost == 200
        assert report.escalations == 0
        assert report.escalation_ratio == 0.0


class TestEmitReport:
    def _entry(self, cost):
        return {
            "tau_star": 0.5,
            "metrics": {
                "f1_trust_class": 0.9,
                "f1_error_class": 0.5,
                "macro_f1": 0.7,
                "auc_roc": 0.8,
                "expected_cost": cost,
                "escalations": 10,
                "escalation_ratio": 0.1,
                "counts": {"tp": 1, "fp": 2, "tn": 3, "fn": 4},
            },
        }

    def test_single_method(self):
        csv_text, doc = emit_report({"meta_model": self._entry(5.0)})
        lines = csv_text.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("meta_model,")

    def test_fixed_method_order(self):
        results = {name: self._entry(i) for i, name in enumerate(("entropy", "meta_model", "msp", "top2_margin"))}
        csv_text, doc = emit_report(results)
        methods = [line.split(",")[0] for line in csv_text.strip().splitlines()[1:]]
        assert methods == ["msp", "top2_margin", "entropy", "meta_model"]
        assert list(doc["methods"]) == methods

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_report({})


def sensitivity_consistency(counts: ConfusionCounts, m: CostModel) -> tuple[float, float]:
    """(relative cost at r = c_rev/c_mis, expected cost / c_mis); the two
    must agree, tying the sensitivity curve to the main cost report."""
    [row] = cost_ratio_sensitivity(counts, [m.ratio])
    return row["relative_cost"], expected_cost(counts, m) / m.c_mis


class TestSensitivityConsistency:
    def test_agreement(self):
        counts = ConfusionCounts(tp=100, fp=7, tn=20, fn=11)
        m = CostModel(c_mis=100.0, c_rev=64.0)
        rel, main = sensitivity_consistency(counts, m)
        assert rel == pytest.approx(main, abs=1e-9)
