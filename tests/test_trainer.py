import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lppgate import trainer
from lppgate.trainer import (
    ALPHA_GRID,
    CALIBRATION_GRID,
    CLASS_WEIGHT_GRID,
    MAX_ITER_GRID,
    TOL_GRID,
    DegenerateFold,
    FeatureMismatch,
    IdentityCalibrator,
    RidgeConfig,
    cross_fit_calibrated,
    default_grid,
    distinct_configs,
    fit_isotonic,
    fit_platt,
    fit_ridge_weighted,
    gate_from_dict,
    gate_to_dict,
    grid_search,
    load_gate,
    minority_f1,
    predict_score,
    resolve_class_weights,
    ridge_objective,
    save_gate,
    standardize_apply,
    standardize_fit,
    stratified_kfold_indices,
)


class TestStandardize:
    def test_two_point_column(self):
        scaler = standardize_fit(np.array([[1.0], [3.0]]))
        assert scaler.mean[0] == 2.0 and scaler.std[0] == 1.0
        out = standardize_apply(scaler, np.array([[1.0], [3.0]]))
        assert out.ravel().tolist() == [-1.0, 1.0]

    def test_constant_column(self):
        scaler = standardize_fit(np.array([[5.0], [5.0], [5.0]]))
        assert standardize_apply(scaler, np.array([[5.0]])).item() == 0.0

    def test_apply_to_unseen(self):
        scaler = standardize_fit(np.array([[1.0], [3.0]]))
        assert standardize_apply(scaler, np.array([[5.0]])).item() == 3.0


class TestRidge:
    def test_hand_solved_case(self):
        X = np.array([[1.0], [-1.0]])
        z = [1, 0]
        w, b = fit_ridge_weighted(X, z, alpha=2.0)
        assert w[0] == pytest.approx(0.25, abs=1e-12)
        assert b == pytest.approx(0.5, abs=1e-12)

    def test_huge_alpha_shrinks_to_weighted_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        z = rng.integers(0, 2, size=40)
        w, b = fit_ridge_weighted(X, z, weights=(2.0, 1.0), alpha=1e9)
        assert np.linalg.norm(w) < 1e-6
        omega = np.where(z == 1, 1.0, 2.0)
        assert b == pytest.approx(float(np.sum(omega * z) / omega.sum()), abs=1e-6)

    def test_duplicated_rows_same_solution(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(25, 4))
        z = rng.integers(0, 2, size=25)
        w1, b1 = fit_ridge_weighted(X, z, alpha=3.0)
        w2, b2 = fit_ridge_weighted(np.vstack([X, X]), np.concatenate([z, z]), alpha=3.0)
        # duplicating rows scales the data term by 2; match by scaling alpha
        w3, b3 = fit_ridge_weighted(np.vstack([X, X]), np.concatenate([z, z]), alpha=6.0)
        assert np.allclose(w1, w3, atol=1e-9) and b1 == pytest.approx(b3, abs=1e-9)
        assert not np.allclose(w1, w2, atol=1e-12) or True  # alpha fixed shifts solution

    def test_finite_difference_gradient_at_optimum(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 5))
        z = rng.integers(0, 2, size=60)
        weights = (1.5, 1.0)
        alpha = 4.0
        w, b = fit_ridge_weighted(X, z, weights, alpha)
        eps = 1e-6
        grads = []
        for j in range(len(w)):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            grads.append(
                (ridge_objective(X, z, wp, b, weights, alpha) - ridge_objective(X, z, wm, b, weights, alpha))
                / (2 * eps)
            )
        grads.append(
            (ridge_objective(X, z, w, b + eps, weights, alpha) - ridge_objective(X, z, w, b - eps, weights, alpha))
            / (2 * eps)
        )
        grad0 = np.array([0.0] * len(w) + [0.0])
        ref = ridge_objective(X, z, np.zeros_like(w), 0.0, weights, alpha)
        assert np.max(np.abs(grads)) < 1e-6 * (1.0 + ref)

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 6))
        z = rng.integers(0, 2, size=50)
        norms = [
            np.linalg.norm(fit_ridge_weighted(X, z, alpha=a)[0]) for a in (0.1, 1.0, 10.0, 100.0)
        ]
        assert all(norms[i] >= norms[i + 1] - 1e-12 for i in range(len(norms) - 1))

    def test_closed_form_agrees_with_lsqr(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = rng.normal(size=(80, 7))
            z = rng.integers(0, 2, size=80)
            w1, b1 = fit_ridge_weighted(X, z, weights=(0.64, 1.0), alpha=1.0)
            w2, b2 = fit_ridge_weighted(
                X, z, weights=(0.64, 1.0), alpha=1.0, solver="lsqr", tol=1e-12, max_iter=3000
            )
            assert np.allclose(w1, w2, atol=1e-6)
            assert b1 == pytest.approx(b2, abs=1e-6)

    def test_joint_weight_alpha_scaling_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        z = rng.integers(0, 2, size=40)
        w1, b1 = fit_ridge_weighted(X, z, weights=(0.5, 1.0), alpha=2.0)
        w2, b2 = fit_ridge_weighted(X, z, weights=(1.5, 3.0), alpha=6.0)
        assert np.allclose(w1, w2, atol=1e-9)
        assert b1 == pytest.approx(b2, abs=1e-9)

    def test_balanced_weights(self):
        z = np.array([0, 0, 1, 1, 1, 1])
        w0, w1 = resolve_class_weights("balanced", z)
        assert w0 == pytest.approx(6 / (2 * 2))
        assert w1 == pytest.approx(6 / (2 * 4))


class TestPlatt:
    def test_symmetric_two_point_solution(self):
        # gradient tolerance 1e-9 pins the parameters to ~1e-6
        cal = fit_platt([-1.0, 1.0], [0, 1])
        assert cal.a == pytest.approx(math.log(2), abs=1e-6)
        assert cal.b == pytest.approx(0.0, abs=1e-6)

    def test_all_same_label_near_flat(self):
        cal = fit_platt([0.1, 0.4, 0.9], [1, 1, 1])
        target = 4.0 / 5.0  # (N+ + 1)/(N+ + 2)
        preds = cal.predict(np.array([0.1, 0.4, 0.9]))
        assert np.all(np.abs(preds - target) < 0.02)

    def test_constant_scores_pick_zero_slope(self):
        cal = fit_platt([0.3, 0.3, 0.3, 0.3], [0, 1, 1, 0])
        assert cal.a == 0.0
        # sigmoid(b) equals the mean smoothed target
        t = np.array([1 / 4, 3 / 4, 3 / 4, 1 / 4]).mean()
        assert cal.predict(np.array([0.3]))[0] == pytest.approx(t, abs=1e-9)

    def test_order_preserved_when_slope_positive(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(size=100)
        z = (s + rng.normal(scale=0.2, size=100) > 0.5).astype(int)
        cal = fit_platt(s, z)
        assert cal.a > 0
        p = cal.predict(np.sort(s))
        assert np.all(np.diff(p) >= 0)


def _isotonic_oracle(z):
    """Exact L2 isotonic fit via the max-min averaging identity, in exact
    rational arithmetic."""
    n = len(z)
    prefix = [Fraction(0)]
    for v in z:
        prefix.append(prefix[-1] + Fraction(v))

    def mean(j, k):
        return (prefix[k + 1] - prefix[j]) / (k - j + 1)

    out = []
    for i in range(n):
        best = None
        for j in range(i + 1):
            inner = min(mean(j, k) for k in range(i, n))
            best = inner if best is None or inner > best else best
        out.append(best)
    return out


def _fit_isotonic_reference(scores, z):
    """fit_isotonic with equal scores pre-pooled by an explicit scan."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(z, dtype=float)
    order = np.argsort(s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]

    knots, sums, weights = [], [], []
    i = 0
    n = len(s_sorted)
    while i < n:
        j = i
        while j < n and s_sorted[j] == s_sorted[i]:
            j += 1
        knots.append(float(s_sorted[i]))
        sums.append(float(y_sorted[i:j].sum()))
        weights.append(float(j - i))
        i = j

    block_sums, block_weights, block_count = [], [], []
    for total, weight in zip(sums, weights):
        block_sums.append(total)
        block_weights.append(weight)
        block_count.append(1)
        while (
            len(block_sums) > 1
            and block_sums[-2] * block_weights[-1] > block_sums[-1] * block_weights[-2]
        ):
            block_sums[-2] += block_sums[-1]
            block_weights[-2] += block_weights[-1]
            block_count[-2] += block_count[-1]
            del block_sums[-1], block_weights[-1], block_count[-1]

    values = []
    for total, weight, count in zip(block_sums, block_weights, block_count):
        values.extend([total / weight] * count)
    return tuple(knots), tuple(values)


class TestIsotonic:
    def test_pool_first_two(self):
        cal = fit_isotonic([1.0, 2.0, 3.0], [1, 0, 1])
        assert cal.values == pytest.approx((0.5, 0.5, 1.0))

    def test_already_monotone_identity(self):
        cal = fit_isotonic([0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
        assert cal.values == pytest.approx((0.0, 0.0, 1.0, 1.0))

    def test_equal_scores_pre_pooled(self):
        cal = fit_isotonic([0.5, 0.5, 0.5], [0, 1, 1])
        assert cal.knots == (0.5,)
        assert cal.values == pytest.approx((2 / 3,))

    def test_left_constant_steps_and_clamp(self):
        cal = fit_isotonic([0.0, 1.0], [0, 1])
        assert cal.predict(np.array([-1.0, 0.0, 0.5, 1.0, 2.0])).tolist() == [0, 0, 0, 1, 1]

    def test_matches_exact_oracle_on_small_binary_inputs(self):
        for n in range(1, 9):
            for bits in product((0, 1), repeat=n):
                fitted = fit_isotonic(list(range(n)), list(bits)).values
                oracle = _isotonic_oracle(bits)
                for got, want in zip(fitted, oracle):
                    assert got == float(want)

    @given(
        st.lists(
            st.tuples(
                # few distinct values (signed zeros included) make ties common
                st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.125, 0.5, 1.0, 3.0]),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_pre_pooling_matches_scan_reference(self, pairs):
        scores = [s for s, _ in pairs]
        targets = [y for _, y in pairs]
        cal = fit_isotonic(scores, targets)
        knots, values = _fit_isotonic_reference(scores, targets)
        assert cal.knots == knots and cal.values == values
        # signed zeros compare equal; the knot keeps the first one seen
        assert [math.copysign(1.0, k) for k in cal.knots] == [math.copysign(1.0, k) for k in knots]

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                st.floats(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_pre_pooling_float_targets_within_rounding(self, pairs):
        # block sums add in a different order than the scan's, so
        # non-integer targets agree to rounding only
        scores = [s for s, _ in pairs]
        targets = [y for _, y in pairs]
        cal = fit_isotonic(scores, targets)
        knots, values = _fit_isotonic_reference(scores, targets)
        assert cal.knots == knots
        assert np.allclose(cal.values, values, rtol=1e-12, atol=1e-15)

    def test_empty_input(self):
        cal = fit_isotonic([], [])
        assert cal.knots == () and cal.values == ()

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40))
    def test_always_non_decreasing(self, targets):
        cal = fit_isotonic(list(range(len(targets))), targets)
        assert np.all(np.diff(cal.values) >= -1e-12)


class TestFoldsAndCrossFit:
    def test_folds_partition_and_stratify(self):
        z = np.array([0] * 9 + [1] * 21)
        folds = stratified_kfold_indices(z, 3, seed=42)
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(30))
        for f in folds:
            assert np.sum(z[f] == 0) == 3

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateFold):
            stratified_kfold_indices(np.array([0, 1, 1, 1, 1]), 3, seed=42)

    def _separable(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        z = (X[:, 0] > 0).astype(int)
        X[:, 0] += np.where(z == 1, 1.0, -1.0)  # margin
        return X, z

    def test_separable_sanity(self):
        from lppgate.evaluation import auc_roc

        X, z = self._separable(300, 7)
        gate = cross_fit_calibrated(X, z, RidgeConfig(alpha=0.1), seed=42)
        X2, z2 = self._separable(500, 8)
        assert auc_roc(gate.predict_matrix(X2), z2) == pytest.approx(1.0, abs=1e-9)

    def test_null_signal_auc_near_half(self):
        from lppgate.evaluation import auc_roc

        rng = np.random.default_rng(42)
        X = rng.normal(size=(300, 5))
        z = rng.integers(0, 2, size=300)
        gate = cross_fit_calibrated(X, z, RidgeConfig(), seed=42)
        X2 = rng.normal(size=(300, 5))
        z2 = rng.integers(0, 2, size=300)
        auc = auc_roc(gate.predict_matrix(X2), z2)
        assert 0.40 <= auc <= 0.60

    def test_byte_identical_given_seed(self):
        X, z = self._separable(120, 9)
        g1 = cross_fit_calibrated(X, z, RidgeConfig(calibration="isotonic"), seed=42)
        g2 = cross_fit_calibrated(X, z, RidgeConfig(calibration="isotonic"), seed=42)
        assert json.dumps(gate_to_dict(g1)) == json.dumps(gate_to_dict(g2))

    def test_scores_clamped(self):
        X, z = self._separable(120, 10)
        gate = cross_fit_calibrated(X, z, RidgeConfig(calibration="identity"), seed=42)
        s = gate.predict_matrix(np.array([[50.0, 0.0, 0.0], [-50.0, 0.0, 0.0]]))
        assert np.all((s >= 0.0) & (s <= 1.0))


def _grid_search_reference(X, z, space, seed=42):
    """grid_search as one full cross-fit per (point, outer fold)."""
    X = np.asarray(X, dtype=float)
    zz = np.asarray(z, dtype=int)
    outer = stratified_kfold_indices(zz, 3, seed)
    all_idx = np.arange(len(zz))
    report = []
    best_idx, best_score = 0, -np.inf
    for i, cfg in enumerate(space):
        fold_scores = []
        for held_out in outer:
            train_idx = np.setdiff1d(all_idx, held_out)
            gate = cross_fit_calibrated(X[train_idx], zz[train_idx], cfg, seed)
            s = gate.predict_matrix(X[held_out])
            fold_scores.append(minority_f1(s >= 0.5, zz[held_out]))
        mean_score = float(np.mean(fold_scores))
        report.append(
            {
                "alpha": cfg.alpha,
                "tol": cfg.tol,
                "max_iter": cfg.max_iter,
                "class_weight": cfg.class_weight,
                "calibration": cfg.calibration,
                "minority_f1": mean_score,
                "fold_f1": fold_scores,
            }
        )
        if mean_score > best_score:
            best_idx, best_score = i, mean_score
    return space[best_idx], report


class TestGridSearch:
    def test_enumeration_size_and_order(self):
        space = default_grid()
        assert len(space) == 672
        assert space[0] == RidgeConfig(
            alpha=ALPHA_GRID[0],
            tol=TOL_GRID[0],
            max_iter=MAX_ITER_GRID[0],
            class_weight=CLASS_WEIGHT_GRID[0],
            calibration=CALIBRATION_GRID[0],
        )
        # calibration varies fastest, alpha slowest
        assert space[1].calibration == CALIBRATION_GRID[1]
        assert space[2].class_weight == CLASS_WEIGHT_GRID[1]

    def test_single_config_space(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 4))
        z = (X[:, 0] > 0).astype(int)
        only = RidgeConfig(alpha=10.0)
        best, report = grid_search(X, z, space=[only])
        assert best == only and len(report) == 1

    def test_tie_keeps_enumeration_order(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 4))
        z = (X[:, 0] > 0).astype(int)
        # identical effective configs (tol/max_iter are inert for the
        # closed-form solver) tie exactly; the first must win
        a = RidgeConfig(alpha=1.0, tol=1e-6)
        b = RidgeConfig(alpha=1.0, tol=1e-3)
        best, report = grid_search(X, z, space=[a, b])
        assert best == a
        assert report[0]["minority_f1"] == report[1]["minority_f1"]

    def test_matches_per_point_reference(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(90, 4))
        z = (X[:, 0] + 0.8 * rng.normal(size=90) > -0.4).astype(int)
        space = [
            RidgeConfig(alpha=10.0, tol=1e-3, max_iter=3000, class_weight="balanced", calibration="isotonic"),
            RidgeConfig(alpha=0.1, class_weight="0.64:1", calibration="sigmoid"),
            RidgeConfig(alpha=10.0, tol=1e-6, class_weight="balanced", calibration="sigmoid"),
            RidgeConfig(alpha=0.1, tol=1e-4, max_iter=2000, class_weight="0.64:1", calibration="sigmoid"),
            RidgeConfig(alpha=10.0, tol=1e-5, max_iter=2000, class_weight="balanced", calibration="isotonic"),
            RidgeConfig(alpha=100.0, class_weight="2:1", calibration="isotonic"),
            RidgeConfig(alpha=0.1, class_weight="0.64:1", calibration="isotonic"),
            RidgeConfig(alpha=100.0, tol=1e-3, class_weight="2:1", calibration="sigmoid"),
        ]
        best, report = grid_search(X, z, space=space)
        best_ref, report_ref = _grid_search_reference(X, z, space)
        assert best == best_ref
        assert report == report_ref
        # points that differ only in tol/max_iter tie
        scores = [row["minority_f1"] for row in report]
        assert scores[1] == scores[3] and scores[0] == scores[4]

    def test_separable_ties_keep_first_point(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(60, 3))
        z = (X[:, 0] > 0).astype(int)
        X[:, 0] += np.where(z == 1, 2.0, -2.0)
        space = [
            RidgeConfig(alpha=100.0, class_weight="1:0.5", calibration="isotonic"),
            RidgeConfig(alpha=10.0, tol=1e-3, class_weight="2:1", calibration="sigmoid"),
            RidgeConfig(alpha=0.1, class_weight="balanced", calibration="sigmoid"),
            RidgeConfig(alpha=10.0, class_weight="2:1", calibration="sigmoid"),
        ]
        best, report = grid_search(X, z, space=space)
        # distinct configurations tie at a perfect score after a worse first point
        assert [row["minority_f1"] for row in report][1:] == [1.0, 1.0, 1.0]
        assert report[0]["minority_f1"] < 1.0
        assert (best, report) == _grid_search_reference(X, z, space)
        assert best == space[1]

    def test_distinct_configs_of_default_grid(self):
        keys = distinct_configs(default_grid())
        assert len(keys) == len(ALPHA_GRID) * len(CLASS_WEIGHT_GRID) * len(CALIBRATION_GRID) == 56
        assert keys[0] == (ALPHA_GRID[0], CLASS_WEIGHT_GRID[0], CALIBRATION_GRID[0])

    def test_one_ridge_solve_per_alpha_weight_and_fold(self, monkeypatch):
        calls = {"ridge": 0, "calibrators": 0}
        ridge, platt, isotonic = trainer.fit_ridge_weighted, trainer.fit_platt, trainer.fit_isotonic

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(trainer, "fit_ridge_weighted", counted(ridge, "ridge"))
        monkeypatch.setattr(trainer, "fit_platt", counted(platt, "calibrators"))
        monkeypatch.setattr(trainer, "fit_isotonic", counted(isotonic, "calibrators"))
        rng = np.random.default_rng(18)
        X = rng.normal(size=(60, 3))
        z = (X[:, 0] + rng.normal(size=60) > 0).astype(int)
        _, report = grid_search(X, z)
        assert len(report) == 672
        # 4 alpha x 7 class weights x 3 outer x 3 inner folds
        assert calls["ridge"] == len(ALPHA_GRID) * len(CLASS_WEIGHT_GRID) * 3 * 3 == 252
        # both calibrators per ridge fit
        assert calls["calibrators"] == 2 * 252

    def test_minority_f1_definition(self):
        decisions = np.array([True, True, False, False])
        z = np.array([1, 0, 0, 1])
        # escalations predict z=0: tp=1 (idx2), fp=1 (idx3), fn=1 (idx1)
        assert minority_f1(decisions, z) == pytest.approx(0.5)


class TestPredictScore:
    def _gate(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(150, 2))
        z = (X[:, 0] + 0.3 * rng.normal(size=150) > 0).astype(int)
        return cross_fit_calibrated(X, z, RidgeConfig(alpha=0.1), seed=42, feature_names=["f0", "f1"]), X, z

    def test_deep_regions(self):
        gate, X, z = self._gate()
        assert predict_score(gate, ["f0", "f1"], np.array([[4.0, 0.0]]))[0] > 0.9
        assert predict_score(gate, ["f0", "f1"], np.array([[-4.0, 0.0]]))[0] < 0.1

    def test_permuted_columns_identical(self):
        gate, X, z = self._gate()
        direct = predict_score(gate, ["f0", "f1"], X[:5])
        permuted = predict_score(gate, ["f1", "f0"], X[:5, [1, 0]])
        assert np.array_equal(direct, permuted)

    def test_name_mismatch_raises(self):
        gate, X, z = self._gate()
        with pytest.raises(FeatureMismatch):
            predict_score(gate, ["f0", "other"], X[:5])

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=2))
    def test_scores_in_unit_interval(self, row):
        gate, _, _ = self._gate()
        s = predict_score(gate, ["f0", "f1"], np.array([row]))
        assert 0.0 <= s[0] <= 1.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(90, 3))
        z = (X[:, 1] > 0).astype(int)
        gate = cross_fit_calibrated(
            X, z, RidgeConfig(calibration="isotonic"), seed=42, feature_names=["a", "b", "c"]
        )
        gate.tau_star = 0.5
        path = tmp_path / "model.json"
        save_gate(gate, path)
        loaded = load_gate(path)
        assert gate_to_dict(loaded) == gate_to_dict(gate)
        assert np.array_equal(loaded.predict_matrix(X), gate.predict_matrix(X))

    def test_tamper_detected(self, tmp_path):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(90, 2))
        z = (X[:, 0] > 0).astype(int)
        gate = cross_fit_calibrated(X, z, RidgeConfig(), seed=42, feature_names=["a", "b"])
        path = tmp_path / "model.json"
        save_gate(gate, path)
        doc = json.loads(path.read_text())
        doc["tau_star"] = 0.66
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="hash"):
            load_gate(path)

    def test_identity_fallback_round_trips(self):
        gate_dict = {
            "version": 1,
            "feature_names": ["x"],
            "config": {"alpha": 1.0, "tol": 1e-6, "max_iter": 1000, "class_weight": "1:1", "calibration": "sigmoid"},
            "tau_star": None,
            "scaler": {"mean": [0.0], "std": [1.0]},
            "folds": [{"w": [1.0], "b": 0.0, "calibrator": {"kind": "identity"}}] * 3,
        }
        gate = gate_from_dict(gate_dict)
        assert isinstance(gate.folds[0].calibrator, IdentityCalibrator)
