import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lppgate import trainer
from lppgate.evaluation import per_class_f1
from lppgate.policy import confusion
from lppgate.trainer import (
    ALPHA_GRID,
    CALIBRATION_GRID,
    CLASS_WEIGHT_GRID,
    MAX_ITER_GRID,
    TOL_GRID,
    DegenerateFold,
    FeatureMismatch,
    IdentityCalibrator,
    NonConvergence,
    RidgeConfig,
    SigmoidCalibrator,
    SingularSystem,
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
    predict_score,
    resolve_class_weights,
    save_gate,
    standardize_apply,
    standardize_fit,
    stratified_kfold_indices,
)
from tests.ridge_oracle import fit_ridge_lsqr, ridge_objective
from tests.trainer_reference import fit_platt_reference, fit_ridge_weighted_reference, predict_score_reference


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
        [(w, b)] = fit_ridge_weighted(X, z, alphas=[2.0])
        assert w[0] == pytest.approx(0.25, abs=1e-12)
        assert b == pytest.approx(0.5, abs=1e-12)

    def test_huge_alpha_shrinks_to_weighted_mean(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        z = rng.integers(0, 2, size=40)
        [(w, b)] = fit_ridge_weighted(X, z, weights=(2.0, 1.0), alphas=[1e9])
        assert np.linalg.norm(w) < 1e-6
        omega = np.where(z == 1, 1.0, 2.0)
        assert b == pytest.approx(float(np.sum(omega * z) / omega.sum()), abs=1e-6)

    def test_duplicated_rows_same_solution(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(25, 4))
        z = rng.integers(0, 2, size=25)
        [(w1, b1)] = fit_ridge_weighted(X, z, alphas=[3.0])
        [(w2, b2)] = fit_ridge_weighted(np.vstack([X, X]), np.concatenate([z, z]), alphas=[3.0])
        # duplicating rows scales the data term by 2; match by scaling alpha
        [(w3, b3)] = fit_ridge_weighted(np.vstack([X, X]), np.concatenate([z, z]), alphas=[6.0])
        assert np.allclose(w1, w3, atol=1e-9) and b1 == pytest.approx(b3, abs=1e-9)
        assert not np.allclose(w1, w2)  # alpha fixed shifts solution

    def test_finite_difference_gradient_at_optimum(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 5))
        z = rng.integers(0, 2, size=60)
        weights = (1.5, 1.0)
        alpha = 4.0
        [(w, b)] = fit_ridge_weighted(X, z, weights, [alpha])
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
            np.linalg.norm(fit_ridge_weighted(X, z, alphas=[a])[0][0]) for a in (0.1, 1.0, 10.0, 100.0)
        ]
        assert all(norms[i] >= norms[i + 1] - 1e-12 for i in range(len(norms) - 1))

    def test_closed_form_agrees_with_lsqr(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = rng.normal(size=(80, 7))
            z = rng.integers(0, 2, size=80)
            [(w1, b1)] = fit_ridge_weighted(X, z, weights=(0.64, 1.0), alphas=[1.0])
            w2, b2 = fit_ridge_lsqr(X, z, weights=(0.64, 1.0), alpha=1.0)
            assert np.allclose(w1, w2, atol=1e-6)
            assert b1 == pytest.approx(b2, abs=1e-6)

    def test_joint_weight_alpha_scaling_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        z = rng.integers(0, 2, size=40)
        [(w1, b1)] = fit_ridge_weighted(X, z, weights=(0.5, 1.0), alphas=[2.0])
        [(w2, b2)] = fit_ridge_weighted(X, z, weights=(1.5, 3.0), alphas=[6.0])
        assert np.allclose(w1, w2, atol=1e-9)
        assert b1 == pytest.approx(b2, abs=1e-9)

    def test_balanced_weights(self):
        z = np.array([0, 0, 1, 1, 1, 1])
        w0, w1 = resolve_class_weights("balanced", z)
        assert w0 == pytest.approx(6 / (2 * 2))
        assert w1 == pytest.approx(6 / (2 * 4))


def _exact_sigmoid(x: float):
    import mpmath as mp

    with mp.workprec(200):
        return 1 / (1 + mp.exp(-mp.mpf(x)))


def _close_to_exact(value: float, exact) -> bool:
    """Within 1e-15 relative where the exact value is a normal float, and
    within 1e-300 absolute below that."""
    import mpmath as mp

    with mp.workprec(200):
        error = abs(mp.mpf(float(value)) - exact)
        if exact >= np.finfo(float).tiny:
            return error <= 1e-15 * exact
        return error <= 1e-300


class TestSigmoid:
    @given(st.floats(min_value=-745.0, max_value=745.0))
    @example(-745.0)
    @example(-709.79)  # exp(-x) overflows from here down
    @example(-708.5)  # the exact value is subnormal from here down
    @example(-36.8)
    @example(0.0)
    @example(36.8)
    @example(745.0)
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_value_and_scipy(self, x):
        import mpmath as mp
        from scipy.special import expit

        exact = _exact_sigmoid(x)
        ours = trainer._sigmoid(np.float64(x))
        assert _close_to_exact(ours, exact)
        assert trainer._sigmoid(np.array([x]))[0] == ours
        assert _close_to_exact(expit(x), exact)
        assert _close_to_exact(ours, mp.mpf(expit(x)))

    def test_extremes_are_exact_and_silent(self):
        x = np.array([-np.inf, -1e308, 1e308, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert trainer._sigmoid(x).tolist() == [0.0, 0.0, 1.0, 1.0]
            assert [float(trainer._sigmoid(v)) for v in x] == [0.0, 0.0, 1.0, 1.0]
            assert np.isnan(trainer._sigmoid(np.array([np.nan]))).all()
            assert np.isnan(trainer._sigmoid(np.nan))


class TestPlatt:
    def test_symmetric_two_point_solution(self):
        # gradient tolerance 1e-9 pins the parameters to ~1e-6
        (cal,) = fit_platt([[-1.0, 1.0]], [[0, 1]])
        assert cal.a == pytest.approx(math.log(2), abs=1e-6)
        assert cal.b == pytest.approx(0.0, abs=1e-6)

    def test_all_same_label_near_flat(self):
        (cal,) = fit_platt([[0.1, 0.4, 0.9]], [[1, 1, 1]])
        target = 4.0 / 5.0  # (N+ + 1)/(N+ + 2)
        preds = cal.predict(np.array([0.1, 0.4, 0.9]))
        assert np.all(np.abs(preds - target) < 0.02)

    def test_constant_scores_pick_zero_slope(self):
        (cal,) = fit_platt([[0.3, 0.3, 0.3, 0.3]], [[0, 1, 1, 0]])
        assert cal.a == 0.0
        # sigmoid(b) equals the mean smoothed target
        t = np.array([1 / 4, 3 / 4, 3 / 4, 1 / 4]).mean()
        assert cal.predict(np.array([0.3]))[0] == pytest.approx(t, abs=1e-9)

    def test_order_preserved_when_slope_positive(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(size=100)
        z = (s + rng.normal(scale=0.2, size=100) > 0.5).astype(int)
        (cal,) = fit_platt([s], [z])
        assert cal.a > 0
        p = cal.predict(np.sort(s))
        assert np.all(np.diff(p) >= 0)


def _outcome(fn, *args, **kwargs):
    """A fit's result in comparable form: the exact (w, b) or (a, b) bits
    (a list of them for a list of fits), or the exception's type and
    message."""
    try:
        result = fn(*args, **kwargs)
    except (NonConvergence, SingularSystem) as exc:
        return type(exc), str(exc)
    return [_bits(r) for r in result] if isinstance(result, list) else _bits(result)


def _floating_point_error(fn, *args, **kwargs) -> bool:
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            fn(*args, **kwargs)
        except FloatingPointError:
            return True
        except NonConvergence:
            pass
    return False


def _bits(result):
    if isinstance(result, NonConvergence):
        return type(result), str(result)
    if isinstance(result, SigmoidCalibrator):
        return repr((result.a, result.b))
    w, b = result
    return w.tobytes(), repr(b)


# score vectors whose Hessian is exactly singular at the first step:
# r*s and r*s*s underflow to 0 for the subnormal 5e-324
_SINGULAR_SCORES = st.lists(st.sampled_from([0.0, 5e-324]), min_size=0, max_size=7).map(
    lambda rest: [0.0, 5e-324, *rest]
)


@st.composite
def _platt_fit(draw, n):
    kind = draw(st.sampled_from(["random", "constant", "separable", "singular"]))
    if kind == "singular":
        s = draw(_SINGULAR_SCORES)
        return s, [1] * len(s)
    z = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if kind == "random":
        s = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    elif kind == "constant":
        s = [draw(st.floats(-5.0, 5.0))] * n
    else:  # labels split by a score threshold
        s = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n, unique=True)))
        cut = draw(st.integers(1, n - 1))
        z = [0] * cut + [1] * (n - cut)
    return s, z


@st.composite
def _platt_fit_sets(draw):
    """1-10 fits whose lengths repeat, so some share a lockstep group."""
    lengths = draw(st.lists(st.sampled_from([2, 3, 3, 5, 9, 40]), min_size=1, max_size=10))
    return [draw(_platt_fit(n)) for n in lengths]


class TestBatchedFitsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(_platt_fit_sets(), st.sampled_from([100, 100, 8, 2, 1]))
    def test_platt_batch_equals_per_fit_loop(self, fits, max_iter):
        scores, labels = [s for s, _ in fits], [z for _, z in fits]
        # a batch meets a floating-point error (a RuntimeWarning, which the
        # suite's filterwarnings turns into an error) exactly when one of its
        # fits alone does
        assert _floating_point_error(fit_platt, scores, labels, max_iter=max_iter) == any(
            _floating_point_error(fit_platt_reference, s, z, max_iter=max_iter) for s, z in fits
        )
        with np.errstate(all="ignore"):
            results = fit_platt(scores, labels, max_iter=max_iter)
            assert len(results) == len(fits)
            for (s, z), result in zip(fits, results):
                assert type(result) in (SigmoidCalibrator, NonConvergence)
                assert _bits(result) == _outcome(fit_platt_reference, s, z, max_iter=max_iter)

    def test_singular_hessian_fails_only_its_own_fit(self):
        rng = np.random.default_rng(19)
        good = [(rng.normal(size=n), rng.integers(0, 2, size=n)) for n in (2, 3, 3, 2)]
        fits = [good[0], ([0.0, 5e-324], [1, 1]), *good[1:], ([0.0, 5e-324, 0.0], [1, 1, 1])]
        results = fit_platt([s for s, _ in fits], [z for _, z in fits])
        assert [str(r) for r in results if isinstance(r, NonConvergence)] == ["singular Hessian in Platt fit"] * 2
        assert isinstance(results[1], NonConvergence) and isinstance(results[-1], NonConvergence)
        for (s, z), result in zip(fits, results):
            assert _bits(result) == _outcome(fit_platt_reference, s, z)

    def test_each_failed_platt_fit_warns_and_falls_back(self):
        fits = [(np.array([-1.0, 1.0]), np.array([0, 1])), (np.array([0.0, 5e-324]), np.array([1, 1]))]
        with pytest.warns(UserWarning, match="^Platt calibration fell back to identity: singular Hessian") as caught:
            calibrators = trainer._fit_calibrators("sigmoid", fits)
        assert len(caught) == 1
        assert isinstance(calibrators[0], SigmoidCalibrator)
        assert isinstance(calibrators[1], IdentityCalibrator)

    def test_diverging_platt_fit_falls_back(self):
        # the third Newton step sends a to -inf; another expit(a*s + b)
        # would meet -inf * 0, a RuntimeWarning that the suite turns into
        # an error
        fits = [(np.array([0.0, 0.0, 1.43e-298]), np.array([0, 0, 1]))]
        with pytest.warns(UserWarning, match=r"^Platt calibration fell back to identity: Newton step left \(a, b\) non-finite in Platt fit") as caught:
            calibrators = trainer._fit_calibrators("sigmoid", fits)
        assert len(caught) == 1
        assert calibrators == [IdentityCalibrator()]

    def test_overflowing_platt_hessian_fails_its_fit(self):
        # r * s * s overflows at s = 1e300: a RuntimeWarning, an error here,
        # unless the fit ends on its own as NonConvergence
        scores, labels = np.array([-1e-200, 1e20, 1e300, 1e20, -1.0]), np.array([1, 1, 1, 1, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            [result] = fit_platt([scores], [labels])
        assert _bits(result) == (NonConvergence, "non-finite Hessian in Platt fit")
        assert _bits(result) == _outcome(fit_platt_reference, scores, labels)
        with pytest.warns(UserWarning, match="^Platt calibration fell back to identity: non-finite Hessian") as caught:
            calibrators = trainer._fit_calibrators("sigmoid", [(scores, labels)])
        assert len(caught) == 1
        assert calibrators == [IdentityCalibrator()]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(3, 30),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from([(1.0, 1.0), (0.64, 1.0), (2.0, 1.0), (1.0, 0.5), (0.37, 2.9)]),
        st.lists(st.sampled_from([0.0, 1e-300, 0.1, 1.0, 10.0, 100.0]), min_size=1, max_size=5),
    )
    def test_ridge_alphas_equal_one_solve_each(self, n, d, seed, collinear, weights, alphas):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        if collinear:
            X[:, -1] = 2.0 * X[:, 0]
        z = rng.integers(0, 2, size=n)
        each = [_outcome(fit_ridge_weighted_reference, X, z, weights, a) for a in alphas]
        errors = [e for e in each if isinstance(e[0], type)]
        # a stacked solve fails as a whole when any alpha's system is singular
        assert _outcome(fit_ridge_weighted, X, z, weights, alphas) == (errors[0] if errors else each)
        assert _outcome(lambda *args: fit_ridge_weighted(*args)[0], X, z, weights, [alphas[0]]) == each[0]

    def test_grid_search_batches_its_fits(self, monkeypatch):
        calls = {"ridge": 0, "platt": 0}
        ridge, platt = trainer.fit_ridge_weighted, trainer.fit_platt

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(trainer, "fit_ridge_weighted", counted(ridge, "ridge"))
        monkeypatch.setattr(trainer, "fit_platt", counted(platt, "platt"))
        rng = np.random.default_rng(18)
        X = rng.normal(size=(60, 3))
        z = (X[:, 0] + rng.normal(size=60) > 0).astype(int)
        grid_search(X, z)
        # one Gram per class weight, outer and inner fold; one Platt call
        assert calls == {"ridge": len(CLASS_WEIGHT_GRID) * 3 * 3, "platt": 1}


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
        (cal,) = fit_isotonic([[1.0, 2.0, 3.0]], [[1, 0, 1]])
        assert cal.values.tolist() == pytest.approx([0.5, 0.5, 1.0])

    def test_already_monotone_identity(self):
        (cal,) = fit_isotonic([[0.0, 1.0, 2.0, 3.0]], [[0, 0, 1, 1]])
        assert cal.values.tolist() == pytest.approx([0.0, 0.0, 1.0, 1.0])

    def test_equal_scores_pre_pooled(self):
        (cal,) = fit_isotonic([[0.5, 0.5, 0.5]], [[0, 1, 1]])
        assert cal.knots.tolist() == [0.5]
        assert cal.values.tolist() == pytest.approx([2 / 3])

    def test_left_constant_steps_and_clamp(self):
        (cal,) = fit_isotonic([[0.0, 1.0]], [[0, 1]])
        assert cal.predict(np.array([-1.0, 0.0, 0.5, 1.0, 2.0])).tolist() == [0, 0, 0, 1, 1]

    def test_matches_exact_oracle_on_small_binary_inputs(self):
        for n in range(1, 9):
            for bits in product((0, 1), repeat=n):
                fitted = fit_isotonic([list(range(n))], [list(bits)])[0].values
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
        (cal,) = fit_isotonic([scores], [targets])
        knots, values = _fit_isotonic_reference(scores, targets)
        assert tuple(cal.knots.tolist()) == knots and tuple(cal.values.tolist()) == values
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
        (cal,) = fit_isotonic([scores], [targets])
        knots, values = _fit_isotonic_reference(scores, targets)
        assert tuple(cal.knots.tolist()) == knots
        assert np.allclose(cal.values, values, rtol=1e-12, atol=1e-15)

    @given(
        st.lists(
            st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 0.3, 2.0]), st.integers(0, 1)),
            min_size=1,
            max_size=40,
        )
    )
    def test_dict_round_trip(self, pairs):
        (cal,) = fit_isotonic([[s for s, _ in pairs]], [[y for _, y in pairs]])
        loaded = trainer._calibrator_from_dict(json.loads(json.dumps(cal.to_dict())))
        assert json.dumps(loaded.to_dict()) == json.dumps(cal.to_dict())
        probe = np.array([-2.0, -1.0, -0.0, 0.1, 0.3, 1.0, 2.0, 3.0])
        assert loaded.predict(probe).tobytes() == cal.predict(probe).tobytes()

    def test_empty_input(self):
        # an empty fit has no knots; an empty batch has no fits
        with pytest.raises(ValueError, match="knots"):
            fit_isotonic([[]], [[]])
        assert fit_isotonic([], []) == []

    @pytest.mark.parametrize(
        "knots,values",
        [([], []), ([0.1, 0.2], [0.5]), ([0.5, 0.1], [0.2, 0.8]), ([0.3, 0.3], [0.2, 0.8])],
    )
    def test_malformed_calibrator_rejected_on_construction(self, knots, values):
        # a calibrator is checked where model.json is read
        with pytest.raises(ValueError, match="knots"):
            trainer._calibrator_from_dict({"kind": "isotonic", "knots": knots, "values": values})

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    # few distinct values (signed zeros included) make ties common
                    st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.125, 0.5, 1.0, 3.0]),
                    st.integers(min_value=0, max_value=3),
                ),
                min_size=1,
                max_size=12,
            ),
            max_size=10,
        ),
        st.booleans(),
    )
    def test_batch_matches_scan_reference(self, fits, binary):
        # short fits share lengths often, so most batches stack several rows
        scores = [[s for s, _ in pairs] for pairs in fits]
        targets = [[y % 2 if binary else y for _, y in pairs] for pairs in fits]
        calibrators = fit_isotonic(scores, targets)
        assert len(calibrators) == len(fits)
        for cal, s, y in zip(calibrators, scores, targets):
            knots, values = _fit_isotonic_reference(s, y)
            assert tuple(cal.knots.tolist()) == knots
            assert [math.copysign(1.0, k) for k in cal.knots] == [math.copysign(1.0, k) for k in knots]
            # small-integer targets above 1 are clamped into [0, 1] on construction
            assert cal.values.tobytes() == np.clip(values, 0.0, 1.0).tobytes()

    def test_calibrators_share_no_memory(self):
        rng = np.random.default_rng(3)
        scores = [rng.normal(size=n) for n in (20, 20, 7, 20, 7)]
        targets = [rng.integers(0, 2, size=len(s)) for s in scores]
        calibrators = fit_isotonic(scores, targets)
        arrays = [a for cal in calibrators for a in (cal.knots, cal.values)]
        for i, a in enumerate(arrays):
            assert all(not np.shares_memory(a, b) for b in arrays[i + 1 :])

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40))
    def test_always_non_decreasing(self, targets):
        (cal,) = fit_isotonic([list(range(len(targets)))], [targets])
        assert np.all(np.diff(cal.values) >= -1e-12)


def _stratified_kfold_indices_reference(z, n_splits=3, seed=42):
    """stratified_kfold_indices as a Python deal, one index at a time."""
    zz = np.asarray(z, dtype=int)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(n_splits)]
    for cls in (0, 1):
        idx = np.flatnonzero(zz == cls)
        if len(idx) < n_splits:
            raise DegenerateFold(f"class {cls} has {len(idx)} examples, need >= {n_splits}")
        rng.shuffle(idx)
        for i, value in enumerate(idx):
            folds[i % n_splits].append(int(value))
    return [np.array(sorted(f), dtype=int) for f in folds]


def _folds_or_error(fn, *args):
    try:
        return [(f.dtype, f.tolist()) for f in fn(*args)]
    except DegenerateFold as exc:
        return str(exc)


class TestFoldsAndCrossFit:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 1), max_size=60),
        st.integers(2, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_sliced_deal_equals_reference(self, z, n_splits, seed):
        z = np.array(z, dtype=int)
        folds = _folds_or_error(stratified_kfold_indices, z, n_splits, seed)
        assert folds == _folds_or_error(_stratified_kfold_indices_reference, z, n_splits, seed)
        try:
            splits = trainer._fold_splits(z, seed)
        except DegenerateFold:
            return
        for (train_idx, held_out), fold in zip(splits, _stratified_kfold_indices_reference(z, 3, seed)):
            assert held_out.tolist() == fold.tolist()
            assert train_idx.tolist() == np.setdiff1d(np.arange(len(z)), fold).tolist()

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
        gate = _with_identity_folds(cross_fit_calibrated(X, z, RidgeConfig(calibration="isotonic"), seed=42))
        s = gate.predict_matrix(np.array([[50.0, 0.0, 0.0], [-50.0, 0.0, 0.0]]))
        assert np.all((s >= 0.0) & (s <= 1.0))


def _with_identity_folds(gate):
    """The gate with every fold's calibrator clamp-only: the gate an
    identity calibration would fit, since the ridge weights do not depend
    on the calibration kind."""
    folds = [dataclasses.replace(f, calibrator=IdentityCalibrator()) for f in gate.folds]
    return dataclasses.replace(gate, folds=folds)


def _minority_f1_reference(decisions_trust, z):
    """F1 of the error class (z=0, predicted by escalation), counted by hand."""
    pred0 = ~np.asarray(decisions_trust, dtype=bool)
    actual0 = np.asarray(z, dtype=int) == 0
    tp = int(np.sum(pred0 & actual0))
    denom = 2 * tp + int(np.sum(pred0 & ~actual0)) + int(np.sum(~pred0 & actual0))
    return 2 * tp / denom if denom else 0.0


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
            fold_scores.append(_minority_f1_reference(s >= 0.5, zz[held_out]))
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


@st.composite
def _search_spaces(draw):
    """1-8 points over few (alpha, class weight) pairs, so points repeat up
    to tol/max_iter and an isotonic point often comes before a sigmoid
    point of another pair; a third of the spaces hold sigmoid points only
    and a third isotonic points only."""
    calibrations = draw(st.sampled_from([CALIBRATION_GRID, ("sigmoid",), ("isotonic",)]))
    point = st.builds(
        RidgeConfig,
        alpha=st.sampled_from([0.1, 10.0, 100.0]),
        tol=st.sampled_from(TOL_GRID),
        max_iter=st.sampled_from(MAX_ITER_GRID),
        class_weight=st.sampled_from(["1:1", "0.64:1", "balanced", "2:1"]),
        calibration=st.sampled_from(calibrations),
    )
    return draw(st.lists(point, min_size=1, max_size=8))


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

    @settings(max_examples=60, deadline=None)
    @given(_search_spaces(), st.integers(0, 2**16))
    @example(
        # an isotonic point of (10, balanced) before a sigmoid point of
        # (0.1, 0.64:1), and points that differ only in tol/max_iter
        space=[
            RidgeConfig(alpha=10.0, tol=1e-3, max_iter=3000, class_weight="balanced", calibration="isotonic"),
            RidgeConfig(alpha=0.1, class_weight="0.64:1", calibration="sigmoid"),
            RidgeConfig(alpha=10.0, tol=1e-6, class_weight="balanced", calibration="sigmoid"),
            RidgeConfig(alpha=0.1, tol=1e-4, max_iter=2000, class_weight="0.64:1", calibration="sigmoid"),
            RidgeConfig(alpha=10.0, tol=1e-5, max_iter=2000, class_weight="balanced", calibration="isotonic"),
            RidgeConfig(alpha=100.0, class_weight="2:1", calibration="isotonic"),
            RidgeConfig(alpha=0.1, class_weight="0.64:1", calibration="isotonic"),
            RidgeConfig(alpha=100.0, tol=1e-3, class_weight="2:1", calibration="sigmoid"),
        ],
        seed=16,
    )
    def test_matches_per_point_reference(self, space, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(90, 4))
        z = (X[:, 0] + 0.8 * rng.normal(size=90) > -0.4).astype(int)
        best, report = grid_search(X, z, space=space)
        best_ref, report_ref = _grid_search_reference(X, z, space)
        assert best == best_ref
        assert report == report_ref
        # points that differ only in tol/max_iter tie
        scores = {}
        for cfg, row in zip(space, report):
            assert scores.setdefault((cfg.alpha, cfg.class_weight, cfg.calibration), row["minority_f1"]) == row["minority_f1"]

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

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("calibration", "identity", "calibration must be one of"),
            ("calibration", "platt", "calibration must be one of"),
            ("class_weight", "3:1", "class_weight must be one of"),
            ("class_weight", "Balanced", "class_weight must be one of"),
            ("alpha", 0.0, "alpha must be positive"),
            ("alpha", float("nan"), "alpha must be positive"),
            ("alpha", float("inf"), "alpha must be positive"),
        ],
    )
    def test_config_off_the_grid_refused(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            RidgeConfig(**{field: value})

    def test_distinct_configs_of_default_grid(self):
        keys = distinct_configs(default_grid())
        assert len(keys) == len(ALPHA_GRID) * len(CLASS_WEIGHT_GRID) * len(CALIBRATION_GRID) == 56
        assert keys[0] == (ALPHA_GRID[0], CLASS_WEIGHT_GRID[0], CALIBRATION_GRID[0])

    def test_one_ridge_solve_per_alpha_weight_and_fold(self, monkeypatch):
        calls = {"ridge": 0, "calibrators": 0}
        ridge, platt, isotonic = trainer.fit_ridge_weighted, trainer.fit_platt, trainer.fit_isotonic

        def counted(fn, name, fits_in_call):
            def wrapper(*args, **kwargs):
                calls[name] += fits_in_call(*args)
                return fn(*args, **kwargs)

            return wrapper

        # ridge systems solved (one per alpha) and calibrators fitted
        monkeypatch.setattr(trainer, "fit_ridge_weighted", counted(ridge, "ridge", lambda X, z, w, alpha: np.size(alpha)))
        monkeypatch.setattr(trainer, "fit_platt", counted(platt, "calibrators", lambda scores, z: len(scores)))
        monkeypatch.setattr(trainer, "fit_isotonic", counted(isotonic, "calibrators", lambda scores, z: len(scores)))
        rng = np.random.default_rng(18)
        X = rng.normal(size=(60, 3))
        z = (X[:, 0] + rng.normal(size=60) > 0).astype(int)
        _, report = grid_search(X, z)
        assert len(report) == 672
        # 4 alpha x 7 class weights x 3 outer x 3 inner folds
        assert calls["ridge"] == len(ALPHA_GRID) * len(CLASS_WEIGHT_GRID) * 3 * 3 == 252
        # both calibrators per ridge fit
        assert calls["calibrators"] == 2 * 252

    def test_peak_memory_of_one_search(self):
        # one grid search over 400 x 45 rows, the size of a 1000-item direct
        # corpus's training rows after resampling. tracemalloc's peak in a
        # fresh process was 1.75 MB with one isotonic fit per call and is
        # 2.06 MB with every fit stacked; the bound is the former + 0.5 MB
        rng = np.random.default_rng(0)
        X = rng.standard_normal((400, 45))
        z = (X[:, 0] + rng.standard_normal(400) > -0.85).astype(int)
        tracemalloc.start()
        try:
            grid_search(X, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25e6

    def test_minority_f1_definition(self):
        decisions = np.array([True, True, False, False])
        z = np.array([1, 0, 0, 1])
        # escalations predict z=0: tp=1 (idx2), fp=1 (idx3), fn=1 (idx1)
        assert per_class_f1(confusion(decisions, z))[1] == 0.5
        assert _minority_f1_reference(decisions, z) == 0.5


def _fold_average_alone(triple, X_std):
    """One gate's fold average as it was computed before gates were stacked."""
    stacked = np.stack([f.calibrator.predict(f.raw_scores(X_std)) for f in triple])
    return np.clip(stacked.mean(axis=0), 0.0, 1.0)


class TestFoldAverage:
    @given(
        st.lists(st.lists(st.sampled_from(["sigmoid", "isotonic", "identity"]), min_size=3, max_size=3), min_size=1, max_size=6),
        st.integers(0, 25),
        st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_each_gate_alone(self, kinds, n, seed):
        rng = np.random.default_rng(seed)
        X_std = rng.normal(size=(n, 3))

        def calibrator(kind):
            if kind == "sigmoid":
                return SigmoidCalibrator(a=float(rng.uniform(0.1, 4.0)), b=float(rng.normal()))
            if kind == "isotonic":
                s = rng.normal(size=12)
                return fit_isotonic([s], [(s + rng.normal(size=12) > 0).astype(int)])[0]
            return IdentityCalibrator()

        gates = [
            [trainer.FoldPipeline(rng.normal(size=3), float(rng.normal()), calibrator(k)) for k in triple]
            for triple in kinds
        ]
        stacked = trainer._fold_average(gates, X_std)
        assert stacked.shape == (len(gates), n)
        for row, triple in zip(stacked, gates):
            assert row.tobytes() == _fold_average_alone(triple, X_std).tobytes()

    def test_predict_matrix_is_row_zero(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(90, 3))
        z = (X[:, 0] + rng.normal(size=90) > 0).astype(int)
        gate = cross_fit_calibrated(X, z, RidgeConfig(calibration="isotonic"))
        X_std = standardize_apply(gate.scaler, X)
        assert gate.predict_matrix(X).tobytes() == _fold_average_alone(gate.folds, X_std).tobytes()
        # an empty batch scores to an empty array, as each gate alone does
        assert gate.predict_matrix(X[:0]).shape == (0,)


_KNOTS = (-1.5, -0.25, 0.0, 0.5, 2.0)


@st.composite
def _reference_gates(draw):
    """A three-fold gate over three named features, each fold reading one
    feature as its raw score (a unit weight and a zero bias, 0.0 or -0.0),
    so that a table's values land on isotonic knots exactly and a fold may
    score -0.0; and the table's names in their own order."""
    folds = []
    for _ in range(3):
        kind = draw(st.sampled_from(("isotonic", "sigmoid", "identity")))
        if kind == "isotonic":
            knots = sorted(draw(st.sets(st.sampled_from(_KNOTS), min_size=1)))
            # -0.0 as model.json may hold it: _calibrator_from_dict's clip keeps it
            values = sorted(draw(st.lists(st.sampled_from((-0.0, 0.0, 0.25, 1 / 3, 0.5, 1.0)), min_size=len(knots), max_size=len(knots))))
            calibrator = trainer.IsotonicCalibrator(np.array(knots), np.array(values))
        elif kind == "sigmoid":
            # a = 800 sends a * s + b past -709 for s <= -1: exp overflows to inf, p to 0.0
            calibrator = SigmoidCalibrator(draw(st.sampled_from((0.5, 3.0, 800.0, -2.0))), draw(st.sampled_from((0.0, -1.0, 2.5))))
        else:
            calibrator = IdentityCalibrator()
        w = np.zeros(3)
        w[draw(st.integers(0, 2))] = 1.0
        folds.append(trainer.FoldPipeline(w, draw(st.sampled_from((0.0, -0.0))), calibrator))
    names = ["f0", "f1", "f2"]
    scaler = trainer.Scaler(np.zeros(3), np.ones(3))
    gate = trainer.TrainedGate(scaler, folds, RidgeConfig(), feature_names=list(names), tau_star=0.5)
    return gate, draw(st.permutations(names))


# on a knot, below the first, between and beyond them, and the values an
# identity fold clips or keeps: -0.0, 0.0 and 1.0 exactly
_TABLE_VALUES = st.one_of(
    st.sampled_from(_KNOTS + (-0.0, 1.0, -3.0, -1.0, 3.0, 0.3)),
    st.floats(min_value=-4.0, max_value=4.0),
)


class TestPredictScoreReference:
    @settings(max_examples=300, deadline=None)
    @given(_reference_gates(), st.sampled_from((1, 2, 40)), st.data())
    def test_equals_stack_and_clip(self, gate_and_names, n, data):
        gate, names = gate_and_names
        X = np.array(data.draw(st.lists(st.lists(_TABLE_VALUES, min_size=3, max_size=3), min_size=n, max_size=n)))
        got = predict_score(gate, names, X)
        assert got.tobytes() == predict_score_reference(gate, names, X).tobytes()
        # each row alone, as online routing scores it
        for i in range(n):
            assert predict_score(gate, names, X[i : i + 1]).tobytes() == got[i : i + 1].tobytes()

    def test_trained_gates_equal_stack_and_clip(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(150, 4))
        z = (X[:, 0] + 0.5 * rng.normal(size=150) > 0).astype(int)
        names = ["a", "b", "c", "d"]
        isotonic, sigmoid = (
            cross_fit_calibrated(X, z, RidgeConfig(calibration=calibration), seed=42, feature_names=names)
            for calibration in ("isotonic", "sigmoid")
        )
        for gate in (isotonic, sigmoid, _with_identity_folds(isotonic)):
            shuffled = ["c", "a", "d", "b"]
            table = X[:, [2, 0, 3, 1]]
            assert predict_score(gate, shuffled, table).tobytes() == predict_score_reference(gate, shuffled, table).tobytes()
            for i in range(0, 150, 37):
                row = table[i : i + 1]
                assert predict_score(gate, shuffled, row).tobytes() == predict_score_reference(gate, shuffled, row).tobytes()


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

    def test_shuffled_table_scores_like_aligned_one(self):
        # 45 columns, as extraction gives; each call switches the table order
        rng = np.random.default_rng(7)
        names = [f"family{i % 7}.feature_{i}" for i in range(45)]
        X = rng.normal(size=(120, 45))
        z = (X[:, 3] + 0.5 * rng.normal(size=120) > 0).astype(int)
        gate = cross_fit_calibrated(X, z, RidgeConfig(calibration="isotonic"), seed=42, feature_names=names)
        aligned = predict_score(gate, names, X)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(45)
            shuffled = predict_score(gate, [names[i] for i in perm], X[:, perm])
            assert shuffled.tobytes() == aligned.tobytes()
            assert predict_score(gate, names, X).tobytes() == aligned.tobytes()

    def test_second_gate_never_gets_first_gates_order(self):
        gate, X, z = self._gate()
        swapped = cross_fit_calibrated(
            X[:, [1, 0]], z, RidgeConfig(alpha=0.1), seed=42, feature_names=["f1", "f0"]
        )
        names = ["f0", "f1"]
        # each gate scored on a table already in its own column order
        expected = [
            predict_score(g, g.feature_names, X[:, [names.index(n) for n in g.feature_names]])
            for g in (gate, swapped)
        ]
        for _ in range(2):
            for g, want in zip((gate, swapped), expected):
                assert predict_score(g, names, X).tobytes() == want.tobytes()

    def test_mismatch_message_after_a_cached_order(self):
        gate, X, z = self._gate()
        predict_score(gate, ["f0", "f1"], X[:5])
        with pytest.raises(FeatureMismatch, match=r"missing=\['f1'\], extra=\['other'\]"):
            predict_score(gate, ["f0", "other"], X[:5])
        gate.feature_names = []
        with pytest.raises(FeatureMismatch, match="no recorded feature names"):
            predict_score(gate, ["f0", "f1"], X[:5])

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
        # written whole through a temp file and a rename, in the same format
        assert path.read_text() == json.dumps(gate_to_dict(gate), indent=2, sort_keys=True) + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

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

    @pytest.mark.parametrize(
        "knots,values", [([], []), ([0.1, 0.2], [0.5]), ([0.5, 0.1], [0.2, 0.8])]
    )
    def test_malformed_isotonic_block_rejected_on_load(self, tmp_path, knots, values):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(90, 2))
        z = (X[:, 0] > 0).astype(int)
        gate = cross_fit_calibrated(
            X, z, RidgeConfig(calibration="isotonic"), seed=42, feature_names=["a", "b"]
        )
        doc = gate_to_dict(gate)
        doc["folds"][1]["calibrator"] = {"kind": "isotonic", "knots": knots, "values": values}
        del doc["content_hash"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="knots"):
            load_gate(path)

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda doc: doc["folds"][0]["w"].pop(), "fold 0 'w'"),
            (lambda doc: doc["folds"][2]["w"].append(0.5), "fold 2 'w'"),
            (lambda doc: doc["scaler"]["mean"].pop(), "scaler 'mean'"),
            (lambda doc: doc["scaler"].update(std=[[1.0, 1.0]]), "scaler 'std'"),
            (lambda doc: doc.update(folds=[]), "no 'folds'"),
        ],
        ids=["short-w", "long-w", "short-mean", "nested-std", "no-folds"],
    )
    def test_shapes_that_disagree_rejected_on_load(self, tmp_path, edit, match):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(90, 2))
        z = (X[:, 0] > 0).astype(int)
        doc = gate_to_dict(cross_fit_calibrated(X, z, RidgeConfig(), seed=42, feature_names=["a", "b"]))
        del doc["content_hash"]
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_gate(path)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("calibration", "identity", "calibration must be one of"),
            ("class_weight", "3:1", "class_weight must be one of"),
            ("alpha", float("nan"), "alpha must be positive"),
        ],
    )
    def test_config_off_the_grid_rejected_on_load(self, tmp_path, field, value, match):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(90, 2))
        z = (X[:, 0] > 0).astype(int)
        doc = gate_to_dict(cross_fit_calibrated(X, z, RidgeConfig(), seed=42, feature_names=["a", "b"]))
        del doc["content_hash"]
        doc["config"][field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_gate(path)

    def _unhashed_doc_with_tau(self, tau_star):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(90, 2))
        z = (X[:, 0] > 0).astype(int)
        doc = gate_to_dict(cross_fit_calibrated(X, z, RidgeConfig(), seed=42, feature_names=["a", "b"]))
        del doc["content_hash"]
        doc["tau_star"] = tau_star
        return doc

    @pytest.mark.parametrize(
        "tau_star",
        [True, float("nan"), float("inf"), "0.5", [0.5], 10**400],
        ids=["bool", "nan", "inf", "text", "list", "int-past-float-range"],
    )
    def test_tau_star_neither_null_nor_finite_rejected_on_load(self, tau_star):
        message = f"model artifact tau_star must be null or a finite number, got {tau_star!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gate_from_dict(self._unhashed_doc_with_tau(tau_star))

    @pytest.mark.parametrize(
        "place, value",
        [
            ("b", "0.5"),
            ("b", True),
            ("b", None),
            ("b", float("nan")),
            ("w", "0.5"),
            ("w", False),
            ("mean", "0.5"),
            ("std", True),
            ("std", 10**400),
        ],
        ids=["b-text", "b-bool", "b-null", "b-nan", "w-text", "w-bool", "mean-text", "std-bool", "std-int-past-float-range"],
    )
    def test_fold_and_scaler_values_that_are_not_finite_numbers_rejected_on_load(self, place, value):
        doc = self._unhashed_doc_with_tau(None)
        if place == "b":
            doc["folds"][1]["b"] = value
            key = "fold 1 'b'"
        elif place == "w":
            doc["folds"][2]["w"][1] = value
            key = "fold 2 'w' entry"
        else:
            doc["scaler"][place][0] = value
            key = f"scaler '{place}' entry"
        message = f"model artifact {key} must be a finite number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gate_from_dict(doc)

    def test_fold_and_scaler_ints_load_as_floats(self):
        doc = self._unhashed_doc_with_tau(None)
        doc["folds"][0]["b"], doc["folds"][0]["w"][0], doc["scaler"]["std"][1] = 0, -2, 3
        gate = gate_from_dict(doc)
        assert (type(gate.folds[0].b), gate.folds[0].b) == (float, 0.0)
        assert gate.folds[0].w.dtype == gate.scaler.std.dtype == np.float64
        assert (gate.folds[0].w[0], gate.scaler.std[1]) == (-2.0, 3.0)

    @pytest.mark.parametrize("tau_star", [None, -3.5, 0, 2, 1.5e300], ids=str)
    def test_any_finite_tau_star_loads(self, tau_star):
        assert gate_from_dict(self._unhashed_doc_with_tau(tau_star)).tau_star == tau_star

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
