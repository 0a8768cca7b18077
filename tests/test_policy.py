import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppgate.policy import (
    ConfusionCounts,
    CostModel,
    PolicyResult,
    check_ratio,
    confusion,
    cost_ratio_sensitivity,
    decisions_at,
    expected_cost,
    policy_report,
    sweep_counts,
    sweep_threshold,
    tau_grid,
)
from tests.policy_reference import always_trust_cost


def _sweep_threshold_reference(scores, z, m, grid=None):
    """The loop `sweep_threshold` replaced: recount the split at every grid
    point and keep the least (cost, escalations, tau), the first on a tie."""
    if grid is None:
        grid = tau_grid()
    if len(grid) == 0:
        raise ValueError("empty threshold grid")
    s = np.asarray(scores, dtype=float)
    best = None
    for tau in grid:
        counts = confusion(s >= tau, z)
        key = (expected_cost(counts, m), counts.escalations, float(tau))
        if best is None or key < best[0]:
            best = (key, counts)
    (cost, _, tau_star), counts = best
    return PolicyResult(tau_star=tau_star, expected_cost=cost, counts=counts)


# Scores on a coarse lattice tie often, hit 0 and 1 exactly, and land on
# grid points, where `s >= tau` decides the boundary.
_LATTICE = sorted({k / 20 for k in range(21)} | set(tau_grid()[::7].tolist()))
_SCORE = st.one_of(st.sampled_from(_LATTICE), st.just(float("nan")), st.floats(0, 1))


@st.composite
def _sweep_cases(draw):
    scores = draw(st.lists(_SCORE, max_size=40))
    if draw(st.booleans()):
        z = [draw(st.integers(0, 1))] * len(scores)
    else:
        z = draw(st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores)))
    grid = draw(
        st.one_of(
            st.none(),
            st.permutations(tau_grid().tolist()).map(np.array),
            st.lists(st.sampled_from(_LATTICE), min_size=1, max_size=25).map(np.array),
        )
    )
    c_mis = draw(st.sampled_from([1.0, 0.5, 3.0, 100.0]))
    ratio = draw(st.sampled_from([0.3, 0.4, 0.64, 0.9]))
    return scores, z, CostModel(c_mis=c_mis, c_rev=ratio * c_mis), grid


class Decision(str, enum.Enum):
    TRUST = "trust"
    ESCALATE = "escalate"


def route(score: float, tau: float) -> Decision:
    """Scalar reference for decisions_at: trust iff score >= tau (boundary
    inclusive), for a score that must lie in [0, 1]."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score} outside [0, 1]")
    return Decision.TRUST if score >= tau else Decision.ESCALATE


def _agrees(score: float, tau: float) -> bool:
    return bool(decisions_at([score], tau)[0]) == (route(score, tau) is Decision.TRUST)


class TestRoute:
    def test_boundary_inclusive(self):
        assert route(0.5, 0.5) is Decision.TRUST
        assert _agrees(0.5, 0.5)

    def test_below_escalates(self):
        assert route(0.49, 0.5) is Decision.ESCALATE
        assert _agrees(0.49, 0.5)

    def test_top_of_range(self):
        assert route(1.0, 0.70) is Decision.TRUST
        assert _agrees(1.0, 0.70)

    def test_score_validated(self):
        with pytest.raises(ValueError):
            route(1.2, 0.5)


class TestConfusion:
    def test_all_trust_all_correct(self):
        c = confusion([True] * 5, [1] * 5)
        assert (c.tp, c.fp, c.tn, c.fn) == (5, 0, 0, 0)

    def test_all_escalate_all_incorrect(self):
        c = confusion([False] * 4, [0] * 4)
        assert (c.tp, c.fp, c.tn, c.fn) == (0, 0, 4, 0)

    def test_enumeration(self):
        c = confusion([True, True, False, False], [1, 0, 0, 1])
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion([True], [1, 0])

    @given(st.integers(1, 8), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_stacked_rows_counted_alone(self, k, n, seed):
        rng = np.random.default_rng(seed)
        z = rng.integers(0, 2, size=n)
        trusted = rng.random((k, n)) < 0.6
        c = confusion(trusted, z)
        assert c.tp.shape == (k,)
        rows = zip(c.tp.tolist(), c.fp.tolist(), c.tn.tolist(), c.fn.tolist())
        assert [ConfusionCounts(*row) for row in rows] == [confusion(row, z) for row in trusted]

    def test_one_row_counts_are_ints(self):
        c = confusion(np.array([True, False]), np.array([1, 1]))
        assert [type(v) for v in (c.tp, c.fp, c.tn, c.fn)] == [int] * 4

    def test_stacked_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion([[True, False], [False, False]], [1, 0, 1])

    @pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan")])
    def test_non_binary_labels_rejected(self, bad):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            confusion([True, False, True], [1, 0, bad])


class TestCostModel:
    @pytest.mark.parametrize(
        "c_mis, c_rev",
        [(0.0, 0.64), (1.0, -0.64), (float("nan"), 0.64), (1.0, float("nan")), (float("inf"), 0.64), (1.0, float("inf"))],
    )
    def test_costs_must_be_positive_and_finite(self, c_mis, c_rev):
        with pytest.raises(ValueError, match="^costs must be positive"):
            CostModel(c_mis=c_mis, c_rev=c_rev)

    @pytest.mark.parametrize("r", [-1.0, -1e-12, float("nan"), float("inf"), float("-inf")])
    def test_ratio_must_be_finite_and_not_negative(self, r):
        with pytest.raises(ValueError, match="^sensitivity ratio must be finite and >= 0"):
            check_ratio(r, "sensitivity ratio")
        with pytest.raises(ValueError, match="^cost ratio must be finite and >= 0"):
            cost_ratio_sensitivity(ConfusionCounts(tp=1, fp=2, tn=5, fn=3), (0.64, r))


class TestExpectedCost:
    def test_direct_substitution(self):
        c = ConfusionCounts(tp=0, fp=2, tn=3, fn=1)
        m = CostModel(c_mis=100, c_rev=64)
        assert expected_cost(c, m) == 200 - 108 + 64 == 156

    def test_trust_all_reduces_to_always_trust(self):
        z = [1, 0, 0, 1, 1]
        m = CostModel(c_mis=100, c_rev=64)
        c = confusion([True] * 5, z)
        assert expected_cost(c, m) == always_trust_cost(z, m) == 200

    def test_escalate_all(self):
        z = [1, 0, 0, 1, 1]
        m = CostModel(c_mis=100, c_rev=64)
        c = confusion([False] * 5, z)
        assert expected_cost(c, m) == 64 * 5 - 100 * 2

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=100),
    )
    def test_absolute_cost_minus_avoided_misses(self, tp, fp, tn, fn, c_mis, c_rev):
        c = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        m = CostModel(c_mis=c_mis, c_rev=c_rev)
        absolute = c_mis * fp + c_rev * (tn + fn)
        assert expected_cost(c, m) == absolute - c_mis * tn
        # not relative to always trusting, which costs c_mis * (fp + tn)
        assert expected_cost(c, m) - (absolute - c_mis * (fp + tn)) == c_mis * fp

    def test_always_trust_no_errors(self):
        assert always_trust_cost([1, 1, 1], CostModel()) == 0.0


class TestTauGrid:
    def test_default_has_71_points(self):
        grid = tau_grid()
        assert len(grid) == 71
        assert grid[0] == 0.35 and grid[-1] == 0.70
        assert grid[11] == 0.405

    def test_single_point_when_range_is_empty(self):
        assert tau_grid(0.5, 0.5, 0.01).tolist() == [0.5]

    def test_step_that_overshoots_hi_is_not_taken(self):
        assert tau_grid(0.35, 0.70, 0.4).tolist() == [0.35]
        assert tau_grid(0.4, 0.9, 0.3).tolist() == [0.4, 0.7]
        # sensitivity's default r grid keeps its 11 points
        assert len(tau_grid(0.4, 0.9, 0.05)) == 11 and tau_grid(0.4, 0.9, 0.05)[-1] == 0.9
        # a hi of ten decimals, which rounding to nine would overshoot
        assert tau_grid(0.0, 0.1234567896, 0.1234567896).tolist() == [0.0, 0.1234567896]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 1000))
    def test_never_steps_past_hi(self, a, b, k):
        # the thousandths a range or step flag is usually written in
        lo, hi = sorted((a / 1000, b / 1000))
        step = k / 1000
        grid = tau_grid(lo, hi, step)
        assert grid[0] == lo and (grid <= hi).all()
        assert hi - grid[-1] < step

    @pytest.mark.parametrize(
        "lo, hi, step",
        [
            (0.7, 0.35, 0.005),
            (0.35, 0.7, -0.005),
            (0.35, 0.7, 0.0),
            (0.35, 0.7, float("nan")),
            (0.35, 0.7, float("inf")),
            (0.0, float("inf"), 0.005),
            (float("-inf"), 0.7, 0.005),
            (float("nan"), 0.7, 0.005),
            # more points than MAX_GRID_POINTS, refused before any is built
            (0.35, 0.7, 1e-9),
            (0.35, 0.7, 5e-324),
            (0.0, 1.0, 1e-6),  # one point more than the cap
        ],
    )
    def test_invalid_grid_rejected(self, lo, hi, step):
        with pytest.raises(ValueError, match="step > 0 and lo <= hi"):
            tau_grid(lo, hi, step)


class TestSweep:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty threshold grid"):
            sweep_threshold([0.4, 0.6], [0, 1], CostModel(), np.array([]))

    @pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan")])
    def test_non_binary_labels_rejected(self, bad):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            sweep_threshold([0.4, 0.5, 0.6], [1, 0, bad], CostModel())

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            sweep_threshold([0.4, 0.6], [1], CostModel())

    @given(_sweep_cases())
    @settings(max_examples=300, deadline=None)
    def test_one_pass_equals_reference_loop(self, case):
        scores, z, m, grid = case
        result = sweep_threshold(scores, z, m, grid)
        reference = _sweep_threshold_reference(scores, z, m, grid)
        assert result == reference
        assert repr(result.expected_cost) == repr(reference.expected_cost)

    @given(_sweep_cases())
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_confusion_at_every_tau(self, case):
        scores, z, _, grid = case
        taus = tau_grid() if grid is None else grid
        counts = sweep_counts(scores, z, taus)
        columns = (counts.tp, counts.fp, counts.tn, counts.fn)
        assert all(np.asarray(v).shape == (len(taus),) and np.asarray(v).dtype.kind == "i" for v in columns)
        for j, tau in enumerate(taus):
            at_tau = ConfusionCounts(*(int(v[j]) for v in columns))
            assert at_tau == confusion(decisions_at(scores, tau), z)
            assert at_tau.total == len(scores)

    def test_hand_swept_example(self):
        m = CostModel(c_mis=1.0, c_rev=0.64)
        result = sweep_threshold([0.4, 0.5, 0.6], [0, 1, 1], m)
        assert result.tau_star == 0.405
        assert result.expected_cost == pytest.approx(-0.36)
        assert result.counts.escalations == 1

    def test_all_scores_equal_tie_rule(self):
        m = CostModel(c_mis=1.0, c_rev=0.64)
        result = sweep_threshold([0.5] * 4, [1, 1, 1, 1], m)
        # trusting everything is free; fewest escalations then lowest tau
        assert result.tau_star == 0.35
        assert result.expected_cost == 0.0
        assert result.counts.escalations == 0

    def test_all_correct_lowest_grid_point(self):
        m = CostModel()
        result = sweep_threshold([0.2, 0.6, 0.9], [1, 1, 1], m)
        assert result.tau_star == 0.35

    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=40),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_sweep_optimality_exhaustive(self, scores, seed):
        rng = np.random.default_rng(seed)
        z = rng.integers(0, 2, size=len(scores))
        m = CostModel(c_mis=3.0, c_rev=1.92)
        result = sweep_threshold(scores, z, m)
        for tau in tau_grid():
            c = confusion(decisions_at(scores, tau), z)
            assert result.expected_cost <= expected_cost(c, m) + 1e-12

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=30))
    def test_escalation_monotonicity(self, scores):
        z = [1] * len(scores)
        grid = tau_grid()
        escalations = [confusion(decisions_at(scores, t), z).escalations for t in grid]
        assert all(a <= b for a, b in zip(escalations, escalations[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=200)
        z = rng.integers(0, 2, size=200)
        m = CostModel()
        a = sweep_threshold(scores, z, m)
        b = sweep_threshold(scores, z, m)
        assert a == b


class TestSensitivity:
    def test_linear_in_ratio(self):
        counts = ConfusionCounts(tp=0, fp=0, tn=1, fn=1)
        curve = {row["r"]: row["relative_cost"] for row in cost_ratio_sensitivity(counts, (0.4, 0.64, 0.9))}
        assert curve[0.4] == pytest.approx(-0.2)
        assert curve[0.64] == pytest.approx(0.28)
        assert curve[0.9] == pytest.approx(0.8)

    def test_constant_when_no_escalations(self):
        counts = ConfusionCounts(tp=5, fp=3, tn=0, fn=0)
        curve = cost_ratio_sensitivity(counts, (0.4, 0.64, 0.9))
        assert all(row["relative_cost"] == 3 for row in curve)

    def test_unit_ratio(self):
        counts = ConfusionCounts(tp=1, fp=2, tn=5, fn=3)
        [row] = cost_ratio_sensitivity(counts, (1.0,))
        assert row == {"r": 1.0, "relative_cost": counts.fp + counts.fn}

    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=500),
    )
    def test_affine_slope_is_escalations(self, fp, tn, fn):
        counts = ConfusionCounts(tp=0, fp=fp, tn=tn, fn=fn)
        curve = cost_ratio_sensitivity(counts, (0.4, 0.5, 0.9))
        slope = (curve[2]["relative_cost"] - curve[0]["relative_cost"]) / (0.9 - 0.4)
        assert slope == pytest.approx(tn + fn, abs=1e-6)

    def test_consistency_with_main_cost(self):
        counts = ConfusionCounts(tp=10, fp=4, tn=7, fn=2)
        m = CostModel(c_mis=100, c_rev=64)
        [row] = cost_ratio_sensitivity(counts, (m.ratio,))
        assert row["relative_cost"] == pytest.approx(expected_cost(counts, m) / m.c_mis, abs=1e-9)

    def test_zero_ratio_is_priced(self):
        # review is free at r = 0, which CostModel rejects but the curve prices
        counts = ConfusionCounts(tp=1, fp=2, tn=5, fn=3)
        assert cost_ratio_sensitivity(counts, (0,)) == [{"r": 0.0, "relative_cost": 2 - 5}]


class TestOneObjective:
    @given(_sweep_cases())
    @settings(max_examples=200, deadline=None)
    def test_sweep_and_unit_curve_price_with_expected_cost(self, case):
        scores, z, m, grid = case
        result = sweep_threshold(scores, z, m, grid)
        assert result.expected_cost == expected_cost(result.counts, m)
        # the curve is C at c_mis = 1 and c_rev = r, so at r = m.ratio with
        # c_mis = 1 it is exactly the operating point's cost
        unit = CostModel(c_mis=1.0, c_rev=m.ratio)
        [row] = cost_ratio_sensitivity(result.counts, (unit.ratio,))
        assert row["relative_cost"] == expected_cost(result.counts, unit)
        assert repr(row["relative_cost"]) == repr(expected_cost(result.counts, unit))


class TestPolicyReport:
    def test_shape(self):
        m = CostModel()
        result = sweep_threshold([0.2, 0.6, 0.9], [0, 1, 1], m)
        report = policy_report(result, m)
        assert set(report) == {
            "tau_star",
            "expected_cost",
            "always_trust_cost",
            "counts",
            "escalations",
            "escalation_ratio",
            "cost_model",
            "sensitivity",
        }
        assert [s["r"] for s in report["sensitivity"]] == [0.4, 0.64, 0.9]

    @given(
        st.lists(st.floats(0, 1), min_size=1, max_size=30),
        st.integers(0, 2**31 - 1),
        st.floats(0.1, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_trust_cost_from_counts(self, scores, seed, c_mis):
        z = np.random.default_rng(seed).integers(0, 2, size=len(scores))
        m = CostModel(c_mis=c_mis, c_rev=0.64 * c_mis)
        report = policy_report(sweep_threshold(scores, z, m), m)
        assert report["always_trust_cost"] == always_trust_cost(z, m)
