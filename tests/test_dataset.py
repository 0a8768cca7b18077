import tracemalloc
import warnings
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppgate import dataset
from lppgate.dataset import (
    InsufficientNegatives,
    LabeledRows,
    RatioUnreachableWarning,
    ResampleConfig,
    SplitSpec,
    label_correctness,
    random_undersample,
    resample,
    stratified_split,
    tomek_links,
)
from lppgate.schema import OutcomeLabel
from lppgate.trainer import standardize_apply, standardize_fit


@dataclass
class Example:
    """One labelled row in the per-row form the reference oracles take."""

    item_id: str
    values: np.ndarray
    z: int
    is_abstention: bool


def ex(item_id, value, z, abstain=False):
    """One-feature example with controlled correctness."""
    if abstain:
        outcome, truth = OutcomeLabel.INCONCLUSIVE_EVIDENCE, 1
    elif z == 1:
        outcome, truth = OutcomeLabel.YES, 1
    else:
        outcome, truth = OutcomeLabel.YES, 0
    assert label_correctness(outcome, truth) == z
    return Example(item_id, np.atleast_1d(np.asarray(value, dtype=float)), z, abstain)


def _matrix(examples) -> np.ndarray:
    return np.stack([e.values for e in examples]) if examples else np.empty((0, 2))


def rows_of(examples) -> LabeledRows:
    return LabeledRows(
        tuple(e.item_id for e in examples),
        _matrix(examples),
        np.array([e.z for e in examples], dtype=int),
        np.array([e.is_abstention for e in examples], dtype=bool),
    )


def ids_of(rows: LabeledRows) -> list[str]:
    return list(rows.item_ids)


# ---------------------------------------------------------------------------
# Reference oracles: the per-row implementations the array code replaced.
# ---------------------------------------------------------------------------


def _majority_label_reference(z):
    return 1 if int(np.sum(z == 1)) >= int(np.sum(z == 0)) else 0


def _tomek_links_reference(examples) -> set[int]:
    """The documented rule in exact arithmetic: squared distances of the
    z-scored rows are Fractions (each column's squared differences over its
    exact variance, a zero-variance column counting 0), and each row's
    neighbour is the earliest item, in item_id order, at the least one."""
    if len(examples) < 2:
        return set()
    order = sorted(range(len(examples)), key=lambda i: examples[i].item_id)
    X = [[Fraction(v) for v in examples[i].values] for i in order]
    z = np.array([examples[i].z for i in order], dtype=int)
    if len(np.unique(z)) < 2:
        return set()
    n = len(X)
    variances = []
    for column in zip(*X):
        mean = sum(column) / n
        variances.append(sum((v - mean) ** 2 for v in column) / n)
    scale = [1 / v if v else Fraction(0) for v in variances]

    def d2(i, j):
        return sum((a - b) ** 2 * s for a, b, s in zip(X[i], X[j], scale))

    nn = [min((j for j in range(n) if j != i), key=lambda j: (d2(i, j), j)) for i in range(n)]
    majority = _majority_label_reference(z)
    removed: set[int] = set()
    for i in range(len(order)):
        j = nn[i]
        if nn[j] == i and z[i] != z[j]:
            loser = i if z[i] == majority else j
            removed.add(order[loser])
    return removed


def _tomek_links_full_matrix(rows: LabeledRows) -> np.ndarray:
    """tomek_links as it was before row blocks: the whole n x n distance
    matrix at once, the first minimum of each row its neighbour."""
    if len(rows) < 2:
        return np.empty(0, dtype=np.intp)
    order = dataset._id_order(rows)
    X = rows.X[order]
    z = rows.z[order]
    if len(np.unique(z)) < 2:
        return np.empty(0, dtype=np.intp)

    Xs = standardize_apply(standardize_fit(X), X)
    sq = np.sum(Xs**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Xs @ Xs.T)
    np.fill_diagonal(d2, np.inf)
    nn = np.argmin(d2, axis=1)  # first minimum = lowest sorted index on ties

    own = np.arange(len(order))
    linked = (nn[nn] == own) & (z != z[nn])
    losers = np.where(z == dataset._majority_label(z), own, nn)[linked]
    return np.unique(order[losers])


def _random_undersample_reference(examples, cfg: ResampleConfig) -> list:
    z = np.array([e.z for e in examples], dtype=int)
    majority = _majority_label_reference(z)
    maj_idx = [i for i, e in enumerate(examples) if e.z == majority]
    n_min = int(np.sum(z != majority))
    if n_min == 0:
        return list(examples)
    target_keep = int(cfg.target_majority_ratio * n_min)
    if len(maj_idx) <= target_keep:
        return list(examples)
    protected = [i for i in maj_idx if examples[i].is_abstention]
    droppable = [i for i in maj_idx if i not in set(protected)]
    n_sample = target_keep - len(protected)
    if n_sample < 0:
        warnings.warn("protected examples exceed the target", RatioUnreachableWarning)
        n_sample = 0
    droppable_sorted = sorted(droppable, key=lambda i: examples[i].item_id)
    rng = np.random.default_rng(cfg.seed)
    chosen = rng.choice(len(droppable_sorted), size=min(n_sample, len(droppable_sorted)), replace=False)
    keep = set(protected) | {droppable_sorted[i] for i in chosen}
    return [e for i, e in enumerate(examples) if e.z != majority or i in keep]


def _resample_reference(examples, cfg: ResampleConfig) -> list:
    links = _tomek_links_reference(examples)
    cleaned = [e for i, e in enumerate(examples) if i not in links]
    return _random_undersample_reference(cleaned, cfg)


def _take_reference(pool, count, rng) -> set[str]:
    pool_sorted = sorted(pool, key=lambda e: e.item_id)
    idx = rng.choice(len(pool_sorted), size=count, replace=False)
    return {pool_sorted[i].item_id for i in idx}


def _stratified_split_reference(examples, spec: SplitSpec):
    negatives = [e for e in examples if e.z == 0]
    positives = [e for e in examples if e.z == 1]
    if spec.test_negative_count > len(negatives):
        raise InsufficientNegatives("too few negatives")
    if spec.test_negative_count == len(negatives):
        raise InsufficientNegatives("zero negatives for training")
    if not positives:
        raise ValueError("no positives")
    rng = np.random.default_rng(spec.seed)
    test_neg_ids = _take_reference(negatives, spec.test_negative_count, rng)
    desired_pos = int(np.floor(spec.test_negative_count * len(positives) / len(negatives) + 0.5))
    test_pos_count = min(desired_pos, max(len(positives) - 2, 0))
    test_ids = test_neg_ids | _take_reference(positives, test_pos_count, rng)
    pool_neg = [e for e in negatives if e.item_id not in test_ids]
    pool_pos = [e for e in positives if e.item_id not in test_ids]
    val_neg_count = int(np.floor(spec.validation_fraction * len(pool_neg) + 0.5))
    val_pos_count = int(np.floor(spec.validation_fraction * len(pool_pos) + 0.5))
    if val_neg_count >= len(pool_neg):
        raise InsufficientNegatives("zero negatives in train")
    if val_pos_count >= len(pool_pos):
        raise ValueError("zero positives in train")
    val_ids = _take_reference(pool_neg, val_neg_count, rng) | _take_reference(pool_pos, val_pos_count, rng)
    by_id = sorted(examples, key=lambda e: e.item_id)
    return (
        [e.item_id for e in by_id if e.item_id not in test_ids and e.item_id not in val_ids],
        [e.item_id for e in by_id if e.item_id in val_ids],
        [e.item_id for e in by_id if e.item_id in test_ids],
    )


class TestLabelCorrectness:
    @pytest.mark.parametrize(
        "outcome,truth,expected",
        [
            (OutcomeLabel.YES, 1, 1),
            (OutcomeLabel.YES, 0, 0),
            (OutcomeLabel.NO, 0, 1),
            (OutcomeLabel.NO, 1, 0),
            (OutcomeLabel.INCONCLUSIVE_EVIDENCE, 1, 0),
            (OutcomeLabel.INCONCLUSIVE_EVIDENCE, 0, 0),
            (OutcomeLabel.INCONCLUSIVE_DEFINITION, 0, 0),
        ],
    )
    def test_rule(self, outcome, truth, expected):
        assert label_correctness(outcome, truth) == expected


class TestLabeledRows:
    def test_take_selects_rows_in_index_order(self):
        rows = rows_of([ex("a", 0.0, z=1), ex("b", 1.0, z=0, abstain=True), ex("c", 2.0, z=1)])
        sub = rows.take([2, 0])
        assert len(sub) == 2
        assert sub.item_ids == ("c", "a")
        assert sub.X[:, 0].tolist() == [2.0, 0.0]
        assert sub.z.tolist() == [1, 1]
        assert sub.abstain.tolist() == [False, False]
        assert len(rows.take([])) == 0


class TestTomekLinks:
    def test_one_dimensional_example(self):
        rows = rows_of([ex("a", 0.0, z=1), ex("b", 0.9, z=1), ex("c", 1.0, z=0)])
        assert tomek_links(rows).tolist() == [1]

    def test_well_separated_clusters(self):
        examples = [ex(f"m{i}", v, z=1) for i, v in enumerate((0.0, 0.1, 0.2))]
        examples += [ex(f"n{i}", v, z=0) for i, v in enumerate((10.0, 10.1))]
        assert tomek_links(rows_of(examples)).size == 0

    def test_duplicate_point_across_classes(self):
        rows = rows_of(
            [
                ex("a", 0.0, z=1),
                ex("b", 0.2, z=1),
                ex("c", 5.0, z=1),
                ex("d", 5.0, z=0),
                ex("e", 7.0, z=0),
            ]
        )
        assert tomek_links(rows).tolist() == [2]

    def test_permutation_invariant_item_ids(self):
        examples = [
            ex("a", 0.0, z=1),
            ex("b", 0.9, z=1),
            ex("c", 1.0, z=0),
            ex("d", 4.0, z=1),
        ]
        rows = rows_of(examples)
        removed = {rows.item_ids[i] for i in tomek_links(rows)}
        shuffled = rows.take([3, 1, 0, 2])
        removed_shuffled = {shuffled.item_ids[i] for i in tomek_links(shuffled)}
        assert removed == removed_shuffled == {"b"}


class TestRandomUndersample:
    def test_ratio_arithmetic(self):
        examples = [ex(f"m{i:03d}", float(i), z=1) for i in range(90)]
        examples += [ex(f"n{i:03d}", 100.0 + i, z=0) for i in range(10)]
        reduced = random_undersample(rows_of(examples), ResampleConfig(target_majority_ratio=4.0, seed=42))
        assert int(np.sum(reduced.z == 1)) == 40
        assert int(np.sum(reduced.z == 0)) == 10

    def test_protection_beats_ratio_with_warning(self):
        # majority is the incorrect class here; it contains 3 abstentions
        majority = [ex(f"m{i}", float(i), z=0, abstain=True) for i in range(3)]
        majority += [ex(f"p{i}", 10.0 + i, z=0) for i in range(7)]
        minority = [ex(f"q{i}", 100.0 + i, z=1) for i in range(2)]
        cfg = ResampleConfig(target_majority_ratio=1.0, seed=42)  # target keep = 2 < 3
        with pytest.warns(RatioUnreachableWarning):
            reduced = random_undersample(rows_of(majority + minority), cfg)
        assert {"m0", "m1", "m2"} <= set(reduced.item_ids)
        assert int(np.sum(reduced.z == 0)) == 3
        assert int(np.sum(reduced.z == 1)) == 2

    def test_identity_when_ratio_satisfied(self):
        rows = rows_of([ex("a", 0.0, z=1), ex("b", 1.0, z=1), ex("c", 2.0, z=0)])
        reduced = random_undersample(rows, ResampleConfig(target_majority_ratio=4.0))
        assert ids_of(reduced) == ["a", "b", "c"]

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_never_removes_minority_or_abstentions(self, seed):
        examples = [ex(f"m{i:02d}", float(i), z=1) for i in range(30)]
        examples += [ex(f"a{i}", 50.0 + i, z=0, abstain=True) for i in range(2)]
        examples += [ex(f"n{i}", 90.0 + i, z=0) for i in range(4)]
        reduced = random_undersample(
            rows_of(examples), ResampleConfig(target_majority_ratio=2.0, seed=seed)
        )
        kept = set(reduced.item_ids)
        assert all(f"a{i}" in kept for i in range(2))
        assert all(f"n{i}" in kept for i in range(4))

    def test_permutation_invariant_selection(self):
        examples = [ex(f"m{i:02d}", float(i), z=1) for i in range(20)]
        examples += [ex(f"n{i}", 100.0 + i, z=0) for i in range(3)]
        cfg = ResampleConfig(target_majority_ratio=2.0, seed=7)
        rows = rows_of(examples)
        kept_a = set(random_undersample(rows, cfg).item_ids)
        shuffled = rows.take(np.random.default_rng(0).permutation(len(rows)))
        kept_b = set(random_undersample(shuffled, cfg).item_ids)
        assert kept_a == kept_b


class TestResample:
    def test_report_counts(self):
        examples = [ex(f"m{i:03d}", float(i % 7), z=1) for i in range(60)]
        examples += [ex(f"n{i:02d}", float(i % 7) + 0.05, z=0) for i in range(10)]
        reduced, report = resample(rows_of(examples), ResampleConfig(target_majority_ratio=3.0, seed=42))
        assert report["input"]["total"] == 70
        assert report["output"]["total"] == len(reduced)
        assert report["output"]["z0"] == 10
        assert report["output"]["z1"] <= 30


def _split_population(n=1000, negatives=150):
    examples = [ex(f"p{i:04d}", float(i), z=1) for i in range(n - negatives)]
    examples += [ex(f"n{i:04d}", 2000.0 + i, z=0) for i in range(negatives)]
    return rows_of(examples)


def _z_by_id(rows: LabeledRows) -> dict[str, int]:
    return dict(zip(rows.item_ids, rows.z.tolist()))


class TestStratifiedSplit:
    def test_exact_negative_count_and_proportion(self):
        rows = _split_population()
        spec = SplitSpec(test_negative_count=100, seed=42)
        train, validation, test = stratified_split(rows, spec)
        z = _z_by_id(rows)
        test_neg = [i for i in test if z[i] == 0]
        test_pos = [i for i in test if z[i] == 1]
        assert len(test_neg) == 100
        # proportion matches the population ratio within one example
        assert abs(len(test_pos) - 100 * (850 / 150)) <= 0.5

    def test_partition_disjoint_exhaustive(self):
        rows = _split_population(400, 60)
        spec = SplitSpec(test_negative_count=30, seed=42)
        train, validation, test = stratified_split(rows, spec)
        ids = train + validation + test
        assert len(ids) == len(set(ids)) == 400

    def test_validation_fraction(self):
        rows = _split_population(1000, 150)
        spec = SplitSpec(test_negative_count=50, validation_fraction=0.20, seed=42)
        train, validation, test = stratified_split(rows, spec)
        pool = len(train) + len(validation)
        assert len(validation) == pytest.approx(0.2 * pool, abs=2)
        z = _z_by_id(rows)
        assert {z[i] for i in validation} == {0, 1}

    def test_requesting_all_negatives_fails(self):
        rows = _split_population(300, 40)
        with pytest.raises(InsufficientNegatives):
            stratified_split(rows, SplitSpec(test_negative_count=40, seed=42))

    def test_requesting_more_than_available_fails(self):
        rows = _split_population(300, 40)
        with pytest.raises(InsufficientNegatives):
            stratified_split(rows, SplitSpec(test_negative_count=41, seed=42))

    def test_deterministic_partition(self):
        rows = _split_population(500, 80)
        spec = SplitSpec(test_negative_count=40, seed=42)
        assert stratified_split(rows, spec) == stratified_split(rows, spec)

    def test_permutation_invariant(self):
        rows = _split_population(500, 80)
        spec = SplitSpec(test_negative_count=40, seed=42)
        shuffled = rows.take(np.random.default_rng(1).permutation(len(rows)))
        assert stratified_split(rows, spec) == stratified_split(shuffled, spec)


@st.composite
def shuffled_examples(draw):
    """Shuffled rows on a coarse two-feature lattice, so equal distances and
    duplicate points are common; either class may be the majority, and
    abstentions (always z=0) are mixed in."""
    n = draw(st.integers(min_value=0, max_value=40))
    share_correct = draw(st.sampled_from([0.2, 0.5, 0.8]))
    examples = []
    for i in range(n):
        z = int(draw(st.floats(0.0, 1.0)) < share_correct)
        abstain = z == 0 and draw(st.booleans())
        point = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
        examples.append(Example(f"it-{i:03d}", np.array(point, dtype=float), z, abstain))
    order = draw(st.permutations(range(n)))
    return [examples[i] for i in order]


def _outcome(fn, *args):
    """(result, RatioUnreachableWarning count) or the exception type."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except ValueError as exc:
            return type(exc)
    return result, sum(issubclass(w.category, RatioUnreachableWarning) for w in caught)


class TestArrayFunctionsMatchReference:
    @given(
        shuffled_examples(),
        st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        st.integers(0, 2**31 - 1),
        # the default fits n <= 40 rows in one block; the small budgets
        # put block edges between rows, down to one row per block
        st.sampled_from([1, 2, 7, dataset._TOMEK_BLOCK_ENTRIES]),
    )
    @settings(max_examples=150, deadline=None)
    def test_resampling_selects_the_same_rows_in_the_same_order(self, examples, ratio, seed, budget):
        cfg = ResampleConfig(target_majority_ratio=ratio, seed=seed)
        rows = rows_of(examples)
        with mock.patch.object(dataset, "_TOMEK_BLOCK_ENTRIES", budget):
            assert tomek_links(rows).tolist() == sorted(_tomek_links_reference(examples))

            reduced, n_warn = _outcome(random_undersample, rows, cfg)
            expected, n_warn_ref = _outcome(_random_undersample_reference, examples, cfg)
            assert ids_of(reduced) == [e.item_id for e in expected]
            assert n_warn == n_warn_ref

            (reduced, _), _ = _outcome(resample, rows, cfg)
            expected, _ = _outcome(_resample_reference, examples, cfg)
            assert ids_of(reduced) == [e.item_id for e in expected]
            assert reduced.X.tobytes() == _matrix(expected).tobytes()
            assert reduced.z.tolist() == [e.z for e in expected]

    @given(
        shuffled_examples(),
        st.integers(1, 6),
        st.sampled_from([0.1, 0.2, 0.5]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_split_selects_the_same_ids_in_the_same_order(self, examples, negatives, fraction, seed):
        if not examples:
            return
        spec = SplitSpec(test_negative_count=negatives, validation_fraction=fraction, seed=seed)
        assert _outcome(stratified_split, rows_of(examples), spec) == _outcome(
            _stratified_split_reference, examples, spec
        )


class TestTomekLinksAtScale:
    @given(
        st.integers(2, 300),
        st.integers(1, 45),
        st.sampled_from([0.2, 0.5, 0.8]),
        st.sampled_from([1, 7, 4096, dataset._TOMEK_BLOCK_ENTRIES]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_continuous_rows_link_as_the_full_matrix_does(self, n, d, share_correct, budget, seed):
        rng = np.random.default_rng(seed)
        z = (rng.random(n) < share_correct).astype(int)
        rows = LabeledRows(
            tuple(f"it-{i:03d}" for i in rng.permutation(n)),
            rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d),
            z,
            (z == 0) & (rng.random(n) < 0.3),
        )
        with mock.patch.object(dataset, "_TOMEK_BLOCK_ENTRIES", budget):
            assert tomek_links(rows).tolist() == _tomek_links_full_matrix(rows).tolist()

    def test_peak_memory_stays_bounded(self):
        # the full 3000 x 3000 distance matrix and its temporaries took
        # about 140 MB here; row blocks keep the call near the size of X
        rng = np.random.default_rng(0)
        n = 3000
        z = (rng.random(n) < 0.8).astype(int)
        rows = LabeledRows(
            tuple(f"it-{i:04d}" for i in range(n)), rng.standard_normal((n, 45)), z, np.zeros(n, dtype=bool)
        )
        tracemalloc.start()
        try:
            tomek_links(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6
