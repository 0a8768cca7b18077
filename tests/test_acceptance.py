"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not deferred.
"""

import hashlib
import json
import math
import time
from fractions import Fraction
from itertools import product

import numpy as np

from lppgate import policy, trainer
from lppgate.cli import main as cli_main
from lppgate.features import _CATALOG, FeatureFamily
from lppgate.pipeline import extract_table
from lppgate.policy import ConfusionCounts, CostModel, confusion, expected_cost
from lppgate.schema import OutcomeLabel, ResponseTrace, StructuredResponse, normalize_outcome_token, token_span
from lppgate.trainer import fit_isotonic, fit_platt, fit_ridge_weighted
from tests.policy_reference import always_trust_cost
from tests.ridge_oracle import fit_ridge_lsqr, ridge_objective


def _announce(number: int, label: str):
    print(f"[acceptance] criterion {number} ({label}): PASS")


# ---------------------------------------------------------------------------
# 1. Feature oracle equivalence
# ---------------------------------------------------------------------------


LABEL_SURFACES = ["0", "1", "2", "3", " 0", " 1", "yes", "no"]
JUNK_SURFACES = [" the", "foo", " maybe", "xx"]


def _mp_reference(candidates):
    """High-precision recomputation of the family A/B/C metrics."""
    import mpmath as mp

    mp.mp.dps = 30
    logprobs = [mp.mpf(repr(lp)) for _, lp in candidates]

    def metrics(probs, k):
        probs = sorted(probs, reverse=True)
        entropy = -sum(p * mp.log(p, 2) for p in probs if p > 0)
        norm = entropy / mp.log(k, 2) if k > 1 else mp.mpf(0)
        p1 = probs[0]
        p2 = probs[1] if len(probs) > 1 else mp.mpf(0)
        eps = mp.mpf("1e-12")
        return {
            "entropy": entropy,
            "entropy_norm": norm,
            "effective_choices": mp.power(2, entropy),
            "confidence": 1 - norm,
            "msp": p1,
            "margin": p1 - p2,
            "margin_norm": (p1 - p2) / max(p1, eps),
            "top1_top2_ratio": p1 / max(p2, eps),
        }

    # family A over the top-5 logprobs
    top5 = sorted(logprobs, reverse=True)[:5]
    shifted = [mp.exp(lp - max(top5)) for lp in top5]
    total = sum(shifted)
    a_ref = metrics([s / total for s in shifted], len(top5))

    # family B over collapsed label masses
    masses = {label: mp.mpf(0) for label in OutcomeLabel}
    for surface, lp in candidates:
        label = normalize_outcome_token(surface)
        if label is not None:
            masses[label] += mp.exp(mp.mpf(repr(lp)))
    total_mass = sum(masses.values())
    b_probs = [m / total_mass for m in masses.values()]
    b_ref = metrics(b_probs, 4)
    del b_ref["msp"]

    # family C margins (degenerate single-candidate draws emit zeros and are
    # skipped by the caller)
    eps = mp.mpf("1e-12")
    ordered = sorted(logprobs, reverse=True)
    if len(ordered) >= 2:
        c_ref = {
            "margin": ordered[1] - ordered[0],
            "margin_norm": (ordered[1] - ordered[0]) / min(ordered[1], -eps),
        }
    else:
        c_ref = {"margin": mp.mpf(0), "margin_norm": mp.mpf(0)}
    positive = sorted([m for m in masses.values() if m > 0], reverse=True)
    if len(positive) >= 2:
        l1, l2 = mp.log(positive[0]), mp.log(positive[1])
        c_ref["filtered_margin"] = l2 - l1
        c_ref["filtered_margin_norm"] = (l2 - l1) / min(l2, -eps)
    else:
        c_ref["filtered_margin"] = mp.mpf(0)
        c_ref["filtered_margin_norm"] = mp.mpf(0)
    return a_ref, b_ref, c_ref


def _outcome_families(candidate_lists, include):
    """Families A-C of one trace per (surface, logprob) candidate list,
    extracted in one extract_table call, as {family: {short name: value}}
    per list, in list order."""
    traces = [
        ResponseTrace(
            f"item-{i:04d}",
            StructuredResponse(OutcomeLabel.YES),
            token_span([(*candidates[0], candidates)]),
            token_span([]),
        )
        for i, candidates in enumerate(candidate_lists)
    ]
    table = extract_table(traces, include=include)
    assert table.item_ids == [t.item_id for t in traces]
    out = []
    for row in table.matrix.tolist():
        values = dict(zip(table.names, row))
        out.append({f: {n: values[f"{f.value}.{n}"] for n in _CATALOG[f]} for f in include})
    return out


def test_criterion_1_feature_oracle_equivalence():
    rng = np.random.default_rng(42)
    outcome_families = (FeatureFamily.OUTCOME_TOPK, FeatureFamily.FILTERED_OUTCOME, FeatureFamily.LOGODDS_MARGIN)
    start = time.perf_counter()
    candidate_lists = []
    for _ in range(1000):
        n_labels = int(rng.integers(1, 6))
        n_junk = int(rng.integers(0, 3))
        surfaces = [str(s) for s in rng.choice(LABEL_SURFACES, size=n_labels, replace=False)]
        surfaces += [str(s) for s in rng.choice(JUNK_SURFACES, size=n_junk, replace=False)]
        logprobs = rng.uniform(-8.0, 0.0, size=len(surfaces))
        candidates = [(s, float(lp)) for s, lp in zip(surfaces, logprobs)]
        candidates.sort(key=lambda c: -c[1])
        candidate_lists.append(candidates)

    for candidates, got in zip(candidate_lists, _outcome_families(candidate_lists, outcome_families)):
        got_a = got[FeatureFamily.OUTCOME_TOPK]
        got_b = got[FeatureFamily.FILTERED_OUTCOME]
        got_c = got[FeatureFamily.LOGODDS_MARGIN]

        ref_a, ref_b, ref_c = _mp_reference(candidates)
        for name, ref in ref_a.items():
            assert abs(got_a[name] - float(ref)) < 1e-9, f"A.{name}"
        for name, ref in ref_b.items():
            assert abs(got_b[name] - float(ref)) < 1e-9, f"B.{name}"
        for name, ref in ref_c.items():
            if len(candidates) >= 2:
                assert abs(got_c[name] - float(ref)) < 1e-9, f"C.{name}"
    duration = time.perf_counter() - start

    # closed-form cases are bit-exact
    dyadic, uniform = (
        got[FeatureFamily.OUTCOME_TOPK]
        for got in _outcome_families(
            [
                [(str(i), math.log(p)) for i, p in enumerate((0.5, 0.25, 0.125, 0.0625, 0.0625))],
                [(str(i), -1.7) for i in range(5)],
            ],
            [FeatureFamily.OUTCOME_TOPK],
        )
    )
    assert dyadic["entropy"] == 1.875
    assert uniform["entropy"] == math.log2(5)

    assert duration < 5.0, f"oracle sweep took {duration:.2f}s"
    _announce(1, "feature oracle equivalence")


# ---------------------------------------------------------------------------
# 2. Cost-formula anchors
# ---------------------------------------------------------------------------


def test_criterion_2_cost_formula_anchors():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 400))
        z = rng.integers(0, 2, size=n)
        scores = rng.uniform(0.1, 0.9, size=n)
        # integer costs keep every term exact in float64
        m = CostModel(c_mis=float(rng.integers(1, 1000)), c_rev=float(rng.integers(1, 1000)))
        incorrect = int(np.sum(z == 0))

        below = confusion(scores >= 0.0, z)
        assert expected_cost(below, m) == always_trust_cost(z, m)

        above = confusion(scores >= 1.0, z)
        assert expected_cost(above, m) == m.c_rev * n - m.c_mis * incorrect
    _announce(2, "cost-formula anchors")


# ---------------------------------------------------------------------------
# 3. Sensitivity consistency
# ---------------------------------------------------------------------------


def test_criterion_3_sensitivity_consistency():
    rng = np.random.default_rng(42)
    for _ in range(100):
        counts = ConfusionCounts(
            tp=int(rng.integers(0, 500)),
            fp=int(rng.integers(0, 500)),
            tn=int(rng.integers(0, 500)),
            fn=int(rng.integers(0, 500)),
        )
        m = CostModel(c_mis=float(rng.uniform(1, 200)), c_rev=float(rng.uniform(1, 200)))
        [row] = policy.cost_ratio_sensitivity(counts, [m.ratio])
        assert abs(row["relative_cost"] - expected_cost(counts, m) / m.c_mis) < 1e-9
    _announce(3, "sensitivity consistency at the operating ratio")


# ---------------------------------------------------------------------------
# 4. Ridge correctness
# ---------------------------------------------------------------------------


def test_criterion_4_ridge_correctness():
    [(w, b)] = fit_ridge_weighted(np.array([[1.0], [-1.0]]), [1, 0], alphas=[2.0])
    assert abs(w[0] - 0.25) < 1e-12
    assert abs(b - 0.5) < 1e-12

    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(30, 120))
        d = int(rng.integers(2, 12))
        X = rng.normal(size=(n, d))
        z = rng.integers(0, 2, size=n)
        if len(np.unique(z)) < 2:
            z[0] = 1 - z[0]
        weights = (float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.3, 3.0)))
        alpha = float(rng.uniform(0.1, 50.0))
        [(w, b)] = fit_ridge_weighted(X, z, weights, [alpha])

        # finite-difference gradient at the reported optimum
        eps = 1e-6
        grads = []
        for j in range(d):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            grads.append(
                (ridge_objective(X, z, wp, b, weights, alpha)
                 - ridge_objective(X, z, wm, b, weights, alpha)) / (2 * eps)
            )
        grads.append(
            (ridge_objective(X, z, w, b + eps, weights, alpha)
             - ridge_objective(X, z, w, b - eps, weights, alpha)) / (2 * eps)
        )
        scale = 1.0 + ridge_objective(X, z, np.zeros(d), 0.0, weights, alpha)
        assert np.max(np.abs(grads)) < 1e-6 * scale

        w2, b2 = fit_ridge_lsqr(X, z, weights, alpha)
        assert np.max(np.abs(w - w2)) < 1e-6
        assert abs(b - b2) < 1e-6
    _announce(4, "ridge closed form vs hand solution, gradient, lsqr")


# ---------------------------------------------------------------------------
# 5. Isotonic / PAVA vs exact oracle
# ---------------------------------------------------------------------------


def _isotonic_oracle_exact(z):
    """L2 isotonic optimum via the max-min averaging identity (exact
    rationals)."""
    n = len(z)
    prefix = [0]
    for v in z:
        prefix.append(prefix[-1] + v)
    out = []
    for i in range(n):
        best = None
        for j in range(i + 1):
            inner = None
            for k in range(i, n):
                mean = Fraction(prefix[k + 1] - prefix[j], k + 1 - j)
                inner = mean if inner is None or mean < inner else inner
            best = inner if best is None or inner > best else best
        out.append(best)
    return out


def test_criterion_5_isotonic_matches_exact_oracle():
    start = time.perf_counter()
    inputs = [bits for n in range(1, 11) for bits in product((0, 1), repeat=n)]
    # all 2046 inputs through one batched call, ten lengths stacked
    calibrators = fit_isotonic([list(range(len(bits))) for bits in inputs], [list(bits) for bits in inputs])
    for bits, cal in zip(inputs, calibrators, strict=True):
        oracle = _isotonic_oracle_exact(bits)
        assert len(cal.values) == len(bits)
        for got, want in zip(cal.values, oracle):
            assert got == float(want), (bits, cal.values, oracle)
        assert all(a <= b for a, b in zip(cal.values, cal.values[1:]))
    duration = time.perf_counter() - start
    assert duration < 10.0, f"oracle comparison took {duration:.2f}s"
    _announce(5, "isotonic equals the exact oracle on all binary inputs n<=10, fitted in one call")


# ---------------------------------------------------------------------------
# 6. Calibration sanity (expected calibration error)
# ---------------------------------------------------------------------------


def _ece_equal_mass(probs, z, bins=10):
    order = np.argsort(probs, kind="mergesort")
    p, zz = np.asarray(probs)[order], np.asarray(z)[order]
    edges = np.linspace(0, len(p), bins + 1).astype(int)
    ece = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            ece += (hi - lo) / len(p) * abs(p[lo:hi].mean() - zz[lo:hi].mean())
    return ece


def test_criterion_6_calibration_sanity():
    rng = np.random.default_rng(42)
    n = 5000

    def sample():
        s = rng.uniform(-4, 4, size=n)
        z = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-s))).astype(int)
        return s, z

    s_fit, z_fit = sample()
    s_eval, z_eval = sample()

    (platt,) = fit_platt([s_fit], [z_fit])
    ece_platt = _ece_equal_mass(platt.predict(s_eval), z_eval)
    assert ece_platt < 0.05, f"Platt ECE {ece_platt:.4f}"

    (isotonic,) = fit_isotonic([s_fit], [z_fit])
    ece_iso = _ece_equal_mass(isotonic.predict(s_eval), z_eval)
    assert ece_iso < 0.05, f"isotonic ECE {ece_iso:.4f}"
    _announce(6, f"calibration ECE (platt {ece_platt:.3f}, isotonic {ece_iso:.3f})")


# ---------------------------------------------------------------------------
# 7. End-to-end synthetic frontier (full default grid, via the CLI)
# ---------------------------------------------------------------------------


def _run_full_pipeline(out, n_items=3000, seed="42", profile="openai-mod"):
    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0, argv

    common = [
        "--features", out / "features.csv",
        "--features-sidecar", out / "features.families.json",
        "--labels", out / "labels.csv",
    ]
    run("synth", "--out", out, "--n-items", n_items, "--error-rate", "0.15",
        "--abstention-rate", "0.03", "--seed", seed)
    run("extract", "--out", out, "--traces", out / "traces.jsonl", "--seed", seed)
    run("split", "--out", out, *common, "--seed", seed, "--dataset-profile", profile)
    run("train", "--out", out, *common, "--train-ids", out / "train_ids.txt", "--seed", seed)
    run("sweep", "--out", out, *common, "--model", out / "model.json",
        "--validation-ids", out / "validation_ids.txt", "--seed", seed)
    run("evaluate", "--out", out, *common, "--model", out / "model.json",
        "--validation-ids", out / "validation_ids.txt",
        "--test-ids", out / "test_ids.txt", "--seed", seed)


def test_criterion_7_end_to_end_synthetic_frontier(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "frontier"
    _run_full_pipeline(out)

    report = json.loads((out / "evaluation.json").read_text())
    costs = {m: report["methods"][m]["metrics"]["expected_cost"] for m in report["methods"]}
    assert costs["meta_model"] < costs["msp"]
    assert costs["meta_model"] < costs["top2_margin"]
    assert costs["meta_model"] < costs["entropy"]

    assert cli_main([
        "ablate", "--out", str(out),
        "--features", str(out / "features.csv"),
        "--features-sidecar", str(out / "features.families.json"),
        "--labels", str(out / "labels.csv"),
        "--train-ids", str(out / "train_ids.txt"),
        "--validation-ids", str(out / "validation_ids.txt"),
        "--test-ids", str(out / "test_ids.txt"),
        "--family", "attribution",
        "--seed", "42",
    ]) == 0
    rows = (out / "ablation.csv").read_text().strip().splitlines()
    dropped_family, cost_without, delta = rows[1].split(",")
    assert dropped_family == "attribution"
    assert float(delta) > 0.0

    # ablate reads the run's own table and split, so its full-table row is
    # evaluate's meta-model result, and its inputs are files the run wrote
    manifests = {
        c: json.loads((out / f"{c}.manifest.json").read_text())
        for c in ("synth", "extract", "split", "evaluate", "ablate")
    }
    meta_cost = manifests["evaluate"]["extra"]["meta_expected_cost"]
    assert [r["full_cost"] for r in manifests["ablate"]["extra"]["rows"]] == [meta_cost]
    written = {c: set(manifests[c]["outputs"]) for c in ("synth", "extract", "split")}
    read = manifests["ablate"]["inputs"]
    assert written["split"] <= set(read)
    assert set(read) - written["synth"] <= written["extract"] | written["split"]
    for path, digest in read.items():
        assert hashlib.sha256(open(path, "rb").read()).hexdigest() == digest, path

    duration = time.perf_counter() - start
    assert duration < 300.0, f"pipeline took {duration:.1f}s"
    _announce(
        7,
        f"meta {costs['meta_model']:.2f} beats baselines "
        f"({costs['msp']:.2f}/{costs['top2_margin']:.2f}/{costs['entropy']:.2f}), "
        f"attribution ablation +{float(delta):.2f}, {duration:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------


def test_criterion_8_pipeline_determinism(tmp_path):
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        _run_full_pipeline(out, n_items=600, profile="multimodal")
        artifacts = [
            "traces.jsonl",
            "features.csv",
            "model.json",
            "train_report.json",
            "policy_report.json",
            "evaluation.csv",
            "evaluation.json",
        ]
        digests.append({name: (out / name).read_bytes() for name in artifacts})
        model = json.loads((out / "model.json").read_text())
        assert model["tau_star"] is not None
    assert digests[0] == digests[1]
    _announce(8, "two seed-42 runs are byte-identical")


# ---------------------------------------------------------------------------
# 9. Retry contract through the stub provider
# ---------------------------------------------------------------------------


def test_criterion_9_retry_contract(tmp_path):
    from tests.test_gateway import valid_payload

    malformed = {"content": "___ not json ___", "tokens": []}
    fixtures = {
        "item-accept": [malformed, malformed, malformed, valid_payload()],
        "item-giveup": [malformed],
    }
    fixtures_path = tmp_path / "fixtures.json"
    fixtures_path.write_text(json.dumps(fixtures))
    items_path = tmp_path / "items.jsonl"
    with open(items_path, "w") as fh:
        for item in ("item-accept", "item-giveup"):
            fh.write(json.dumps({"item_id": item, "text": "x", "concept_definition": "d"}) + "\n")

    out = tmp_path / "run"
    assert cli_main([
        "generate", "--out", str(out),
        "--items", str(items_path),
        "--template", "text-direct",
        "--stub", str(fixtures_path),
    ]) == 0

    traces = [json.loads(line) for line in (out / "traces.jsonl").read_text().splitlines()]
    assert len(traces) == 1
    assert traces[0]["item_id"] == "item-accept"
    assert traces[0]["attempt"] == 4

    manifest = json.loads((out / "generate.manifest.json").read_text())
    give_ups = manifest["extra"]["give_ups"]
    assert give_ups == [{"item_id": "item-giveup", "attempts": 4, "failure": "malformed_json"}]
    _announce(9, "3 malformed then valid -> attempt 4; 4 malformed -> logged give-up")


# ---------------------------------------------------------------------------
# 10. Full 672-point grid search
# ---------------------------------------------------------------------------


def test_criterion_10_full_grid_search():
    rng = np.random.default_rng(42)
    n, d = 800, 30
    X = rng.normal(size=(n, d))
    logit = 1.5 * X[:, 0] + X[:, 1] - 0.5 * X[:, 2] + rng.normal(scale=0.8, size=n) + 1.2
    z = (logit > 0).astype(int)

    start = time.perf_counter()
    best, report = trainer.grid_search(X, z)
    duration = time.perf_counter() - start
    assert duration < 600.0, f"grid search took {duration:.1f}s"
    assert len(report) == 672

    # selection is the argmax of minority F1 with ties going to the earlier
    # enumeration point
    best_idx = 0
    for i, row in enumerate(report):
        if row["minority_f1"] > report[best_idx]["minority_f1"]:
            best_idx = i
    expected = report[best_idx]
    assert (best.alpha, best.tol, best.max_iter, best.class_weight, best.calibration) == (
        expected["alpha"],
        expected["tol"],
        expected["max_iter"],
        expected["class_weight"],
        expected["calibration"],
    )

    best2, report2 = trainer.grid_search(X, z)
    assert best2 == best
    assert report2 == report
    _announce(10, f"672 configurations in {duration:.1f}s, deterministic selection")
