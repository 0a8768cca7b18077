"""Correctness oracles that do not reuse the code under test.

They read the program's file formats (``model.json``, ``features.csv``,
``labels.csv``, id lists, ``evaluation.json``, ``sensitivity.json``) with
the standard library and numpy only. Each check returns a list of problems;
an empty list is a pass. The ``self_test_*`` functions corrupt one output
and require the matching check to report it, so a check that silently stops
checking fails the run.
"""

from __future__ import annotations

import copy
import csv
import json
import os

import numpy as np

C_MIS = 1.0
C_REV = 0.64
#: The program's scores may differ from the re-scored ones by rounding only,
#: and a decision may differ only when the re-scored value lies this close
#: to tau*.
SCORE_EPS = 1e-9


def correctness(truth: int, outcome: int) -> int:
    """z = 1 iff a yes/no decision matches the binary truth; abstentions are 0."""
    return int((outcome == 1 and truth == 1) or (outcome == 0 and truth == 0))


def read_model(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rescore(model: dict, names, X: np.ndarray) -> np.ndarray:
    """Gate score: standardize, per fold w.x+b and its calibrator, mean, clamp."""
    index = {n: i for i, n in enumerate(names)}
    cols = [index[n] for n in model["feature_names"]]
    Xs = (np.asarray(X, dtype=float)[:, cols] - np.array(model["scaler"]["mean"])) / np.array(
        model["scaler"]["std"]
    )
    fold_scores = []
    for fold in model["folds"]:
        s = Xs @ np.array(fold["w"]) + fold["b"]
        cal = fold["calibrator"]
        if cal["kind"] == "sigmoid":
            p = 1.0 / (1.0 + np.exp(-(cal["a"] * s + cal["b"])))
        elif cal["kind"] == "isotonic":
            knots = np.array(cal["knots"])
            idx = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, len(knots) - 1)
            p = np.clip(np.array(cal["values"])[idx], 0.0, 1.0)
        elif cal["kind"] == "identity":
            p = np.clip(s, 0.0, 1.0)
        else:
            raise ValueError(f"unknown calibrator kind {cal['kind']!r}")
        fold_scores.append(p)
    return np.clip(np.mean(fold_scores, axis=0), 0.0, 1.0)


def decision_problems(model: dict, names, X: np.ndarray, scores, decisions) -> list[str]:
    """The program's scores and trust decisions must equal the re-scored
    ones at tau*."""
    scores = np.asarray(scores, dtype=float)
    decisions = np.asarray(decisions, dtype=bool)
    if scores.shape != (len(X),) or decisions.shape != (len(X),):
        return [f"{scores.shape} scores and {decisions.shape} decisions for {len(X)} rows"]
    expected = rescore(model, names, X)
    tau = model["tau_star"]
    off = np.abs(scores - expected) > SCORE_EPS
    wrong = ((expected >= tau) != decisions) & (np.abs(expected - tau) > SCORE_EPS)
    return [f"row {i}: score differs from the re-scored gate" for i in np.flatnonzero(off)] + [
        f"row {i}: decision differs from the re-scored gate" for i in np.flatnonzero(wrong)
    ]


# ---------------------------------------------------------------------------
# fit-direct: the run directory left by the CLI chain
# ---------------------------------------------------------------------------


def _read_ids(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def read_fit_outputs(out: str, labels_path: str) -> dict:
    with open(os.path.join(out, "features.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(labels_path, newline="", encoding="utf-8") as fh:
        z = {r["item_id"]: correctness(int(r["ground_truth"]), int(r["llm_outcome"])) for r in csv.DictReader(fh)}
    docs = {"features": rows, "z": z, "test_ids": _read_ids(os.path.join(out, "test_ids.txt"))}
    for name in ("model", "evaluation", "sensitivity"):
        with open(os.path.join(out, f"{name}.json"), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return docs


def confusion(trust, z) -> dict:
    """Counts of trust decisions against correctness (positive = trust)."""
    trust, z = np.asarray(trust, dtype=bool), np.asarray(z)
    return {
        "tp": int(np.sum(trust & (z == 1))),
        "fp": int(np.sum(trust & (z == 0))),
        "tn": int(np.sum(~trust & (z == 0))),
        "fn": int(np.sum(~trust & (z == 1))),
    }


def test_cost(counts: dict) -> float:
    """Absolute test cost c_mis*FP + c_rev*(TN+FN)."""
    return C_MIS * counts["fp"] + C_REV * (counts["tn"] + counts["fn"])


def expected_cost(counts: dict) -> float:
    """evaluation.json's expected_cost: the test cost relative to reviewing
    every item, c_mis*FP + (c_rev - c_mis)*TN + c_rev*FN."""
    return C_MIS * counts["fp"] + (C_REV - C_MIS) * counts["tn"] + C_REV * counts["fn"]


def fit_problems(docs: dict) -> list[str]:
    problems = []
    meta = docs["evaluation"]["methods"]["meta_model"]
    counts = meta["metrics"]["counts"]
    test_ids = docs["test_ids"]
    if sum(counts.values()) != len(test_ids):
        problems.append(f"meta_model counts sum to {sum(counts.values())}, test split has {len(test_ids)}")
    expected = expected_cost(counts)
    if abs(expected - meta["metrics"]["expected_cost"]) > 1e-9:
        problems.append(f"expected_cost {meta['metrics']['expected_cost']!r} != {expected!r} from the counts")
    if docs["sensitivity"]["counts"] != counts:
        problems.append("sensitivity.json counts differ from evaluation.json")
    tau = docs["model"]["tau_star"]
    if not (meta["tau_star"] == tau == docs["sensitivity"]["tau_star"]):
        problems.append("tau* differs between model.json, evaluation.json and sensitivity.json")

    header, body = docs["features"][0], docs["features"][1:]
    row_of = {r[0]: i for i, r in enumerate(body)}
    missing = [i for i in test_ids if i not in row_of]
    if missing:
        return problems + [f"{len(missing)} test ids have no feature row"]
    X = np.array([[float(v) for v in body[row_of[i]][1:]] for i in test_ids])
    z = np.array([docs["z"][i] for i in test_ids])
    recount = confusion(rescore(docs["model"], header[1:], X) >= tau, z)
    if recount != counts:
        problems.append(f"re-scored test counts {recount} != evaluation.json {counts}")
    return problems


# ---------------------------------------------------------------------------
# route workloads
# ---------------------------------------------------------------------------


def online_problems(batch: dict, online: dict, scripted_retries: int) -> list[str]:
    """Online routing must reproduce batch routing item by item, rebuild the
    original feature matrix exactly, and retry exactly the scripted items."""
    problems = []
    if online["ids"] != batch["ids"]:
        return [f"online routed {len(online['ids'])} items, batch {len(batch['ids'])}, or in another order"]
    X_online = np.asarray(online["X"])
    if X_online.shape != batch["X"].shape or not np.array_equal(X_online, batch["X"]):
        bad = np.flatnonzero(np.any(X_online != batch["X"], axis=1)) if X_online.shape == batch["X"].shape else []
        problems.append(f"gateway-rebuilt features differ from the original traces ({len(bad)} rows)")
    diff = np.flatnonzero(np.asarray(online["decisions"]) != np.asarray(batch["decisions"]))
    problems += [f"item {batch['ids'][i]}: online decision differs from batch" for i in diff]
    if online["retried"] != scripted_retries:
        problems.append(f"{online['retried']} items retried, {scripted_retries} scripted")
    return problems


def _flip_far_from_tau(model: dict, names, X: np.ndarray, decisions: np.ndarray) -> np.ndarray:
    scores = rescore(model, names, X)
    i = int(np.argmax(np.abs(scores - model["tau_star"])))
    flipped = np.array(decisions, dtype=bool)
    flipped[i] = not flipped[i]
    return flipped


# Self-tests: each corrupts one output of this run and returns the names of
# the corruptions that the matching check failed to report.


def _undetected(cases) -> list[str]:
    return [name for name, problems in cases if not problems]


def self_test_fit(docs: dict) -> list[str]:
    count_up = copy.deepcopy(docs)
    count_up["evaluation"]["methods"]["meta_model"]["metrics"]["counts"]["fp"] += 1
    # The moved decision leaves the files consistent with each other, so only
    # the re-scored recount can report it.
    moved = copy.deepcopy(docs)
    metrics = moved["evaluation"]["methods"]["meta_model"]["metrics"]
    counts = metrics["counts"]
    counts["tp" if counts["tp"] else "tn"] -= 1
    counts["fp"] += 1
    metrics["expected_cost"] = expected_cost(counts)
    moved["sensitivity"]["counts"] = dict(counts)
    return _undetected([
        ("evaluation.json count +1", fit_problems(count_up)),
        ("one test decision moved between counts", fit_problems(moved)),
    ])


def self_test_batch(model: dict, names, X: np.ndarray, scores, decisions) -> list[str]:
    flipped = _flip_far_from_tau(model, names, X, decisions)
    moved = np.array(scores, dtype=float)
    moved[len(moved) // 2] += 1e-6
    return _undetected([
        ("one batch decision flipped", decision_problems(model, names, X, scores, flipped)),
        ("one batch score moved by 1e-6", decision_problems(model, names, X, moved, decisions)),
    ])


def self_test_online(model: dict, batch: dict, online: dict, scripted_retries: int) -> list[str]:
    flipped = dict(online, decisions=_flip_far_from_tau(model, batch["names"], batch["X"], online["decisions"]))
    X = np.array(online["X"], dtype=float)
    X[len(X) // 2, 0] = np.nextafter(X[len(X) // 2, 0], np.inf)
    retried = dict(online, retried=online["retried"] + 1)
    return _undetected([
        ("one online decision flipped", online_problems(batch, flipped, scripted_retries)),
        ("one feature value moved by one ulp", online_problems(batch, dict(online, X=X), scripted_retries)),
        ("retry count off by one", online_problems(batch, retried, scripted_retries)),
    ])
