"""Seeded benchmark inputs: synthetic corpora, trace JSONL, stub-provider
fixtures and the frozen routing gate.

Everything here is a function of the benchmark seed. The program under test
only ever sees what these functions write or hand it: trace and label
files, a stub-provider fixture mapping, and a frozen ``model.json``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from lppgate import pipeline, synth, trainer
from lppgate.policy import CostModel, tau_grid
from lppgate.schema import OutcomeLabel, Span, trace_to_dict, write_traces_jsonl
from oracles import correctness

#: Share of online items whose first response is malformed and retried.
RETRY_SHARE = 0.05
#: The routing gate is trained on a separate, smaller CoT corpus.
GATE_ITEMS = 400
GATE_SEED_OFFSET = 7919
#: One explicit configuration, so set-up never runs the grid search.
GATE_CONFIG = trainer.RidgeConfig(alpha=1.0, class_weight="balanced", calibration="isotonic")
CONCEPT = "Content that promotes or sells weapons."
MALFORMED_CONTENT = "I am not able to produce the requested object."


def label_map(rows) -> dict:
    return {r.item_id: (r.ground_truth, OutcomeLabel(r.llm_outcome)) for r in rows}


def corpus(n_items: int, seed: int, cot: bool):
    return synth.generate_corpus(synth.SynthConfig(n_items=n_items, cot=cot, seed=seed))


def write_fit_inputs(out_dir: str, n_items: int, seed: int) -> dict:
    """Direct-answer corpus for the offline fit: traces.jsonl + labels.csv."""
    traces, labels = corpus(n_items, seed, cot=False)
    paths = {"traces": os.path.join(out_dir, "traces.jsonl"), "labels": os.path.join(out_dir, "labels.csv")}
    write_traces_jsonl(traces, paths["traces"])
    pipeline.save_labels(labels, paths["labels"])
    return {"paths": paths, "labels": labels}


def gate_corpus(seed: int) -> dict:
    """Feature table of a separate CoT corpus, split 80/20 by a seeded draw."""
    traces, rows = corpus(GATE_ITEMS, seed + GATE_SEED_OFFSET, cot=True)
    labels = label_map(rows)
    table = pipeline.extract_table(traces)
    ids = list(table.item_ids)
    rng = np.random.default_rng(seed + GATE_SEED_OFFSET)
    is_val = np.zeros(len(ids), dtype=bool)
    is_val[rng.choice(len(ids), size=len(ids) // 5, replace=False)] = True
    train_ids = [i for i, v in zip(ids, is_val) if not v]
    return {
        "table": table,
        "labels": labels,
        "train_ids": train_ids,
        "val_ids": [i for i, v in zip(ids, is_val) if v],
        "z": [correctness(*labels[i]) for i in train_ids],
        "seed": seed,
    }


def fit_gate(g: dict):
    """One configuration through cross_fit_calibrated, then the tau* sweep."""
    table = g["table"]
    gate = trainer.cross_fit_calibrated(
        table.submatrix(g["train_ids"]), g["z"], GATE_CONFIG, seed=g["seed"], feature_names=table.names
    )
    pipeline.sweep_gate(gate, table, g["labels"], g["val_ids"], CostModel(), tau_grid())
    return gate


def _token(surface: str, logprob: float, alternatives=()) -> dict:
    # The first top entry carries the token's own surface; otherwise the
    # trace builder appends the chosen token and the entropies drift.
    top = [{"surface": surface, "logprob": logprob}]
    top += [{"surface": s, "logprob": lp} for s, lp in alternatives]
    return {"surface": surface, "logprob": logprob, "top": top}


def _split_even(text: str, parts: int) -> list[str]:
    edges = np.linspace(0, len(text), parts + 1).round().astype(int)
    return [text[a:b] for a, b in zip(edges[:-1], edges[1:])]


def _alternatives(record: dict) -> list[tuple[str, float]]:
    chosen = record["chosen"]["surface"]
    return [(c["surface"], c["logprob"]) for c in record["candidates"] if c["surface"] != chosen]


def fixture_payload(trace: dict) -> dict:
    """A provider payload whose segmented tokens rebuild the trace exactly.

    ``trace`` is one trace in its JSONL form. The content is the structured
    response as JSON; the outcome digit is one token carrying the outcome
    record's candidates, and the reasoning_steps array is cut into one token
    per reasoning record, each carrying that record's candidates.
    """
    s = trace["structured"]
    outcome = next(t for t in trace["tokens"] if t["span"] == Span.OUTCOME.value)
    reasoning = [t for t in trace["tokens"] if t["span"] == Span.REASONING.value]
    digit = str(s["outcome"])
    steps = json.dumps(s["reasoning_steps"])
    tail = {"p_correct": s["p_correct"]} if s["p_correct"] is not None else {}
    tail["band"] = s["band"]
    suffix = ", " + json.dumps(tail)[1:]
    head, middle = '{"outcome": "', '", "reasoning_steps": '

    tokens = [_token(head, -0.01)]
    tokens.append(_token(digit, outcome["chosen"]["logprob"], _alternatives(outcome)))
    tokens.append(_token(middle, -0.01))
    for piece, record in zip(_split_even(steps, len(reasoning)), reasoning):
        tokens.append(_token(piece, record["chosen"]["logprob"], _alternatives(record)))
    tokens.append(_token(suffix, -0.01))
    return {"content": head + digit + middle + steps + suffix, "tokens": tokens}


def online_fixtures(traces: list[dict], seed: int) -> tuple[list[dict], dict, set]:
    """Request items, stub fixtures and the ids scripted to be retried once."""
    rng = np.random.default_rng(seed)
    n_retry = int(round(RETRY_SHARE * len(traces)))
    retried = {traces[i]["item_id"] for i in rng.choice(len(traces), size=n_retry, replace=False)}
    malformed = {"content": MALFORMED_CONTENT, "tokens": [_token(MALFORMED_CONTENT, -0.5)]}
    items, fixtures = [], {}
    for trace in traces:
        item_id = trace["item_id"]
        items.append({"item_id": item_id, "text": f"post {item_id}", "concept_definition": CONCEPT})
        valid = fixture_payload(trace)
        fixtures[item_id] = [malformed, valid] if item_id in retried else [valid]
    return items, fixtures, retried


def write_route_inputs(out_dir: str, n_items: int, seed: int) -> dict:
    """CoT corpus as trace JSONL, stub fixtures for the same items, and a
    gate frozen on a corpus drawn with another seed."""
    traces, labels = corpus(n_items, seed, cot=True)
    paths = {"traces": os.path.join(out_dir, "traces.jsonl"), "model": os.path.join(out_dir, "model.json")}
    write_traces_jsonl(traces, paths["traces"])
    data = {"paths": paths, "labels": labels, "dicts": [trace_to_dict(t) for t in traces]}
    data["items"], data["fixtures"], data["retried"] = online_fixtures(data["dicts"], seed)
    data["gate_corpus"] = gate_corpus(seed)
    trainer.save_gate(fit_gate(data["gate_corpus"]), paths["model"])
    data["gate"] = trainer.load_gate(paths["model"])
    return data


def input_properties(labels, traces: list[dict] | None = None, retried=None) -> dict:
    """Input properties that the workloads' behaviour depends on."""
    z = [correctness(r.ground_truth, r.llm_outcome) for r in labels]
    props = {"items": len(labels), "error_rate": 1.0 - float(np.mean(z))}
    if traces is not None:
        lengths = [sum(t["span"] == Span.REASONING.value for t in tr["tokens"]) for tr in traces]
        q1, q2, q3 = np.quantile(lengths, [0.25, 0.5, 0.75])
        props["cot_tokens_per_trace"] = {"q25": float(q1), "q50": float(q2), "q75": float(q3)}
    if retried is not None:
        props["scripted_retry_share"] = len(retried) / len(labels)
    return props
