"""Synthetic trace generator with known ground truth.

Produces response traces whose outcome-token distributions, verbalized
confidence, and abstention behavior carry a configurable amount of
correctness signal, so the full pipeline can be exercised and audited at
desk scale against an exactly known answer key.

Construction: correctness z is drawn first at the configured error rate;
abstentions are a subset of the incorrect items (an abstention never
matches the binary truth), so realized error and abstention rates stay on
target and the correctness labeler reproduces z exactly. Outcome-token
distributions come from two Dirichlet regimes -- peaked when the model is
right, flat when it is wrong -- with a per-family mixing knob that dials
the signal from none (0.0) to deterministic (1.0). The "attribution" knob
controls how confident abstained errors look: at 1.0 they are fully
peaked, i.e. invisible to probability-only uncertainty signals and
detectable only through the abstention flags.

Draws: the corpora are the ones rng.dirichlet, rng.choice and
rng.permutation would give, value for value, but each draw is taken
straight from the numpy function those calls use inside (standard_gamma,
standard_exponential, integers, permutation of a range) and normalized as
numpy's dirichlet does, which skips their per-call argument checks.
tests/test_synth.py pins both: the files equal those of the calls
themselves (tests/synth_reference.py), and each replacement equals its
numpy call over many generator states, so a numpy release that changes
one of those algorithms fails the tests instead of moving the corpora.
A CoT item draws its reasoning tokens one at a time (a uniform, then four
exponentials) and takes one np.log over the item's (T, 5) probabilities,
which gives the bits of one log per value, as the tests also check. Every
item reuses one string object per reasoning surface (_REASONING_SURFACES)
and one tuple of reasoning steps (_COT_STEPS), so a reasoning token holds
no objects of its own.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping

import numpy as np

from .schema import (
    ConfidenceBand,
    OutcomeLabel,
    ReasoningStep,
    ResponseTrace,
    StructuredResponse,
    snap_confidence,
    token_span,
)

__all__ = ["SynthConfig", "LabelRow", "generate_corpus", "DEFAULT_SIGNAL"]

DEFAULT_SIGNAL: dict[str, float] = {
    "outcome_topk": 0.9,
    "verbalized": 0.3,
    "sequence": 0.5,
    "attribution": 1.0,
}

_PEAKED_ALPHA = (14.0, 1.0, 1.0, 1.0, 1.0)
_FLAT_ALPHA = (2.5, 2.5, 2.5, 2.5, 2.5)
_JUNK_SURFACES = (" the", " is", " a")
_BAND_EDGES = ((0.2, ConfidenceBand.VL), (0.4, ConfidenceBand.L), (0.6, ConfidenceBand.M), (0.8, ConfidenceBand.H))
#: Share of items whose ground truth is a violation.
_P_VIOLATING = 0.5
#: Share of outcome tokens whose winning label's mass is split across two surface forms.
_SURFACE_SPLIT_RATE = 0.1
#: Share of items that report no p_correct.
_P_CORRECT_MISSING_RATE = 0.02
#: A CoT item draws its count of reasoning tokens from [15, this).
_MAX_REASONING_TOKENS = 40
#: Reasoning token t's chosen surface and its four alternatives, one string
#: object each, shared by every token t of every corpus.
_REASONING_SURFACES = tuple(
    (f" w{t}", *(f" v{t}_{j}" for j in range(4))) for t in range(_MAX_REASONING_TOKENS)
)
#: The reasoning steps of every CoT item.
_COT_STEPS = tuple(ReasoningStep(k + 1, f"consider aspect {k + 1}") for k in range(3))


@dataclass(frozen=True)
class SynthConfig:
    n_items: int = 3000
    error_rate: float = 0.15
    abstention_rate: float = 0.03
    signal: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_SIGNAL))
    cot: bool = False
    seed: int = 42

    def __post_init__(self):
        if isinstance(self.n_items, bool) or not isinstance(self.n_items, int) or self.n_items < 1:
            raise ValueError(f"n_items must be an integer of at least 1, got {self.n_items!r}")
        for name, value in (("error_rate", self.error_rate), ("abstention_rate", self.abstention_rate)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        for family, value in self.signal.items():
            if family not in DEFAULT_SIGNAL:
                raise ValueError(f"signal family {family!r} is not one of {sorted(DEFAULT_SIGNAL)}")
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"signal[{family!r}] must be a number, got {value!r}")
            if not 0.0 <= value <= 1.0:  # nan fails too
                raise ValueError(f"signal[{family!r}] must be within [0, 1], got {value!r}")


@dataclass(frozen=True)
class LabelRow:
    item_id: str
    ground_truth: int
    llm_outcome: int


def _band_for(confidence: float) -> ConfidenceBand:
    for edge, band in _BAND_EDGES:
        if confidence < edge:
            return band
    return ConfidenceBand.VH


def _normalized(draws: list[float]) -> list[float]:
    """Gamma draws scaled to sum to 1 as numpy's dirichlet scales them: the
    draws summed left to right, the sum's reciprocal, one product per draw."""
    total = 0.0
    for d in draws:
        total += d
    inv = 1.0 / total
    return [d * inv for d in draws]


def _outcome_probs(rng: np.random.Generator, peaked: bool) -> list[float]:
    """rng.dirichlet(_PEAKED_ALPHA if peaked else _FLAT_ALPHA), drawn as its
    gammas; a gamma(1) draw is a standard exponential."""
    if peaked:
        draws = [float(rng.standard_gamma(_PEAKED_ALPHA[0])), *rng.standard_exponential(4).tolist()]
    else:
        draws = rng.standard_gamma(_FLAT_ALPHA[0], 5).tolist()
    return _normalized(draws)


def _outcome_token(rng: np.random.Generator, peaked: bool, chosen_surface: str) -> tuple:
    """One token_span triple for the outcome token."""
    probs = sorted(_outcome_probs(rng, peaked), reverse=True)
    digits = ["0", "1", "2", "3"]
    digits.remove(chosen_surface)
    digits.append(_JUNK_SURFACES[int(rng.integers(0, 3))])  # rng.choice(_JUNK_SURFACES)
    surfaces = [chosen_surface] + [digits[j] for j in rng.permutation(4).tolist()]

    if rng.random() < _SURFACE_SPLIT_RATE and 0.7 * probs[0] > probs[1]:
        # split the winning label's mass across two surface forms
        surfaces.insert(1, " " + chosen_surface)
        probs = [0.7 * probs[0], 0.3 * probs[0], *probs[1:]]
    logprobs = np.log(probs).tolist()
    # the chosen surface is always the first candidate
    return chosen_surface, logprobs[0], list(zip(surfaces, logprobs))


def _reasoning_tokens(rng: np.random.Generator, z: int, strength: float) -> list[tuple]:
    informative = rng.random() < strength
    fluent = bool(z) if informative else bool(rng.integers(0, 2))
    lo, hi = (0.6, 0.95) if fluent else (0.2, 0.8)
    uniform, exponential = rng.uniform, rng.standard_exponential
    probs = []
    for _ in range(int(rng.integers(15, _MAX_REASONING_TOKENS))):
        p_chosen = uniform(lo, hi)
        rest = 1.0 - p_chosen
        # rng.dirichlet((1.0,) * 4), drawn as its four exponentials
        probs.append([p_chosen, *[p * rest for p in _normalized(exponential(4).tolist())]])
    tokens = []
    for surfaces, logprobs in zip(_REASONING_SURFACES, np.log(probs).tolist()):
        # handed over in the stable descending order token_span would sort them into
        candidates = sorted(zip(surfaces, logprobs), key=itemgetter(1), reverse=True)
        tokens.append((surfaces[0], logprobs[0], candidates))
    return tokens


def generate_corpus(cfg: SynthConfig) -> tuple[list[ResponseTrace], list[LabelRow]]:
    """Generate (traces, label rows); byte-identical for identical configs."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_items
    n_err = int(round(n * cfg.error_rate))
    n_abstain = min(int(round(n * cfg.abstention_rate)), n_err)
    error_idx = rng.choice(n, size=n_err, replace=False)
    abstain_set = set(int(i) for i in error_idx[:n_abstain])
    error_set = set(int(i) for i in error_idx)

    signal = {**DEFAULT_SIGNAL, **dict(cfg.signal)}
    traces: list[ResponseTrace] = []
    labels: list[LabelRow] = []
    for i in range(n):
        item_id = f"synth-{i:06d}"
        truth = int(rng.random() < _P_VIOLATING)
        z = 0 if i in error_set else 1
        if i in abstain_set:
            outcome = OutcomeLabel(int(rng.choice([2, 3])))
        elif z == 1:
            outcome = OutcomeLabel.YES if truth else OutcomeLabel.NO
        else:
            outcome = OutcomeLabel.NO if truth else OutcomeLabel.YES

        if i in abstain_set:
            peaked = rng.random() < signal["attribution"]
        elif rng.random() < signal["outcome_topk"]:
            peaked = z == 1
        else:
            peaked = bool(rng.integers(0, 2))
        outcome_span = token_span([_outcome_token(rng, peaked, str(int(outcome)))])

        if rng.random() < signal["verbalized"]:
            conf = rng.uniform(0.78, 0.96) if z == 1 else rng.uniform(0.45, 0.75)
        else:
            conf = rng.uniform(0.5, 0.95)
        p_correct = None if rng.random() < _P_CORRECT_MISSING_RATE else snap_confidence(round(conf * 100))
        band = _band_for(conf)

        steps: tuple[ReasoningStep, ...] = ()
        reasoning = []
        if cfg.cot:
            steps = _COT_STEPS
            reasoning = _reasoning_tokens(rng, z, signal["sequence"])

        structured = StructuredResponse(outcome, steps, p_correct, band)
        traces.append(ResponseTrace(item_id, structured, outcome_span, token_span(reasoning), attempt=1))
        labels.append(LabelRow(item_id, truth, int(outcome)))
    return traces, labels
