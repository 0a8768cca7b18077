"""The synth draw functions as they were before they took their draws
straight from numpy's draw functions, kept verbatim as an oracle: each
makes its draws through rng.dirichlet, rng.choice and rng.permutation.
tests/test_synth.py patches them into lppgate.synth and checks that the
files come out byte for byte as with the module's own functions."""

from __future__ import annotations

import numpy as np

from lppgate.synth import _FLAT_ALPHA, _JUNK_SURFACES, _PEAKED_ALPHA, _SURFACE_SPLIT_RATE


def _outcome_token(rng: np.random.Generator, peaked: bool, chosen_surface: str) -> tuple:
    """One token_span triple for the outcome token."""
    probs = np.sort(rng.dirichlet(_PEAKED_ALPHA if peaked else _FLAT_ALPHA))[::-1]
    digits = ["0", "1", "2", "3"]
    digits.remove(chosen_surface)
    others = [str(s) for s in rng.permutation(digits + [str(rng.choice(_JUNK_SURFACES))])]
    surfaces = [chosen_surface] + others

    candidates = []
    do_split = rng.random() < _SURFACE_SPLIT_RATE and 0.7 * probs[0] > probs[1]
    for surface, p in zip(surfaces, probs):
        if surface == chosen_surface and do_split:
            # split the winning label's mass across two surface forms
            candidates.append((surface, float(np.log(0.7 * p))))
            candidates.append((" " + surface, float(np.log(0.3 * p))))
        else:
            candidates.append((surface, float(np.log(p))))
    # the chosen surface is always the first candidate
    return chosen_surface, candidates[0][1], candidates


def _reasoning_tokens(rng: np.random.Generator, z: int, strength: float) -> list[tuple]:
    tokens = []
    informative = rng.random() < strength
    fluent = bool(z) if informative else bool(rng.integers(0, 2))
    lo, hi = (0.6, 0.95) if fluent else (0.2, 0.8)
    for t in range(int(rng.integers(15, 40))):
        p_chosen = float(rng.uniform(lo, hi))
        rest = rng.dirichlet((1.0,) * 4) * (1.0 - p_chosen)
        chosen = (f" w{t}", float(np.log(p_chosen)))
        candidates = [chosen] + [(f" v{t}_{j}", float(np.log(p))) for j, p in enumerate(rest)]
        tokens.append((*chosen, candidates))
    return tokens
