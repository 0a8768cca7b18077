"""Cost helpers that only the tests use."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from lppgate.policy import CostModel


def always_trust_cost(z: Sequence[int], m: CostModel) -> float:
    """The cost of trusting every item: c_mis per incorrect one. The
    oracle for policy_report's always_trust_cost, read from the counts."""
    errors = int(np.sum(np.asarray(z, dtype=int) == 0))
    return m.c_mis * errors
