"""The scalar rejection sampler, one draw per attempt: the tests' oracle.

This is the loop that ``polymod.combinatorics.sample_weight_rng`` ran
before it drew its attempts in blocks, kept verbatim so the block sampler
can be compared with it bit for bit, including where it leaves the
generator; ``sample_weights`` runs it over a chunk of generators in order,
as ``polymod.combinatorics.sample_weights`` must.  The attempt budget is
read from ``polymod.combinatorics`` on each call, so a test that lowers it
there lowers it for both samplers.
"""

import math

import numpy as np

from polymod import combinatorics
from polymod.combinatorics import validate_weight
from polymod.errors import OutOfRange, RejectionBudgetExceeded


def sample_weight_rng(n, rng):
    if n < 4:
        raise OutOfRange(f"need n >= 4, got {n}")
    REJECTION_BUDGET = combinatorics.REJECTION_BUDGET
    for _ in range(REJECTION_BUDGET):
        x = rng.exponential(size=n)
        total = x.sum()
        if total <= 0.0 or not np.isfinite(total):
            continue
        th = 2.0 * math.pi * x / total
        top = np.partition(th, n - 2)[-2:]
        if th.min() > 0.0 and top[0] + top[1] < math.pi - 1e-12:
            return validate_weight(th)
    raise RejectionBudgetExceeded(
        f"no valid weight vector for n={n} in {REJECTION_BUDGET} attempts"
    )


def sample_weights(n, rngs):
    """The (N, n) angles of one scalar draw per generator, in order; the
    first failure is raised."""
    return np.array([sample_weight_rng(n, rng).theta for rng in rngs]).reshape(len(rngs), n)
