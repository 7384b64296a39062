"""The scalar rejection samplers, one attempt at a time: the tests' oracles.

``sample_weight_rng`` is the same one-attempt loop as
``polymod.combinatorics.sample_weight_rng``, written apart from it (the two
largest angles by ``np.partition``, not ``np.sort``), so the package's
sampler can be compared with it bit for bit, including where it leaves the
generator.

``stream_trial`` is one ``verify`` trial of the counter-based stream, drawn
one attempt at a time from numpy's own ``Philox``, so it shares no code
with ``polymod.verify``: the block at counter c is what
``Philox(counter=c - 1, key=k).random_raw(4)`` returns, because numpy
increments the counter before its first block.

The attempt budget is read from ``polymod.combinatorics`` on each call, so
a test that lowers it there lowers it for the samplers and their oracles.
"""

import math

import numpy as np

from polymod import combinatorics
from polymod.combinatorics import validate_weight
from polymod.errors import OutOfRange, RejectionBudgetExceeded

WORD_SLOT = 1 << 32


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


def philox_block(seed, counter):
    """The four words of the Philox4x64-10 block at ``counter``, a sequence
    of four ints below 2**64, under the key (seed mod 2**64, seed >> 64), as
    numpy computes it.  numpy turns a list of large ints into floats, so
    every array is built as uint64."""
    before = (sum(c << (64 * i) for i, c in enumerate(counter)) - 1) % 2**256
    words = np.array([(before >> (64 * i)) % 2**64 for i in range(4)], dtype=np.uint64)
    key = np.array([seed % 2**64, seed >> 64], dtype=np.uint64)
    return [int(w) for w in np.random.Philox(counter=words, key=key).random_raw(4)]


def stream_words(seed, trial, attempt, slot, count):
    """Words 0..count-1 of (trial, attempt): word j is word j % 4 of the
    block at counter (trial, attempt, slot + j // 4, 0)."""
    blocks = [philox_block(seed, (trial, attempt, slot + b, 0)) for b in range(-(-count // 4))]
    return [blocks[j // 4][j % 4] for j in range(count)]


def stream_attempt(n, seed, trial, attempt):
    """The n angles of one attempt: the spacings of the sorted uniforms
    (w >> 11) * 2**-53 on [0, 1], scaled by 2*pi, in Python floats."""
    edges = [0.0, *sorted((w >> 11) * 2.0**-53 for w in stream_words(seed, trial, attempt, 0, n - 1)), 1.0]
    return [2.0 * math.pi * (b - a) for a, b in zip(edges, edges[1:])]


def stream_trial(n, seed, trial):
    """Trial ``trial``'s weight vector, label word and attempts spent: its
    first attempt whose angles are positive and whose largest pair sum is
    below pi - 1e-12, and a stable argsort of n words at ``WORD_SLOT``,
    plus 1."""
    budget = combinatorics.REJECTION_BUDGET
    for attempt in range(budget):
        th = stream_attempt(n, seed, trial, attempt)
        top = sorted(th)
        if top[0] > 0.0 and top[-2] + top[-1] < math.pi - 1e-12:
            break
    else:
        raise RejectionBudgetExceeded(f"no valid weight vector for n={n} in {budget} attempts")
    words = stream_words(seed, trial, 0, WORD_SLOT, n)
    return validate_weight(th), tuple(sorted(range(1, n + 1), key=lambda m: words[m - 1])), attempt + 1


def stream_chunk(n, seed, trials):
    """The (N, n) angles and the words of ``stream_trial`` over the trials,
    in order; the first failure is raised."""
    drawn = [stream_trial(n, seed, trial) for trial in trials]
    return np.array([t.theta for t, _, _ in drawn]).reshape(len(drawn), n), [w for _, w, _ in drawn]
