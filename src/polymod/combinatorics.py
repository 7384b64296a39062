"""Weight vectors and circular labels.

Conventions used throughout the package:

* A *weight vector* is a sequence of ``n >= 4`` positive angles (radians)
  summing to ``2*pi`` in which every pairwise sum stays strictly below
  ``pi``.  After validation the angles are rescaled by a uniform factor so
  the sum is exact in float64; the rescaling never moves an angle by more
  than the validation tolerance.

* A *label* is a circular arrangement of the marks ``1..n`` considered up to
  rotation and reversal.  The canonical representative starts with ``1`` and
  is the lexicographic minimum of the rotated word and the rotated reversal.
  There are ``(n-1)!/2`` classes.

* Geometric operations elsewhere in the package accept label *words* (any
  rotation/reversal representative) because the roles of the marks depend on
  the representative; the canonical :class:`Label` is used for bookkeeping.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import TYPE_CHECKING, Iterable, Sequence

from ._record import record
from .errors import (
    NonPositive,
    NotAPermutation,
    OutOfRange,
    PairSumTooLarge,
    RejectionBudgetExceeded,
    SumMismatch,
    first_failures,
    unwrap,
)

if TYPE_CHECKING:
    import numpy as np

#: Absolute tolerance on |sum(theta) - 2*pi| accepted by validate_weight.
TOL_SUM = 1e-12

#: Width of the band around an ideal value: a facet-pair cosine or a shape
#: parameter within it of 1, a triple sum within it of pi, or every angle
#: within it of 2*pi/n (equal weight) counts as that value.
TOL_IDEAL = 1e-9

#: Maximum number of rejection-sampling attempts before giving up.
REJECTION_BUDGET = 10**6


@record
class WeightVector:
    """A validated weight vector: ``n`` angles, exact sum ``2*pi``."""

    n: int
    theta: tuple[float, ...]

    def __iter__(self):
        return iter(self.theta)

    def __getitem__(self, i: int) -> float:
        return self.theta[i]


@record(order=True)
class Label:
    """A canonical circular-permutation label of the marks ``1..n``."""

    word: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return "".join(str(m) for m in self.word)


# --------------------------------------------------------------------------- #
# weight vectors
# --------------------------------------------------------------------------- #

def _non_positive(i: int, t: float) -> NonPositive:
    return NonPositive(f"theta[{i + 1}] = {t!r} is not a positive finite angle")


def _fsum(values: Sequence[float]) -> float:
    """``math.fsum``, or inf where the exact sum overflows (fsum raises)."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _sum_mismatch(total: float) -> SumMismatch:
    return SumMismatch(
        f"sum(theta) = {total:.17g} differs from 2*pi by "
        f"{abs(total - 2.0 * math.pi):.3g} (> {TOL_SUM:g})"
    )


def _large_pair(scaled: Sequence[float]) -> PairSumTooLarge | None:
    """The first pair, in (i, j) order, whose sum reaches pi, or None."""
    n = len(scaled)
    for i in range(n):
        for j in range(i + 1, n):
            pair = scaled[i] + scaled[j]
            if pair >= math.pi:
                return PairSumTooLarge(i + 1, j + 1, pair)
    return None


def validate_weight(theta: Iterable[float]) -> WeightVector:
    """Validate a raw angle sequence and return an exact-sum WeightVector.

    Raises NonPositive, SumMismatch, or PairSumTooLarge naming the violated
    clause; OutOfRange when fewer than four angles are supplied.
    """
    values = [float(t) for t in theta]
    n = len(values)
    if n < 4:
        raise OutOfRange(f"need at least 4 angles, got {n}")
    for i, t in enumerate(values):
        if not math.isfinite(t) or t <= 0.0:
            raise _non_positive(i, t)
    total = _fsum(values)
    if abs(total - 2.0 * math.pi) > TOL_SUM:
        raise _sum_mismatch(total)
    # Pair sums are checked on the rescaled angles that are returned:
    # rescaling can lift a raw pair sum just below pi onto or above it.
    scale = 2.0 * math.pi / total
    scaled = tuple(t * scale for t in values)
    unwrap(_large_pair(scaled))
    return WeightVector(n=n, theta=scaled)


def validate_weights(raw: np.ndarray) -> tuple[np.ndarray, list]:
    """:func:`validate_weight` over the rows of an (N, n) array, n >= 4.

    Returns the rescaled (N, n) angles and, per row, None or the error
    validate_weight raises for it, class and message alike; a failed row's
    angles are meaningless.  Each clause runs on the whole stack in
    validate_weight's order.  The sums are ``math.fsum`` per row, as there
    (a numpy sum rounds differently), and the rescaling is the same IEEE
    product, so every angle keeps its bits.  Float addition is monotone,
    so a row whose two largest angles sum below pi has no pair reaching
    it, and only the other rows run the pair loop.
    """
    import numpy as np

    rows, n = raw.shape
    errors: list = [None] * rows
    bad = ~(np.isfinite(raw) & (raw > 0.0))
    first = bad.argmax(axis=1)
    first_failures(
        errors, bad.any(axis=1), lambda i: _non_positive(int(first[i]), raw[i, first[i]].item())
    )
    two_pi = 2.0 * math.pi
    totals = [two_pi if e is not None else _fsum(row) for row, e in zip(raw.tolist(), errors)]
    total = np.array(totals)
    first_failures(errors, np.abs(total - two_pi) > TOL_SUM, lambda i: _sum_mismatch(totals[i]))
    with np.errstate(all="ignore"):  # a failed row may hold inf or nan
        scaled = raw * (two_pi / total)[:, None]
        top = np.partition(scaled, n - 2, axis=1)
        reach = top[:, n - 2] + top[:, n - 1] >= math.pi
    first_failures(errors, reach, lambda i: _large_pair(scaled[i].tolist()))
    return scaled, errors


def equal_weight(n: int) -> WeightVector:
    """The equal-weight vector (2*pi/n, ..., 2*pi/n)."""
    if n < 4:
        raise OutOfRange(f"need n >= 4, got {n}")
    return WeightVector(n=n, theta=(2.0 * math.pi / n,) * n)


def sample_weight_rng(n: int, rng: np.random.Generator) -> WeightVector:
    """Rejection-sample a weight vector from a generator, one attempt at a
    time: the first attempt (normalized exponentials scaled to 2*pi) whose
    largest pair sum is below pi, by a margin that keeps the rescaling of
    :func:`validate_weight` off the boundary.  RejectionBudgetExceeded
    after ``REJECTION_BUDGET``."""
    import numpy as np

    if n < 4:
        raise OutOfRange(f"need n >= 4, got {n}")
    for _ in range(REJECTION_BUDGET):
        x = rng.exponential(size=n)
        total = x.sum()
        if not (total > 0.0 and np.isfinite(total)):
            continue
        th = 2.0 * math.pi * x / total
        # Float addition is monotone: the largest pair sum is the two largest.
        top = np.sort(th)
        if top[0] > 0.0 and top[-2] + top[-1] < math.pi - 1e-12:
            return validate_weight(th)
    raise RejectionBudgetExceeded(f"no valid weight vector for n={n} in {REJECTION_BUDGET} attempts")


# --------------------------------------------------------------------------- #
# labels
# --------------------------------------------------------------------------- #

def as_word(label: Label | Sequence[int]) -> tuple[int, ...]:
    """Coerce a Label or raw sequence to a validated permutation word."""
    word = label.word if isinstance(label, Label) else tuple(int(m) for m in label)
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise NotAPermutation(f"{word!r} is not a permutation of 1..{n}")
    return word


def _rotate_to_front(word: tuple[int, ...]) -> tuple[int, ...]:
    i = word.index(1)
    return word[i:] + word[:i]


def enumerate_labels(n: int) -> list[Label]:
    """All canonical labels for 4 <= n <= 8, sorted; count is (n-1)!/2."""
    if not 4 <= n <= 8:
        raise OutOfRange(f"label enumeration supports 4 <= n <= 8, got {n}")
    out = []
    for tail in permutations(range(2, n + 1)):
        word = (1,) + tail
        if word <= _rotate_to_front(tuple(reversed(word))):
            out.append(Label(word=word))
    out.sort()
    return out
