"""Weight vectors, circular labels, and degenerate-configuration keys.

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

* A *degenerate configuration* is a cyclic word over merged marks — symbols
  are sorted tuples of one, two, or three marks — considered up to rotation
  and reversal.  Two polyhedron faces are glued exactly when their
  configuration keys are equal.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations, permutations
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

#: Attempts drawn per generator and numpy call by the rejection sampler, by
#: n (``SAMPLE_BLOCK`` for any other): the fastest on 64-generator chunks at
#: acceptance rates of 1.07 % (n = 5) and 6.25 % (n = 6) over 200,000 draws.
SAMPLE_BLOCK = 32
SAMPLE_BLOCKS = {5: 64, 6: 32}


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


@record(order=True)
class DegenerateConfig:
    """A canonical cyclic word of merged marks (collision pattern).

    ``word`` is a tuple of symbols; each symbol is a sorted tuple of one,
    two, or three marks.  The word is the lexicographic minimum over all
    rotations of itself and of its reversal, so equal configurations compare
    equal.
    """

    word: tuple[tuple[int, ...], ...]

    @property
    def merged(self) -> tuple[tuple[int, ...], ...]:
        """The non-singleton symbols (collided pairs/triples), in word order."""
        return tuple(s for s in self.word if len(s) > 1)

    def render(self) -> str:
        return "".join(
            str(s[0]) if len(s) == 1 else "(" + "".join(str(m) for m in s) + ")"
            for s in self.word
        )

    def __str__(self) -> str:
        return self.render()


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


def sample_weight(n: int, seed: int) -> WeightVector:
    """Deterministic pseudo-random weight vector for (n, seed)."""
    import numpy as np

    return sample_weight_rng(n, np.random.default_rng(seed))


def sample_weight_rng(n: int, rng: np.random.Generator) -> WeightVector:
    """Rejection-sample a weight vector using an explicit generator: the
    one-generator case of :func:`sample_weights`."""
    return WeightVector(n=n, theta=tuple(sample_weights(n, [rng])[0].tolist()))


def sample_weights(n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One rejection-sampled weight vector per generator, as (N, n) angles.

    An attempt (normalized exponentials scaled to 2*pi) is kept when its
    largest two angles sum below pi, by a margin that keeps the rescaling of
    :func:`validate_weights` off the boundary.  Each generator draws blocks
    of ``SAMPLE_BLOCKS[n]`` attempts, tested at once with the float
    operations of one attempt alone; a generator first accepted at attempt
    k of a block is rewound and draws k + 1 attempts, ending where one draw
    per attempt leaves it.  The first to spend ``REJECTION_BUDGET`` attempts
    raises RejectionBudgetExceeded.
    """
    import numpy as np

    if n < 4:
        raise OutOfRange(f"need n >= 4, got {n}")
    block, budget = SAMPLE_BLOCKS.get(n, SAMPLE_BLOCK), REJECTION_BUDGET
    raw = np.zeros((len(rngs), n))
    pending, attempts = list(range(len(rngs))), 0
    while pending and attempts < budget:
        rows = min(block, budget - attempts)
        states = [rngs[i].bit_generator.state for i in pending]
        x = np.array([rngs[i].exponential(size=(rows, n)) for i in pending])
        total = x.sum(axis=2)
        th = 2.0 * math.pi * x / total[..., None]
        # Float addition is monotone, so the largest pair sum is the sum of
        # the two largest angles that the test of one attempt takes.
        cols = [th[..., j] for j in range(n)]
        top = reduce(np.maximum, (a + b for a, b in combinations(cols, 2)))
        ok = (total > 0.0) & np.isfinite(total) & (reduce(np.minimum, cols) > 0.0)
        ok &= top < math.pi - 1e-12
        first = ok.argmax(axis=1).tolist()
        for p in ok.any(axis=1).nonzero()[0].tolist():
            rng, k = rngs[pending[p]], first[p]
            rng.bit_generator.state = states[p]
            rng.exponential(size=(k + 1, n))
            raw[pending[p]] = th[p, k]
            pending[p] = None
        pending = [i for i in pending if i is not None]
        attempts += rows
    angles, errors = validate_weights(raw)
    spent = f"no valid weight vector for n={n} in {budget} attempts"
    for i in pending:
        errors[i] = RejectionBudgetExceeded(spent)
    for e in errors:
        unwrap(e)
    return angles


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


def _rotate_to_front(word: tuple[int, ...], mark: int = 1) -> tuple[int, ...]:
    i = word.index(mark)
    return word[i:] + word[:i]


def canonical_label(word: Label | Sequence[int]) -> Label:
    """Canonical representative: rotate 1 to the front, then take the
    lexicographic minimum of the word and its similarly rotated reversal."""
    w = as_word(word)
    fwd = _rotate_to_front(w)
    rev = _rotate_to_front(tuple(reversed(w)))
    return Label(word=min(fwd, rev))


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


# --------------------------------------------------------------------------- #
# degenerate configurations
# --------------------------------------------------------------------------- #

def _canonical_cyclic(word: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    best = None
    for w in (word, tuple(reversed(word))):
        for r in range(len(w)):
            cand = w[r:] + w[:r]
            if best is None or cand < best:
                best = cand
    return best


def _merge_positions(word: tuple[int, ...], groups: Sequence[Sequence[int]]) -> DegenerateConfig:
    """Merge the given groups of cyclic positions (0-based) into symbols."""
    n = len(word)
    pos_to_group: dict[int, int] = {}
    for g, positions in enumerate(groups):
        for p in positions:
            pos_to_group[p % n] = g
    symbols: list[tuple[int, ...]] = []
    seen_groups: set[int] = set()
    for p in range(n):
        g = pos_to_group.get(p)
        if g is None:
            symbols.append((word[p],))
        elif g not in seen_groups:
            seen_groups.add(g)
            marks = sorted(word[q % n] for q in groups[g])
            symbols.append(tuple(marks))
    return DegenerateConfig(word=_canonical_cyclic(tuple(symbols)))


def face_config(label: Label | Sequence[int], k: int) -> DegenerateConfig:
    """Codimension-1 key of face ``k``: marks at positions k, k+1 collide.

    ``k`` is 1-based and cyclic; face k of <i1..in> collapses (i_k, i_{k+1}).
    Two faces glue exactly when their keys are equal.
    """
    word = as_word(label)
    n = len(word)
    if not 1 <= k <= n:
        raise OutOfRange(f"face index must be in 1..{n}, got {k}")
    return _merge_positions(word, [(k - 1, k % n)])


def vertex_config(label: Label | Sequence[int], k: int, m: int) -> DegenerateConfig:
    """Codimension-2 key with two disjoint collided pairs at faces k and m."""
    word = as_word(label)
    n = len(word)
    if not (1 <= k <= n and 1 <= m <= n) or k == m:
        raise OutOfRange(f"need two distinct face indices in 1..{n}, got {k}, {m}")
    a = {(k - 1) % n, k % n}
    b = {(m - 1) % n, m % n}
    if a & b:
        raise OutOfRange(f"faces {k} and {m} share a mark; pairs must be disjoint")
    return _merge_positions(word, [sorted(a), sorted(b)])


def triple_config(label: Label | Sequence[int], k: int) -> DegenerateConfig:
    """Codimension-2 key with the consecutive triple at positions k..k+2 collided."""
    word = as_word(label)
    n = len(word)
    if not 1 <= k <= n:
        raise OutOfRange(f"face index must be in 1..{n}, got {k}")
    return _merge_positions(word, [(k - 1, k % n, (k + 1) % n)])
