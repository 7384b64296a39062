"""Structured errors raised across the package.

Every error derives from :class:`PolymodError` and carries an ``exit_code``
used by the command-line layer: 2 for input/validation problems (the default),
3 when the two recovery circles fail to intersect, 4 when a shape pair cannot
be reproduced by any common weight vector, and 5 when an operation requires
the equal-weight vector and did not get it.  Any other exception is a bug:
the command-line layer reports it with exit code 6, and ``verify`` never
counts it as a failed trial.

Stacked calls carry their rows' failures by one protocol: a row holds its
value or its first ``PolymodError``, and a per-row error list holds None
or that error.  :func:`unwrap` raises a recorded failure and returns
anything else, and :func:`first_failures` records a gate's failure on the
rows that have not failed yet.  :func:`check_settings` is the one domain
rule for the run settings ``tol``, ``samples``, ``seed`` and ``jobs``,
shared by the CLI's flags, ``run_suite`` and ``inversion_reports``.
"""

from __future__ import annotations

import math
from typing import Callable


class PolymodError(Exception):
    """Base class for all structured errors in this package."""

    exit_code = 2


# --- weight-vector validation -------------------------------------------------

class SumMismatch(PolymodError):
    """Angle sum differs from 2*pi beyond the allowed tolerance."""


class NonPositive(PolymodError):
    """An angle is zero, negative, or not finite."""


class PairSumTooLarge(PolymodError):
    """Some pair of angles sums to at least pi."""

    def __init__(self, i: int, j: int, value: float):
        self.pair = (i, j)
        self.value = value
        super().__init__(
            f"theta[{i}] + theta[{j}] = {value:.17g} >= pi; weight vectors "
            "require every pairwise sum below pi"
        )


class OutOfRange(PolymodError):
    """A numeric or size argument is outside its documented domain."""


class NotAPermutation(PolymodError):
    """A label word is not a permutation of 1..n."""


# --- planar constructions -----------------------------------------------------

class DegenerateTriangle(PolymodError):
    """A completion-triangle corner angle left the open interval (0, pi)."""


class FootOutsideBase(PolymodError):
    """Pentagon cevian feet violated 0 < f1 < f2 < 1."""


# --- Lorentzian model ----------------------------------------------------------

class SignatureMismatch(PolymodError):
    """The area form did not have exactly one positive and n-3 negative eigenvalues."""


class NoIntersection(PolymodError):
    """Two loci that must meet (facet/axis, or the two recovery circles) do not."""

    exit_code = 3


class FacetsDisjoint(PolymodError):
    """Two facet planes neither intersect nor touch inside hyperbolic space."""


# --- moduli maps ----------------------------------------------------------------

class RouteDisagreement(PolymodError):
    """The planar and Lorentzian extraction routes disagreed beyond tolerance."""


class NegativeRatio(PolymodError):
    """A squared shape parameter came out non-positive (broken feet orientation),
    or a squared Lorentz coordinate scale came out negative."""


# --- fiber constructions ---------------------------------------------------------

class SlideCollision(PolymodError):
    """Slid edges of a fiber construction intersect; the polygon is not convex."""


class NotInTheta(PolymodError):
    """A constructed angle vector falls outside the weight-vector domain."""


class InconsistentPair(PolymodError):
    """A shape pair is not reproduced by the weight vector its circles determine."""

    exit_code = 4


# --- glued complexes --------------------------------------------------------------

class PairingFailure(PolymodError):
    """A degenerate-configuration key did not match exactly two face slots."""


class NotEqualWeight(PolymodError):
    """Cusp enumeration requires the equal-weight vector."""

    exit_code = 5


# --- sampling --------------------------------------------------------------------------

class RejectionBudgetExceeded(PolymodError):
    """Rejection sampling failed to produce a valid weight vector in budget."""


# --- the row protocol ----------------------------------------------------------------

def unwrap(row):
    """The row's value, or its recorded failure raised (None passes through)."""
    if isinstance(row, PolymodError):
        raise row
    return row


def first_failures(errors: list, mask, make: Callable[[int], PolymodError]) -> None:
    """Record ``make(i)`` for each row of the 1-D boolean array ``mask``
    whose entry of ``errors`` is still None; an earlier failure stays."""
    for i in mask.nonzero()[0].tolist():
        if errors[i] is None:
            errors[i] = make(i)


#: The most trials one ``verify`` run takes.
MAX_SAMPLES = 10**6


def check_settings(tol: float = 1.0, samples: int = 1, seed: int = 0, jobs: int = 1) -> None:
    """Reject a run setting outside its domain with OutOfRange: a tolerance
    that is not positive and finite (NaN included), a sample count outside
    1..MAX_SAMPLES, fewer than one job, or a negative seed.  Every default
    is in the domain, so a caller passes only the settings it has."""
    if not 0.0 < tol < math.inf:
        raise OutOfRange(f"tol must be positive and finite, got {tol!r}")
    if samples < 1:
        raise OutOfRange(f"samples must be >= 1, got {samples!r}")
    if samples > MAX_SAMPLES:
        raise OutOfRange(f"samples must be <= {MAX_SAMPLES}, got {samples!r}")
    if jobs < 1:
        raise OutOfRange(f"jobs must be >= 1, got {jobs!r}")
    if seed < 0:
        raise OutOfRange(f"seed must be non-negative, got {seed!r}")
