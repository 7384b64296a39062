"""Fiber parameterizations over shapes and the two-shape inversion solvers.

Given a shape and a point ``w`` of the upper half-plane, a weight vector
mapping to that shape is constructed from the triangle with corners
``0, 1, w``:

* Pentagon: mark the base with ``f1 = 1 - P^2`` and ``f2 = Q^2``; the five
  edge directions of the resulting pentagon (after sliding the two cevian
  edges to the base corners, which only directions survive) are
  ``f2 - w, 1, w - f1, w - 1, -w`` in label order.

* Hexahedron: mark ``X = P^2`` on the base, ``Y = 1 + (w - 1) Q^2`` on the
  segment from 1 to ``w`` and ``Z = w (1 - R^2)`` on the segment from 0 to
  ``w``; the six directions are ``X - w, 1, Y, w - 1, Z - 1, -w``.

Turning angles are read from consecutive direction ratios, never from
near-coincident vertex differences.  The inverse reading recovers ``w`` as
the completion-triangle apex, and a pair of shapes for the designated label
pair pins ``w`` down as the intersection of two circles: for pentagons
``|w| = Q1*Q2`` and ``|w - 1| = P1*P2``; for hexahedra ``|w| = P1*P2`` and
``|w - 1| = 1/(Q1*Q2)``.

The inversion solvers always re-run the forward maps on the recovered
weight vector and compare against *both* input shapes — for hexahedra this
includes the R parameters, which the circles never see.  The inverse runs
in columns (:func:`invert_params`) over an array of shape-pair parameters,
each row bit for bit as Python's scalar arithmetic computes it alone; the
one-pair functions take shape objects and read its one row.

This module holds geometry only; the randomized round-trip check lives in
:mod:`polymod.verify`, and :func:`verify_injectivity` is a view of it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._record import record
from .combinatorics import WeightVector, as_word, validate_weights
from .errors import (
    InconsistentPair,
    NoIntersection,
    NotInTheta,
    OutOfRange,
    SlideCollision,
    check_settings,
    first_failures,
    unwrap,
)
from .moduli import (
    IDENTITY5,
    IDENTITY6,
    HexahedronShape,
    PentagonShape,
    _square,
    forward_params,
    relative_residual,
)
from .planar import libm

#: Minimum imaginary part for a point of the open upper half-plane.
TOL_IM = 1e-12

#: Default verification tolerance of the inversion solvers.
INVERT_TOL = 1e-9

#: The label words whose shape pairs determine a weight vector uniquely.
SWAPPED5 = (2, 1, 4, 3, 5)
SWAPPED6 = (2, 1, 4, 3, 5, 6)

#: The designated label pair (identity word, swapped word) for each n.
DESIGNATED = {5: (IDENTITY5, SWAPPED5), 6: (IDENTITY6, SWAPPED6)}


@record
class UpperHalfPoint:
    """A point of the open upper half-plane."""

    w: complex

    def __post_init__(self):
        unwrap(_w_error(self.w))

    @property
    def as_pair(self) -> tuple[float, float]:
        return (self.w.real, self.w.imag)


def _w_error(w: complex) -> OutOfRange | None:
    """Why ``w`` is no point of the open upper half-plane, or None."""
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        return OutOfRange(f"w = {w!r} is not finite")
    if w.imag <= TOL_IM:
        return OutOfRange(f"Im(w) = {w.imag:.17g} must exceed {TOL_IM:g}")
    return None


def _quot(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``a / b`` per entry of (re, im) pairs of float arrays, spelled out as
    Python's complex quotient computes it (Smith's method, scaled by the
    larger part of ``b``); numpy's complex division may differ in the last bit."""
    (ar, ai), (br, bi) = a, b
    by_re = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_re, bi / br, br / bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
    return re, np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom


@np.errstate(all="ignore")  # failed rows may overflow or divide by zero; their values go unread
def _fiber_dirs(n: int, sq: np.ndarray, wr: np.ndarray, wi: np.ndarray, errors: list) -> tuple:
    """The (re, im) unit edge directions, (N, n) each, of the construction
    from squared shape parameters ``sq`` at fiber points ``wr + i wi``, in
    Python's complex arithmetic written out (a float operand is a complex
    with imaginary part 0.0), or SlideCollision where an edge collapses."""
    base, w_1 = (np.ones_like(wr), np.zeros_like(wr)), (wr - 1.0, wi - 0.0)
    if n == 5:  # f2 - w, 1, w - f1, w - 1, -w with f1 = 1 - P^2, f2 = Q^2
        edges = [(sq[:, 1] - wr, 0.0 - wi), base, (wr - (1.0 - sq[:, 0]), wi - 0.0), w_1]
    else:  # X - w, 1, Y, w - 1, Z - 1 with X = P^2, Y = 1 + (w - 1) Q^2, Z = w (1 - R^2)
        q, r, (ar, ai) = sq[:, 1], 1.0 - sq[:, 2], w_1
        y_mark = (1.0 + (ar * q - ai * 0.0), 0.0 + (ar * 0.0 + ai * q))
        z_mark = (wr * r - wi * 0.0, wr * 0.0 + wi * r)
        edges = [(sq[:, 0] - wr, 0.0 - wi), base, y_mark, w_1, (z_mark[0] - 1.0, z_mark[1] - 0.0)]
    re, im = (np.stack(part, axis=1) for part in zip(*edges, (-wr, -wi)))  # ..., -w
    mag = np.hypot(re, im)  # abs() of a complex
    collapsed = "a construction edge has collapsed to a point"
    first_failures(errors, (mag < 1e-15).any(axis=1), lambda i: SlideCollision(collapsed))
    return _quot((re, im), (mag, np.zeros_like(mag)))


@np.errstate(all="ignore")
def _turning_angles(re: np.ndarray, im: np.ndarray, word: Sequence[int], errors: list):
    """The (N, n) weight vectors of the constructions with unit directions
    ``re + i im``: the turning angle of ``dirs[j] / dirs[j-1]`` (Python's
    quotient, ``math.atan2``) goes to mark ``word[j]``.  ``errors`` takes
    each row's first failure: an angle that is not positive (SlideCollision),
    then the weight domain (NotInTheta).  Positive turns wind once: each
    edge direction lies in a fixed open half-plane or on the real axis."""
    ratio = _quot((re, im), (np.roll(re, 1, axis=1), np.roll(im, 1, axis=1)))
    turns = libm(math.atan2, ratio[1], ratio[0])
    bad = turns <= 0.0
    j = bad.argmax(axis=1)
    first_failures(errors, bad.any(axis=1), lambda i: SlideCollision(
        f"turning angle at edge {j[i] + 1} is {turns[i, j[i]]:.17g}; slid edges intersect"))
    theta, domain = validate_weights(turns[:, np.argsort(word)])  # edge j's angle to mark word[j]
    first_failures(errors, np.array([e is not None for e in domain]), lambda i: NotInTheta(
        f"constructed angles leave the weight domain: {domain[i]}"))
    return theta


def _shape_row(n: int, *shapes) -> np.ndarray:
    """The parameters of shapes of n as one row, or OutOfRange for an n
    other than 5 or 6 or a shape without n - 3 parameters."""
    if n not in (5, 6):
        raise OutOfRange(f"shapes exist for n in {{5, 6}}, got {n}")
    for shape in shapes:
        if len(shape.params) != n - 3:
            raise OutOfRange(f"a shape of n={n} has {n - 3} parameters, got {shape!r}")
    return np.array([sum((shape.params for shape in shapes), ())], dtype=float)


def _fiber_theta(n: int, shape, w: UpperHalfPoint | complex, label: Sequence[int]) -> WeightVector:
    wc, errors = w.w if isinstance(w, UpperHalfPoint) else UpperHalfPoint(complex(w)).w, [None]
    sq = libm(_square, _shape_row(n, shape))
    word = as_word(label)
    if len(word) != n:
        raise OutOfRange(f"label has {len(word)} marks but the construction has {n}")
    re, im = _fiber_dirs(n, sq, np.array([wc.real]), np.array([wc.imag]), errors)
    theta = _turning_angles(re, im, word, errors)
    unwrap(errors[0])
    return WeightVector(n=n, theta=tuple(theta[0].tolist()))


def fiber_theta5(
    shape: PentagonShape, w: UpperHalfPoint | complex, label: Sequence[int] = IDENTITY5
) -> WeightVector:
    """Weight vector whose pentagon for ``label`` has the given shape.

    Raises SlideCollision when the construction self-intersects and
    NotInTheta when the resulting angles violate the weight-vector domain.
    """
    return _fiber_theta(5, shape, w, label)


def fiber_theta6(
    shape: HexahedronShape, w: UpperHalfPoint | complex, label: Sequence[int] = IDENTITY6
) -> WeightVector:
    """Weight vector whose hexahedron for ``label`` has the given shape."""
    return _fiber_theta(6, shape, w, label)


@np.errstate(all="ignore")  # failed rows may overflow; their values go unread
def _circles(r0: np.ndarray, r1: np.ndarray, errors: list) -> tuple[np.ndarray, np.ndarray]:
    """The upper intersections (x, y) of the circles |w| = r0 and
    |w - 1| = r1 per row, and each row's first failure: radii that are not
    positive (OutOfRange), circles that miss (NoIntersection), then a point
    outside the open upper half-plane (OutOfRange)."""
    first_failures(errors, (r0 <= 0.0) | (r1 <= 0.0), lambda i: OutOfRange(
        f"radii must be positive, got ({r0.item(i)!r}, {r1.item(i)!r})"))
    x = (1.0 + r0 * r0 - r1 * r1) / 2.0
    # Heron-style factored form of r0^2 - x^2: each factor is a tangency
    # margin, so near-tangent circles lose no precision to cancellation.
    gap = 1.0 - r0
    y_sq = (r1 - gap) * (r1 + gap) * ((1.0 + r0) - r1) * ((1.0 + r0) + r1) / 4.0
    first_failures(errors, y_sq <= TOL_IM * TOL_IM, lambda i: NoIntersection(
        f"circles |w| = {r0[i]:.17g} about 0 and |w - 1| = {r1[i]:.17g} about 1 "
        "do not meet in the upper half-plane (need |r0 - r1| < 1 < r0 + r1)"))
    y = np.sqrt(y_sq)
    outside = ~(np.isfinite(x) & np.isfinite(y) & (y > TOL_IM))
    first_failures(errors, outside, lambda i: _w_error(complex(x[i], y[i])))
    return x, y


@np.errstate(all="ignore")  # failed rows may overflow; their values go unread
def _radii(n: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The circle radii (r0, r1) of each row of designated shape pairs; r1 is
    infinite where a hexahedron's Q1*Q2 underflows to 0 or its inverse
    overflows, so the circles miss."""
    if n == 5:
        return pairs[:, 1] * pairs[:, 3], pairs[:, 0] * pairs[:, 2]
    q = pairs[:, 1] * pairs[:, 4]
    return pairs[:, 0] * pairs[:, 3], np.where(q != 0.0, 1.0 / q, math.inf)


def invert5(s1: PentagonShape, s2: PentagonShape, tol: float = INVERT_TOL) -> WeightVector:
    """The unique weight vector whose <12345>/<21435> pentagons are (s1, s2)."""
    return inversion_report(5, s1, s2, tol)["theta"]


def invert6(s1: HexahedronShape, s2: HexahedronShape, tol: float = INVERT_TOL) -> WeightVector:
    """The unique weight vector whose <123456>/<214356> hexahedra are (s1, s2).

    The circle solve uses only (P, Q); the forward verification also checks
    both R parameters, so an R-inconsistent pair raises InconsistentPair.
    """
    return inversion_report(6, s1, s2, tol)["theta"]


def designated_pairs(n: int, theta: np.ndarray) -> tuple[np.ndarray, list]:
    """The shapes of each row of an (N, n) array of weight vectors on the
    two words of ``DESIGNATED[n]``, as (N, 2(n-3)) parameters (the identity
    word's first), and each row's first failure of the forward map on them
    in word order, as two ``psi`` calls would raise it: one
    :func:`forward_params` call maps every row on both words."""
    words = DESIGNATED[n]
    params, errors = forward_params(n, np.repeat(theta, 2, axis=0), words * len(theta))
    first = [a or b for a, b in zip(errors[::2], errors[1::2])]
    return params.reshape(len(theta), 2 * (n - 3)), first


def invert_params(n: int, pairs: np.ndarray, tol: float = INVERT_TOL) -> tuple:
    """The inversions of an (N, 2(n-3)) array of designated shape pairs (the
    identity word's first), in columns: the recovered (N, n) angles, the (N,)
    complex fiber points, the residuals and each row's failure or None, each
    row as :func:`inversion_report` gives it alone.  The failures, in order:
    a square that overflows (OutOfRange), the circles (OutOfRange,
    NoIntersection), the construction (InconsistentPair), then the forward
    verification: one :func:`designated_pairs` call maps the recovered
    weight vectors forward, and :func:`relative_residual` compares every
    parameter with its input.  A bad tolerance or n raises OutOfRange.
    """
    tol = check_settings(tol)[0]
    if n not in (5, 6):
        raise OutOfRange(f"inversion is defined for n in {{5, 6}}, got {n}")
    k, errors = n - 3, [None] * len(pairs)
    sq = libm(_square, pairs)
    over = np.isinf(sq) & np.isfinite(pairs)
    kind = "pentagon" if n == 5 else "hexahedron"

    def overflow(i: int) -> OutOfRange:
        shape = pairs[i, :k] if over[i, :k].any() else pairs[i, k:]
        return OutOfRange(f"{kind} shape {tuple(shape.tolist())!r}: a square overflows")

    first_failures(errors, over.any(axis=1), overflow)
    x, y = _circles(*_radii(n, pairs), errors)
    construction = list(errors)
    dirs = _fiber_dirs(n, sq[:, :k], x, y, construction)
    theta = _turning_angles(*dirs, DESIGNATED[n][0], construction)
    errors = [
        e or c and InconsistentPair(f"no weight vector realizes this shape pair: {c}")
        for e, c in zip(errors, construction)
    ]
    ok = [i for i, e in enumerate(errors) if e is None]
    params, forward_errors = designated_pairs(n, theta[ok])
    residual = [math.nan] * len(pairs)
    for i, e, row in zip(ok, forward_errors, relative_residual(params, pairs[ok]).tolist()):
        residual[i] = r = max(row)  # the first of equal values, as Python's max picks them
        if e is None and r > tol:
            e = InconsistentPair(f"forward verification failed: residual {r:.17g} > {tol:g}")
        errors[i] = e
    w = x.astype(complex)
    w.imag = y
    return theta, w, residual, errors


def inversion_report(n: int, s1, s2, tol: float = INVERT_TOL) -> dict:
    """Full inversion result: {'theta', 'w', 'residual'}.

    Shared engine of invert5/invert6, and the one-pair case of
    :func:`invert_params`; the CLI uses the extra fields.  Both shapes need
    n - 3 parameters (OutOfRange otherwise).
    """
    theta, w, residual, errors = invert_params(n, _shape_row(n, s1, s2), tol)
    unwrap(errors[0])
    return {
        "theta": WeightVector(n=n, theta=tuple(theta[0].tolist())),
        "w": UpperHalfPoint(w=complex(w[0])),
        "residual": residual[0],
    }


def verify_injectivity(
    n: int, samples: int, seed: int, tol: float = INVERT_TOL, jobs: int = 1
) -> dict:
    """Empirical injectivity report for the designated label pair.

    The ``roundtrip`` suite of :func:`polymod.verify.run_suite` without its
    ``schema``, ``version`` and ``suite`` fields: the maximum recovery
    error over ``samples`` deterministic weight vectors, all failures, and
    the minimum pairwise separation of the produced shape pairs.
    """
    from .verify import run_suite  # verify imports this module

    report = run_suite("roundtrip", n, samples, seed, tol, jobs)
    for key in ("schema", "version", "suite"):
        del report[key]
    return report
