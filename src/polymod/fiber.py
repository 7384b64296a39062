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
includes the R parameters, which the circles never see.  The check runs in
columns (:func:`designated_pairs`), each row compared with its input pair
on the input's own scale (:func:`polymod.moduli.relative_residual`).

This module holds geometry only; the randomized round-trip check lives in
:mod:`polymod.verify`, and :func:`verify_injectivity` is a view of it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._record import record
from .combinatorics import WeightVector, as_word, validate_weight
from .errors import (
    InconsistentPair,
    NoIntersection,
    NonPositive,
    NotInTheta,
    OutOfRange,
    PairSumTooLarge,
    PolymodError,
    SlideCollision,
    SumMismatch,
    check_settings,
    map_ok,
    rows,
    unwrap,
)
from .moduli import (
    IDENTITY5,
    IDENTITY6,
    HexahedronShape,
    PentagonShape,
    forward_params,
    relative_residual,
)
from .planar import complete_triangle

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
        if not (math.isfinite(self.w.real) and math.isfinite(self.w.imag)):
            raise OutOfRange(f"w = {self.w!r} is not finite")
        if self.w.imag <= TOL_IM:
            raise OutOfRange(
                f"Im(w) = {self.w.imag:.17g} must exceed {TOL_IM:g}"
            )

    @property
    def as_pair(self) -> tuple[float, float]:
        return (self.w.real, self.w.imag)


def _as_w(w: UpperHalfPoint | complex) -> complex:
    if isinstance(w, UpperHalfPoint):
        return w.w
    return UpperHalfPoint(complex(w)).w


def _unit(z: complex) -> complex:
    mag = abs(z)
    if mag < 1e-15:
        raise SlideCollision("a construction edge has collapsed to a point")
    return z / mag


def fiber_construction5(
    shape: PentagonShape, w: UpperHalfPoint | complex
) -> tuple[complex, ...]:
    """Edge directions of the pentagon fiber construction, in label order."""
    wc = _as_w(w)
    f1 = 1.0 - shape.P**2
    f2 = shape.Q**2
    return (
        _unit(f2 - wc),
        1.0 + 0.0j,
        _unit(wc - f1),
        _unit(wc - 1.0),
        _unit(-wc),
    )


def fiber_construction6(
    shape: HexahedronShape, w: UpperHalfPoint | complex
) -> tuple[complex, ...]:
    """Edge directions of the hexahedron fiber construction, in label order."""
    wc = _as_w(w)
    x_mark = complex(shape.P**2)
    y_mark = 1.0 + (wc - 1.0) * shape.Q**2
    z_mark = wc * (1.0 - shape.R**2)
    return (
        _unit(x_mark - wc),
        1.0 + 0.0j,
        _unit(y_mark),
        _unit(wc - 1.0),
        _unit(z_mark - 1.0),
        _unit(-wc),
    )


def _angles_from_dirs(dirs: tuple[complex, ...], label: Sequence[int]) -> WeightVector:
    """Turning angles of the construction, assembled into a weight vector."""
    n = len(dirs)
    word = as_word(label)
    if len(word) != n:
        raise OutOfRange(f"label has {len(word)} marks but the construction has {n}")
    turns = []
    for j in range(n):
        ratio = dirs[j] / dirs[j - 1]
        ang = math.atan2(ratio.imag, ratio.real)
        if ang <= 0.0:
            raise SlideCollision(
                f"turning angle at edge {j + 1} is {ang:.17g}; slid edges intersect"
            )
        turns.append(ang)
    total = math.fsum(turns)
    if abs(total - 2.0 * math.pi) > 1e-9:
        raise SlideCollision(
            f"turning angles wind {total / (2 * math.pi):.6f} times instead of once"
        )
    theta = [0.0] * n
    for j, mark in enumerate(word):
        theta[mark - 1] = turns[j]
    try:
        return validate_weight(theta)
    except (PairSumTooLarge, NonPositive, SumMismatch) as exc:
        raise NotInTheta(f"constructed angles leave the weight domain: {exc}") from exc


def fiber_theta5(
    shape: PentagonShape,
    w: UpperHalfPoint | complex,
    label: Sequence[int] = IDENTITY5,
) -> WeightVector:
    """Weight vector whose pentagon for ``label`` has the given shape.

    Raises SlideCollision when the construction self-intersects and
    NotInTheta when the resulting angles violate the weight-vector domain.
    """
    return _angles_from_dirs(fiber_construction5(shape, w), label)


def fiber_theta6(
    shape: HexahedronShape,
    w: UpperHalfPoint | complex,
    label: Sequence[int] = IDENTITY6,
) -> WeightVector:
    """Weight vector whose hexahedron for ``label`` has the given shape."""
    return _angles_from_dirs(fiber_construction6(shape, w), label)


def w_from_theta(theta: WeightVector, label: Sequence[int]) -> UpperHalfPoint:
    """The fiber point of a weight vector: the completion-triangle apex."""
    tri = complete_triangle(theta, label)
    return UpperHalfPoint(w=tri.c)


def circle_intersection(r0: float, r1: float) -> UpperHalfPoint:
    """Upper intersection of circles |w| = r0 and |w - 1| = r1."""
    if r0 <= 0.0 or r1 <= 0.0:
        raise OutOfRange(f"radii must be positive, got ({r0!r}, {r1!r})")
    x = (1.0 + r0 * r0 - r1 * r1) / 2.0
    # Heron-style factored form of r0^2 - x^2: each factor is a tangency
    # margin, so near-tangent circles lose no precision to cancellation.
    gap = 1.0 - r0
    y_sq = (
        (r1 - gap) * (r1 + gap) * ((1.0 + r0) - r1) * ((1.0 + r0) + r1) / 4.0
    )
    if y_sq <= TOL_IM * TOL_IM:
        raise NoIntersection(
            f"circles |w| = {r0:.17g} about 0 and |w - 1| = {r1:.17g} about 1 "
            "do not meet in the upper half-plane (need |r0 - r1| < 1 < r0 + r1)"
        )
    return UpperHalfPoint(w=complex(x, math.sqrt(y_sq)))


def recover_w5(s1: PentagonShape, s2: PentagonShape) -> UpperHalfPoint:
    """Recover w from the pentagon shapes of the label pair <12345>, <21435>.

    The swapped label exchanges the cevian roles, so the two shape pairs
    constrain ``|w| = Q1*Q2`` and ``|w - 1| = P1*P2``.
    """
    return circle_intersection(s1.Q * s2.Q, s1.P * s2.P)


def recover_w6(s1: HexahedronShape, s2: HexahedronShape) -> UpperHalfPoint:
    """Recover w from hexahedron shapes of the label pair <123456>, <214356>:
    ``|w| = P1*P2`` and ``|w - 1| = 1/(Q1*Q2)``, an infinite radius where
    the product underflows to 0 (the circles then do not meet)."""
    q = s1.Q * s2.Q
    return circle_intersection(s1.P * s2.P, 1.0 / q if q else math.inf)


def invert5(
    s1: PentagonShape, s2: PentagonShape, tol: float = INVERT_TOL
) -> WeightVector:
    """The unique weight vector whose <12345>/<21435> pentagons are (s1, s2)."""
    return inversion_report(5, s1, s2, tol)["theta"]


def invert6(
    s1: HexahedronShape, s2: HexahedronShape, tol: float = INVERT_TOL
) -> WeightVector:
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


def _check_squares(shape: PentagonShape | HexahedronShape) -> None:
    """OutOfRange for a shape with a parameter whose square overflows a
    double.  The fiber construction squares every parameter of both input
    shapes, so the inversion takes no such shape."""
    for v in shape.params:
        try:
            v**2
        except OverflowError as exc:
            kind = "pentagon" if isinstance(shape, PentagonShape) else "hexahedron"
            raise OutOfRange(f"{kind} shape {shape.params!r}: a square overflows") from exc


def inversion_report(n: int, s1, s2, tol: float = INVERT_TOL) -> dict:
    """Full inversion result: {'theta', 'w', 'residual'}.

    Shared engine of invert5/invert6, and the one-pair case of
    :func:`inversion_reports`; the CLI uses the extra fields.
    """
    return unwrap(inversion_reports(n, [(s1, s2)], tol)[0])


def inversion_reports(
    n: int, pairs: Sequence[tuple], tol: float = INVERT_TOL
) -> list[dict | PolymodError]:
    """:func:`inversion_report` over many shape pairs.

    Each pair gets its report, or the error its inversion raises first:
    a parameter of either shape beyond :func:`check_squares` (OutOfRange),
    the circles (NoIntersection, OutOfRange), the fiber construction
    (InconsistentPair), then the forward verification, where the recovered
    weight vector is mapped forward on both words of ``DESIGNATED[n]``
    (:func:`designated_pairs`, one call for every pair that reaches the
    verification) and every parameter is compared with the input pair
    under :func:`relative_residual`.
    A tolerance that is not positive and finite raises OutOfRange.
    """
    check_settings(tol)
    if n == 5:
        recover_w, fiber_theta = recover_w5, fiber_theta5
    elif n == 6:
        recover_w, fiber_theta = recover_w6, fiber_theta6
    else:
        raise OutOfRange(f"inversion is defined for n in {{5, 6}}, got {n}")
    out: list = []
    for s1, s2 in pairs:
        try:
            _check_squares(s1)
            _check_squares(s2)
            w = recover_w(s1, s2)
            try:
                theta = fiber_theta(s1, w, DESIGNATED[n][0])
            except (SlideCollision, NotInTheta) as exc:
                raise InconsistentPair(
                    f"no weight vector realizes this shape pair: {exc}"
                ) from exc
        except PolymodError as exc:
            out.append(exc)
            continue
        out.append({"theta": theta, "w": w})

    def forward(ok: list) -> list:
        return rows(*designated_pairs(n, np.array([r["theta"].theta for r in ok]).reshape(-1, n)))

    for i, params in enumerate(map_ok(forward, out)):
        if isinstance(params, PolymodError):
            out[i] = params
            continue
        given = pairs[i][0].params + pairs[i][1].params
        residual = max(map(relative_residual, params, given))
        if residual > tol:
            out[i] = InconsistentPair(
                f"forward verification failed: residual {residual:.17g} > {tol:g}"
            )
        else:
            out[i]["residual"] = residual
    return out


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
