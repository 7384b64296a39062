"""The scalar inversion, one shape pair at a time: the tests' oracle.

This is the per-pair code that ``polymod.fiber``'s column inverse
replaced, kept so the columns can be compared with it bit for bit: the
circles, the fiber construction in Python complex arithmetic, the turning
angles through ``math.atan2`` and ``math.fsum``, and the forward check of
each recovered weight vector (the package's ``designated_pairs``, one call
per pair) under ``relative_residual``.
"""

import math

import numpy as np

from polymod.combinatorics import as_word, validate_weight
from polymod.errors import (
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
    unwrap,
)
from polymod.fiber import DESIGNATED, TOL_IM, UpperHalfPoint, designated_pairs
from polymod.moduli import IDENTITY5, IDENTITY6, PentagonShape


def relative_residual(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _as_w(w):
    if isinstance(w, UpperHalfPoint):
        return w.w
    return UpperHalfPoint(complex(w)).w


def _unit(z):
    mag = abs(z)
    if mag < 1e-15:
        raise SlideCollision("a construction edge has collapsed to a point")
    return z / mag


def fiber_construction5(shape, w):
    wc = _as_w(w)
    f1 = 1.0 - shape.P**2
    f2 = shape.Q**2
    return (_unit(f2 - wc), 1.0 + 0.0j, _unit(wc - f1), _unit(wc - 1.0), _unit(-wc))


def fiber_construction6(shape, w):
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


def _angles_from_dirs(dirs, label):
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


def fiber_theta5(shape, w, label=IDENTITY5):
    return _angles_from_dirs(fiber_construction5(shape, w), label)


def fiber_theta6(shape, w, label=IDENTITY6):
    return _angles_from_dirs(fiber_construction6(shape, w), label)


def circle_intersection(r0, r1):
    if r0 <= 0.0 or r1 <= 0.0:
        raise OutOfRange(f"radii must be positive, got ({r0!r}, {r1!r})")
    x = (1.0 + r0 * r0 - r1 * r1) / 2.0
    gap = 1.0 - r0
    y_sq = (r1 - gap) * (r1 + gap) * ((1.0 + r0) - r1) * ((1.0 + r0) + r1) / 4.0
    if y_sq <= TOL_IM * TOL_IM:
        raise NoIntersection(
            f"circles |w| = {r0:.17g} about 0 and |w - 1| = {r1:.17g} about 1 "
            "do not meet in the upper half-plane (need |r0 - r1| < 1 < r0 + r1)"
        )
    return UpperHalfPoint(w=complex(x, math.sqrt(y_sq)))


def recover_w5(s1, s2):
    return circle_intersection(s1.Q * s2.Q, s1.P * s2.P)


def recover_w6(s1, s2):
    q = s1.Q * s2.Q
    return circle_intersection(s1.P * s2.P, 1.0 / q if q else math.inf)


def _check_squares(shape):
    for v in shape.params:
        try:
            v**2
        except OverflowError as exc:
            kind = "pentagon" if isinstance(shape, PentagonShape) else "hexahedron"
            raise OutOfRange(f"{kind} shape {shape.params!r}: a square overflows") from exc


def inversion_report(n, s1, s2, tol=1e-9):
    """{'theta', 'w', 'residual'} of one designated shape pair, or its error raised."""
    check_settings(tol)
    if n == 5:
        recover_w, fiber_theta = recover_w5, fiber_theta5
    elif n == 6:
        recover_w, fiber_theta = recover_w6, fiber_theta6
    else:
        raise OutOfRange(f"inversion is defined for n in {{5, 6}}, got {n}")
    _check_squares(s1)
    _check_squares(s2)
    w = recover_w(s1, s2)
    try:
        theta = fiber_theta(s1, w, DESIGNATED[n][0])
    except (SlideCollision, NotInTheta) as exc:
        raise InconsistentPair(f"no weight vector realizes this shape pair: {exc}") from exc
    params, errors = designated_pairs(n, np.array([theta.theta]))
    unwrap(errors[0])
    residual = max(map(relative_residual, params[0].tolist(), s1.params + s2.params))
    if residual > tol:
        raise InconsistentPair(f"forward verification failed: residual {residual:.17g} > {tol:g}")
    return {"theta": theta, "w": w, "residual": residual}


def outcome(fn, *args):
    """``("ok", value)`` or ``(class name, message)`` of one call."""
    try:
        return "ok", fn(*args)
    except PolymodError as exc:
        return type(exc).__name__, str(exc)
