"""The scalar planar route, one row per call: the tests' oracle.

This is the per-row code that ``polymod.planar``'s stacked completion
triangle replaced, kept verbatim so the stacked route can be compared with
it bit for bit: ``edge_frame``, ``line_intersection``, ``complete_triangle``
and ``pentagon_feet`` as ``polymod.planar`` had them, and the pentagon and
hexahedron shapes as ``polymod.moduli`` read them from the feet.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from polymod.combinatorics import WeightVector, as_word
from polymod.errors import (
    DegenerateTriangle,
    FootOutsideBase,
    NegativeRatio,
    NoIntersection,
    OutOfRange,
)
from polymod.moduli import HexahedronShape, PentagonShape

#: Corner angles of a completion triangle must stay this far inside (0, pi).
EPS_ANGLE = 1e-12


@dataclass(frozen=True)
class EdgeFrame:
    """Unit edge directions of a labeled polygon, base edge rotated to +1."""

    word: tuple[int, ...]
    theta: WeightVector
    dirs: np.ndarray  # complex, length n, |dirs[j]| = 1, dirs[1] = 1

    @property
    def n(self) -> int:
        return len(self.word)

    def ordered_angles(self) -> np.ndarray:
        """Angles in label order: entry j is theta at mark i_{j+1}."""
        return np.array([self.theta[m - 1] for m in self.word])


@dataclass(frozen=True)
class TriangleCompletion:
    """Completion triangle with base [0, 1] and apex in the upper half-plane.

    ``frame`` is the edge frame the triangle was built from.  ``feet`` is
    None for pentagons; for hexahedra it holds the three signed ratios
    (c_foot on side a->b, a_foot on side b->c, b_foot on side c->a).
    """

    frame: EdgeFrame
    a: complex
    b: complex
    c: complex
    ext_angles: tuple[float, float, float]
    feet: tuple[float, float, float] | None


def edge_frame(theta: WeightVector, label: Sequence[int]) -> EdgeFrame:
    """Unit direction vectors of the labeled polygon's edges."""
    word = as_word(label)
    if len(word) != theta.n:
        raise OutOfRange(f"label has {len(word)} marks but theta has {theta.n} angles")
    t = np.array([theta[m - 1] for m in word])
    cum = np.cumsum(t)
    dirs = np.exp(1j * (cum - cum[1]))
    return EdgeFrame(word=word, theta=theta, dirs=dirs)


def line_intersection(
    p0: complex, u: complex, p1: complex, v: complex
) -> tuple[float, float, complex]:
    """Intersect lines p0 + t*u and p1 + s*v; returns (t, s, point)."""
    cross = (u.conjugate() * v).imag
    if abs(cross) <= 1e-15 * abs(u) * abs(v):
        raise NoIntersection("lines are parallel or a direction vanishes")
    r = p1 - p0
    t = (r.conjugate() * v).imag / cross
    s = (r.conjugate() * u).imag / cross
    return t, s, p0 + t * u


def complete_triangle(theta: WeightVector, label: Sequence[int]) -> TriangleCompletion:
    """Extend edges 2, 4, 5 (n=5) or 2, 4, 6 (n=6) to a triangle.

    The base is normalized to [0, 1]; for hexahedra the three feet are the
    intersections of each side with the parallel to edge 1 through the apex,
    to edge 3 through ``a``, and to edge 5 through ``b``, as signed ratios.
    """
    frame = edge_frame(theta, label)
    n = frame.n
    if n not in (5, 6):
        raise OutOfRange(f"completion triangles exist for n in {{5, 6}}, got {n}")
    t = frame.ordered_angles()
    ext_a = t[0] + t[1]
    ext_b = t[2] + t[3]
    ext_c = t[4] if n == 5 else t[4] + t[5]
    for name, ext in (("a", ext_a), ("b", ext_b), ("c", ext_c)):
        if not EPS_ANGLE < ext < math.pi - EPS_ANGLE:
            raise DegenerateTriangle(
                f"exterior angle at {name} is {ext:.17g}, outside (0, pi)"
            )
    alpha = math.pi - ext_a
    beta = math.pi - ext_b
    gamma = math.pi - ext_c
    a = 0.0 + 0.0j
    b = 1.0 + 0.0j
    c = (math.sin(beta) / math.sin(gamma)) * cmath.exp(1j * alpha)
    feet = None
    if n == 6:
        dirs = frame.dirs
        _, s_ab, _ = line_intersection(c, dirs[0], a, b - a)
        _, s_bc, _ = line_intersection(a, dirs[2], b, c - b)
        _, s_ca, _ = line_intersection(b, dirs[4], c, a - c)
        feet = (float(s_ab), float(s_bc), float(s_ca))
    return TriangleCompletion(
        frame=frame, a=a, b=b, c=c,
        ext_angles=(float(ext_a), float(ext_b), float(ext_c)), feet=feet,
    )


def pentagon_feet(theta: WeightVector, label: Sequence[int]) -> tuple[float, float]:
    """Base feet (f1, f2) of the two apex cevians of a pentagon.

    ``f2`` is the foot of the parallel to edge 1 through the apex and ``f1``
    that of the parallel to edge 3; a valid pentagon gives 0 < f1 < f2 < 1.
    """
    word = as_word(label)
    if len(word) != 5:
        raise OutOfRange(f"pentagon feet need n=5, got {len(word)}")
    tri = complete_triangle(theta, label)
    dirs = tri.frame.dirs
    _, f2, _ = line_intersection(tri.c, dirs[0], tri.a, tri.b - tri.a)
    _, f1, _ = line_intersection(tri.c, dirs[2], tri.a, tri.b - tri.a)
    if not 0.0 < f1 < f2 < 1.0:
        raise FootOutsideBase(
            f"feet (f1, f2) = ({f1:.17g}, {f2:.17g}) violate 0 < f1 < f2 < 1"
        )
    return float(f1), float(f2)


def _pentagon_shape(theta: WeightVector, label: Sequence[int]) -> PentagonShape:
    f1, f2 = pentagon_feet(theta, label)
    return PentagonShape(P=math.sqrt(1.0 - f1), Q=math.sqrt(f2))


def _hexahedron_shape(theta: WeightVector, label: Sequence[int]) -> HexahedronShape:
    tri = complete_triangle(theta, label)
    if tri.feet is None:
        raise OutOfRange("psi6 needs n=6")
    for name, val in zip("PQR", tri.feet):
        if val <= 0.0:
            raise NegativeRatio(f"squared parameter {name}^2 = {val:.17g} <= 0")
    return HexahedronShape(*(math.sqrt(val) for val in tri.feet))


def planar_shape(theta: WeightVector, label: Sequence[int]) -> PentagonShape | HexahedronShape:
    """The shape of ``theta.n`` read from the completion triangle alone."""
    return (_pentagon_shape if theta.n == 5 else _hexahedron_shape)(theta, label)
