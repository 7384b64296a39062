"""Euclidean constructions in the complex plane.

All constructions live in a frame chosen so the completion triangle's base
edge runs along the positive real axis:

* Edge ``j`` (1-based, following the label word ``<i1..in>``) has unit
  direction ``dirs[j-1] = exp(i * sum_{k<=j} theta_{i_k})`` times a global
  rotation that puts the base direction (edge 2) at ``+1``.

* The completion triangle extends edges 2, 4, 5 (pentagons) or 2, 4, 6
  (hexahedra); its corners are ``a = 0``, ``b = 1`` and an apex ``c`` in the
  upper half-plane, with exterior angles ``theta_{i1}+theta_{i2}`` at ``a``,
  ``theta_{i3}+theta_{i4}`` at ``b`` and the remaining angle sum at ``c``.

* Feet of cevians/parallels are reported as signed ratios along their host
  side, so they remain meaningful when they land on an extension.

:func:`complete_triangles` computes the triangles of N rows at once, each
row bit for bit as it is alone; the Lorentz kernel and the planar route
read the same triangles, and :func:`complete_triangle` and
:func:`pentagon_feet` are the one-row case.  The rows are WeightVectors or
an (N, n) array of angles; :func:`label_angles` validates each distinct
label word once and gathers every row's angles in its word's order.
Elementary functions that decide bits (the apex's ``sin`` and ``exp``)
are the scalar ``math``/``cmath`` calls mapped over flat lists
(:func:`libm`), since numpy's may differ in the last bit.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from ._record import record
from .combinatorics import Label, WeightVector, as_word
from .errors import (
    DegenerateTriangle,
    FootOutsideBase,
    NoIntersection,
    OutOfRange,
    first_failures,
    unwrap,
)

#: Corner angles of a completion triangle must stay this far inside (0, pi).
EPS_ANGLE = 1e-12


def libm(fn, *x: np.ndarray) -> np.ndarray:
    """The scalar ``math`` function ``fn`` at every entry of ``x`` (of each
    array in turn, for a function of several): numpy's own elementary
    functions may differ from libm in the last bit."""
    return np.array(list(map(fn, *(a.ravel().tolist() for a in x)))).reshape(x[0].shape)


def angle_rows(thetas: Sequence[WeightVector] | np.ndarray) -> np.ndarray:
    """The (N, n) angles of a stack: an array of rows as it is, or the
    angles of WeightVectors of one n."""
    if isinstance(thetas, np.ndarray):
        return thetas
    ns = {theta.n for theta in thetas}
    if len(ns) > 1:
        raise OutOfRange("a stack needs one n for every row")
    return np.array([theta.theta for theta in thetas], dtype=float).reshape(
        len(thetas), ns.pop() if ns else 0
    )


def label_angles(
    thetas: Sequence[WeightVector] | np.ndarray, words: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Validated words and the (N, n) angles in label order.

    ``thetas`` is a sequence of WeightVectors or an (N, n) array of angles
    (:func:`angle_rows`).  Each distinct word is validated once, and one
    gather puts every row's angles in its word's order.
    """
    theta = angle_rows(thetas)
    n = theta.shape[1]
    index: dict = {}
    distinct: list[tuple[int, ...]] = []
    rows = []
    for label in words:
        key = label if isinstance(label, Label) else tuple(label)
        if key not in index:
            word = as_word(label)
            if len(word) != n:
                raise OutOfRange(f"label has {len(word)} marks but theta has {n} angles")
            if n not in (5, 6):
                raise OutOfRange(f"completion triangles exist for n in {{5, 6}}, got {n}")
            index[key] = len(distinct)
            distinct.append(word)
        rows.append(index[key])
    if len(rows) != len(theta):
        raise OutOfRange(f"{len(theta)} weight vectors but {len(rows)} words")
    if not rows:
        return (), theta
    marks = np.array(distinct)[rows] - 1
    return tuple(distinct[k] for k in rows), np.take_along_axis(theta, marks, axis=1)


def _im_conj(x: tuple, y: tuple) -> np.ndarray:
    """Im(conj(x) y) per row of (re, im) pairs of float arrays, spelled out
    as Python's complex product computes it; numpy's array complex product
    may differ in the last bit."""
    return x[0] * y[1] + (-x[1]) * y[0]


def parallel_lines(u: tuple, v: tuple) -> np.ndarray:
    """Per row, whether lines along u and v are parallel or a direction
    vanishes: |Im(conj(u) v)| <= 1e-15 |u| |v|.  Vectors are (re, im) pairs."""
    return np.abs(_im_conj(u, v)) <= 1e-15 * np.hypot(*u) * np.hypot(*v)


def fail_parallel(errors: list, parallel: np.ndarray) -> None:
    """Record NoIntersection for each parallel row that had not failed."""
    first_failures(
        errors, parallel, lambda i: NoIntersection("lines are parallel or a direction vanishes")
    )


def _side_ratio(u: tuple, v: tuple, r: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Where the line p + t*u meets the side p + r + s*v, per row: s, and
    whether the two are parallel (:func:`parallel_lines`)."""
    return _im_conj(r, u) / _im_conj(u, v), parallel_lines(u, v)


@record
class Triangles:
    """Completion triangles of N rows, base [0, 1].

    ``errors[i]`` is row i's first exterior angle outside (0, pi) by
    ``EPS_ANGLE`` (DegenerateTriangle), or None; a failed row's apex is NaN.
    """

    angles: np.ndarray  # (N, n) angles in label order
    ext: np.ndarray     # (N, 3) exterior angles at a, b and c
    dirs: np.ndarray    # (N, n) complex unit edge directions, dirs[:, 1] = 1
    apex: np.ndarray    # (N,) complex apex c
    errors: list

    @property
    def n(self) -> int:
        return self.dirs.shape[1]

    @np.errstate(all="ignore")  # failed rows divide NaN; their values go unread
    def feet(self) -> tuple[np.ndarray, list]:
        """The signed feet of every row and each row's first failure.

        Pentagons give (f1, f2), the base feet of the parallels through the
        apex to edges 3 and 1.  Hexahedra give the signed ratios where the
        side a->b meets the parallel to edge 1 through the apex, b->c the
        parallel to edge 3 through ``a`` and c->a the parallel to edge 5
        through ``b``.  Failures, in order: the triangle's, a foot line
        parallel to its side (NoIntersection), and for pentagons feet
        outside 0 < f1 < f2 < 1 (FootOutsideBase).
        """
        cr, ci = self.apex.real, self.apex.imag
        d1, d3, d5 = ((self.dirs[:, k].real, self.dirs[:, k].imag) for k in (0, 2, 4))
        base, a_c, c_b = (1.0, 0.0), (0.0 - cr, 0.0 - ci), (cr - 1.0, ci - 0.0)
        if self.n == 5:  # f1 along edge 3, f2 along edge 1
            lines = [(d3, base, a_c), (d1, base, a_c)]
        else:
            lines = [(d1, base, a_c), (d3, c_b, base), (d5, a_c, c_b)]
        ratios, parallel = zip(*(_side_ratio(*line) for line in lines))
        feet = np.stack(ratios, axis=1)
        errors = list(self.errors)
        fail_parallel(errors, np.any(parallel, axis=0))
        if self.n == 5:
            f1, f2 = feet.T
            first_failures(
                errors,
                ~((0.0 < f1) & (f1 < f2) & (f2 < 1.0)),
                lambda i: FootOutsideBase(
                    f"feet (f1, f2) = ({f1[i]:.17g}, {f2[i]:.17g}) violate 0 < f1 < f2 < 1"
                ),
            )
        return feet, errors


def complete_triangles(angles: np.ndarray) -> Triangles:
    """The completion triangles of an (N, n) stack of angles in label order.

    Extends edges 2, 4, 5 (n=5) or 2, 4, 6 (n=6).  The apex uses scalar
    ``math``/``cmath`` per row, so each row keeps the bits it has alone.
    """
    ext = np.add.reduceat(angles, [0, 2, 4], axis=1)  # at a, b and c
    bad = ~((ext > EPS_ANGLE) & (ext < math.pi - EPS_ANGLE))
    errors: list = [None] * len(angles)
    failed, first = bad.any(axis=1), bad.argmax(axis=1)
    first_failures(
        errors,
        failed,
        lambda i: DegenerateTriangle(
            f"exterior angle at {'abc'[first[i]]} is {float(ext[i, first[i]]):.17g}, "
            "outside (0, pi)"
        ),
    )
    apex = np.full(len(angles), complex(math.nan, math.nan))
    alpha, beta, gamma = (math.pi - ext[~failed]).T
    ratio = libm(math.sin, beta) / libm(math.sin, gamma)
    apex[~failed] = [r * cmath.exp(1j * a) for r, a in zip(ratio.tolist(), alpha.tolist())]
    cum = np.cumsum(angles, axis=1)
    dirs = np.exp(1j * (cum - cum[:, 1:2]))
    return Triangles(angles=angles, ext=ext, dirs=dirs, apex=apex, errors=errors)


@record
class TriangleCompletion:
    """One completion triangle, base corners ``a = 0`` and ``b = 1``, with
    the word's unit edge directions; ``feet`` holds the three signed ratios
    of :meth:`Triangles.feet` for hexahedra and is None for pentagons."""

    word: tuple[int, ...]
    dirs: np.ndarray
    c: complex
    ext_angles: tuple[float, float, float]
    feet: tuple[float, float, float] | None

    a = 0j
    b = 1 + 0j


def complete_triangle(theta: WeightVector, label: Sequence[int]) -> TriangleCompletion:
    """Row 0 of :func:`complete_triangles`, with its hexahedron feet, or
    its first failure."""
    words, angles = label_angles([theta], [label])
    tri = complete_triangles(angles)
    feet, errors = tri.feet() if tri.n == 6 else (None, tri.errors)
    unwrap(errors[0])
    return TriangleCompletion(
        word=words[0], dirs=tri.dirs[0], c=complex(tri.apex[0]),
        ext_angles=tuple(tri.ext[0].tolist()),
        feet=None if feet is None else tuple(feet[0].tolist()),
    )


def pentagon_feet(theta: WeightVector, label: Sequence[int]) -> tuple[float, float]:
    """Base feet (f1, f2) of the two apex cevians of a pentagon.

    ``f2`` is the foot of the parallel to edge 1 through the apex and ``f1``
    that of the parallel to edge 3; a valid pentagon gives 0 < f1 < f2 < 1.
    """
    word = as_word(label)
    if len(word) != 5:
        raise OutOfRange(f"pentagon feet need n=5, got {len(word)}")
    feet, errors = complete_triangles(label_angles([theta], [word])[1]).feet()
    unwrap(errors[0])
    return tuple(feet[0].tolist())
