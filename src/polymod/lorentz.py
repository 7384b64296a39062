"""Lorentzian model of the edge-length space with the signed-area form.

The space ``E`` of edge-length vectors closing a polygon with prescribed
turning angles has dimension ``n - 2``; signed polygon area is a quadratic
form of signature ``(1, n-3)`` on it, so ``E`` is a Minkowski space.  The
coordinates used here are

* ``x``: square root of the completion-triangle area (a positive multiple of
  the triangle's base width, which is linear on ``E``),
* ``u``, ``v`` (and ``w`` for hexahedra): square roots of the corner-triangle
  areas cut off by edges 1, 3 (and 5); each is a positive multiple of the
  corresponding edge length.

They satisfy ``area = x^2 - u^2 - v^2 (- w^2)`` identically, which the
constructor verifies.  Signs are fixed so every coordinate is positive on the
polygon circumscribed about the unit circle (a strictly interior reference
configuration).

The area form is closed-form: with chain vertices ``V_j = sum_{k<j} e_k d_k``
the shoelace sum ``1/2 sum_j Im(conj(V_j) V_{j+1})`` is
``1/2 sum_{k<j} e_k e_j Im(conj(d_k) d_j)``, so on basis rows ``B`` it is
``B M B^T`` with ``M[k, j] = 1/4 Im(conj(d_k) d_j) sign(j - k)``.

One stacked kernel computes every model: :func:`build_models` takes N
(theta, word) rows and returns their arrays and axis intercepts, or each
row's first failure; :func:`build_model`, :func:`facet_zero_ray` and
:func:`axis_intercepts` are its one-row case.  The stacked ``matmul``,
``eigvalsh`` and ``svd`` calls run the same routine on each row as on a 2-D
array, so a row's bits do not depend on the rows stacked with it.

The Klein model lives in the affine slice ``x = 1``: a positive-area vector
``e`` on the ``x > 0`` sheet projects to ``(u/x, v/x[, w/x])`` in the open
unit ball, and ``arctanh`` of the Euclidean norm is the hyperbolic distance
from the origin.  Facet ``k`` of the projectivized positive cone is the zero
set of the edge functional ``xi_k``, oriented to be nonnegative on the cone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .combinatorics import WeightVector, as_word
from .errors import (
    DegenerateTriangle,
    FacetsDisjoint,
    NoIntersection,
    NotTimelike,
    OutOfRange,
    PolymodError,
    SignatureMismatch,
    WrongSheet,
)
from .planar import EPS_ANGLE, EdgeFrame

#: Below this distance from the unit sphere a Klein point counts as ideal,
#: and a facet-pair cosine within this band of 1 counts as tangency.
TOL_IDEAL = 1e-9

#: Relative residual allowed when expressing an edge vector in the basis.
TOL_CLOSING = 1e-9


@dataclass(frozen=True)
class KleinPoint:
    """Affine coordinates in the slice x = 1, with an ideal-boundary flag."""

    coords: tuple[float, ...]
    ideal: bool

    @property
    def norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.coords))


@dataclass(frozen=True)
class LorentzModel:
    """Immutable Lorentzian model of the closing space for (theta, word)."""

    word: tuple[int, ...]
    theta: WeightVector
    frame: EdgeFrame
    basis: np.ndarray       # (n-2, n): rows are edge-length vectors spanning E
    gram: np.ndarray        # (n-2, n-2): area bilinear form on basis coords
    coord_mat: np.ndarray   # (n-2, n-2): rows are the x, u, v[, w] functionals
    facet_mat: np.ndarray   # (n, n-2): row k is the edge functional xi_{k+1}

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def dim(self) -> int:
        return self.n - 2

    @cached_property
    def gram_inv(self) -> np.ndarray:
        """Inverse of the area form, computed on first use (dual pairings)."""
        return np.linalg.inv(self.gram)

    # -- conversions ---------------------------------------------------------

    def to_coords(self, e: Sequence[float] | np.ndarray) -> np.ndarray:
        """Express an edge vector (length n) or pass through basis coords."""
        arr = np.asarray(e, dtype=float)
        if arr.shape == (self.dim,):
            return arr
        if arr.shape != (self.n,):
            raise OutOfRange(
                f"expected a length-{self.n} edge vector or length-{self.dim} "
                f"coordinate vector, got shape {arr.shape}"
            )
        coords, *_ = np.linalg.lstsq(self.basis.T, arr, rcond=None)
        residual = np.linalg.norm(self.basis.T @ coords - arr)
        if residual > TOL_CLOSING * (1.0 + np.linalg.norm(arr)):
            raise OutOfRange(
                "edge vector does not satisfy the closing condition "
                f"(residual {residual:.3g})"
            )
        return coords

    def edge_lengths(self, coords: np.ndarray) -> np.ndarray:
        """Edge-length n-vector of a coordinate vector."""
        return self.basis.T @ np.asarray(coords, dtype=float)

    # -- the area form ---------------------------------------------------------

    def area(self, e: Sequence[float] | np.ndarray) -> float:
        """Signed polygon area (the quadratic form) of an edge vector."""
        c = self.to_coords(e)
        return float(c @ self.gram @ c)

    def coordinates(self, e) -> np.ndarray:
        """Values (x, u, v[, w]) of the coordinate functionals on e."""
        return self.coord_mat @ self.to_coords(e)


#: Direction pairs (a, b) with a < b, in the order the pivot search meets them.
_PAIRS = {n: np.array([(a, b) for a in range(n) for b in range(a + 1, n)]).T for n in (5, 6)}

#: The form x^2 - u^2 - v^2 (- w^2) in the coordinates, by dimension.
_J_FORM = {dim: np.diag([1.0] + [-1.0] * (dim - 1)) for dim in (3, 4)}


def _pivot(abs_cross: list[float]) -> int:
    """Index of the first direction pair, in (a, b) order, that beats the
    running best by more than 1e-15: the best-conditioned pair, stable on
    near-ties."""
    best, choice = -1.0, 0
    for k, value in enumerate(abs_cross):
        if value > best + 1e-15:
            best, choice = value, k
    return choice


def _exterior_angles(t: list[float], n: int) -> tuple[float, float, float]:
    """Exterior angles of the completion triangle at a, b and c."""
    return t[0] + t[1], t[2] + t[3], t[4] if n == 5 else t[4] + t[5]


def _degenerate_triangle(t: list[float], n: int) -> PolymodError | None:
    """``complete_triangle``'s failure for angles ``t`` in label order."""
    for name, ext in zip("abc", _exterior_angles(t, n)):
        if not EPS_ANGLE < ext < math.pi - EPS_ANGLE:
            return DegenerateTriangle(
                f"exterior angle at {name} is {ext:.17g}, outside (0, pi)"
            )
    return None


def _coordinate_scales(t: list[float], n: int) -> tuple[float, list[float]]:
    """sqrt(apex height / 2) of the completion triangle, and the corner
    scales: sqrt of the area cut off by a unit edge 1, 3[, 5] with adjacent
    turning angles t_k, t_{k+1}.  Scalar math like ``complete_triangle``'s,
    so every bit agrees with it."""
    ext_a, ext_b, ext_c = _exterior_angles(t, n)
    apex = (math.sin(math.pi - ext_b) / math.sin(math.pi - ext_c)) * cmath.exp(
        1j * (math.pi - ext_a)
    )
    corners = [
        math.sqrt(math.sin(t[k]) * math.sin(t[k + 1]) / (2.0 * math.sin(t[k] + t[k + 1])))
        for k in range(0, n - 1, 2)
    ]
    return math.sqrt(apex.imag / 2.0), corners


def _parallel_base_lines(base: complex, *others: complex) -> PolymodError | None:
    """The base-width lines' failure: a line parallel to the base line."""
    for u in others:
        if abs((u.conjugate() * base).imag) <= 1e-15 * abs(u) * abs(base):
            return NoIntersection("lines are parallel or a direction vanishes")
    return None


def _base_widths(basis: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Base width of the completion triangle on each basis row: (N, dim).

    The width is the signed length of the base line (through V_1 along
    edge 2) between its intersections with the lines along edges n and 4.
    Directions are fixed, so the width is linear in the edge vector and its
    values on the basis rows determine the functional.  Each intersection
    is ``line_intersection``'s arithmetic, stacked.
    """
    n = dirs.shape[1]
    base = dirs[:, 1:2]
    v = np.cumsum(basis * dirs[:, None, :], axis=2)  # v[:, :, j] is V_{j+1} of each row

    def corner(j: int, u: np.ndarray) -> np.ndarray:
        r = v[:, :, 0] - v[:, :, j]
        return v[:, :, j] + ((r.conjugate() * base).imag / (u.conjugate() * base).imag) * u

    return ((corner(2, dirs[:, 3:4]) - corner(n - 2, dirs[:, n - 1 :])) * base.conjugate()).real


def _at_least_one(x: np.ndarray) -> np.ndarray:
    """``max(1.0, x)`` per entry, NaN mapping to 1.0 as Python's max does."""
    return np.where(x > 1.0, x, 1.0)


def _first_failures(errors: list, failed: np.ndarray, make) -> None:
    """Record ``make(i)`` for each row that fails now and had not failed."""
    for i in np.flatnonzero(failed).tolist():
        if errors[i] is None:
            errors[i] = make(i)


@np.errstate(all="ignore")  # failed rows may divide by zero; their values go unread
def _model_arrays(angles: np.ndarray) -> dict:
    """The stacked body of :func:`build_model`.

    ``angles`` is an (N, n) stack of angles in label order.  Returns the
    arrays ``dirs``, ``basis``, ``gram``, ``coord_mat`` and ``facet_mat``
    with a leading row axis, and ``errors``: per row None or its first
    failure, gate by gate in the scalar order (completion triangle,
    signature, base-width lines, diagonalization).  A failed row's arrays
    are meaningless; it enters ``eigvalsh`` as the identity, so it cannot
    make the stacked call raise.
    """
    rows, n = angles.shape
    dim = n - 2
    idx = np.arange(rows)
    errors: list = [_degenerate_triangle(t, n) for t in angles.tolist()]

    cum = np.cumsum(angles, axis=1)
    dirs = np.exp(1j * (cum - cum[:, 1:2]))  # edge directions, edge 2 along +1
    cross = (dirs.conjugate()[:, :, None] * dirs[:, None, :]).imag.copy()  # Im(conj(d_a) d_b)

    # Cramer basis: free column j closes with d_j + x d_p1 + y d_p2 = 0
    a, b = _PAIRS[n]
    choice = [_pivot(row) for row in np.abs(cross[:, a, b]).tolist()]
    p1, p2 = a[choice], b[choice]
    keep = np.ones((rows, n), dtype=bool)
    keep[idx, p1] = False
    keep[idx, p2] = False
    free = np.nonzero(keep)[1].reshape(rows, dim)
    pivot = cross[idx, p1, p2][:, None]
    basis = np.zeros((rows, dim, n))
    basis[idx[:, None], np.arange(dim), free] = 1.0
    basis[idx, :, p1] = cross[idx[:, None], p2[:, None], free] / pivot
    basis[idx, :, p2] = cross[idx[:, None], free, p1[:, None]] / pivot

    half = basis @ (0.25 * np.triu(cross, 1)) @ basis.transpose(0, 2, 1)
    gram = half + half.transpose(0, 2, 1)  # B M B^T, exactly symmetric

    failed = np.array([e is not None for e in errors])
    eigs = np.linalg.eigvalsh(np.where(failed[:, None, None], np.eye(dim), gram))
    tol = (1e-12 * _at_least_one(np.abs(eigs).max(axis=1)))[:, None]
    _first_failures(
        errors,
        ((eigs > tol).sum(axis=1) != 1) | ((eigs < -tol).sum(axis=1) != dim - 1),
        lambda i: SignatureMismatch(
            f"area-form eigenvalues {eigs[i]!r} are not of signature (1, {dim - 1})"
        ),
    )

    facet_mat = basis.transpose(0, 2, 1).copy()

    c_x = np.ones((rows, 1))
    corner = np.ones((rows, n // 2))
    # the base line runs along edge 2, its neighbours along edges n and 4
    for i, d in enumerate(dirs[:, [1, n - 1, 3]].tolist()):
        if errors[i] is None:
            errors[i] = _parallel_base_lines(*d)
        if errors[i] is None:
            c_x[i, 0], corner[i] = _coordinate_scales(angles[i].tolist(), n)
    x_row = c_x * _base_widths(basis, dirs)
    # u, v[, w] scale the lengths of edges 1, 3[, 5]
    coord_mat = np.concatenate(
        [x_row[:, None]] + [corner[:, j, None, None] * facet_mat[:, None, 2 * j] for j in range(n // 2)],
        axis=1,
    )

    # the basis has identity columns at ``free``, so the basis coordinates
    # of the circumscribed polygon are its tangential lengths there
    half_tan = np.tan(angles / 2.0)
    ref_coords = half_tan[idx[:, None], free] + half_tan[idx[:, None], (free + 1) % n]
    coord_mat[(coord_mat @ ref_coords[:, :, None])[:, :, 0] < 0.0] *= -1.0

    # The coordinates must diagonalize the area form.  Each entry of the
    # reconstruction cancels products as large as the squared column norms
    # of ``coord_mat`` (near-degenerate weights push cevian feet far out on
    # the base line), so the tolerance has to scale with those products
    # rather than with the gram entries alone.
    recon = coord_mat.transpose(0, 2, 1) @ _J_FORM[dim] @ coord_mat
    scale = _at_least_one(np.abs(gram).max(axis=(1, 2)))
    col = (coord_mat**2).sum(axis=1).max(axis=1)
    scale = np.where(col > scale, col, scale)
    _first_failures(
        errors,
        ~(np.abs(recon - gram).max(axis=(1, 2)) <= 1e-9 * scale),
        lambda i: SignatureMismatch(
            "coordinate functionals fail to diagonalize the area form"
        ),
    )
    return {
        "dirs": dirs, "basis": basis, "gram": gram, "coord_mat": coord_mat,
        "facet_mat": facet_mat, "errors": errors,
    }


@np.errstate(all="ignore")
def _zero_rays(
    facet_mat: np.ndarray, x_rows: np.ndarray, specs: Sequence[Sequence[int]], errors: list
) -> np.ndarray:
    """The stacked body of :func:`facet_zero_ray`: (N, S, dim) rays.

    Row i, spec s is the ray on which the 1-based facets ``specs[s]`` vanish,
    normalized by the coordinate functional ``x_rows[i]``.  ``errors`` is
    updated in place with each row's first failure, spec by spec: dependent
    facet planes, then a ray parallel to the slice x = 1.  One stacked SVD
    serves every row and spec; rows already failed are left out of it.
    """
    dim = facet_mat.shape[2]
    sub = facet_mat[:, np.array(specs, dtype=int) - 1]  # (N, S, m, dim)
    failed = np.array([e is not None for e in errors])
    sub[failed] = np.eye(sub.shape[2], dim)
    _, sv, vt = np.linalg.svd(sub)
    ray = vt[:, :, -1]
    x_val = (x_rows[:, None, None, :] @ ray[..., None])[:, :, 0, 0]
    dependent = np.zeros(x_val.shape, dtype=bool)
    if sv.shape[2] >= dim - 1:
        dependent = sv[:, :, dim - 2] <= 1e-12 * _at_least_one(sv[:, :, 0])
    parallel = np.abs(x_val) <= 1e-12
    for i in np.flatnonzero((dependent | parallel).any(axis=1) & ~failed).tolist():
        s = int(np.argmax(dependent[i] | parallel[i]))
        facets = tuple(specs[s])
        errors[i] = NoIntersection(
            f"facet planes {facets} are dependent"
            if dependent[i, s]
            else f"intersection of facets {facets} is parallel to the slice x = 1"
        )
    return ray / x_val[..., None]


#: Axis intercepts: (facets whose planes meet on the ray, coordinate row read).
_AXIS_SPECS = {
    5: (((1, 4), 2), ((3, 5), 1)),
    6: (((3, 5, 6), 1), ((1, 2, 5), 2), ((1, 3, 4), 3)),
}


def _intercepts(facet_mat: np.ndarray, coord_mat: np.ndarray, errors: list) -> np.ndarray:
    """The stacked body of :func:`axis_intercepts`: (N, n-3) intercepts."""
    specs = _AXIS_SPECS[facet_mat.shape[1]]
    rays = _zero_rays(facet_mat, coord_mat[:, 0], [z for z, _ in specs], errors)
    axis_rows = coord_mat[:, [row for _, row in specs]]
    return (axis_rows[:, :, None, :] @ rays[..., None])[:, :, 0, 0]


@dataclass(frozen=True)
class ModelStack:
    """Lorentz models and axis intercepts of N (theta, word) rows.

    Row i holds what ``build_model(thetas[i], words[i])`` and
    ``axis_intercepts`` of it compute, bit for bit, or the first failure
    each would raise: ``model_errors[i]`` for the model,
    ``intercept_errors[i]`` for the intercepts of a model that was built.
    """

    thetas: tuple[WeightVector, ...]
    words: tuple[tuple[int, ...], ...]
    dirs: np.ndarray        # (N, n) complex edge directions
    basis: np.ndarray       # (N, n-2, n)
    gram: np.ndarray        # (N, n-2, n-2)
    coord_mat: np.ndarray   # (N, n-2, n-2)
    facet_mat: np.ndarray   # (N, n, n-2)
    intercepts: np.ndarray  # (N, n-3)
    model_errors: list
    intercept_errors: list

    def model(self, i: int) -> LorentzModel:
        """Row i's model, or its recorded build failure raised."""
        if self.model_errors[i] is not None:
            raise self.model_errors[i]
        theta, word = self.thetas[i], self.words[i]
        return LorentzModel(
            word=word,
            theta=theta,
            frame=EdgeFrame(word=word, theta=theta, dirs=self.dirs[i]),
            basis=self.basis[i],
            gram=self.gram[i],
            coord_mat=self.coord_mat[i],
            facet_mat=self.facet_mat[i],
        )

    def axis_intercepts(self, i: int) -> tuple[float, ...]:
        """Row i's intercepts, or the first failure of its model or of them."""
        error = self.model_errors[i] or self.intercept_errors[i]
        if error is not None:
            raise error
        return tuple(self.intercepts[i].tolist())


def _label_angles(
    thetas: Sequence[WeightVector], words: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Validated words and the (N, n) angles in label order."""
    checked = []
    for theta, label in zip(thetas, words, strict=True):
        word = as_word(label)
        n = theta.n
        if len(word) != n:
            raise OutOfRange(f"label has {len(word)} marks but theta has {n} angles")
        if n not in (5, 6):
            raise OutOfRange(f"Lorentz models are built for n in {{5, 6}}, got {n}")
        checked.append(word)
    if len({len(w) for w in checked}) > 1:
        raise OutOfRange("a model stack needs one n for every row")
    angles = np.array([[theta[m - 1] for m in w] for theta, w in zip(thetas, checked)], dtype=float)
    return tuple(checked), angles


def build_models(
    thetas: Sequence[WeightVector], words: Sequence[Sequence[int]]
) -> ModelStack:
    """Build the Lorentz models and axis intercepts of many rows at once.

    Rows share nothing but the stacked arrays; a failing row records its
    error (the class and message :func:`build_model` or
    :func:`axis_intercepts` would raise) and leaves its neighbours as they
    would be alone.  Every row must have the same n, 5 or 6.
    """
    words, angles = _label_angles(thetas, words)
    if not words:
        raise OutOfRange("a model stack needs at least one row")
    arrays = _model_arrays(angles)
    model_errors = arrays.pop("errors")
    intercept_errors = list(model_errors)
    intercepts = _intercepts(arrays["facet_mat"], arrays["coord_mat"], intercept_errors)
    # a row whose model failed has no intercepts to fail
    intercept_errors = [
        None if model_error is not None else error
        for model_error, error in zip(model_errors, intercept_errors)
    ]
    return ModelStack(
        thetas=tuple(thetas), words=words, intercepts=intercepts,
        model_errors=model_errors, intercept_errors=intercept_errors, **arrays,
    )


def build_model(theta: WeightVector, label: Sequence[int]) -> LorentzModel:
    """Construct the Lorentzian model with verified signature (1, n-3).

    The gram matrix is ``B M B^T`` with ``M[k, j] = 1/4 Im(conj(d_k) d_j)
    sign(j - k)``: ``V_{j+1} = V_j + e_j d_j`` turns the shoelace sum into
    ``1/2 sum_{k<j} e_k e_j Im(conj(d_k) d_j)``.  This is the one-row case
    of the stacked kernel behind :func:`build_models`.
    """
    words, angles = _label_angles([theta], [label])
    arrays = _model_arrays(angles)
    error = arrays["errors"][0]
    if error is not None:
        raise error
    return LorentzModel(
        word=words[0],
        theta=theta,
        frame=EdgeFrame(word=words[0], theta=theta, dirs=arrays["dirs"][0]),
        basis=arrays["basis"][0],
        gram=arrays["gram"][0],
        coord_mat=arrays["coord_mat"][0],
        facet_mat=arrays["facet_mat"][0],
    )


def klein_point(model: LorentzModel, e: Sequence[float] | np.ndarray) -> KleinPoint:
    """Project an x > 0 edge vector into the closed Klein ball.

    Timelike vectors land inside the open ball, lightlike ones on the
    boundary (flagged ``ideal``); spacelike vectors project outside and
    raise NotTimelike.
    """
    coords = model.to_coords(e)
    vals = model.coord_mat @ coords
    if vals[0] <= 0.0:
        raise WrongSheet(f"x(e) = {vals[0]:.17g} <= 0")
    pt = tuple(float(val / vals[0]) for val in vals[1:])
    norm = math.sqrt(sum(p * p for p in pt))
    if norm > 1.0 + TOL_IDEAL:
        raise NotTimelike(
            f"edge vector is spacelike: Klein norm {norm:.17g} exceeds 1"
        )
    return KleinPoint(coords=pt, ideal=abs(norm - 1.0) <= TOL_IDEAL)


def facet_zero_ray(model: LorentzModel, facets: Sequence[int]) -> np.ndarray:
    """Coordinates of the 1-dimensional intersection of facet planes.

    ``facets`` are 1-based facet indices whose edge functionals are set to
    zero; exactly dim-1 independent constraints are required.  The ray is
    normalized to x = 1 (NoIntersection when x vanishes on it).
    """
    errors = [None]
    rays = _zero_rays(model.facet_mat[None], model.coord_mat[None, 0], [facets], errors)
    if errors[0] is not None:
        raise errors[0]
    return rays[0, 0]


def axis_intercepts(model: LorentzModel) -> tuple[float, ...]:
    """Axis intercepts (P, Q) for pentagons or (P, Q, R) for hexahedra.

    Each value is the coordinate at which one bounding plane crosses its
    coordinate axis: pentagons use the vertices with edges {1,4} and {3,5}
    collapsed; hexahedra intersect the planes of facets 6, 2 and 4 with the
    u, v and w axes (facet triples {3,5,6}, {1,2,5} and {1,3,4}).
    """
    errors = [None]
    values = _intercepts(model.facet_mat[None], model.coord_mat[None], errors)
    if errors[0] is not None:
        raise errors[0]
    return tuple(values[0].tolist())


def hyperbolic_distance(model: LorentzModel, e1, e2) -> float:
    """Hyperboloid distance arccosh(<e1,e2>/sqrt(<e1,e1><e2,e2>))."""
    c1 = model.to_coords(e1)
    c2 = model.to_coords(e2)
    q1 = float(c1 @ model.gram @ c1)
    q2 = float(c2 @ model.gram @ c2)
    if q1 <= 0.0 or q2 <= 0.0:
        raise NotTimelike("both arguments must have positive area")
    x1 = float(model.coord_mat[0] @ c1)
    x2 = float(model.coord_mat[0] @ c2)
    if x1 * x2 <= 0.0:
        raise WrongSheet("arguments lie on opposite sheets")
    ratio = float(c1 @ model.gram @ c2) / math.sqrt(q1 * q2)
    return math.acosh(max(ratio, 1.0))


def dihedral_angle(model: LorentzModel, j: int, k: int) -> float:
    """Interior dihedral angle between facets j and k (1-based).

    Returns a value in [0, pi): arccos of the normalized dual pairing of the
    two inward edge functionals, 0 for tangent facets (within TOL_IDEAL),
    and raises FacetsDisjoint when the planes miss each other.
    """
    n = model.n
    if not (1 <= j <= n and 1 <= k <= n) or j == k:
        raise OutOfRange(f"need two distinct facet indices in 1..{n}, got {j}, {k}")
    pj = model.facet_mat[j - 1]
    pk = model.facet_mat[k - 1]
    m_jj = float(pj @ model.gram_inv @ pj)
    m_kk = float(pk @ model.gram_inv @ pk)
    if m_jj >= 0.0 or m_kk >= 0.0:
        raise SignatureMismatch("facet normals are not spacelike")
    m_jk = float(pj @ model.gram_inv @ pk)
    cval = m_jk / math.sqrt(m_jj * m_kk)
    if abs(cval - 1.0) <= TOL_IDEAL:
        return 0.0
    if cval > 1.0 or cval < -1.0:
        raise FacetsDisjoint(
            f"facets {j} and {k} do not intersect (cosine-type value {cval:.17g})"
        )
    return math.acos(cval)
