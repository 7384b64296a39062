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

The Klein model lives in the affine slice ``x = 1``: a positive-area vector
``e`` on the ``x > 0`` sheet projects to ``(u/x, v/x[, w/x])`` in the open
unit ball, and ``arctanh`` of the Euclidean norm is the hyperbolic distance
from the origin.  Facet ``k`` of the projectivized positive cone is the zero
set of the edge functional ``xi_k``, oriented to be nonnegative on the cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .combinatorics import WeightVector, as_word
from .errors import (
    FacetsDisjoint,
    NoIntersection,
    NotTimelike,
    OutOfRange,
    SignatureMismatch,
    WrongSheet,
)
from .planar import EdgeFrame, complete_triangle, line_intersection

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


def _corner_scale(t_in: float, t_out: float) -> float:
    """sqrt of the corner-triangle area cut off by a unit edge whose
    adjacent turning angles are t_in and t_out."""
    return math.sqrt(
        math.sin(t_in) * math.sin(t_out) / (2.0 * math.sin(t_in + t_out))
    )


def _basewidth_values(frame: EdgeFrame, basis: np.ndarray) -> np.ndarray:
    """Base width of the completion triangle, evaluated on each basis row.

    The three extended edges are 2, 4 and n-1 (edge 5 for pentagons, edge 6
    for hexahedra); the width is the signed length of the base side between
    its intersections with the other two lines.  Directions are fixed, so
    the width is linear in the edge vector and row evaluation determines
    the functional.
    """
    n = frame.n
    v = np.cumsum(basis * frame.dirs, axis=1)  # v[:, j] is V_{j+1} of each row
    d = frame.dirs.tolist()
    # base line through V_1 along edge 2; neighbors along edges 4 and n
    _, _, corner_a = line_intersection(v[:, n - 2], d[n - 1], v[:, 0], d[1])
    _, _, corner_b = line_intersection(v[:, 2], d[3], v[:, 0], d[1])
    return ((corner_b - corner_a) * d[1].conjugate()).real


def build_model(theta: WeightVector, label: Sequence[int]) -> LorentzModel:
    """Construct the Lorentzian model with verified signature (1, n-3).

    The gram matrix is ``B M B^T`` with ``M[k, j] = 1/4 Im(conj(d_k) d_j)
    sign(j - k)``: ``V_{j+1} = V_j + e_j d_j`` turns the shoelace sum into
    ``1/2 sum_{k<j} e_k e_j Im(conj(d_k) d_j)``.
    """
    word = as_word(label)
    n = theta.n
    if len(word) != n:
        raise OutOfRange(f"label has {len(word)} marks but theta has {n} angles")
    if n not in (5, 6):
        raise OutOfRange(f"Lorentz models are built for n in {{5, 6}}, got {n}")
    tri = complete_triangle(theta, word)
    frame = tri.frame
    cross = (frame.dirs.conjugate()[:, None] * frame.dirs).imag  # Im(conj(d_a) d_b)

    # deterministic basis: pivot on the best-conditioned direction pair
    best = (-1.0, 0, 1)
    abs_cross = np.abs(cross).tolist()
    for a in range(n):
        for b in range(a + 1, n):
            if abs_cross[a][b] > best[0] + 1e-15:
                best = (abs_cross[a][b], a, b)
    _, p1, p2 = best
    # free column j closes with d_j + x d_p1 + y d_p2 = 0 (Cramer's rule)
    free = [j for j in range(n) if j not in (p1, p2)]
    dim = n - 2
    basis = np.zeros((dim, n))
    basis[np.arange(dim), free] = 1.0
    basis[:, p1] = cross[p2, free] / cross[p1, p2]
    basis[:, p2] = cross[free, p1] / cross[p1, p2]

    half = basis @ (0.25 * np.triu(cross, 1)) @ basis.T
    gram = half + half.T  # B M B^T, exactly symmetric

    eigs = np.linalg.eigvalsh(gram)
    tol = 1e-12 * max(1.0, np.abs(eigs).max())
    if np.sum(eigs > tol) != 1 or np.sum(eigs < -tol) != dim - 1:
        raise SignatureMismatch(
            f"area-form eigenvalues {eigs!r} are not of signature (1, {dim - 1})"
        )

    facet_mat = basis.T.copy()

    # coordinate functionals
    t = frame.ordered_angles()
    c_x = math.sqrt(tri.c.imag / 2.0)
    x_row = c_x * _basewidth_values(frame, basis)
    # u, v[, w] scale the lengths of edges 1, 3[, 5]
    corners = range(0, n - 1, 2)
    coord_mat = np.vstack(
        [x_row] + [_corner_scale(t[k], t[k + 1]) * facet_mat[k] for k in corners]
    )

    # the basis has identity columns at ``free``, so the basis coordinates
    # of the circumscribed polygon are its tangential lengths there
    half_tan = np.tan(t / 2.0)
    ref_coords = half_tan[free] + half_tan[[(j + 1) % n for j in free]]
    coord_mat[coord_mat @ ref_coords < 0.0] *= -1.0

    # The coordinates must diagonalize the area form.  Each entry of the
    # reconstruction cancels products as large as the squared column norms
    # of ``coord_mat`` (near-degenerate weights push cevian feet far out on
    # the base line), so the tolerance has to scale with those products
    # rather than with the gram entries alone.
    j_form = np.diag([1.0] + [-1.0] * (dim - 1))
    recon = coord_mat.T @ j_form @ coord_mat
    scale = max(
        1.0,
        float(np.abs(gram).max()),
        float((coord_mat**2).sum(axis=0).max()),
    )
    if not np.abs(recon - gram).max() <= 1e-9 * scale:
        raise SignatureMismatch(
            "coordinate functionals fail to diagonalize the area form"
        )

    return LorentzModel(
        word=word,
        theta=theta,
        frame=frame,
        basis=basis,
        gram=gram,
        coord_mat=coord_mat,
        facet_mat=facet_mat,
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
    rows = np.array([model.facet_mat[k - 1] for k in facets])
    _, sv, vt = np.linalg.svd(rows)
    if sv.size >= model.dim - 1 and sv[model.dim - 2] <= 1e-12 * max(1.0, sv[0]):
        raise NoIntersection(f"facet planes {tuple(facets)} are dependent")
    ray = vt[-1]
    x_val = float(model.coord_mat[0] @ ray)
    if abs(x_val) <= 1e-12:
        raise NoIntersection(
            f"intersection of facets {tuple(facets)} is parallel to the slice x = 1"
        )
    return ray / x_val


def axis_intercepts(model: LorentzModel) -> tuple[float, ...]:
    """Axis intercepts (P, Q) for pentagons or (P, Q, R) for hexahedra.

    Each value is the coordinate at which one bounding plane crosses its
    coordinate axis: pentagons use the vertices with edges {1,4} and {3,5}
    collapsed; hexahedra intersect the planes of facets 6, 2 and 4 with the
    u, v and w axes (facet triples {3,5,6}, {1,2,5} and {1,3,4}).
    """
    if model.n == 5:
        specs = [((1, 4), 2), ((3, 5), 1)]
    else:
        specs = [((3, 5, 6), 1), ((1, 2, 5), 2), ((1, 3, 4), 3)]
    out = []
    for zeros, axis_row in specs:
        ray = facet_zero_ray(model, zeros)
        out.append(float(model.coord_mat[axis_row] @ ray))
    return tuple(out)


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
