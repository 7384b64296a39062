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
(theta, word) rows, the thetas as WeightVectors or as an (N, n) array,
reads their completion triangles (gate, edge directions and apex) from
:func:`polymod.planar.complete_triangles`, and returns their arrays and
axis intercepts, or each row's first failure.  Python visits a row only
to record its failure: the pivot search runs over the 10 or 15 direction
pairs with the rows as columns, and the corner scales map ``math.sin``
over flat lists.  :func:`build_model`, :func:`facet_zero_ray` and
:func:`axis_intercepts` are its one-row case, and :meth:`ModelStack.model`
is the one place that assembles a :class:`LorentzModel`.  The products
``Im(conj(d_a) d_b)`` are :func:`polymod.planar._im_conj`'s, the base width
is a closed form in them and the facet rays are cross products, so a row's
bits do not depend on the rows stacked with it (the stacked ``matmul`` and
``eigvalsh`` run the same routine on each row as on a 2-D array).

Facet ``k`` of the projectivized positive cone is the zero set of the edge
functional ``xi_k``, oriented to be nonnegative on the cone; facet rays are
normalized to the slice ``x = 1``.  Two facets whose dual cosine is within
``TOL_IDEAL`` of 1 count as tangent; :func:`dihedral_angles` pairs the
facets of many models at once, and :func:`dihedral_angle` is its one case.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property
from typing import Sequence

import numpy as np

from ._record import record
from .combinatorics import TOL_IDEAL, WeightVector
from .errors import (
    FacetsDisjoint,
    NegativeRatio,
    NoIntersection,
    OutOfRange,
    SignatureMismatch,
    first_failures,
    unwrap,
)
from .planar import (
    Triangles,
    _im_conj,
    angle_rows,
    complete_triangles,
    fail_parallel,
    label_angles,
    libm,
    parallel_lines,
)


@record
class LorentzModel:
    """Immutable Lorentzian model of the closing space for (theta, word)."""

    word: tuple[int, ...]
    theta: WeightVector
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


#: Direction pairs (a, b) with a < b, in the order the pivot search meets them.
_PAIRS = {n: np.array([(a, b) for a in range(n) for b in range(a + 1, n)]).T for n in (5, 6)}

#: The form x^2 - u^2 - v^2 (- w^2) in the coordinates, by dimension.
_J_FORM = {dim: np.diag([1.0] + [-1.0] * (dim - 1)) for dim in (3, 4)}


def _pivots(abs_cross: np.ndarray) -> np.ndarray:
    """Per row of (N, pairs) values, the index of the first direction pair,
    in (a, b) order, that beats the running best by more than 1e-15: the
    best-conditioned pair, stable on near-ties."""
    rows, pairs = abs_cross.shape
    best, choice = np.full(rows, -1.0), np.zeros(rows, dtype=int)
    for k in range(pairs):
        beats = abs_cross[:, k] > best + 1e-15
        best = np.where(beats, abs_cross[:, k], best)
        choice[beats] = k
    return choice


def _corner_scales(angles: np.ndarray, errors: list) -> np.ndarray:
    """The (N, n // 2) corner scales: sqrt of the area cut off by a unit
    edge 1, 3[, 5] with adjacent turning angles t_k, t_{k+1}.

    Rows that failed before keep scale 1.  Validated weight vectors keep
    every radicand positive; a hand-built one with a negative angle can
    make one negative, which records NegativeRatio at the first such edge.
    """
    rows, n = angles.shape
    scales = np.ones((rows, n // 2))
    ok = [i for i, e in enumerate(errors) if e is None]
    t = angles[ok]
    t_in, t_out = t[:, 0 : n - 1 : 2], t[:, 1:n:2]
    radicand = libm(math.sin, t_in) * libm(math.sin, t_out) / (2.0 * libm(math.sin, t_in + t_out))
    negative = radicand < 0.0
    failed = negative.any(axis=1)
    edge = negative.argmax(axis=1)
    for j in failed.nonzero()[0].tolist():
        errors[ok[j]] = NegativeRatio(
            f"squared edge {2 * edge[j] + 1} corner scale = {float(radicand[j, edge[j]]):.17g} < 0"
        )
    radicand[failed] = 1.0
    scales[ok] = np.sqrt(radicand)
    return scales


@np.errstate(all="ignore")  # failed rows may divide by zero; their values go unread
def _model_arrays(tri: Triangles) -> dict:
    """The stacked body of :func:`build_models`.

    ``tri`` holds the rows' completion triangles.  Returns the arrays
    ``basis``, ``gram``, ``coord_mat`` and ``facet_mat`` with a leading row
    axis, and ``errors``: per row None or its first failure, gate by gate
    in the scalar order (completion triangle, signature, base-width lines,
    corner scales, diagonalization).  A failed row's arrays are
    meaningless; it enters ``eigvalsh`` as the identity, so it cannot make
    the stacked call raise.
    """
    angles, dirs = tri.angles, tri.dirs
    rows, n = angles.shape
    dim = n - 2
    idx = np.arange(rows)
    errors = list(tri.errors)

    dx, dy = dirs.real, dirs.imag
    cross = _im_conj((dx[:, :, None], dy[:, :, None]), (dx[:, None, :], dy[:, None, :]))

    # Cramer basis: free column j closes with d_j + x d_p1 + y d_p2 = 0
    a, b = _PAIRS[n]
    choice = _pivots(np.abs(cross[:, a, b]))
    p1, p2 = a[choice], b[choice]
    free = np.array([[j for j in range(n) if j not in pair] for pair in zip(a, b)])[choice]
    pivot = cross[idx, p1, p2][:, None]
    basis = np.zeros((rows, dim, n))
    basis[idx[:, None], np.arange(dim), free] = 1.0
    basis[idx, :, p1] = cross[idx[:, None], p2[:, None], free] / pivot
    basis[idx, :, p2] = cross[idx[:, None], free, p1[:, None]] / pivot

    half = basis @ (0.25 * np.triu(cross, 1)) @ basis.transpose(0, 2, 1)
    gram = half + half.transpose(0, 2, 1)  # B M B^T, exactly symmetric

    failed = np.array([e is not None for e in errors])
    eigs = np.linalg.eigvalsh(np.where(failed[:, None, None], np.eye(dim), gram))
    tol = (1e-12 * np.fmax(np.abs(eigs).max(axis=1), 1.0))[:, None]  # NaN -> 1, as max(1, NaN)
    first_failures(
        errors,
        ((eigs > tol).sum(axis=1) != 1) | ((eigs < -tol).sum(axis=1) != dim - 1),
        lambda i: SignatureMismatch(
            f"area-form eigenvalues {eigs[i]!r} are not of signature (1, {dim - 1})"
        ),
    )

    facet_mat = basis.transpose(0, 2, 1).copy()

    # The base line runs from V_1 along edge 2 (d_2 = 1).  With 1-based X[a, b] =
    # Im(conj(d_a) d_b), it meets the lines along edges 4 and n at e_2 + e_3 X[4,3]/X[4,2]
    # and -e_1 X[n,1]/X[n,2] from V_1, so the width is basis @ (X[n,1]/X[n,2], 1,
    # X[4,3]/X[4,2], 0, ...).  Parallel lines fail first.
    base, side_n, side_4 = ((dx[:, k], dy[:, k]) for k in (1, n - 1, 3))
    fail_parallel(errors, parallel_lines(side_n, base) | parallel_lines(side_4, base))
    corner = _corner_scales(angles, errors)
    ratio = cross[:, [n - 1, 3], [0, 2]] / cross[:, [n - 1, 3], [1, 1]]
    width = basis[:, :, 0] * ratio[:, :1] + basis[:, :, 1] + basis[:, :, 2] * ratio[:, 1:]
    # sqrt(apex height / 2) of the completion triangle scales its base width
    x_row = np.sqrt(tri.apex.imag / 2.0)[:, None] * width
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
    scale = np.fmax(np.abs(gram).max(axis=(1, 2)), 1.0)
    col = (coord_mat**2).sum(axis=1).max(axis=1)
    scale = np.where(col > scale, col, scale)
    first_failures(
        errors,
        ~(np.abs(recon - gram).max(axis=(1, 2)) <= 1e-9 * scale),
        lambda i: SignatureMismatch("coordinate functionals fail to diagonalize the area form"),
    )
    return dict(basis=basis, gram=gram, coord_mat=coord_mat, facet_mat=facet_mat, errors=errors)


def _cross(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> list[np.ndarray]:
    """``a x b`` of 3-vectors given as component arrays, as ``np.cross`` computes it."""
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


@np.errstate(all="ignore")
def _zero_rays(
    facet_mat: np.ndarray, x_rows: np.ndarray, specs: Sequence[Sequence[int]], errors: list
) -> np.ndarray:
    """The stacked body of :func:`facet_zero_ray`: (N, S, dim) rays, in C
    order, since the bits of the matmuls that read them follow the layout.

    Row i, spec s is the ray on which the dim-1 facets ``specs[s]`` vanish:
    the generalized cross product ``c`` of their rows ``r_k`` (dim 4: signed
    3x3 cofactors, ``a . (b x c)`` on the columns left by dropping each one),
    normalized by ``x_rows[i]``.  ``errors`` takes each row's first failure,
    spec by spec: dependent planes, ``|c| <= 1e-12 prod |r_k|``, then a ray
    parallel to the slice, ``|x . c| <= 1e-12 |c|`` (the unit ray's test).
    ``|c|`` is the product of the singular values, at most ``prod |r_k|``
    (Hadamard): the ratio is a volume sine that ignores a row's scale, as its
    zero set does.  Rounding leaves ``c`` a few ulps of ``prod |r_k|`` in
    error, so below 1e-12 the ray keeps under four digits.  A failed row's NaN
    trips no gate.
    """
    sub = facet_mat[:, np.array(specs, dtype=int) - 1]  # (N, S, dim-1, dim)
    rows = np.moveaxis(sub, (2, 3), (0, 1))  # rows[k, j]: entry j of facet row k
    if len(rows) == 2:
        ray = np.stack(_cross(*rows), axis=-1)
    else:  # a, b, c on the columns left by dropping column j: (3, 4 values of j, N, S)
        a, b, c = np.moveaxis(rows[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]], 2, 1)
        bc = _cross(b, c)
        ray = np.stack(list(a[0] * bc[0] + a[1] * bc[1] + a[2] * bc[2]), axis=-1) * [1, -1, 1, -1]
    size = np.linalg.norm(ray, axis=-1)
    x_val = (x_rows[:, None, None, :] @ ray[..., None])[:, :, 0, 0]
    dependent = size <= 1e-12 * np.linalg.norm(sub, axis=-1).prod(axis=-1)
    parallel = np.abs(x_val) <= 1e-12 * size

    def failure(i: int) -> NoIntersection:
        s = int(np.argmax(dependent[i] | parallel[i]))
        if dependent[i, s]:
            return NoIntersection(f"facet planes {tuple(specs[s])} are dependent")
        return NoIntersection(
            f"intersection of facets {tuple(specs[s])} is parallel to the slice x = 1"
        )

    first_failures(errors, (dependent | parallel).any(axis=1), failure)
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


@record
class ModelStack:
    """Lorentz models and axis intercepts of N (theta, word) rows.

    Row i holds the model of ``(theta[i], words[i])``, its completion
    triangle (``triangles``, the one the planar route reads) and its axis
    intercepts, bit for bit as the row alone gives them, or the first
    failure of each: ``model_errors[i]`` for the model,
    ``intercept_errors[i]`` for the intercepts of a model that was built.
    """

    theta: np.ndarray       # (N, n) angles, in mark order
    words: tuple[tuple[int, ...], ...]
    triangles: Triangles
    basis: np.ndarray       # (N, n-2, n)
    gram: np.ndarray        # (N, n-2, n-2)
    coord_mat: np.ndarray   # (N, n-2, n-2)
    facet_mat: np.ndarray   # (N, n, n-2)
    model_errors: list

    @cached_property
    def _axis(self) -> tuple[np.ndarray, list]:
        """The (N, n-3) intercepts and their errors, computed for every row
        on first read: a stack read for its models alone never pays for them."""
        errors = list(self.model_errors)
        values = _intercepts(self.facet_mat, self.coord_mat, errors)
        # a row whose model failed has no intercepts to fail
        return values, [None if m is not None else e for m, e in zip(self.model_errors, errors)]

    @property
    def intercepts(self) -> np.ndarray:
        """The (N, n-3) intercepts; a failed row's are meaningless."""
        return self._axis[0]

    @property
    def intercept_errors(self) -> list:
        return self._axis[1]

    def model(self, i: int) -> LorentzModel:
        """Row i's model, or its recorded build failure raised."""
        unwrap(self.model_errors[i])
        return LorentzModel(
            word=self.words[i],
            theta=WeightVector(n=self.theta.shape[1], theta=tuple(self.theta[i].tolist())),
            basis=self.basis[i],
            gram=self.gram[i],
            coord_mat=self.coord_mat[i],
            facet_mat=self.facet_mat[i],
        )


def build_models(
    thetas: Sequence[WeightVector] | np.ndarray, words: Sequence[Sequence[int]]
) -> ModelStack:
    """Build the Lorentz models and axis intercepts of many rows at once.

    ``thetas`` holds WeightVectors or is an (N, n) array of validated
    angles.  Rows share nothing but the stacked arrays; a failing row
    records its error (the class and message :func:`build_model` or
    :func:`axis_intercepts` would raise) and leaves its neighbours as they
    would be alone.  Every row must have the same n, 5 or 6.
    """
    theta = angle_rows(thetas)
    words, angles = label_angles(theta, words)
    if not words:
        raise OutOfRange("a model stack needs at least one row")
    tri = complete_triangles(angles)
    arrays = _model_arrays(tri)
    return ModelStack(
        theta=theta, words=words, triangles=tri, model_errors=arrays.pop("errors"), **arrays
    )


def build_model(theta: WeightVector, label: Sequence[int]) -> LorentzModel:
    """Construct the Lorentzian model with verified signature (1, n-3):
    the one row of ``build_models([theta], [label])``, or its failure."""
    return build_models([theta], [label]).model(0)


def _facet_index(k, n: int) -> bool:
    """Whether ``k`` is a facet index: an integer (1.5 and 1.0 are not) in 1..n."""
    return isinstance(k, numbers.Integral) and 1 <= k <= n


def facet_zero_ray(model: LorentzModel, facets: Sequence[int]) -> np.ndarray:
    """Coordinates of the 1-dimensional intersection of facet planes.

    ``facets`` are exactly dim-1 integer facet indices in 1..n whose edge
    functionals are set to zero (OutOfRange otherwise); dependent planes
    raise NoIntersection.  The ray is normalized to x = 1 (NoIntersection
    when x vanishes on it).
    """
    if len(facets) != model.dim - 1 or not all(_facet_index(k, model.n) for k in facets):
        raise OutOfRange(f"need {model.dim - 1} facet indices in 1..{model.n}, got {tuple(facets)}")
    errors = [None]
    rays = _zero_rays(model.facet_mat[None], model.coord_mat[None, 0], [facets], errors)
    unwrap(errors[0])
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
    unwrap(errors[0])
    return tuple(values[0].tolist())


@np.errstate(all="ignore")  # failed entries may divide by zero; their values go unread
def dihedral_angles(gram: np.ndarray, facet_mat: np.ndarray, model_errors: list, rows, pairs):
    """:func:`dihedral_angle` of the models of a :class:`ModelStack`'s arrays
    and errors, per entry e for facet pair ``pairs[e]`` of model ``rows[e]``:
    the angles and each entry's first failure or None (the model's, then a
    normal that is not spacelike, then FacetsDisjoint).  One stacked inverse
    serves every model, a failed one as the identity; each dual row
    ``f G^-1`` is a vector-matrix product and each pairing a dot product, as
    ``f_j @ G^-1 @ f_k`` computes them alone, so an angle keeps its bits."""
    n, dim = facet_mat.shape[1:]
    for j, k in set(pairs):
        if not (_facet_index(j, n) and _facet_index(k, n)) or j == k:
            raise OutOfRange(f"need two distinct facet indices in 1..{n}, got {j}, {k}")
    j, k = np.array(pairs, dtype=int).reshape(-1, 2).T - 1
    failed = np.array([e is not None for e in model_errors])[:, None, None]
    dual = facet_mat[:, :, None, :] @ np.linalg.inv(np.where(failed, np.eye(dim), gram))[:, None]
    (d_j, f_j), (d_k, f_k) = ((dual[rows, a], facet_mat[rows, a, :, None]) for a in (j, k))
    m_jj, m_kk, m_jk = ((d @ f)[:, 0, 0] for d, f in ((d_j, f_j), (d_k, f_k), (d_j, f_k)))
    cval = m_jk / np.sqrt(m_jj * m_kk)
    timelike = (m_jj >= 0.0) | (m_kk >= 0.0)
    tangent = ~timelike & (np.abs(cval - 1.0) <= TOL_IDEAL)  # acos(1.0) is 0.0
    disjoint = ~(timelike | tangent) & ((cval > 1.0) | (cval < -1.0))
    errors = [model_errors[r] for r in np.asarray(rows).tolist()]
    first_failures(errors, timelike, lambda e: SignatureMismatch("facet normals are not spacelike"))
    first_failures(errors, disjoint, lambda e: FacetsDisjoint(
        f"facets {j[e] + 1} and {k[e] + 1} do not intersect (cosine-type value {cval[e]:.17g})"))
    return libm(math.acos, np.where(timelike | tangent | disjoint, 1.0, cval)), errors


def dihedral_angle(model: LorentzModel, j: int, k: int) -> float:
    """Interior dihedral angle between facets j and k (1-based integers,
    OutOfRange otherwise).

    Returns a value in [0, pi): arccos of the normalized dual pairing of the
    two inward edge functionals, 0 for tangent facets (within TOL_IDEAL),
    and raises FacetsDisjoint when the planes miss each other: the one
    entry of :func:`dihedral_angles`.
    """
    angles, errors = dihedral_angles(model.gram[None], model.facet_mat[None], [None], [0], [(j, k)])
    unwrap(errors[0])
    return float(angles[0])
