"""The scalar Lorentz route check, one model per call: the tests' oracle.

This is the per-row code that ``polymod.lorentz``'s stacked kernel
replaced, so the kernel can be compared with it bit for bit:
``build_model``, ``facet_zero_ray``, ``axis_intercepts`` and
``dihedral_angle`` (each pairing ``f_j @ G^-1 @ f_k`` with the model's own
inverse) one model at a time, and ``psi`` (planar shape, then the route
check) as ``psi5``/``psi6`` computed it.  The rules are the kernel's closed forms: the products
``Im(conj(d_a) d_b)`` as Python's complex product gives them, the base
width from the two corner ratios, and a facet ray as the cross product (or
the signed 3x3 cofactors) of its facet rows.  ``facet_zero_ray_svd`` keeps
the earlier rule, the null vector of a singular value decomposition, as a
reference for the rays.
"""

import math

import numpy as np

from polymod.combinatorics import TOL_IDEAL, as_word
from polymod.errors import (
    FacetsDisjoint,
    NoIntersection,
    OutOfRange,
    RouteDisagreement,
    SignatureMismatch,
)
from polymod.lorentz import LorentzModel
from polymod.moduli import ROUTE_TOL, scaled_residual

from planar_oracle import _hexahedron_shape, _pentagon_shape, complete_triangle


def _corner_scale(t_in, t_out):
    return math.sqrt(
        math.sin(t_in) * math.sin(t_out) / (2.0 * math.sin(t_in + t_out))
    )


def _basewidth_values(d, cross, basis):
    """The base width on each basis row, once neither line along edge n or 4
    is parallel to the base (edge 2): the base line from V_1 meets them at
    -e_1 X[n,1]/X[n,2] and e_2 + e_3 X[4,3]/X[4,2], X[a, b] = cross[a-1, b-1]."""
    n = len(d)
    for k in (n - 1, 3):
        if abs(cross[k, 1]) <= 1e-15 * abs(d[k]) * abs(d[1]):
            raise NoIntersection("lines are parallel or a direction vanishes")
    ratio_n = cross[n - 1, 0] / cross[n - 1, 1]
    ratio_4 = cross[3, 2] / cross[3, 1]
    return basis[:, 0] * ratio_n + basis[:, 1] + basis[:, 2] * ratio_4


def build_model(theta, label):
    word = as_word(label)
    n = theta.n
    if len(word) != n:
        raise OutOfRange(f"label has {len(word)} marks but theta has {n} angles")
    if n not in (5, 6):
        raise OutOfRange(f"Lorentz models are built for n in {{5, 6}}, got {n}")
    tri = complete_triangle(theta, word)
    frame = tri.frame
    d = frame.dirs.tolist()
    cross = np.array([[(a.conjugate() * b).imag for b in d] for a in d])

    best = (-1.0, 0, 1)
    abs_cross = np.abs(cross).tolist()
    for a in range(n):
        for b in range(a + 1, n):
            if abs_cross[a][b] > best[0] + 1e-15:
                best = (abs_cross[a][b], a, b)
    _, p1, p2 = best
    free = [j for j in range(n) if j not in (p1, p2)]
    dim = n - 2
    basis = np.zeros((dim, n))
    basis[np.arange(dim), free] = 1.0
    basis[:, p1] = cross[p2, free] / cross[p1, p2]
    basis[:, p2] = cross[free, p1] / cross[p1, p2]

    half = basis @ (0.25 * np.triu(cross, 1)) @ basis.T
    gram = half + half.T

    eigs = np.linalg.eigvalsh(gram)
    tol = 1e-12 * max(1.0, np.abs(eigs).max())
    if np.sum(eigs > tol) != 1 or np.sum(eigs < -tol) != dim - 1:
        raise SignatureMismatch(
            f"area-form eigenvalues {eigs!r} are not of signature (1, {dim - 1})"
        )

    facet_mat = basis.T.copy()

    t = frame.ordered_angles()
    c_x = math.sqrt(tri.c.imag / 2.0)
    x_row = c_x * _basewidth_values(d, cross, basis)
    corners = range(0, n - 1, 2)
    coord_mat = np.vstack(
        [x_row] + [_corner_scale(t[k], t[k + 1]) * facet_mat[k] for k in corners]
    )

    half_tan = np.tan(t / 2.0)
    ref_coords = half_tan[free] + half_tan[[(j + 1) % n for j in free]]
    coord_mat[coord_mat @ ref_coords < 0.0] *= -1.0

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
        word=word, theta=theta, basis=basis, gram=gram,
        coord_mat=coord_mat, facet_mat=facet_mat,
    )


def facet_zero_ray(model, facets):
    rows = np.array([model.facet_mat[k - 1] for k in facets])
    if model.dim == 3:
        ray = np.cross(rows[0], rows[1])
    else:
        ray = np.empty(4)
        for j in range(4):
            a, b, c = rows[:, [k for k in range(4) if k != j]]
            bc = np.cross(b, c)
            ray[j] = (-1.0) ** j * (a[0] * bc[0] + a[1] * bc[1] + a[2] * bc[2])
    size = np.linalg.norm(ray)
    if size <= 1e-12 * np.prod(np.linalg.norm(rows, axis=1)):
        raise NoIntersection(f"facet planes {tuple(facets)} are dependent")
    x_val = float(model.coord_mat[0] @ ray)
    if abs(x_val) <= 1e-12 * size:
        raise NoIntersection(
            f"intersection of facets {tuple(facets)} is parallel to the slice x = 1"
        )
    return ray / x_val


def facet_zero_ray_svd(model, facets):
    """The earlier rule: the unit null vector of the facet rows, dependent
    when the smallest singular value is within 1e-12 of max(1, largest)."""
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


def axis_intercepts(model):
    if model.n == 5:
        specs = [((1, 4), 2), ((3, 5), 1)]
    else:
        specs = [((3, 5, 6), 1), ((1, 2, 5), 2), ((1, 3, 4), 3)]
    out = []
    for zeros, axis_row in specs:
        ray = facet_zero_ray(model, zeros)
        out.append(float(model.coord_mat[axis_row] @ ray))
    return tuple(out)


def dihedral_angle(model, j, k):
    n = model.n
    if not (isinstance(j, int) and isinstance(k, int) and 1 <= j <= n and 1 <= k <= n) or j == k:
        raise OutOfRange(f"need two distinct facet indices in 1..{n}, got {j}, {k}")
    gram_inv = np.linalg.inv(model.gram)
    pj = model.facet_mat[j - 1]
    pk = model.facet_mat[k - 1]
    m_jj = float(pj @ gram_inv @ pj)
    m_kk = float(pk @ gram_inv @ pk)
    if m_jj >= 0.0 or m_kk >= 0.0:
        raise SignatureMismatch("facet normals are not spacelike")
    m_jk = float(pj @ gram_inv @ pk)
    cval = m_jk / math.sqrt(m_jj * m_kk)
    if abs(cval - 1.0) <= TOL_IDEAL:
        return 0.0
    if cval > 1.0 or cval < -1.0:
        raise FacetsDisjoint(
            f"facets {j} and {k} do not intersect (cosine-type value {cval:.17g})"
        )
    return math.acos(cval)


def psi(n, theta, label):
    """``psi5``/``psi6``: the planar shape once the Lorentzian route agrees."""
    shape = (_pentagon_shape if n == 5 else _hexahedron_shape)(theta, label)
    lorentz_vals = axis_intercepts(build_model(theta, label))
    for name, a, b in zip("PQR", shape.params, lorentz_vals):
        if scaled_residual(a, b) > ROUTE_TOL:
            raise RouteDisagreement(
                f"psi{n}: planar {name} = {a:.17g} vs Lorentzian {name} = "
                f"{b:.17g} disagree beyond {ROUTE_TOL:g} of squared magnitude"
            )
    return shape


def boundary_weights(n, rng, count):
    """``count`` validated weight vectors, a third generic and the rest with
    a pair sum (or, for n=6, a triple sum) within 1e-13 to 1e-1 of pi, where
    the signature, triangle and route gates fire."""
    from polymod.combinatorics import validate_weight
    from polymod.errors import PolymodError

    out = []
    while len(out) < count:
        raw = rng.uniform(0.05, 1.0, n)
        kind = rng.integers(0, 3 if n == 6 else 2)
        if kind == 0:
            angles = raw * (2.0 * math.pi / raw.sum())
        else:
            size = 2 if kind == 1 else 3
            gap = 10.0 ** rng.uniform(-13.0, -1.0)
            target = math.pi - gap if kind == 1 else math.pi + rng.choice([-gap, gap])
            near = rng.permutation(n)[:size]
            rest = np.setdiff1d(np.arange(n), near)
            angles = np.empty(n)
            angles[near] = raw[near] * (target / raw[near].sum())
            angles[rest] = raw[rest] * ((2.0 * math.pi - target) / raw[rest].sum())
        try:
            out.append(validate_weight(angles))
        except PolymodError:
            continue
    return out
