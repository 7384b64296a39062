"""Forward moduli maps from weight vectors to polyhedron shapes.

A pentagon shape is the pair ``(P, Q)`` with ``0 < P, Q < 1`` and
``P^2 + Q^2 > 1``; a hexahedron shape is a triple of positive reals
``(P, Q, R)``.  :func:`planar_params` reads shape parameters from the feet
of a stack of completion triangles alone; ``psi5``/``psi6`` also compute
them from the Lorentzian axis intercepts, and the two routes must agree to
``ROUTE_TOL`` under :func:`scaled_residual`.  :func:`forward_params` is the
forward map over an array of rows, with one stacked Lorentz kernel call
for all of them whose completion triangles both routes read.

The stacked code keeps to the row protocol of :mod:`polymod.errors`: the
parameters are an (N, n-3) array and each row holds None or its first
failure.  Every gate (the square roots, NegativeRatio, the shapes' domain
checks and the route check) decides on the columns with the scalar rules'
own ``x**2``, so as the scalar rule would; the scalar rules only word each
failure.  Shapes are objects only at the one-row edge:
:func:`forward_shapes` adds a shape object to each row of
:func:`forward_params` that mapped, and ``psi5``/``psi6`` are its one-row case.

The hexahedron sign rule: ``P - 1``, ``Q - 1`` and ``R - 1`` have the same
signs as the consecutive-triple sums ``theta_{i5}+theta_{i6}+theta_{i1}``,
``theta_{i1}+theta_{i2}+theta_{i3}`` and ``theta_{i3}+theta_{i4}+theta_{i5}``
minus pi.  A triple sum below pi creates the edge between faces ``k`` and
``k+1`` (1-based, cyclic): each parameter controls one opposite pair of
potential edges — ``P``: edge 5 (below 1) or edge 2 (above 1), ``Q``: edge 1
or 4, ``R``: edge 3 or 6.  Values within ``TOL_IDEAL`` of 1 are flagged
ideal and create no edge.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._record import record
from .combinatorics import TOL_IDEAL, WeightVector, as_word
from .errors import (
    NegativeRatio,
    OutOfRange,
    PolymodError,
    RouteDisagreement,
    first_failures,
    unwrap,
)
from .lorentz import ModelStack, build_models
from .planar import Triangles, angle_rows, libm

#: Allowed relative disagreement between the planar and Lorentzian routes.
ROUTE_TOL = 1e-9

#: Identity label words used when a caller does not pass one.
IDENTITY5 = (1, 2, 3, 4, 5)
IDENTITY6 = (1, 2, 3, 4, 5, 6)

_FACE_NAMES = {3: "triangle", 4: "quadrilateral", 5: "pentagon"}

#: Edge controlled by shape parameter i when it is below 1 / above 1.
_EDGE_BELOW = (5, 1, 3)
_EDGE_ABOVE = (2, 4, 6)


def _pentagon_error(P: float, Q: float) -> OutOfRange | None:
    """Why (P, Q) is no pentagon shape, or None."""
    if not (0.0 < P < 1.0 and 0.0 < Q < 1.0):
        return OutOfRange(f"pentagon shape needs 0 < P, Q < 1, got ({P!r}, {Q!r})")
    if P**2 + Q**2 <= 1.0:
        return OutOfRange(f"pentagon shape needs P^2 + Q^2 > 1, got {P**2 + Q**2:.17g}")
    return None


def _hexahedron_error(P: float, Q: float, R: float) -> OutOfRange | None:
    """Why (P, Q, R) is no hexahedron shape, or None."""
    if not (P > 0.0 and Q > 0.0 and R > 0.0):
        return OutOfRange(f"hexahedron shape needs P, Q, R > 0, got ({P!r}, {Q!r}, {R!r})")
    if not all(math.isfinite(v) for v in (P, Q, R)):
        return OutOfRange(f"hexahedron shape needs finite P, Q, R, got ({P!r}, {Q!r}, {R!r})")
    return None


@record
class PentagonShape:
    """A right-pentagon shape (P, Q) in the open region P^2 + Q^2 > 1."""

    P: float
    Q: float

    def __post_init__(self):
        unwrap(_pentagon_error(self.P, self.Q))

    @property
    def params(self) -> tuple[float, float]:
        return (self.P, self.Q)


@record
class HexahedronShape:
    """A hexahedron shape (P, Q, R), all positive."""

    P: float
    Q: float
    R: float

    def __post_init__(self):
        unwrap(_hexahedron_error(self.P, self.Q, self.R))

    @property
    def params(self) -> tuple[float, float, float]:
        return (self.P, self.Q, self.R)

    @property
    def pqr(self) -> tuple[float, float, float]:
        """The folded parameters (p, q, r) = min of each value and its inverse."""
        return tuple(min(v, 1.0 / v) for v in self.params)

    @property
    def signs(self) -> tuple[int, int, int]:
        """Signs of (P-1, Q-1, R-1) with a zero band of width TOL_IDEAL."""
        return tuple(hexahedron_signs(np.array(self.params)).tolist())

    @property
    def ideal_flags(self) -> tuple[bool, bool, bool]:
        return tuple(s == 0 for s in self.signs)


def triple_sums(theta: WeightVector, label: Sequence[int]) -> tuple[float, float, float]:
    """Consecutive-triple angle sums controlling (P, Q, R), in that order."""
    word = as_word(label)
    if len(word) != 6 or theta.n != 6:
        raise OutOfRange("triple sums are defined for n=6")
    t = [theta[m - 1] for m in word]
    return (
        t[4] + t[5] + t[0],
        t[0] + t[1] + t[2],
        t[2] + t[3] + t[4],
    )


def scaled_residual(a: float, b: float) -> float:
    """``|a - b| / max(1, |a|, |b|)^2``, the residual of two shape parameters.

    A parameter of magnitude M is a ratio over a feet gap of order 1/M, so
    honest rounding grows like M^2; an unscaled gate would trip on noise
    near the boundary, where an absolute 1e-9 exceeds double precision.
    It is 0 where the square overflows (the route check's columns divide by
    the same inf).
    """
    return abs(a - b) / _square(max(1.0, abs(a), abs(b)))


def relative_residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a - b| / max(1, |a|, |b|)`` per entry: a parameter compared on its
    own scale.

    The squared scale of :func:`scaled_residual` suits two computed routes
    to one value; against a user's input it would accept any R2 above about
    1/tol for a true R2 of 1.
    """
    return np.abs(a - b) / np.fmax(np.fmax(np.abs(a), np.abs(b)), 1.0)


def _square(x: float) -> float:
    """``x**2`` (libm ``pow``), or inf where it overflows.  The stacked gates
    map it over their columns: ``x * x`` may round the last bit otherwise."""
    try:
        return x**2
    except OverflowError:
        return math.inf


@np.errstate(all="ignore")  # failed rows hold NaN; their values go unread
def planar_params(triangles: Triangles) -> tuple[np.ndarray, list]:
    """The planar route over a stack of completion triangles, as arrays.

    Pentagons take ``P^2 = 1 - f1`` and ``Q^2 = f2`` from the apex-cevian
    feet; hexahedra take ``P^2, Q^2, R^2`` from the three signed feet
    ratios, which must be positive (NegativeRatio otherwise).  Returns the
    (N, n-3) parameters and each row's first failure or None: the feet's,
    then the shape's own domain checks, whose class and message the
    :class:`PentagonShape` and :class:`HexahedronShape` constructors
    give.  The Lorentzian route is not consulted.
    """
    feet, errors = triangles.feet()
    if triangles.n == 5:
        params = np.sqrt(np.stack([1.0 - feet[:, 0], feet[:, 1]], axis=1))
        (P, Q), squares = params.T, libm(_square, params)
        inside = (0.0 < P) & (P < 1.0) & (0.0 < Q) & (Q < 1.0)
        fail = ~(inside & (squares[:, 0] + squares[:, 1] > 1.0))
        first_failures(errors, fail, lambda i: _pentagon_error(*params[i].tolist()))
        return params, errors
    negative = feet <= 0.0
    name = negative.argmax(axis=1)
    first_failures(
        errors,
        negative.any(axis=1),
        lambda i: NegativeRatio(
            f"squared parameter {'PQR'[name[i]]}^2 = {float(feet[i, name[i]]):.17g} <= 0"
        ),
    )
    params = np.sqrt(feet)
    suspect = ~(np.all(params > 0.0, axis=1) & np.isfinite(params).all(axis=1))
    first_failures(errors, suspect, lambda i: _hexahedron_error(*params[i].tolist()))
    return params, errors


def _disagreement(
    n: int, shape: Sequence[float], lorentz: Sequence[float]
) -> RouteDisagreement | None:
    """The first parameter whose two routes differ beyond ROUTE_TOL under
    :func:`scaled_residual`, or None."""
    for name, a, b in zip("PQR", shape, lorentz):
        if scaled_residual(a, b) > ROUTE_TOL:
            return RouteDisagreement(
                f"psi{n}: planar {name} = {a:.17g} vs Lorentzian {name} = "
                f"{b:.17g} disagree beyond {ROUTE_TOL:g} of squared magnitude"
            )
    return None


@np.errstate(all="ignore")
def _cross_check(n: int, stack: ModelStack, params: np.ndarray, errors: list) -> list:
    """``errors`` after the route check: each row that passed the planar
    route gets its Lorentz model's or axis intercepts' failure, then
    RouteDisagreement where a parameter differs from its intercept under
    :func:`scaled_residual`, computed on the columns."""
    errors = [
        e if e is not None else (m or x)
        for e, m, x in zip(errors, stack.model_errors, stack.intercept_errors)
    ]
    lorentz = stack.intercepts
    scale = np.fmax(np.fmax(np.abs(params), np.abs(lorentz)), 1.0)
    residual = np.abs(params - lorentz) / libm(_square, scale)
    first_failures(
        errors,
        (residual > ROUTE_TOL).any(axis=1),
        lambda i: _disagreement(n, params[i].tolist(), lorentz[i].tolist()),
    )
    return errors


def forward_params(
    n: int, theta: np.ndarray, labels: Sequence[Sequence[int]]
) -> tuple[np.ndarray, list]:
    """``psi5`` (n=5) or ``psi6`` (n=6) over an (N, n) array of validated
    angles, one label word per row: the (N, n-3) shape parameters (a failed
    row's are meaningless) and each row's failure or None.

    One :func:`build_models` call builds every row's completion triangle
    and model; :func:`planar_params` reads the parameters from those
    triangles, and :func:`_cross_check` checks them against the axis
    intercepts.  Every row needs n angles and every label n marks
    (OutOfRange for the whole call otherwise).
    """
    if not len(theta):
        return np.zeros((0, n - 3)), []
    if theta.shape[1] != n:
        raise OutOfRange(f"psi{n} maps weight vectors of n={n}")
    stack = build_models(theta, labels)
    params, errors = planar_params(stack.triangles)
    return params, _cross_check(n, stack, params, errors)


def forward_shapes(
    n: int, thetas: Sequence[WeightVector], labels: Sequence[Sequence[int]]
) -> list[PentagonShape | HexahedronShape | PolymodError]:
    """:func:`forward_params` over WeightVectors: each row's shape, or the
    error the forward map raises for it."""
    if any(theta.n != n for theta in thetas):
        raise OutOfRange(f"psi{n} maps weight vectors of n={n}")
    params, errors = forward_params(n, angle_rows(thetas), labels)
    shape = PentagonShape if n == 5 else HexahedronShape
    return [shape(*row) if e is None else e for row, e in zip(params.tolist(), errors)]


def hexahedron_signs(params: np.ndarray) -> np.ndarray:
    """The sign of each parameter minus 1, 0 within TOL_IDEAL of 1: the
    :attr:`HexahedronShape.signs` of each row of an (N, 3) array."""
    return np.where(np.abs(params - 1.0) <= TOL_IDEAL, 0, np.where(params > 1.0, 1, -1))


def hexahedron_types(signs: np.ndarray) -> list[str]:
    """The type letter of each row of an (N, 3) array of signs: the count of
    parameters above 1, 'a' for none through 'd' for all three."""
    return ["abcd"[k] for k in (signs > 0).sum(axis=1).tolist()]


def psi5(theta: WeightVector, label: Sequence[int] = IDENTITY5) -> PentagonShape:
    """Forward map to the right-pentagon shape (P, Q).

    The planar route's shape, returned once the Lorentzian axis intercepts
    agree with it to ROUTE_TOL (RouteDisagreement otherwise): the one-row
    case of :func:`forward_shapes`.
    """
    return unwrap(forward_shapes(5, [theta], [label])[0])


def psi6(theta: WeightVector, label: Sequence[int] = IDENTITY6) -> HexahedronShape:
    """Forward map to the hexahedron shape (P, Q, R), checked like psi5."""
    return unwrap(forward_shapes(6, [theta], [label])[0])


def classify_hexahedron(shape: HexahedronShape) -> dict:
    """Combinatorial type report for a hexahedron shape.

    Faces are numbered 1..6 (face k collapses the label's pair (i_k,
    i_{k+1})).  Each parameter strictly below/above 1 contributes one edge
    between a consecutive face pair; face m then has 3 + [edge m-1] +
    [edge m] sides.  The type letter counts parameters above 1: 'a' for
    none through 'd' for all three (:func:`hexahedron_types`).
    """
    signs = shape.signs
    edges = {(_EDGE_BELOW if s < 0 else _EDGE_ABOVE)[i] for i, s in enumerate(signs) if s}
    # face m has edge m-1 (cyclic) before it and edge m after it
    faces = {
        str(m): _FACE_NAMES[3 + ((m - 2) % 6 + 1 in edges) + (m in edges)] for m in range(1, 7)
    }
    p, q, r = shape.pqr
    return {
        "type": hexahedron_types(np.array([signs]))[0],
        "signs": list(signs),
        "ideal": [bool(f) for f in shape.ideal_flags],
        "adjacent_edges": sorted(edges),
        "faces": faces,
        "p": p,
        "q": q,
        "r": r,
    }


def klein_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Hyperbolic distance between two points of the open Klein ball."""
    dot = sum(a * b for a, b in zip(p, q))
    np2 = sum(a * a for a in p)
    nq2 = sum(b * b for b in q)
    if np2 >= 1.0 or nq2 >= 1.0:
        raise OutOfRange("Klein points must lie inside the unit ball")
    arg = (1.0 - dot) / math.sqrt((1.0 - np2) * (1.0 - nq2))
    return math.acosh(max(arg, 1.0))


@record
class PentagonSides:
    """Side lengths of a right pentagon, cyclically ordered by facet.

    ``facet_order`` lists the facets in geometric cyclic order (consecutive
    entries share a vertex); ``lengths[i]`` is the hyperbolic length of the
    side on facet ``facet_order[i]``.  The first two entries are the axis
    sides: arctanh(P) on facet 1 and arctanh(Q) on facet 3.
    """

    lengths: tuple[float, float, float, float, float]
    facet_order: tuple[int, int, int, int, int] = (1, 3, 5, 2, 4)

    def by_facet(self, k: int) -> float:
        return self.lengths[self.facet_order.index(k)]


def pentagon_side_lengths(shape: PentagonShape) -> PentagonSides:
    """Hyperbolic side lengths of the right pentagon with shape (P, Q).

    In the Klein disk the pentagon has vertices (0,0), (0,P), then
    ((1-P^2)/Q, P) and (Q, (1-Q^2)/P) on the chord Q*u + P*v = 1, and
    (Q, 0); facets 1 and 3 are the two axis segments.
    """
    p_, q_ = shape.P, shape.Q
    h_p = (0.0, p_)
    h_q = (q_, 0.0)
    v24 = ((1.0 - p_**2) / q_, p_)
    v52 = (q_, (1.0 - q_**2) / p_)
    lengths = (
        math.atanh(p_),
        math.atanh(q_),
        klein_distance(h_q, v52),
        klein_distance(v52, v24),
        klein_distance(v24, h_p),
    )
    return PentagonSides(lengths=lengths)
