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
failure.  Shapes are objects only at the one-row edge: ``psi5``/``psi6``
take a WeightVector, map it as the one row of :func:`forward_params` and
return its shape object or raise its failure.

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
from .combinatorics import TOL_IDEAL, WeightVector
from .errors import (
    NegativeRatio,
    OutOfRange,
    RouteDisagreement,
    first_failures,
    unwrap,
)
from .lorentz import ModelStack, build_models
from .planar import Triangles, libm

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


def scaled_residual(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a - b| / max(1, |a|, |b|)^2`` per entry, the residual of two
    routes to one shape parameter.

    A parameter of magnitude M is a ratio over a feet gap of order 1/M, so
    honest rounding grows like M^2; an unscaled gate would trip on noise
    near the boundary, where an absolute 1e-9 exceeds double precision.
    It is 0 where the square overflows.
    """
    scale = np.fmax(np.fmax(np.abs(a), np.abs(b)), 1.0)
    return np.abs(a - b) / libm(_square, scale)


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
    then a pentagon's own domain checks, whose class and message the
    :class:`PentagonShape` constructor gives.  A hexahedron row that has
    not failed has finite positive feet, hence a valid shape.  The
    Lorentzian route is not consulted.
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
    return np.sqrt(feet), errors


@np.errstate(all="ignore")
def _cross_check(n: int, stack: ModelStack, params: np.ndarray, errors: list) -> list:
    """``errors`` after the route check: each row that passed the planar
    route gets its Lorentz model's failure, then RouteDisagreement where a
    parameter differs from its intercept beyond ROUTE_TOL under
    :func:`scaled_residual`, worded from the row's first such parameter."""
    errors = [e or m for e, m in zip(errors, stack.model_errors)]
    lorentz = stack.intercepts
    apart = scaled_residual(params, lorentz) > ROUTE_TOL
    name = apart.argmax(axis=1)
    first_failures(
        errors,
        apart.any(axis=1),
        lambda i: RouteDisagreement(
            f"psi{n}: planar {'PQR'[name[i]]} = {float(params[i, name[i]]):.17g} vs Lorentzian "
            f"{'PQR'[name[i]]} = {float(lorentz[i, name[i]]):.17g} disagree beyond "
            f"{ROUTE_TOL:g} of squared magnitude"
        ),
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


def hexahedron_signs(params: np.ndarray) -> np.ndarray:
    """The sign of each parameter minus 1, 0 within TOL_IDEAL of 1: the
    :attr:`HexahedronShape.signs` of each row of an (N, 3) array."""
    return np.where(np.abs(params - 1.0) <= TOL_IDEAL, 0, np.where(params > 1.0, 1, -1))


def hexahedron_types(signs: np.ndarray) -> list[str]:
    """The type letter of each row of an (N, 3) array of signs: the count of
    parameters above 1, 'a' for none through 'd' for all three."""
    return ["abcd"[k] for k in (signs > 0).sum(axis=1).tolist()]


def _psi(n: int, theta: WeightVector, label: Sequence[int]):
    """The shape of ``theta`` on ``label``: the one row of
    :func:`forward_params`, or its failure raised."""
    params, errors = forward_params(n, np.array([theta.theta], dtype=float), [label])
    unwrap(errors[0])
    return (PentagonShape if n == 5 else HexahedronShape)(*params[0].tolist())


def psi5(theta: WeightVector, label: Sequence[int] = IDENTITY5) -> PentagonShape:
    """Forward map to the right-pentagon shape (P, Q).

    The planar route's shape, returned once the Lorentzian axis intercepts
    agree with it to ROUTE_TOL (RouteDisagreement otherwise).
    """
    return _psi(5, theta, label)


def psi6(theta: WeightVector, label: Sequence[int] = IDENTITY6) -> HexahedronShape:
    """Forward map to the hexahedron shape (P, Q, R), checked like psi5."""
    return _psi(6, theta, label)


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


def pentagon_side_lengths(shape: PentagonShape) -> PentagonSides:
    """Hyperbolic side lengths of the right pentagon with shape (P, Q).

    The axis sides are arctanh(P) and arctanh(Q); the right-pentagon
    relations cosh a_k = sinh a_{k-2} sinh a_{k+2} = coth a_{k-1} coth a_{k+1}
    give the other three from d = P^2 + Q^2 - 1, positive on every shape by
    the constructor's own ``**2`` test: arcsinh of sqrt((1-Q^2)/d),
    sqrt(d/((1-P^2)(1-Q^2))) and sqrt((1-P^2)/d).  Each loses only the
    relative error of d, about 4u/d for the unit roundoff u.
    """
    P, Q = shape.P, shape.Q
    d = P**2 + Q**2 - 1.0
    p2, q2 = (1.0 - P) * (1.0 + P), (1.0 - Q) * (1.0 + Q)
    lengths = (
        math.atanh(P),
        math.atanh(Q),
        math.asinh(math.sqrt(q2 / d)),
        math.asinh(math.sqrt(d / (p2 * q2))),
        math.asinh(math.sqrt(p2 / d)),
    )
    return PentagonSides(lengths=lengths)
