"""Forward moduli maps from weight vectors to polyhedron shapes.

A pentagon shape is the pair ``(P, Q)`` with ``0 < P, Q < 1`` and
``P^2 + Q^2 > 1``; a hexahedron shape is a triple of positive reals
``(P, Q, R)``.  :func:`planar_shape` reads a shape from the planar
completion-triangle feet alone; ``psi5``/``psi6`` also compute it from the
Lorentzian axis intercepts, and the two routes must agree to ``ROUTE_TOL``
under :func:`scaled_residual`.  :func:`forward_shapes` is the forward map
over many rows, with one stacked Lorentz kernel call for all of them.

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
from dataclasses import astuple, dataclass
from typing import Sequence

from .combinatorics import WeightVector, as_word
from .errors import NegativeRatio, OutOfRange, PolymodError, RouteDisagreement
from .lorentz import TOL_IDEAL, build_models
from .planar import complete_triangle, pentagon_feet

#: Allowed relative disagreement between the planar and Lorentzian routes.
ROUTE_TOL = 1e-9

#: Identity label words used when a caller does not pass one.
IDENTITY5 = (1, 2, 3, 4, 5)
IDENTITY6 = (1, 2, 3, 4, 5, 6)

_FACE_NAMES = {3: "triangle", 4: "quadrilateral", 5: "pentagon"}

#: Edge controlled by shape parameter i when it is below 1 / above 1.
_EDGE_BELOW = (5, 1, 3)
_EDGE_ABOVE = (2, 4, 6)


@dataclass(frozen=True)
class PentagonShape:
    """A right-pentagon shape (P, Q) in the open region P^2 + Q^2 > 1."""

    P: float
    Q: float

    def __post_init__(self):
        if not (0.0 < self.P < 1.0 and 0.0 < self.Q < 1.0):
            raise OutOfRange(
                f"pentagon shape needs 0 < P, Q < 1, got ({self.P!r}, {self.Q!r})"
            )
        if self.P**2 + self.Q**2 <= 1.0:
            raise OutOfRange(
                f"pentagon shape needs P^2 + Q^2 > 1, got "
                f"{self.P**2 + self.Q**2:.17g}"
            )


@dataclass(frozen=True)
class HexahedronShape:
    """A hexahedron shape (P, Q, R), all positive."""

    P: float
    Q: float
    R: float

    def __post_init__(self):
        if not (self.P > 0.0 and self.Q > 0.0 and self.R > 0.0):
            raise OutOfRange(
                f"hexahedron shape needs P, Q, R > 0, got "
                f"({self.P!r}, {self.Q!r}, {self.R!r})"
            )

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
        out = []
        for v in self.params:
            if abs(v - 1.0) <= TOL_IDEAL:
                out.append(0)
            else:
                out.append(1 if v > 1.0 else -1)
        return tuple(out)

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
    """
    return abs(a - b) / max(1.0, abs(a), abs(b)) ** 2


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


def planar_shape(
    theta: WeightVector, label: Sequence[int]
) -> PentagonShape | HexahedronShape:
    """The shape of ``theta.n`` read from the completion triangle alone.

    Pentagons take ``P^2 = 1 - f1`` and ``Q^2 = f2`` from the apex-cevian
    feet; hexahedra take ``P^2, Q^2, R^2`` from the three signed feet
    ratios, which must be positive (NegativeRatio otherwise).  The shape's
    own domain checks apply; the Lorentzian route is not consulted.
    """
    return (_pentagon_shape if theta.n == 5 else _hexahedron_shape)(theta, label)


def forward_shapes(
    n: int, thetas: Sequence[WeightVector], labels: Sequence[Sequence[int]]
) -> list[PentagonShape | HexahedronShape | PolymodError]:
    """``psi5`` (n=5) or ``psi6`` (n=6) over many (theta, label) rows.

    Each row gets its shape, or the error the forward map raises for it:
    the planar route runs row by row, then one :func:`build_models` call
    cross-checks every row that passed it against its Lorentzian axis
    intercepts (RouteDisagreement beyond ROUTE_TOL under
    :func:`scaled_residual`).
    """
    planar = _pentagon_shape if n == 5 else _hexahedron_shape
    out: list = []
    for theta, label in zip(thetas, labels, strict=True):
        try:
            out.append(planar(theta, label))
        except PolymodError as exc:
            out.append(exc)
    passed = [i for i, row in enumerate(out) if not isinstance(row, PolymodError)]
    if not passed:
        return out
    stack = build_models([thetas[i] for i in passed], [labels[i] for i in passed])
    for k, i in enumerate(passed):
        try:
            lorentz_vals = stack.axis_intercepts(k)
        except PolymodError as exc:
            out[i] = exc
            continue
        for name, a, b in zip("PQR", astuple(out[i]), lorentz_vals):
            if scaled_residual(a, b) > ROUTE_TOL:
                out[i] = RouteDisagreement(
                    f"psi{n}: planar {name} = {a:.17g} vs Lorentzian {name} = "
                    f"{b:.17g} disagree beyond {ROUTE_TOL:g} of squared magnitude"
                )
                break
    return out


def _forward(n: int, theta: WeightVector, label: Sequence[int]):
    shape = forward_shapes(n, [theta], [label])[0]
    if isinstance(shape, PolymodError):
        raise shape
    return shape


def psi5(theta: WeightVector, label: Sequence[int] = IDENTITY5) -> PentagonShape:
    """Forward map to the right-pentagon shape (P, Q).

    The shape of :func:`planar_shape`, returned once the Lorentzian axis
    intercepts agree with it to ROUTE_TOL (RouteDisagreement otherwise):
    the one-row case of :func:`forward_shapes`.
    """
    return _forward(5, theta, label)


def psi6(theta: WeightVector, label: Sequence[int] = IDENTITY6) -> HexahedronShape:
    """Forward map to the hexahedron shape (P, Q, R), checked like psi5."""
    return _forward(6, theta, label)


def classify_hexahedron(shape: HexahedronShape) -> dict:
    """Combinatorial type report for a hexahedron shape.

    Faces are numbered 1..6 (face k collapses the label's pair (i_k,
    i_{k+1})).  Each parameter strictly below/above 1 contributes one edge
    between a consecutive face pair; face m then has 3 + [edge m-1] +
    [edge m] sides.  The type letter counts parameters above 1: 'a' for
    none through 'd' for all three.
    """
    signs = shape.signs
    edges = set()
    for i, s in enumerate(signs):
        if s < 0:
            edges.add(_EDGE_BELOW[i])
        elif s > 0:
            edges.add(_EDGE_ABOVE[i])
    faces = {}
    for m in range(1, 7):
        prev = (m - 2) % 6 + 1
        count = 3 + (prev in edges) + (m in edges)
        faces[str(m)] = _FACE_NAMES[count]
    type_letter = "abcd"[sum(1 for s in signs if s > 0)]
    p, q, r = shape.pqr
    return {
        "type": type_letter,
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


@dataclass(frozen=True)
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
