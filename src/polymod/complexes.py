"""Glued cell complexes: face pairings, orbit classes, cusps, singular edges.

One cell per label; face ``k`` of a cell collapses the adjacent mark pair
``(i_k, i_{k+1})`` and two faces are glued exactly when their degenerate
configurations coincide.  The pairing is a perfect matching with no
face glued to itself and no two faces of the same cell glued.

Orbits of deeper strata come from one gluing walk over the pairings: a
report names its nodes and, for each face, the configuration key of every
node on it; each pairing glues the nodes with equal keys on its two sides.
The orbits are:

* pentagon vertices (two disjoint collided pairs) — 15 classes of size 4;
* hexahedron ideal vertices at the equal weight, keyed by the partition of
  the marks into two consecutive triples — ten classes, one per partition
  of {1..6} into triples, each incident to 18 labels;
* singular edges created when a consecutive triple sum drops below pi,
  keyed by the collided-triple configuration, with the total cone angle
  summed from the per-cell dihedral angles.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from ._record import record
from .combinatorics import (
    TOL_IDEAL,
    DegenerateConfig,
    Label,
    WeightVector,
    enumerate_labels,
    equal_weight,
    face_config,
    triple_config,
    validate_weight,
    vertex_config,
)
from .errors import NotEqualWeight, OutOfRange, PairingFailure, unwrap


@record
class FacePairing:
    """A glued face pair; cells are indices into the complex's cell list."""

    cell_a: int
    face_a: int
    cell_b: int
    face_b: int
    config: DegenerateConfig


@record
class GluedComplex:
    """The glued configuration-space complex for one n and weight vector."""

    n: int
    theta: WeightVector
    cells: tuple[Label, ...]
    pairings: tuple[FacePairing, ...]
    vertex_classes: tuple[tuple[tuple[int, tuple[int, int]], ...], ...] | None

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_pairings(self) -> int:
        return len(self.pairings)


def _cyc(k: int, delta: int, n: int) -> int:
    """1-based cyclic face arithmetic."""
    return (k - 1 + delta) % n + 1


def build_complex(n: int, theta: WeightVector | Sequence[float] | None = None) -> GluedComplex:
    """Build the glued complex for all (n-1)!/2 labels.

    ``theta`` defaults to the equal weight; it is carried for the geometric
    queries (cusps, singular edges) and does not affect the pairing.
    """
    if n not in (5, 6):
        raise OutOfRange(f"complexes are built for n in {{5, 6}}, got {n}")
    if theta is None:
        theta = equal_weight(n)
    elif not isinstance(theta, WeightVector):
        theta = validate_weight(theta)
    if theta.n != n:
        raise OutOfRange(f"theta has {theta.n} angles but n = {n}")

    cells = tuple(enumerate_labels(n))
    buckets: dict[DegenerateConfig, list[tuple[int, int]]] = {}
    for ci, lab in enumerate(cells):
        for k in range(1, n + 1):
            buckets.setdefault(face_config(lab.word, k), []).append((ci, k))

    pairings = []
    for cfg in sorted(buckets):
        slots = buckets[cfg]
        if len(slots) != 2:
            raise PairingFailure(
                f"configuration {cfg} matched {len(slots)} face slots, expected 2"
            )
        (ca, fa), (cb, fb) = sorted(slots)
        if ca == cb:
            raise PairingFailure(
                f"configuration {cfg} pairs two faces of the same cell {cells[ca]}"
            )
        pairings.append(FacePairing(ca, fa, cb, fb, cfg))
    pairings.sort(key=lambda p: (p.cell_a, p.face_a))

    vertex_classes = _pentagon_vertex_classes(cells, pairings) if n == 5 else None
    return GluedComplex(
        n=n,
        theta=theta,
        cells=cells,
        pairings=tuple(pairings),
        vertex_classes=vertex_classes,
    )


def _glued_classes(
    cells: tuple[Label, ...], pairings: Sequence[FacePairing], nodes: list, on_face: Callable
) -> list[list]:
    """Classes of ``nodes`` under the gluing, in the order of their first node.

    ``on_face(cell, face)`` maps the key of each node on that face to the
    node: a configuration's ``word`` tuple (it hashes in C, where a
    DegenerateConfig hashes in Python) or a cusp partition.  Each pairing
    glues every node on its first side to the node with the same key on
    its second side; a key with no such node raises PairingFailure.
    Members are listed in node order.
    """
    index = {node: i for i, node in enumerate(nodes)}
    root = list(range(len(nodes)))  # every class is rooted at its first node

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for p in pairings:
        side_b = on_face(p.cell_b, p.face_b)
        for key, node in on_face(p.cell_a, p.face_a).items():
            match = side_b.get(key)
            if match is None:
                if isinstance(key, tuple):
                    shown = DegenerateConfig(key).render()
                else:
                    shown = _partition_key(key)
                raise PairingFailure(
                    f"{shown} on face {p.face_a} of cell {cells[p.cell_a]} has no match "
                    f"on face {p.face_b} of cell {cells[p.cell_b]}"
                )
            a, b = find(index[node]), find(index[match])
            root[max(a, b)] = min(a, b)
    classes: dict[int, list] = {}
    for i, node in enumerate(nodes):
        classes.setdefault(find(i), []).append(node)
    return list(classes.values())


def _pentagon_vertex_classes(
    cells: tuple[Label, ...], pairings: list[FacePairing]
) -> tuple[tuple[tuple[int, tuple[int, int]], ...], ...]:
    """Orbits of pentagon vertices (facet pairs (k, k+2))."""
    nodes = [
        (ci, tuple(sorted((k, _cyc(k, 2, 5))))) for ci in range(len(cells)) for k in range(1, 6)
    ]

    def on_face(ci: int, face: int) -> dict:
        return {
            vertex_config(cells[ci].word, face, other).word: (ci, tuple(sorted((face, other))))
            for other in (_cyc(face, 2, 5), _cyc(face, -2, 5))
        }

    return tuple(map(tuple, _glued_classes(cells, pairings, nodes, on_face)))


def euler_characteristic(complex_: GluedComplex) -> int:
    """V - E + F of the pentagon complex."""
    if complex_.n != 5 or complex_.vertex_classes is None:
        raise OutOfRange("the Euler characteristic is computed for n=5 complexes")
    return (
        len(complex_.vertex_classes)
        - complex_.num_pairings
        + complex_.num_cells
    )


def _partitions_of(word: tuple[int, ...]) -> list[frozenset[frozenset[int]]]:
    """The three consecutive-triple partitions of a hexahedron label."""
    out = []
    for k in range(3):
        t1 = frozenset(word[(k + j) % 6] for j in range(3))
        t2 = frozenset(range(1, 7)) - t1
        out.append(frozenset((t1, t2)))
    return out


def _partition_key(partition: frozenset[frozenset[int]]) -> list[list[int]]:
    return sorted(sorted(part) for part in partition)


def _equal_weight(theta: WeightVector) -> bool:
    """True when every angle is within TOL_IDEAL of 2*pi/n."""
    target = 2.0 * math.pi / theta.n
    return all(abs(t - target) <= TOL_IDEAL for t in theta)


def pairing_row(p: FacePairing) -> dict:
    """The JSON row of one face pairing."""
    return {
        "cell": p.cell_a,
        "face": p.face_a,
        "other_cell": p.cell_b,
        "other_face": p.face_b,
        "config": p.config.render(),
    }


def cusp_classes(complex_: GluedComplex) -> dict:
    """Gluing classes of the ideal vertices of the equal-weight complex.

    Each hexahedron has three ideal vertices, one per partition of its label
    into two consecutive triples; an ideal vertex lies on the four faces
    whose collided pair stays inside one part, and gluing along such a face
    identifies vertices with the same partition.  Raises NotEqualWeight
    away from the equal weight, where the vertices are not ideal.
    """
    if complex_.n != 6:
        raise OutOfRange("cusp classes are computed for n=6 complexes")
    if not _equal_weight(complex_.theta):
        raise NotEqualWeight(
            "cusp enumeration requires the equal-weight vector (ideal vertices)"
        )

    cells = complex_.cells
    parts = [_partitions_of(lab.word) for lab in cells]
    nodes = [(ci, part) for ci in range(len(cells)) for part in parts[ci]]

    def on_face(ci: int, face: int) -> dict:
        pair = {cells[ci].word[face - 1], cells[ci].word[face % 6]}
        return {
            part: (ci, part) for part in parts[ci] if any(pair <= piece for piece in part)
        }

    table = [
        {
            "partition": _partition_key(group[0][1]),
            "labels": sorted(str(cells[ci]) for ci, _ in group),
            "incidences": len(group),
        }
        for group in _glued_classes(cells, complex_.pairings, nodes, on_face)
    ]
    table.sort(key=lambda row: row["partition"])
    return {"classes": len(table), "total_incidences": len(nodes), "table": table}


def singular_edges(complex_: GluedComplex) -> dict:
    """Classes of cone edges created by consecutive triple sums below pi.

    For each cell and face index k, the complex's own weight vector creates
    an edge when ``theta_{i_k} + theta_{i_{k+1}} + theta_{i_{k+2}} < pi``,
    between faces k and k+1, keyed by the collided-triple configuration;
    sums within TOL_IDEAL of pi are tangencies and create no edge.  Each
    class reports its total cone angle (sum of member dihedral angles).
    """
    if complex_.n != 6:
        raise OutOfRange("singular edges are computed for n=6 complexes")
    from .lorentz import build_models, dihedral_angles  # numpy loads for this report only

    fired: dict[tuple[int, int], DegenerateConfig] = {}
    for ci, lab in enumerate(complex_.cells):
        t = [complex_.theta[m - 1] for m in lab.word]
        for k in range(1, 7):
            total = t[k - 1] + t[k % 6] + t[(k + 1) % 6]
            if total < math.pi - TOL_IDEAL:
                fired[(ci, k)] = triple_config(lab.word, k)

    def on_face(ci: int, face: int) -> dict:
        edges = ((ci, _cyc(face, -1, 6)), (ci, face))
        return {fired[edge].word: edge for edge in edges if edge in fired}

    groups = _glued_classes(complex_.cells, complex_.pairings, sorted(fired), on_face)

    # one kernel call builds every cell with an edge and one pairs the facets
    # of every edge; an edge's failure (its cell's first) is raised when the
    # edge is met, in group order
    edges = sorted(fired)
    built = sorted({ci for ci, _ in edges})
    row_of = {ci: row for row, ci in enumerate(built)}
    angles: dict = {}
    if edges:
        words = [complex_.cells[ci].word for ci in built]
        stack = build_models([complex_.theta] * len(built), words)
        entries = [row_of[ci] for ci, _ in edges], [(k, _cyc(k, 1, 6)) for _, k in edges]
        values, errors = dihedral_angles(stack.gram, stack.facet_mat, stack.model_errors, *entries)
        angles = dict(zip(edges, zip(values.tolist(), errors)))
    table = []
    for group in groups:
        angle = 0.0
        for edge in group:
            value, error = angles[edge]
            unwrap(error)
            angle += value
        table.append(dict(config=fired[group[0]].render(), members=len(group), cone_angle=angle))
    table.sort(key=lambda row: row["config"])
    return {"classes": len(table), "table": table}
