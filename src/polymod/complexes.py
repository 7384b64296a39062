"""Glued cell complexes: face pairings, orbit classes, cusps, singular edges.

One cell per label; face ``k`` of a cell collapses the adjacent mark pair
``(i_k, i_{k+1})`` and two faces are glued exactly when their degenerate
configurations coincide.  The pairing is a perfect matching with no
face glued to itself and no two faces of the same cell glued.

Orbits of deeper strata are computed by union-find over the pairings:

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
from dataclasses import dataclass
from typing import Sequence

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
from .errors import NotEqualWeight, OutOfRange, PairingFailure


class _UnionFind:
    """Union-find with path compression and union by size."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.size = [1] * size

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def groups(self) -> list[list[int]]:
        buckets: dict[int, list[int]] = {}
        for a in range(len(self.parent)):
            buckets.setdefault(self.find(a), []).append(a)
        return [sorted(g) for g in sorted(buckets.values())]


@dataclass(frozen=True)
class FacePairing:
    """A glued face pair; cells are indices into the complex's cell list."""

    cell_a: int
    face_a: int
    cell_b: int
    face_b: int
    config: DegenerateConfig


@dataclass(frozen=True)
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


def _pentagon_vertex_classes(
    cells: tuple[Label, ...], pairings: list[FacePairing]
) -> tuple[tuple[tuple[int, tuple[int, int]], ...], ...]:
    """Union-find orbits of pentagon vertices (facet pairs (k, k+2))."""
    nodes: list[tuple[int, tuple[int, int]]] = []
    index: dict[tuple[int, tuple[int, int]], int] = {}
    for ci in range(len(cells)):
        for k in range(1, 6):
            key = (ci, tuple(sorted((k, _cyc(k, 2, 5)))))
            index[key] = len(nodes)
            nodes.append(key)
    uf = _UnionFind(len(nodes))

    def endpoints(ci: int, face: int) -> dict[DegenerateConfig, tuple[int, tuple[int, int]]]:
        out = {}
        for other in (_cyc(face, 2, 5), _cyc(face, -2, 5)):
            cfg = vertex_config(cells[ci].word, face, other)
            out[cfg] = (ci, tuple(sorted((face, other))))
        return out

    for p in pairings:
        ends_a = endpoints(p.cell_a, p.face_a)
        ends_b = endpoints(p.cell_b, p.face_b)
        if set(ends_a) != set(ends_b):
            raise PairingFailure(
                f"glued faces {p} disagree on their endpoint configurations"
            )
        for cfg, node_a in ends_a.items():
            uf.union(index[node_a], index[ends_b[cfg]])

    return tuple(tuple(nodes[i] for i in group) for group in uf.groups())


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

    nodes: list[tuple[int, frozenset[frozenset[int]]]] = []
    index: dict[tuple[int, frozenset[frozenset[int]]], int] = {}
    for ci, lab in enumerate(complex_.cells):
        for part in _partitions_of(lab.word):
            key = (ci, part)
            index[key] = len(nodes)
            nodes.append(key)
    uf = _UnionFind(len(nodes))

    for p in complex_.pairings:
        merged = p.config.merged
        if len(merged) != 1 or len(merged[0]) != 2:
            raise PairingFailure(f"face configuration {p.config} is not a pair collision")
        pair = set(merged[0])
        for part in _partitions_of(complex_.cells[p.cell_a].word):
            if any(pair <= piece for piece in part):
                other = (p.cell_b, part)
                if other not in index:
                    raise PairingFailure(
                        f"partition {_partition_key(part)} missing from glued cell "
                        f"{complex_.cells[p.cell_b]}"
                    )
                uf.union(index[(p.cell_a, part)], index[other])

    table = []
    for group in uf.groups():
        partitions = {nodes[i][1] for i in group}
        if len(partitions) != 1:
            raise PairingFailure("a cusp class mixes distinct triple partitions")
        labels = sorted(str(complex_.cells[nodes[i][0]]) for i in group)
        table.append(
            {
                "partition": _partition_key(partitions.pop()),
                "labels": labels,
                "incidences": len(group),
            }
        )
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
    from .lorentz import build_models, dihedral_angle  # numpy loads for this report only

    if complex_.n != 6:
        raise OutOfRange("singular edges are computed for n=6 complexes")

    fired: dict[tuple[int, int], DegenerateConfig] = {}
    for ci, lab in enumerate(complex_.cells):
        t = [complex_.theta[m - 1] for m in lab.word]
        for k in range(1, 7):
            total = t[k - 1] + t[k % 6] + t[(k + 1) % 6]
            if total < math.pi - TOL_IDEAL:
                fired[(ci, k)] = triple_config(lab.word, k)

    keys = sorted(fired)
    index = {key: i for i, key in enumerate(keys)}
    uf = _UnionFind(len(keys))
    for p in complex_.pairings:
        for k in (_cyc(p.face_a, -1, 6), p.face_a):
            if (p.cell_a, k) not in fired:
                continue
            cfg = fired[(p.cell_a, k)]
            matched = False
            for k2 in (_cyc(p.face_b, -1, 6), p.face_b):
                if fired.get((p.cell_b, k2)) == cfg:
                    uf.union(index[(p.cell_a, k)], index[(p.cell_b, k2)])
                    matched = True
                    break
            if not matched:
                raise PairingFailure(
                    f"singular edge {cfg} of cell {complex_.cells[p.cell_a]} has no "
                    f"image across the glued face"
                )

    # one kernel call builds every cell with an edge; a cell's recorded
    # failure is raised when its first edge is met, in group order
    built = sorted({ci for ci, _ in keys})
    stack = (
        build_models([complex_.theta] * len(built), [complex_.cells[ci].word for ci in built])
        if built
        else None
    )
    rows = {ci: row for row, ci in enumerate(built)}
    models: dict[int, object] = {}
    table = []
    for group in uf.groups():
        cfg = fired[keys[group[0]]]
        angle = 0.0
        for i in group:
            ci, k = keys[i]
            if ci not in models:
                models[ci] = stack.model(rows[ci])
            angle += dihedral_angle(models[ci], k, _cyc(k, 1, 6))
        table.append(
            {
                "config": cfg.render(),
                "members": len(group),
                "cone_angle": angle,
            }
        )
    table.sort(key=lambda row: row["config"])
    return {"classes": len(table), "table": table}
