"""Tests for glued complexes: pairings, orbit classes, cusps, singular edges."""

import math
import re

import pytest

from polymod import (
    NotEqualWeight,
    OutOfRange,
    PairingFailure,
    build_complex,
    cusp_classes,
    equal_weight,
    euler_characteristic,
    pentagon_side_lengths,
    psi5,
    sample_weight,
    singular_edges,
    validate_weight,
)
from polymod import complexes
from polymod.combinatorics import face_config, vertex_config

from records import replace

TWO_PI = 2.0 * math.pi

# every consecutive triple of the first three marks sums below pi, all
# others above; produces singular edges without violating the pair bound
SINGULAR_THETA = validate_weight((0.9, 0.9, 0.9, 1.2, 1.2, TWO_PI - 5.1))


# ===========================================================================
# pairing structure
# ===========================================================================

class TestPairings:
    @pytest.mark.parametrize(
        "n,cells,pairings", [(5, 12, 30), (6, 60, 180)]
    )
    def test_counts(self, n, cells, pairings):
        comp = build_complex(n)
        assert comp.num_cells == cells
        assert comp.num_pairings == pairings

    @pytest.mark.parametrize("n", [5, 6])
    def test_perfect_matching(self, n):
        """Every (cell, face) slot appears in exactly one pairing."""
        comp = build_complex(n)
        slots = []
        for p in comp.pairings:
            slots.append((p.cell_a, p.face_a))
            slots.append((p.cell_b, p.face_b))
        assert len(slots) == len(set(slots)) == comp.num_cells * n

    @pytest.mark.parametrize("n", [5, 6])
    def test_no_self_gluing(self, n):
        comp = build_complex(n)
        assert all(p.cell_a != p.cell_b for p in comp.pairings)

    @pytest.mark.parametrize("n", [5, 6])
    def test_glued_faces_share_their_config(self, n):
        """Both sides of each pairing collapse the same adjacent mark pair."""
        from polymod.combinatorics import face_config

        comp = build_complex(n)
        for p in comp.pairings:
            assert face_config(comp.cells[p.cell_a].word, p.face_a) == p.config
            assert face_config(comp.cells[p.cell_b].word, p.face_b) == p.config

    def test_pentagon_endpoint_configs_match(self):
        """Glued pentagon faces agree on both endpoint configurations."""
        comp = build_complex(5)

        def configs(ci, face):
            others = ((face + 1) % 5 + 1, (face + 2) % 5 + 1)
            return {
                vertex_config(comp.cells[ci].word, face, other)
                for other in others
            }

        for p in comp.pairings:
            assert configs(p.cell_a, p.face_a) == configs(p.cell_b, p.face_b)


# ===========================================================================
# pentagon orbit classes and Euler characteristic
# ===========================================================================

class TestPentagonClasses:
    def test_vertex_class_count_and_sizes(self):
        comp = build_complex(5)
        assert len(comp.vertex_classes) == 15
        assert all(len(group) == 4 for group in comp.vertex_classes)

    def test_classes_partition_all_vertices(self):
        comp = build_complex(5)
        seen = [node for group in comp.vertex_classes for node in group]
        assert len(seen) == len(set(seen)) == 12 * 5

    def test_euler_characteristic(self):
        comp = build_complex(5)
        assert euler_characteristic(comp) == -3

    def test_euler_rejects_hexahedra(self):
        with pytest.raises(OutOfRange):
            euler_characteristic(build_complex(6))


# ===========================================================================
# glued faces are isometric
# ===========================================================================

class TestGluedFaceIsometry:
    @pytest.mark.parametrize("seed", [11, 23])
    def test_side_lengths_agree_across_gluing(self, seed):
        theta = sample_weight(5, seed)
        comp = build_complex(5, theta)
        sides = {
            ci: pentagon_side_lengths(psi5(theta, comp.cells[ci].word))
            for ci in range(comp.num_cells)
        }
        for p in comp.pairings:
            len_a = sides[p.cell_a].by_facet(p.face_a)
            len_b = sides[p.cell_b].by_facet(p.face_b)
            assert len_a == pytest.approx(len_b, rel=1e-9, abs=1e-9)


# ===========================================================================
# cusp classes (equal-weight hexahedra)
# ===========================================================================

class TestCuspClasses:
    def test_equal_weight_classes(self):
        report = cusp_classes(build_complex(6))
        assert report["classes"] == 10
        assert report["total_incidences"] == 180
        assert all(row["incidences"] == 18 for row in report["table"])

    def test_classes_are_all_triple_partitions(self):
        """One class per partition of the marks into two triples."""
        from itertools import combinations

        report = cusp_classes(build_complex(6))
        want = []
        for triple in combinations(range(1, 7), 3):
            if 1 in triple:
                rest = sorted(set(range(1, 7)) - set(triple))
                want.append(sorted([sorted(triple), rest]))
        assert [row["partition"] for row in report["table"]] == sorted(want)

    def test_each_label_in_every_class_list_is_distinct(self):
        report = cusp_classes(build_complex(6))
        for row in report["table"]:
            assert len(row["labels"]) == len(set(row["labels"])) == 18

    def test_rejects_unequal_weights(self):
        comp = build_complex(6, SINGULAR_THETA)
        with pytest.raises(NotEqualWeight):
            cusp_classes(comp)


# ===========================================================================
# singular edges
# ===========================================================================

class TestSingularEdges:
    def test_equal_weight_has_none(self):
        report = singular_edges(build_complex(6))
        assert report["classes"] == 0
        assert report["table"] == []

    def test_small_triple_weights_make_thirty_classes(self):
        """Ten qualifying triples, three arrangements each, six members."""
        report = singular_edges(build_complex(6, SINGULAR_THETA))
        assert report["classes"] == 30
        assert all(row["members"] == 6 for row in report["table"])
        assert all(row["cone_angle"] > 0.0 for row in report["table"])

    def test_report_is_deterministic(self):
        first = singular_edges(build_complex(6, SINGULAR_THETA))
        second = singular_edges(build_complex(6, SINGULAR_THETA))
        assert first == second


# ===========================================================================
# planted gluing faults
# ===========================================================================

def swap_glued_sides(comp, i=0, j=7):
    """The complex with the second sides of pairings ``i`` and ``j`` exchanged."""
    pairings = list(comp.pairings)
    a, b = pairings[i], pairings[j]
    pairings[i] = replace(a, cell_b=b.cell_b, face_b=b.face_b)
    pairings[j] = replace(b, cell_b=a.cell_b, face_b=a.face_b)
    return replace(comp, pairings=tuple(pairings))


class TestGluingFaults:
    def test_vertex_without_a_match_across_its_face(self, monkeypatch):
        """Cell 12345's vertex {1, 3} wears the key of its vertex {2, 4}."""

        def planted(word, k, m):
            if tuple(word) == (1, 2, 3, 4, 5) and {k, m} == {1, 3}:
                return vertex_config(word, 2, 4)
            return vertex_config(word, k, m)

        monkeypatch.setattr(complexes, "vertex_config", planted)
        with pytest.raises(PairingFailure, match=re.escape("1(23)(45) on face 1 of cell 12345 ")):
            build_complex(5)

    def test_face_key_shared_by_three_slots(self, monkeypatch):
        """Face 1 of 12345 wears the key of its face 2."""

        def planted(word, k):
            if tuple(word) == (1, 2, 3, 4, 5) and k == 1:
                return face_config(word, 2)
            return face_config(word, k)

        monkeypatch.setattr(complexes, "face_config", planted)
        with pytest.raises(PairingFailure, match="matched 3 face slots"):
            build_complex(5)

    def test_cusp_without_a_match_across_its_face(self):
        message = (
            "[[1, 2, 6], [3, 4, 5]] on face 1 of cell 123456 "
            "has no match on face 2 of cell 132465"
        )
        with pytest.raises(PairingFailure, match=re.escape(message)):
            cusp_classes(swap_glued_sides(build_complex(6)))

    def test_singular_edge_without_a_match_across_its_face(self):
        message = "(126)345 on face 1 of cell 123456 has no match on face 2 of cell 132465"
        with pytest.raises(PairingFailure, match=re.escape(message)):
            singular_edges(swap_glued_sides(build_complex(6, SINGULAR_THETA)))


# ===========================================================================
# input validation
# ===========================================================================

class TestBuildValidation:
    def test_rejects_other_n(self):
        with pytest.raises(OutOfRange):
            build_complex(7)

    def test_default_weight_is_equal(self):
        comp = build_complex(5)
        assert comp.theta.theta == equal_weight(5).theta
