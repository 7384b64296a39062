"""Tests for edge frames, completion triangles, feet, and the shoelace oracle.

The feet are checked against independent closed-form sine-ratio oracles
derived from similar triangles; these formulas never appear in the package.
The shoelace helpers in ``shoelace`` are the area-form oracle of
``test_lorentz``; their own checks live here.
"""

import cmath
import math

import numpy as np
import numpy.testing as npt
import pytest

from polymod import (
    NoIntersection,
    complete_triangle,
    edge_frame,
    equal_weight,
    line_intersection,
    pentagon_feet,
    sample_weight,
    validate_weight,
)

from shoelace import chain_vertices, polygon_area, tangential_lengths

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

IDENT5 = (1, 2, 3, 4, 5)
IDENT6 = (1, 2, 3, 4, 5, 6)


def label_angles(theta, word):
    """theta re-ordered by the word (0-based entry j = angle at mark i_{j+1})."""
    return [theta[m - 1] for m in word]


def oracle_feet5(theta, word):
    """Sine-ratio oracle for the pentagon feet (f1, f2)."""
    t = label_angles(theta, word)
    p2 = math.sin(t[0] + t[1]) * math.sin(t[3]) / (math.sin(t[4]) * math.sin(t[2]))
    q2 = math.sin(t[2] + t[3]) * math.sin(t[0]) / (math.sin(t[4]) * math.sin(t[1]))
    return 1.0 - p2, q2


def oracle_feet6(theta, word):
    """Sine-ratio oracle for the hexahedron squared parameters (P^2, Q^2, R^2)."""
    t = label_angles(theta, word)
    p2 = math.sin(t[2] + t[3]) * math.sin(t[0]) / (math.sin(t[4] + t[5]) * math.sin(t[1]))
    q2 = math.sin(t[4] + t[5]) * math.sin(t[2]) / (math.sin(t[0] + t[1]) * math.sin(t[3]))
    r2 = math.sin(t[0] + t[1]) * math.sin(t[4]) / (math.sin(t[2] + t[3]) * math.sin(t[5]))
    return p2, q2, r2


def random_word(rng, n):
    return tuple(int(m) + 1 for m in rng.permutation(n))


# ===========================================================================
# edge frames
# ===========================================================================

class TestEdgeFrame:
    def test_base_edge_is_one(self):
        frame = edge_frame(equal_weight(5), IDENT5)
        assert frame.dirs[1] == pytest.approx(1.0)

    def test_unit_modulus(self):
        frame = edge_frame(sample_weight(6, 3), (2, 1, 4, 3, 5, 6))
        npt.assert_allclose(np.abs(frame.dirs), 1.0, atol=1e-15)

    def test_turning_angles_recover_theta(self):
        """arg(d_j / d_{j-1}) is the angle at mark i_j."""
        theta = sample_weight(5, 11)
        word = (3, 1, 5, 2, 4)
        frame = edge_frame(theta, word)
        for j in range(1, 5):
            turn = cmath.phase(frame.dirs[j] / frame.dirs[j - 1])
            assert turn == pytest.approx(theta[word[j] - 1], abs=1e-12)

    def test_equal_weight_dirs_are_roots_of_unity(self):
        frame = edge_frame(equal_weight(5), IDENT5)
        for j in range(5):
            expected = cmath.exp(2j * math.pi * (j - 1) / 5)
            assert frame.dirs[j] == pytest.approx(expected, abs=1e-14)


class TestTangentialPolygon:
    def test_chain_closes(self):
        """The circumscribed polygon's weighted edge directions sum to zero."""
        for n, seed in ((5, 0), (6, 1)):
            theta = sample_weight(n, seed)
            word = tuple(range(1, n + 1))
            frame = edge_frame(theta, word)
            lengths = tangential_lengths(theta, word)
            assert lengths.min() > 0.0
            closure = np.sum(lengths * frame.dirs)
            assert abs(closure) < 1e-12

    def test_positive_area(self):
        theta = sample_weight(6, 5)
        frame = edge_frame(theta, IDENT6)
        verts = chain_vertices(frame, tangential_lengths(theta, IDENT6))
        assert polygon_area(verts) > 0.0


# ===========================================================================
# areas
# ===========================================================================

class TestPolygonArea:
    def test_unit_square(self):
        assert polygon_area([0, 1, 1 + 1j, 1j]) == pytest.approx(1.0)

    def test_orientation_sign(self):
        assert polygon_area([0, 1j, 1 + 1j, 1]) == pytest.approx(-1.0)

    def test_real_coordinate_input(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert polygon_area(pts) == pytest.approx(0.5)

    def test_regular_pentagon(self):
        """Unit-side regular pentagon has area (5/4) cot(pi/5)."""
        frame = edge_frame(equal_weight(5), IDENT5)
        verts = chain_vertices(frame, np.ones(5))
        expected = 1.25 / math.tan(math.pi / 5.0)
        assert polygon_area(verts) == pytest.approx(expected, abs=1e-12)


class TestLineIntersection:
    def test_crossing(self):
        t, s, p = line_intersection(0.0, 1.0 + 0.0j, 1.0 - 1.0j, 1.0j)
        assert t == pytest.approx(1.0)
        assert s == pytest.approx(1.0)
        assert p == pytest.approx(1.0 + 0.0j)

    def test_parallel_raises(self):
        with pytest.raises(NoIntersection):
            line_intersection(0.0, 1.0 + 0.0j, 1.0j, 2.0 + 0.0j)


# ===========================================================================
# completion triangle and feet
# ===========================================================================

class TestCompletionTriangle:
    def test_base_is_unit_interval(self):
        for n in (5, 6):
            theta = sample_weight(n, 2)
            tri = complete_triangle(theta, tuple(range(1, n + 1)))
            assert tri.a == pytest.approx(0.0)
            assert tri.b == pytest.approx(1.0)
            assert tri.c.imag > 0.0

    def test_exterior_angles_sum_to_two_pi(self):
        theta = sample_weight(6, 9)
        tri = complete_triangle(theta, IDENT6)
        assert math.fsum(tri.ext_angles) == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_keeps_the_edge_frame_it_was_built_from(self):
        rng = np.random.default_rng(7)
        for n in (5, 6):
            for _ in range(10):
                theta, word = sample_weight(n, int(rng.integers(1000))), random_word(rng, n)
                tri = complete_triangle(theta, word)
                assert np.array_equal(tri.frame.dirs, edge_frame(theta, word).dirs)
                assert tri.frame.word == word

    def test_apex_matches_law_of_sines(self):
        """|c - a| = sin(beta)/sin(gamma) with the corner angles pi - ext."""
        theta = sample_weight(5, 4)
        tri = complete_triangle(theta, IDENT5)
        alpha, beta, gamma = (math.pi - e for e in tri.ext_angles)
        assert abs(tri.c) == pytest.approx(math.sin(beta) / math.sin(gamma), abs=1e-12)
        assert cmath.phase(tri.c) == pytest.approx(alpha, abs=1e-12)


class TestPentagonFeet:
    def test_matches_sine_oracle(self):
        """Feet agree with the independent similar-triangle formulas."""
        rng = np.random.default_rng(100)
        from polymod.combinatorics import sample_weight_rng

        for _ in range(50):
            theta = sample_weight_rng(5, rng)
            word = random_word(rng, 5)
            f1, f2 = pentagon_feet(theta, word)
            e1, e2 = oracle_feet5(theta, word)
            assert f1 == pytest.approx(e1, abs=1e-12)
            assert f2 == pytest.approx(e2, abs=1e-12)

    def test_ordering(self):
        """0 < f1 < f2 < 1 on random weight vectors."""
        for seed in range(30):
            f1, f2 = pentagon_feet(sample_weight(5, seed), IDENT5)
            assert 0.0 < f1 < f2 < 1.0

    def test_equal_weight_golden_feet(self):
        """At the equal weight the feet are (1 - 1/phi, 1/phi)."""
        f1, f2 = pentagon_feet(equal_weight(5), IDENT5)
        assert f1 == pytest.approx(1.0 - 1.0 / GOLDEN, abs=1e-12)
        assert f2 == pytest.approx(1.0 / GOLDEN, abs=1e-12)


class TestHexahedronFeet:
    def test_matches_sine_oracle(self):
        rng = np.random.default_rng(200)
        from polymod.combinatorics import sample_weight_rng

        for _ in range(50):
            theta = sample_weight_rng(6, rng)
            word = random_word(rng, 6)
            feet = complete_triangle(theta, word).feet
            oracle = oracle_feet6(theta, word)
            for got, want in zip(feet, oracle):
                assert got == pytest.approx(want, rel=1e-10, abs=1e-11)

    def test_equal_weight_feet_are_one(self):
        feet = complete_triangle(equal_weight(6), IDENT6).feet
        npt.assert_allclose(feet, 1.0, atol=1e-12)

    def test_pentagon_has_no_feet(self):
        tri = complete_triangle(equal_weight(5), IDENT5)
        assert tri.feet is None

    def test_feet_positive_on_samples(self):
        for seed in range(30):
            feet = complete_triangle(sample_weight(6, seed), IDENT6).feet
            assert min(feet) > 0.0
