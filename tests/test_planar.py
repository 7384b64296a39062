"""Tests for edge directions, completion triangles, feet, and the oracles.

The feet are checked against independent closed-form sine-ratio oracles
derived from similar triangles; these formulas never appear in the package.
The stacked triangles are checked against the scalar route in
``planar_oracle``, bit for bit.  The shoelace helpers in ``shoelace`` are
the area-form oracle of ``test_lorentz``; their own checks, and those of
the scalar line intersection, live here.
"""

import cmath
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymod import (
    NoIntersection,
    PolymodError,
    WeightVector,
    complete_triangle,
    equal_weight,
    pentagon_feet,
)
from polymod.errors import unwrap
from polymod.moduli import planar_params
from polymod import planar

import planar_oracle as oracle
from weights import angle_array, sample_weight
from lorentz_oracle import boundary_weights
from planar_oracle import edge_frame, line_intersection
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


def edge_dirs(theta, word):
    """The triangle's unit edge directions, base edge rotated to +1."""
    return complete_triangle(theta, word).dirs[0]


def hexahedron_feet(theta, word):
    """The three signed feet of a hexahedron's completion triangle."""
    feet, errors = complete_triangle(theta, word).feet()
    unwrap(errors[0])
    return tuple(feet[0].tolist())


# ===========================================================================
# edge directions
# ===========================================================================

class TestEdgeFrame:
    def test_base_edge_is_one(self):
        dirs = edge_dirs(equal_weight(5), IDENT5)
        assert dirs[1] == pytest.approx(1.0)

    def test_unit_modulus(self):
        dirs = edge_dirs(sample_weight(6, 3), (2, 1, 4, 3, 5, 6))
        npt.assert_allclose(np.abs(dirs), 1.0, atol=1e-15)

    def test_turning_angles_recover_theta(self):
        """arg(d_j / d_{j-1}) is the angle at mark i_j."""
        theta = sample_weight(5, 11)
        word = (3, 1, 5, 2, 4)
        dirs = edge_dirs(theta, word)
        for j in range(1, 5):
            turn = cmath.phase(dirs[j] / dirs[j - 1])
            assert turn == pytest.approx(theta[word[j] - 1], abs=1e-12)

    def test_equal_weight_dirs_are_roots_of_unity(self):
        dirs = edge_dirs(equal_weight(5), IDENT5)
        for j in range(5):
            expected = cmath.exp(2j * math.pi * (j - 1) / 5)
            assert dirs[j] == pytest.approx(expected, abs=1e-14)


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
        """The apex c lies in the upper half-plane on the line from b = 1
        along edge 4 and on the line from a = 0 along edge n."""
        for n in (5, 6):
            theta = sample_weight(n, 2)
            tri = complete_triangle(theta, tuple(range(1, n + 1)))
            c, dirs = complex(tri.apex[0]), tri.dirs[0].tolist()
            assert abs(((c - 1.0).conjugate() * dirs[3]).imag) < 1e-12
            assert abs((c.conjugate() * dirs[n - 1]).imag) < 1e-12
            assert c.imag > 0.0

    def test_exterior_angles_sum_to_two_pi(self):
        theta = sample_weight(6, 9)
        tri = complete_triangle(theta, IDENT6)
        assert math.fsum(tri.ext[0]) == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_keeps_the_edge_frame_it_was_built_from(self):
        """The triangle keeps its angles in word order and the scalar edge
        frame's directions."""
        rng = np.random.default_rng(7)
        for n in (5, 6):
            for _ in range(10):
                theta, word = sample_weight(n, int(rng.integers(1000))), random_word(rng, n)
                tri = complete_triangle(theta, word)
                assert np.array_equal(tri.dirs[0], edge_frame(theta, word).dirs)
                assert tri.angles[0].tolist() == [theta[m - 1] for m in word]

    def test_apex_matches_law_of_sines(self):
        """|c - a| = sin(beta)/sin(gamma) with the corner angles pi - ext."""
        theta = sample_weight(5, 4)
        tri = complete_triangle(theta, IDENT5)
        alpha, beta, gamma = (math.pi - e for e in tri.ext[0].tolist())
        assert abs(tri.apex[0]) == pytest.approx(math.sin(beta) / math.sin(gamma), abs=1e-12)
        assert cmath.phase(tri.apex[0]) == pytest.approx(alpha, abs=1e-12)


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
            feet = hexahedron_feet(theta, word)
            oracle = oracle_feet6(theta, word)
            for got, want in zip(feet, oracle):
                assert got == pytest.approx(want, rel=1e-10, abs=1e-11)

    def test_equal_weight_feet_are_one(self):
        feet = hexahedron_feet(equal_weight(6), IDENT6)
        npt.assert_allclose(feet, 1.0, atol=1e-12)

    def test_pentagon_has_no_feet(self):
        """No three hexahedron feet: a pentagon's triangle gives the two
        base feet of pentagon_feet."""
        feet, errors = complete_triangle(equal_weight(5), IDENT5).feet()
        assert feet.shape == (1, 2) and errors == [None]
        assert tuple(feet[0].tolist()) == pentagon_feet(equal_weight(5), IDENT5)

    def test_feet_positive_on_samples(self):
        for seed in range(30):
            feet = hexahedron_feet(sample_weight(6, seed), IDENT6)
            assert min(feet) > 0.0


# ===========================================================================
# the stacked triangles against the scalar oracle
# ===========================================================================

def settled(value):
    """A comparable form of a shape, a triangle, feet or a failure."""
    if isinstance(value, PolymodError):
        return type(value).__name__, str(value)
    if isinstance(value, planar.Triangles):
        assert value.errors == [None]  # a failed row raises
        feet = None
        if value.n == 6:  # the scalar triangle carried a hexahedron's feet, or their failure
            rows, errors = value.feet()
            if errors[0] is not None:
                return settled(errors[0])
            feet = tuple(rows[0].tolist())
        return "ok", complex(value.apex[0]), tuple(value.ext[0].tolist()), feet, value.dirs[0].tobytes()
    if isinstance(value, oracle.TriangleCompletion):
        return "ok", value.c, value.ext_angles, value.feet, value.frame.dirs.tobytes()
    return "ok", getattr(value, "params", value)


def outcome(fn, *args):
    try:
        return settled(fn(*args))
    except PolymodError as exc:
        return settled(exc)


def planar_rows(tri):
    """Each row's planar shape parameters as a tuple, or its failure."""
    params, errors = planar_params(tri)
    return [tuple(row) if e is None else e for row, e in zip(params.tolist(), errors)]


def triangles(thetas, words):
    """One stacked completion-triangle call for the rows."""
    return planar.complete_triangles(planar.label_angles(angle_array(thetas), words))


def assert_rows_match_oracle(thetas, words):
    """Every row of one stacked call, and each row alone through the
    one-row entry points, equals the scalar route bit for bit: the same
    shape, triangle, feet and directions, or the same failure class and
    message."""
    n = thetas[0].n
    tri = triangles(thetas, words)
    shapes = planar_rows(tri)
    for i, (theta, word) in enumerate(zip(thetas, words)):
        want = outcome(oracle.planar_shape, theta, word)
        assert settled(shapes[i]) == want
        assert tri.dirs[i].tobytes() == edge_frame(theta, word).dirs.tobytes()
        want_tri = outcome(oracle.complete_triangle, theta, word)
        assert outcome(complete_triangle, theta, word) == want_tri
        if want_tri[0] == "ok":
            assert tri.apex[i] == want_tri[1]
        if n == 5:
            assert outcome(pentagon_feet, theta, word) == outcome(oracle.pentagon_feet, theta, word)


class TestStackedTriangles:
    @given(
        n=st.sampled_from((5, 6)),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_scalar_oracle(self, n, seed, rows):
        """Generic and near-boundary rows, each with its own random word."""
        rng = np.random.default_rng(seed)
        thetas = boundary_weights(n, rng, rows)
        assert_rows_match_oracle(thetas, [random_word(rng, n) for _ in thetas])

    @pytest.mark.parametrize("n", [5, 6])
    def test_a_mixed_stack_fails_each_row_alone(self, n):
        """One stack holds a row failing each planar gate between intact
        rows; every row, failing or not, comes out as it does alone."""
        rest = 2.0 * math.pi - 4.0
        gated = [  # hand-built: they bypass validate_weight
            ("DegenerateTriangle", "exterior angle at a is 3.", (
                1.0354648741007701, 2.351391088977806, -0.0675211618410988,
                2.3459483414117317, 0.6179021645303777,
            ) if n == 5 else (
                2.2, 1.2, 0.9, 0.7, 0.8, 2.0 * math.pi - 5.8,
            )),
            ("DegenerateTriangle", "at a is nan", (math.nan,) + (1.0,) * (n - 1)),
            # a zero angle at mark i2 turns edge 1 parallel to the base
            ("NoIntersection", "lines are parallel", (
                (1.2, 0.0, 1.5, 1.3, rest) if n == 5 else (1.2, 0.0, 1.5, 1.3, 0.5, rest - 0.5)
            )),
            ("FootOutsideBase", "violate 0 < f1 < f2 < 1", (
                2.251893114372708, -0.3812213700073914, 1.085767789780065,
                0.8780076486562112, 2.4487381243779933,
            )) if n == 5 else
            ("NegativeRatio", "squared parameter R^2 = -", (
                2.4749052299874, 0.5060669710714691, 2.1049419263738574,
                0.9015162472950182, 1.5794358216332216, -1.2836808891813796,
            )),
        ]
        good = [sample_weight(n, seed) for seed in range(len(gated) + 1)]
        thetas = [good[0]]
        for k, (_, _, angles) in enumerate(gated):
            thetas += [WeightVector(n, angles), good[k + 1]]
        words = [tuple(range(1, n + 1))] * len(thetas)
        assert_rows_match_oracle(thetas, words)
        shapes = planar_rows(triangles(thetas, words))
        for k, (cls, fragment, _) in enumerate(gated):
            bad = shapes[2 * k + 1]
            assert type(bad).__name__ == cls and fragment in str(bad)
        assert not any(isinstance(shapes[i], PolymodError) for i in range(0, len(thetas), 2))
