"""Tests for the forward shape maps, classification, and pentagon geometry."""

import math
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymod import (
    HexahedronShape,
    OutOfRange,
    PentagonShape,
    classify_hexahedron,
    equal_weight,
    klein_distance,
    pentagon_side_lengths,
    psi5,
    psi6,
    sample_weight,
    triple_sums,
    validate_weight,
)
from polymod import forward_shapes, lorentz, moduli, planar
from polymod.combinatorics import sample_weight_rng
from polymod.errors import unwrap
from polymod.moduli import planar_params

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

IDENT5 = (1, 2, 3, 4, 5)
IDENT6 = (1, 2, 3, 4, 5, 6)


def planar_shape(theta, word):
    """The planar route alone, on one row: its shape, or its failure raised."""
    params, errors = planar_params(
        planar.complete_triangles(planar.label_angles([theta], [word])[1])
    )
    unwrap(errors[0])
    return (PentagonShape if theta.n == 5 else HexahedronShape)(*params[0].tolist())


def failure(error):
    """None, or the class and message of a failure."""
    return None if error is None else (type(error).__name__, str(error))


def coth(x):
    return math.cosh(x) / math.sinh(x)


def shape_strategy():
    """Pentagon shapes (P, Q) inside the admissible region."""
    coord = st.floats(min_value=0.1, max_value=0.99)
    return (
        st.tuples(coord, coord)
        .filter(lambda pq: pq[0] ** 2 + pq[1] ** 2 > 1.0 + 1e-6)
        .map(lambda pq: PentagonShape(*pq))
    )


# ===========================================================================
# forward maps
# ===========================================================================

class TestPlanarShape:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([5, 6]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_psi_returns_the_planar_shape_bit_for_bit(self, n, seed, data):
        theta = sample_weight_rng(n, np.random.default_rng(seed))
        word = tuple(data.draw(st.permutations(range(1, n + 1))))
        psi = psi5 if n == 5 else psi6
        assert psi(theta, word).params == planar_shape(theta, word).params

    @pytest.mark.parametrize("n", [5, 6])
    def test_forward_shapes_makes_one_planar_call(self, n, monkeypatch):
        """The planar route and the Lorentz kernel read one stacked
        completion-triangle call, and the planar route runs once, for every
        row of the call."""
        calls = []

        def counted(name, original):
            def wrapper(stack):
                calls.append((name, len(getattr(stack, "dirs", stack))))
                return original(stack)

            return wrapper

        wrapped = counted("complete_triangles", planar.complete_triangles)
        for module in (planar, lorentz):
            monkeypatch.setattr(module, "complete_triangles", wrapped)
        monkeypatch.setattr(moduli, "planar_params", counted("planar_params", moduli.planar_params))
        rng = np.random.default_rng(n)
        thetas = [sample_weight_rng(n, rng) for _ in range(10)]
        words = [tuple(int(m) + 1 for m in rng.permutation(n)) for _ in thetas]
        forward_shapes(n, thetas, words)
        assert calls == [("complete_triangles", 10), ("planar_params", 10)]

    def test_wrong_n_raises(self):
        with pytest.raises(OutOfRange):
            psi5(equal_weight(6), IDENT6)
        with pytest.raises(OutOfRange):
            psi6(equal_weight(5), IDENT5)
        with pytest.raises(OutOfRange):
            psi5(equal_weight(6))


class TestGateDecisions:
    """The stacked gates square with the scalar rules' own ``x**2``, so they
    decide every row as ``_pentagon_error`` and ``_disagreement`` do.  The
    values sit on a gate where ``x * x`` and ``x**2`` (libm ``pow``) round
    differently on glibc, so the old ``x * x`` columns decided them the
    other way."""

    #: (P, Q) next to P^2 + Q^2 = 1.
    PENTAGON = [
        (0.5761719009414266, 0.8173285389398458),
        (0.918166850650951, 0.3961939352964836),
        (0.7480177336254095, 0.6636787401912962),
    ]
    #: (planar, Lorentzian) values whose scaled residual is next to ROUTE_TOL.
    ROUTE = [
        (1789425203.0152006, -1412617354.1707916),
        (1349541785.02582, -471721244.5048567),
        (1213806860.6342077, -259520234.28846347),
    ]

    def test_pentagon_gate_decides_as_the_scalar_rule(self):
        P, Q = np.array(self.PENTAGON).T
        feet = np.stack([1.0 - P * P, Q * Q], axis=1)  # square roots give P, Q back
        triangles = SimpleNamespace(n=5, feet=lambda: (feet, [None] * len(feet)))
        params, errors = planar_params(triangles)
        assert params.tolist() == [list(pq) for pq in self.PENTAGON]
        for (p, q), error in zip(self.PENTAGON, errors):
            assert failure(error) == failure(moduli._pentagon_error(p, q))

    def test_route_gate_decides_as_the_scalar_rule(self):
        planar_values = np.array([[a, 1.0, 1.0] for a, _ in self.ROUTE])
        lorentz_values = np.array([[b, 1.0, 1.0] for _, b in self.ROUTE])
        rows = len(self.ROUTE)
        stack = SimpleNamespace(
            model_errors=[None] * rows, intercept_errors=[None] * rows, intercepts=lorentz_values
        )
        errors = moduli._cross_check(6, stack, planar_values, [None] * rows)
        for (a, b), error in zip(self.ROUTE, errors):
            assert failure(error) == failure(moduli._disagreement(6, (a, 1.0, 1.0), (b, 1.0, 1.0)))
        assert {error is None for error in errors} == {True, False}


class TestPsi5:
    def test_equal_weight_golden(self):
        """At the equal weight both parameters equal tanh(arccosh(phi))."""
        want = math.tanh(math.acosh(GOLDEN))
        shape = psi5(equal_weight(5))
        assert shape.P == pytest.approx(want, abs=1e-12)
        assert shape.Q == pytest.approx(want, abs=1e-12)

    def test_values_in_admissible_region(self):
        """Both parameters in (0,1) with P^2 + Q^2 > 1 (shape validation)."""
        rng = np.random.default_rng(0)
        for _ in range(40):
            theta = sample_weight_rng(5, rng)
            word = tuple(int(m) + 1 for m in rng.permutation(5))
            shape = psi5(theta, word)  # PentagonShape validates on build
            assert 0.0 < shape.P < 1.0 and 0.0 < shape.Q < 1.0

    def test_cross_check_accepts_all_words(self):
        """The planar and Lorentzian routes agree on every representative
        (psi5 raises RouteDisagreement otherwise)."""
        theta = sample_weight(5, 33)
        words = [(1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (3, 1, 5, 2, 4)]
        for word in words:
            psi5(theta, word)


class TestPsi6:
    def test_equal_weight_all_ones(self):
        shape = psi6(equal_weight(6))
        npt.assert_allclose(shape.params, 1.0, atol=1e-9)
        assert shape.ideal_flags == (True, True, True)

    def test_sign_rule(self):
        """sgn(param - 1) equals sgn(triple sum - pi) on random samples."""
        rng = np.random.default_rng(77)
        for _ in range(60):
            theta = sample_weight_rng(6, rng)
            word = tuple(int(m) + 1 for m in rng.permutation(6))
            shape = psi6(theta, word)
            for param, total in zip(shape.params, triple_sums(theta, word)):
                if abs(total - math.pi) > 1e-9:
                    assert (param > 1.0) == (total > math.pi)

    def test_zero_band_at_equal_weight(self):
        """Triple sums exactly pi force parameters within 1e-6 of 1."""
        shape = psi6(equal_weight(6))
        for param in shape.params:
            assert abs(param - 1.0) < 1e-6


# ===========================================================================
# hexahedron classification
# ===========================================================================

class TestClassifyHexahedron:
    def test_mixed_example(self):
        """(1.2, 0.9, 0.9): faces 2,3 pentagons; 1,4 quadrilaterals; 5,6 triangles."""
        report = classify_hexahedron(HexahedronShape(1.2, 0.9, 0.9))
        assert report["type"] == "b"
        assert report["signs"] == [1, -1, -1]
        assert report["faces"] == {
            "1": "quadrilateral",
            "2": "pentagon",
            "3": "pentagon",
            "4": "quadrilateral",
            "5": "triangle",
            "6": "triangle",
        }

    def test_type_letter_counts_parameters_above_one(self):
        assert classify_hexahedron(HexahedronShape(0.9, 0.8, 0.7))["type"] == "a"
        assert classify_hexahedron(HexahedronShape(1.1, 0.8, 0.7))["type"] == "b"
        assert classify_hexahedron(HexahedronShape(1.1, 1.2, 0.7))["type"] == "c"
        assert classify_hexahedron(HexahedronShape(1.1, 1.2, 1.3))["type"] == "d"

    def test_all_ideal(self):
        report = classify_hexahedron(HexahedronShape(1.0, 1.0, 1.0))
        assert report["signs"] == [0, 0, 0]
        assert report["ideal"] == [True, True, True]
        assert set(report["faces"].values()) == {"triangle"}

    def test_folded_parameters_at_most_one(self):
        report = classify_hexahedron(HexahedronShape(1.25, 0.5, 2.0))
        assert report["p"] == pytest.approx(0.8)
        assert report["q"] == pytest.approx(0.5)
        assert report["r"] == pytest.approx(0.5)

    def test_face_side_counts_consistent(self):
        """Across many shapes: 6 faces; side count changes track the edges."""
        rng = np.random.default_rng(4)
        sides = {"triangle": 3, "quadrilateral": 4, "pentagon": 5}
        for _ in range(25):
            vals = np.exp(rng.normal(scale=0.3, size=3))
            report = classify_hexahedron(HexahedronShape(*vals))
            total = sum(sides[f] for f in report["faces"].values())
            # each of the 3 edges present adds 2 to the total side count
            assert total == 18 + 2 * len(report["adjacent_edges"])


# ===========================================================================
# shape validation
# ===========================================================================

class TestShapeValidation:
    def test_pentagon_range(self):
        with pytest.raises(OutOfRange):
            PentagonShape(1.1, 0.5)
        with pytest.raises(OutOfRange):
            PentagonShape(0.5, -0.2)

    def test_pentagon_admissibility(self):
        with pytest.raises(OutOfRange):
            PentagonShape(0.5, 0.5)  # P^2 + Q^2 = 0.5 <= 1

    def test_hexahedron_positivity(self):
        with pytest.raises(OutOfRange):
            HexahedronShape(1.0, 0.0, 1.0)
        with pytest.raises(OutOfRange):
            HexahedronShape(-1.0, 1.0, 1.0)


# ===========================================================================
# pentagon side lengths
# ===========================================================================

class TestPentagonSides:
    def test_equal_weight_sides_golden(self):
        """The regular right pentagon's sides all equal arccosh(phi)."""
        sides = pentagon_side_lengths(psi5(equal_weight(5)))
        npt.assert_allclose(sides.lengths, math.acosh(GOLDEN), atol=1e-12)

    def test_axis_sides(self):
        shape = PentagonShape(0.9, 0.7)
        sides = pentagon_side_lengths(shape)
        assert sides.by_facet(1) == pytest.approx(math.atanh(0.9), abs=1e-12)
        assert sides.by_facet(3) == pytest.approx(math.atanh(0.7), abs=1e-12)

    @given(shape_strategy())
    @settings(max_examples=60, deadline=None)
    def test_right_pentagon_identities(self, shape):
        """cosh l_k = coth l_{k-1} coth l_{k+1} = sinh l_{k-2} sinh l_{k+2}."""
        ell = pentagon_side_lengths(shape).lengths
        for k in range(5):
            lhs = math.cosh(ell[k])
            assert lhs == pytest.approx(
                coth(ell[k - 1]) * coth(ell[(k + 1) % 5]), rel=1e-9
            )
            assert lhs == pytest.approx(
                math.sinh(ell[k - 2]) * math.sinh(ell[(k + 2) % 5]), rel=1e-9
            )

    def test_forward_map_shapes_satisfy_identities(self):
        """Shapes coming from actual weight vectors are right pentagons too."""
        theta = sample_weight(5, 90)
        ell = pentagon_side_lengths(psi5(theta)).lengths
        for k in range(5):
            assert math.cosh(ell[k]) == pytest.approx(
                math.sinh(ell[k - 2]) * math.sinh(ell[(k + 2) % 5]), rel=1e-9
            )


class TestKleinDistance:
    def test_zero_and_symmetry(self):
        p, q = (0.1, 0.2), (-0.3, 0.4)
        assert klein_distance(p, p) == 0.0
        assert klein_distance(p, q) == pytest.approx(klein_distance(q, p))

    def test_from_origin_is_arctanh(self):
        assert klein_distance((0.0, 0.0), (0.6, 0.0)) == pytest.approx(
            math.atanh(0.6), abs=1e-12
        )

    def test_outside_ball_rejected(self):
        with pytest.raises(OutOfRange):
            klein_distance((1.2, 0.0), (0.0, 0.0))


class TestTripleSums:
    def test_identity_label_sums(self):
        theta = sample_weight(6, 13)
        t = list(theta)
        got = triple_sums(theta, IDENT6)
        assert got[0] == pytest.approx(t[4] + t[5] + t[0])
        assert got[1] == pytest.approx(t[0] + t[1] + t[2])
        assert got[2] == pytest.approx(t[2] + t[3] + t[4])

    def test_total_is_sum_plus_overlaps(self):
        """The three windows cover marks 1..6 plus marks i1, i3, i5 again."""
        theta = sample_weight(6, 14)
        word = (3, 1, 5, 2, 6, 4)
        extra = theta[word[0] - 1] + theta[word[2] - 1] + theta[word[4] - 1]
        assert math.fsum(triple_sums(theta, word)) == pytest.approx(
            2.0 * math.pi + extra
        )

    def test_wrong_size_rejected(self):
        with pytest.raises(OutOfRange):
            triple_sums(sample_weight(5, 0), IDENT5)
