"""Tests for the forward shape maps, classification, and pentagon geometry."""

import math
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polymod import (
    HexahedronShape,
    OutOfRange,
    PentagonShape,
    classify_hexahedron,
    equal_weight,
    fiber_theta5,
    fiber_theta6,
    inversion_report,
    pentagon_side_lengths,
    psi5,
    psi6,
)
from polymod import lorentz, moduli, planar
from polymod.lorentz import build_models, dihedral_angles
from polymod.combinatorics import sample_weight_rng, validate_weights
from polymod.errors import unwrap
from polymod.moduli import forward_params, planar_params

import klein_oracle
from klein_oracle import klein_distance
from lorentz_oracle import route_disagreement
from weights import angle_array, sample_weight, triple_sums

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

IDENT5 = (1, 2, 3, 4, 5)
IDENT6 = (1, 2, 3, 4, 5, 6)


def planar_shape(theta, word):
    """The planar route alone, on one row: its shape, or its failure raised."""
    params, errors = planar_params(
        planar.complete_triangles(planar.label_angles(angle_array([theta]), [word]))
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
    def test_forward_params_makes_one_planar_call(self, n, monkeypatch):
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
        forward_params(n, angle_array(thetas), words)
        assert calls == [("complete_triangles", 10), ("planar_params", 10)]

    def test_wrong_n_raises(self):
        with pytest.raises(OutOfRange):
            psi5(equal_weight(6), IDENT6)
        with pytest.raises(OutOfRange):
            psi6(equal_weight(5), IDENT5)
        with pytest.raises(OutOfRange):
            psi5(equal_weight(6))
        # a one-row fiber call reads n - 3 parameters from each shape: it
        # neither drops R nor indexes past Q
        pentagon, hexahedron = PentagonShape(0.9, 0.6), HexahedronShape(0.9, 0.6, 123.0)
        with pytest.raises(OutOfRange, match="parameters"):
            inversion_report(6, pentagon, pentagon)
        with pytest.raises(OutOfRange, match="parameters"):
            inversion_report(5, hexahedron, hexahedron)
        with pytest.raises(OutOfRange, match="parameters"):
            fiber_theta6(pentagon, 0.5 + 1j)
        with pytest.raises(OutOfRange, match="parameters"):
            fiber_theta5(hexahedron, 0.5 + 1j)


@st.composite
def relabel_case(draw, n):
    """1 to 6 validated weight vectors with random words, some pushed to
    the pair-sum boundary (their two largest angles summing to pi - eps),
    where the forward map fails on some rows; and a renaming sigma of the
    marks, as a tuple: mark m becomes sigma[m - 1]."""
    raw = []
    for _ in range(draw(st.integers(1, 6))):
        theta = np.array(sample_weight_rng(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))).theta)
        eps = draw(st.sampled_from([None, 1e-4, 1e-6, 1e-7, 1e-8]))
        if eps is not None:
            top = np.argsort(theta)[-2:]
            rest = np.ones(n, bool)
            rest[top] = False
            theta[top] *= (math.pi - eps) / theta[top].sum()
            theta[rest] *= (math.pi + eps) / theta[rest].sum()
        raw.append(theta)
    theta, errors = validate_weights(np.array(raw))
    ok = [i for i, e in enumerate(errors) if e is None]
    assume(ok)
    words = [tuple(draw(st.permutations(range(1, n + 1)))) for _ in ok]
    return theta[ok], words, tuple(draw(st.permutations(range(1, n + 1))))


class TestRelabeling:
    """The paper's map is defined on configurations of marked points, so
    renaming the marks, with the word renamed to match, reads the same
    polygon: the same angles in the same order around it."""

    @pytest.mark.parametrize("n", [5, 6])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_renaming_the_marks_keeps_every_bit(self, n, data):
        theta, words, sigma = data.draw(relabel_case(n))
        renamed = np.empty_like(theta)
        renamed[:, np.array(sigma) - 1] = theta
        renamed_words = [tuple(sigma[m - 1] for m in word) for word in words]
        params, errors = forward_params(n, theta, words)
        renamed_params, renamed_errors = forward_params(n, renamed, renamed_words)
        assert renamed_params.tobytes() == params.tobytes()
        described = [None if e is None else (type(e).__name__, str(e)) for e in errors]
        assert [None if e is None else (type(e).__name__, str(e)) for e in renamed_errors] == described


#: Tolerance of the relabeling identities on :func:`interior_rows`: relative
#: for pentagon sides and hexahedron parameters, in radians for dihedral
#: angles.  Over 32,000 such rows per n the worst was 4.6e-13 (n=5 sides),
#: 1.9e-12 (n=6 parameters) and 1.9e-13 (n=6 angles): a margin of 50 or more.
RELABEL_TOL = 1e-10

#: Facet k of the word rotated by one is facet k + 1 of the word; of the
#: reversed word, facet n - k, facet n fixed (index 0 unused).
ROTATE6, REVERSE6 = [0, 2, 3, 4, 5, 6, 1], [0, 5, 4, 3, 2, 1, 6]
FACET_PAIRS6 = [(j, k) for j in range(1, 7) for k in range(j + 1, 7)]


@st.composite
def interior_rows(draw, n):
    """Eight sampled weight vectors whose largest pair sum is at most
    pi - 1e-2, and a random word.  Nearer the boundary the forward map's
    own error grows: the worst of 50,000 n=5 rows was 1.1e-10, at a margin
    of 9.4e-6, and of 32,000 with a margin of at least 1e-3, 1.2e-11."""
    rng, rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))), []
    while len(rows) < 8:
        theta = sample_weight_rng(n, rng)
        if sum(sorted(theta)[-2:]) <= math.pi - 1e-2:
            rows.append(theta)
    return angle_array(rows), tuple(draw(st.permutations(range(1, n + 1))))


def rotated(word, k=1):
    return word[k:] + word[:k]


def forward(n, theta, word):
    """The word's parameters of every row, and which rows mapped."""
    params, errors = forward_params(n, theta, [word] * len(theta))
    return params, [e is None for e in errors]


def sides_by_facet(theta, word):
    """Per row, the pentagon's sides a_1..a_5 on facets 1..5 (NaN where the
    forward map fails), the parameters, and which rows mapped."""
    params, mapped = forward(5, theta, word)
    sides = np.full((len(theta), 5), np.nan)
    for i in np.flatnonzero(mapped):
        found = pentagon_side_lengths(PentagonShape(*params[i].tolist()))
        sides[i, np.array(found.facet_order) - 1] = found.lengths
    return sides, params, mapped


def dihedral_table(theta, word):
    """Per row, the dihedral angles of the word's hexahedron by 1-based facet
    pair, NaN where the pair or the model fails."""
    rows, models = len(theta), build_models(theta, [word] * len(theta))
    entries = np.arange(rows).repeat(len(FACET_PAIRS6)), FACET_PAIRS6 * rows
    angles, errors = dihedral_angles(models.gram, models.facet_mat, models.model_errors, *entries)
    table, (j, k) = np.full((rows, 7, 7), np.nan), np.array(entries[1]).T
    met = np.array([e is None for e in errors])
    table[entries[0][met], j[met], k[met]] = table[entries[0][met], k[met], j[met]] = angles[met]
    return table


class TestDihedralRelabeling:
    """Rotating or reversing the word reads the same polyhedron with its
    facets renumbered, so each intrinsic quantity moves with its facets."""

    @settings(max_examples=30, deadline=None)
    @given(case=interior_rows(5))
    def test_rotating_the_pentagon_word_reads_the_next_sides(self, case):
        """Word 12345 -> 23451: side k is side k + 1 of the word, and so
        (P', Q') = (tanh a_2, tanh a_4)."""
        theta, word = case
        sides, _, mapped = sides_by_facet(theta, word)
        turned, params, turned_mapped = sides_by_facet(theta, rotated(word))
        assert turned_mapped == mapped
        npt.assert_allclose(params[mapped], np.tanh(sides[mapped][:, [1, 3]]), rtol=RELABEL_TOL)
        npt.assert_allclose(turned, sides[:, [1, 2, 3, 4, 0]], rtol=RELABEL_TOL)

    @settings(max_examples=30, deadline=None)
    @given(case=interior_rows(5))
    def test_reversing_the_pentagon_word_reverses_the_sides(self, case):
        """Side k of the reversed word is side 5 - k, side 5 fixed."""
        theta, word = case
        sides, _, mapped = sides_by_facet(theta, word)
        back, _, back_mapped = sides_by_facet(theta, word[::-1])
        assert back_mapped == mapped
        npt.assert_allclose(back, sides[:, [3, 2, 1, 0, 4]], rtol=RELABEL_TOL)

    @settings(max_examples=30, deadline=None)
    @given(case=interior_rows(6))
    def test_rotation_and_reversal_permute_the_hexahedron_angles(self, case):
        """The angle matrix moves by k -> k + 1 (rotation) and k -> 6 - k,
        facet 6 fixed (reversal); the same pairs fail."""
        theta, word = case
        table = dihedral_table(theta, word)
        for moved, facets in ((rotated(word), ROTATE6), (word[::-1], REVERSE6)):
            npt.assert_allclose(dihedral_table(theta, moved), table[:, facets][:, :, facets],
                                rtol=0, atol=RELABEL_TOL)

    @settings(max_examples=30, deadline=None)
    @given(case=interior_rows(6))
    def test_rotation_by_two_cycles_the_parameters_and_reversal_inverts_them(self, case):
        """The dihedral angles never read the completion triangle's apex;
        the parameters do: rotating the word by two gives (Q, R, P), and
        reversing it (1/R, 1/Q, 1/P)."""
        theta, word = case
        params, mapped = forward(6, theta, word)
        turned, turned_mapped = forward(6, theta, rotated(word, 2))
        back, back_mapped = forward(6, theta, word[::-1])
        assert turned_mapped == back_mapped == mapped
        npt.assert_allclose(turned[mapped], params[mapped][:, [1, 2, 0]], rtol=RELABEL_TOL)
        npt.assert_allclose(back[mapped], 1.0 / params[mapped][:, [2, 1, 0]], rtol=RELABEL_TOL)


class TestGateDecisions:
    """The stacked gates square with the scalar rules' own ``x**2``, so they
    decide every row as ``_pentagon_error`` and the oracle's scalar route
    rule do.  The values sit on a gate where ``x * x`` and ``x**2`` (libm
    ``pow``) round differently on glibc, so the old ``x * x`` columns
    decided them the other way."""

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
        stack = SimpleNamespace(model_errors=[None] * rows, intercepts=lorentz_values)
        errors = moduli._cross_check(6, stack, planar_values, [None] * rows)
        for (a, b), error in zip(self.ROUTE, errors):
            assert failure(error) == failure(route_disagreement(6, (a, 1.0, 1.0), (b, 1.0, 1.0)))
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
        assert sides.facet_order[:2] == (1, 3)
        assert sides.lengths[0] == pytest.approx(math.atanh(0.9), abs=1e-12)
        assert sides.lengths[1] == pytest.approx(math.atanh(0.7), abs=1e-12)

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


    @given(shape_strategy())
    @settings(max_examples=200, deadline=None)
    def test_the_closed_form_is_the_klein_route(self, shape):
        """Away from the boundary P^2 + Q^2 = 1 the closed form and the
        distances between the Klein-disk vertices agree."""
        assume(shape.P**2 + shape.Q**2 - 1.0 >= 1e-3)
        npt.assert_allclose(
            pentagon_side_lengths(shape).lengths,
            klein_oracle.pentagon_side_lengths(shape.P, shape.Q),
            rtol=1e-9,
        )

    @pytest.mark.parametrize("decade", range(-15, 0))
    def test_the_closed_form_is_exact_to_the_error_of_d(self, decade):
        """Against 50-digit arithmetic on the same float (P, Q), each side's
        relative error stays within 1e-12 + 4u/d, d = P^2 + Q^2 - 1, up to
        d = 1e-15, where the Klein route's grows past 1."""
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 50
        u = 2.0**-53
        rng = np.random.default_rng(100 - decade)
        checked = 0
        for target in 10.0 ** rng.uniform(decade, decade + 1, 80):
            P = rng.uniform(math.sqrt(0.5 * (1.0 + target)), 1.0)
            Q = math.sqrt(1.0 + target - P * P)
            if not (Q < 1.0 and P**2 + Q**2 > 1.0):
                continue
            P_, Q_ = mp.mpf(P), mp.mpf(Q)
            d, p2, q2 = P_**2 + Q_**2 - 1, 1 - P_**2, 1 - Q_**2
            exact = [
                mp.atanh(P_), mp.atanh(Q_), mp.asinh(mp.sqrt(q2 / d)),
                mp.asinh(mp.sqrt(d / (p2 * q2))), mp.asinh(mp.sqrt(p2 / d)),
            ]
            got = pentagon_side_lengths(PentagonShape(P, Q)).lengths
            bound = 1e-12 + 4.0 * u / float(d)
            for g, x in zip(got, exact):
                assert float(abs((g - x) / x)) <= bound, (P, Q)
            checked += 1
        assert checked >= 40


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
