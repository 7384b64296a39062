"""Tests for fiber constructions, circle recovery, and the full inversion."""

import math

import numpy as np
import pytest

from polymod import (
    HexahedronShape,
    InconsistentPair,
    NoIntersection,
    NotAPermutation,
    NotInTheta,
    OutOfRange,
    PentagonShape,
    PolymodError,
    SignatureMismatch,
    SlideCollision,
    UpperHalfPoint,
    WeightVector,
    complete_triangle,
    dumps_canonical,
    equal_weight,
    fiber_theta5,
    fiber_theta6,
    inversion_report,
    invert5,
    invert6,
    psi5,
    psi6,
    validate_weight,
    verify_injectivity,
)
from polymod import verify
from polymod.combinatorics import sample_weight_rng
from polymod.fiber import DESIGNATED, SWAPPED5, SWAPPED6, designated_pairs, invert_params

import fiber_oracle
import lorentz_oracle
from planar_oracle import planar_shape
from weights import sample_weight

IDENT5 = (1, 2, 3, 4, 5)
IDENT6 = (1, 2, 3, 4, 5, 6)


def forward_pair(n, theta):
    if n == 5:
        return psi5(theta, IDENT5), psi5(theta, SWAPPED5)
    return psi6(theta, IDENT6), psi6(theta, SWAPPED6)


def max_theta_error(t1, t2):
    return max(abs(a - b) for a, b in zip(t1, t2))


# ===========================================================================
# the fiber point w
# ===========================================================================

class TestWFromTheta:
    def test_equal_weight_pentagon(self):
        """Isoceles completion triangle: apex at 1/2 + i tan(pi/5)/2."""
        w = complete_triangle(equal_weight(5), IDENT5).apex[0]
        assert w.real == pytest.approx(0.5, abs=1e-12)
        assert w.imag == pytest.approx(math.tan(math.pi / 5.0) / 2.0, abs=1e-12)

    def test_equal_weight_hexahedron(self):
        """Equilateral completion triangle: apex at 1/2 + i sqrt(3)/2."""
        w = complete_triangle(equal_weight(6), IDENT6).apex[0]
        assert w.real == pytest.approx(0.5, abs=1e-12)
        assert w.imag == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)

    def test_designated_labels_share_the_apex(self):
        """Both designated labels complete to the same triangle apex."""
        rng = np.random.default_rng(8)
        for n, swapped in ((5, SWAPPED5), (6, SWAPPED6)):
            for _ in range(10):
                theta = sample_weight_rng(n, rng)
                w1 = complete_triangle(theta, tuple(range(1, n + 1))).apex[0]
                w2 = complete_triangle(theta, swapped).apex[0]
                assert abs(w1 - w2) < 1e-12


class TestUpperHalfPoint:
    def test_rejects_real_axis(self):
        with pytest.raises(OutOfRange):
            UpperHalfPoint(complex(0.3, 0.0))
        with pytest.raises(OutOfRange):
            UpperHalfPoint(complex(0.3, -0.1))

    def test_as_pair(self):
        assert UpperHalfPoint(0.25 + 2.0j).as_pair == (0.25, 2.0)


# ===========================================================================
# fiber construction round trips
# ===========================================================================

class TestFiberTheta:
    def test_pentagon_roundtrip_through_w(self):
        """fiber_theta5(psi5(theta), w(theta)) reproduces theta."""
        rng = np.random.default_rng(14)
        for _ in range(20):
            theta = sample_weight_rng(5, rng)
            shape = psi5(theta)
            back = fiber_theta5(shape, complete_triangle(theta, IDENT5).apex[0])
            assert max_theta_error(theta, back) < 1e-11

    def test_hexahedron_roundtrip_through_w(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            theta = sample_weight_rng(6, rng)
            shape = psi6(theta)
            back = fiber_theta6(shape, complete_triangle(theta, IDENT6).apex[0])
            assert max_theta_error(theta, back) < 1e-11

    def test_moving_w_preserves_shape(self):
        """Any nearby fiber point reproduces the same shape parameters."""
        theta = equal_weight(5)
        shape = psi5(theta)
        w0 = complete_triangle(theta, IDENT5).apex[0]
        for delta in (0.02, -0.03 + 0.04j, 0.05j):
            theta2 = fiber_theta5(shape, w0 + delta)
            shape2 = psi5(theta2)
            assert shape2.P == pytest.approx(shape.P, abs=1e-11)
            assert shape2.Q == pytest.approx(shape.Q, abs=1e-11)

    def test_moving_w_preserves_shape_random(self):
        """Small fiber moves stay feasible for generic weights too."""
        for seed in (3, 44, 91):
            theta = sample_weight(5, seed)
            shape = psi5(theta)
            w0 = complete_triangle(theta, IDENT5).apex[0]
            theta2 = fiber_theta5(shape, w0 + complex(-7e-4, 5e-4))
            shape2 = psi5(theta2)
            assert shape2.P == pytest.approx(shape.P, abs=1e-11)
            assert shape2.Q == pytest.approx(shape.Q, abs=1e-11)

    def test_distinct_w_give_distinct_theta(self):
        theta = sample_weight(6, 45)
        shape = psi6(theta)
        w0 = complete_triangle(theta, IDENT6).apex[0]
        t1 = fiber_theta6(shape, w0)
        t2 = fiber_theta6(shape, w0 + 0.05j)
        assert max_theta_error(t1, t2) > 1e-6

    def test_extreme_w_leaves_domain(self):
        """A fiber point far from the feasible region violates the domain."""
        shape = psi5(equal_weight(5))
        with pytest.raises(NotInTheta):
            fiber_theta5(shape, complex(0.5, 8.0))
        with pytest.raises(NotInTheta):
            fiber_theta5(shape, complex(2.0, 1.0))


    def test_a_label_that_is_no_permutation_is_rejected(self):
        """A repeated mark is NotAPermutation, not a constructed weight
        vector that leaves the domain (NotInTheta)."""
        with pytest.raises(NotAPermutation):
            fiber_theta5(PentagonShape(0.8, 0.8), 0.3 + 0.5j, (1, 1, 3, 4, 5))
        with pytest.raises(NotAPermutation):
            fiber_theta6(HexahedronShape(1.0, 1.0, 1.0), 0.5 + 0.8j, (1, 2, 3, 4, 5, 7))

    @pytest.mark.parametrize(
        "construct, message",
        [
            pytest.param(lambda: fiber_theta6(HexahedronShape(1.0, 1e-3, 1.0), complex(1 - 1e6, 1e-11)),
                         "a construction edge has collapsed to a point", id="collapsed-edge"),
            pytest.param(lambda: fiber_theta5(PentagonShape(0.9, 0.9), complex(-1e17, 1.0)),
                         "turning angle at edge 1 is 0; slid edges intersect", id="zero-turn"),
        ],
    )
    def test_a_slid_construction_that_degenerates_is_a_slide_collision(self, construct, message):
        """Y = 1 + (w - 1) Q^2 shrinks to 1e-17 at a small Q and a matching
        Re w; at a huge |w| the edges -w and f2 - w are parallel in double."""
        with pytest.raises(SlideCollision) as exc:
            construct()
        assert str(exc.value) == message


# ===========================================================================
# circle recovery
# ===========================================================================

def fiber_point(r0, r1):
    """The fiber point ``invert_params`` solves for a pentagon pair with circle
    radii ``|w| = Q1*Q2 = r0`` and ``|w - 1| = P1*P2 = r1``, and its failure."""
    _, w, _, errors = invert_params(5, np.array([[r1, r0, 1.0, 1.0]]))
    return w[0], errors[0]


class TestCircleIntersection:
    def test_frozen_example(self):
        """r0 = 0.8, r1 = 0.9: x = (1 + r0^2 - r1^2)/2, y from circle 0."""
        w, _ = fiber_point(0.8, 0.9)
        assert w.real == pytest.approx(0.415, abs=1e-15)
        assert w.imag == pytest.approx(math.sqrt(0.8**2 - 0.415**2), abs=1e-14)

    def test_point_is_on_both_circles(self):
        w, _ = fiber_point(0.7, 0.95)
        assert abs(w) == pytest.approx(0.7, abs=1e-12)
        assert abs(w - 1.0) == pytest.approx(0.95, abs=1e-12)

    def test_too_small_raises(self):
        assert type(fiber_point(0.3, 0.3)[1]) is NoIntersection

    def test_containment_raises(self):
        assert type(fiber_point(3.0, 0.5)[1]) is NoIntersection


class TestRecoverW:
    def test_pentagon_circle_radii_convention(self):
        """|w| equals Q1*Q2 and |w-1| equals P1*P2 on genuine pairs."""
        rng = np.random.default_rng(16)
        for _ in range(15):
            theta = sample_weight_rng(5, rng)
            s1, s2 = forward_pair(5, theta)
            w = complete_triangle(theta, IDENT5).apex[0]
            assert abs(w) == pytest.approx(s1.Q * s2.Q, rel=1e-9)
            assert abs(w - 1.0) == pytest.approx(s1.P * s2.P, rel=1e-9)
            recovered = inversion_report(5, s1, s2)["w"].w
            assert abs(recovered - w) < 1e-9

    def test_hexahedron_circle_radii_convention(self):
        """|w| equals P1*P2 and |w-1| equals 1/(Q1*Q2) on genuine pairs."""
        rng = np.random.default_rng(17)
        for _ in range(15):
            theta = sample_weight_rng(6, rng)
            s1, s2 = forward_pair(6, theta)
            w = complete_triangle(theta, IDENT6).apex[0]
            assert abs(w) == pytest.approx(s1.P * s2.P, rel=1e-9)
            assert abs(w - 1.0) == pytest.approx(1.0 / (s1.Q * s2.Q), rel=1e-9)
            recovered = inversion_report(6, s1, s2)["w"].w
            assert abs(recovered - w) < 1e-9

    def test_no_intersection_example(self):
        """Valid shapes whose parameter products are too small to meet."""
        s1 = PentagonShape(6.0 / 19.0, 0.95)
        s2 = PentagonShape(0.95, 6.0 / 19.0)
        with pytest.raises(NoIntersection):
            inversion_report(5, s1, s2)


# ===========================================================================
# full inversion
# ===========================================================================

class TestInversion:
    def test_pentagon_roundtrip(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            theta = sample_weight_rng(5, rng)
            s1, s2 = forward_pair(5, theta)
            back = invert5(s1, s2)
            assert max_theta_error(theta, back) < 1e-9

    def test_hexahedron_roundtrip(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            theta = sample_weight_rng(6, rng)
            s1, s2 = forward_pair(6, theta)
            back = invert6(s1, s2)
            assert max_theta_error(theta, back) < 1e-9

    def test_report_fields(self):
        theta = sample_weight(6, 50)
        s1, s2 = forward_pair(6, theta)
        report = inversion_report(6, s1, s2)
        assert report["residual"] < 1e-9
        assert abs(report["w"].w - complete_triangle(theta, IDENT6).apex[0]) < 1e-9

    def test_corrupted_r_is_inconsistent(self):
        """R never enters the circles, so corruption must fail verification."""
        theta = sample_weight(6, 51)
        s1, s2 = forward_pair(6, theta)
        bad = HexahedronShape(s2.P, s2.Q, s2.R * 1.05)
        with pytest.raises(InconsistentPair):
            invert6(s1, bad)

    def test_corrupted_pentagon_reinverts_to_other_theta(self):
        """Slightly perturbing one pentagon lands on a *different* fiber.

        The circle solve absorbs any nearby (P, Q) pair, so a small
        corruption stays consistent but recovers visibly different weights.
        """
        theta = sample_weight(5, 52)
        s1, s2 = forward_pair(5, theta)
        bad = PentagonShape(min(s2.P * 1.05, 0.999), s2.Q)
        report = inversion_report(5, s1, bad)
        assert report["residual"] <= 1e-9
        assert max_theta_error(theta, report["theta"]) > 1e-6

    def test_infeasible_pentagon_pair_is_inconsistent(self):
        """A pair whose circles meet but whose angles leave the domain."""
        s1 = PentagonShape(0.45, 0.9)
        s2 = PentagonShape(0.75, 0.75)
        with pytest.raises(InconsistentPair):
            invert5(s1, s2)

    def test_bad_n(self):
        with pytest.raises(OutOfRange):
            inversion_report(7, None, None)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, float("inf")])
    def test_a_tol_that_is_not_positive_and_finite_is_rejected(self, tol):
        """With a NaN tolerance the residual gate would pass any pair, such
        as this one, whose residual is 0.222 (InconsistentPair by default)."""
        s1, s2 = HexahedronShape(1, 1, 1.5), HexahedronShape(1, 1, 1)
        with pytest.raises(InconsistentPair):
            inversion_report(6, s1, s2)
        with pytest.raises(OutOfRange, match="tol must be positive and finite"):
            inversion_report(6, s1, s2, tol)
        with pytest.raises(OutOfRange, match="tol must be positive and finite"):
            invert_params(6, np.array([s1.params + s2.params]), tol)


def planar_pair(n, angles):
    """The designated shape pair of a weight vector, read on the planar route
    alone: its inversion recovers a weight vector whose forward map fails."""
    theta = validate_weight(angles)
    return tuple(planar_shape(theta, word) for word in DESIGNATED[n])


#: Per n, shape pairs failing each gate of the inversion, in gate order: the
#: circles, the fiber construction, the forward check on the identity word,
#: and on the swapped word alone.
PLANTED = {
    5: [
        ("NoIntersection", "do not meet", (PentagonShape(6.0 / 19.0, 0.95), PentagonShape(0.95, 6.0 / 19.0))),
        ("InconsistentPair", "no weight vector realizes", (PentagonShape(0.45, 0.9), PentagonShape(0.75, 0.75))),
        ("SignatureMismatch", "fail to diagonalize", planar_pair(5, (
            0.8901018907399227, 1.373507060241139, 1.7364836217684112,
            1.4051090304126403, 0.8779837040174728,
        ))),
        ("SignatureMismatch", "fail to diagonalize", planar_pair(5, (
            1.3864331250074187, 0.46622465289382614, 1.4688815150735404,
            1.6727104716763548, 1.2889355425284463,
        ))),
    ],
    6: [
        ("NoIntersection", "do not meet", (HexahedronShape(0.1, 0.1, 1.0), HexahedronShape(0.1, 0.1, 1.0))),
        ("InconsistentPair", "no weight vector realizes", (
            HexahedronShape(1.71, 1.0, 1.23), HexahedronShape(0.35, 1.58, 1.21),
        )),
        ("SignatureMismatch", "fail to diagonalize", planar_pair(6, (
            0.863838551271359, 0.8103922722571006, 1.792076603079277,
            1.3495158972437633, 0.49004366000845395, 0.9773183233196332,
        ))),
        ("SignatureMismatch", "fail to diagonalize", planar_pair(6, (
            1.619056452202006, 1.5225357665582437, 1.3776866674086923,
            0.4571598036830406, 0.26747064470966153, 1.0392759726179424,
        ))),
    ],
}


def invert_rows(n, pairs):
    """Each pair's inversion from one ``invert_params`` call: the report
    ``inversion_report`` returns, or the failure it raises."""
    params = np.array([s1.params + s2.params for s1, s2 in pairs], dtype=float)
    theta, w, residual, errors = invert_params(n, params.reshape(-1, 2 * (n - 3)))
    return [
        e or {"theta": WeightVector(n=n, theta=tuple(t)), "w": UpperHalfPoint(w=z), "residual": r}
        for e, t, z, r in zip(errors, theta.tolist(), w.tolist(), residual)
    ]


def recovered_theta(n, pair):
    """The weight vector the circles and the fiber construction give a pair,
    before the forward check."""
    theta = invert_params(n, np.array([pair[0].params + pair[1].params]))[0]
    return WeightVector(n=n, theta=tuple(theta[0].tolist()))


class TestBatchedInversion:
    @pytest.mark.parametrize("n", [5, 6])
    def test_a_mixed_batch_inverts_each_pair_alone(self, n):
        """One batch holds a pair failing each gate between intact pairs;
        every entry is what ``inversion_report`` gives for its pair alone."""
        planted = list(PLANTED[n])
        if n == 6:  # R never enters the circles, so only the residual gate sees it
            s1, s2 = forward_pair(6, sample_weight(6, 51))
            bad = (s1, HexahedronShape(s2.P, s2.Q, s2.R * 1.05))
            planted.append(("InconsistentPair", "forward verification failed: residual", bad))
        good = [forward_pair(n, sample_weight(n, seed)) for seed in range(len(planted) + 1)]
        pairs = [good[0]]
        for k, (_, _, pair) in enumerate(planted):
            pairs += [pair, good[k + 1]]
        reports = invert_rows(n, pairs)
        assert len(reports) == len(pairs)
        for k, (cls, fragment, _) in enumerate(planted):
            bad = reports[2 * k + 1]
            assert type(bad).__name__ == cls and fragment in str(bad)
        # the third planted pair fails on the identity word, the fourth on
        # the swapped word alone
        psi = psi5 if n == 5 else psi6
        identity, swapped = DESIGNATED[n]
        with pytest.raises(SignatureMismatch):
            psi(recovered_theta(n, planted[2][2]), identity)
        psi(recovered_theta(n, planted[3][2]), identity)
        with pytest.raises(SignatureMismatch):
            psi(recovered_theta(n, planted[3][2]), swapped)
        for pair, report in zip(pairs, reports):
            try:
                alone = inversion_report(n, *pair)
            except PolymodError as exc:
                assert type(report) is type(exc) and str(report) == str(exc)
            else:
                assert report == alone
        assert invert_rows(n, []) == []


# ===========================================================================
# empirical injectivity harness
# ===========================================================================

class TestVerifyInjectivity:
    def test_small_run_passes(self):
        for n in (5, 6):
            report = verify_injectivity(n, samples=25, seed=2024)
            assert report["pass"]
            assert report["failures"] == []
            assert report["max_error"] < 1e-9
            assert report["min_shape_separation"] > 0.0

    def test_jobs_do_not_change_the_report(self):
        seq = verify_injectivity(5, samples=16, seed=5, jobs=1)
        par = verify_injectivity(5, samples=16, seed=5, jobs=3)
        assert dumps_canonical(seq) == dumps_canonical(par)


# ===========================================================================
# the column inverse against the scalar oracle
# ===========================================================================

def oracle_outcome(n, row):
    """The scalar inversion of one row of designated pair parameters."""
    shape, k = (PentagonShape, HexahedronShape)[n - 5], n - 3
    kind, report = fiber_oracle.outcome(
        lambda: fiber_oracle.inversion_report(n, shape(*row[:k]), shape(*row[k:]))
    )
    if kind != "ok":
        return kind, report
    return "ok", report["theta"].theta, report["w"].w, report["residual"]


def assert_columns_match_oracle(n, params):
    """Every row of one column call: the oracle's theta, w and residual bits,
    or its class and message; returns the classes seen."""
    theta, w, residual, errors = invert_params(n, params)
    kinds = set()
    for i, row in enumerate(params.tolist()):
        want = oracle_outcome(n, row)
        if errors[i] is None:
            got = ("ok", tuple(theta[i].tolist()), complex(w[i]), residual[i])
        else:
            got = (type(errors[i]).__name__, str(errors[i]))
        assert got == want, (i, row)
        kinds.add(want[0] if want[0] != "InconsistentPair" else want[1].split(":")[0])
    return kinds


def perturbed(n, params, rng, spread):
    """Rows of ``params`` scaled entry by entry, kept where both shapes exist."""
    k, rows = n - 3, []
    for row in (params * rng.uniform(1 - spread, 1 + spread, params.shape)).tolist():
        try:
            shape = (PentagonShape, HexahedronShape)[n - 5]
            shape(*row[:k]), shape(*row[k:])
        except PolymodError:
            continue
        rows.append(row)
    return np.array(rows).reshape(-1, 2 * k)


class TestColumnInverse:
    @pytest.mark.parametrize("n, samples", [(5, 150), (6, 190)])
    def test_the_verify_seeds_invert_as_the_scalar_oracle(self, n, samples):
        for seed in (0, 3, 11, 7919):
            theta, _ = verify._draw(n, seed, range(samples))
            params, errors = designated_pairs(n, theta)
            assert_columns_match_oracle(n, params[[e is None for e in errors]])

    @pytest.mark.parametrize("n", [5, 6])
    def test_boundary_corpora_invert_as_the_scalar_oracle(self, n):
        """Designated pairs of near-boundary weight vectors, and the same
        pairs perturbed so that every gate fires somewhere."""
        rng = np.random.default_rng(40 + n)
        theta = np.array([t.theta for t in lorentz_oracle.boundary_weights(n, rng, 400)])
        params, errors = designated_pairs(n, theta)
        params = params[[e is None for e in errors]]
        kinds = assert_columns_match_oracle(n, params)
        kinds |= assert_columns_match_oracle(n, perturbed(n, params, rng, 0.3))
        assert {"ok", "no weight vector realizes this shape pair"} <= kinds
        if n == 6:
            assert {"NoIntersection", "forward verification failed"} <= kinds

    @pytest.mark.parametrize("n", [5, 6])
    def test_a_chunk_where_every_pair_fails(self, n):
        """No row of the chunk inverts: each holds the oracle's failure."""
        rows = [pair[0].params + pair[1].params for _, _, pair in PLANTED[n]]
        if n == 6:  # squares that overflow, on either shape, and a residual failure
            rows += [(1e160, 1.0, 1.0, 1e-160, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0, 1.0, 1e200)]
            rows += [(1.0, 1.0, 1.5, 1.0, 1.0, 1.0)]
        params = np.array(rows)
        assert_columns_match_oracle(n, params)
        assert all(e is not None for e in invert_params(n, params)[3])

    def test_a_non_finite_pair_fails_its_row(self):
        """NaN parameters give a NaN fiber point: the row fails, the call does not."""
        errors = invert_params(5, np.full((1, 4), np.nan))[3]
        assert [(type(e), str(e)) for e in errors] == [(OutOfRange, "w = (nan+nanj) is not finite")]

    def test_an_empty_chunk(self):
        theta, w, residual, errors = invert_params(6, np.zeros((0, 6)))
        assert theta.shape == (0, 6) and w.shape == (0,) and residual == errors == []
