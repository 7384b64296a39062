"""Tests for the Lorentzian area model: signature, distances, dihedrals.

The quadratic form is checked against the shoelace area of the actual
polygon chain, and the axis intercepts against independent sine-ratio
oracles, so the two routes never share code.  The closed-form model is also
checked against a reference that polarizes shoelace areas row by row, and
the stacked kernel against the scalar route check in ``lorentz_oracle``,
bit for bit.
"""

import dataclasses
import math
from dataclasses import astuple

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polymod import (
    ORTHOGONAL_PAIRS,
    FacetsDisjoint,
    NoIntersection,
    NotTimelike,
    OutOfRange,
    PolymodError,
    SignatureMismatch,
    axis_intercepts,
    build_model,
    chain_vertices,
    complete_triangle,
    dihedral_angle,
    edge_frame,
    equal_weight,
    facet_zero_ray,
    hyperbolic_distance,
    klein_distance,
    klein_point,
    line_intersection,
    polygon_area,
    sample_weight,
    tangential_lengths,
    validate_weight,
)
from polymod import WeightVector, build_models, forward_shapes, lorentz
from polymod.combinatorics import sample_weight_rng

import lorentz_oracle as oracle

IDENT5 = (1, 2, 3, 4, 5)
IDENT6 = (1, 2, 3, 4, 5, 6)

RIGHT = math.pi / 2.0

#: facet pairs meeting at right angles for every theta and word
ORTHO5 = [(1, 3), (2, 4), (3, 5), (4, 1), (5, 2)]
ORTHO6 = [(1, 4), (2, 5), (3, 6), (1, 3), (3, 5), (5, 1), (2, 4), (4, 6), (6, 2)]


def label_angles(theta, word):
    return [theta[m - 1] for m in word]


def oracle_params5(theta, word):
    """Independent sine-ratio oracle for the pentagon intercepts (P, Q)."""
    t = label_angles(theta, word)
    p = math.sqrt(math.sin(t[0] + t[1]) * math.sin(t[3]) / (math.sin(t[4]) * math.sin(t[2])))
    q = math.sqrt(math.sin(t[2] + t[3]) * math.sin(t[0]) / (math.sin(t[4]) * math.sin(t[1])))
    return p, q


def oracle_params6(theta, word):
    """Independent sine-ratio oracle for the hexahedron intercepts (P, Q, R)."""
    t = label_angles(theta, word)
    p = math.sqrt(math.sin(t[2] + t[3]) * math.sin(t[0]) / (math.sin(t[4] + t[5]) * math.sin(t[1])))
    q = math.sqrt(math.sin(t[4] + t[5]) * math.sin(t[2]) / (math.sin(t[0] + t[1]) * math.sin(t[3])))
    r = math.sqrt(math.sin(t[0] + t[1]) * math.sin(t[4]) / (math.sin(t[2] + t[3]) * math.sin(t[5])))
    return p, q, r


def random_closing_vector(model, rng):
    """A random element of the closing space as an edge n-vector."""
    return model.basis.T @ rng.normal(size=model.dim)


def polarization_model(theta, word):
    """Reference (basis, gram, coord_mat) built the long way round.

    The basis comes from one 2x2 solve per row, the area form from
    polarizing shoelace areas of the chained basis rows, the base width from
    per-row line intersections, and the reference signs from a least-squares
    fit of the circumscribed polygon.  The signature and diagonalization
    checks raise SignatureMismatch at the same tolerances as build_model.
    """
    frame = edge_frame(theta, word)
    n, d = frame.n, frame.dirs
    dim = n - 2
    best = (-1.0, 0, 1)
    for a in range(n):
        for b in range(a + 1, n):
            c = abs((d[a].conjugate() * d[b]).imag)
            if c > best[0] + 1e-15:
                best = (c, a, b)
    _, p1, p2 = best
    piv = np.array([[d[p1].real, d[p2].real], [d[p1].imag, d[p2].imag]])
    basis = np.zeros((dim, n))
    for row, j in enumerate(j for j in range(n) if j not in (p1, p2)):
        basis[row, j] = 1.0
        basis[row, [p1, p2]] = np.linalg.solve(piv, [-d[j].real, -d[j].imag])

    def area(lengths):
        return polygon_area(chain_vertices(frame, lengths))

    gram = np.empty((dim, dim))
    for a in range(dim):
        for b in range(dim):
            gram[a, b] = 0.5 * (
                area(basis[a] + basis[b]) - area(basis[a]) - area(basis[b])
            )
    eigs = np.linalg.eigvalsh(gram)
    tol = 1e-12 * max(1.0, np.abs(eigs).max())
    if np.sum(eigs > tol) != 1 or np.sum(eigs < -tol) != dim - 1:
        raise SignatureMismatch(f"eigenvalues {eigs!r}")

    tri = complete_triangle(theta, word)
    width = []
    for row in basis:
        v = chain_vertices(frame, row)
        _, _, corner_a = line_intersection(v[n - 1], d[n - 1], v[1], d[1])
        _, _, corner_b = line_intersection(v[3], d[3], v[1], d[1])
        width.append(((corner_b - corner_a) * d[1].conjugate()).real)
    t = frame.ordered_angles()
    rows = [math.sqrt(tri.c.imag / 2.0) * np.array(width)]
    for k in range(0, n - 1, 2):
        scale = math.sqrt(
            math.sin(t[k]) * math.sin(t[k + 1]) / (2.0 * math.sin(t[k] + t[k + 1]))
        )
        rows.append(scale * basis[:, k])
    coord_mat = np.vstack(rows)
    ref = np.linalg.lstsq(basis.T, tangential_lengths(theta, word), rcond=None)[0]
    coord_mat[coord_mat @ ref < 0.0] *= -1.0
    recon = coord_mat.T @ np.diag([1.0] + [-1.0] * (dim - 1)) @ coord_mat
    scale = max(1.0, np.abs(gram).max(), (coord_mat**2).sum(axis=0).max())
    if not np.allclose(recon, gram, rtol=0.0, atol=1e-9 * scale):
        raise SignatureMismatch("coordinates fail to diagonalize the area form")
    return basis, gram, coord_mat


@st.composite
def model_inputs(draw):
    """(theta, word) pairs, a share of them within 1e-3 of a pair-sum
    boundary (some pair near pi) or, for n=6, of a triple-sum boundary."""
    n = draw(st.sampled_from((5, 6)))
    word = tuple(draw(st.permutations(range(1, n + 1))))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(("generic", "pair", "triple")[: n - 3]))
    if kind == "generic":
        angles = raw * (2.0 * math.pi / raw.sum())
    else:
        size = 2 if kind == "pair" else 3
        gap = draw(st.floats(1e-9, 1e-3))
        target = math.pi - gap if kind == "pair" else math.pi + draw(
            st.sampled_from((-gap, gap))
        )
        near = list(draw(st.permutations(range(n)))[:size])
        rest = [k for k in range(n) if k not in near]
        angles = np.empty(n)
        angles[near] = raw[near] * (target / raw[near].sum())
        angles[rest] = raw[rest] * ((2.0 * math.pi - target) / raw[rest].sum())
    try:
        theta = validate_weight(angles)
    except PolymodError:
        assume(False)
    return theta, word


# ===========================================================================
# the model and its quadratic form
# ===========================================================================

class TestBuildModel:
    def test_basis_rows_close(self):
        """Every basis row is a genuinely closed chain: sum xi_j d_j = 0."""
        for n, word in ((5, (3, 1, 5, 2, 4)), (6, (2, 1, 4, 3, 5, 6))):
            theta = sample_weight(n, 8)
            model = build_model(theta, word)
            frame = edge_frame(theta, word)
            for row in model.basis:
                assert abs(np.sum(row * frame.dirs)) < 1e-12

    def test_gram_symmetric(self):
        model = build_model(sample_weight(6, 1), IDENT6)
        npt.assert_allclose(model.gram, model.gram.T, atol=1e-14)

    def test_signature(self):
        """Eigenvalues split (1 positive, n-3 negative) on random samples."""
        rng = np.random.default_rng(5)
        for n in (5, 6):
            for _ in range(25):
                theta = sample_weight_rng(n, rng)
                word = tuple(int(m) + 1 for m in rng.permutation(n))
                eig = np.linalg.eigvalsh(build_model(theta, word).gram)
                assert int((eig > 0).sum()) == 1
                assert int((eig < 0).sum()) == n - 3

    def test_quadratic_form_is_shoelace_area(self):
        """model.area equals the shoelace area of the chained polygon."""
        rng = np.random.default_rng(17)
        for n in (5, 6):
            theta = sample_weight_rng(n, rng)
            word = tuple(range(1, n + 1))
            model = build_model(theta, word)
            frame = edge_frame(theta, word)
            for _ in range(20):
                xi = random_closing_vector(model, rng)
                shoelace = polygon_area(chain_vertices(frame, xi))
                assert model.area(xi) == pytest.approx(shoelace, rel=1e-9, abs=1e-12)

    def test_coordinates_diagonalize_area(self):
        """area = x^2 - u^2 - v^2 (- w^2) exactly in the model coordinates."""
        rng = np.random.default_rng(23)
        signs = {5: np.array([1.0, -1.0, -1.0]), 6: np.array([1.0, -1.0, -1.0, -1.0])}
        for n in (5, 6):
            theta = sample_weight_rng(n, rng)
            model = build_model(theta, tuple(range(1, n + 1)))
            for _ in range(20):
                xi = random_closing_vector(model, rng)
                vals = model.coordinates(xi)
                assert model.area(xi) == pytest.approx(
                    float(signs[n] @ (vals * vals)), rel=1e-9, abs=1e-12
                )

    def test_tangential_polygon_is_timelike(self):
        """The circumscribed polygon has positive area and positive x."""
        for n in (5, 6):
            theta = sample_weight(n, 3)
            word = tuple(range(1, n + 1))
            model = build_model(theta, word)
            xi = tangential_lengths(theta, word)
            assert model.area(xi) > 0.0
            assert model.coordinates(xi)[0] > 0.0

    def test_to_coords_rejects_non_closing(self):
        model = build_model(equal_weight(5), IDENT5)
        with pytest.raises(OutOfRange):
            model.to_coords(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))

    @given(model_inputs())
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_polarization(self, case):
        """The closed-form basis, area form and coordinates equal the
        polarization construction to rounding, near the boundaries too, and
        both reject the same inputs."""
        theta, word = case
        try:
            reference = polarization_model(theta, word)
        except PolymodError as exc:
            with pytest.raises(type(exc)):
                build_model(theta, word)
            return
        model = build_model(theta, word)
        for got, want in zip((model.basis, model.gram, model.coord_mat), reference):
            scale = max(1.0, float(np.abs(want).max()))
            npt.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)

    def test_gram_inverse_is_lazy(self):
        """gram_inv is computed on first use, inverts the area form and
        leaves the right-angled dihedrals as the eager inverse gives them."""
        rng = np.random.default_rng(71)
        for n in (5, 6):
            theta = sample_weight_rng(n, rng)
            word = tuple(int(m) + 1 for m in rng.permutation(n))
            model = build_model(theta, word)
            assert "gram_inv" not in vars(model)
            npt.assert_allclose(model.gram @ model.gram_inv, np.eye(n - 2), atol=1e-12)
            eager = np.linalg.inv(model.gram)
            for j, k in ORTHOGONAL_PAIRS[n]:
                pj, pk = model.facet_mat[j - 1], model.facet_mat[k - 1]
                want = math.acos(
                    float(pj @ eager @ pk)
                    / math.sqrt(float(pj @ eager @ pj) * float(pk @ eager @ pk))
                )
                assert dihedral_angle(model, j, k) == want
                assert want == pytest.approx(RIGHT, abs=1e-9)
            with pytest.raises(dataclasses.FrozenInstanceError):
                model.gram = eager
            with pytest.raises(dataclasses.FrozenInstanceError):
                model.gram_inv = eager


# ===========================================================================
# Klein projection and distances
# ===========================================================================

class TestKleinPoint:
    def test_projective_invariance(self):
        theta = sample_weight(5, 6)
        model = build_model(theta, IDENT5)
        xi = tangential_lengths(theta, IDENT5)
        p1 = klein_point(model, xi)
        p2 = klein_point(model, 3.75 * xi)
        npt.assert_allclose(p1.coords, p2.coords, atol=1e-12)

    def test_interior_point_not_ideal(self):
        theta = sample_weight(6, 2)
        model = build_model(theta, IDENT6)
        pt = klein_point(model, tangential_lengths(theta, IDENT6))
        assert not pt.ideal
        assert pt.norm < 1.0

    def test_rejects_spacelike(self):
        theta = sample_weight(5, 9)
        model = build_model(theta, IDENT5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            xi = random_closing_vector(model, rng)
            if model.area(xi) < -1e-6 and model.coordinates(xi)[0] > 0.0:
                with pytest.raises(NotTimelike):
                    klein_point(model, xi)
                break
        else:
            pytest.fail("no spacelike sample found")


class TestFacetRays:
    def test_rays_lie_on_their_facets(self):
        theta = sample_weight(5, 12)
        model = build_model(theta, IDENT5)
        ray = facet_zero_ray(model, (1, 4))
        lengths = model.edge_lengths(ray)
        assert abs(lengths[0]) < 1e-9   # xi_1 = 0
        assert abs(lengths[3]) < 1e-9   # xi_4 = 0
        assert model.coordinates(ray)[0] == pytest.approx(1.0)

    def test_dependent_facets_raise(self):
        model = build_model(sample_weight(5, 1), IDENT5)
        with pytest.raises(NoIntersection):
            facet_zero_ray(model, (2, 2))

    def test_pentagon_axis_vertices(self):
        """The rays of facet pairs (1,3), (1,4), (3,5) project to the Klein
        points (0,0), (0,P), (Q,0)."""
        theta = sample_weight(5, 21)
        model = build_model(theta, IDENT5)
        p, q = axis_intercepts(model)
        npt.assert_allclose(
            klein_point(model, facet_zero_ray(model, (1, 3))).coords, (0, 0), atol=1e-9
        )
        npt.assert_allclose(
            klein_point(model, facet_zero_ray(model, (1, 4))).coords, (0, p), atol=1e-9
        )
        npt.assert_allclose(
            klein_point(model, facet_zero_ray(model, (3, 5))).coords, (q, 0), atol=1e-9
        )

    def test_equal_weight_hexahedron_vertices_are_ideal(self):
        model = build_model(equal_weight(6), IDENT6)
        for facets in ((3, 5, 6), (1, 2, 5), (1, 3, 4)):
            pt = klein_point(model, facet_zero_ray(model, facets))
            assert pt.ideal


class TestDistances:
    def test_scale_invariance_and_symmetry(self):
        theta = sample_weight(5, 31)
        model = build_model(theta, IDENT5)
        xi = tangential_lengths(theta, IDENT5)
        ray = facet_zero_ray(model, (1, 3))
        d1 = hyperbolic_distance(model, xi, ray)
        d2 = hyperbolic_distance(model, 2.0 * xi, ray)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert d1 == pytest.approx(hyperbolic_distance(model, ray, xi), abs=1e-12)

    def test_zero_distance(self):
        theta = sample_weight(6, 31)
        model = build_model(theta, IDENT6)
        xi = tangential_lengths(theta, IDENT6)
        assert hyperbolic_distance(model, xi, xi) == 0.0

    def test_matches_klein_formula(self):
        """Minkowski arccosh distance equals the Klein-coordinates formula."""
        theta = sample_weight(5, 40)
        model = build_model(theta, IDENT5)
        rng = np.random.default_rng(40)
        points = []
        while len(points) < 4:
            xi = tangential_lengths(theta, IDENT5) + 0.2 * random_closing_vector(
                model, rng
            )
            if model.area(xi) > 0.0 and model.coordinates(xi)[0] > 0.0:
                points.append(xi)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                d_mink = hyperbolic_distance(model, points[i], points[j])
                d_klein = klein_distance(
                    klein_point(model, points[i]).coords,
                    klein_point(model, points[j]).coords,
                )
                assert d_mink == pytest.approx(d_klein, rel=1e-9, abs=1e-12)

    def test_axis_distance_is_arctanh_oracle(self):
        """d(origin vertex, (0,P) vertex) = arctanh(P) with P from the oracle."""
        theta = sample_weight(5, 55)
        model = build_model(theta, IDENT5)
        p, _ = oracle_params5(theta, IDENT5)
        d = hyperbolic_distance(
            model, facet_zero_ray(model, (1, 3)), facet_zero_ray(model, (1, 4))
        )
        assert d == pytest.approx(math.atanh(p), rel=1e-9)


# ===========================================================================
# axis intercepts vs the sine oracles
# ===========================================================================

class TestAxisIntercepts:
    def test_pentagon_matches_oracle(self):
        rng = np.random.default_rng(300)
        for _ in range(40):
            theta = sample_weight_rng(5, rng)
            word = tuple(int(m) + 1 for m in rng.permutation(5))
            got = axis_intercepts(build_model(theta, word))
            want = oracle_params5(theta, word)
            npt.assert_allclose(got, want, rtol=1e-9)

    def test_hexahedron_matches_oracle(self):
        rng = np.random.default_rng(301)
        for _ in range(40):
            theta = sample_weight_rng(6, rng)
            word = tuple(int(m) + 1 for m in rng.permutation(6))
            got = axis_intercepts(build_model(theta, word))
            want = oracle_params6(theta, word)
            npt.assert_allclose(got, want, rtol=1e-9)


# ===========================================================================
# dihedral angles
# ===========================================================================

class TestDihedralAngles:
    def test_pentagon_right_angles(self):
        """Facets two apart in a right pentagon always meet at pi/2."""
        rng = np.random.default_rng(60)
        for _ in range(10):
            theta = sample_weight_rng(5, rng)
            model = build_model(theta, IDENT5)
            for j, k in ORTHO5:
                assert dihedral_angle(model, j, k) == pytest.approx(RIGHT, abs=1e-9)

    def test_pentagon_adjacent_facets_disjoint(self):
        model = build_model(sample_weight(5, 2), IDENT5)
        for k in range(1, 6):
            with pytest.raises(FacetsDisjoint):
                dihedral_angle(model, k, k % 5 + 1)

    def test_hexahedron_right_angles(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            theta = sample_weight_rng(6, rng)
            model = build_model(theta, IDENT6)
            for j, k in ORTHO6:
                assert dihedral_angle(model, j, k) == pytest.approx(RIGHT, abs=1e-9)

    def test_adjacent_rule_follows_triple_sums(self):
        """Facets k, k+1 meet iff the triple sum at k is below pi."""
        theta = validate_weight([0.9, 0.9, 0.9, 1.2, 1.2, 2 * math.pi - 5.1])
        model = build_model(theta, IDENT6)
        t = list(theta)
        for k in range(1, 7):
            total = t[k - 1] + t[k % 6] + t[(k + 1) % 6]
            if total < math.pi:
                angle = dihedral_angle(model, k, k % 6 + 1)
                assert 0.0 < angle < math.pi
            else:
                with pytest.raises(FacetsDisjoint):
                    dihedral_angle(model, k, k % 6 + 1)

    def test_equal_weight_adjacent_facets_tangent(self):
        """All triple sums equal pi exactly: tangency reported as 0."""
        model = build_model(equal_weight(6), IDENT6)
        for k in range(1, 7):
            assert dihedral_angle(model, k, k % 6 + 1) == 0.0

    def test_bad_indices(self):
        model = build_model(equal_weight(5), IDENT5)
        with pytest.raises(OutOfRange):
            dihedral_angle(model, 1, 1)
        with pytest.raises(OutOfRange):
            dihedral_angle(model, 0, 2)


# ===========================================================================
# the stacked kernel against the scalar oracle
# ===========================================================================

def outcome(fn, *args):
    """``("ok", value)`` or ``(class name, message)`` of one oracle call."""
    try:
        return "ok", fn(*args)
    except PolymodError as exc:
        return type(exc).__name__, str(exc)


def failure(exc):
    return None if exc is None else (type(exc).__name__, str(exc))


def assert_rows_match_oracle(stack):
    """Every row equals the scalar build_model / axis_intercepts bit for bit,
    or records the class and message the scalar code raises."""
    for i, (theta, word) in enumerate(zip(stack.thetas, stack.words)):
        kind, model = outcome(oracle.build_model, theta, word)
        if kind != "ok":
            assert failure(stack.model_errors[i]) == (kind, model)
            assert stack.intercept_errors[i] is None
            continue
        assert stack.model_errors[i] is None
        for name in ("basis", "gram", "coord_mat", "facet_mat"):
            assert np.array_equal(getattr(stack, name)[i], getattr(model, name)), name
        assert np.array_equal(stack.dirs[i], model.frame.dirs)
        kind, values = outcome(oracle.axis_intercepts, model)
        if kind != "ok":
            assert failure(stack.intercept_errors[i]) == (kind, values)
        else:
            assert stack.intercept_errors[i] is None
            assert stack.axis_intercepts(i) == values


class TestStackedKernel:
    @given(
        n=st.sampled_from((5, 6)),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_scalar_oracle(self, n, seed, rows):
        """Generic and near-boundary rows, each with its own random word."""
        rng = np.random.default_rng(seed)
        thetas = oracle.boundary_weights(n, rng, rows)
        words = [tuple(int(m) + 1 for m in rng.permutation(n)) for _ in thetas]
        stack = build_models(thetas, words)
        assert_rows_match_oracle(stack)
        # the one-row entry points are the same kernel
        for theta, word in zip(thetas, words):
            kind, model = outcome(oracle.build_model, theta, word)
            if kind != "ok":
                assert outcome(build_model, theta, word) == (kind, model)
                continue
            got = build_model(theta, word)
            for name in ("basis", "gram", "coord_mat", "facet_mat"):
                assert np.array_equal(getattr(got, name), getattr(model, name))
            assert outcome(axis_intercepts, got) == outcome(oracle.axis_intercepts, model)

    @pytest.mark.parametrize("n", [5, 6])
    def test_boundary_failures_match_the_oracle(self, n):
        """On 600 near-boundary rows each failure has the oracle's class and
        message, and so does each forward map."""
        rng = np.random.default_rng(600 + n)
        thetas = oracle.boundary_weights(n, rng, 600)
        words = [tuple(int(m) + 1 for m in rng.permutation(n)) for _ in thetas]
        stack = build_models(thetas, words)
        assert_rows_match_oracle(stack)
        classes = {type(e).__name__ for e in stack.model_errors if e is not None}
        assert {"DegenerateTriangle", "SignatureMismatch"} <= classes
        for shape, theta, word in zip(forward_shapes(n, thetas, words), thetas, words):
            kind, want = outcome(oracle.psi, n, theta, word)
            if kind == "ok":
                assert astuple(shape) == astuple(want)
            else:
                assert failure(shape) == (kind, want)

    def test_a_mixed_chunk_fails_each_row_alone(self):
        """One chunk holds a row failing each gate; every row, failing or
        not, comes out as it does alone."""
        ident = (1, 2, 3, 4, 5, 6)
        good = [sample_weight(6, seed) for seed in range(7)]
        gated = [  # hand-built: they bypass validate_weight
            ("DegenerateTriangle", "exterior angle at b", (0.59, 0.59, 0.0, 0.0, 0.59, 0.39)),
            # NaN arrays: the row must stay out of the stacked eigvalsh and svd
            ("DegenerateTriangle", "at a is nan", (math.nan, 1.0, 1.0, 1.0, 1.0, 1.0)),
            ("SignatureMismatch", "area-form eigenvalues", (
                -0.1639386256704607, 2.830576590613591, 2.6483932299547335,
                0.4574777719718086, 3.0059369232428153, -0.2657278607792226,
            )),
            ("NoIntersection", "lines are parallel", (
                math.pi / 2, math.pi / 8, 5 * math.pi / 16,
                math.pi / 16, math.pi / 8, math.pi / 2,
            )),
            ("SignatureMismatch", "fail to diagonalize", (
                1.5922061829871326, 1.3398222841462766, 0.08253039436121029,
                1.5647726487136204, 0.05598250625828778, 1.6478712934222117,
            )),
            ("RouteDisagreement", "disagree beyond", (
                0.4512732272831897, 0.8472543880371308, 1.1132332833896774,
                1.922357226286056, 0.807538725590708, 1.1415284633387217,
            )),
        ]
        thetas = []
        for k, (_, _, angles) in enumerate(gated):
            thetas += [good[k], WeightVector(6, angles)]
        thetas.append(good[-1])
        words = [ident] * len(thetas)
        stack = build_models(thetas, words)
        assert_rows_match_oracle(stack)
        shapes = forward_shapes(6, thetas, words)
        for k, (cls, fragment, _) in enumerate(gated):
            # the route gate sits behind the kernel, in the forward map
            bad = shapes[2 * k + 1] if cls == "RouteDisagreement" else stack.model_errors[2 * k + 1]
            assert type(bad).__name__ == cls and fragment in str(bad)
        for theta, shape in zip(thetas, shapes):
            kind, want = outcome(oracle.psi, 6, theta, ident)
            if kind == "ok":
                assert astuple(shape) == astuple(want)
            else:
                assert failure(shape) == (kind, want)

        # The facet gates do not fire on weight vectors; plant them in one
        # row's facets (dependent planes) and another's x functional (a ray
        # parallel to the slice), with intact rows around them.
        facet_mat = stack.facet_mat[::2].copy()
        coord_mat = stack.coord_mat[::2].copy()
        facet_mat[1, 4] = facet_mat[1, 2]  # facets 3 and 5 of the first spec
        coord_mat[3, 0] = 0.0
        errors = [None] * len(facet_mat)
        specs = [(3, 5, 6), (1, 2, 5), (1, 3, 4)]
        rays = lorentz._zero_rays(facet_mat, coord_mat[:, 0], specs, errors)
        for i, rows in enumerate(zip(facet_mat, coord_mat)):
            model = dataclasses.replace(stack.model(2 * i), facet_mat=rows[0], coord_mat=rows[1])
            want = [outcome(oracle.facet_zero_ray, model, facets) for facets in specs]
            first = next((w for w in want if w[0] != "ok"), None)
            assert failure(errors[i]) == first
            if first is None:
                for s, (_, ray) in enumerate(want):
                    assert np.array_equal(rays[i, s], ray)
        assert "are dependent" in str(errors[1])
        assert "parallel to the slice" in str(errors[3])
