"""Tests for the Lorentzian area model: signature, facet rays, dihedrals.

The quadratic form is checked against the shoelace area of the actual
polygon chain (``shoelace``), Klein points are read off the model's
coordinate rows, and the axis intercepts against independent sine-ratio
oracles, so the two routes never share code.  The closed-form model is also
checked against a reference that polarizes shoelace areas row by row, and
the stacked kernel against the scalar route check in ``lorentz_oracle``,
bit for bit.
"""

import dataclasses
import math
from itertools import combinations

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polymod import (
    ORTHOGONAL_PAIRS,
    FacetsDisjoint,
    NegativeRatio,
    NoIntersection,
    OutOfRange,
    PolymodError,
    SignatureMismatch,
    axis_intercepts,
    build_model,
    dihedral_angle,
    equal_weight,
    facet_zero_ray,
    validate_weight,
)
from polymod import WeightVector, build_models, lorentz
from polymod.combinatorics import sample_weight_rng
from polymod.fiber import designated_pairs, invert_params
from polymod.moduli import forward_params

import lorentz_oracle as oracle
from klein_oracle import klein_distance
from weights import angle_array, sample_weight
from planar_oracle import complete_triangle, edge_frame, line_intersection
from records import replace
from shoelace import chain_vertices, polygon_area, tangential_lengths

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


def basis_coords(model, e):
    """Least-squares basis coordinates of the edge n-vector ``e``, which
    must satisfy the closing condition."""
    coords, *_ = np.linalg.lstsq(model.facet_mat[0], e, rcond=None)
    npt.assert_allclose(model.facet_mat[0] @ coords, e, rtol=0.0, atol=1e-9 * (1.0 + np.linalg.norm(e)))
    return coords


def area(model, coords):
    """The area form on basis coordinates."""
    return float(coords @ model.gram[0] @ coords)


def klein(model, coords):
    """Klein coordinates (u/x, v/x[, w/x]) in the slice x = 1."""
    vals = model.coord_mat[0] @ coords
    return vals[1:] / vals[0]


#: Smallest angles of the small-angle rows.  Their area forms' eigenvalues
#: span a ratio of about 0.2 * smallest, below the signature gate's relative
#: 1e-12 from 1e-12 down.
SMALLEST = (1e-10, 1e-11, 1e-12, 1e-13, 1e-14)


def assert_lorentzian(stack):
    """Every model of the stack that built has one positive and n-3
    negative area-form eigenvalues, by ``eigvalsh``'s own signs."""
    eig = np.linalg.eigvalsh(stack.gram[[e is None for e in stack.model_errors]])
    assert ((eig > 0).sum(axis=1) == 1).all()
    assert ((eig < 0).sum(axis=1) == eig.shape[1] - 1).all()


def polarization_model(theta, word):
    """Reference (basis, gram, coord_mat) built the long way round.

    The basis comes from one 2x2 solve per row on the kernel's pivot pair,
    the area form from polarizing shoelace areas of the chained basis rows,
    the base width from per-row line intersections, and the reference signs
    from a least-squares fit of the circumscribed polygon.  The signature and diagonalization
    checks raise SignatureMismatch at the same tolerances as build_model.
    """
    frame = edge_frame(theta, word)
    n, d = frame.n, frame.dirs
    dim = n - 2
    # The pivot pair is chosen from Python's complex products, as the kernel
    # chooses it; the pivot rule itself is pinned by the ``lorentz_oracle`` tests.
    dirs = d.tolist()
    best = (-1.0, 0, 1)
    for a in range(n):
        for b in range(a + 1, n):
            c = abs((dirs[a].conjugate() * dirs[b]).imag)
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
            for row in model.facet_mat[0].T:
                assert abs(np.sum(row * frame.dirs)) < 1e-12

    def test_gram_symmetric(self):
        model = build_model(sample_weight(6, 1), IDENT6)
        npt.assert_allclose(model.gram[0], model.gram[0].T, atol=1e-14)

    def test_signature(self):
        """Eigenvalues split (1 positive, n-3 negative) on random samples,
        and on every model built from near-boundary rows."""
        rng = np.random.default_rng(5)
        for n in (5, 6):
            for _ in range(25):
                theta = sample_weight_rng(n, rng)
                word = tuple(int(m) + 1 for m in rng.permutation(n))
                assert_lorentzian(build_model(theta, word))
            thetas = oracle.boundary_weights(n, rng, 300)
            words = [tuple(int(m) + 1 for m in rng.permutation(n)) for _ in thetas]
            assert_lorentzian(build_models(angle_array(thetas), words))

    def test_quadratic_form_is_shoelace_area(self):
        """The area form equals the shoelace area of the chained polygon."""
        rng = np.random.default_rng(17)
        for n in (5, 6):
            theta = sample_weight_rng(n, rng)
            word = tuple(range(1, n + 1))
            model = build_model(theta, word)
            frame = edge_frame(theta, word)
            for _ in range(20):
                coords = rng.normal(size=n - 2)
                shoelace = polygon_area(chain_vertices(frame, model.facet_mat[0] @ coords))
                assert area(model, coords) == pytest.approx(shoelace, rel=1e-9, abs=1e-12)

    def test_coordinates_diagonalize_area(self):
        """area = x^2 - u^2 - v^2 (- w^2) exactly in the model coordinates."""
        rng = np.random.default_rng(23)
        signs = {5: np.array([1.0, -1.0, -1.0]), 6: np.array([1.0, -1.0, -1.0, -1.0])}
        for n in (5, 6):
            theta = sample_weight_rng(n, rng)
            model = build_model(theta, tuple(range(1, n + 1)))
            for _ in range(20):
                coords = rng.normal(size=n - 2)
                vals = model.coord_mat[0] @ coords
                assert area(model, coords) == pytest.approx(
                    float(signs[n] @ (vals * vals)), rel=1e-9, abs=1e-12
                )

    def test_tangential_polygon_is_timelike(self):
        """The circumscribed polygon has positive area and positive x."""
        for n in (5, 6):
            theta = sample_weight(n, 3)
            word = tuple(range(1, n + 1))
            model = build_model(theta, word)
            coords = basis_coords(model, tangential_lengths(theta, word))
            assert area(model, coords) > 0.0
            assert (model.coord_mat[0] @ coords)[0] > 0.0

    @given(model_inputs())
    @example((  # near-tied pivot pairs: (0, 5) and (1, 2) differ by under 1e-15
        validate_weight((
            0.9261604848457428, 0.9971766611052728, 1.0722079957422603,
            1.107716084872025, 1.107716084872025, 1.0722079957422603,
        )),
        (5, 1, 4, 3, 2, 6),
    ))
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
        for got, want in zip((model.facet_mat[0].T, model.gram[0], model.coord_mat[0]), reference):
            scale = max(1.0, float(np.abs(want).max()))
            npt.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)

    def test_dihedral_angles_read_the_inverse_of_the_area_form(self):
        """A model keeps no inverse; the right-angled dihedrals are those the
        inverse of the area form gives, bit for bit."""
        rng = np.random.default_rng(71)
        for n in (5, 6):
            theta = sample_weight_rng(n, rng)
            word = tuple(int(m) + 1 for m in rng.permutation(n))
            model = build_model(theta, word)
            assert not hasattr(model, "gram_inv")
            eager = np.linalg.inv(model.gram[0])
            npt.assert_allclose(model.gram[0] @ eager, np.eye(n - 2), atol=1e-12)
            for j, k in ORTHOGONAL_PAIRS[n]:
                pj, pk = model.facet_mat[0, j - 1], model.facet_mat[0, k - 1]
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
# the Klein slice, facet rays and distances
# ===========================================================================

class TestKleinPoint:
    def test_interior_point_not_ideal(self):
        """The circumscribed polygon projects into the open Klein ball."""
        theta = sample_weight(6, 2)
        model = build_model(theta, IDENT6)
        norm = np.linalg.norm(klein(model, basis_coords(model, tangential_lengths(theta, IDENT6))))
        assert norm < 1.0 - lorentz.TOL_IDEAL

    def test_rejects_spacelike(self):
        """A negative-area vector on the x > 0 side projects outside the ball."""
        model = build_model(sample_weight(5, 9), IDENT5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            coords = rng.normal(size=3)
            if area(model, coords) < -1e-6 and (model.coord_mat[0] @ coords)[0] > 0.0:
                assert np.linalg.norm(klein(model, coords)) > 1.0 + lorentz.TOL_IDEAL
                break
        else:
            pytest.fail("no spacelike sample found")


class TestFacetRays:
    def test_rays_lie_on_their_facets(self):
        theta = sample_weight(5, 12)
        model = build_model(theta, IDENT5)
        ray = facet_zero_ray(model, (1, 4))
        lengths = model.facet_mat[0] @ ray
        assert abs(lengths[0]) < 1e-9   # xi_1 = 0
        assert abs(lengths[3]) < 1e-9   # xi_4 = 0
        assert (model.coord_mat[0] @ ray)[0] == pytest.approx(1.0)

    def test_dependent_facets_raise(self):
        model = build_model(sample_weight(5, 1), IDENT5)
        with pytest.raises(NoIntersection, match=r"\(2, 2\) are dependent"):
            facet_zero_ray(model, (2, 2))
        model = build_model(equal_weight(6), IDENT6)
        with pytest.raises(NoIntersection, match=r"\(1, 4, 1\) are dependent"):
            facet_zero_ray(model, (1, 4, 1))

    @pytest.mark.parametrize(
        "n, facets",
        [(5, (1,)), (5, (1, 2, 3)), (5, (0, 4)), (5, (6, 4)), (5, ()),
         (6, (1, 2)), (6, (1, 2, 3, 4)), (6, (0, 1, 2)), (6, (1, 2, 7)), (6, (-1, 2, 3)),
         (5, (1.5, 4)), (5, (1.0, 4)), (6, (1, 2, 3.0)), (5, ("1", 4))],
    )
    def test_a_facet_list_it_cannot_solve_is_out_of_range(self, n, facets):
        """Exactly dim-1 integer indices in 1..n: no ray for too few or too
        many planes, no index read from the end of the facet rows, and no
        facet 1 read from 1.5 or 1.0."""
        model = build_model(equal_weight(n), tuple(range(1, n + 1)))
        with pytest.raises(OutOfRange, match=f"need {n - 3} facet indices in 1..{n}"):
            facet_zero_ray(model, facets)

    def test_numpy_integers_are_facet_indices(self):
        model = build_model(equal_weight(5), IDENT5)
        one, three, four = map(np.int64, (1, 3, 4))
        assert np.array_equal(facet_zero_ray(model, (one, four)), facet_zero_ray(model, (1, 4)))
        assert dihedral_angle(model, one, three) == dihedral_angle(model, 1, 3)

    def test_rays_match_the_svd_reference(self):
        """Every facet ray equals the earlier SVD null vector, normalized to
        x = 1, within 1e-12 of max(1, |ray|), or both rules raise alike."""
        rng = np.random.default_rng(91)
        for n in (5, 6):
            for _ in range(60):
                theta = sample_weight_rng(n, rng)
                model = build_model(theta, tuple(int(m) + 1 for m in rng.permutation(n)))
                for facets in combinations(range(1, n + 1), n - 3):
                    kind, ray = outcome(facet_zero_ray, model, facets)
                    want_kind, want = outcome(oracle.facet_zero_ray_svd, oracle.stack_row(model, 0), facets)
                    assert kind == want_kind
                    if kind == "ok":
                        scale = max(1.0, float(np.abs(want).max()))
                        npt.assert_allclose(ray, want, rtol=0.0, atol=1e-12 * scale)

    def test_pentagon_axis_vertices(self):
        """The rays of facet pairs (1,3), (1,4), (3,5) project to the Klein
        points (0,0), (0,P), (Q,0)."""
        theta = sample_weight(5, 21)
        model = build_model(theta, IDENT5)
        p, q = axis_intercepts(model)
        npt.assert_allclose(klein(model, facet_zero_ray(model, (1, 3))), (0, 0), atol=1e-9)
        npt.assert_allclose(klein(model, facet_zero_ray(model, (1, 4))), (0, p), atol=1e-9)
        npt.assert_allclose(klein(model, facet_zero_ray(model, (3, 5))), (q, 0), atol=1e-9)

    def test_equal_weight_hexahedron_vertices_are_ideal(self):
        model = build_model(equal_weight(6), IDENT6)
        for facets in ((3, 5, 6), (1, 2, 5), (1, 3, 4)):
            norm = np.linalg.norm(klein(model, facet_zero_ray(model, facets)))
            assert abs(norm - 1.0) <= lorentz.TOL_IDEAL


class TestDistances:
    def test_matches_klein_formula(self):
        """The hyperboloid distance arccosh(<c1,c2>/sqrt(<c1,c1><c2,c2>)) of
        the area form equals klein_distance of the projected points."""
        theta = sample_weight(5, 40)
        model = build_model(theta, IDENT5)
        rng = np.random.default_rng(40)
        centre = basis_coords(model, tangential_lengths(theta, IDENT5))
        points = []
        while len(points) < 4:
            coords = centre + 0.2 * rng.normal(size=3)
            if area(model, coords) > 0.0 and (model.coord_mat[0] @ coords)[0] > 0.0:
                points.append(coords)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                c1, c2 = points[i], points[j]
                d_mink = math.acosh(
                    max(float(c1 @ model.gram[0] @ c2) / math.sqrt(area(model, c1) * area(model, c2)), 1.0)
                )
                d_klein = klein_distance(klein(model, c1), klein(model, c2))
                assert d_mink == pytest.approx(d_klein, rel=1e-9, abs=1e-12)

    def test_axis_distance_is_arctanh_oracle(self):
        """d(origin vertex, (0,P) vertex) = arctanh(P) with P from the oracle."""
        theta = sample_weight(5, 55)
        model = build_model(theta, IDENT5)
        p, _ = oracle_params5(theta, IDENT5)
        d = klein_distance(
            klein(model, facet_zero_ray(model, (1, 3))),
            klein(model, facet_zero_ray(model, (1, 4))),
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

    @pytest.mark.parametrize("n", [5, 6])
    def test_a_hand_built_model_without_its_vertex_raises(self, n):
        """The axis vertices of a built model lie inside the cone; a model
        built by hand whose x functional vanishes has none on the slice
        x = 1, and raises NoIntersection rather than return NaN."""
        model = build_model(equal_weight(n), tuple(range(1, n + 1)))
        coord_mat = model.coord_mat.copy()
        coord_mat[0, 0] = 0.0
        with pytest.raises(NoIntersection, match="is parallel to the slice x = 1"):
            axis_intercepts(replace(model, coord_mat=coord_mat))

    @pytest.mark.parametrize("n", [5, 6])
    def test_no_built_row_fails_an_intercept_gate(self, n):
        """A model that passes its own gates has its axis vertices on the
        slice x = 1: on 2,000 near-boundary rows with random words, where
        the triangle and signature gates fire, no row fails with the
        intercepts' dependent-planes or slice message."""
        rng = np.random.default_rng(340 + n)
        thetas = oracle.boundary_weights(n, rng, 2000)
        words = [tuple(int(m) + 1 for m in rng.permutation(n)) for _ in thetas]
        errors = build_models(angle_array(thetas), words).model_errors
        messages = [str(e) for e in errors if e is not None]
        assert 0 < len(messages) < len(thetas)
        assert not [m for m in messages if "are dependent" in m or "parallel to the slice" in m]


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
        # not facet 1 for 1.5 or 1.0, nor a bare IndexError from the facet rows
        for j, k in [(1.5, 3), (1.0, 3), (3, 1.0), (2, "4")]:
            with pytest.raises(OutOfRange, match="need two distinct facet indices in 1..5"):
                dihedral_angle(model, j, k)


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


def forward_rows(n, thetas, words):
    """Each row of one ``forward_params`` call: its shape parameters, or its
    failure."""
    params, errors = forward_params(n, angle_array(thetas), words)
    return [tuple(row) if e is None else e for row, e in zip(params.tolist(), errors)]


def assert_rows_match_oracle(stack, thetas, words):
    """Every row equals the scalar build_model / axis_intercepts bit for bit,
    or records the class and message the scalar code raises.

    One documented departure: where a hand-built weight vector makes a
    coordinate-scale radicand negative, the scalar code's ``math.sqrt``
    raised a bare ValueError and the kernel records NegativeRatio."""
    for i, (theta, word) in enumerate(zip(thetas, words)):
        try:
            kind, model = outcome(oracle.build_model, theta, word)
        except ValueError as exc:
            assert str(exc) == "math domain error"
            assert type(stack.model_errors[i]) is NegativeRatio
            assert "scale = -" in str(stack.model_errors[i])
            continue
        if kind != "ok":
            assert failure(stack.model_errors[i]) == (kind, model)
            continue
        for name in ("gram", "coord_mat", "facet_mat"):
            assert np.array_equal(getattr(stack, name)[i], getattr(model, name)), name
        kind, values = outcome(oracle.axis_intercepts, model)
        if kind != "ok":
            assert failure(stack.model_errors[i]) == (kind, values)
        else:
            assert stack.model_errors[i] is None
            assert tuple(stack.intercepts[i].tolist()) == values


class TestStackedKernel:
    @pytest.mark.parametrize("n", [5, 6])
    def test_a_word_count_that_differs_from_the_row_count_is_rejected(self, n):
        """One word per row, or OutOfRange for the whole call."""
        theta = sample_weight(n, 1)
        ident = tuple(range(1, n + 1))
        with pytest.raises(OutOfRange, match="1 weight vectors but 0 words"):
            build_models(angle_array([theta]), [])
        with pytest.raises(OutOfRange, match="1 weight vectors but 2 words"):
            forward_params(n, angle_array([theta]), [ident, ident])

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
        stack = build_models(angle_array(thetas), words)
        assert_rows_match_oracle(stack, thetas, words)
        # the one-row entry points are the same kernel
        for theta, word in zip(thetas, words):
            kind, model = outcome(oracle.build_model, theta, word)
            if kind != "ok":
                assert outcome(build_model, theta, word) == (kind, model)
                continue
            got = build_model(theta, word)
            for name in ("gram", "coord_mat", "facet_mat"):
                assert np.array_equal(getattr(got, name)[0], getattr(model, name))
            assert outcome(axis_intercepts, got) == outcome(oracle.axis_intercepts, model)

    @pytest.mark.parametrize("n", [5, 6])
    def test_boundary_failures_match_the_oracle(self, n):
        """On 600 near-boundary rows each failure has the oracle's class and
        message, and so does each forward map."""
        rng = np.random.default_rng(600 + n)
        thetas = oracle.boundary_weights(n, rng, 600)
        words = [tuple(int(m) + 1 for m in rng.permutation(n)) for _ in thetas]
        stack = build_models(angle_array(thetas), words)
        assert_rows_match_oracle(stack, thetas, words)
        classes = {type(e).__name__ for e in stack.model_errors if e is not None}
        assert {"DegenerateTriangle", "SignatureMismatch"} <= classes
        for shape, theta, word in zip(forward_rows(n, thetas, words), thetas, words):
            kind, want = outcome(oracle.psi, n, theta, word)
            if kind == "ok":
                assert shape == want.params
            else:
                assert failure(shape) == (kind, want)

    @pytest.mark.parametrize("smallest", SMALLEST)
    def test_small_angle_rows_equal_the_oracle_and_invert(self, smallest):
        """300 n=6 rows whose smallest angle is ``smallest``: each row and
        each forward map has the scalar oracle's value or failure, every
        model that builds is Lorentzian, every row fails the signature gate
        from 1e-12 down (where the forward map would lose digits) and none
        above, and each designated pair that maps and inverts recovers its
        angles within 1e-9."""
        rng = np.random.default_rng(round(-math.log10(smallest)))
        thetas = oracle.small_angle_weights(6, rng, 300, smallest)
        words = [tuple(int(m) + 1 for m in rng.permutation(6)) for _ in thetas]
        stack = build_models(angle_array(thetas), words)
        assert_rows_match_oracle(stack, thetas, words)
        assert_lorentzian(stack)
        refused = {"area-form eigenvalues" in str(e) for e in stack.model_errors}
        assert refused == {smallest <= 1e-12}
        for shape, theta, word in zip(forward_rows(6, thetas, words), thetas, words):
            kind, want = outcome(oracle.psi, 6, theta, word)
            assert shape == want.params if kind == "ok" else failure(shape) == (kind, want)
        theta = angle_array(thetas)
        params, errors = designated_pairs(6, theta)
        mapped = [i for i, e in enumerate(errors) if e is None]
        assert bool(mapped) == (smallest > 1e-12)
        if mapped:
            back, _, _, failures = invert_params(6, params[mapped])
            inverted = [k for k, e in enumerate(failures) if e is None]
            assert inverted
            npt.assert_allclose(back[inverted], theta[mapped][inverted], rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("smallest", (1e-15, 1e-16))
    def test_rows_whose_computed_form_may_not_be_lorentzian_are_refused(self, smallest):
        """Below a smallest angle of about 3e-15 the rounding error of the
        computed area form can exceed its smallest eigenvalue, and at 1e-16
        the angle is lost in the partial sums: some computed forms are not
        Lorentzian.  The signature gate refuses every one of 300 n=6 rows,
        so no model that builds has a form of the wrong signature."""
        rng = np.random.default_rng(round(-math.log10(smallest)))
        thetas = oracle.small_angle_weights(6, rng, 300, smallest)
        words = [tuple(int(m) + 1 for m in rng.permutation(6)) for _ in thetas]
        stack = build_models(angle_array(thetas), words)
        assert_lorentzian(stack)
        assert all("area-form eigenvalues" in str(e) for e in stack.model_errors)

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
            # a negative angle passes the triangle, eigenvalue and parallel-line
            # gates and makes the edge-1 corner radicand negative
            ("NegativeRatio", "squared edge 1 corner scale = -", (
                -0.3074158806642796, 0.5171497255675706, 0.8348716813027642,
                0.23857298316690395, 1.9372646995452019, 0.46925787284396603,
            )),
        ]
        thetas = []
        for k, (_, _, angles) in enumerate(gated):
            thetas += [good[k], WeightVector(6, angles)]
        thetas.append(good[-1])
        words = [ident] * len(thetas)
        stack = build_models(angle_array(thetas), words)
        assert_rows_match_oracle(stack, thetas, words)
        shapes = forward_rows(6, thetas, words)
        for k, (cls, fragment, _) in enumerate(gated):
            # the route gate sits behind the kernel, in the forward map
            bad = shapes[2 * k + 1] if cls == "RouteDisagreement" else stack.model_errors[2 * k + 1]
            assert type(bad).__name__ == cls and fragment in str(bad)
        # the one-row entry point raises the negative radicand's failure too
        with pytest.raises(NegativeRatio, match="squared edge 1 corner scale = -"):
            build_model(thetas[-2], ident)
        for theta, shape in zip(thetas, shapes):
            kind, want = outcome(oracle.psi, 6, theta, ident)
            if kind == "ok":
                assert shape == want.params
            else:
                assert failure(shape) == (kind, want)

        # The facet gates do not fire on weight vectors; plant them in the
        # facets and x functionals of the intact rows, with intact rows around
        # them.
        specs = [(3, 5, 6), (1, 2, 5), (1, 3, 4)]
        facet_mat = stack.facet_mat[::2].copy()
        coord_mat = stack.coord_mat[::2].copy()
        intact = lorentz._zero_rays(facet_mat, coord_mat[:, 0], specs, [None] * len(facet_mat))
        f = facet_mat
        f[1, 4] = f[1, 2]  # equal rows: facets 3 and 5 of the first spec
        coord_mat[3, 0] = 0.0  # x vanishes on every ray
        # dependent to about 1e-14 relative: facet 5 is facet 3 plus a 1e-14 sliver of facet 1
        f[5, 4] = f[5, 2] + 1e-14 * np.linalg.norm(f[5, 2]) / np.linalg.norm(f[5, 0]) * f[5, 0]
        # Facet 3 scaled by 1e-13: its plane, and so every ray, is the same.
        # The SVD rule called it dependent, its smallest singular value being
        # under 1e-12 in absolute terms; the cross-product rule is scale-free
        # and keeps the rays, as a facet's zero set ignores its scale.
        f[6, 2] *= 1e-13
        # x orthogonal to the ray of the second spec only
        c = intact[7, 1]
        coord_mat[7, 0] -= (coord_mat[7, 0] @ c) / (c @ c) * c
        errors = [None] * len(facet_mat)
        rays = lorentz._zero_rays(facet_mat, coord_mat[:, 0], specs, errors)
        for i, rows in enumerate(zip(facet_mat, coord_mat)):
            model = replace(oracle.stack_row(stack, 2 * i), facet_mat=rows[0], coord_mat=rows[1])
            want = [outcome(oracle.facet_zero_ray, model, facets) for facets in specs]
            first = next((w for w in want if w[0] != "ok"), None)
            assert failure(errors[i]) == first
            if first is None:
                for s, (_, ray) in enumerate(want):
                    assert np.array_equal(rays[i, s], ray)
        assert failure(errors[1]) == ("NoIntersection", "facet planes (3, 5, 6) are dependent")
        assert failure(errors[5]) == ("NoIntersection", "facet planes (3, 5, 6) are dependent")
        assert "facets (3, 5, 6) is parallel to the slice" in str(errors[3])
        assert "facets (1, 2, 5) is parallel to the slice" in str(errors[7])
        assert errors[6] is None
        npt.assert_allclose(rays[6], intact[6], rtol=1e-13)
        scaled = replace(oracle.stack_row(stack, 12), facet_mat=f[6], coord_mat=coord_mat[6])
        with pytest.raises(NoIntersection, match=r"\(3, 5, 6\) are dependent"):
            oracle.facet_zero_ray_svd(scaled, specs[0])


# ===========================================================================
# the dual-pairing kernel against the scalar oracle
# ===========================================================================

def pairing_outcomes(stack, rows, pairs):
    """Per entry, ``("ok", angle)`` or (class, message) of one kernel call."""
    angles, errors = lorentz.dihedral_angles(
        stack.gram, stack.facet_mat, stack.model_errors, rows, pairs
    )
    return [("ok", a) if e is None else failure(e) for a, e in zip(angles.tolist(), errors)]


def oracle_outcome(stack, row, j, k):
    """The scalar route: the model's build failure, or the oracle's angle."""
    if stack.model_errors[row] is not None:
        return failure(stack.model_errors[row])
    return outcome(oracle.dihedral_angle, oracle.stack_row(stack, row), j, k)


def same(got, want):
    """Equal outcomes, a NaN angle equal to a NaN angle."""
    if got[0] == want[0] == "ok" and math.isnan(want[1]):
        return math.isnan(got[1])
    return got == want


class TestDualPairings:
    @given(n=st.sampled_from((5, 6)), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12))
    @settings(max_examples=120, deadline=None)
    def test_every_pairing_equals_the_scalar_oracle(self, n, seed, rows):
        """Generic and near-boundary models, random words, every ordered
        facet pair: each entry has the oracle's bits, class and message."""
        rng = np.random.default_rng(seed)
        thetas = oracle.boundary_weights(n, rng, rows)
        words = [tuple(int(m) + 1 for m in rng.permutation(n)) for _ in thetas]
        stack = build_models(angle_array(thetas), words)
        pairs = [(j, k) for j in range(1, n + 1) for k in range(1, n + 1) if j != k]
        entries = [(row, pair) for row in range(rows) for pair in pairs]
        got = pairing_outcomes(stack, [r for r, _ in entries], [p for _, p in entries])
        for (row, (j, k)), result in zip(entries, got):
            assert same(result, oracle_outcome(stack, row, j, k)), (row, j, k)

    @pytest.mark.parametrize("n", [5, 6])
    def test_one_pairing_is_the_one_entry_case(self, n):
        rng = np.random.default_rng(90 + n)
        for theta in oracle.boundary_weights(n, rng, 40):
            word = tuple(int(m) + 1 for m in rng.permutation(n))
            try:
                model = build_model(theta, word)
            except PolymodError:
                continue
            for j, k in [(1, 3), (2, 3), (n, 1), (3, 2)]:
                assert same(
                    outcome(dihedral_angle, model, j, k),
                    outcome(oracle.dihedral_angle, oracle.stack_row(model, 0), j, k),
                )

    def test_planted_rows_fail_as_the_scalar_code(self):
        """One stack holds, between intact models: a failed model whose Gram
        matrix is singular (it enters the inverse masked, so no LinAlgError),
        a model failing its own build, tangent facets (0.0), disjoint facets
        and normals that are not spacelike."""
        ident = (1, 2, 3, 4, 5, 6)
        thetas = [sample_weight(6, seed) for seed in range(4)]
        thetas.insert(1, WeightVector(6, (math.nan, 1.0, 1.0, 1.0, 1.0, 1.0)))  # DegenerateTriangle
        thetas.insert(3, equal_weight(6))  # adjacent facets are tangent
        stack = build_models(angle_array(thetas), [ident] * len(thetas))
        gram, facet_mat = stack.gram.copy(), stack.facet_mat.copy()
        errors = list(stack.model_errors)
        gram[4] = 0.0  # singular, and its model failed
        errors[4] = SignatureMismatch("planted")
        # Row 5, facet 2: a timelike normal (the area form's positive
        # eigenvector), so f G^-1 f > 0.
        values, vectors = np.linalg.eigh(gram[5])
        facet_mat[5, 1] = vectors[:, -1]
        planted = replace(stack, gram=gram, facet_mat=facet_mat, model_errors=errors)
        pairs = [(1, 3), (1, 2), (2, 4), (6, 1)]
        entries = [(row, pair) for row in range(len(thetas)) for pair in pairs]
        got = pairing_outcomes(planted, [r for r, _ in entries], [p for _, p in entries])
        kinds = set()
        for (row, (j, k)), result in zip(entries, got):
            if errors[row] is not None:
                want = failure(errors[row])
            else:
                model = replace(oracle.stack_row(stack, row), gram=gram[row], facet_mat=facet_mat[row])
                want = outcome(oracle.dihedral_angle, model, j, k)
            assert same(result, want), (row, j, k)
            kinds.add(result[0] if result[0] != "ok" else ("tangent" if result[1] == 0.0 else "ok"))
        assert got[4 * 4] == ("SignatureMismatch", "planted")
        assert got[1 * 4][0] == "DegenerateTriangle"
        assert got[5 * 4 + 2] == ("SignatureMismatch", "facet normals are not spacelike")
        assert got[3 * 4 + 1] == ("ok", 0.0)
        assert kinds == {"ok", "tangent", "FacetsDisjoint", "SignatureMismatch", "DegenerateTriangle"}

    def test_a_pair_it_cannot_read_is_out_of_range(self):
        stack = build_models(angle_array([equal_weight(5)]), [(1, 2, 3, 4, 5)])
        for pair in [(1, 1), (0, 2), (1.5, 3), (2, 6)]:
            with pytest.raises(OutOfRange, match="need two distinct facet indices in 1..5"):
                lorentz.dihedral_angles(stack.gram, stack.facet_mat, stack.model_errors, [0], [pair])

    def test_singular_edges_sum_the_scalar_angles(self, monkeypatch):
        """The cone angles of the singular-edge report are the scalar
        oracle's angles, summed in the report's order: the kernel's values
        replaced by the oracle's give the same report."""
        from types import SimpleNamespace

        from polymod import build_complex, singular_edges

        theta = validate_weight((0.7, 0.8, 1.0, 1.3, 1.1, 2 * math.pi - 4.9))
        kernel = lorentz.dihedral_angles

        def scalar(gram, facet_mat, model_errors, rows, pairs):
            angles, errors = kernel(gram, facet_mat, model_errors, rows, pairs)
            for e, (row, (j, k)) in enumerate(zip(rows, pairs)):
                model = SimpleNamespace(n=6, gram=gram[row], facet_mat=facet_mat[row])
                kind, value = outcome(oracle.dihedral_angle, model, j, k)
                assert (kind == "ok") == (errors[e] is None)
                angles[e] = value if kind == "ok" else angles[e]
            return angles, errors

        for weights in (theta, validate_weight((0.9, 0.9, 0.9, 1.2, 1.2, 2 * math.pi - 5.1))):
            report = singular_edges(build_complex(6, weights))
            assert report["classes"] == 30
            monkeypatch.setattr(lorentz, "dihedral_angles", scalar)
            assert singular_edges(build_complex(6, weights)) == report
            monkeypatch.setattr(lorentz, "dihedral_angles", kernel)
