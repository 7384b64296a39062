"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints a single PASS line on success (visible with ``-s``); under
``pytest -v`` the per-test PASSED/FAILED row serves as the same record.
"""

import cmath
import math
from itertools import combinations

import numpy as np
import pytest

from polymod import (
    InconsistentPair,
    build_complex,
    cli,
    complete_triangle,
    cusp_classes,
    dumps_canonical,
    equal_weight,
    euler_characteristic,
    fiber_theta5,
    fiber_theta6,
    psi5,
    psi6,
    validate_weight,
)
from polymod.combinatorics import sample_weight_rng
from polymod.errors import NotInTheta, SlideCollision
from polymod.fiber import IDENTITY5, IDENTITY6, SWAPPED6, invert6
from polymod.verify import run_suite

from weights import sample_weight, triple_sums

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
PI = math.pi


def announce(name):
    print(f"ACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# 1. pentagon roundtrip: 1000 weight vectors, recovery below 1e-9, no failures
# ---------------------------------------------------------------------------

def test_criterion_1_pentagon_roundtrip():
    report = run_suite("roundtrip", 5, samples=1000, seed=0, tol=1e-9, jobs=2)
    assert report["failures"] == []
    assert report["pass"] is True
    assert report["max_error"] < 1e-9
    announce("1 pentagon roundtrip (1000 samples)")


# ---------------------------------------------------------------------------
# 2. hexahedron roundtrip, including consistency of both R parameters
# ---------------------------------------------------------------------------

def test_criterion_2_hexahedron_roundtrip():
    report = run_suite("roundtrip", 6, samples=1000, seed=0, tol=1e-9, jobs=2)
    assert report["failures"] == []
    assert report["pass"] is True
    assert report["max_error"] < 1e-9
    # R-consistency: the circle solve never sees R, so only the forward
    # verification can catch a corrupted one - and it must.
    theta = sample_weight(6, 31)
    s1 = psi6(theta, IDENTITY6)
    s2 = psi6(theta, SWAPPED6)
    corrupted = type(s2)(P=s2.P, Q=s2.Q, R=s2.R * 1.1)
    with pytest.raises(InconsistentPair):
        invert6(s1, corrupted)
    announce("2 hexahedron roundtrip incl. R consistency (1000 samples)")


# ---------------------------------------------------------------------------
# 3. equal-weight shapes against independently derived constants
# ---------------------------------------------------------------------------

def test_criterion_3_equal_weight_shapes():
    # independent oracle: the equal-weight pentagon side satisfies
    # cosh(length) = (1 + sqrt(5)) / 2, hence P = Q = tanh(acosh(golden))
    want5 = math.tanh(math.acosh(GOLDEN))
    assert abs(want5 - GOLDEN ** -0.5) < 1e-15  # same number, two derivations
    shape5 = psi5(equal_weight(5))
    assert abs(shape5.P - want5) <= 1e-9
    assert abs(shape5.Q - want5) <= 1e-9

    shape6 = psi6(equal_weight(6))
    for val in shape6.params:
        assert abs(val - 1.0) <= 1e-9
    announce("3 equal-weight shapes vs closed-form constants")


# ---------------------------------------------------------------------------
# 4. sign rule: triple sums against parameter positions, with the zero band
# ---------------------------------------------------------------------------

def _band_checks(theta):
    shape = psi6(theta, IDENTITY6)
    for s, p in zip(triple_sums(theta, IDENTITY6), shape.params):
        assert (abs(s - PI) < 1e-9) == (abs(p - 1.0) < 1e-6)
        if abs(s - PI) >= 1e-9:
            assert (s > PI) == (p > 1.0)


def test_criterion_4_sign_rule():
    for trial in range(1000):
        rng = np.random.default_rng([202, trial])
        _band_checks(sample_weight_rng(6, rng))
    # constructed zero-band cases: every triple sum exactly pi ...
    _band_checks(equal_weight(6))
    # ... and exactly one triple sum at pi, the others clearly off it
    mixed = validate_weight((0.9, 1.1, PI - 2.0, 1.0, 0.8, PI - 1.8))
    sums = triple_sums(mixed, IDENTITY6)
    assert abs(sums[1] - PI) < 1e-12 and abs(sums[0] - PI) > 1e-3
    _band_checks(mixed)
    announce("4 sign rule with zero band (1000 samples + edge cases)")


# ---------------------------------------------------------------------------
# 5. planar route and Lorentzian route agree to 1e-9 relative
# ---------------------------------------------------------------------------

def test_criterion_5_cross_route():
    for n in (5, 6):
        report = run_suite("crossroute", n, samples=500, seed=0, tol=1e-9, jobs=2)
        assert report["pass"] is True, report["failures"][:3]
        assert report["max_error"] < 1e-9
    announce("5 planar vs Lorentzian agreement (500 samples each n)")


# ---------------------------------------------------------------------------
# 6. area-form signature and mandated right angles
# ---------------------------------------------------------------------------

def test_criterion_6_signature_and_orthogonality():
    for n in (5, 6):
        signature = run_suite("signature", n, samples=500, seed=0, tol=1e-9, jobs=2)
        assert signature["pass"] is True, signature["failures"][:3]
        ortho = run_suite("orthogonality", n, samples=500, seed=0, tol=1e-9, jobs=2)
        assert ortho["pass"] is True, ortho["failures"][:3]
        assert ortho["max_error"] < 1e-9
    announce("6 signature (1, n-3) and right angles (500 samples each n)")


# ---------------------------------------------------------------------------
# 7. exact combinatorial counts of the glued complexes
# ---------------------------------------------------------------------------

def test_criterion_7_complex_counts():
    comp5 = build_complex(5)
    assert comp5.num_cells == 12
    assert comp5.num_pairings == 30
    assert len(comp5.vertex_classes) == 15
    assert all(len(g) == 4 for g in comp5.vertex_classes)
    assert euler_characteristic(comp5) == -3

    comp6 = build_complex(6)
    assert comp6.num_cells == 60
    assert comp6.num_pairings == 180
    cusps = cusp_classes(comp6)
    assert cusps["classes"] == 10
    assert all(row["incidences"] == 18 for row in cusps["table"])
    partitions = []
    for triple in combinations(range(1, 7), 3):
        if 1 in triple:
            rest = sorted(set(range(1, 7)) - set(triple))
            partitions.append(sorted([sorted(triple), rest]))
    assert [row["partition"] for row in cusps["table"]] == sorted(partitions)
    announce("7 exact complex counts (V/E/F, cells, pairings, cusps)")


# ---------------------------------------------------------------------------
# 8. moving along the fiber preserves the shape; distinct fiber points differ
# ---------------------------------------------------------------------------

def test_criterion_8_fiber_projection():
    for n in (5, 6):
        psi = psi5 if n == 5 else psi6
        fiber = fiber_theta5 if n == 5 else fiber_theta6
        ident = IDENTITY5 if n == 5 else IDENTITY6
        for trial in range(200):
            rng = np.random.default_rng([77, trial])
            theta = sample_weight_rng(n, rng)
            shape = psi(theta)
            w0 = complete_triangle(theta, ident).apex[0]
            direction = cmath.exp(1j * rng.uniform(0.0, 2.0 * PI))
            moved = None
            for delta in (1e-4, 1e-6, 1e-8):
                try:
                    moved = fiber(shape, w0 + delta * direction)
                    break
                except (NotInTheta, SlideCollision):
                    continue
            assert moved is not None, (n, trial)
            reprojected = psi(moved)
            first = (shape.P, shape.Q) if n == 5 else shape.params
            second = (
                (reprojected.P, reprojected.Q) if n == 5 else reprojected.params
            )
            assert max(abs(a - b) for a, b in zip(first, second)) <= 1e-9
            assert max(
                abs(a - b) for a, b in zip(theta.theta, moved.theta)
            ) > 1e-12
    announce("8 fiber moves preserve shape, distinct w distinct theta (200/n)")


# ---------------------------------------------------------------------------
# 9. verification and sweep outputs are byte-identical across runs and jobs
# ---------------------------------------------------------------------------

def test_criterion_9_deterministic_outputs(tmp_path, capsys):
    for n in (5, 6):
        serial = dumps_canonical(
            run_suite("all", n, samples=40, seed=5, tol=1e-9, jobs=1)
        )
        parallel = dumps_canonical(
            run_suite("all", n, samples=40, seed=5, tol=1e-9, jobs=2)
        )
        repeat = dumps_canonical(
            run_suite("all", n, samples=40, seed=5, tol=1e-9, jobs=1)
        )
        assert serial == parallel == repeat

    src = tmp_path / "thetas.csv"
    src.write_text(
        "2pi/5,2pi/5,2pi/5,2pi/5,2pi/5\n"
        "0.9,1.4,1.2,1.5,1.2831853071795865\n"
        "1.1,1.3,0.9,1.5,1.4831853071795865\n",
        encoding="utf-8",
    )
    outputs = []
    for run_idx in (1, 2):
        out = tmp_path / f"shapes{run_idx}.csv"
        code = cli.main(
            ["sweep", "--n", "5", "--input", str(src),
             "--label", "12345", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    announce("9 byte-identical verify and sweep outputs")
