"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none deferred.
"""

import json
import math
import time

import numpy as np
import pytest

from conelab import construction as con
from conelab import faces as fc
from conelab import lifting as lf
from conelab import meshes
from conelab import niceness as nn
from conelab import reporting
from conelab.cli import main
from conelab.linalg import DomainError
from helpers import check_positivity_window, positivity_window

T = con.T_END
DELTAS = (0.01, 0.05, 0.1)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_setup():
    """Catalogue and body at the acceptance scale (512/64)."""
    config = reporting.RunConfig()  # 512 samples per curve, 64 ruling values
    thetas, grids = reporting._grids(config)
    body = con.sample_body(grids)
    catalogue = fc.build_catalogue(thetas)
    return {"config": config, "body": body, "catalogue": catalogue}


def test_criterion_1_construction_fidelity():
    start = time.perf_counter()
    worst = 0.0
    for i in con.CURVE_IDS:
        worst = max(worst, float(np.linalg.norm(con.curve_point(i, 0.0))))
        worst = max(worst, float(np.linalg.norm(con.curve_point(i, T) - con.ENDPOINTS[i])))
    scan = con.scan_partner_cos(np.linspace(T / 1000, T, 1000))
    end_high = abs(scan.last_value - 1.0 / math.sqrt(2.0))
    toward_one = abs(con.partner_cos(1e-6) - 1.0)
    elapsed = time.perf_counter() - start
    ok = (
        worst <= 1e-12
        and scan.strictly_decreasing
        and end_high <= 1e-12
        and con.partner_cos(T / 1000) < 1.0
        and toward_one <= 1e-5
        and elapsed < 1.0
    )
    report(1, "construction fidelity", ok,
           f"endpoint residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_identity_suite():
    start = time.perf_counter()
    maxima = reporting.identity_grid_max(
        np.linspace(0.0, T, 100), np.linspace(T / 100, T, 100)
    )
    elapsed = time.perf_counter() - start
    worst = max(maxima.values())
    ok = len(maxima) == 6 and worst <= 1e-12 and elapsed < 5.0
    report(2, "identity suite 100x100", ok, f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_face_exposure(default_setup):
    catalogue = default_setup["catalogue"]
    reports = fc.verify_catalogue(catalogue, default_setup["body"], deltas=DELTAS)[0]
    failures = []
    for rep in reports:
        checks = rep.max_onface_residual <= 1e-9 and all(
            rep.margins[d] > 0.0 for d in DELTAS
        )
        if not (rep.passed and checks):
            failures.append(rep.face_label)
    ok = not failures
    report(3, "face exposure 512/64", ok,
           f"{len(catalogue)} faces, {len(failures)} failures")


def test_criterion_4_homogenization(default_setup):
    failures = []
    for rep in fc.verify_catalogue(default_setup["catalogue"], default_setup["body"],
                                   lifted=True, deltas=DELTAS)[1]:
        if not (rep.passed and rep.max_onface_residual <= 1e-9
                and all(rep.margins[d] > 0.0 for d in DELTAS)):
            failures.append(rep.face_label)

    square = lf.polar_correspondence_check(
        lf.square_body(16), lf.unit_circle_grid(256), interior_margin=0.5
    )
    disc_samples = lf.unit_circle_grid(256)
    disc = lf.polar_correspondence_check(
        disc_samples, lf.unit_circle_grid(128), interior_margin=0.5
    )
    # disc radius discrimination at the stated 1e-3 sampling tolerance
    probe_ok = True
    for direction in lf.unit_circle_grid(17):
        sup_in = float(lf.support_values(disc_samples, [(1 - 1e-3) * direction])[0])
        sup_out = float(lf.support_values(disc_samples, [(1 + 1e-3) * direction])[0])
        probe_ok &= sup_in <= 1.0 < sup_out
    ok = not failures and square.passed and disc.passed and probe_ok
    report(4, "homogenization and polars", ok,
           f"{len(failures)} lift failures, disc probe {'ok' if probe_ok else 'bad'}")


def test_criterion_5_perp_space():
    basis = nn.perp_basis(nn.face_slice_points())
    target = np.array([1.0, 0.0, 0.0, -2.0]) / math.sqrt(5.0)
    angle = math.acos(min(1.0, abs(float(basis[0] @ target))))
    ok = basis.shape == (1, 4) and angle < 1e-9
    report(5, "face complement computation", ok, f"angular error {angle:.2e} rad")


def test_criterion_6_non_niceness_evidence():
    start = time.perf_counter()
    sweep = nn.divergence_sweep([1e-1, 1e-2, 1e-3, 1e-4])
    control = nn.divergence_sweep([1e-1, 1e-2, 1e-3, 1e-4], control=True)
    elapsed = time.perf_counter() - start
    products = [row[2] for row in sweep.table]
    ok = (
        all(0.9 <= p <= 1.1 for p in products[-2:])
        and sweep.closure.max_curve3_value <= 0.0
        and sweep.closure.max_curve4_value <= 0.0
        and sweep.in_closure
        and sweep.verdict == "NotNiceEvidence"
        and control.verdict == "Inconclusive"
        and elapsed < 10.0
    )
    report(6, "non-niceness divergence", ok,
           f"products {products[-2]:.4f}/{products[-1]:.4f}, {elapsed:.2f}s")


def test_criterion_7_positivity_window():
    rng = np.random.default_rng(17)
    exact = positivity_window(-5.0) == math.pi / 2.0 and \
        positivity_window(0.0) == math.pi / 2.0
    sound = all(
        check_positivity_window(float(a))[0]
        for a in rng.uniform(-10.0, 10.0, 100)
    )
    ok = exact and sound
    report(7, "positivity window soundness", ok, "100 random coefficients")


def test_criterion_8_three_dimensional_ingredients():
    octant = nn.nice3d_ingredients(*nn.octant_example(), n_samples=1200)
    half_disc = nn.nice3d_ingredients(*nn.half_disc_cone_example(), n_samples=1200)
    cone, p1, p2, _, h2 = nn.octant_example()
    try:
        nn.nice3d_ingredients(cone, p1, p2, np.array([0.0, 0.0, 1.0]), h2, n_samples=8)
        rejection = False
    except DomainError:
        rejection = True
    ok = (
        octant.passed and half_disc.passed
        and octant.sign_pattern_ok and half_disc.sign_pattern_ok
        and octant.agreement_checked >= 1000 and half_disc.agreement_checked >= 1000
        and octant.agreement_failures == 0 and half_disc.agreement_failures == 0
        and rejection
    )
    report(8, "3D closedness ingredients", ok,
           f"agreement {octant.agreement_checked}+{half_disc.agreement_checked} points")


def test_criterion_9_cli_contract(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["verify", "--out", str(out1)])
    code2 = main(["verify", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())

    obj = tmp_path / "body.obj"
    mesh_code = main(["mesh", "--which", "C", "--samples", "64", "--out", str(obj)])
    verts, tris = meshes.read_obj(obj)
    convex = meshes.convexity_check(verts, tris)

    ok = (
        code1 == 0 and code2 == 0 and identical
        and rep["schema"] == 1 and rep["overall"] == "pass"
        and mesh_code == 0 and convex.passed
    )
    report(9, "CLI verify/mesh contract", ok,
           f"exit {code1}, identical {identical}, convexity {convex.passed}")
