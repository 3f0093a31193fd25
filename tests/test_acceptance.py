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
from conelab import meshes
from conelab import niceness as nn
from conelab import reporting
from conelab.cli import main
from conelab.linalg import DomainError
from helpers import (
    ENDPOINTS,
    check_positivity_window,
    exposure_reports,
    face_rows,
    face_slice_points,
    identity_suite,
    positivity_window,
    reference_verify_cone_exposure,
    sample_cone,
    verification_grids,
)
from test_certificate import lift_identity_misses

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
    """Catalogue and sample grids at the acceptance scale (512/64)."""
    config = reporting.RunConfig()  # 64 ruling values
    catalogue, grids = verification_grids(config.theta_grid_size, 512)
    return {"config": config, "grids": grids, "catalogue": catalogue}


def test_criterion_1_construction_fidelity():
    start = time.perf_counter()
    worst = 0.0
    for i in con.CURVE_IDS:
        worst = max(worst, float(np.linalg.norm(con.curve_points(i, 0.0))))
        worst = max(worst, float(np.linalg.norm(con.curve_points(i, T) - ENDPOINTS[i])))
    cosines = np.array([con.partner_cos(t) for t in np.linspace(T / 1000, T, 1000)])
    end_high = abs(cosines[-1] - 1.0 / math.sqrt(2.0))
    toward_one = abs(con.partner_cos(1e-6) - 1.0)
    elapsed = time.perf_counter() - start
    ok = (
        worst <= 1e-12
        and bool(np.all(np.diff(cosines) < 0))
        and end_high <= 1e-12
        and con.partner_cos(T / 1000) < 1.0
        and toward_one <= 1e-5
        and elapsed < 1.0
    )
    report(1, "construction fidelity", ok,
           f"endpoint residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_identity_suite():
    start = time.perf_counter()
    residuals = identity_suite(np.linspace(0.0, T, 100), np.linspace(T / 100, T, 100))
    maxima = {k: float(v.max()) for k, v in residuals.items()}
    elapsed = time.perf_counter() - start
    worst = max(maxima.values())
    ok = len(maxima) == 6 and worst <= 1e-12 and elapsed < 5.0
    report(2, "identity suite 100x100", ok, f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_face_exposure(default_setup):
    catalogue = default_setup["catalogue"]
    reports = exposure_reports(catalogue, deltas=DELTAS)
    failures = []
    for rep in reports:
        checks = rep.max_onface_residual <= 1e-9 and all(
            rep.margins[d] > 0.0 for d in DELTAS
        )
        if not (rep.passed and checks):
            failures.append(rep.face_label)
    ok = not failures
    report(3, "face exposure 512/64", ok,
           f"{len(catalogue.kinds)} faces, {len(failures)} failures")


def test_criterion_4_homogenization(default_setup):
    # every lifted pair checked face by face on the generators of the cone
    # over C', and the lift identity, exact on the unit cube of its scalars
    cone = sample_cone(default_setup["grids"])
    failures = []
    for face, pair in face_rows(default_setup["catalogue"]):
        lift = con.lift_pairs([pair.normal], [pair.offset])[0]
        rep = reference_verify_cone_exposure(lift, cone.generators, cone.ids, cone.ts, face,
                                             deltas=DELTAS)
        if not (rep.passed and rep.max_onface_residual <= 1e-9
                and all(rep.margins[d] > 0.0 for d in DELTAS)):
            failures.append(rep.face_label)
    misses = lift_identity_misses()
    ok = not failures and not misses
    report(4, "lifted exposure", ok,
           f"{len(failures)} lift failures, lift identity exact at "
           f"{128 - len(misses)}/128 cube points")


def test_criterion_5_perp_space():
    # u is orthogonal to the three slice points exactly, and they span a 3D
    # subspace of R^4, so F_perp = span{u}
    pts = face_slice_points()
    products = pts @ con.WITNESS_U
    rank = int(np.linalg.matrix_rank(pts))
    ok = bool(np.all(products == 0.0)) and rank == 3
    report(5, "face complement computation", ok,
           f"max |<u, p>| {np.abs(products).max():.1e}, slice rank {rank}")


def test_criterion_6_non_niceness_evidence():
    start = time.perf_counter()
    sweep = nn.divergence_sweep([1e-1, 1e-2, 1e-3, 1e-4])
    control = nn.divergence_sweep([1e-1, 1e-2, 1e-3, 1e-4], control=True)
    elapsed = time.perf_counter() - start
    products = [row[2] for row in sweep["rows"]]
    ok = (
        all(0.9 <= p <= 1.1 for p in products[-2:])
        and sweep["closure"]["max_curve3_value"] <= 0.0
        and sweep["closure"]["max_curve4_value"] <= 0.0
        and sweep["closure"]["in_closure"]
        and sweep["verdict"] == "NotNiceEvidence"
        and control["verdict"] == "Inconclusive"
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
    octant = nn.nice3d_ingredients(*nn.octant_example())
    half_disc = nn.nice3d_ingredients(*nn.half_disc_cone_example())
    cone, p1, p2, _, h2 = nn.octant_example()
    try:
        nn.nice3d_ingredients(cone, p1, p2, np.array([0.0, 0.0, 1.0]), h2)
        rejection = False
    except DomainError:
        rejection = True
    multipliers = octant["multipliers"] + half_disc["multipliers"]
    ok = (
        octant["pass"] and half_disc["pass"]
        and octant["sign_pattern_ok"] and half_disc["sign_pattern_ok"]
        and min(multipliers) > 0.0
        and rejection
    )
    report(8, "3D closedness ingredients", ok,
           f"multipliers {min(multipliers):.4g}..{max(multipliers):.4g}, "
           "certificate decided exactly")


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
