"""Run configuration, pipeline orchestration, and deterministic serializers.

Reports are plain dicts of native types, serialized with sorted keys and no
timestamps, so identical configurations produce byte-identical files; the
provenance header carries a hash of the configuration instead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import construction as con
from . import faces as fc
from . import lifting as lf
from . import niceness as nn
from .linalg import DomainError, Tolerance

SCHEMA_VERSION = 1

_ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class RunConfig:
    samples_per_curve: int = 512
    theta_grid_size: int = 64
    eq_abs: float = 1e-9
    eps_list: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    control: bool = False
    out: str | None = None

    def __post_init__(self):
        if self.samples_per_curve < 8 or self.theta_grid_size < 8:
            raise DomainError("sample counts must be at least 8")
        Tolerance(eq_abs=self.eq_abs)  # positive and finite, else DomainError
        object.__setattr__(self, "eps_list", nn.validate_eps(self.eps_list))

    @property
    def tol(self):
        return Tolerance(eq_abs=self.eq_abs)


def semantic_config(config):
    """Computation-relevant parameters only; output paths do not affect
    results and stay out of the report and its hash."""
    cfg = asdict(config)
    cfg.pop("out", None)
    return cfg


def config_hash(config):
    payload = json.dumps(semantic_config(config), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def _native(obj):
    """Recursively convert report values to JSON-native types."""
    if isinstance(obj, dict):
        return {str(k): _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_native(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_native(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    return obj


def render_json(obj):
    return json.dumps(_native(obj), sort_keys=True, indent=2) + "\n"


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_json(obj))


# --------------------------------------------------------------------------
# shared construction of grids and bodies

def _grids(config):
    """The theta grid, which also carries the singleton faces, and the
    per-curve sample grids holding every face anchor."""
    thetas = con.theta_grid(config.theta_grid_size)
    partners = np.array([con.partner_param(th) for th in thetas])
    base = con.curve_grid(config.samples_per_curve)
    g_outer = np.unique(np.concatenate([base, thetas]))
    g_inner = np.unique(np.concatenate([base, partners, thetas]))
    # curves 1/4 carry the ruling parameter, curves 2/3 its partner
    return thetas, {1: g_outer, 2: g_inner, 3: g_inner, 4: g_outer}


def report_header(config):
    return {
        "schema": SCHEMA_VERSION,
        "config": semantic_config(config),
        "config_hash": config_hash(config),
    }


# --------------------------------------------------------------------------
# verify sections

def construction_section(config):
    tol = _ENDPOINT_TOL
    end_res = 0.0
    for i in con.CURVE_IDS:
        end_res = max(end_res, float(np.linalg.norm(con.curve_point(i, 0.0))))
        end_res = max(
            end_res,
            float(np.linalg.norm(con.curve_point(i, con.T_END) - con.ENDPOINTS[i])),
        )

    ts = np.linspace(0.0, con.T_END, 257)
    circle_res = max(
        float(np.abs(np.linalg.norm(con.curve_points(i, ts) - con.ARC_CENTERS[i], axis=1) - 1.0).max())
        for i in con.CURVE_IDS
    )

    grid = np.linspace(con.T_END / 1000, con.T_END, 1000)
    scan = con.scan_partner_cos(grid)
    end_hi = abs(scan.last_value - 1.0 / math.sqrt(2.0))
    end_lo = abs(con.partner_cos(1e-6) - 1.0)

    bij_hi = abs(con.partner_param(con.T_END) - con.T_END)
    bij_lo = con.partner_param(1e-18)  # limit value is 0

    offset_res = 0.0
    for th in np.linspace(con.T_END / 128, con.T_END, 128):
        r = con.ruling_data(th)  # re-validates both offset closed forms
        offset_res = max(offset_res, abs(r.offset - math.sin(th) * (1.0 - math.cos(r.t))))

    w = con.witness()
    # the cone's generators lie over the points of C' = 2C + SHIFT
    body = con.sample_body(con.curve_grid(64))
    gens = con.homogenize(body).generators
    affine_res = float(np.abs(gens[:, 1:] - con.scale_points(body.xyz)).max())

    passed = (
        end_res <= tol
        and circle_res <= tol
        and scan.strictly_decreasing
        and end_hi <= tol
        and end_lo <= 1e-5
        and bij_hi <= 1e-9
        and bij_lo <= 1e-6
        and offset_res <= tol
        and float(w.q @ w.u) == -5.0
        and affine_res == 0.0
    )
    return {
        "endpoint_residual": end_res,
        "unit_circle_residual": circle_res,
        "partner_cos_strictly_decreasing": scan.strictly_decreasing,
        "partner_cos_end_residual": end_hi,
        "partner_cos_origin_residual": end_lo,
        "bijection_top_residual": bij_hi,
        "bijection_origin_value": bij_lo,
        "offset_forms_residual": offset_res,
        "witness_dot": float(w.q @ w.u),
        "scaled_body_residual": affine_res,
        "pass": passed,
    }


def identity_grid_max(t_grid, theta_grid):
    """Max residual per identity over the full (t, theta) grid, vectorized
    over t for each theta; the arcs are evaluated on the t grid once."""
    curves = {i: con.curve_points(i, t_grid) for i in con.CURVE_IDS}
    maxima = {}
    for th in np.asarray(theta_grid, dtype=float):
        for k, v in fc.identity_suite(t_grid, th, curves).items():
            maxima[k] = max(maxima.get(k, 0.0), float(v.max()))
    return maxima


def identity_section(config, n=100):
    t_grid = np.linspace(0.0, con.T_END, n)
    theta_grid = np.linspace(con.T_END / n, con.T_END, n)
    maxima = identity_grid_max(t_grid, theta_grid)
    worst = max(maxima.values())
    return {
        "grid": [n, n],
        "max_residuals": maxima,
        "worst": worst,
        "pass": worst <= config.eq_abs,
    }


def _exposure(config, lifted):
    """One pass of the exposure kernel over the catalogue on one body
    sampled on the config's grids: (face, pair, report) rows on C and, when
    lifted, the cone over C' with the reports of the lifted pairs (else
    None, None)."""
    thetas, grids = _grids(config)
    catalogue = fc.build_catalogue(thetas)
    body = con.sample_body(grids)
    reports, lifted_reports = fc.verify_catalogue(catalogue, body, lifted, tol=config.tol)
    rows = [(face, pair, rep) for (face, pair), rep in zip(catalogue, reports)]
    return rows, con.homogenize(body) if lifted else None, lifted_reports


def face_section(face_rows):
    counts, failures = {}, []
    worst_res = 0.0
    min_margin = math.inf
    for face, _, rep in face_rows:
        counts[face.kind] = counts.get(face.kind, 0) + 1
        worst_res = max(worst_res, rep.max_onface_residual)
        min_margin = min(min_margin, min(rep.margins.values()))
        if not rep.passed:
            failures.append(rep.face_label)
    return {
        "kind_counts": counts,
        "n_faces": len(face_rows),
        "worst_onface_residual": worst_res,
        "min_margin": min_margin,
        "failures": failures,
        "pass": not failures,
    }


def homogenization_section(config, cone, lifted_reports):
    failures = []
    worst_res = 0.0
    for rep in lifted_reports:
        worst_res = max(worst_res, rep.max_onface_residual)
        if not rep.passed:
            failures.append(rep.face_label)

    apex = lf.apex_exposure_report(cone)

    square = lf.polar_correspondence_check(
        lf.square_body(16), lf.unit_circle_grid(256), interior_margin=0.5, tol=config.tol
    )
    disc_samples = lf.unit_circle_grid(256)
    disc = lf.polar_correspondence_check(
        disc_samples, lf.unit_circle_grid(128), interior_margin=0.5, tol=config.tol
    )
    # radius probe at the disc's sampling tolerance: between-sample direction
    probe_dir = np.array([math.cos(math.pi / 256), math.sin(math.pi / 256)])
    sup_in = float(lf.support_values(disc_samples, [(1 - 1e-3) * probe_dir])[0])
    sup_out = float(lf.support_values(disc_samples, [(1 + 1e-3) * probe_dir])[0])
    disc_probe_ok = sup_in <= 1.0 < sup_out

    passed = (
        not failures
        and apex["passed"]
        and square.passed
        and disc.passed
        and disc_probe_ok
    )
    return {
        "lift_failures": failures,
        "worst_lifted_residual": worst_res,
        "apex": apex,
        "square_polar": {
            "max_membership_residual": square.max_membership_residual,
            "min_sharpness_violation": square.min_sharpness_violation,
            "pass": square.passed,
        },
        "disc_polar": {
            "max_membership_residual": disc.max_membership_residual,
            "min_sharpness_violation": disc.min_sharpness_violation,
            "probe_inside_support": sup_in,
            "probe_outside_support": sup_out,
            "probe_pass": disc_probe_ok,
            "pass": disc.passed and disc_probe_ok,
        },
        "pass": passed,
    }


def niceness_section(config):
    basis = nn.perp_basis(nn.face_slice_points())
    target = np.array([1.0, 0.0, 0.0, -2.0]) / math.sqrt(5.0)
    cosine = min(1.0, abs(float(basis[0] @ target)))
    angular_error = math.acos(cosine)

    sweep = nn.divergence_sweep(
        config.eps_list, samples_per_curve=config.samples_per_curve, tol=config.tol
    )
    control = nn.divergence_sweep(
        config.eps_list, samples_per_curve=config.samples_per_curve,
        control=True, tol=config.tol,
    )

    rng = np.random.default_rng(11)
    for t, lam in zip(rng.uniform(0, con.T_END, 64), rng.uniform(-5, 5, 64)):
        nn.witness_slack(float(t), float(lam))  # raises if the identity breaks

    gamma1_dominates = all(
        row[3] == 1 for row in sweep.table if row[0] < 0.1 and row[3] is not None
    )

    passed = (
        len(basis) == 1
        and angular_error < 1e-9
        and sweep.in_closure
        and sweep.verdict == "NotNiceEvidence"
        and control.verdict == "Inconclusive"
        and gamma1_dominates
    )
    return {
        "perp_basis": basis[0],
        "perp_angular_error": angular_error,
        "closure": {
            "max_curve3_value": sweep.closure.max_curve3_value,
            "max_curve4_value": sweep.closure.max_curve4_value,
            "max_identity_residual": sweep.closure.max_identity_residual,
            "in_closure": sweep.in_closure,
        },
        "sweep_table": [list(r) for r in sweep.table],
        "fitted_exponent": sweep.fitted_exponent,
        "verdict": sweep.verdict,
        "dual_form_note": sweep.dual_form_note,
        "control_verdict": control.verdict,
        "control_products": [r[2] for r in control.table],
        "gamma1_dominates": gamma1_dominates,
        "witness_slack_identity_checks": 64,
        "pass": passed,
    }


def run_verify(config):
    report = report_header(config)
    sections = {}
    sections["construction"] = construction_section(config)
    sections["identity_suite"] = identity_section(config)
    face_rows, cone, lifted_reports = _exposure(config, lifted=True)
    sections["face_exposure"] = face_section(face_rows)
    sections["homogenization"] = homogenization_section(config, cone, lifted_reports)
    sections["niceness"] = niceness_section(config)
    failures = [name for name, sec in sections.items() if not sec["pass"]]
    report["sections"] = sections
    report["failures"] = failures
    report["overall"] = "pass" if not failures else "fail"
    return report


def run_faces(config):
    face_rows, _, _ = _exposure(config, lifted=False)
    summary = face_section(face_rows)
    atlas = report_header(config)
    atlas["faces"] = [
        {
            "kind": face.kind,
            "dimension": face.dimension,
            "param": face.param,
            "partner": face.partner,
            "generators": [
                {"curve": i, "t": t, "point": point}
                for i, t, point in fc.face_samples(face)
            ],
            "full_curves": list(face.full_curves),
            "pair": {
                "normal": pair.normal,
                "offset": pair.offset,
                "provenance": fc.CLOSED_FORM,
            },
            "report": {
                "max_onface_residual": rep.max_onface_residual,
                "margins": rep.margins,
                "onface_count": rep.onface_count,
                "verdict": rep.verdict,
            },
        }
        for face, pair, rep in face_rows
    ]
    atlas["kind_counts"] = summary["kind_counts"]
    atlas["failed_reports"] = len(summary["failures"])
    return atlas


def run_sweep(config):
    verdict = nn.divergence_sweep(
        config.eps_list,
        samples_per_curve=config.samples_per_curve,
        control=config.control,
        tol=config.tol,
    )
    out = report_header(config)
    out["rows"] = [list(r) for r in verdict.table]
    out["verdict"] = verdict.verdict
    out["fitted_exponent"] = verdict.fitted_exponent
    out["in_closure"] = verdict.in_closure
    return out


def write_sweep_csv(path, sweep):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "lambda_star", "product", "achieving_curve", "achieving_t"])
        for eps, lam, product, cid, t in sweep["rows"]:
            writer.writerow([
                f"{eps:.17g}",
                "" if lam is None else f"{lam:.17g}",
                "" if product is None or not math.isfinite(product) else f"{product:.17g}",
                "" if cid is None else cid,
                "" if t is None else f"{t:.17g}",
            ])
        writer.writerow([f"# verdict={sweep['verdict']}"])


def run_nice3d(config):
    out = report_header(config)
    for name, example in (("octant", nn.octant_example()),
                          ("half_disc", nn.half_disc_cone_example())):
        rep = asdict(nn.nice3d_ingredients(*example, tol=config.tol))
        rep["pass"] = rep.pop("passed")
        out[name] = rep
    cone, p1, p2, _, _ = nn.octant_example()
    try:
        nn.nice3d_ingredients(cone, p1, p2, np.array([0.0, 0.0, 1.0]),
                              np.array([1.0, 0.0, 1.0]), n_samples=8)
        rejection = False
    except DomainError:
        rejection = True
    out["perp_normal_rejected"] = rejection
    out["pass"] = bool(out["octant"]["pass"] and out["half_disc"]["pass"] and rejection)
    return out
