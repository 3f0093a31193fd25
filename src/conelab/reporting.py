"""Run configuration, pipeline orchestration, and deterministic serializers.

Reports are plain dicts of native types, serialized with sorted keys and no
timestamps, so identical configurations produce byte-identical files; the
provenance header carries a hash of the configuration instead. That hash is
SHA-256 from the interpreter's own module (_sha2, or _sha256 before Python
3.12), as random.py takes sha512: hashlib would map OpenSSL's libcrypto,
~3.6 MB of every command's peak memory, for the same digest.
"""

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import construction as con
from . import faces as fc
from . import niceness as nn
from .linalg import DomainError, check_size

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    """The config that the verify and faces reports hash."""
    theta_grid_size: int = 64
    eps_list: tuple = (1e-1, 1e-2, 1e-3, 1e-4)

    def __post_init__(self):
        n = check_size(self.theta_grid_size, 8, "theta_grid_size")
        if n > fc.MAX_THETA_GRID:
            raise DomainError(f"theta_grid_size must be at most {fc.MAX_THETA_GRID}, past which "
                              f"F02/F03 margins fall under their rounding bound; got {n}")
        object.__setattr__(self, "theta_grid_size", n)
        eps = nn.validate_eps(self.eps_list)
        if len(eps) < nn.VERDICT_LEVELS:
            raise DomainError(f"verify needs at least {nn.VERDICT_LEVELS} refinement levels: "
                              f"the divergence verdict reads the last {nn.VERDICT_LEVELS}")
        object.__setattr__(self, "eps_list", eps)


def _native(obj):
    """Report values as JSON: keys as str, tuples as lists, non-finite floats as repr."""
    if isinstance(obj, dict):
        return {str(k): _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_native(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def render_json(obj):
    return json.dumps(_native(obj), sort_keys=True, indent=2) + "\n"


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_json(obj))


def report_header(config, *fields):
    """The schema, the config fields a command reads, and their hash."""
    knobs = {name: getattr(config, name) for name in fields}
    digest = sha256(json.dumps(knobs, sort_keys=True).encode()).hexdigest()[:12]
    return {"schema": SCHEMA_VERSION, "config": knobs, "config_hash": digest}


# --------------------------------------------------------------------------
# verify sections

def _exposure(config):
    """The catalogue over the config's theta grid, and its exposure verdicts
    over the whole arcs."""
    catalogue = fc.build_catalogue(con.theta_grid(config.theta_grid_size))
    return catalogue, fc.verify_catalogue(catalogue)


def face_section(catalogue, exposure):
    """Reduced from verify_catalogue's arrays; only failing faces get a label."""
    failures = [fc.face_label(catalogue, j) for j in np.flatnonzero(~exposure.passed).tolist()]
    return {
        "kind_counts": dict(Counter(catalogue.kinds)),
        "n_faces": len(catalogue.kinds),
        "worst_onface_residual": float(exposure.residuals.max()),
        "min_margin": float(exposure.margins.min()),
        "failures": failures,
        "pass": not failures,
    }


def niceness_section(config):
    """The sweep and its control. That curve 1 binds every row, and that the
    control's products stay below 0.17, are proven exactly in
    tests/test_certificate.py, so no field re-derives them."""
    sweep, control = (nn.divergence_sweep(config.eps_list, control=c) for c in (False, True))
    # divergence_sweep returns NotNiceEvidence only when the closure check passes
    passed = sweep["verdict"] == "NotNiceEvidence" and control["verdict"] == "Inconclusive"
    return {
        "closure": sweep["closure"],
        "sweep_table": sweep["rows"],
        "fitted_exponent": nn.fitted_exponent(sweep["rows"]),
        "verdict": sweep["verdict"],
        "dual_form_note": nn.DUAL_FORM_NOTE,
        "control_verdict": control["verdict"],
        "control_products": [r[2] for r in control["rows"]],
        "pass": passed,
    }


def run_verify(config):
    report = report_header(config, *asdict(config))
    catalogue, exposure = _exposure(config)
    sections = {
        "face_exposure": face_section(catalogue, exposure),
        "niceness": niceness_section(config),
    }
    failures = [name for name, sec in sections.items() if not sec["pass"]]
    report["sections"] = sections
    report["failures"] = failures
    report["overall"] = "pass" if not failures else "fail"
    return report


def run_faces(config):
    """The face atlas: the one place where each face gets a record."""
    catalogue, exposure = _exposure(config)
    summary = face_section(catalogue, exposure)
    atlas = report_header(config, "theta_grid_size")
    ids, ts = catalogue.gen_ids, catalogue.gen_ts
    generators = [{"curve": i, "t": t, "point": point} for i, t, point in
                  zip(ids.tolist(), ts.tolist(), fc.generator_points(ids, ts).tolist())]
    ends = np.cumsum(catalogue.sizes).tolist()
    atlas["faces"] = [
        {
            "kind": kind,
            "dimension": int(kind[1]),
            "param": None if math.isnan(param) else param,
            "partner": None if math.isnan(partner) else partner,
            "generators": generators[stop - size:stop],
            "full_curves": [i for i, on in zip(con.CURVE_IDS, full) if on],
            "pair": {
                "normal": normal,
                "offset": offset,
                "provenance": fc.CLOSED_FORM,
            },
            "report": {
                "max_onface_residual": residual,
                "margins": dict(zip(fc.MARGIN_DELTAS, margins)),
                "verdict": "pass" if ok else "fail",
            },
        }
        for kind, param, partner, size, stop, full, normal, offset, residual, margins, ok
        in zip(catalogue.kinds, catalogue.params.tolist(), catalogue.partners.tolist(),
               catalogue.sizes.tolist(), ends, catalogue.full.tolist(),
               catalogue.normals.tolist(), catalogue.offsets.tolist(),
               exposure.residuals.tolist(), exposure.margins.tolist(),
               exposure.passed.tolist())
    ]
    atlas["kind_counts"] = summary["kind_counts"]
    atlas["failed_reports"] = len(summary["failures"])
    return atlas


def write_sweep_csv(path, sweep):
    """The divergence_sweep rows under a column header, then the verdict,
    with RFC 4180's CRLF line ends. Each section is one %-format; a level
    where no lambda fits writes inf for lambda_star and product."""
    rows = sweep["rows"]
    text = ("epsilon,lambda_star,product,achieving_curve,achieving_t\r\n"
            + "%.17g,%.17g,%.17g,%d,%.17g\r\n" * len(rows) % tuple(v for r in rows for v in r)
            + f"# verdict={sweep['verdict']}\r\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def run_nice3d():
    """The two examples' reports and the rejection of a normal in F_perp."""
    out = report_header(None)
    octant = nn.octant_example()
    for name, example in (("octant", octant), ("half_disc", nn.half_disc_cone_example())):
        out[name] = nn.nice3d_ingredients(*example)
    generators, p1, p2, _, h2 = octant
    try:
        nn.nice3d_ingredients(generators, p1, p2, (0.0, 0.0, 1.0), h2)
        rejection = False
    except DomainError:
        rejection = True
    out["perp_normal_rejected"] = rejection
    out["pass"] = bool(out["octant"]["pass"] and out["half_disc"]["pass"] and rejection)
    return out
