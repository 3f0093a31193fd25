"""Output checks for benchmark ops, run untimed after each op.

Each check reads the file an op wrote and returns ``None`` when it is
correct, else a one-line reason. An op fails when it exits non-zero or its
check returns a reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

# Unit roundoff of binary64. The sweep evaluates 1 - cos(eps) by
# cancellation, so its relative error in lambda* is up to about 4u/eps^2;
# the check allows twice that, plus a floor for the levels where the
# cancellation is harmless.
UNIT_ROUNDOFF = 2.0 ** -53
LAMBDA_REL_FLOOR = 1e-10


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def lambda_closed_form(eps):
    """lambda*(eps) = cot(eps/2)/2 - 1."""
    return 0.5 / math.tan(eps / 2.0) - 1.0


def lambda_rel_tol(eps):
    return LAMBDA_REL_FLOOR + 8.0 * UNIT_ROUNDOFF / (eps * eps)


def check_verify(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("overall") != "pass":
        return f"overall={report.get('overall')!r}, failures={report.get('failures')}"
    return None


def check_nice3d(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("pass") is not True:
        return f"pass={report.get('pass')!r}"
    return None


def sweep_rows(path):
    """(epsilon, lambda_star or None) per data row, and the footer verdict."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    verdict = None
    if rows and rows[-1] and rows[-1][0].startswith("# verdict="):
        verdict = rows[-1][0][len("# verdict="):]
    data = [(float(r[0]), float(r[1]) if r[1] else None) for r in rows[1:-1]]
    return data, verdict


def lambda_rel_errors(rows):
    """|lambda* - closed form| / closed form per row (inf for an empty row)."""
    out = []
    for eps, lam in rows:
        exact = lambda_closed_form(eps)
        out.append(math.inf if lam is None else abs(lam - exact) / exact)
    return out


def check_sweep(path, levels):
    rows, verdict = sweep_rows(path)
    if verdict != "NotNiceEvidence":
        return f"verdict={verdict!r}"
    if [eps for eps, _ in rows] != list(levels):
        return f"levels {[eps for eps, _ in rows]} != requested {list(levels)}"
    for (eps, lam), err in zip(rows, lambda_rel_errors(rows)):
        if not err <= lambda_rel_tol(eps):
            return f"lambda*={lam} at eps={eps!r}: relative error {err:.3g} > {lambda_rel_tol(eps):.3g}"
    return None


def mesh_counts(samples):
    """README formula: 1 + 4n vertices; two strips of 2(n-1)+1 triangles, two
    fans of 2n-1 and two endpoint triangles."""
    n = samples
    return 1 + 4 * n, 2 * (2 * (n - 1) + 1) + 2 * (2 * n - 1) + 2


def check_mesh(path, which, samples):
    from conelab import meshes

    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
    if header != f"o {which}":
        return f"header {header!r} != 'o {which}'"
    verts, tris = meshes.read_obj(path)
    counts = (len(verts), len(tris))
    if counts != mesh_counts(samples):
        return f"counts {counts} != {mesh_counts(samples)}"
    rep = meshes.convexity_check(verts, tris)
    if not rep.passed:
        return f"convexity_check failed: worst violation {rep.worst_violation:.3g}, degenerate {rep.n_degenerate}"
    return None
