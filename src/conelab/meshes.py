"""Triangle meshes of the four-arc body and its scaled copy, as OBJ data.

The boundary decomposes into two planar sides (fanned from the common
endpoint), two ruled strips between paired arc parameters, the two endpoint
triangles, and the chord closing each planar side. Every strip quad is split
along the same diagonal, the one that folds outward, so the emitted mesh is
a convex-hull triangulation of its vertices at every size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import curve_points, partner_param, scale_points, theta_grid
from .linalg import DomainError

BODY_NAMES = ("C", "Cprime")


@dataclass(frozen=True)
class Mesh:
    which: str
    vertices: np.ndarray   # (v, 3)
    triangles: np.ndarray  # (f, 3) 0-based vertex indices

    @property
    def counts(self):
        return len(self.vertices), len(self.triangles)


def build_mesh(which, samples_per_curve=64):
    """Triangulate the body boundary with n parameters per curve.

    Vertices: the shared endpoint plus n samples per curve (curves 1 and 4
    at a uniform positive grid, curves 3 and 2 at the partner parameters, so
    ruling endpoints are actual vertices). Faces: 2(n-1)+1 triangles per
    ruled strip, each quad split along the diagonal from its ruling-j end on
    curve 3 (resp. 2) to its ruling-(j+1) end on curve 1 (resp. 4); 2n-1 per
    planar side fan; plus the two endpoint triangles.
    """
    if which not in BODY_NAMES:
        raise DomainError(f"body must be one of {BODY_NAMES}")
    n = int(samples_per_curve)
    if n < 2:
        raise DomainError("mesh needs at least 2 samples per curve")

    thetas = theta_grid(n)
    partners = np.array([partner_param(th) for th in thetas])

    verts = [np.zeros(3)]
    idx = {}
    for cid, params in ((1, thetas), (2, partners), (3, partners), (4, thetas)):
        pts = curve_points(cid, params)
        idx[cid] = np.arange(len(verts), len(verts) + n)
        verts.extend(pts)
    verts = np.vstack(verts)
    if which == "Cprime":
        verts = scale_points(verts)

    tris = []

    # ruled strips: (curve 1, curve 3) and (curve 4, curve 2)
    for a_cid, b_cid in ((1, 3), (4, 2)):
        a, b = idx[a_cid], idx[b_cid]
        tris.append((0, a[0], b[0]))  # collapses onto the shared endpoint
        # Every quad (a_j, b_j, b_{j+1}, a_{j+1}) is split along b_j-a_{j+1},
        # the hull edge. The strip is developable, so a quad folds only to
        # second order and a float orientation test is round-off near the
        # shared endpoint. The exact orientation
        # det(b_j - a_j, b_{j+1} - a_j, a_{j+1} - a_j) is positive at every
        # quad of the curve-1/3 strip: b_{j+1} lies on the body side of the
        # plane (a_j, b_j, a_{j+1}), so this fold is convex and the other
        # would fold inward. The curve-4/2 strip is the mirror image under
        # (x, y, z) -> (z, -y, x), of determinant +1. The sign has no short
        # proof; it rests on the Fraction test in tests/test_meshes.py.
        for j in range(n - 1):
            tris.append((a[j], b[j], a[j + 1]))
            tris.append((b[j], b[j + 1], a[j + 1]))

    # planar sides fanned from the shared endpoint; the middle fan triangle
    # is the chord between the two arc ends
    for a_cid, b_cid in ((1, 2), (3, 4)):
        boundary = list(idx[a_cid]) + list(idx[b_cid])[::-1]
        tris.extend((0, boundary[k], boundary[k + 1]) for k in range(len(boundary) - 1))

    # endpoint triangles
    tris.append((idx[1][-1], idx[2][-1], idx[3][-1]))
    tris.append((idx[2][-1], idx[3][-1], idx[4][-1]))

    return Mesh(which=which, vertices=verts, triangles=np.asarray(tris, dtype=int))


def write_obj(path, mesh):
    """ASCII OBJ, triangles only, 1-based indices."""
    lines = [f"o {mesh.which}"]
    lines.extend(f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices)
    lines.extend(f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_obj(path):
    """Vertices and 0-based triangles of an OBJ file; a face index outside
    1..(number of vertices), 0 and negative indices included, is a
    DomainError."""
    verts, tris = [], []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                face = [int(tok.split("/")[0]) - 1 for tok in parts[1:]]
                if len(face) != 3:
                    raise DomainError("mesh must contain triangles only")
                tris.append(face)
    verts, tris = np.asarray(verts, dtype=float), np.asarray(tris, dtype=int)
    if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
        raise DomainError(f"face index outside 1..{len(verts)}")
    return verts, tris


@dataclass(frozen=True)
class ConvexityReport:
    n_faces: int
    n_degenerate: int
    worst_violation: float
    passed: bool


def convexity_check(verts, tris, tol=1e-9):
    """Every face plane must have all mesh vertices on one side (orientation
    per face is free); the standard inscribed-hull sanity check."""
    worst = 0.0
    degenerate = 0
    for tri in tris:
        p = verts[tri]
        n = np.cross(p[1] - p[0], p[2] - p[0])
        norm = float(np.linalg.norm(n))
        if norm <= 1e-14:
            degenerate += 1
            continue
        n = n / norm
        s = verts @ n - float(n @ p[0])
        violation = min(float(s.max()), float(-s.min()))
        worst = max(worst, violation)
    return ConvexityReport(
        n_faces=len(tris),
        n_degenerate=degenerate,
        worst_violation=worst,
        passed=(worst <= tol and degenerate == 0),
    )
