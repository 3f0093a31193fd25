"""Triangle meshes of the four-arc body and its scaled copy, as OBJ data.

The boundary decomposes into two planar sides (fanned from the common
endpoint), two ruled strips between paired arc parameters, the two endpoint
triangles, and the chord closing each planar side. Every strip quad is split
along the same diagonal, the one that folds outward, so the emitted mesh is
a convex-hull triangulation of its vertices at every size.
"""

from typing import NamedTuple

import numpy as np

from .construction import curve_points, partner_param, scale_points, theta_grid
from .linalg import DomainError, check_size

BODY_NAMES = ("C", "Cprime")


class Mesh(NamedTuple):
    which: str
    vertices: np.ndarray   # (v, 3)
    triangles: np.ndarray  # (f, 3) 0-based vertex indices

    @property
    def counts(self):
        return len(self.vertices), len(self.triangles)


def build_mesh(which, n):
    """Triangulate the body boundary with n parameters per curve.

    Vertices: the shared endpoint (index 0), then n samples of each curve,
    sample j of curve k + 1 at index 1 + k*n + j (curves 1 and 4 at a uniform
    positive grid, curves 3 and 2 at the partner parameters, so ruling
    endpoints are actual vertices). Faces, as index arrays with no loop over
    samples: 2(n-1)+1 triangles per ruled strip, each quad split along the
    diagonal from its ruling-j end on curve 3 (resp. 2) to its ruling-(j+1)
    end on curve 1 (resp. 4); 2n-1 per planar side fan; plus the two
    endpoint triangles: 1 + 4n vertices and 8n - 2 triangles in all.
    """
    if which not in BODY_NAMES:
        raise DomainError(f"body must be one of {BODY_NAMES}")
    n = check_size(n, 2, "mesh samples per curve")

    thetas = theta_grid(n)
    partners = partner_param(thetas)
    curves = ((1, thetas), (2, partners), (3, partners), (4, thetas))
    verts = np.vstack([np.zeros((1, 3))] + [curve_points(k, p) for k, p in curves])
    if which == "Cprime":
        verts = scale_points(verts)
    c1, c2, c3, c4 = 1 + np.arange(4)[:, None] * n + np.arange(n)

    tris = []

    # ruled strips: (curve 1, curve 3) and (curve 4, curve 2)
    for a, b in ((c1, c3), (c4, c2)):
        tris.append([[0, a[0], b[0]]])  # collapses onto the shared endpoint
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
        quads = np.stack([a[:-1], b[:-1], a[1:], b[:-1], b[1:], a[1:]], axis=1)
        tris.append(quads.reshape(-1, 3))  # (a_j, b_j, a_{j+1}), (b_j, b_{j+1}, a_{j+1})

    # planar sides fanned from the shared endpoint; the middle fan triangle
    # is the chord between the two arc ends
    for a, b in ((c1, c2), (c3, c4)):
        boundary = np.concatenate([a, b[::-1]])
        tris.append(np.column_stack([np.zeros_like(boundary[1:]), boundary[:-1], boundary[1:]]))

    tris.append([[c1[-1], c2[-1], c3[-1]], [c2[-1], c3[-1], c4[-1]]])  # endpoint triangles

    return Mesh(which=which, vertices=verts, triangles=np.vstack(tris))


def write_obj(path, mesh):
    """ASCII OBJ of triangles, 1-based; each section is one %-format of a flat
    list. Written as UTF-8, which gives ASCII text the same bytes and whose
    codec every interpreter has loaded."""
    verts, tris = mesh.vertices.ravel().tolist(), (mesh.triangles + 1).ravel().tolist()
    text = (f"o {mesh.which}\n" + "v %.17g %.17g %.17g\n" * len(mesh.vertices) % tuple(verts)
            + "f %d %d %d\n" * len(mesh.triangles) % tuple(tris))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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


class ConvexityReport(NamedTuple):
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
