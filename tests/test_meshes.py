import numpy as np
import pytest
from exact import exact_orientation
from helpers import (
    reference_mesh_triangles,
    reference_obj_text,
    reference_strip_triangles,
    strip_quads,
)

from conelab import construction as con
from conelab import meshes
from conelab.cli import main
from conelab.linalg import DomainError


class TestBuild:
    def test_counts_at_four_samples(self):
        mesh = meshes.build_mesh("C", 4)
        v, f = mesh.counts
        assert v == 4 * 4 + 1  # four curves plus the deduplicated shared endpoint
        # per ruled strip: 2*(n-1) quad triangles + 1 apex triangle
        assert f == 2 * (2 * (4 - 1) + 1) + 2 * (2 * 4 - 1) + 2 == 30

    def test_counts_scale_linearly(self):
        for n in (8, 32):
            v, f = meshes.build_mesh("C", n).counts
            assert v == 4 * n + 1
            assert f == 8 * n - 2

    def test_scaled_body_vertices(self):
        mc = meshes.build_mesh("C", 12)
        mp = meshes.build_mesh("Cprime", 12)
        assert np.abs(mp.vertices - (2.0 * mc.vertices + con.SHIFT)).max() == 0.0

    def test_closed_surface(self):
        mesh = meshes.build_mesh("C", 16)
        edges = set()
        for a, b, c in mesh.triangles:
            for e in ((a, b), (b, c), (a, c)):
                edges.add(tuple(sorted(e)))
        v, f = mesh.counts
        assert v - len(edges) + f == 2

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            meshes.build_mesh("D", 8)
        with pytest.raises(DomainError):
            meshes.build_mesh("C", 1)

    @pytest.mark.parametrize("size", [2.7, 8.0, "8", None])
    def test_non_integer_sizes_rejected(self, size):
        # int() would truncate 2.7 to 2 and parse "8"
        with pytest.raises(DomainError, match="must be an integer"):
            meshes.build_mesh("C", size)

    def test_numpy_integer_size_accepted(self):
        mesh = meshes.build_mesh("C", np.int64(8))
        assert np.array_equal(mesh.triangles, meshes.build_mesh("C", 8).triangles)


class TestReferenceLoops:
    """The index-array assembly and the list-based writer against the loops
    they replaced (tests/helpers.py), at sizes from the smallest slice case
    through the benchmark's 128 and an odd size."""

    @pytest.mark.parametrize("which", ["C", "Cprime"])
    @pytest.mark.parametrize("n", [2, 3, 24, 128, 129, 1024])
    def test_triangles_and_obj_bytes_match_the_loops(self, tmp_path, which, n):
        mesh = meshes.build_mesh(which, n)
        expected = reference_mesh_triangles(n)
        assert np.issubdtype(mesh.triangles.dtype, np.integer)
        assert mesh.vertices.shape == (1 + 4 * n, 3)
        assert mesh.triangles.shape == (8 * n - 2, 3)
        assert np.array_equal(mesh.triangles, expected)
        path = tmp_path / "body.obj"
        meshes.write_obj(path, mesh)
        assert path.read_bytes() == reference_obj_text(mesh).encode("ascii")


class TestObjFormat:
    def test_round_trip(self, tmp_path):
        mesh = meshes.build_mesh("Cprime", 9)
        path = tmp_path / "body.obj"
        meshes.write_obj(path, mesh)
        verts, tris = meshes.read_obj(path)
        assert np.abs(verts - mesh.vertices).max() == 0.0
        assert np.array_equal(tris, mesh.triangles)

    @pytest.mark.parametrize("which", ["C", "Cprime"])
    def test_mesh_command_output_reads_back_unchanged(self, tmp_path, which):
        path = tmp_path / f"{which}.obj"
        assert main(["mesh", "--which", which, "--out", str(path)]) == 0
        mesh = meshes.build_mesh(which, 64)
        verts, tris = meshes.read_obj(path)
        assert np.array_equal(verts, mesh.vertices)
        assert np.array_equal(tris, mesh.triangles)

    @pytest.mark.parametrize("bad_face", [
        "f 0 3 4",   # OBJ indices are 1-based: 0 would wrap to the last vertex
        "f -1 2 3",  # relative indices would wrap the same way
        "f 1 2 5",   # past the four vertices
    ])
    def test_face_index_outside_the_vertex_list_rejected(self, tmp_path, bad_face):
        path = tmp_path / "tetra.obj"
        faces = ["f 1 2 3", "f 1 2 4", "f 1 3 4", bad_face]
        vertices = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "v 0 0 1"]
        path.write_text("\n".join(["o tetra", *vertices, *faces]) + "\n", encoding="ascii")
        with pytest.raises(DomainError):
            meshes.read_obj(path)
        path.write_text("\n".join(["o tetra", *vertices, *faces[:3], "f 2 3 4"]) + "\n",
                        encoding="ascii")
        assert meshes.read_obj(path)[1].max() == 3

    def test_indices_are_one_based_triangles(self, tmp_path):
        mesh = meshes.build_mesh("C", 4)
        path = tmp_path / "c.obj"
        meshes.write_obj(path, mesh)
        face_lines = [ln for ln in path.read_text().splitlines() if ln.startswith("f ")]
        assert len(face_lines) == len(mesh.triangles)
        for ln in face_lines:
            idx = [int(tok) for tok in ln.split()[1:]]
            assert len(idx) == 3
            assert min(idx) >= 1


class TestConvexity:
    @pytest.mark.parametrize("which", ["C", "Cprime"])
    @pytest.mark.parametrize("n", [2, 3, 4, 16, 64, 128, 256, 512, 1024])
    def test_every_face_plane_supports_the_vertex_set(self, which, n):
        mesh = meshes.build_mesh(which, n)
        rep = meshes.convexity_check(mesh.vertices, mesh.triangles)
        assert rep.passed, rep
        assert rep.n_degenerate == 0
        assert rep.worst_violation <= 1e-12

    @pytest.mark.parametrize("which", ["C", "Cprime"])
    @pytest.mark.parametrize("n", [2, 8, 64, 300])
    def test_every_strip_quad_has_the_same_exact_orientation(self, which, n):
        # the fact the fixed strip diagonal rests on, in exact arithmetic
        verts = meshes.build_mesh(which, n).vertices
        for quads in strip_quads(n):
            for quad in quads:
                assert exact_orientation(*verts[list(quad)]) > 0, quad

    @pytest.mark.parametrize(("which", "n"), [
        ("C", 4), ("C", 16), ("C", 64), ("C", 128),
        ("Cprime", 4), ("Cprime", 64), ("Cprime", 128), ("Cprime", 512),
    ])
    def test_fixed_split_matches_the_float_test_where_it_was_convex(self, which, n):
        # pins the default (64) and benchmark (128) meshes
        mesh = meshes.build_mesh(which, n)
        partners = [con.ruling_data(th).t for th in con.theta_grid(n)]
        raw = mesh.vertices[2 * n + 1:3 * n + 1]  # curve 3 at the partners
        expected = con.curve_points(3, partners)
        if which == "Cprime":
            expected = 2.0 * expected + con.SHIFT
        assert np.array_equal(raw, expected)
        strips = mesh.triangles[:2 * (2 * n - 1)]
        assert strips.tolist() == [list(t) for t in reference_strip_triangles(mesh.vertices, n)]

    def test_oracle_flags_a_dented_mesh(self):
        mesh = meshes.build_mesh("C", 8)
        dented = mesh.vertices.copy()
        dented[5] = dented[5] * 0.5  # pull a boundary vertex inward
        rep = meshes.convexity_check(dented, mesh.triangles)
        assert not rep.passed
