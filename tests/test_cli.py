import ast
import csv
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import conelab
from conelab import meshes
from conelab.cli import main
from conelab import construction, faces, reporting
from conelab.reporting import RunConfig, render_json, run_faces, run_verify
from conelab.linalg import ConeModel, DomainError
from helpers import reference_conic_membership

FAST = ["--samples", "96", "--theta-grid", "12"]


class TestVerifyCommand:
    def test_passes_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", *FAST, "--out", str(out1)]) == 0
        assert main(["verify", *FAST, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["schema"] == 1
        assert report["overall"] == "pass"
        assert report["failures"] == []
        assert set(report["sections"]) == {
            "construction", "identity_suite", "face_exposure", "homogenization", "niceness",
        }

    def test_sub_noise_tolerance_fails_naming_the_section(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["verify", *FAST, "--tol", "1e-16", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "identity_suite" in err
        report = json.loads(out.read_text())
        assert report["overall"] == "fail"
        assert "identity_suite" in report["failures"]

    def test_single_refinement_level_fails_niceness(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["verify", *FAST, "--eps", "0.01", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert "niceness" in report["failures"]
        assert report["sections"]["niceness"]["verdict"] == "Inconclusive"


class TestFacesCommand:
    def test_atlas_contents(self, tmp_path):
        out = tmp_path / "atlas.json"
        assert main(["faces", *FAST, "--out", str(out)]) == 0
        atlas = json.loads(out.read_text())
        assert atlas["schema"] == 1
        assert atlas["failed_reports"] == 0
        assert len(atlas["kind_counts"]) == 14
        f24 = [f for f in atlas["faces"] if f["kind"] == "F24"]
        assert len(f24) == 1
        assert f24[0]["pair"]["provenance"] == "closed-form"
        assert f24[0]["pair"]["normal"] == [0.0, 0.0, 1.0]
        # counts follow the enumeration formula
        n = atlas["config"]["theta_grid_size"]
        assert sum(atlas["kind_counts"].values()) == 1 + 4 * n + 2 * n + 3 + 4


class TestSweepCommand:
    def test_csv_shape_and_footer(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--samples", "64", "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["epsilon", "lambda_star", "product", "achieving_curve", "achieving_t"]
        data = rows[1:-1]
        assert len(data) == 4
        products = [float(r[2]) for r in data]
        assert all(0.9 <= p <= 1.1 for p in products[-2:])
        assert rows[-1][0] == "# verdict=NotNiceEvidence"

    def test_control_footer_is_inconclusive(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["sweep", "--samples", "64", "--control", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("# verdict=Inconclusive")
        products = [float(r.split(",")[2]) for r in lines[1:-1]]
        assert max(products) < 0.1  # no reciprocal growth on the control

    def test_empty_eps_is_a_usage_error(self, tmp_path):
        assert main(["sweep", "--eps", "", "--out", str(tmp_path / "x.csv")]) == 2

    def test_increasing_eps_is_a_usage_error(self, tmp_path):
        assert main(["sweep", "--eps", "0.001,0.01", "--out", str(tmp_path / "x.csv")]) == 2


class TestMeshCommand:
    def test_writes_valid_convex_obj(self, tmp_path):
        out = tmp_path / "m.obj"
        assert main(["mesh", "--which", "Cprime", "--samples", "24", "--out", str(out)]) == 0
        verts, tris = meshes.read_obj(out)
        assert len(verts) == 4 * 24 + 1
        assert meshes.convexity_check(verts, tris).passed

    def test_unwritable_path(self, tmp_path):
        assert main(["mesh", "--out", str(tmp_path / "nodir" / "m.obj")]) == 1


class TestNice3DCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "n3.json"
        assert main(["nice3d", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        assert rep["perp_normal_rejected"] is True
        for name in ("octant", "half_disc"):
            assert rep[name]["agreement_failures"] == 0
            assert rep[name]["agreement_checked"] >= 1000

    def test_default_run_uses_no_lp_membership(self, monkeypatch):
        calls = {"linprog": 0, "nnls": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for key in calls:
            monkeypatch.setattr(scipy.optimize, key, counted(key, getattr(scipy.optimize, key)))
        report = reporting.run_nice3d(RunConfig())
        assert calls == {"linprog": 0, "nnls": 0}
        for name in ("octant", "half_disc"):
            assert report[name]["agreement_skipped"] == 0
            assert report[name]["dual_wedge_checked"] == 1200
        # the counters do see the LP route
        reference_conic_membership([1.0, -1.0, 0.0], ConeModel(np.eye(3)))
        assert calls == {"linprog": 1, "nnls": 1}


class TestCommandFlags:
    @pytest.mark.parametrize("argv", [
        ["faces", "--eps", "0.1"],
        ["sweep", "--theta-grid", "3"],
        ["nice3d", "--samples", "3"],
        ["nice3d", "--theta-grid", "3"],
        ["nice3d", "--eps", "0.1"],
    ])
    def test_flags_the_command_does_not_read_are_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()


class TestImportPath:
    def test_cli_runs_without_scipy_or_lazy_imports(self, tmp_path):
        # A fresh interpreter: the test process itself has scipy loaded.
        # Every module the commands need (numpy.random, numpy.ma, locale)
        # loads with conelab.cli, so none is imported inside main.
        script = textwrap.dedent("""
            import json, sys
            import conelab.cli
            loaded = set(sys.modules)
            out = sys.argv[1]
            runs = [
                ["verify", *sys.argv[2:], "--out", out + "/v.json"],
                ["faces", *sys.argv[2:], "--out", out + "/f.json"],
                ["sweep", "--samples", "64", "--out", out + "/s.csv"],
                ["mesh", "--samples", "24", "--out", out + "/m.obj"],
                ["nice3d", "--out", out + "/n.json"],
            ]
            codes = [conelab.cli.main(argv) for argv in runs]
            print(json.dumps({
                "codes": codes,
                "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                "imported_by_main": sorted(set(sys.modules) - loaded),
            }))
        """)
        src = str(Path(conelab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), *FAST],
                              env=env, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"codes": [0] * 5, "scipy": [], "imported_by_main": []}

    def test_no_module_imports_scipy(self):
        # function bodies included: a lazy import would not show in the run above
        # unless its function were called
        package = Path(conelab.__file__).resolve().parent
        importers = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    roots = [node.module.split(".")[0]]
                else:
                    continue
                if "scipy" in roots:
                    importers.append(f"{path.name}:{node.lineno}")
        assert importers == []


class TestRunConfig:
    def test_invariants(self):
        with pytest.raises(DomainError):
            RunConfig(samples_per_curve=4)
        with pytest.raises(DomainError):
            RunConfig(theta_grid_size=1)
        for eq_abs in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                RunConfig(eq_abs=eq_abs)
        for eps_list in ((1e-3, 1e-2), (5.0, 4.0, 3.0), (math.pi / 4, 0.1), (math.nan,),
                         (math.inf, 0.1), (0.1, 0.0)):
            with pytest.raises(DomainError):
                RunConfig(eps_list=eps_list)

    @pytest.mark.parametrize("argv", [
        ["faces", "--tol", "inf"],
        ["sweep", "--tol", "inf"],
        ["verify", "--tol", "nan"],
        ["sweep", "--control", "--eps", "5,4,3"],
    ])
    def test_out_of_domain_values_exit_2_before_any_work(self, argv, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no work may start on an invalid configuration")

        for name in ("run_verify", "run_faces", "run_sweep"):
            monkeypatch.setattr(reporting, name, refuse)
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_faces_and_verify_agree_on_the_catalogue(self):
        config = RunConfig(samples_per_curve=64, theta_grid_size=8)
        atlas = run_faces(config)
        section = run_verify(config)["sections"]["face_exposure"]
        assert atlas["kind_counts"] == section["kind_counts"]
        assert atlas["failed_reports"] == len(section["failures"])

    def test_verify_builds_grids_and_catalogue_once(self, monkeypatch):
        calls = {"grids": 0, "catalogue": 0, "kernel": 0, "body": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(reporting, "_grids", counted("grids", reporting._grids))
        monkeypatch.setattr(faces, "build_catalogue", counted("catalogue", faces.build_catalogue))
        monkeypatch.setattr(faces, "verify_catalogue", counted("kernel", faces.verify_catalogue))
        # reporting's bodies; niceness binds its own sample_body for the sweep
        monkeypatch.setattr(construction, "sample_body", counted("body", construction.sample_body))
        run_verify(RunConfig(samples_per_curve=64, theta_grid_size=8))
        # one kernel call checks every face on the body and on the cone over
        # it; the other body is the construction section's 64-sample check
        assert calls == {"grids": 1, "catalogue": 1, "kernel": 1, "body": 2}

    def test_faces_builds_no_cone_and_no_lifted_pairs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("faces must not touch the cone")

        for module, name in ((construction, "homogenize"), (faces, "lift_points"),
                             (faces, "lift_pairs")):
            monkeypatch.setattr(module, name, refuse)
        kernel_calls = []
        real_kernel = faces.verify_catalogue

        def kernel(catalogue, body, lifted=False, **kwargs):
            kernel_calls.append(lifted)
            return real_kernel(catalogue, body, lifted, **kwargs)

        monkeypatch.setattr(faces, "verify_catalogue", kernel)
        atlas = run_faces(RunConfig(samples_per_curve=64, theta_grid_size=8))
        assert kernel_calls == [False]
        assert atlas["failed_reports"] == 0

    def test_faces_report_excludes_output_path_from_hash(self, tmp_path):
        a = run_faces(RunConfig(samples_per_curve=8, theta_grid_size=8, out="x.json"))
        b = run_faces(RunConfig(samples_per_curve=8, theta_grid_size=8, out="y.json"))
        assert render_json(a) == render_json(b)
