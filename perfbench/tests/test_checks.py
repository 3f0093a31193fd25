"""Tests for the benchmark's output checks, op accounting and definitions.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

import csv
import json
import math
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
REPO = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(REPO, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

LEVELS = [0.1, 0.01, 0.001, 0.0001, 1e-05, 1e-06]


def write_sweep(path, levels, verdict="NotNiceEvidence", lam_offset=None):
    lam_offset = lam_offset or {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "lambda_star", "product", "achieving_curve", "achieving_t"])
        for eps in levels:
            lam = checks.lambda_closed_form(eps) + lam_offset.get(eps, 0.0)
            writer.writerow([f"{eps:.17g}", f"{lam:.17g}", f"{lam * eps:.17g}", 1, f"{eps:.17g}"])
        writer.writerow([f"# verdict={verdict}"])
    return path


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


class TestSweepCheck:
    def test_closed_form_table_passes(self, tmp_path):
        assert checks.check_sweep(write_sweep(tmp_path / "s.csv", LEVELS), LEVELS) is None

    def test_inconclusive_footer_fails(self, tmp_path):
        path = write_sweep(tmp_path / "s.csv", LEVELS, verdict="Inconclusive")
        assert "Inconclusive" in checks.check_sweep(path, LEVELS)

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_lambda_off_by_1e_2_fails(self, tmp_path, eps):
        path = write_sweep(tmp_path / "s.csv", LEVELS, lam_offset={eps: 1e-2})
        assert "relative error" in checks.check_sweep(path, LEVELS)

    def test_empty_lambda_row_fails(self, tmp_path):
        path = tmp_path / "s.csv"
        write_sweep(path, LEVELS)
        text = path.read_text().replace(f"{1e-06:.17g},{checks.lambda_closed_form(1e-06):.17g}",
                                        f"{1e-06:.17g},")
        path.write_text(text)
        assert "relative error" in checks.check_sweep(path, LEVELS)

    def test_other_levels_fail(self, tmp_path):
        path = write_sweep(tmp_path / "s.csv", LEVELS[:-1])
        assert "levels" in checks.check_sweep(path, LEVELS)

    def test_tolerance_admits_todays_error_at_the_floor(self):
        # measured today at eps = 1e-6: relative error 8.9e-5
        assert checks.lambda_rel_tol(1e-6) > 8.9e-5
        assert checks.lambda_rel_tol(0.1) < 1e-9


class TestReportChecks:
    def test_verify_pass_and_fail(self, tmp_path):
        ok = write_json(tmp_path / "ok.json", {"overall": "pass", "failures": []})
        bad = write_json(tmp_path / "bad.json", {"overall": "fail", "failures": ["homogenization"]})
        assert checks.check_verify(ok) is None
        assert "homogenization" in checks.check_verify(bad)

    def test_nice3d_pass_and_fail(self, tmp_path):
        assert checks.check_nice3d(write_json(tmp_path / "ok.json", {"pass": True})) is None
        assert checks.check_nice3d(write_json(tmp_path / "bad.json", {"pass": False})) is not None


class TestMeshCheck:
    def write_mesh(self, path, which, n, dent=False, drop_face=False):
        from conelab import meshes

        mesh = meshes.build_mesh(which, n)
        verts, tris = mesh.vertices.copy(), mesh.triangles
        if dent:
            verts[5] *= 0.5
        if drop_face:
            tris = tris[:-1]
        meshes.write_obj(path, meshes.Mesh(which=which, vertices=verts, triangles=tris))
        return path

    @pytest.mark.parametrize("which", ["C", "Cprime"])
    def test_good_mesh_passes(self, tmp_path, which):
        assert checks.check_mesh(self.write_mesh(tmp_path / "m.obj", which, 16), which, 16) is None

    def test_readme_counts(self):
        assert checks.mesh_counts(4) == (17, 30)
        assert checks.mesh_counts(4096) == (16385, 32766)

    def test_wrong_body_fails(self, tmp_path):
        assert "header" in checks.check_mesh(self.write_mesh(tmp_path / "m.obj", "C", 8), "Cprime", 8)

    def test_missing_triangle_fails(self, tmp_path):
        path = self.write_mesh(tmp_path / "m.obj", "C", 8, drop_face=True)
        assert "counts" in checks.check_mesh(path, "C", 8)

    def test_dented_mesh_fails(self, tmp_path):
        path = self.write_mesh(tmp_path / "m.obj", "C", 8, dent=True)
        assert "convexity" in checks.check_mesh(path, "C", 8)


class TestOpAccounting:
    """A bad output counts as a failed op even when the CLI exits 0."""

    @pytest.fixture
    def fake_spawn(self, monkeypatch):
        def spawn(mode, argv=()):
            return {"wall_s": 1.0, "cpu_s": 1.0, "rss_mb": 80.0, "rc": 0,
                    "payload": {"setup_s": 0.5, "run_s": 0.5, "rc": 0}}
        monkeypatch.setattr(run, "spawn", spawn)

    def test_inconclusive_sweep_is_a_failed_op(self, tmp_path, fake_spawn):
        out = str(write_sweep(tmp_path / "s.csv", LEVELS, verdict="Inconclusive"))
        rec = run.run_op("op", ["sweep"], lambda: checks.check_sweep(out, LEVELS), out)
        assert rec["failure"] is not None

    def test_lambda_off_by_1e_2_is_a_failed_op(self, tmp_path, fake_spawn):
        out = str(write_sweep(tmp_path / "s.csv", LEVELS, lam_offset={0.01: 1e-2}))
        rec = run.run_op("op", ["sweep"], lambda: checks.check_sweep(out, LEVELS), out)
        assert rec["failure"] is not None
        assert max(rec["lambda_rel_err"]) > 1e-4

    def test_failed_verify_report_is_a_failed_op(self, tmp_path, fake_spawn):
        out = str(write_json(tmp_path / "v.json", {"overall": "fail", "failures": ["niceness"]}))
        rec = run.run_op("op", ["verify"], lambda: checks.check_verify(out), out)
        assert rec["failure"] is not None

    def test_good_output_passes_with_its_hash(self, tmp_path, fake_spawn):
        out = str(write_json(tmp_path / "v.json", {"overall": "pass", "failures": []}))
        rec = run.run_op("op", ["verify", "--out", out], lambda: checks.check_verify(out), out)
        assert rec["failure"] is None
        assert rec["sha256"] == checks.sha256(out)
        assert rec["argv"] == ["verify"]

    def test_slow_host_scales_times_down(self, tmp_path, fake_spawn, monkeypatch):
        monkeypatch.setattr(run, "calibrate", lambda: [2 * run.CAL_REF_S] * run.CAL_REPS)
        out = str(write_json(tmp_path / "v.json", {"overall": "pass", "failures": []}))
        rec = run.run_op("op", ["verify"], lambda: checks.check_verify(out), out)
        assert rec["cal_s"] == 2 * run.CAL_REF_S
        assert rec["speed"] == 0.5

    def test_missing_output_is_a_failed_op(self, tmp_path, fake_spawn):
        out = str(tmp_path / "absent.json")
        rec = run.run_op("op", ["verify"], lambda: checks.check_verify(out), out)
        assert rec["failure"].startswith("unreadable output")


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(run.WORKLOADS))
    def test_same_seed_same_inputs(self, name):
        make, _ = run.WORKLOADS[name]
        assert make(random.Random(5), "o")[0] == make(random.Random(5), "o")[0]

    def test_levels_decrease_inside_the_domain(self):
        rng = random.Random(3)
        for _ in range(200):
            argv, _ = run.sweep_op(rng, "o")
            levels = [float(tok) for tok in argv[argv.index("--eps") + 1].split(",")]
            assert levels[-1] == run.SWEEP_FLOOR
            assert all(a > b for a, b in zip(levels, levels[1:]))
            assert levels[0] < math.pi / 4 and levels[-1] >= 1e-6
            argv, _ = run.verify_op(rng, "o")
            levels = [float(tok) for tok in argv[argv.index("--eps") + 1].split(",")]
            assert all(a > b for a, b in zip(levels, levels[1:])) and levels[0] < math.pi / 4


class TestSpans:
    def test_self_time_subtracts_children(self):
        rec = spans.Recorder()
        rec.spans = [["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0],
                     ["inner", 6.0, 7.0, 0], ["leaf", 3.0, 4.0, 1]]
        out = rec.summary()["spans"]
        assert out["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
        assert out["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
        assert out["leaf"]["self_s"] == 1.0

    def test_wrapper_nests_and_counts_errors(self):
        rec = spans.Recorder()

        def leaf():
            raise ValueError("x")

        wrapped_leaf = rec.wrap("leaf", leaf)

        def outer():
            with pytest.raises(ValueError):
                wrapped_leaf()
            return 1

        assert rec.wrap("outer", outer)() == 1
        assert [s[0] for s in rec.spans] == ["outer", "leaf"]
        assert rec.spans[1][3] == 0 and rec.stack == []
        assert rec.counters == {"leaf:ValueError": 1}


class TestDefinition:
    def test_benchmark_json_matches_the_runner(self):
        with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
        assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
        assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER)
        assert [m["unit"] for m in doc["per_layer"]] == [run.per_layer_unit(n) for n in run.PER_LAYER]
        setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
