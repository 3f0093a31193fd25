import ast
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import conelab
from conelab import cli, construction, faces, meshes, niceness, reporting
from conelab.cli import main
from conelab.reporting import RunConfig, run_faces, run_verify
from conelab.linalg import DomainError

FAST = ["--samples", "96", "--theta-grid", "12"]
FACES_FAST = FAST[2:]  # faces rejects --samples, which verify accepts and ignores


def refuse_work(monkeypatch):
    """Make every command's computation raise, to show none starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("no work may start on an invalid configuration")

    for name in ("run_verify", "run_faces", "run_nice3d"):
        monkeypatch.setattr(reporting, name, refuse)
    # sweep calls divergence_sweep itself, which checks its flags before it
    # computes a bound
    monkeypatch.setattr(niceness, "shift_bounds", refuse)


def shift_f24_off_its_face(monkeypatch):
    """Move F24's offset off its face by 1e-6: the body check fails, and it
    alone."""
    real = faces.build_catalogue

    def shifted(theta_grid):
        catalogue = real(theta_grid)
        offsets = catalogue.offsets.copy()
        offsets[catalogue.kinds.index("F24")] -= 1e-6
        return catalogue._replace(offsets=offsets)

    monkeypatch.setattr(faces, "build_catalogue", shifted)


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
        assert set(report["sections"]) == {"face_exposure", "niceness"}
        assert set(report["sections"]["niceness"]) == {
            "closure", "sweep_table", "fitted_exponent", "verdict", "dual_form_note",
            "control_verdict", "control_products", "pass"}

    def test_a_face_failing_the_body_check_fails_verify(self, tmp_path, capsys, monkeypatch):
        shift_f24_off_its_face(monkeypatch)
        out = tmp_path / "r.json"
        assert main(["verify", *FAST, "--out", str(out)]) == 1
        assert "FAILED sections: face_exposure" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["overall"] == "fail"
        assert report["failures"] == ["face_exposure"]
        assert report["sections"]["face_exposure"]["failures"] == ["F24"]

    def test_single_refinement_level_fails_niceness(self, tmp_path, capsys):
        # the verdict reads the last three levels, so one level could never
        # pass: a usage error, before any work, that says why
        out = tmp_path / "r.json"
        code = main(["verify", *FAST, "--eps", "0.01", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: verify needs at least 3 refinement levels")
        assert err.count("\n") == 1


class TestFacesCommand:
    def test_atlas_contents(self, tmp_path):
        out = tmp_path / "atlas.json"
        assert main(["faces", *FACES_FAST, "--out", str(out)]) == 0
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

    def test_a_face_failing_the_body_check_fails_faces(self, tmp_path, capsys, monkeypatch):
        shift_f24_off_its_face(monkeypatch)
        out = tmp_path / "atlas.json"
        assert main(["faces", *FACES_FAST, "--out", str(out)]) == 1
        assert capsys.readouterr() == (f"wrote {out}; failed reports: 1\n",
                                       f"FAILED face reports: 1, listed in {out}\n")
        atlas = json.loads(out.read_text())
        assert atlas["failed_reports"] == 1
        assert [f["kind"] for f in atlas["faces"] if f["report"]["verdict"] == "fail"] == ["F24"]


class TestSweepCommand:
    def test_csv_shape_and_footer(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["epsilon", "lambda_star", "product", "achieving_curve", "achieving_t"]
        data = rows[1:-1]
        assert len(data) == 4
        products = [float(r[2]) for r in data]
        assert all(0.9 <= p <= 1.1 for p in products[-2:])
        assert rows[-1][0] == "# verdict=NotNiceEvidence"

    def test_control_footer_is_inconclusive(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["sweep", "--control", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("# verdict=Inconclusive")
        products = [float(r.split(",")[2]) for r in lines[1:-1]]
        assert max(products) < 0.1  # no reciprocal growth on the control

    def test_levels_far_below_t_of_1e_17_bind_at_epsilon(self, tmp_path):
        # each row is an arc value, 4 sin^2(t/2) on curve 1, which neither
        # cancels nor rounds away: lambda* is cot(eps/2)/2 - 1 at curve 1,
        # t = eps, down to 1e-100 (the 4D dot products read 0.2071 at t = T
        # there, the bound of the only row they left), and so the product
        # lambda* eps is near 1 at every level, 1e-1 included
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 50
        out = tmp_path / "s.csv"
        for text in ("1e-1,1e-50,1e-100", "1e-1,1e-3,1e-6", "1e-1,1e-3,1e-5,1e-7,1e-9"):
            assert main(["sweep", "--eps", text, "--out", str(out)]) == 0
            rows = list(csv.reader(out.read_text().splitlines()))
            assert rows[-1] == ["# verdict=NotNiceEvidence"]
            levels = [float(v) for v in text.split(",")]
            assert len(rows) == len(levels) + 2  # the header and the footer
            for (eps, lam, product, cid, t), level in zip(rows[1:-1], levels):
                assert (float(eps), cid, float(t)) == (level, "1", level)
                assert 0.8 <= float(product) <= 1.2
                exact = mp.cot(mp.mpf(level) / 2) / 2 - 1
                assert abs(float(lam) - exact) <= 8 * 2.0**-53 * exact

    def test_empty_eps_is_a_usage_error(self, tmp_path):
        assert main(["sweep", "--eps", "", "--out", str(tmp_path / "x.csv")]) == 2

    def test_increasing_eps_is_a_usage_error(self, tmp_path):
        assert main(["sweep", "--eps", "0.001,0.01", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("samples", ["7", "1000000000000"])
    def test_samples_is_ignored(self, samples, tmp_path):
        # each level samples 0, epsilon and T, whatever --samples says
        given, default = tmp_path / "given.csv", tmp_path / "default.csv"
        assert main(["sweep", "--samples", samples, "--out", str(given)]) == 0
        assert main(["sweep", "--out", str(default)]) == 0
        assert given.read_bytes() == default.read_bytes()


class TestSweepFootprint:
    """The sweep writes no fit, so it takes none: with numpy's least-squares
    routes made to raise, both sweeps still write the bytes they wrote when
    divergence_sweep fitted every sweep. verify writes one fit, for its main
    sweep, and takes it in Python ints, so it makes no LAPACK call either."""

    # sha256 of the CSVs of `sweep`, without and with --control
    DIGESTS = {(): "ff8aa95ac96c47844950b9d2640e76bc37380d94147b577d83690462e5cbb362",
               ("--control",): "f83d9d7fb23310aebf56f44b32874f6a15fae467125f82a5fbaa6c3057e3e007"}

    @pytest.mark.parametrize("flags", list(DIGESTS), ids=["sweep", "control"])
    def test_sweep_takes_no_least_squares_fit(self, flags, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep writes no fit")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        out = tmp_path / "s.csv"
        assert main(["sweep", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[flags]

    def test_verify_takes_no_least_squares_fit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify fits in Python ints")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        report = run_verify(RunConfig(theta_grid_size=8))
        assert report["sections"]["niceness"]["fitted_exponent"] == pytest.approx(1.0, abs=0.05)


class TestMeshCommand:
    def test_writes_valid_convex_obj(self, tmp_path):
        out = tmp_path / "m.obj"
        assert main(["mesh", "--which", "Cprime", "--samples", "24", "--out", str(out)]) == 0
        verts, tris = meshes.read_obj(out)
        assert len(verts) == 4 * 24 + 1
        assert meshes.convexity_check(verts, tris).passed

    def test_unwritable_path(self, tmp_path):
        assert main(["mesh", "--out", str(tmp_path / "nodir" / "m.obj")]) == 1

    def test_size_too_large_for_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a bare MemoryError, as an allocator may raise it, still names itself
        def too_large(which, n):
            raise MemoryError

        monkeypatch.setattr(meshes, "build_mesh", too_large)
        out = tmp_path / "m.obj"
        assert main(["mesh", "--samples", "1000000000000", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not out.exists()


# what run_nice3d checks, in the order it calls nice3d_ingredients
NICE3D_CHECKS = ("octant", "half_disc", "perp_normal_rejected")


class TestNice3DCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "n3.json"
        assert main(["nice3d", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["pass"] is True
        assert rep["perp_normal_rejected"] is True
        for name in ("octant", "half_disc"):
            assert rep[name]["pass"] is True
            assert rep[name]["sign_pattern_ok"] is True
            assert min(rep[name]["multipliers"]) > 0.0
            # decided exactly: no residual field is reported
            assert set(rep[name]) == {"projections", "sign_pattern_ok", "wedge_generators",
                                      "multipliers", "pass"}
            # q_i = c_i * r_i with c_i > 0 points along r_i
            r1, r2 = rep[name]["wedge_generators"]
            q1, q2 = rep[name]["projections"]
            assert np.dot(r1, q1) > 0.0 and np.dot(r2, q2) > 0.0

    @pytest.mark.parametrize("failing", NICE3D_CHECKS)
    def test_a_failing_check_fails_nice3d(self, failing, tmp_path, capsys, monkeypatch):
        # run_nice3d takes the octant's ingredients, the half-disc's, then
        # the octant's with a normal in F_perp, which must be rejected
        real, calls = niceness.nice3d_ingredients, []

        def ingredients(*example):
            calls.append(NICE3D_CHECKS[len(calls)])
            if calls[-1] != failing:
                return real(*example)
            if failing == "perp_normal_rejected":
                return {}  # accepted, so the rejection fails
            return {**real(*example), "pass": False}

        monkeypatch.setattr(niceness, "nice3d_ingredients", ingredients)
        out = tmp_path / "n3.json"
        assert main(["nice3d", "--out", str(out)]) == 1
        assert capsys.readouterr() == (f"wrote {out}; pass: False\n",
                                       f"FAILED checks: {failing}\n")
        assert json.loads(out.read_text())["pass"] is False

    def test_default_run_multipliers(self):
        report = reporting.run_nice3d()
        # the multipliers of q_i = c_i * r_i: 1 on the octant, sqrt 2 on the half-disc
        assert report["octant"]["multipliers"] == (1.0, 1.0)
        assert report["half_disc"]["multipliers"] == pytest.approx((math.sqrt(2.0),) * 2,
                                                                   rel=1e-15)


class TestReportHeaders:
    # each header names the config fields its command reads, and hashes them
    @pytest.mark.parametrize("argv, fields", [
        (["verify", *FAST], {"theta_grid_size": 12, "eps_list": [0.1, 0.01, 0.001, 0.0001]}),
        (["faces", *FACES_FAST], {"theta_grid_size": 12}),
        (["nice3d"], {}),
    ], ids=["verify", "faces", "nice3d"])
    def test_json_header_fields(self, argv, fields, tmp_path):
        out = tmp_path / "r.json"
        assert main([*argv, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert report["config"] == fields
        digest = hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()
        assert report["config_hash"] == digest[:12]

    def test_default_verify_hash_is_the_one_of_all_fields(self):
        # verify reads every RunConfig field, so its header names them all
        assert reporting.run_verify(RunConfig())["config_hash"] == "2a57c96eb133"

    def test_run_config_holds_the_flags_verify_takes(self):
        # each run flag of verify's parser maps onto one RunConfig field and
        # every field has one, so the header hashes no flag verify lacks;
        # faces' header names the one field it reads. --samples is parsed
        # and read by nothing.
        dests = set(vars(cli._parse(["verify"]))) - {"command", "out", "samples"}
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert sorted(cli._RUN_FLAGS[dest][0] for dest in dests) == sorted(fields)
        config = RunConfig(theta_grid_size=8)
        assert set(run_verify(config)["config"]) == fields
        assert set(run_faces(config)["config"]) == {"theta_grid_size"}


class TestCommandFlags:
    @pytest.mark.parametrize("argv", [
        ["faces", "--eps", "0.1"],
        ["sweep", "--theta-grid", "3"],
        ["nice3d", "--samples", "3"],
        ["nice3d", "--theta-grid", "3"],
        ["nice3d", "--eps", "0.1"],
        # the exposure check runs over whole arcs, so faces samples nothing
        ["faces", "--samples", "8"],
    ])
    def test_flags_the_command_does_not_read_are_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_verify_ignores_samples(self, tmp_path):
        # accepted for old command lines; the report does not name it
        given, default = tmp_path / "given.json", tmp_path / "default.json"
        assert main(["verify", "--samples", "96", "--theta-grid", "12", "--out", str(given)]) == 0
        assert main(["verify", "--theta-grid", "12", "--out", str(default)]) == 0
        assert given.read_bytes() == default.read_bytes()


# argv whose help, error or output main must print as the full tree does:
# help, type errors, bad choices, missing values, flags of no command or of
# another command, abbreviations, leftover positionals, "=" forms, a value
# "-" and a repeated flag
PARSE_ARGV = [
    ["-h"], ["verify", "-h"], ["faces", "-h"], ["sweep", "-h"], ["mesh", "-h"], ["nice3d", "-h"],
    ["sweep", "--samples", "x"], ["verify", "--bogus", "1"], ["mesh", "--which", "D"], [],
    ["verfy"], ["sweep", "--eps", "1,2"], ["sweep", "--samp", "64"], ["nice3d", "extra"],
    ["verify", "--tol", "1e-9"], ["faces", "--samples", "8"], ["sweep", "--samples"],
    ["verify", "--theta-grid", "1.5"], ["sweep", "--eps", "a,b"], ["nice3d", "--", "x"],
    ["sweep", "--eps=0.1,0.01,0.001"], ["nice3d", "--out", "-"],
    ["mesh", "--which=C", "--samples", "8"], ["nice3d", "--out", "a.json", "--out", "b.json"],
]

# the tokens the table-path property draws argv from, alone, in pairs or
# joined by "=": every option string and each of its prefixes from "--" on
# (--help's included), -h, and values of every type, out of range or refused
OPTIONS = sorted({option[:end]
                  for option in {"--help", *(o for name in cli._COMMANDS for o in cli._flags(name))}
                  for end in range(2, len(option) + 1)} | {"-h"})
VALUES = ["64", "7", "1.5", "x", "-1", "-", "", "0.1,0.01,0.001", "a,b", "C", "Cprime", "D"]

# each command at its defaults, and the benchmark's four op shapes
NAMESPACE_ARGV = [
    ["verify"], ["faces"], ["sweep"], ["mesh"], ["nice3d"],
    ["verify", "--samples", "512", "--theta-grid", "64", "--eps", "0.3,0.04,0.002,0.0005",
     "--out", "v.json"],
    ["nice3d", "--out", "n.json"],
    ["sweep", "--samples", "8192", "--eps", "0.2,0.03,0.004,0.0002,3e-05,1e-06", "--out", "s.csv"],
    ["mesh", "--which", "Cprime", "--samples", "128", "--out", "m.obj"],
]


def run_main(argv, tmp_path, capsysbinary):
    """main's exit code (returned or raised), stdout and stderr bytes, run in
    tmp_path so that default output paths land there."""
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    out, err = capsysbinary.readouterr()
    return code, out, err


def written(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestParsePath:
    @pytest.mark.parametrize("argv", NAMESPACE_ARGV, ids=" ".join)
    def test_namespace_is_the_full_trees(self, argv):
        assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", PARSE_ARGV, ids=" ".join)
    def test_text_and_exit_code_are_the_full_trees(self, argv, tmp_path, monkeypatch,
                                                   capsysbinary):
        (tmp_path / "own").mkdir()
        (tmp_path / "tree").mkdir()
        own = run_main(argv, tmp_path / "own", capsysbinary)
        monkeypatch.setattr(cli, "_parse", lambda a: cli.build_parser().parse_args(a))
        assert run_main(argv, tmp_path / "tree", capsysbinary) == own
        assert written(tmp_path / "own") == written(tmp_path / "tree")

    def test_the_table_declines_or_reads_as_the_full_tree(self):
        # where the tree exits (help or a usage error) the table must decline;
        # where it reads the line, the table declines or gives its namespace
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        option, value = st.sampled_from(OPTIONS), st.sampled_from(VALUES)
        stray = option | value | st.builds("{}={}".format, option, value)

        def lines(command):
            # mostly the command's own flags, or prefixes of them, each with
            # or without a value, so that some lines are well formed
            flags = cli._flags(command) if command in cli._COMMANDS else ()
            own = [o for o in OPTIONS if any(f.startswith(o) for f in flags)]
            mine = st.sampled_from(own) if own else option
            piece = st.tuples(mine, value) | st.tuples(mine) | st.tuples(stray)
            return st.lists(piece, max_size=3).map(lambda ps: [command, *sum(ps, ())])

        @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.sampled_from([*cli._COMMANDS, "verfy"]).flatmap(lines))
        def check(argv):
            command, *tokens = argv
            table = cli._read(command, tokens) if command in cli._COMMANDS else None
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    tree = vars(cli.build_parser().parse_args(argv))
            except SystemExit:
                assert table is None
            else:
                assert table is None or vars(table) == tree

        check()

    @pytest.mark.parametrize("argv", [
        ["verify", *FAST], ["faces", *FACES_FAST], ["sweep", "--samples", "64"],
        ["mesh", "--samples", "8"], ["nice3d"], ["sweep", "--control", "--samp", "64"],
    ], ids=" ".join)
    def test_a_valid_command_never_builds_the_full_tree(self, argv, tmp_path, monkeypatch):
        def refuse():
            raise AssertionError("the full tree is built only for help and errors")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert main([*argv, "--out", str(tmp_path / "x")]) == 0
        assert (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, code, text", [
        (["--help"], 0, "usage: conelab "),
        (["nice3d", "--help"], 0, "usage: conelab nice3d "),
        (["sweep", "--samples", "x"], 2, "conelab sweep: error:"),
        (["verfy"], 2, "invalid choice"),
    ], ids=["help", "nice3d help", "sweep samples x", "verfy"])
    def test_help_exits_0_and_a_usage_error_2_with_its_message(self, argv, code, text,
                                                              tmp_path, capsysbinary):
        # help on stdout, a usage error on stderr, each under the console
        # script's name (--tol's error: TestRunConfig)
        got, out, err = run_main(argv, tmp_path, capsysbinary)
        assert got == code
        assert text in (out if code == 0 else err).decode()

    @pytest.mark.parametrize("argv", [
        ["nice3d"], ["mesh", "-h"], ["verify", "--tol", "1e-9"], ["verfy"], [],
        ["sweep", "--samples", "x"],
    ], ids=" ".join)
    def test_console_script_reads_sys_argv(self, argv, tmp_path, monkeypatch, capsysbinary):
        (tmp_path / "list").mkdir()
        (tmp_path / "sys").mkdir()
        given = run_main(argv, tmp_path / "list", capsysbinary)
        monkeypatch.setattr(sys, "argv", ["conelab", *argv])
        assert run_main(None, tmp_path / "sys", capsysbinary) == given
        assert written(tmp_path / "sys") == written(tmp_path / "list")


def fresh_python(script, *args):
    """The stdout of script run with args by a fresh interpreter that imports
    this conelab: the test process itself has loaded hashlib, fractions and
    what the test modules import."""
    src = str(Path(conelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, check=True).stdout


class TestImportPath:
    def test_cli_runs_without_scipy_or_lazy_imports(self, tmp_path):
        # Every module the commands need loads with conelab.cli, so none is
        # imported inside main; argparse, gettext and locale load only for
        # help and usage errors, and a valid run loads none of them.
        # numpy.ma and numpy.random are compared with what a bare `import
        # numpy` loads: numpy 1.24 imports them eagerly, numpy 2.x only on
        # demand, and no command may demand them. Nor may a command load
        # fractions or decimal (3-4 ms to import): nice3d decides in Python
        # ints; or csv: the sweep CSV is one %-format per section; or the
        # ASCII codec: every output is written as UTF-8, whose codec the
        # interpreter always holds.
        script = textwrap.dedent("""
            import importlib.util, json, sys
            import numpy
            lazy_before = {"numpy.ma", "numpy.random"} & set(sys.modules)
            with_numpy = set(sys.modules)
            import conelab.cli
            loaded = set(sys.modules)
            out = sys.argv[1]
            runs = [
                ["verify", *sys.argv[2:], "--out", out + "/v.json"],
                ["faces", *sys.argv[4:], "--out", out + "/f.json"],  # FAST less --samples
                ["sweep", "--out", out + "/s.csv"],
                ["mesh", "--samples", "24", "--out", out + "/m.obj"],
                ["nice3d", "--out", out + "/n.json"],
            ]
            codes = [conelab.cli.main(argv) for argv in runs]
            print(json.dumps({
                "codes": codes,
                "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                "imported_by_main": sorted(set(sys.modules) - loaded),
                "numpy_lazy_added": sorted({"numpy.ma", "numpy.random"} & set(sys.modules)
                                           - lazy_before),
                "fractions_or_decimal": sorted({"fractions", "decimal"}
                                               & (set(sys.modules) - with_numpy)),
                "hashlib": sorted({"hashlib", "_hashlib"} & (set(sys.modules) - with_numpy)),
                "parser": sorted({"argparse", "gettext", "locale"}
                                 & (set(sys.modules) - with_numpy)),
                "csv": sorted({"csv", "_csv"} & (set(sys.modules) - with_numpy)),
                "codec": sorted({"encodings.ascii"} & (set(sys.modules) - with_numpy)),
                "sympy_or_mpmath": sorted({"sympy", "mpmath"} & set(sys.modules)),
                "builtin_sha256": any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
            }))
        """)
        result = json.loads(fresh_python(script, str(tmp_path), *FAST).splitlines()[-1])
        # the config hash takes the interpreter's own SHA-256 where it has
        # one: hashlib would map OpenSSL's libcrypto (~3.6 MB) for it. Like
        # numpy.ma it is compared with a bare `import numpy`: numpy 1.x loads
        # hashlib itself (numpy.random -> secrets -> hmac), numpy 2.x does not.
        builtin = result.pop("builtin_sha256")
        assert result.pop("hashlib") == [] or not builtin
        assert result == {"codes": [0] * 5, "scipy": [], "imported_by_main": [],
                          "numpy_lazy_added": [], "fractions_or_decimal": [], "csv": [],
                          "codec": [], "parser": [], "sympy_or_mpmath": []}

    def test_package_root_loads_no_module(self):
        # the root defines nothing: importing it loads no submodule and no
        # numpy, so a caller pays only for the modules it imports
        script = ("import sys, conelab; print(sorted(m for m in sys.modules"
                  " if m.startswith(('conelab', 'numpy'))))")
        assert fresh_python(script).strip() == "['conelab']"

    @pytest.mark.parametrize("module, layers", [
        ("linalg", []),
        ("construction", ["linalg"]),
        ("niceness", ["construction", "linalg"]),
        ("faces", ["construction", "linalg"]),
        ("meshes", ["construction", "linalg"]),
        ("reporting", ["construction", "faces", "linalg", "niceness"]),
        ("cli", ["construction", "faces", "linalg", "meshes", "niceness", "reporting"]),
    ])
    def test_each_module_loads_only_the_layers_below_it(self, module, layers):
        script = textwrap.dedent("""
            import importlib, sys
            importlib.import_module("conelab." + sys.argv[1])
            print(" ".join(sorted(m for m in sys.modules if m.startswith("conelab."))))
        """)
        loaded = fresh_python(script, module).split()
        assert loaded == sorted(f"conelab.{m}" for m in [module, *layers])

    def test_every_top_level_import_is_read(self):
        # a name bound by a module-level import (a try block's included) and
        # read nowhere in its module costs an import on every start-up
        package = Path(conelab.__file__).resolve().parent
        unread = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            statements = list(tree.body)
            while statements:
                node = statements.pop()
                if isinstance(node, ast.Try):
                    statements += node.body + node.orelse + node.finalbody
                    statements += [s for h in node.handlers for s in h.body]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in read:
                            unread.append(f"{path.name}:{node.lineno} {name}")
        assert unread == []

    def test_names_no_module_reads_are_these_outside_callers(self):
        # a top-level def, class or constant that no src module reads is
        # either API an outside caller names here, or dead code
        outside = {
            "construction.curve_grid": "the README's library example samples a grid",
            "construction.lift_pairs": "the lift C -> K that tests/test_certificate.py proves",
            "meshes.read_obj": "perfbench/checks.py reads the mesh workload's OBJ",
            "meshes.convexity_check": "perfbench/checks.py checks the mesh workload's body",
        }
        package = Path(conelab.__file__).resolve().parent
        defined, read = [], set()
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((path.stem, node.name))
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined += [(path.stem, n.id) for target in targets
                                for n in ast.walk(target) if isinstance(n, ast.Name)]
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):  # imported by name into another module
                    read.add(node.name)
        unread = {f"{module}.{name}" for module, name in defined if name not in read}
        assert unread == set(outside)

    def test_config_hash_falls_back_to_hashlib(self):
        # an interpreter without _sha2 and _sha256 hashes with hashlib: the
        # same SHA-256, so the same config hash
        script = textwrap.dedent("""
            import hashlib, sys
            sys.modules["_sha2"] = sys.modules["_sha256"] = None
            from conelab import reporting
            print(reporting.sha256 is hashlib.sha256,
                  reporting.run_verify(reporting.RunConfig())["config_hash"])
        """)
        assert fresh_python(script).split() == ["True", "2a57c96eb133"]

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


    def test_no_module_uses_numpy_random(self):
        # read from the source: at the numpy 1.24 floor `import numpy` loads
        # numpy.random by itself, so sys.modules cannot show a use
        package = Path(conelab.__file__).resolve().parent
        users = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    hit = any(a.name.startswith("numpy.random") for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    hit = node.module.startswith("numpy.random") or (
                        node.module == "numpy" and any(a.name == "random" for a in node.names))
                elif isinstance(node, ast.Attribute):
                    hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                           and node.value.id in ("np", "numpy"))
                else:
                    continue
                if hit:
                    users.append(f"{path.name}:{node.lineno}")
        assert users == []


    def test_no_module_builds_an_object_dtype_array(self):
        # exact arithmetic runs on Python ints and lists: in a fresh process
        # each op on an object-dtype array pays numpy's first-use cost, which
        # made nice3d's exact steps ~0.3 ms of its ~1 ms run
        package = Path(conelab.__file__).resolve().parent
        sites = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                kinds = [kw.value for kw in node.keywords if kw.arg == "dtype"]
                if getattr(node.func, "attr", None) == "astype":
                    kinds += node.args[:1]
                if any(getattr(k, "id", None) == "object" or getattr(k, "attr", None) == "object_"
                       or getattr(k, "value", None) in ("O", "object") for k in kinds):
                    sites.append(f"{path.name}:{node.lineno}")
        assert sites == []

    def test_only_the_run_config_is_a_dataclass(self):
        # creating a dataclass costs ~1 ms per cold process; records without
        # behaviour are NamedTuples
        package = Path(conelab.__file__).resolve().parent
        decorated = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef):
                    for dec in node.decorator_list:
                        target = dec.func if isinstance(dec, ast.Call) else dec
                        if "dataclass" in (getattr(target, "attr", None),
                                           getattr(target, "id", None)):
                            decorated.append(f"{path.stem}.{node.name}")
        assert decorated == ["reporting.RunConfig"]


class TestRunConfig:
    def test_invariants(self):
        # no field sizes the sweep: each level samples 0, epsilon and T
        with pytest.raises(TypeError):
            RunConfig(samples_per_curve=512)
        with pytest.raises(DomainError):
            RunConfig(theta_grid_size=1)
        # non-integer sizes are refused, not truncated or passed to numpy
        for size in (8.5, 64.7, "512", 64.0):
            with pytest.raises(DomainError, match="must be an integer"):
                RunConfig(theta_grid_size=size)
        assert type(RunConfig(theta_grid_size=np.int64(64)).theta_grid_size) is int
        for eps_list in ((1e-3, 1e-2), (5.0, 4.0, 3.0), (math.pi / 4, 0.1), (math.nan,),
                         (math.inf, 0.1), (0.1, 0.0)):
            with pytest.raises(DomainError):
                RunConfig(eps_list=eps_list)
        # fewer levels than the divergence verdict reads are refused
        for eps_list in ((0.1,), (0.1, 0.01)):
            with pytest.raises(DomainError, match="at least 3 refinement levels"):
                RunConfig(eps_list=eps_list)
        assert RunConfig(eps_list=[0.1, 0.01, 0.001]).eps_list == (0.1, 0.01, 0.001)

    @pytest.mark.parametrize("argv", [
        ["faces", "--theta-grid", "4"],
        ["sweep", "--eps", "0.1,0.1,0.01"],
        ["verify", "--theta-grid", "1"],
        ["sweep", "--control", "--eps", "5,4,3"],
        # below 2 sqrt(smallest normal) = 2**-510 ~ 3e-154 sin^2(eps/2) underflows
        ["sweep", "--eps", "1e-1,1e-2,1e-200"],
        ["verify", "--eps", "1e-1,1e-2,2.9e-154"],
        # the divergence verdict reads three levels
        ["verify", "--eps", "0.1,0.01"],
    ])
    def test_out_of_domain_values_exit_2_before_any_work(self, argv, tmp_path, monkeypatch):
        refuse_work(monkeypatch)
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["verify", "faces", "sweep", "nice3d"])
    def test_retired_tol_flag_exits_2_before_any_work(self, command, tmp_path, capsys,
                                                      monkeypatch):
        # no verdict reads a tolerance that a flag could set; a script that
        # still passes --tol fails loudly instead of running with another bound
        refuse_work(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main([command, "--tol", "1e-9", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["verify", "faces"])
    def test_theta_grid_past_the_limit_exits_2_without_a_grid(self, command, tmp_path, capsys,
                                                             monkeypatch):
        # the limit is read before any grid of its size exists
        def no_grid(n):
            raise AssertionError("no theta grid may be built past the limit")

        refuse_work(monkeypatch)
        monkeypatch.setattr(construction, "theta_grid", no_grid)
        limit = faces.MAX_THETA_GRID
        assert cli._config(cli._parse([command, "--theta-grid", str(limit)])).theta_grid_size \
            == limit
        out = tmp_path / "x"
        assert main([command, "--theta-grid", str(limit + 1), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: theta_grid_size must be at most {limit}, past which F02/F03 margins "
            f"fall under their rounding bound; got {limit + 1}\n")
        assert not out.exists()

    def test_faces_and_verify_agree_on_the_catalogue(self):
        config = RunConfig(theta_grid_size=8)
        atlas = run_faces(config)
        section = run_verify(config)["sections"]["face_exposure"]
        assert atlas["kind_counts"] == section["kind_counts"]
        assert atlas["failed_reports"] == len(section["failures"])

    def test_verify_builds_grids_and_catalogue_once(self, monkeypatch):
        calls = {"grids": 0, "catalogue": 0, "points": 0, "kernel": 0, "partners": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(construction, "theta_grid", counted("grids", construction.theta_grid))
        monkeypatch.setattr(faces, "build_catalogue", counted("catalogue", faces.build_catalogue))
        monkeypatch.setattr(faces, "verify_catalogue", counted("kernel", faces.verify_catalogue))
        monkeypatch.setattr(faces, "generator_points", counted("points", faces.generator_points))
        monkeypatch.setattr(construction, "partner_cos",
                            counted("partners", construction.partner_cos))
        run_verify(RunConfig(theta_grid_size=8))
        # one theta grid and one kernel call, over whole arcs with no body
        # sampled, check every face; the faces of the cone over C follow by
        # the lift identity, with no second scan. The kernel reads the
        # generators' (curve, t) labels, so no generator point is computed.
        # The catalogue's two ruling_data calls are the only partner_cos calls.
        assert calls == {"grids": 1, "catalogue": 1, "points": 0, "kernel": 1, "partners": 2}

    def test_verify_takes_the_witness_arcs_once(self, monkeypatch):
        # the face kernel's normals once per report, and u and q once per
        # process for all seven niceness steps of each report (four sweep
        # levels and the control in shift_bounds, two closure checks)
        calls = {"faces": 0, "niceness": 0}
        for key, module, name in (("faces", faces, "arc_coefficients"),
                                  ("niceness", niceness, "arc_picks")):
            def counted(normals, key=key, real=getattr(module, name)):
                calls[key] += 1
                return real(normals)
            monkeypatch.setattr(module, name, counted)
        niceness._witness_arcs.cache_clear()
        try:
            run_verify(RunConfig(theta_grid_size=8))
            run_verify(RunConfig(theta_grid_size=8))
            # the arcs every later report reads cannot be written: tuples of
            # floats, one (A_u, B_u, A_q, B_q) per curve
            arcs = niceness._witness_arcs()
            assert type(arcs) is tuple and len(arcs) == 4
            assert all(type(c) is tuple and all(type(v) is float for v in c) for c in arcs)
        finally:
            niceness._witness_arcs.cache_clear()
        # one pick each of u and q per process
        assert calls == {"faces": 2, "niceness": 2}

    def test_faces_builds_no_cone_and_no_lifted_pairs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("faces must not touch the cone")

        # the lifts live in construction alone: the kernel cannot reach them
        assert not hasattr(faces, "lift_points") and not hasattr(faces, "lift_pairs")
        for name in ("lift_points", "lift_pairs"):
            monkeypatch.setattr(construction, name, refuse)
        kernel_calls, point_calls = [], []
        real_kernel, real_points = faces.verify_catalogue, faces.generator_points

        def kernel(catalogue, **kwargs):
            kernel_calls.append(len(catalogue.kinds))
            return real_kernel(catalogue, **kwargs)

        def points(ids, ts):
            point_calls.append(len(ts))
            return real_points(ids, ts)

        monkeypatch.setattr(faces, "verify_catalogue", kernel)
        monkeypatch.setattr(faces, "generator_points", points)
        atlas = run_faces(RunConfig(theta_grid_size=8))
        assert kernel_calls == [len(atlas["faces"])]
        # the atlas lists the generator points, computed in one call
        assert point_calls == [sum(len(f["generators"]) for f in atlas["faces"])]
        assert atlas["failed_reports"] == 0

    def test_faces_output_path_leaves_the_report_unchanged(self, tmp_path):
        a, b = tmp_path / "x.json", tmp_path / "y.json"
        for out in (a, b):
            assert main(["faces", "--theta-grid", "8", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
