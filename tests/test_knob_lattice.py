"""Each command's verdict over a fixed lattice of the knobs its CLI accepts,
run in-process: verify through cli.main, faces and nice3d through
reporting.run_*, and sweep through the niceness.divergence_sweep that the
CLI calls.

A verdict must hold at every knob setting, not only at the defaults. A cell
that fails because of a known defect is marked xfail(strict=True) and names
the ROADMAP item that fixes it, so the fix turns the mark into a failure
until the mark is removed.
"""

import json

import pytest

from conelab import cli, reporting
from conelab.niceness import divergence_sweep
from conelab.reporting import RunConfig

SIZES = (8, 64, 512)
EPS_TO_1E_4 = (1e-1, 1e-2, 1e-3, 1e-4)
EPS_TO_1E_7 = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
EPS_TO_1E_9 = EPS_TO_1E_7 + (1e-8, 1e-9)


# eq_abs only names the cells; no verdict reads it. The face check judges
# each on-face residual by its rounding bound (about 1.6e-15 or more), and
# the worst residual must also be at most 1e-12, 1000x below eq_abs.
# verify's CLI still takes --samples for old command lines; no RunConfig
# field or verdict reads it, so each samples cell runs its thetas config.
@pytest.mark.parametrize("eq_abs", [1e-9])
@pytest.mark.parametrize("thetas", SIZES)
@pytest.mark.parametrize("samples", SIZES)
def test_verify_and_faces_pass(samples, thetas, eq_abs, tmp_path):
    argv = ["verify", "--samples", str(samples), "--theta-grid", str(thetas)]
    config = cli._config(cli._parse(argv))
    assert config == RunConfig(theta_grid_size=thetas)
    out = tmp_path / "verify.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["overall"], report["failures"]) == ("pass", [])
    assert report["sections"]["face_exposure"]["worst_onface_residual"] <= 1e-12
    assert reporting.run_faces(config)["failed_reports"] == 0


@pytest.mark.parametrize("eps_list, control, verdict", [
    (EPS_TO_1E_4, False, "NotNiceEvidence"),
    (EPS_TO_1E_4, True, "Inconclusive"),
    (EPS_TO_1E_7, False, "NotNiceEvidence"),
    (EPS_TO_1E_7, True, "Inconclusive"),
    (EPS_TO_1E_9, True, "Inconclusive"),
    (EPS_TO_1E_9, False, "NotNiceEvidence"),
])
def test_sweep_verdict(eps_list, control, verdict):
    assert divergence_sweep(eps_list, control=control)["verdict"] == verdict


class TestNice3DCommand:
    def test_passes(self):
        # nice3d takes no knob but --out, so the lattice has one cell
        report = reporting.run_nice3d()
        assert report["pass"] is True and report["perp_normal_rejected"] is True
