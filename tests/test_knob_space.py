"""verify's verdicts over the whole domain its CLI accepts, drawn by
hypothesis (seeded and without a database, so every run draws the same
configurations), each held to its closed-form prediction.

- --theta-grid from 8 to 1,024, and 3 to 6 strictly decreasing levels,
  log-uniform in [EPS_FLOOR, 0.7] (--samples is accepted and read by
  nothing);
- every face of C passes (the cone over each follows by the lift identity,
  proven in tests/test_certificate.py);
- up to faces.MAX_THETA_GRID, the one-face catalogue at the grid's smallest
  parameter T/N, where the F02/F03 margins are smallest, passes;
- every sweep row binds on curve 1 at t = epsilon, with lambda_star within
  8u of cot(epsilon/2)/2 - 1 (50-digit mpmath);
- the sweep is NotNiceEvidence exactly when there are at least three levels
  and the last three products epsilon * (cot(epsilon/2)/2 - 1) lie in
  [0.8, 1.2]; the control, the cone over the arc endpoints, is always
  Inconclusive, so the report passes exactly then.
"""

import math

import numpy as np
import pytest

from conelab import faces as fc
from conelab import niceness as nn
from conelab import reporting
from conelab.reporting import RunConfig

hypothesis = pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath").mp
st = hypothesis.strategies

U = 2.0**-53
TOP_LEVEL = 0.7


def _levels(exponents):
    """Strictly decreasing levels 10^x, kept inside [EPS_FLOOR, TOP_LEVEL]."""
    return sorted({min(max(10.0**x, nn.EPS_FLOOR), TOP_LEVEL) for x in exponents}, reverse=True)


LEVELS = st.lists(st.floats(math.log10(nn.EPS_FLOOR), math.log10(TOP_LEVEL)),
                  min_size=3, max_size=6).map(_levels).filter(lambda eps: len(eps) >= 3)


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(thetas=st.integers(8, 1024), eps=LEVELS)
def test_verify_verdicts_match_their_closed_forms(thetas, eps):
    report = reporting.run_verify(RunConfig(theta_grid_size=thetas, eps_list=tuple(eps)))
    sections = report["sections"]
    assert sections["face_exposure"]["failures"] == []
    assert sections["face_exposure"]["pass"]

    niceness = sections["niceness"]
    mp.dps = 50
    products = []
    for (e, lam, product, cid, t), level in zip(niceness["sweep_table"], eps):
        exact = mp.cot(mp.mpf(level) / 2) / 2 - 1
        assert (e, cid, t) == (level, 1, level)
        assert abs(lam - exact) <= 8 * U * exact, (thetas, level)
        assert product == lam * e
        products.append(level * exact)
    predicted = len(eps) >= 3 and all(0.8 <= p <= 1.2 for p in products[-3:])
    assert niceness["verdict"] == ("NotNiceEvidence" if predicted else "Inconclusive")
    assert niceness["control_verdict"] == "Inconclusive"
    assert report["overall"] == ("pass" if predicted else "fail")


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(thetas=st.integers(8, fc.MAX_THETA_GRID))
def test_the_smallest_theta_of_every_accepted_grid_passes(thetas):
    assert RunConfig(theta_grid_size=thetas).theta_grid_size == thetas
    catalogue = fc.build_catalogue(np.array([nn.T_END / thetas]))
    assert fc.verify_catalogue(catalogue).passed.all(), thetas
