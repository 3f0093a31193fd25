"""niceness.fitted_exponent is the exact least-squares slope, correctly
rounded, and makes no LAPACK call.

The reference takes the same float logs, libm's log(1/epsilon) and
log(lambda_star), as Fractions, forms the slope (n sum xy - sum x sum y) /
(n sum x^2 - (sum x)^2) exactly and rounds it once; fitted_exponent must
give its bits on seeded random sweeps and on random rows. With least squares made to raise,
the fit still runs, so its bits cannot depend on the LAPACK build. Where
the logs of the levels are all one float no slope exists, and the fit is
NaN without a warning.

This file needs numpy and pytest only.
"""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conelab import cli
from conelab import niceness as nn


def reference_slope(rows):
    finite = [(e, lam) for e, lam, *_ in rows if 0 < lam < math.inf]
    x = [Fraction(math.log(1.0 / e)) for e, _ in finite]
    y = [Fraction(math.log(lam)) for _, lam in finite]
    n = len(x)
    spread = n * sum(v * v for v in x) - sum(x) ** 2
    if n < 2 or spread == 0:
        return math.nan
    return float((n * sum(u * v for u, v in zip(x, y)) - sum(x) * sum(y)) / spread)


@pytest.fixture
def no_least_squares(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fit is taken in Python ints")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)


def random_levels(rng):
    """2 to 7 strictly decreasing levels in [EPS_FLOOR, 0.7]."""
    logs = rng.uniform(math.log10(nn.EPS_FLOOR), math.log10(0.7), size=rng.integers(2, 8))
    levels = sorted({min(max(10.0 ** v, nn.EPS_FLOOR), 0.7) for v in logs}, reverse=True)
    return levels if len(levels) >= 2 else [0.7, nn.EPS_FLOOR]


@pytest.mark.parametrize("seed", range(10))
def test_sweep_fit_is_the_correctly_rounded_slope(seed, no_least_squares):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        rows = nn.divergence_sweep(random_levels(rng))["rows"]
        assert nn.fitted_exponent(rows).hex() == reference_slope(rows).hex(), rows


@pytest.mark.parametrize("seed", range(5))
def test_fit_of_random_rows_is_the_correctly_rounded_slope(seed, no_least_squares):
    # lambda_star drawn at random, some rows +inf (skipped by the fit), so
    # the slopes cover every sign and size
    rng = np.random.default_rng(100 + seed)
    for _ in range(50):
        levels = random_levels(rng)
        lams = 10.0 ** rng.uniform(-300, 300, size=len(levels))
        lams[rng.random(len(levels)) < 0.1] = math.inf
        rows = [(e, lam, lam * e, 1, e) for e, lam in zip(levels, lams.tolist())]
        assert nn.fitted_exponent(rows).hex() == reference_slope(rows).hex(), rows


def test_levels_an_ulp_apart(no_least_squares):
    # log(1/epsilon) of the two levels rounds to one float: no slope exists
    low = 1e-100
    high = math.nextafter(low, 1.0)
    assert math.log(1.0 / high) == math.log(1.0 / low)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(nn.fitted_exponent(nn.divergence_sweep([high, low])["rows"]))
        # a third level gives the logs a spread, and the slope is exact again
        rows = nn.divergence_sweep([0.1, high, low])["rows"]
        slope = nn.fitted_exponent(rows)
    assert math.isfinite(slope) and slope.hex() == reference_slope(rows).hex()


def test_verify_writes_nan_for_levels_an_ulp_apart(tmp_path, capsys):
    out = tmp_path / "v.json"
    levels = "1.0000000000000004e-100,1.0000000000000002e-100,1e-100"
    assert len({math.log(1.0 / float(e)) for e in levels.split(",")}) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the three log(1/epsilon) round to one float: no slope exists, yet
        # the verdict, which reads no fit, passes
        assert cli.main(["verify", "--eps", levels, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["overall"] == "pass"
    assert report["sections"]["niceness"]["fitted_exponent"] == "nan"


def test_fewer_than_two_finite_rows_give_nan():
    assert math.isnan(nn.fitted_exponent([]))
    assert math.isnan(nn.fitted_exponent([(0.1, 4.0, 0.4, 1, 0.1)]))
    assert math.isnan(nn.fitted_exponent([(0.1, 4.0, 0.4, 1, 0.1), (0.01, math.inf, math.inf, 1, 0.01)]))


def test_logs_are_libms(monkeypatch):
    # numpy picks its float64 log routine by CPU dispatch, so its last bit
    # may differ between hosts; math.log is the platform libm's, as the
    # sweep rows' sines are
    def refuse(*args, **kwargs):
        raise AssertionError("the fit takes libm's logs")

    monkeypatch.setattr(np, "log", refuse)
    rows = nn.divergence_sweep((1e-1, 1e-2, 1e-3, 1e-4))["rows"]
    assert nn.fitted_exponent(rows) == reference_slope(rows)


def test_default_verify_fit():
    # the value the default verify report writes
    rows = nn.divergence_sweep((1e-1, 1e-2, 1e-3, 1e-4))["rows"]
    assert nn.fitted_exponent(rows) == 1.0142283222545352 == reference_slope(rows)
