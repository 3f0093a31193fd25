"""faces.verify_catalogue against the formula it replaced, bit for bit.

The reference below is the earlier kernel kept verbatim: construction's
arc_max took t* = atan2(A, B) per call and clipped it into [lo, hi], and
verify_catalogue called it once per radius over _far_intervals and twice
over the whole arcs of every face, on (faces, 4) arrays. The kernel now
takes t* and its value once per catalogue and counts them only inside an
interval (a clipped t* is an end, whose value the maximum already holds),
takes the whole-arc extremes only on the curves a face holds whole, and
lays its arrays out curve-major, (4, faces). Every Exposure array must
keep its bytes, on the default catalogues and on one whose pair fails; a
pair that is not finite is refused.

This file needs numpy and pytest only.
"""

import math

import numpy as np
import pytest

from conelab import construction as con
from conelab import faces as fc
from conelab.linalg import DegenerateInputError, gamma

T = con.T_END


def reference_arc_max(a, b, lo, hi):
    lo_v, hi_v, peak = (con.arc_value(a, b, con.arc_sines(t))
                        for t in (lo, hi, np.clip(np.arctan2(a, b), lo, hi)))
    return np.where(lo <= hi, np.maximum(np.maximum(lo_v, hi_v), peak), -math.inf)


def reference_exposure(catalogue, deltas=fc.MARGIN_DELTAS):
    normals, d = catalogue.normals, catalogue.offsets[:, None]
    a, b = con.arc_coefficients(normals)
    anchor, reach = (x.T for x in fc._distance_table(catalogue))  # face-major, as then
    margins = np.empty((len(d), len(deltas)))
    for k, delta in enumerate(deltas):
        far = reference_arc_max(a, b, *fc._far_intervals(anchor, reach, delta))
        margins[:, k] = d[:, 0] - far.max(axis=(0, 2))
    face, curve = np.repeat(np.arange(len(d)), catalogue.sizes), catalogue.gen_ids - 1
    onface = np.abs(d[face, 0] - con.arc_value(a[face, curve], b[face, curve],
                                               con.arc_sines(catalogue.gen_ts)))
    top, low = reference_arc_max(a, b, 0.0, T), -reference_arc_max(-a, -b, 0.0, T)
    whole = np.where(catalogue.full, np.maximum(top - d, d - low), 0.0).max(axis=1)
    starts = np.cumsum(catalogue.sizes) - catalogue.sizes
    residuals = np.maximum(np.maximum.reduceat(onface, starts), whole)
    scale = np.abs(d[:, 0]) + (np.abs(a) + 2.0 * np.abs(b)).max(axis=1)
    bounds = gamma(fc.MARGIN_ROUNDINGS) * scale
    return fc.Exposure(residuals, margins, bounds,
                       (residuals <= bounds) & (margins > bounds[:, None]).all(axis=1))


def assert_same_bytes(catalogue, deltas=fc.MARGIN_DELTAS):
    got, ref = fc.verify_catalogue(catalogue, deltas), reference_exposure(catalogue, deltas)
    for field in fc.Exposure._fields:
        assert getattr(got, field).tobytes() == getattr(ref, field).tobytes(), field
    return got


@pytest.mark.parametrize("thetas", [1, 8, 64, 1024])
def test_exposure_keeps_its_bytes(thetas):
    exposure = assert_same_bytes(fc.build_catalogue(con.theta_grid(thetas)))
    assert exposure.passed.all()


def test_exposure_keeps_its_bytes_with_empty_far_sets():
    # at radius 2 > 2T no point of any curve is far from a face: every far
    # set is empty, and every margin is +inf
    exposure = assert_same_bytes(fc.build_catalogue(con.theta_grid(8)), deltas=(2.0, 0.5))
    assert np.isposinf(exposure.margins[:, 0]).all() and np.isfinite(exposure.margins[:, 1]).all()


def test_failing_pair_keeps_its_bytes(monkeypatch):
    # F15's offset moved off its endpoints: it fails by its residual
    y, d, generators, curves = fc._FIXED["F15"]
    monkeypatch.setitem(fc._FIXED, "F15", (y, d - 1e-3, generators, curves))
    catalogue = fc.build_catalogue(con.theta_grid(8))
    exposure = assert_same_bytes(catalogue)
    failed = [catalogue.kinds[j] for j in np.flatnonzero(~exposure.passed)]
    assert failed == ["F15"]


@pytest.mark.parametrize("kind, normal, offset", [
    ("F13", (math.nan, -1.0, -1.0), None),
    # normalises to (NaN, 0, 0), whose picks would give NaN of both signs
    ("F14", (-math.inf, 1.0, 1.0), None),
    ("F15", None, math.nan),
    ("F15", None, math.inf),
], ids=["nan-normal", "inf-normal", "nan-offset", "inf-offset"])
def test_non_finite_pair_is_refused(kind, normal, offset, monkeypatch):
    # a pair that is not finite has no margins to report: NaN would fail
    # the face as if it were not exposed
    y, d, generators, curves = fc._FIXED[kind]
    pair = (normal or y, d if offset is None else offset)
    monkeypatch.setitem(fc._FIXED, kind, (*pair, generators, curves))
    with np.errstate(invalid="ignore"):  # -inf / inf
        catalogue = fc.build_catalogue(con.theta_grid(8))
    with pytest.raises(DegenerateInputError, match="finite"):
        fc.verify_catalogue(catalogue)


def test_arc_max_keeps_its_bytes():
    # random sinusoids on intervals that are empty, hold t* or leave it out,
    # some reaching past [0, T]; the peak given or taken by arc_max itself
    rng = np.random.default_rng(33)
    a, b = rng.normal(size=(2, 4096))
    lo, hi = rng.uniform(-0.2, T + 0.2, size=(2, 4096))
    expected = reference_arc_max(a, b, lo, hi).tobytes()
    assert con.arc_max(a, b, lo, hi).tobytes() == expected
    assert con.arc_max(a, b, lo, hi, con.arc_peak(a, b)).tobytes() == expected
    assert con.arc_max(a, b, 0.0, T).tobytes() == reference_arc_max(a, b, 0.0, T).tobytes()
