"""One lane-equality check for the stacked records of the engine.

A stacked record (`finsler.FlagEvaluation`, `finsler.CurvatureBundle`,
`finsler.Bases`, `solitons.BundleStack`) holds a stack of flags or points,
every array with a leading lane axis.  Its lane k must equal the record of
that one flag or point alone, in values, shape and signs of zero.  The
stacked flag-curvature fit is checked lane by lane against the one-point
formula it replaced (`one_flag_fit`).
"""

import dataclasses

import numpy as np

from finsler_solitons import finsler


def _lane(record, k):
    """Lane k of a record, as nested dicts and lists of arrays: every array
    at [k]; k None keeps the record's arrays as they are (a one-point record
    with no lane axis).  A stage is code, not data: the tests that hold one
    compare what it expands (`finsler._f2_jet`)."""
    if isinstance(record, finsler.LaneStage):
        return "stage"
    if dataclasses.is_dataclass(record):
        return {"type": type(record).__name__,
                **{f.name: _lane(getattr(record, f.name), k)
                   for f in dataclasses.fields(record)}}
    if isinstance(record, (list, tuple)):
        return [_lane(v, k) for v in record]
    if record is None or k is None:
        return record
    return np.asarray(record)[k]


def _assert_same(got, want, what):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), what
        for key in want:
            _assert_same(got[key], want[key], (what, key))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), what
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, (what, i))
    elif want is None or isinstance(want, str):
        assert got == want, what
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape, (what, got.shape, want.shape)
        assert np.array_equal(got, want), what
        assert np.array_equal(np.signbit(got), np.signbit(want)), what


def assert_lane(stack, k, one, what, lane=0):
    """Lane k of the stacked record `stack` equals `one`, the record of its
    flag or point alone: at its lane `lane` (a one-flag stack), or as it is
    for lane=None (a one-point record with no lane axis)."""
    _assert_same(_lane(stack, k), _lane(one, lane), what)


def one_flag_fit(b, k):
    """The flag-curvature fit of flag k of the bundle b alone, by the
    one-point formula: (K, residual, flat, within_error).  The reference for
    the stacked `finsler.flag_curvature`."""
    F2, y = b.F2[k], b.y[k]
    A = F2 * np.eye(y.size) - 0.5 * np.outer(y, b.dF2_dy[k])
    R = b.riemann[k]
    normR = float(np.linalg.norm(R))
    if normR <= 1e-11 * F2 * F2 + 1e-300:
        return 0.0, 0.0, True, False
    if normR <= b.r_error[k]:
        return 0.0, 0.0, True, True
    K = float(np.sum(R * A) / np.sum(A * A))
    return K, float(np.linalg.norm(R - K * A) / normR), False, False


def assert_fit_lanes(fit, b, what):
    """Every lane of the stacked fit `fit` of the bundle b equals
    `one_flag_fit` of its flag, bit for bit and in signs of zero."""
    assert all(len(v) == len(b.y) for v in dataclasses.astuple(fit)), what
    for k in range(len(b.y)):
        K, residual, flat, within_error = one_flag_fit(b, k)
        _assert_same([fit.value[k], fit.residual[k]], [K, residual], (what, k))
        assert (fit.flat[k], fit.within_error[k]) == (flat, within_error), (what, k)
