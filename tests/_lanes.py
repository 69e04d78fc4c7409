"""One lane-equality check for the stacked records of the engine.

A stacked record (`finsler.FlagEvaluation`, `finsler.CurvatureBundle`,
`finsler.Bases`, `solitons.BundleStack`) holds a stack of flags or points,
every array with a leading lane axis.  Its lane k must equal the record of
that one flag or point alone, in values, shape and signs of zero.
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
