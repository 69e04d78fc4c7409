"""Batched flag draws against the one-draw-at-a-time loop they replaced:
the same flags, their F bit for bit, and the same rng state afterwards."""

from types import SimpleNamespace

import numpy as np
import pytest

from finsler_solitons import finsler, fixtures, jets, sampling
from finsler_solitons.sampling import MAX_TRIES, MIN_F, SampledFlag, unit_direction


def _per_draw(fixture, count, rng):
    """The reference: one draw and one `value` at a time."""
    flags = []
    tries = 0
    while len(flags) < count:
        if tries > MAX_TRIES * count:
            raise RuntimeError(f"flag sampling failed on fixture {fixture.name!r}")
        tries += 1
        x = fixture.sample_x(rng)
        y = unit_direction(rng, fixture.dim)
        try:
            F = fixture.metric.value(x, y)
        except ArithmeticError:
            continue
        if F < MIN_F:
            continue
        flags.append(SampledFlag(x, y, F))
    return flags


def _assert_same_draws(fixture, count, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = sampling.sample_flags(fixture, count, rng), _per_draw(fixture, count, ref_rng)
    assert len(got) == len(want) == count
    for p, q in zip(got, want):
        assert np.array_equal(p.x, q.x) and np.array_equal(p.y, q.y)
        assert type(p.F) is float and p.F == q.F
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _cases():
    for name in fixtures.FIXTURE_NAMES:
        yield name, None
    yield "gaussian", ("f", 1e-2)
    yield "cigar", ("W", 0.3)           # refuses about 40 % of its draws


@pytest.mark.parametrize("case", list(_cases()), ids=lambda c: f"{c[0]}-{c[1]}")
@pytest.mark.parametrize("count", [1, 5, 64])
def test_batched_draws_equal_the_per_draw_loop(case, count):
    name, perturb = case
    fx = fixtures.get_fixture(name, perturb=perturb)
    for seed in (0, 3):
        _assert_same_draws(fx, count, seed)


def test_a_run_with_refused_draws_draws_in_several_batches(monkeypatch):
    fx = fixtures.get_fixture("cigar", perturb=("W", 0.3))
    draws = []
    sample_x = fx.sample_x
    monkeypatch.setattr(fx, "sample_x", lambda rng: draws.append(1) or sample_x(rng))
    sampling.sample_flags(fx, 64, np.random.default_rng(0))
    assert len(draws) > 64
    monkeypatch.undo()
    _assert_same_draws(fx, 64, 0)


def _half_plane(lane_safe):
    """A metric refused on x[0] < 0 and below MIN_F on x[1] < -0.5, written
    with Python branches (as F(x, y), not lane-safe) or with lane masks."""
    def F(x, y):
        if x[0] < 0:
            raise jets.EvaluationError("outside the chart")
        return jets.sqrt(y[0] * y[0] + y[1] * y[1]) * (0.0 if x[1] < -0.5 else 1.0)

    def at(x):
        jets.refuse(np.asarray(x[0]) < 0, jets.EvaluationError, lambda k: "outside the chart")
        scale = np.where(np.asarray(x[1]) < -0.5, 0.0, 1.0)
        return lambda y: jets.sqrt(y[0] * y[0] + y[1] * y[1]) * scale

    metric = finsler.FinslerMetric.from_stage(2, at) if lane_safe else finsler.FinslerMetric(2, F)
    return SimpleNamespace(name="half-plane", dim=2, metric=metric,
                           sample_x=lambda rng: rng.uniform(-1.0, 1.0, size=2))


@pytest.mark.parametrize("lane_safe", [False, True])
def test_refused_and_small_draws_are_redrawn_as_one_at_a_time(lane_safe):
    fixture = _half_plane(lane_safe)
    assert fixture.metric.lane_safe is lane_safe
    for seed in range(3):
        _assert_same_draws(fixture, 12, seed)


@pytest.mark.parametrize("lane_safe", [False, True])
def test_sampling_gives_up_at_the_same_draw(lane_safe):
    fixture = _half_plane(lane_safe)
    fixture.sample_x = lambda rng: rng.uniform(-1.0, -0.1, size=2)    # every draw refused
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(RuntimeError, match="half-plane"):
        sampling.sample_flags(fixture, 3, rng)
    with pytest.raises(RuntimeError, match="half-plane"):
        _per_draw(fixture, 3, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
