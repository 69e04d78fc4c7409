"""Stacked flags: one F^2 expansion per flag, one spray and Riemann pass per
stack.  A stack evaluates bit for bit as each of its flags alone, the suites
make one order-4 spray pass per stack, and one bad flag refuses the stack."""

import functools

import numpy as np
import pytest
from _lanes import assert_lane, fd_flag_alone

from finsler_solitons import finsler, fixtures, generators, jets, randers, solitons, suites
from finsler_solitons.finsler import FinslerMetric, FlagDomainError, Measure
from finsler_solitons.jets import FlagPoint
from finsler_solitons.sampling import sample_flags, unit_direction


def _stack(fx, count=3, seed=7):
    """Sampled flags (each at its own x, on its lane of the run's bases) and
    then every `solitons._directions` flag at the first flag's x, on that
    lane."""
    flags = sample_flags(fx, count, np.random.default_rng(seed))
    bases, _ = solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags, 0)
    dirs = solitons._directions(fx.dim)
    points = list(flags) + [FlagPoint(flags[0].x, d) for d in dirs]
    return points, bases.lanes(np.r_[np.arange(count), np.zeros(len(dirs), int)])


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_a_stack_of_flags_evaluates_as_each_flag_alone(name):
    fx = fixtures.get_fixture(name)
    points, bases = _stack(fx)
    assert len({np.asarray(p.x, float).tobytes() for p in points}) == 3
    stacked = finsler.evaluate_flags(fx.metric, fx.measure, points, bases)
    bundle = finsler.curvature_bundle(fx.metric, points)
    assert stacked.S.shape == bundle.ricci.shape == (len(points),)
    for k, p in enumerate(points):
        alone = finsler.evaluate_flags(fx.metric, fx.measure, [p], bases.lanes([k]))
        assert_lane(stacked, k, alone, (name, k))
        assert_lane(bundle, k, finsler.curvature_bundle(fx.metric, [p]), (name, k))


def test_an_fd_stack_evaluates_as_each_flag_alone():
    fx = fixtures.get_fixture("cigar")
    flags = sample_flags(fx, 2, np.random.default_rng(7))
    stacked = finsler.evaluate_flags(fx.metric, fx.measure, flags, mode="fd")
    for k, p in enumerate(flags):
        alone = finsler.evaluate_flags(fx.metric, fx.measure, [p], mode="fd")
        assert_lane(stacked, k, alone, k)


# the fd cases: every registry fixture at sampled flags, cigar at flags with
# signed zeros (a stencil point that moves another coordinate has +0.0 where
# the flag has -0.0, so the flag's own point and its neighbours are told
# apart by their bytes), and the two random metric kinds of `jets-vs-fd`
# with their weighted measures
FD_CASES = (*fixtures.FIXTURE_NAMES, "cigar-signed-zeros", "random-randers",
            "random-riemannian")


@functools.lru_cache(maxsize=None)
def _fd_case(name):
    """(metric, measure, 3 flags) of the fd case `name`, one of `FD_CASES`."""
    if name in fixtures.FIXTURE_NAMES:
        fx = fixtures.get_fixture(name)
        return fx.metric, fx.measure, sample_flags(fx, 3, np.random.default_rng(23))
    if name == "cigar-signed-zeros":
        fx = fixtures.get_fixture("cigar")
        return fx.metric, fx.measure, [
            FlagPoint([1.0, -0.0], [0.6, -0.0]), FlagPoint([1.0, 0.0], [-0.0, 0.8]),
            FlagPoint([0.7, -0.0], [-0.6, 0.8])]
    # the two random cases draw from one generator, in this order
    rng = np.random.default_rng(29)
    rd = generators.random_randers(rng, 2)
    h = generators.random_riemann_metric(rng, 2)
    f_rd, f_h = (generators.random_scalar_field(rng, 2) for _ in range(2))
    cases = {"random-randers": (randers.finsler_from_randers(rd),
                                randers.bh_measure(rd).weighted(f_rd)),
             "random-riemannian": (FinslerMetric.from_riemannian(h),
                                   Measure.riemannian(h).weighted(f_h))}
    flags = {key: [FlagPoint(generators.sample_box_point(rng, 2), unit_direction(rng, 2))
                   for _ in range(3)] for key in cases}
    return (*cases[name], flags[name])


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("name", FD_CASES)
def test_an_fd_stack_equals_the_per_point_fd_evaluation(name, count):
    # bundle, S, dS, S-dot, Ric_inf and r_error: values, shapes and signs of zero
    metric, measure, flags = _fd_case(name)
    flags = flags[:count]
    stacked = finsler.evaluate_flags(metric, measure, flags, mode="fd")
    bundle = stacked.bundle
    assert stacked.S.shape == bundle.r_error.shape == (count,)
    for k, p in enumerate(flags):
        assert_lane(stacked, k, fd_flag_alone(metric, measure, p), (name, k))
        assert_lane(bundle, k, fd_flag_alone(metric, None, p), (name, k))


@pytest.mark.parametrize("name", FD_CASES)
def test_the_fd_bundle_does_not_depend_on_the_measure(name):
    # every field of the fd bundle, values, shapes and signs of zero, under
    # the case's measure and under another one
    metric, measure, flags = _fd_case(name)
    other = measure.weighted(lambda x: 0.3 * x[0] - 0.2 * x[1] * x[1])
    got = finsler.evaluate_flags(metric, measure, flags, mode="fd")
    want = finsler.evaluate_flags(metric, other, flags, mode="fd")
    assert got.S.tolist() != want.S.tolist()        # the measures differ
    for k in range(len(flags)):
        assert_lane(got.bundle, k, want.bundle, (name, k), k)


def _count_sprays(monkeypatch):
    orders = []
    spray = finsler._spray_derivatives

    def counted(T, y, order):
        orders.append(order)
        return spray(T, y, order)

    monkeypatch.setattr(finsler, "_spray_derivatives", counted)
    return orders


@pytest.mark.parametrize("name", ["cigar", "shrinking"])
def test_jet_flag_rows_make_one_spray_pass(name, monkeypatch):
    fx = fixtures.get_fixture(name)
    flags = sample_flags(fx, 3, np.random.default_rng(5))
    bases, _ = solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags, 0)
    orders = _count_sprays(monkeypatch)
    rows, flat = suites._flag_rows(fx, flags, bases, "jet")
    assert flat == 0 and rows and all(row.shape == (3,) for row in rows.values())
    assert orders == [4]


def test_fit_kappa_makes_one_spray_pass_per_fit(monkeypatch):
    fx = fixtures.get_fixture("shrinking")
    flags = sample_flags(fx, 2, np.random.default_rng(5))
    bases = finsler.base_points(fx.metric, fx.measure, [p.x for p in flags])
    assert len(solitons._directions(fx.dim)) == 16
    orders = _count_sprays(monkeypatch)
    solitons.fit_kappa(fx.metric, fx.measure, bases)
    assert len(bases.x) == 2 and orders == [4]


def _fit_kappa_per_base(metric, measure, bases):
    """The kappa fit one base at a time, as `solitons.fit_kappa` computed it
    before one stack per fit: one `evaluate_flags` call per base (its lane
    repeated across the directions) and the F^2 normalisers from a float
    stage per base."""
    dirs = solitons._directions(metric.dim)
    kappas, anisotropy = [], 0.0
    for k, x in enumerate(bases.x):
        at = metric.at(list(x))
        points = [FlagPoint(x, d) for d in dirs]
        ev = finsler.evaluate_flags(metric, measure, points, bases.lanes(np.full(len(dirs), k)))
        vals = np.array([ric / float(jets.scalar_value(at(list(p.y)))) ** 2
                         for p, ric in zip(points, ev.ric_inf)])
        kappas.append(float(np.mean(vals)))
        anisotropy = max(anisotropy, float(np.max(vals) - np.min(vals)))
    return np.array(kappas), anisotropy


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
@pytest.mark.parametrize("seed", [0, 42])
def test_fit_kappa_equals_the_per_base_fit(name, seed):
    # the fixture suite's fit: the base points of its first 4 flags
    fx = fixtures.get_fixture(name)
    flags = sample_flags(fx, 4, np.random.default_rng(seed))
    bases, _ = solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags, 0)
    kappas, anisotropy = solitons.fit_kappa(fx.metric, fx.measure, bases)
    want_kappas, want_anisotropy = _fit_kappa_per_base(fx.metric, fx.measure, bases)
    assert np.array_equal(kappas, want_kappas)
    assert np.array_equal(np.signbit(kappas), np.signbit(want_kappas))
    assert anisotropy == want_anisotropy


def test_a_fit_stack_on_shrinking_evaluates_as_each_flag_alone():
    # the shrinking fit of `verify --fixture shrinking --samples 2 --seed 42`:
    # 2 bases x 16 directions in one stack, each Q table one C-contiguous
    # gather, flag axis first (a lane-last gather changes dG_dx and the
    # second derivatives of G in the last bit)
    fx = fixtures.get_fixture("shrinking")
    flags = sample_flags(fx, 2, np.random.default_rng(42))
    dirs = solitons._directions(fx.dim)
    points = [FlagPoint(p.x, d) for p in flags for d in dirs]
    stacked = finsler.curvature_bundle(fx.metric, points)
    X = np.array([p.x for p in points])
    Y = np.array([p.y for p in points])
    T = finsler._f2_tables(finsler._lane_stage(fx.metric, X), Y, 4)
    assert len(T.pop("F")) == len(points)
    for key, table in T.items():
        assert table.flags.c_contiguous and table.shape[0] == len(points), key
    for k, p in enumerate(points):
        assert_lane(stacked, k, finsler.curvature_bundle(fx.metric, [p]), k)


def test_a_stack_with_one_indefinite_g_raises():
    # F^2 = y0^2 + x0 y1^2: g is positive definite at x0 > 0 and indefinite
    # at x0 < 0, where F is still positive for these y
    metric = FinslerMetric(2, lambda x, y: jets.sqrt(y[0] * y[0] + x[0] * y[1] * y[1]))
    measure = Measure(lambda x: jets.exp(0.1 * x[0]))
    good = [FlagPoint([0.5, 0.0], [1.0, 0.3]), FlagPoint([1.0, 0.2], [0.6, -0.8])]
    bad = FlagPoint([-0.5, 0.0], [1.0, 0.3])
    assert metric.value(bad.x, bad.y) > 0.0
    assert finsler.evaluate_flags(metric, measure, good).S.shape == (2,)
    for stack in (good + [bad], [good[0], bad, good[1]], [bad]):
        with pytest.raises(FlagDomainError, match="positive definite"):
            finsler.curvature_bundle(metric, stack)
        with pytest.raises(FlagDomainError, match="positive definite"):
            finsler.evaluate_flags(metric, measure, stack)
