"""One evaluation per run: `solitons.sample_points` against the closure
path it replaces, the stacked tables against their one-point calls, and
counters on the navigation evaluations a fixture suite makes.

A run's sample points evaluate a fixture's navigation data (h rows, W,
lambda, h W) and its weight f once, at order-2 x jets whose lanes are the
flags' x, and gather every table from that evaluation.  Each consumer of the
closure path expands one x as the same order-2 jets, so every table must
come out equal: the stage (through `finsler._f2_jet`) and the log-density
table of `finsler.base_points`, the records of `riemann.point_record`,
`randers.beta_tables` on beta's table, `randers.nav_tensors` on W's order-1
table and f's table; sigma's order-1 table is the field's own.  The density
is e^{-f} sqrt(det h), the fixture measure's own formula, and only the
bundle lanes build the (alpha, beta) rows and table sigma.
"""

import numpy as np
import pytest
from _lanes import assert_lane

from finsler_solitons import finsler, fixtures, jets, randers, riemann, solitons, suites
from finsler_solitons.jets import FlagPoint, Jet
from finsler_solitons.riemann import ScalarField, VectorField, euclidean_metric
from finsler_solitons.sampling import sample_flags

CASES = [(name, None) for name in fixtures.FIXTURE_NAMES] + [("cigar", ("W", 1e-2))]


@pytest.mark.parametrize("name,perturb", CASES)
def test_sample_point_equals_the_closure_path(name, perturb):
    fx = fixtures.get_fixture(name, perturb=perturb)
    flags = sample_flags(fx, 3, np.random.default_rng(23))
    bases, S = solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags, 3)
    assert bases.x.shape == S.x.shape == S.y.shape == (3, fx.dim)
    for k, p in enumerate(flags):
        base = finsler.base_points(fx.metric, fx.measure, [p.x])
        assert len(bases.logs) == len(base.logs) == 3
        assert_lane(bases, k, base, (name, "bases"))
        for order in (2, 3, 4):
            # lane k of the run's stage, unlaned, against the metric's stage of
            # one lane at p.x
            got = finsler._f2_jet(bases.lanes(k).stage, p.y, order)
            want = finsler._f2_jet(base.stage, p.y, order)
            assert got.space is want.space
            assert_lane(want.coeffs, 0, got.coeffs, (name, order), lane=None)

        assert np.array_equal(S.x[k], p.x) and np.array_equal(S.y[k], p.y)
        alpha = riemann.point_record(fx.rd.alpha, p.x, 2)
        h = riemann.point_record(fx.nav.h, p.x, 2)
        assert_lane(S.alpha, k, alpha, (name, "alpha record"), lane=None)
        assert_lane(S.h, k, h, (name, "h record"), lane=None)
        T = randers.beta_tables(alpha, fx.rd.beta.table(p.x, order=2))
        assert_lane(S.beta, k, T, (name, "beta tables"), lane=None)
        assert_lane(S.bd, k, randers.beta_derivatives(T, p.y), (name, "bd"), lane=None)
        assert_lane(S.nav, k, randers.nav_tensors(h, fx.nav.W.table(p.x, order=1)),
                    (name, "nav tensors"), lane=None)
        assert len(S.f) == 3 and len(S.sigma) == 2
        assert_lane(S.f, k, fx.f.table(p.x, order=2), (name, "f table"), lane=None)
        assert_lane(S.sigma, k, fx.sigma.table(p.x, order=1), (name, "sigma table"),
                    lane=None)


@pytest.mark.parametrize("name", ["cigar", "expanding"])
def test_a_flag_on_its_sample_point_evaluates_as_alone(name):
    fx = fixtures.get_fixture(name)
    flags = sample_flags(fx, 2, np.random.default_rng(29))
    bases, stack = solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags, 0)
    assert stack is None
    for k, p in enumerate(flags):
        shared = finsler.evaluate_flags(fx.metric, fx.measure, [p], bases.lanes([k]))
        alone = finsler.evaluate_flags(fx.metric, fx.measure, [p])
        assert_lane(shared, 0, alone, (name, k))


def test_a_sample_point_raises_the_navigation_guard_of_its_point():
    # a run of two flags whose second x has ||W||_h >= 1: the guard checks
    # every lane and names the one it refuses
    nav = randers.NavigationData(euclidean_metric(2), VectorField(lambda x: [x[0], 0.0]))
    rd = randers.from_navigation(nav)
    good, bad = FlagPoint([0.5, 0.0], [1.0, 0.0]), FlagPoint([1.5, 0.0], [1.0, 0.0])
    solitons.sample_points(rd, nav, 0.0, 0.0, [good, good], 2)
    for bundle in (0, 2):
        with pytest.raises(randers.NavigationDomainError, match=r"at lane 1$"):
            solitons.sample_points(rd, nav, 0.0, 0.0, [good, bad], bundle)


def test_a_sample_point_raises_the_evaluation_error_of_its_lane():
    # a weight f composed outside its domain at the second flag only
    nav = randers.NavigationData(euclidean_metric(2), fixtures.ZERO_FIELD)
    rd = randers.from_navigation(nav)
    f = ScalarField(lambda x: jets.sqrt(1.0 - x[0]))
    good, bad = FlagPoint([0.5, 0.0], [1.0, 0.0]), FlagPoint([1.5, 0.0], [1.0, 0.0])
    solitons.sample_points(rd, nav, f, 0.0, [good, good], 2)
    for bundle in (0, 2):
        with pytest.raises(jets.EvaluationError,
                           match=r"^sqrt of a non-positive value \(-0\.5\) at lane 1$"):
            solitons.sample_points(rd, nav, f, 0.0, [good, bad], bundle)


@pytest.mark.parametrize("name,mode,samples", [("cigar", "jet", 40), ("shrinking", "jet", 2),
                                               ("gaussian", "fd", 2), ("cigar", "fd", 2)])
def test_fixture_suite_evaluates_the_navigation_data_once_per_sample_flag(
        name, mode, samples, monkeypatch):
    # the one navigation evaluation at jet x outside the finite-difference
    # oracle is the sample points', laned over the flags' x in flag order;
    # the oracle stages the metric at its own stencil x, one laned stage per
    # pass (spray and S), each flag's own x a lane of both
    fx = fixtures.get_fixture(name)
    xs, fd_xs = [], []
    inside_fd = [0]
    nav_point = randers._navigation_point
    evaluate = finsler.evaluate_flags

    def count(nav, x, *args):
        if isinstance(x[0], Jet):
            (fd_xs if inside_fd[0] else xs).append(np.array([v.value for v in x]).T)
        return nav_point(nav, x, *args)

    def evaluate_flags(metric, measure, points, bases=None, mode="jet"):
        inside_fd[0] += mode == "fd"
        try:
            return evaluate(metric, measure, points, bases, mode)
        finally:
            inside_fd[0] -= mode == "fd"

    monkeypatch.setattr(randers, "_navigation_point", count)
    monkeypatch.setattr(finsler, "evaluate_flags", evaluate_flags)
    reports = suites.run_fixture_suite(fx, samples=samples, seed=5, mode=mode)
    assert any(r.name == "kappa-fit" for r in reports)
    flags = sample_flags(fx, samples, np.random.default_rng(5))
    assert len(xs) == 1
    assert np.array_equal(xs[0], np.array([p.x for p in flags]))
    assert len(fd_xs) == (2 if mode == "fd" else 0)
    assert all((x == p.x).all(axis=1).any() for x in fd_xs for p in flags)


@pytest.mark.parametrize("name,perturb", CASES)
def test_the_fixture_measure_and_its_sample_points_read_one_density(name, perturb):
    # the fd stencils read `fixture.measure`, the base point its sample
    # point's table: both are e^{-f} sqrt(det h), so they agree bit for bit
    fx = fixtures.get_fixture(name, perturb=perturb)
    flags = sample_flags(fx, 3, np.random.default_rng(31))
    bases = solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags, 0)[0]
    for k, p in enumerate(flags):
        got = bases.lanes(k).logs
        want = fx.measure.log_density_table(p.x)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert np.array_equal(g, w), name


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_fixture_suite_builds_alpha_and_beta_at_bundle_points_only(name, monkeypatch):
    # sigma_BH is sqrt(det h): no Randers-side conversion or (alpha, beta)
    # density runs, and the alpha rows are built once per run, laned over the
    # bundle flags (the first 32): their lambda lanes are the first lanes of
    # the run's laned navigation point, its first; the fd oracle's stage
    # evaluates two more, one per laned pass (spray and S stencil)
    calls = {"_bh_density": 0, "_randers_point": 0, "_alpha_rows": 0}
    nav_lams, alpha_lams = [], []

    def counted(fname):
        fn = getattr(randers, fname)

        def wrapper(*args, **kwargs):
            calls[fname] += 1
            if fname == "_alpha_rows":
                alpha_lams.append(args[0][2].value)
            return fn(*args, **kwargs)

        monkeypatch.setattr(randers, fname, wrapper)

    for fname in calls:
        counted(fname)
    nav_point = randers._navigation_point

    def laned_nav_point(nav, x):
        point = nav_point(nav, x)
        if isinstance(x[0], Jet) and x[0].coeffs.ndim > 1:
            nav_lams.append(point[2].value)
        return point

    monkeypatch.setattr(randers, "_navigation_point", laned_nav_point)
    fx = fixtures.get_fixture(name)
    for mode, samples, bundle_points in (("jet", 64, 32), ("fd", 2, 2)):
        for key in calls:
            calls[key] = 0
        nav_lams.clear()
        alpha_lams.clear()
        suites.run_fixture_suite(fx, samples=samples, seed=0, mode=mode)
        assert calls == {"_bh_density": 0, "_randers_point": 0, "_alpha_rows": 1}, (name, mode)
        assert len(nav_lams) == (1 if mode == "jet" else 3)
        assert nav_lams[0].shape == (samples,)
        assert np.array_equal(alpha_lams[0], nav_lams[0][:bundle_points]), (name, mode)


def _one_point_tables(fx, x, y):
    """The gathers, records, beta and W tensors of the fixture at one x, and
    the beta tensors' contractions with y."""
    xs = Jet.variables(list(x), 2)
    space = xs[0].space
    point = randers._navigation_point(fx.nav, xs)
    gathers = (riemann.matrix_gather(randers._alpha_rows(point), space, 2, ()),
               riemann.matrix_gather(point[0], space, 2, ()),
               riemann.vector_gather(randers._beta_low(point), space, 2, ()),
               riemann.vector_gather(point[1], space, 1, ()),
               riemann.scalar_gather(fx.f(xs), space, 2, ()))
    return gathers, _records(fx, x, y, gathers)


def _records(fx, x, y, gathers):
    A = riemann.record_from_tables(fx.rd.alpha, x, gathers[0])
    H = riemann.record_from_tables(fx.nav.h, x, gathers[1])
    T = randers.beta_tables(A, gathers[2])
    return A, H, T, randers.beta_derivatives(T, y), randers.nav_tensors(H, gathers[3])


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_stacked_tables_equal_their_one_point_calls(name):
    # row k of every laned gather and of the stacked record_from_tables,
    # beta_tables, beta_derivatives and nav_tensors is bit-equal to the call
    # at flag k alone
    fx = fixtures.get_fixture(name)
    flags = sample_flags(fx, 64, np.random.default_rng(0))
    X, Y = np.array([p.x for p in flags]), np.array([p.y for p in flags])
    xs = Jet.variables(list(X.T), 2)
    space, lanes = xs[0].space, X.shape[:1]
    point = randers._navigation_point(fx.nav, xs)
    gathers = (riemann.matrix_gather(randers._alpha_rows(point), space, 2, lanes),
               riemann.matrix_gather(point[0], space, 2, lanes),
               riemann.vector_gather(randers._beta_low(point), space, 2, lanes),
               riemann.vector_gather(point[1], space, 1, lanes),
               riemann.scalar_gather(fx.f(xs), space, 2, lanes))
    stacks = _records(fx, X, Y, gathers)
    for k, (x, y) in enumerate(zip(X, Y)):
        want_gathers, want_records = _one_point_tables(fx, x, y)
        assert_lane(gathers, k, want_gathers, (name, k, "gather"), lane=None)
        assert_lane(stacks, k, want_records, (name, k), lane=None)
