"""One evaluation per sample point: `solitons.sample_point` against the
closure path it replaces, and a counter on the navigation evaluations a
fixture suite makes.

A sample point evaluates a fixture's navigation data (h rows, W, lambda,
h W) and its weight f once at x, as order-2 jets, and gathers every table
from that evaluation.  Each consumer of the closure path expands x as the
same order-2 jets, so every table must come out equal: the stage (through
`finsler._f2_jet`) and the log-density table of `finsler.base_point`, the
records of `riemann.point_record`, `randers.beta_tables` on beta's table,
`randers.nav_tensors` on W's order-1 table and f's table.
"""

import dataclasses

import numpy as np
import pytest

from finsler_solitons import finsler, fixtures, randers, riemann, solitons, suites
from finsler_solitons.jets import FlagPoint, Jet
from finsler_solitons.riemann import VectorField, euclidean_metric
from finsler_solitons.sampling import sample_flags

CASES = [(name, None) for name in fixtures.FIXTURE_NAMES] + [("cigar", ("W", 1e-2))]


def _equal(got, want, what):
    if isinstance(want, riemann.RiemannMetric):
        assert got is want, what
    elif want is None:
        assert got is None, what
    else:
        assert np.array_equal(got, want), what


def _same_fields(got, want, what):
    assert type(got) is type(want), what
    for f in dataclasses.fields(want):
        _equal(getattr(got, f.name), getattr(want, f.name), (what, f.name))


@pytest.mark.parametrize("name,perturb", CASES)
def test_sample_point_equals_the_closure_path(name, perturb):
    fx = fixtures.get_fixture(name, perturb=perturb)
    for p in sample_flags(fx, 3, np.random.default_rng(23)):
        sp = solitons.sample_point(fx.rd, fx.nav, fx.f, p, True)
        assert sp.p is p
        base = finsler.base_point(fx.metric, fx.measure, p.x)
        assert np.array_equal(sp.base.x, base.x)
        for order in (2, 3, 4):
            got = finsler._f2_jet(sp.base.stage, p.y, order)
            want = finsler._f2_jet(base.stage, p.y, order)
            assert got.space is want.space
            assert np.array_equal(got.coeffs, want.coeffs), (name, order)
        assert len(sp.base.logs) == len(base.logs) == 3
        for got, want in zip(sp.base.logs, base.logs):
            assert np.array_equal(got, want), (name, "logs")

        alpha = riemann.point_record(fx.rd.alpha, p.x, 2)
        h = riemann.point_record(fx.nav.h, p.x, 2)
        _same_fields(sp.alpha, alpha, (name, "alpha record"))
        _same_fields(sp.h, h, (name, "h record"))
        T = randers.beta_tables(alpha, fx.rd.beta.table(p.x, order=2))
        _same_fields(sp.beta, T, (name, "beta tables"))
        bd = randers.beta_derivatives(fx.rd, p, tables=T)
        assert sp.bd.tables is sp.beta
        for f in dataclasses.fields(bd):
            if f.name != "tables":
                _equal(getattr(sp.bd, f.name), getattr(bd, f.name), (name, "bd", f.name))
        _same_fields(sp.nav, randers.nav_tensors(h, fx.nav.W.table(p.x, order=1)),
                     (name, "nav tensors"))
        assert len(sp.f) == 3
        for got, want in zip(sp.f, fx.f.table(p.x, order=2)):
            assert np.array_equal(got, want), (name, "f table")


@pytest.mark.parametrize("name", ["cigar", "expanding"])
def test_a_flag_on_its_sample_point_evaluates_as_alone(name):
    fx = fixtures.get_fixture(name)
    for p in sample_flags(fx, 2, np.random.default_rng(29)):
        sp = solitons.sample_point(fx.rd, fx.nav, fx.f, p, False)
        assert (sp.alpha, sp.beta, sp.bd, sp.h, sp.nav, sp.f) == (None,) * 6
        shared = finsler.evaluate_flags(fx.metric, fx.measure, [p], [sp.base])[0]
        alone = finsler.evaluate_flags(fx.metric, fx.measure, [p])[0]
        for f in dataclasses.fields(alone.bundle):
            assert np.array_equal(getattr(shared.bundle, f.name), getattr(alone.bundle, f.name))
        assert (shared.S, shared.s_dot, shared.ric_inf, shared.flag_curvature) == (
            alone.S, alone.s_dot, alone.ric_inf, alone.flag_curvature)


def test_a_sample_point_raises_the_navigation_guard_of_its_point():
    nav = randers.NavigationData(euclidean_metric(2), VectorField(lambda x: [x[0], 0.0]))
    rd = randers.from_navigation(nav)
    solitons.sample_point(rd, nav, 0.0, FlagPoint([0.5, 0.0], [1.0, 0.0]), True)
    for bundle in (False, True):
        with pytest.raises(randers.NavigationDomainError):
            solitons.sample_point(rd, nav, 0.0, FlagPoint([1.5, 0.0], [1.0, 0.0]), bundle)


@pytest.mark.parametrize("name,mode,samples", [("cigar", "jet", 40), ("shrinking", "jet", 2),
                                               ("gaussian", "fd", 2), ("cigar", "fd", 2)])
def test_fixture_suite_evaluates_the_navigation_data_once_per_sample_flag(
        name, mode, samples, monkeypatch):
    # every navigation evaluation at jet x outside the finite-difference
    # oracle (which stages the metric at its own stencil x) is a sample
    # point's, at that flag's x, in flag order; the oracle reads the sample
    # point's base at the flag's own x
    fx = fixtures.get_fixture(name)
    xs, fd_xs = [], []
    inside_fd = [0]
    nav_point = randers._navigation_point
    evaluate = finsler.evaluate_flags

    def count(nav, x, *args):
        if isinstance(x[0], Jet):
            (fd_xs if inside_fd[0] else xs).append([v.value for v in x])
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
    assert np.array_equal(np.array(xs), np.array([p.x for p in flags]))
    assert bool(fd_xs) == (mode == "fd")
    assert not any(np.array_equal(x, p.x) for x in fd_xs for p in flags)
