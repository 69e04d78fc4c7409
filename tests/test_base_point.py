"""Staged metrics and base points, bit for bit.

The library metrics do their x-only work once per stage
(`FinslerMetric.at`); here each is held against a copy of the inline
F(x, y) formula it replaced, given as a plain `FinslerMetric(dim, fn)`, and
`evaluate_flags` on shared `Bases` against `evaluate_flags` alone.
The inline formulas are lane-safe (their guards read every lane), so a
stack of their flags runs one stage laned over the flags' x.
"""

import dataclasses

import numpy as np
import pytest
from _lanes import assert_lane

from finsler_solitons import finsler, fixtures, generators, jets, randers
from finsler_solitons.finsler import FinslerMetric, Measure
from finsler_solitons.jets import FlagPoint, scalar_value
from finsler_solitons.randers import _lam
from finsler_solitons.riemann import VectorField, euclidean_metric
from finsler_solitons.sampling import sample_flags, unit_direction


# -- the inline formulas, as F(x, y) -----------------------------------------------


def _navigation_fn(nav):
    n = nav.dim

    def fn(x, y):
        rows = nav.h.matrix(x)
        w = nav.W.components(x)
        lam = _lam(rows, w)
        jets.refuse(scalar_value(lam) <= 0.0, randers.NavigationDomainError,
                    lambda k: "||W||_h >= 1 at evaluated point")
        h2 = 0.0
        for i in range(n):
            for j in range(n):
                h2 = h2 + rows[i][j] * y[i] * y[j]
        w0 = 0.0
        for i in range(n):
            for j in range(n):
                w0 = w0 + rows[i][j] * w[j] * y[i]
        return (jets.sqrt(lam * h2 + w0 * w0) - w0) / lam

    return fn


def _randers_fn(rd):
    n = rd.dim

    def fn(x, y):
        rows = rd.alpha.matrix(x)
        b = rd.beta.components(x)
        randers._randers_point([[scalar_value(v) for v in row] for row in rows],
                               [scalar_value(v) for v in b],
                               "||beta||_alpha >= 1 at evaluated point")
        quad = 0.0
        lin = 0.0
        for i in range(n):
            lin = lin + b[i] * y[i]
            for j in range(n):
                quad = quad + rows[i][j] * y[i] * y[j]
        return jets.sqrt(quad) + lin

    return fn


def _riemannian_fn(h):
    def fn(x, y):
        rows = h.matrix(x)
        quad = 0.0
        for i in range(h.dim):
            for j in range(h.dim):
                quad = quad + rows[i][j] * y[i] * y[j]
        return jets.sqrt(quad)

    return fn


# -- cases: (staged metric, measure, reference metric, points, directions) ----------

CASES = list(fixtures.FIXTURE_NAMES) + ["randers-2", "randers-3", "riemann-2", "riemann-3"]


def _case(name):
    rng = np.random.default_rng(31)
    if name in fixtures.FIXTURE_NAMES:
        fx = fixtures.get_fixture(name)
        flags = sample_flags(fx, 4, rng)
        xs = [p.x for p in flags[:2]]
        dirs = [p.y for p in flags[2:]]
        ref = FinslerMetric(fx.dim, _navigation_fn(fx.nav))
        return fx.metric, fx.measure, ref, xs, dirs
    kind, dim = name.split("-")
    dim = int(dim)
    if kind == "randers":
        rd = generators.random_randers(rng, dim)
        metric, measure = randers.finsler_from_randers(rd), randers.bh_measure(rd)
        ref = FinslerMetric(dim, _randers_fn(rd))
    else:
        h = generators.riemann_metric(generators.draw_riemann_metric(rng, dim))
        metric, measure = FinslerMetric.from_riemannian(h), Measure.riemannian(h)
        ref = FinslerMetric(dim, _riemannian_fn(h))
    xs = [generators.sample_box_point(rng, dim) for _ in range(2)]
    dirs = [unit_direction(rng, dim) for _ in range(2)]
    return metric, measure, ref, xs, dirs


def _assert_bitwise(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), what


@pytest.mark.parametrize("name", CASES)
def test_f2_jet_on_a_shared_base_point_equals_the_inline_formula(name):
    metric, measure, ref, xs, dirs = _case(name)
    for x in xs:
        base = finsler.base_points(metric, measure, [x])
        for y in dirs:
            assert metric.value(x, y) == ref.value(x, y)
            for order in (2, 3, 4):
                # lane 0 of the base's stage of one lane against the unlaned
                # stage of the inline formula
                got = finsler._f2_jet(base.stage, y, order)
                want = finsler._f2_jet(finsler._lane_stage(ref, x), y, order)
                assert got.space is want.space is jets.flag_space(metric.dim, order)
                assert got.coeffs.shape == (1,) + want.coeffs.shape, (name, order)
                _assert_bitwise(got.coeffs[0], want.coeffs, (name, order))


@pytest.mark.parametrize("name", CASES)
def test_evaluate_flag_on_a_base_point_equals_evaluate_flag(name):
    metric, measure, ref, xs, dirs = _case(name)
    for x in xs:
        base = finsler.base_points(metric, measure, [x])
        for y in dirs:
            p = FlagPoint(x, y)
            shared = finsler.evaluate_flags(metric, measure, [p], base)
            assert [f.name for f in dataclasses.fields(shared)] == [
                "bundle", "S", "dS_dx", "dS_dy", "s_dot", "ric_inf"]
            assert_lane(shared, 0, finsler.evaluate_flags(metric, measure, [p]), name)
            assert_lane(shared, 0, finsler.evaluate_flags(ref, measure, [p]), name)


@pytest.mark.parametrize("name", CASES)
def test_a_stack_of_the_inline_formula_equals_each_flag_alone(name):
    # one stage of each metric laned over the stack's x, against every flag
    # of the staged metric evaluated alone
    metric, measure, ref, xs, dirs = _case(name)
    points = [FlagPoint(x, y) for x in xs for y in dirs]
    for m in (metric, ref):
        stacked = finsler.evaluate_flags(m, measure, points)
        for k, p in enumerate(points):
            assert_lane(stacked, k, finsler.evaluate_flags(metric, measure, [p]), (name, k))


def test_evaluate_flag_refuses_a_base_point_at_another_x():
    fx = fixtures.get_fixture("cigar")
    base = finsler.base_points(fx.metric, fx.measure, [[1.0, 0.3]])
    with pytest.raises(ValueError, match="different x"):
        finsler.evaluate_flags(fx.metric, fx.measure, [FlagPoint([1.0, 0.4], [0.4, -0.7])],
                               base)


def test_a_stage_raises_the_domain_guard_of_its_point():
    nav = randers.NavigationData(euclidean_metric(2), VectorField(lambda x: [x[0], 0.0]))
    metric = randers.finsler_from_navigation(nav)
    metric.at([0.5, 0.0])
    with pytest.raises(randers.NavigationDomainError):
        metric.at([1.5, 0.0])
    with pytest.raises(randers.NavigationDomainError):
        metric.value([1.5, 0.0], [1.0, 0.0])
