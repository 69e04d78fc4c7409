"""The navigation identities as table formulas: each random metric's flags
in the `randers-ricci` suite, each family of blocks of one kind and size in
the `navigation` suite, and each family of random draws of one dimension in
the `lie-identity`, `riemann-reduction` and `isotropic-s` suites (of one
metric kind in the pipeline half of `jets-vs-fd`), evaluate their
navigation data, their float F and their order-4 expansion of F^2 once,
laned over the flags (and, in a family, over the draws), and the rows are
those of the path that evaluated each quantity on its own: the per-point
path, or the per-draw loop a family replaced (`_lanes`), in draw order and
with the rng state that path leaves."""

import math

import numpy as np
import pytest
from _lanes import (isotropic_draw_alone, lie_draw_alone, pipeline_draw_alone,
                    reduction_draw_alone)

from finsler_solitons import finsler, generators, randers, riemann, solitons, suites
from finsler_solitons.jets import FlagPoint
from finsler_solitons.sampling import unit_direction


def _counting(monkeypatch):
    """Counts of `_navigation_point` calls, order-4 `_f2_jet` and float F values."""
    calls = {"navigation_point": 0, "order4": 0, "value": 0}
    point, expand, value = (randers._navigation_point, finsler._f2_jet,
                            finsler.FinslerMetric.value)

    def counted_point(nav, x):
        calls["navigation_point"] += 1
        return point(nav, x)

    def counted_expansion(stage, y, order):
        calls["order4"] += order == 4
        return expand(stage, y, order)

    def counted_value(self, x, y):
        calls["value"] += 1
        return value(self, x, y)

    monkeypatch.setattr(randers, "_navigation_point", counted_point)
    monkeypatch.setattr(finsler, "_f2_jet", counted_expansion)
    monkeypatch.setattr(finsler.FinslerMetric, "value", counted_value)
    return calls


def _x(flags):
    return np.array([p.x for p in flags])


# The counts of the perfbench crosscheck workload.  Per family of draws (one
# per dimension, so two at any count >= 2): isotropic-s, one navigation
# point for the sample points and one for the float F, and one order-4
# expansion; lie-identity, the split half's F, and the lifted half's F and
# one navigation point for its jet pass.  navigation: per family of blocks
# of one kind and size (the 150 points are 7 blocks of 20 and one of 10:
# the 4 Randers-first blocks of 20, the 3 navigation-first blocks of 20
# and the navigation-first block of 10), one F and the round trip's own
# conversion closures (alpha and beta of from_navigation in a
# Randers-first family, h and W of to_navigation, two each, in a
# navigation-first one), each once.
@pytest.mark.parametrize("suite, count, want", (
    ("isotropic-s", 6, {"navigation_point": 2 * 2, "order4": 2, "value": 2}),
    ("lie-identity", 20, {"navigation_point": 2 * 2, "order4": 0, "value": 2 * 2}),
    ("navigation", 150, {"navigation_point": (1 + 2) + 2 * (1 + 4), "order4": 0,
                         "value": 3}),
))
def test_crosscheck_point_evaluates_each_thing_once(suite, count, want, monkeypatch):
    calls = _counting(monkeypatch)
    suites.run_crosscheck_suite(suite, count=count, seed=1)
    assert calls == want


@pytest.mark.parametrize("suite, count, shapes", (
    ("navigation", 37, {"record_from_tables": [(20, 1, 2), (17, 1, 3)],
                        "nav_tensors": [(20, 1, 2), (17, 1, 3)],
                        "vector_table": [(20, 1, 2), (17, 1, 3)],
                        "matrix_at": [(20, 1, 2)] * 2 + [(17, 1, 3)] * 2,
                        "at": [(20, 1, 2)] * 2 + [(17, 1, 3)] * 2,
                        "value": [(20, 1, 2), (17, 1, 3)]}),
    ("randers-ricci", 2, {"record_from_tables": [(16, 3)] * 2, "beta_tables": [(16, 3)] * 2,
                          "beta_derivatives": [(16, 3)] * 2, "vector_table": [(16, 3)] * 2,
                          "randers_ricci_closed_form": [(16, 3)] * 2,
                          "value": [(16, 3)] * 2}),
    ("lie-identity", 20, {"lie_F2": [(10, 2), (10, 3)], "lie_nav_h2_sides": [(10, 2), (10, 3)],
                          "record_from_tables": [(10, 2)] * 2 + [(10, 3)] * 2,
                          "nav_tensors": [(10, 2), (10, 3)],
                          "vector_table": [(10, 2)] * 4 + [(10, 3)] * 4,
                          "value": [(10, 2)] * 2 + [(10, 3)] * 2}),
    ("riemann-reduction", 10, {"curvature_bundle": [(5, 2), (5, 3)],
                               "record_from_tables": [(5, 2), (5, 3)],
                               "riemann_ricci": [(5, 2), (5, 3)]}),
    ("isotropic-s", 7, {"sample_points": [(4, 2), (3, 3)], "fit_sigma": [(4, 2), (3, 3)],
                        "evaluate_flags": [(4, 2), (3, 3)],
                        "record_from_tables": [(4, 2)] * 2 + [(3, 3)] * 2,
                        "nav_tensors": [(4, 2), (3, 3)], "value": [(4, 2), (3, 3)]}),
    ("navigation", 147, {"record_from_tables": [(20, 4, 2), (20, 3, 3), (7, 1, 3)],
                         "nav_tensors": [(20, 4, 2), (20, 3, 3), (7, 1, 3)],
                         "vector_table": [(20, 4, 2), (20, 3, 3), (7, 1, 3)],
                         "matrix_at": [(20, 4, 2)] * 2 + [(20, 3, 3)] * 2 + [(7, 1, 3)] * 2,
                         "at": [(20, 4, 2)] * 2 + [(20, 3, 3)] * 2 + [(7, 1, 3)] * 2,
                         "value": [(20, 4, 2), (20, 3, 3), (7, 1, 3)]}),
))
def test_each_random_metric_is_one_stacked_pass(suite, count, shapes, monkeypatch):
    # every float and table evaluation of a random metric's points runs once,
    # on the stack of its flags' x (navigation: one family per kind and size
    # of block, laned (flags, blocks, n), 20 points a block, so 37 is two
    # families of one block, the second short, and 147 a family of 4
    # Randers-first blocks, one of 3 navigation-first blocks and a short
    # navigation-first block of 7; randers-ricci: 16 flags a metric; lie-identity:
    # one family of 10 draws per dimension, whose V is tabled once at each of
    # its two stacks of flags, for both sides there, and beta and W once each;
    # riemann-reduction and isotropic-s: one family of draws per dimension,
    # its flags the lanes of one bundle or one set of sample points)
    seen = {key: [] for key in shapes}

    def counting(owner, attr, x_of):
        fn = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            seen[attr].append(np.shape(x_of(*args)))
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapped)

    watched = {"record_from_tables": (riemann, lambda h, x, t: x),
               "nav_tensors": (randers, lambda H, wtab: H.x),
               "beta_tables": (randers, lambda A, btab: A.x),
               "beta_derivatives": (randers, lambda T, y: y),
               "randers_ricci_closed_form": (randers, lambda rd, x, y: x),
               "vector_table": (riemann, lambda fn, x, order: x),
               "matrix_at": (riemann.RiemannMetric, lambda h, x: x),
               "at": (riemann.VectorField, lambda v, x: x),
               "value": (finsler.FinslerMetric, lambda F, x, y: y),
               "lie_F2": (finsler, lambda metric, vtab, x, y: x),
               "lie_nav_h2_sides": (randers, lambda nav, vtab, x, y, F: x),
               "curvature_bundle": (finsler, lambda metric, points: _x(points)),
               "riemann_ricci": (riemann, lambda rec, y: y),
               "sample_points": (solitons, lambda rd, nav, f, sigma, flags, bundle: _x(flags)),
               "fit_sigma": (solitons, lambda T: T.x),
               "evaluate_flags": (finsler, lambda metric, measure, points, bases: _x(points))}
    for key in shapes:
        counting(watched[key][0], key, watched[key][1])
    suites.run_crosscheck_suite(suite, count=count, seed=1)
    assert seen == shapes


def _navigation_reference(count, seed):
    """The rows of `crosscheck_navigation`, block by block, every quantity at
    each point on its own: the round-trip sides, the record, W table and
    tensors at x, and F; and the rng after the loop."""
    rng = np.random.default_rng(seed)
    rows = [[] for _ in range(3)]
    taken = block = 0
    while taken < count:
        dim = 2 + (block % 2)
        if block % 2 == 0:
            rd = generators.random_randers(rng, dim)
            nav = randers.to_navigation(rd)
            rd2 = randers.from_navigation(nav)
            (m1, v1), (m2, v2) = (rd.alpha, rd.beta), (rd2.alpha, rd2.beta)
        else:
            nav = generators.navigation_data(generators.draw_calibrated(rng, dim))
            nav2 = randers.to_navigation(randers.from_navigation(nav))
            (m1, v1), (m2, v2) = (nav.h, nav.W), (nav2.h, nav2.W)
        metric = randers.finsler_from_navigation(nav)
        block += 1
        for _ in range(min(20, count - taken)):
            taken += 1
            x = generators.sample_box_point(rng, dim)
            y = unit_direction(rng, dim)
            rows[0].append(max(float(np.max(np.abs(m1.matrix_at(x) - m2.matrix_at(x)))),
                               float(np.max(np.abs(v1.at(x) - v2.at(x))))))
            T = randers.nav_tensors(riemann.point_record(nav.h, x, 1), nav.W.table(x, order=1))
            F = metric.value(x, y)
            h2, w0 = float(y @ T.h @ y), float(T.w_low @ y)
            rows[1].append((h2 - 2.0 * F * w0 - T.lam * F * F) / (F * F))
            xi = y - F * T.w_up
            rows[2].append((math.sqrt(float(xi @ T.h @ xi)) - F) / F)
    return rows, rng


def _randers_ricci_reference(count, seed):
    """The rows of `crosscheck_randers_ricci`, the closed form and F at each
    flag on their own; and the rng after the loop."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        rd = generators.random_randers(rng, 3)
        metric = randers.finsler_from_randers(rd)
        flags = [FlagPoint(generators.sample_box_point(rng, 3), unit_direction(rng, 3))
                 for _ in range(16)]
        ricci = finsler.curvature_bundle(metric, flags).ricci
        for p, ric in zip(flags, ricci):
            closed = randers.randers_ricci_closed_form(rd, p.x, p.y)
            rows.append((closed - ric) / max(abs(ric), metric.value(p.x, p.y) ** 2))
    return [rows], rng


def _run_capturing(suite, count, seed, monkeypatch):
    """The suite's reports, its rows by report name (as the reports took
    them) and the states of its rng: when its rows are first put together
    (`suites._by_family`, every draw drawn), if they are, and at the end."""
    rows, rngs, states = {}, [], []
    report, default_rng, by_family = (suites.report_from_values, np.random.default_rng,
                                      suites._by_family)

    def capture(name, values, tol, detail=""):
        rows[name] = np.asarray(values)
        return report(name, values, tol, detail)

    def new_rng(seed):
        rngs.append(default_rng(seed))
        return rngs[-1]

    def put_together(*args, **kwargs):
        states.append(rngs[0].bit_generator.state)
        return by_family(*args, **kwargs)

    monkeypatch.setattr(suites, "report_from_values", capture)
    monkeypatch.setattr(np.random, "default_rng", new_rng)
    monkeypatch.setattr(suites, "_by_family", put_together)
    reports = suites.run_crosscheck_suite(suite, count=count, seed=seed)
    assert len(rngs) == 1
    return reports, rows, states + [rngs[0].bit_generator.state]


def _assert_bit_equal(got, want):
    """got equals want entry by entry, signs of zero included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


# navigation: count 1 is one flag, 20 one full block, 21 a full block and a
# one-flag block, 47 two full blocks and a short Randers-first one, and 150
# families of several blocks and a short navigation-first one
@pytest.mark.parametrize("suite, count, seed, reference", (
    ("navigation", 37, 2, _navigation_reference),
    ("navigation", 41, 11, _navigation_reference),
    ("randers-ricci", 2, 5, _randers_ricci_reference),
    *(("navigation", count, seed, _navigation_reference)
      for count in (1, 20, 21, 47, 150) for seed in (0, 9)),
))
def test_stacked_suite_rows_equal_the_per_point_path(suite, count, seed, reference,
                                                     monkeypatch):
    want, rng = reference(count, seed)
    reports, rows, states = _run_capturing(suite, count, seed, monkeypatch)
    assert states == [rng.bit_generator.state] * len(states)
    assert len(reports) == len(want) == len(rows)
    for report, got, ref in zip(reports, rows.values(), want):
        _assert_bit_equal(got, ref)
        vals = np.abs(ref)
        assert report.samples == len(ref)
        assert report.max_abs == float(np.max(vals)), report.name
        assert report.mean_abs == float(np.mean(vals)), report.name


def _assert_rows_equal_each_draw_alone(suite, count, seed, names, draw_alone, monkeypatch,
                                       before=()):
    """Every row of the suite's reports, in draw order, equals the per-draw
    loop's, signs of zero included, and the rng is left as that loop
    leaves it.  `before` names the leading reports that are not per draw:
    jets-vs-fd's plain half, which reads one point of the rng per count
    first."""
    rng = np.random.default_rng(seed)
    if before:
        rng.uniform(-0.8, 0.8, size=(count, 2))
    want = np.array([draw_alone(rng, i) for i in range(count)]).T
    _reports, rows, states = _run_capturing(suite, count, seed, monkeypatch)
    assert states == [rng.bit_generator.state] * len(states)
    assert list(rows) == [*before, *names]
    for got, ref in zip((rows[name] for name in names), want, strict=True):
        assert got.shape == (count,)
        _assert_bit_equal(got, ref)


def test_a_refused_lane_of_a_navigation_family_is_named():
    # a navigation-first family of two blocks whose second block's second
    # flag lies far outside the box: the family raises what that block
    # raises alone, naming the refused lane (flag, block)
    rng = np.random.default_rng(3)
    coeffs = [generators.draw_calibrated(rng, 3) for _ in range(2)]
    flags = [[suites._flag(rng, 3) for _ in range(2)] for _ in range(2)]
    flags[1][1] = FlagPoint(np.full(3, 4.0), flags[1][1].y)
    with pytest.raises(ArithmeticError) as alone:
        suites._navigation_rows(coeffs[1:], flags[1:])
    assert alone.value.args[0].endswith(" at lane (1, 0)")
    with pytest.raises(type(alone.value)) as family:
        suites._navigation_rows(coeffs, flags)
    assert family.value.args[0] == alone.value.args[0].replace("(1, 0)", "(1, 1)")


@pytest.mark.parametrize("count, seed", ((1, 0), (2, 5), (7, 3), (20, 1)))
def test_lie_identity_rows_equal_each_draw_alone(count, seed, monkeypatch):
    # count 1 is a family of one lane; an odd count gives families of unequal
    # size; every row, signs of zero included, in draw order
    _assert_rows_equal_each_draw_alone("lie-identity", count, seed,
                                       ["randers-f2-split", "navigation-h2-lift"],
                                       lie_draw_alone, monkeypatch)


@pytest.mark.parametrize("seed", (0, 9))
@pytest.mark.parametrize("count", (1, 2, 3, 6, 7, 10))
@pytest.mark.parametrize("suite, names, draw_alone", (
    ("riemann-reduction", ["spray-vs-christoffel-ricci"], reduction_draw_alone),
    ("isotropic-s", ["sigma-vs-conformal-factor", "curvature-transfer", "s-covector-transfer",
                     "s-mixed-transfer", "s-dot-closed-form"], isotropic_draw_alone),
), ids=("riemann-reduction", "isotropic-s"))
def test_family_rows_equal_each_draw_alone(suite, names, draw_alone, count, seed, monkeypatch):
    # counts 1 and 3 make families of one lane (`generators.family`),
    # odd counts families of unequal size
    _assert_rows_equal_each_draw_alone(suite, count, seed, names, draw_alone, monkeypatch)


@pytest.mark.parametrize("seed", (0, 9))
@pytest.mark.parametrize("count", (1, 2, 3, 5, 8))
def test_jets_vs_fd_rows_equal_each_draw_alone(count, seed, monkeypatch):
    # one family per metric kind (Randers at even draws, Riemannian at odd
    # ones): counts 1 and 3 make a family of one lane, odd counts families
    # of unequal size
    _assert_rows_equal_each_draw_alone(
        "jets-vs-fd", count, seed,
        ["pipeline-ricci", "pipeline-s-dot", "pipeline-infinity-ricci"], pipeline_draw_alone,
        monkeypatch, before=("plain-derivatives",))


def _isotropic_s_reference(count, seed):
    """The rows of `crosscheck_isotropic_s`, every quantity from its own
    evaluation: the records and tables at x, Ric, S-dot and F."""
    rng = np.random.default_rng(seed)
    rows = [[] for _ in range(5)]
    for i in range(count):
        dim = 2 + (i % 2)
        nav, sigma, _c = generators.conformal_navigation(generators.draw_conformal(rng, dim))
        rd = randers.from_navigation(nav)
        metric = randers.finsler_from_navigation(nav)
        f = generators.scalar_field(generators.draw_scalar_field(rng, dim))
        measure = finsler.Measure.riemannian(nav.h).weighted(f)
        x = generators.sample_box_point(rng, dim)
        y = unit_direction(rng, dim)
        p = FlagPoint(x, y)
        T = randers.beta_tables(riemann.point_record(rd.alpha, x, 2), rd.beta.table(x, order=2))
        fitted, _ = randers.fit_sigma_isotropic_S(T, solitons._directions(dim))
        rows[0].append(fitted - float(riemann.scalar_value(sigma(list(x)))))
        mu_t = float(rng.uniform(-1.0, 1.0))
        H1 = riemann.point_record(nav.h, x, 1)
        N = randers.nav_tensors(H1, nav.W.table(x, order=1))
        sig = randers.sigma_terms(sigma.table(x, order=1), y, N.w_up)
        lhs, rhs = randers.ricci_transfer_sides(
            finsler.curvature_bundle(metric, [p]).ricci[0], metric.value(x, y),
            riemann.point_record(nav.h, x, 2), N, sig, mu_t, y)
        rows[1].append((lhs - rhs) / metric.value(x, y) ** 2)
        rows[2].append(float(T.s_low @ y) - float(N.s_low @ y) / N.lam)
        smix = -N.s_mixed + np.outer(N.s_up, N.w_low) / N.lam
        rows[3].append(float(np.max(np.abs(T.s_mixed - smix))))
        sd = finsler.evaluate_flags(metric, measure, [p]).s_dot[0]
        closed = solitons.s_dot_closed_form_nav(H1, N, metric.value(x, y), sig,
                                                f.table(x, order=2), y)
        rows[4].append((sd - closed) / max(1.0, abs(sd)))
    return rows


@pytest.mark.parametrize("seed", (3, 7))
def test_isotropic_s_rows_equal_the_per_evaluation_path(seed):
    count = 4
    want = _isotropic_s_reference(count, seed)
    reports = suites.crosscheck_isotropic_s(count=count, seed=seed)
    assert [r.name for r in reports] == ["sigma-vs-conformal-factor", "curvature-transfer",
                                         "s-covector-transfer", "s-mixed-transfer",
                                         "s-dot-closed-form"]
    for report, rows in zip(reports, want):
        vals = np.abs(rows)
        assert report.max_abs == float(np.max(vals))
        assert report.mean_abs == float(np.mean(vals))


def test_lifted_lie_jet_side_equals_separate_evaluations_of_f_h_and_w():
    rng = np.random.default_rng(4)
    for dim in (2, 3):
        nav = generators.navigation_data(generators.draw_calibrated(rng, dim))
        v = generators.vector_field(generators.draw_vector_field(rng, dim))
        p = FlagPoint(generators.sample_box_point(rng, dim), unit_direction(rng, dim))
        metric = randers.finsler_from_navigation(nav)

        def phi(xs, ys, metric=metric, nav=nav, n=dim):
            Fv = metric.F(xs, ys)
            w = nav.W.components(xs)
            rows = nav.h.matrix(xs)
            xi = [ys[i] - Fv * w[i] for i in range(n)]
            out = 0.0
            for i in range(n):
                for j in range(n):
                    out = out + rows[i][j] * xi[i] * xi[j]
            return out

        vtab = v.table([p.x], order=1)
        lhs = randers.lie_nav_h2_sides(nav, vtab, [p.x], [p.y], [metric.value(p.x, p.y)])[0]
        assert lhs.tolist() == finsler.lie_scalar(phi, vtab, [p.x], [p.y]).tolist()
