"""The navigation identities as table formulas: each point of the
`isotropic-s` and `lie-identity` crosscheck suites, and each block of
points of one random metric in the `navigation` and `randers-ricci` suites,
evaluates its navigation data, its float F and its order-4 expansion of F^2
once, and the rows are those of the path that evaluated each quantity on its
own."""

import math

import numpy as np
import pytest

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


# The counts of the perfbench crosscheck workload.  isotropic-s: one sample
# point and one float F per point.  lie-identity: the split half's F, and the
# lifted half's F and one navigation point per jet pass.  navigation: one F
# per block of (at most 20) points of one metric; the rest are the round
# trip's own conversion closures (alpha and beta of from_navigation at a
# Randers-first block, h and W of to_navigation, two each, at a
# navigation-first one), each once per block: 4 and 4 of the 8 blocks of
# the 150 points.
@pytest.mark.parametrize("suite, count, want", (
    ("isotropic-s", 6, {"navigation_point": 6 * 2, "order4": 6, "value": 6}),
    ("lie-identity", 20, {"navigation_point": 20 * 2, "order4": 0, "value": 20 * 2}),
    ("navigation", 150, {"navigation_point": 4 * (1 + 2) + 4 * (1 + 4), "order4": 0,
                         "value": 8}),
))
def test_crosscheck_point_evaluates_each_thing_once(suite, count, want, monkeypatch):
    calls = _counting(monkeypatch)
    suites.run_crosscheck_suite(suite, count=count, seed=1)
    assert calls == want


@pytest.mark.parametrize("suite, count, shapes", (
    ("navigation", 37, {"record_from_tables": [(20, 2), (17, 3)],
                        "nav_tensors": [(20, 2), (17, 3)], "vector_table": [(20, 2), (17, 3)],
                        "matrix_at": [(20, 2)] * 2 + [(17, 3)] * 2,
                        "at": [(20, 2)] * 2 + [(17, 3)] * 2, "value": [(20, 2), (17, 3)]}),
    ("randers-ricci", 2, {"record_from_tables": [(16, 3)] * 2, "beta_tables": [(16, 3)] * 2,
                          "beta_derivatives": [(16, 3)] * 2, "vector_table": [(16, 3)] * 2,
                          "randers_ricci_closed_form": [(16, 3)] * 2,
                          "value": [(16, 3)] * 2}),
))
def test_each_random_metric_is_one_stacked_pass(suite, count, shapes, monkeypatch):
    # every float and table evaluation of a random metric's points runs once,
    # on the stack of its block's x (navigation: 20 points a block, so 37
    # leaves a partial block; randers-ricci: 16 flags a metric)
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
               "value": (finsler.FinslerMetric, lambda F, x, y: y)}
    for key in shapes:
        counting(watched[key][0], key, watched[key][1])
    suites.run_crosscheck_suite(suite, count=count, seed=1)
    assert seen == shapes


def _navigation_reference(count, seed):
    """The rows of `crosscheck_navigation`, every quantity at each point on
    its own: the round-trip sides, the record, W table and tensors at x, and F."""
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
            nav = generators.random_navigation(rng, dim)
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
    return rows


def _randers_ricci_reference(count, seed):
    """The rows of `crosscheck_randers_ricci`, the closed form and F at each
    flag on their own."""
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
    return [rows]


@pytest.mark.parametrize("suite, count, seed, reference", (
    ("navigation", 37, 2, _navigation_reference),
    ("navigation", 41, 11, _navigation_reference),
    ("randers-ricci", 2, 5, _randers_ricci_reference),
))
def test_stacked_suite_rows_equal_the_per_point_path(suite, count, seed, reference):
    want = reference(count, seed)
    reports = suites.run_crosscheck_suite(suite, count=count, seed=seed)
    assert len(reports) == len(want)
    for report, rows in zip(reports, want):
        vals = np.abs(rows)
        assert report.samples == len(rows)
        assert report.max_abs == float(np.max(vals)), report.name
        assert report.mean_abs == float(np.mean(vals)), report.name


def _isotropic_s_reference(count, seed):
    """The rows of `crosscheck_isotropic_s`, every quantity from its own
    evaluation: the records and tables at x, Ric, S-dot and F."""
    rng = np.random.default_rng(seed)
    rows = [[] for _ in range(5)]
    for i in range(count):
        dim = 2 + (i % 2)
        nav, sigma, _c = generators.conformal_euclidean_navigation(rng, dim)
        rd = randers.from_navigation(nav)
        metric = randers.finsler_from_navigation(nav)
        f = generators.random_scalar_field(rng, dim)
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
        nav = generators.random_navigation(rng, dim)
        v = generators.random_vector_field(rng, dim)
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

        lhs = randers.lie_nav_h2_sides(nav, v, p, metric.value(p.x, p.y))[0]
        assert lhs == finsler.lie_scalar(phi, v, p)
