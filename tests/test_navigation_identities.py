"""The navigation identities as table formulas: each point of the
`isotropic-s`, `lie-identity` and `navigation` crosscheck suites evaluates
its navigation data, its float F and its order-4 expansion of F^2 once, and
the rows are those of the path that evaluated each quantity on its own."""

import numpy as np
import pytest

from finsler_solitons import finsler, generators, randers, riemann, solitons, suites
from finsler_solitons.jets import FlagPoint
from finsler_solitons.sampling import unit_direction


def _counting(monkeypatch):
    """Counts of `_navigation_point` calls, order-4 `_f2_tables` and float F values."""
    calls = {"navigation_point": 0, "order4": 0, "value": 0}
    point, tables, value = (randers._navigation_point, finsler._f2_tables,
                            finsler.FinslerMetric.value)

    def counted_point(nav, x):
        calls["navigation_point"] += 1
        return point(nav, x)

    def counted_tables(stage, y, order):
        calls["order4"] += order == 4
        return tables(stage, y, order)

    def counted_value(self, x, y):
        calls["value"] += 1
        return value(self, x, y)

    monkeypatch.setattr(randers, "_navigation_point", counted_point)
    monkeypatch.setattr(finsler, "_f2_tables", counted_tables)
    monkeypatch.setattr(finsler.FinslerMetric, "value", counted_value)
    return calls


# The counts of the perfbench crosscheck workload.  isotropic-s: one sample
# point and one float F per point.  lie-identity: the split half's F, and the
# lifted half's F and one navigation point per jet pass.  navigation: one F
# per point; the rest are the round trip's own conversion closures (alpha and
# beta of from_navigation at a Randers-first point, h and W of to_navigation,
# two each, at a navigation-first one), 80 and 70 of the 150 points.
@pytest.mark.parametrize("suite, count, want", (
    ("isotropic-s", 6, {"navigation_point": 6 * 2, "order4": 6, "value": 6}),
    ("lie-identity", 20, {"navigation_point": 20 * 2, "order4": 0, "value": 20 * 2}),
    ("navigation", 150, {"navigation_point": 80 * (1 + 2) + 70 * (1 + 4), "order4": 0,
                         "value": 150}),
))
def test_crosscheck_point_evaluates_each_thing_once(suite, count, want, monkeypatch):
    calls = _counting(monkeypatch)
    suites.run_crosscheck_suite(suite, count=count, seed=1)
    assert calls == want


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
        measure = randers.bh_measure(rd).weighted(f)
        x = generators.sample_box_point(rng, dim)
        y = unit_direction(rng, dim)
        p = FlagPoint(x, y)
        T = randers.beta_tables(riemann.point_record(rd.alpha, x, 2), rd.beta.table(x, order=2))
        fitted, _ = randers.fit_sigma_isotropic_S(T, solitons._directions(dim))
        rows[0].append(fitted - float(riemann.scalar_value(sigma(list(x)))))
        mu_t = float(rng.uniform(-1.0, 1.0))
        H1 = riemann.point_record(nav.h, x, 1)
        N = randers.nav_tensors(H1, nav.W.table(x, order=1))
        sig = randers.field_sigma_terms(sigma, x, y, N.w_up)
        lhs, rhs = randers.ricci_transfer_sides(
            finsler.curvature_bundle(metric, [p])[0].ricci, metric.value(x, y),
            riemann.point_record(nav.h, x, 2), N, sig, mu_t, y)
        rows[1].append((lhs - rhs) / metric.value(x, y) ** 2)
        rows[2].append(float(T.s_low @ y) - float(N.s_low @ y) / N.lam)
        smix = -N.s_mixed + np.outer(N.s_up, N.w_low) / N.lam
        rows[3].append(float(np.max(np.abs(T.s_mixed - smix))))
        sd = finsler.evaluate_flags(metric, measure, [p])[0].s_dot
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
