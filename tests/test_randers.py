"""Randers layer: conversions, Busemann-Hausdorff density, beta tensors,
isotropic-S fitting, closed-form Ricci, and the navigation identities."""

import math

import numpy as np
import pytest

from finsler_solitons import finsler, fixtures, generators, jets, randers, riemann
from finsler_solitons.jets import FlagPoint
from finsler_solitons.randers import (NavigationData, NavigationDomainError,
                                      RandersData, RandersDomainError,
                                      beta_derivatives, beta_tables,
                                      bh_measure,
                                      finsler_from_navigation,
                                      finsler_from_randers,
                                      fit_sigma_isotropic_S, from_navigation,
                                      lie_nav_h2_sides, nav_tensors,
                                      randers_ricci_closed_form,
                                      ricci_transfer_sides, to_navigation)
from finsler_solitons.riemann import (MetricDomainError, RiemannMetric,
                                      VectorField, euclidean_metric)
from finsler_solitons.sampling import sample_flags


def tables_at(rd, x):
    return beta_tables(riemann.point_record(rd.alpha, x, 2), rd.beta.table(x, order=2))


def cigar_navigation():
    h = RiemannMetric(2, lambda x: [[1.0, 0.0], [0.0, jets.tanh(x[0]) ** 2]],
                      name="cigar-h")
    return NavigationData(h, VectorField(lambda x: [0.0, 1.0]), name="cigar")


def _directions(rng, dim, count=8):
    return [rng.normal(size=dim) / 1.0 for _ in range(count)]


# -- conversions ---------------------------------------------------------------------


def test_from_navigation_zero_wind_is_riemannian(rng):
    h = generators.random_riemann_metric(rng, 3)
    nav = NavigationData(h, VectorField(lambda x: [0.0] * 3))
    rd = from_navigation(nav)
    x = generators.sample_box_point(rng, 3)
    np.testing.assert_allclose(rd.alpha.matrix_at(x), h.matrix_at(x), atol=1e-14)
    assert np.max(np.abs(rd.beta.components(list(x)))) == 0.0


def test_cigar_lambda_value():
    nav = cigar_navigation()
    t = 1.0
    x = [t, 0.0]
    lam = randers._lam(nav.h.matrix(x), nav.W.components(x))
    assert jets.scalar_value(lam) == pytest.approx(1.0 / math.cosh(t) ** 2, rel=1e-13)


def test_roundtrip_random_dim3(rng):
    rd = generators.random_randers(rng, 3)
    rd2 = from_navigation(to_navigation(rd))
    for _ in range(5):
        x = generators.sample_box_point(rng, 3)
        np.testing.assert_allclose(rd2.alpha.matrix_at(x), rd.alpha.matrix_at(x),
                                   atol=1e-12)
        b1 = [jets.scalar_value(c) for c in rd.beta.components(list(x))]
        b2 = [jets.scalar_value(c) for c in rd2.beta.components(list(x))]
        np.testing.assert_allclose(b2, b1, atol=1e-12)


def test_to_navigation_recovers_cigar_wind():
    nav = cigar_navigation()
    back = to_navigation(from_navigation(nav))
    x = [0.8, 0.3]
    np.testing.assert_allclose(back.h.matrix_at(x), nav.h.matrix_at(x), atol=1e-12)
    np.testing.assert_allclose(
        [jets.scalar_value(c) for c in back.W.components(x)], [0.0, 1.0], atol=1e-12)


def test_riemannian_reduction_b_zero(rng):
    rd = RandersData(alpha=generators.random_riemann_metric(rng, 2),
                     beta=VectorField(lambda x: [0.0, 0.0]))
    nav = to_navigation(rd)
    x = generators.sample_box_point(rng, 2)
    assert np.max(np.abs(nav.W.components(list(x)))) == 0.0
    np.testing.assert_allclose(nav.h.matrix_at(x), rd.alpha.matrix_at(x), atol=1e-14)


def test_navigation_domain_error():
    nav = NavigationData(euclidean_metric(2), VectorField(lambda x: [1.2, 0.0]))
    with pytest.raises(NavigationDomainError):
        from_navigation(nav).alpha.matrix_at([0.0, 0.0])


def test_randers_domain_error():
    rd = RandersData(alpha=euclidean_metric(2), beta=VectorField(lambda x: [1.1, 0.0]))
    with pytest.raises(RandersDomainError):
        tables_at(rd, [0.0, 0.0])


def test_alpha_of_nonpositive_determinant_raises_metric_domain_error():
    # the Randers side refuses det a <= 0 (`_randers_point`) wherever it runs;
    # b >= 1 is test_randers_domain_error's case
    for rows in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]):
        rd = RandersData(alpha=RiemannMetric(2, lambda x, rows=rows: rows),
                         beta=VectorField(lambda x: [0.1, 0.0]))
        nav = to_navigation(rd)
        for x in ([0.0, 0.0], jets.Jet.variables([0.0, 0.0], 2)):
            for call in (lambda: nav.h.matrix(x), lambda: nav.W.components(x),
                         lambda: bh_measure(rd).density(x)):
                with pytest.raises(MetricDomainError):
                    call()
        with pytest.raises(MetricDomainError):
            finsler_from_randers(rd).value([0.0, 0.0], [1.0, 0.0])


def test_a_laned_record_of_to_navigation_h_equals_its_per_point_records():
    # `_randers_point` guards every lane (`jets.refuse`), so to_navigation's h
    # runs at laned x, each lane bit-equal to its point alone
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        nav = to_navigation(generators.random_randers(rng, dim))
        X = np.array([generators.sample_box_point(rng, dim) for _ in range(4)])
        for order in (1, 2):
            stacked = riemann.point_record(nav.h, X, order)
            for k, x in enumerate(X):
                for name, want in vars(riemann.point_record(nav.h, x, order)).items():
                    if want is not None:
                        assert np.array_equal(getattr(stacked, name)[k], want), (order, name)


def test_a_laned_randers_guard_names_the_lane_where_beta_reaches_unit_length():
    # b = (x_0, 0) on Euclidean alpha has ||beta||_alpha >= 1 at lane 1 only
    rd = RandersData(alpha=euclidean_metric(2), beta=VectorField(lambda x: [x[0], 0.0]))
    X = np.array([[0.2, 0.0], [1.5, 0.0], [-0.3, 0.1]])
    h = to_navigation(rd).h
    for call in (lambda: riemann.point_record(h, X, 1), lambda: h.matrix_at(X)):
        with pytest.raises(RandersDomainError, match=r"converting Randers data at lane 1$"):
            call()
    riemann.point_record(h, X[[0, 2]], 1)


def test_the_float_readers_give_one_row_per_point_of_a_stack():
    # matrix_at, at and value at a stack of points: each row bit-equal to
    # its point's call
    rng = np.random.default_rng(9)
    for dim in (2, 3):
        rd = generators.random_randers(rng, dim)
        nav = to_navigation(rd)
        X = np.array([generators.sample_box_point(rng, dim) for _ in range(5)])
        Y = rng.normal(size=(5, dim))
        for h in (rd.alpha, nav.h, from_navigation(nav).alpha, euclidean_metric(dim)):
            assert np.array_equal(h.matrix_at(X), [h.matrix_at(x) for x in X]), h.name
        for v in (rd.beta, nav.W, from_navigation(nav).beta):
            assert np.array_equal(v.at(X), [v.at(x) for x in X]), v.name
        for F in (finsler_from_randers(rd), finsler_from_navigation(nav),
                  finsler.FinslerMetric.from_riemannian(nav.h)):
            assert F.value(X, Y).tolist() == [F.value(x, y) for x, y in zip(X, Y)], F.name


def _coeffs(entries, space):
    """The coefficient rows of float-or-Jet entries over `space`."""
    return np.array([v.coeffs if isinstance(v, jets.Jet) else
                     jets.Jet.constant(float(v), space).coeffs for v in entries])


def test_navigation_roundtrip_holds_on_jet_coefficients():
    # h and W of to_navigation(from_navigation(nav)) at order-2 x jets
    rng = np.random.default_rng(47)
    worst = 0.0
    for i in range(100):
        dim = 2 + (i % 2)
        nav = generators.random_navigation(rng, dim)
        back = to_navigation(from_navigation(nav))
        xs = jets.Jet.variables(list(generators.sample_box_point(rng, dim)), 2)
        space = xs[0].space
        for want, got in ((sum(nav.h.matrix(xs), []), sum(back.h.matrix(xs), [])),
                          (nav.W.components(xs), back.W.components(xs))):
            want, got = _coeffs(want, space), _coeffs(got, space)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
    assert worst <= 1e-13


def test_randers_stage_guard_raises_where_beta_reaches_one():
    # the stage guards on the values of alpha and beta, at float and at jet x
    rd = RandersData(alpha=euclidean_metric(2), beta=VectorField(lambda x: [x[0], 0.0]))
    metric = finsler_from_randers(rd)
    assert metric.value([0.5, 0.0], [0.0, 1.0]) == pytest.approx(1.0, rel=1e-15)
    for x in ([1.0, 0.0], [-1.5, 0.3]):
        with pytest.raises(RandersDomainError):
            metric.at(x)
        with pytest.raises(RandersDomainError):
            metric.at(jets.Jet.variables(x, 2))
        with pytest.raises(RandersDomainError):
            finsler.curvature_bundle(metric, [FlagPoint(x, [0.0, 1.0])])


# -- metric evaluation ------------------------------------------------------------------


def test_eval_F_matches_both_paths(rng):
    nav = cigar_navigation()
    rd = from_navigation(nav)
    p = FlagPoint([1.0, 0.4], rng.normal(size=2))
    assert finsler_from_navigation(nav).value(p.x, p.y) == pytest.approx(
        finsler_from_randers(rd).value(p.x, p.y), rel=1e-12)


def test_eval_F_cigar_closed_form_value():
    nav = cigar_navigation()
    p = FlagPoint([1.0, 0.0], [0.0, 1.0])
    want = math.cosh(1.0) * math.sinh(1.0) - math.sinh(1.0) ** 2
    assert finsler_from_navigation(nav).value(p.x, p.y) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(0.4323323583816938, rel=1e-12)


def _counting_h(nav):
    """nav with an h whose `matrix` calls are counted in the returned list."""
    calls = []

    def fn(x):
        calls.append(1)
        return nav.h.matrix(x)

    return NavigationData(RiemannMetric(nav.dim, fn), nav.W, name=nav.name), calls


def test_navigation_closures_evaluate_h_once_per_call():
    nav, calls = _counting_h(cigar_navigation())
    x, y = [1.0, 0.4], [0.3, -0.8]
    want_F = finsler_from_navigation(cigar_navigation()).value(x, y)
    assert finsler_from_navigation(nav).value(x, y) == want_F
    assert len(calls) == 1
    rd, want = from_navigation(nav), from_navigation(cigar_navigation())
    calls.clear()
    assert rd.alpha.matrix(x) == want.alpha.matrix(x)
    assert len(calls) == 1
    calls.clear()
    assert rd.beta.components(x) == want.beta.components(x)
    assert len(calls) == 1


def test_randers_closures_evaluate_alpha_once_per_call():
    rd0 = from_navigation(cigar_navigation())
    calls = []

    def fn(x):
        calls.append(1)
        return rd0.alpha.matrix(x)

    rd = RandersData(RiemannMetric(rd0.dim, fn), rd0.beta, name=rd0.name)
    nav, want_nav = to_navigation(rd), to_navigation(rd0)
    x, y = [1.0, 0.4], [0.3, -0.8]
    for got, want in ((lambda: finsler_from_randers(rd).value(x, y),
                       lambda: finsler_from_randers(rd0).value(x, y)),
                      (lambda: bh_measure(rd).density(x), lambda: bh_measure(rd0).density(x)),
                      (lambda: nav.h.matrix(x), lambda: want_nav.h.matrix(x)),
                      (lambda: nav.W.components(x), lambda: want_nav.W.components(x))):
        calls.clear()
        assert got() == want()
        assert len(calls) == 1


def test_norm_identity_and_xi_transfer(rng):
    nav = generators.random_navigation(rng, 3)
    metric = finsler_from_navigation(nav)
    T_fn = nav.h.matrix_at
    for _ in range(10):
        x = generators.sample_box_point(rng, 3)
        y = rng.normal(size=3)
        F = metric.value(x, y)
        hm = T_fn(x)
        w = np.array([jets.scalar_value(c) for c in nav.W.components(list(x))])
        lam = 1.0 - float(w @ hm @ w)
        h2 = float(y @ hm @ y)
        w0 = float((hm @ w) @ y)
        assert h2 - 2.0 * F * w0 == pytest.approx(lam * F * F, rel=1e-10)
        xi = y - F * w
        assert math.sqrt(float(xi @ hm @ xi)) == pytest.approx(F, rel=1e-10)


# -- Busemann-Hausdorff density ------------------------------------------------------------


def test_bh_density_riemannian(rng):
    rd = RandersData(alpha=generators.random_riemann_metric(rng, 3),
                     beta=VectorField(lambda x: [0.0] * 3))
    x = generators.sample_box_point(rng, 3)
    assert bh_measure(rd).density(x) == pytest.approx(
        math.sqrt(np.linalg.det(rd.alpha.matrix_at(x))), rel=1e-12)


def test_bh_density_cigar():
    nav = cigar_navigation()
    rd = from_navigation(nav)
    t = 0.9
    x = [t, 0.2]
    b2 = math.tanh(t) ** 2
    det_a = np.linalg.det(rd.alpha.matrix_at(x))
    want = (1.0 - b2) ** 1.5 * math.sqrt(det_a)
    assert bh_measure(rd).density(x) == pytest.approx(want, rel=1e-12)
    # for navigation data the BH density collapses to sqrt(det h)
    assert bh_measure(rd).density(x) == pytest.approx(
        math.sqrt(np.linalg.det(nav.h.matrix_at(x))), rel=1e-12)


def _bh_density_drift(nav, x):
    """max |coefficient| of sigma_BH(alpha, beta) - sqrt(det h) at order-2 x
    jets, relative to max(1, max |coefficient| of sigma_BH(alpha, beta))."""
    xs = jets.Jet.variables([float(v) for v in x], 2)
    point = randers._navigation_point(nav, xs)
    # a constant h (flat fixtures) gives a float det: compare it as a constant jet
    want, got = (riemann.scalar_gather(v, xs[0].space, 2, ()) for v in (
        randers._bh_density(randers._alpha_rows(point), randers._beta_low(point)),
        riemann.sqrt_det(point[0])))
    scale = max(1.0, max(float(np.max(np.abs(t))) for t in want))
    return max(float(np.max(np.abs(g - w))) for g, w in zip(got, want)) / scale


def test_bh_density_of_navigation_data_is_the_volume_of_h():
    # the fixtures and sample points read sigma_BH as sqrt(det h) (Xing 2005);
    # the (alpha, beta) formula is the oracle, on every registry fixture's
    # sample points and on random navigation data of dim 2 and 3
    worst = 0.0
    for name in fixtures.FIXTURE_NAMES:
        fx = fixtures.get_fixture(name)
        for p in sample_flags(fx, 64, np.random.default_rng(0)):
            worst = max(worst, _bh_density_drift(fx.nav, p.x))
    rng = np.random.default_rng(41)
    for i in range(200):
        dim = 2 + (i % 2)
        nav = generators.random_navigation(rng, dim)
        worst = max(worst, _bh_density_drift(nav, generators.sample_box_point(rng, dim)))
    assert worst <= 1e-12


def test_bh_measure_s_curvature_cigar(rng):
    nav = cigar_navigation()
    rd = from_navigation(nav)
    F = finsler_from_navigation(nav)
    p = FlagPoint([1.1, 0.5], rng.normal(size=2))
    assert finsler.evaluate_flags(F, bh_measure(rd), [p]).S[0] == pytest.approx(0.0, abs=1e-11)


# -- beta derivative tensors ------------------------------------------------------------------


def test_closed_form_beta_has_no_curl(rng):
    # b = df: the antisymmetric part s vanishes and r equals the Hessian
    a = generators.random_riemann_metric(rng, 2)
    df = VectorField(lambda x: [jets.cos(x[0]) * x[1], jets.sin(x[0])])
    f = riemann.ScalarField(lambda x: jets.sin(x[0]) * x[1])
    rd = RandersData(alpha=a, beta=VectorField(
        lambda x: [0.3 * c for c in df.components(x)]))
    x = generators.sample_box_point(rng, 2)
    T = tables_at(rd, x)
    assert np.max(np.abs(T.s)) <= 1e-13
    hess = riemann.hessian_tensor(riemann.point_record(a, x, 1), f.table(x, order=2))
    np.testing.assert_allclose(T.r, 0.3 * hess, atol=1e-12)


def test_cigar_e00_vanishes(rng):
    rd = from_navigation(cigar_navigation())
    p = FlagPoint([0.7, 0.1], rng.normal(size=2))
    bd = beta_derivatives(tables_at(rd, p.x), p.y)
    assert abs(bd.e00) <= 1e-13


def test_navigation_s_tensor_transfer(rng):
    # under isotropic S-curvature: s_0 = S_0/lam and s^i_j = -S^i_j + S^i W_j/lam
    nav, sigma, _ = generators.conformal_euclidean_navigation(rng, 3)
    rd = from_navigation(nav)
    x = generators.sample_box_point(rng, 3)
    y = rng.normal(size=3)
    T = tables_at(rd, x)
    N = nav_tensors(riemann.point_record(nav.h, x, 1), nav.W.table(x, order=1))
    assert float(T.s_low @ y) == pytest.approx(float(N.s_low @ y) / N.lam,
                                               rel=1e-10, abs=1e-12)
    want = -N.s_mixed + np.outer(N.s_up, N.w_low) / N.lam
    np.testing.assert_allclose(T.s_mixed, want, atol=1e-12)


def test_s_orthogonality_identity(rng):
    # s_j b^j = 0 holds identically
    rd = generators.random_randers(rng, 3)
    for _ in range(5):
        T = tables_at(rd, generators.sample_box_point(rng, 3))
        assert abs(float(T.s_low @ T.b_up)) <= 1e-13


# -- isotropic-S fitting -------------------------------------------------------------------


def test_fit_sigma_cigar_zero(rng):
    rd = from_navigation(cigar_navigation())
    sig, res = fit_sigma_isotropic_S(tables_at(rd, [0.9, 0.3]), _directions(rng, 2))
    assert abs(sig) <= 1e-9
    assert res <= 1e-9


def test_fit_sigma_flat_family_recovers_sigma(rng):
    sigma0 = 0.23
    Q = np.array([[0.0, 0.4], [-0.4, 0.0]])
    C = np.array([0.05, -0.1])
    w = VectorField(lambda x: [-2.0 * sigma0 * x[i]
                               + Q[i, 0] * x[0] + Q[i, 1] * x[1] + C[i]
                               for i in range(2)])
    nav = NavigationData(euclidean_metric(2), w)
    rd = from_navigation(nav)
    sig, res = fit_sigma_isotropic_S(tables_at(rd, [0.2, -0.1]), _directions(rng, 2))
    assert sig == pytest.approx(sigma0, rel=1e-9)
    assert res <= 1e-9


def test_fit_sigma_nonconformal_has_residual(rng):
    # symmetric part not proportional to h: the isotropy fit cannot be clean
    w = VectorField(lambda x: [0.4 * x[0], -0.1 * x[1]])
    nav = NavigationData(euclidean_metric(2), w)
    rd = from_navigation(nav)
    sig, res = fit_sigma_isotropic_S(tables_at(rd, [0.3, 0.2]), _directions(rng, 2, count=12))
    assert res > 1e-2


def test_fit_sigma_rejects_degenerate_samples(rng):
    T = tables_at(generators.random_randers(rng, 3), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        fit_sigma_isotropic_S(T, [np.array([1.0, 0.0, 0.0])])


# -- closed-form Ricci --------------------------------------------------------------------


def test_closed_form_reduces_to_alpha_ricci(rng):
    a = generators.random_riemann_metric(rng, 3)
    rd = RandersData(alpha=a, beta=VectorField(lambda x: [0.0] * 3))
    p = FlagPoint(generators.sample_box_point(rng, 3), rng.normal(size=3))
    assert randers_ricci_closed_form(rd, p.x, p.y) == pytest.approx(
        riemann.riemann_ricci(riemann.point_record(a, p.x, 2), p.y), rel=1e-10, abs=1e-12)


def test_closed_form_cigar_law(rng):
    nav = cigar_navigation()
    rd = from_navigation(nav)
    t = 1.4
    p = FlagPoint([t, 0.2], rng.normal(size=2))
    F = finsler_from_navigation(nav).value(p.x, p.y)
    assert randers_ricci_closed_form(rd, p.x, p.y) == pytest.approx(
        2.0 / math.cosh(t) ** 2 * F * F, rel=1e-8)


def test_closed_form_vs_spray_on_random_metrics(rng):
    for _ in range(10):
        rd = generators.random_randers(rng, 3)
        metric = finsler_from_randers(rd)
        p = FlagPoint(generators.sample_box_point(rng, 3), rng.normal(size=3))
        closed = randers_ricci_closed_form(rd, p.x, p.y)
        spray_val = finsler.curvature_bundle(metric, [p]).ricci[0]
        F2 = metric.value(p.x, p.y) ** 2
        assert abs(closed - spray_val) / max(abs(spray_val), F2) <= 1e-8


def test_stacked_closed_form_rows_equal_their_one_flag_calls():
    # one record, beta_tables and beta_derivatives per stack of flags; each
    # Ricci and each contraction bit-equal to the flag's own call
    rng = np.random.default_rng(13)
    for dim in (2, 3):
        for _ in range(4):
            rd = generators.random_randers(rng, dim)
            X = np.array([generators.sample_box_point(rng, dim) for _ in range(16)])
            Y = rng.normal(size=(16, dim))
            stacked = randers_ricci_closed_form(rd, X, Y)
            bd = beta_derivatives(tables_at(rd, X), Y)
            for k, (x, y) in enumerate(zip(X, Y)):
                assert stacked[k] == randers_ricci_closed_form(rd, x, y), (dim, k)
                for name, want in vars(beta_derivatives(tables_at(rd, x), y)).items():
                    assert getattr(bd, name)[k] == want, (dim, k, name)


# -- navigation Lie and curvature-transfer identities ---------------------------------------------


def test_lifted_lie_identity_random(rng):
    for _ in range(5):
        nav = generators.random_navigation(rng, 2)
        v = generators.random_vector_field(rng, 2)
        p = FlagPoint(generators.sample_box_point(rng, 2), rng.normal(size=2))
        F = finsler_from_navigation(nav).value(p.x, p.y)
        lhs, rhs = lie_nav_h2_sides(nav, v, p, F)
        assert abs(lhs - rhs) / (F * F) <= 1e-9


def test_sigma_equals_minus_conformal_factor(rng):
    nav, sigma, c = generators.conformal_euclidean_navigation(rng, 2)
    rd = from_navigation(nav)
    x = generators.sample_box_point(rng, 2)
    fitted, res = fit_sigma_isotropic_S(tables_at(rd, x), _directions(rng, 2))
    assert res <= 1e-10
    assert fitted == pytest.approx(-float(c(list(x))), rel=1e-10, abs=1e-12)


def _points_where_w_values_differ(dim=2):
    """to_navigation pairs and flags where the float W.at(x) and the jet
    value W.table(x, 1)[0] differ (W^i = -b^i/lam is a jet division)."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        nav = to_navigation(generators.random_randers(rng, dim))
        for _ in range(20):
            x = generators.sample_box_point(rng, dim)
            if not np.array_equal(nav.W.at(x), nav.W.table(x, order=1)[0]):
                yield nav, FlagPoint(x, rng.normal(size=dim))


def _lie_rhs(nav, v, p, F, w):
    """The table side of the lifted Lie identity with xi = y - F w."""
    H = riemann.point_record(nav.h, p.x, 1)
    T = nav_tensors(H, nav.W.table(p.x, order=1))
    xi = p.y - F * w
    htilde = math.sqrt(float(xi @ T.h @ xi))
    v0, dv = v.table(p.x, order=1)
    vcov = riemann.lowered_covariant_derivative(H, v0, dv)
    mixed = float((vcov @ T.w_up - T.wcov @ v0) @ xi)
    return 2.0 / (htilde + float(T.w_low @ xi)) * (htilde * float(xi @ vcov @ xi)
                                                   + htilde * htilde * mixed)


def _transfer_rhs(H, p, F, w, mu_t):
    """The right side of the curvature transfer with xi = y - F w."""
    xi = p.y - F * w
    return float(xi @ H.ricci @ xi) - (p.dim - 1) * mu_t * F * F


def test_navigation_xi_uses_the_tabled_value_of_w(rng):
    # A point where the float value of W would change both right sides.
    v = generators.random_vector_field(rng, 2)
    for nav, p in _points_where_w_values_differ():
        H = riemann.point_record(nav.h, p.x, 2)
        T = nav_tensors(H, nav.W.table(p.x, order=1))
        metric = finsler_from_navigation(nav)
        F = metric.value(p.x, p.y)
        w_float = nav.W.at(p.x)
        if (_lie_rhs(nav, v, p, F, T.w_up) != _lie_rhs(nav, v, p, F, w_float)
                and _transfer_rhs(H, p, F, T.w_up, 0.0) != _transfer_rhs(H, p, F, w_float, 0.0)):
            break
    else:
        raise AssertionError("no point where the two values of W reach both right sides")
    # Both identities build xi on the jet value of W, never the float one.
    assert lie_nav_h2_sides(nav, v, p, F)[1] == _lie_rhs(nav, v, p, F, T.w_up)
    sig = randers.sigma_terms(riemann.as_scalar_field(0.3).table(p.x, order=1), p.y, T.w_up)
    ric = finsler.curvature_bundle(metric, [p]).ricci[0]
    rhs = ricci_transfer_sides(ric, F, H, T, sig, 0.0, p.y)[1]
    assert rhs == _transfer_rhs(H, p, F, T.w_up, 0.0)


def test_curvature_transfer_identity(rng):
    nav, sigma, _ = generators.conformal_euclidean_navigation(rng, 3)
    p = FlagPoint(generators.sample_box_point(rng, 3), rng.normal(size=3))
    metric = finsler_from_navigation(nav)
    F = metric.value(p.x, p.y)
    H = riemann.point_record(nav.h, p.x, 2)
    T = nav_tensors(H, nav.W.table(p.x, order=1))
    sig = randers.sigma_terms(sigma.table(p.x, order=1), p.y, T.w_up)
    ric = finsler.curvature_bundle(metric, [p]).ricci[0]
    for mu_t in (0.0, -0.6, 1.4):
        lhs, rhs = ricci_transfer_sides(ric, F, H, T, sig, mu_t, p.y)
        assert abs(lhs - rhs) / (F * F) <= 1e-8
