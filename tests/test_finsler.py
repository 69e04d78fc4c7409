"""Spray-based Finsler engine: homogeneity, Euler identities, curvature laws,
measure quantities, and agreement with the Christoffel backend."""

import math

import numpy as np
import pytest

from finsler_solitons import finsler, generators, jets, randers, riemann
from finsler_solitons.finsler import (FinslerMetric, FlagDomainError, Measure,
                                      ParameterError, curvature_bundle, distortion,
                                      evaluate_flags, lie_F2)
from finsler_solitons.jets import FlagPoint
from finsler_solitons.riemann import ScalarField, VectorField, euclidean_metric

RNG = np.random.default_rng(23)


def euclid_flag(dim=2):
    return FlagPoint(generators.sample_box_point(RNG, dim),
                     RNG.normal(size=dim))


def cigar_navigation():
    h = riemann.RiemannMetric(2, lambda x: [[1.0, 0.0], [0.0, jets.tanh(x[0]) ** 2]],
                              name="cigar-h")
    W = VectorField(lambda x: [0.0, 1.0])
    return randers.NavigationData(h, W, name="cigar")


def sphere_metric(mu, k):
    from finsler_solitons.fixtures import sphere_metric as sm

    return sm(mu, k)


# -- fundamental and Cartan tensors -----------------------------------------------


def test_fundamental_tensor_riemannian_reduction():
    h = generators.random_riemann_metric(RNG, 3)
    F = FinslerMetric.from_riemannian(h)
    x = generators.sample_box_point(RNG, 3)
    for _ in range(3):
        p = FlagPoint(x, RNG.normal(size=3))
        np.testing.assert_allclose(curvature_bundle(F, [p])[0].g, h.matrix_at(x),
                                   rtol=1e-11, atol=1e-13)


def test_fundamental_tensor_randers_euler_identity():
    rd = generators.random_randers(RNG, 3)
    F = randers.finsler_from_randers(rd)
    p = FlagPoint(generators.sample_box_point(RNG, 3), RNG.normal(size=3))
    g = curvature_bundle(F, [p])[0].g
    F2 = F.value(p.x, p.y) ** 2
    assert float(p.y @ g @ p.y) == pytest.approx(F2, rel=1e-11)


def test_fundamental_tensor_cigar_positive_definite():
    F = randers.finsler_from_navigation(cigar_navigation())
    p = FlagPoint([1.0, 0.0], [1.0, 0.0])
    g = curvature_bundle(F, [p])[0].g
    assert np.all(np.linalg.eigvalsh(g) > 0.0)


def test_cartan_tensor_vanishes_iff_riemannian():
    h = generators.random_riemann_metric(RNG, 2)
    p = euclid_flag(2)
    C = curvature_bundle(FinslerMetric.from_riemannian(h), [p])[0].cartan
    assert np.max(np.abs(C)) <= 1e-11
    rd = generators.random_randers(RNG, 2)
    C2 = curvature_bundle(randers.finsler_from_randers(rd), [p])[0].cartan
    assert np.max(np.abs(C2)) > 1e-4


def test_cartan_contraction_with_y_vanishes():
    rd = generators.random_randers(RNG, 3)
    F = randers.finsler_from_randers(rd)
    p = FlagPoint(generators.sample_box_point(RNG, 3), RNG.normal(size=3))
    C = curvature_bundle(F, [p])[0].cartan
    assert np.max(np.abs(np.einsum("ijk,i->jk", C, p.y))) <= 1e-10


# -- spray -------------------------------------------------------------------------


def test_spray_euclidean_zero():
    F = FinslerMetric.from_riemannian(euclidean_metric(2))
    assert np.max(np.abs(curvature_bundle(F, [euclid_flag(2)])[0].spray)) <= 1e-14


def test_spray_riemannian_christoffel_oracle():
    h = generators.random_riemann_metric(RNG, 3)
    F = FinslerMetric.from_riemannian(h)
    p = FlagPoint(generators.sample_box_point(RNG, 3), RNG.normal(size=3))
    gam = riemann.point_record(h, p.x, 1).gamma
    want = 0.5 * np.einsum("kij,i,j->k", gam, p.y, p.y)
    np.testing.assert_allclose(curvature_bundle(F, [p])[0].spray, want, rtol=1e-10, atol=1e-12)


def test_spray_navigation_correction():
    # with a Killing W the spray of alpha is the spray of h plus the closed-form shift
    nav = cigar_navigation()
    rd = randers.from_navigation(nav)
    p = FlagPoint([0.8, 0.4], RNG.normal(size=2))
    Ga = curvature_bundle(FinslerMetric.from_riemannian(rd.alpha), [p])[0].spray
    Gh = curvature_bundle(FinslerMetric.from_riemannian(nav.h), [p])[0].spray
    T = randers.nav_tensors(riemann.point_record(nav.h, p.x, 1), nav.W.table(p.x, order=1))
    zeta = randers.spray_correction(T, 0.0, p.y)
    np.testing.assert_allclose(Ga, Gh + zeta, rtol=1e-9, atol=1e-11)


# -- curvature ----------------------------------------------------------------------


def test_riemann_curvature_euclidean_zero():
    F = FinslerMetric.from_riemannian(euclidean_metric(3))
    R = curvature_bundle(F, [euclid_flag(3)])[0].riemann
    assert np.max(np.abs(R)) <= 1e-13


def test_riemann_curvature_sphere_pattern():
    # constant curvature mu: R^i_k = mu (h^2 delta^i_k - y^i (h y)_k)
    mu = 1.0
    h = sphere_metric(mu, 3)
    F = FinslerMetric.from_riemannian(h)
    x = RNG.uniform(-0.5, 0.5, size=3)
    y = RNG.normal(size=3)
    p = FlagPoint(x, y)
    h0 = h.matrix_at(x)
    h2 = float(y @ h0 @ y)
    want = mu * (h2 * np.eye(3) - np.outer(y, h0 @ y))
    np.testing.assert_allclose(curvature_bundle(F, [p])[0].riemann, want, rtol=1e-9, atol=1e-10)
    assert curvature_bundle(F, [p])[0].ricci == pytest.approx(2.0 * mu * h2, rel=1e-10)


def test_ricci_cigar_randers_law():
    F = randers.finsler_from_navigation(cigar_navigation())
    t = 1.0
    p = FlagPoint([t, 0.3], RNG.normal(size=2))
    ratio = curvature_bundle(F, [p])[0].ricci / F.value(p.x, p.y) ** 2
    assert ratio == pytest.approx(2.0 / math.cosh(t) ** 2, rel=1e-10)
    assert ratio == pytest.approx(0.8399486832280522, rel=1e-10)


# -- homogeneity suite ---------------------------------------------------------------


def test_homogeneity_suite():
    rd = generators.random_randers(RNG, 2)
    F = randers.finsler_from_randers(rd)
    measure = randers.bh_measure(rd)
    p = FlagPoint(generators.sample_box_point(RNG, 2), RNG.normal(size=2))
    for lam in (0.37, 2.9):
        q = FlagPoint(p.x, lam * p.y)
        assert F.value(q.x, q.y) == pytest.approx(lam * F.value(p.x, p.y), rel=1e-12)
        bq, bp = curvature_bundle(F, [q])[0], curvature_bundle(F, [p])[0]
        np.testing.assert_allclose(bq.spray, lam * lam * bp.spray, rtol=1e-10)
        np.testing.assert_allclose(bq.riemann, lam * lam * bp.riemann, rtol=1e-10)
        assert evaluate_flags(F, measure, [q])[0].S == pytest.approx(
            lam * evaluate_flags(F, measure, [p])[0].S, rel=1e-10)
        assert distortion(F, measure, q) == pytest.approx(
            distortion(F, measure, p), rel=1e-10)


# -- distortion and S-curvature -------------------------------------------------------


def test_distortion_riemannian_zero():
    h = generators.random_riemann_metric(RNG, 2)
    F = FinslerMetric.from_riemannian(h)
    m = Measure.riemannian(h)
    p = euclid_flag(2)
    assert distortion(F, m, p) == pytest.approx(0.0, abs=1e-12)


def test_distortion_weighted_equals_weight():
    h = generators.random_riemann_metric(RNG, 2)
    f = generators.random_scalar_field(RNG, 2)
    F = FinslerMetric.from_riemannian(h)
    m = Measure.riemannian(h).weighted(f)
    p = euclid_flag(2)
    assert distortion(F, m, p) == pytest.approx(float(f(list(p.x))), rel=1e-10)


def test_s_curvature_riemannian_zero():
    h = generators.random_riemann_metric(RNG, 3)
    F = FinslerMetric.from_riemannian(h)
    m = Measure.riemannian(h)
    p = FlagPoint(generators.sample_box_point(RNG, 3), RNG.normal(size=3))
    assert evaluate_flags(F, m, [p])[0].S == pytest.approx(0.0, abs=1e-11)


def test_s_curvature_weighted_is_df():
    h = generators.random_riemann_metric(RNG, 2)
    f = generators.random_scalar_field(RNG, 2)
    F = FinslerMetric.from_riemannian(h)
    m = Measure.riemannian(h).weighted(f)
    p = euclid_flag(2)
    _, grad, _ = f.table(p.x, order=2)
    assert evaluate_flags(F, m, [p])[0].S == pytest.approx(float(grad @ p.y), rel=1e-10)


def test_s_curvature_cigar_bh_vanishes():
    nav = cigar_navigation()
    rd = randers.from_navigation(nav)
    F = randers.finsler_from_navigation(nav)
    m = randers.bh_measure(rd)
    p = FlagPoint([0.7, 0.2], RNG.normal(size=2))
    assert evaluate_flags(F, m, [p])[0].S == pytest.approx(0.0, abs=1e-11)


def test_s_dot_riemannian_zero():
    h = generators.random_riemann_metric(RNG, 2)
    F = FinslerMetric.from_riemannian(h)
    m = Measure.riemannian(h)
    p = euclid_flag(2)
    assert evaluate_flags(F, m, [p])[0].s_dot == pytest.approx(0.0, abs=1e-10)


def test_s_dot_weighted_is_hessian():
    h = generators.random_riemann_metric(RNG, 2)
    f = generators.random_scalar_field(RNG, 2)
    F = FinslerMetric.from_riemannian(h)
    m = Measure.riemannian(h).weighted(f)
    p = euclid_flag(2)
    want = riemann.hessian(riemann.point_record(h, p.x, 1), f.table(p.x, order=2), p.y)
    assert evaluate_flags(F, m, [p])[0].s_dot == pytest.approx(want, rel=1e-9, abs=1e-11)


def test_s_dot_navigation_closed_form():
    # isotropic S-curvature data: engine S-dot equals the closed form
    from finsler_solitons.solitons import s_dot_closed_form_nav

    nav, sigma, _ = generators.conformal_euclidean_navigation(RNG, 2)
    rd = randers.from_navigation(nav)
    f = generators.random_scalar_field(RNG, 2)
    F = randers.finsler_from_navigation(nav)
    m = randers.bh_measure(rd).weighted(f)
    p = FlagPoint(generators.sample_box_point(RNG, 2), RNG.normal(size=2))
    H = riemann.point_record(nav.h, p.x, 1)
    T = randers.nav_tensors(H, nav.W.table(p.x, order=1))
    closed = s_dot_closed_form_nav(H, T, F.value(p.x, p.y),
                                   randers.field_sigma_terms(sigma, p.x, p.y, T.w_up),
                                   f.table(p.x, order=2), p.y)
    assert evaluate_flags(F, m, [p])[0].s_dot == pytest.approx(closed, rel=1e-8, abs=1e-10)


# -- weighted Ricci --------------------------------------------------------------------


def test_weighted_ricci_gaussian():
    rho = 1.0
    h = euclidean_metric(2)
    F = FinslerMetric.from_riemannian(h)
    f = ScalarField(lambda x: 0.5 * rho * (x[0] * x[0] + x[1] * x[1]))
    m = Measure.riemannian(h).weighted(f)
    p = euclid_flag(2)
    F2 = F.value(p.x, p.y) ** 2
    assert evaluate_flags(F, m, [p])[0].ric_inf == pytest.approx(rho * F2, rel=1e-12)


def test_weighted_ricci_rejects_small_N():
    h = euclidean_metric(2)
    F = FinslerMetric.from_riemannian(h)
    m = Measure.riemannian(h)
    ev = evaluate_flags(F, m, [euclid_flag(2)])[0]
    for N in (2.0, 1.5):
        with pytest.raises(ParameterError):
            ev.ric_n(N)


def test_weighted_ricci_monotone_in_N():
    h = euclidean_metric(2)
    F = FinslerMetric.from_riemannian(h)
    f = ScalarField(lambda x: 0.4 * x[0] + 0.7 * x[1])
    m = Measure.riemannian(h).weighted(f)
    p = euclid_flag(2)
    ev = evaluate_flags(F, m, [p])[0]
    vals = [ev.ric_n(N) for N in (2.5, 4.0, 11.0, math.inf)]
    assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == ev.ric_inf


# -- Lie derivative of F^2 --------------------------------------------------------------


def test_lie_F2_zero_field():
    rd = generators.random_randers(RNG, 2)
    F = randers.finsler_from_randers(rd)
    zero = VectorField(lambda x: [0.0, 0.0])
    assert lie_F2(F, zero, euclid_flag(2)) == 0.0


def test_lie_F2_killing_riemannian():
    F = FinslerMetric.from_riemannian(euclidean_metric(2))
    v = VectorField(lambda x: [-x[1], x[0]])
    assert lie_F2(F, v, euclid_flag(2)) == pytest.approx(0.0, abs=1e-12)


def test_lie_F2_randers_split():
    rd = generators.random_randers(RNG, 2)
    F = randers.finsler_from_randers(rd)
    v = generators.random_vector_field(RNG, 2)
    p = euclid_flag(2)
    lhs = lie_F2(F, v, p)
    Fv = F.value(p.x, p.y)
    alpha = math.sqrt(float(p.y @ rd.alpha.matrix_at(p.x) @ p.y))
    A = riemann.point_record(rd.alpha, p.x, 1)
    v0, dv = v.table(p.x, order=1)
    b0, db = rd.beta.table(p.x, order=1)
    vcov = riemann.lowered_covariant_derivative(A.h0, A.dh, A.gamma, v0, dv)
    bcov = riemann.covariant_1form(A.gamma, b0, db)
    rhs = (Fv / alpha * riemann.lie_h2(vcov, p.y)
           + 2.0 * Fv * riemann.lie_1form(v0, vcov, A.hinv @ b0, bcov, p.y))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# -- flag curvature fit ------------------------------------------------------------------


def test_flag_curvature_flat():
    F = FinslerMetric.from_riemannian(euclidean_metric(2))
    fit = finsler._flag_curvature(curvature_bundle(F, [euclid_flag(2)])[0])
    assert fit.flat and fit.value == 0.0 and fit.residual == 0.0


def test_flag_curvature_sphere():
    F = FinslerMetric.from_riemannian(sphere_metric(1.0, 3))
    p = FlagPoint(RNG.uniform(-0.5, 0.5, size=3), RNG.normal(size=3))
    fit = finsler._flag_curvature(curvature_bundle(F, [p])[0])
    assert fit.value == pytest.approx(1.0, abs=1e-8)
    assert fit.residual <= 1e-8


def test_flag_curvature_cigar():
    F = randers.finsler_from_navigation(cigar_navigation())
    t = 1.3
    p = FlagPoint([t, 0.1], RNG.normal(size=2))
    fit = finsler._flag_curvature(curvature_bundle(F, [p])[0])
    assert fit.value == pytest.approx(2.0 / math.cosh(t) ** 2, abs=1e-7)
    assert fit.residual <= 1e-7


def test_flag_curvature_monotone_along_axis():
    F = randers.finsler_from_navigation(cigar_navigation())
    flags = [FlagPoint([t, 0.0], [0.3, 0.8]) for t in (1.0, 2.0)]
    k1, k2 = (finsler._flag_curvature(b).value for b in curvature_bundle(F, flags))
    assert k2 < k1


# -- reductions and degenerate flags ------------------------------------------------------


def test_riemannian_reduction_against_christoffel():
    for dim in (2, 3):
        h = generators.random_riemann_metric(RNG, dim)
        F = FinslerMetric.from_riemannian(h)
        for _ in range(3):
            p = FlagPoint(generators.sample_box_point(RNG, dim), RNG.normal(size=dim))
            want = riemann.riemann_ricci(riemann.point_record(h, p.x, 2), p.y)
            h2 = float(p.y @ h.matrix_at(p.x) @ p.y)
            assert curvature_bundle(F, [p])[0].ricci == pytest.approx(want, rel=1e-9, abs=1e-9 * h2)


def test_fd_mode_matches_jet_mode():
    rd = generators.random_randers(RNG, 2)
    F = randers.finsler_from_randers(rd)
    p = euclid_flag(2)
    r_jet = curvature_bundle(F, [p], mode="jet")[0].ricci
    r_fd = curvature_bundle(F, [p], mode="fd")[0].ricci
    F2 = F.value(p.x, p.y) ** 2
    assert abs(r_jet - r_fd) / max(abs(r_jet), F2) <= 1e-5


def test_flag_domain_error_on_invalid_metric():
    def bad_fn(x, y):
        return y[0]  # not a norm: F <= 0 on half the flags

    F = FinslerMetric(2, bad_fn)
    with pytest.raises(FlagDomainError):
        curvature_bundle(F, [FlagPoint([0.0, 0.0], [-1.0, 0.2])])
