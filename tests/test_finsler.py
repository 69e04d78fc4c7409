"""Spray-based Finsler engine: homogeneity, Euler identities, curvature laws,
measure quantities, and agreement with the Christoffel backend."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from _lanes import assert_fit_lanes

from finsler_solitons import finsler, fixtures, generators, jets, randers, riemann
from finsler_solitons.finsler import (FinslerMetric, FlagDomainError, Measure,
                                      curvature_bundle, evaluate_flags, lie_F2)
from finsler_solitons.jets import FlagPoint
from finsler_solitons.riemann import ScalarField, VectorField, euclidean_metric
from finsler_solitons.sampling import sample_flags


def euclid_flag(rng, dim=2):
    return FlagPoint(generators.sample_box_point(rng, dim),
                     rng.normal(size=dim))


def cigar_navigation():
    h = riemann.RiemannMetric(2, lambda x: [[1.0, 0.0], [0.0, jets.tanh(x[0]) ** 2]],
                              name="cigar-h")
    W = VectorField(lambda x: [0.0, 1.0])
    return randers.NavigationData(h, W, name="cigar")


def sphere_metric(mu, k):
    from finsler_solitons.fixtures import sphere_metric as sm

    return sm(mu, k)


# -- fundamental tensor ------------------------------------------------------------


def test_fundamental_tensor_riemannian_reduction(rng):
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 3))
    F = FinslerMetric.from_riemannian(h)
    x = generators.sample_box_point(rng, 3)
    for _ in range(3):
        p = FlagPoint(x, rng.normal(size=3))
        np.testing.assert_allclose(curvature_bundle(F, [p]).g[0], h.matrix_at(x),
                                   rtol=1e-11, atol=1e-13)


def test_fundamental_tensor_randers_euler_identity(rng):
    rd = generators.random_randers(rng, 3)
    F = randers.finsler_from_randers(rd)
    p = FlagPoint(generators.sample_box_point(rng, 3), rng.normal(size=3))
    g = curvature_bundle(F, [p]).g[0]
    F2 = F.value(p.x, p.y) ** 2
    assert float(p.y @ g @ p.y) == pytest.approx(F2, rel=1e-11)


def test_fundamental_tensor_cigar_positive_definite():
    F = randers.finsler_from_navigation(cigar_navigation())
    p = FlagPoint([1.0, 0.0], [1.0, 0.0])
    g = curvature_bundle(F, [p]).g[0]
    assert np.all(np.linalg.eigvalsh(g) > 0.0)


# -- spray -------------------------------------------------------------------------


def test_spray_euclidean_zero(rng):
    F = FinslerMetric.from_riemannian(euclidean_metric(2))
    assert np.max(np.abs(curvature_bundle(F, [euclid_flag(rng, 2)]).spray[0])) <= 1e-14


def test_spray_riemannian_christoffel_oracle(rng):
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 3))
    F = FinslerMetric.from_riemannian(h)
    p = FlagPoint(generators.sample_box_point(rng, 3), rng.normal(size=3))
    gam = riemann.point_record(h, p.x, 1).gamma
    want = 0.5 * np.einsum("kij,i,j->k", gam, p.y, p.y)
    np.testing.assert_allclose(curvature_bundle(F, [p]).spray[0], want, rtol=1e-10, atol=1e-12)


def test_spray_navigation_correction(rng):
    # with a Killing W the spray of alpha is the spray of h plus the closed-form shift
    nav = cigar_navigation()
    rd = randers.from_navigation(nav)
    p = FlagPoint([0.8, 0.4], rng.normal(size=2))
    Ga = curvature_bundle(FinslerMetric.from_riemannian(rd.alpha), [p]).spray[0]
    Gh = curvature_bundle(FinslerMetric.from_riemannian(nav.h), [p]).spray[0]
    T = randers.nav_tensors(riemann.point_record(nav.h, p.x, 1), nav.W.table(p.x, order=1))
    zeta = randers.spray_correction(T, 0.0, p.y)
    np.testing.assert_allclose(Ga, Gh + zeta, rtol=1e-9, atol=1e-11)


# -- curvature ----------------------------------------------------------------------


def test_riemann_curvature_euclidean_zero(rng):
    F = FinslerMetric.from_riemannian(euclidean_metric(3))
    R = curvature_bundle(F, [euclid_flag(rng, 3)]).riemann[0]
    assert np.max(np.abs(R)) <= 1e-13


def test_riemann_curvature_sphere_pattern(rng):
    # constant curvature mu: R^i_k = mu (h^2 delta^i_k - y^i (h y)_k)
    mu = 1.0
    h = sphere_metric(mu, 3)
    F = FinslerMetric.from_riemannian(h)
    x = rng.uniform(-0.5, 0.5, size=3)
    y = rng.normal(size=3)
    p = FlagPoint(x, y)
    h0 = h.matrix_at(x)
    h2 = float(y @ h0 @ y)
    want = mu * (h2 * np.eye(3) - np.outer(y, h0 @ y))
    np.testing.assert_allclose(curvature_bundle(F, [p]).riemann[0], want, rtol=1e-9, atol=1e-10)
    assert curvature_bundle(F, [p]).ricci[0] == pytest.approx(2.0 * mu * h2, rel=1e-10)


def test_ricci_cigar_randers_law(rng):
    F = randers.finsler_from_navigation(cigar_navigation())
    t = 1.0
    p = FlagPoint([t, 0.3], rng.normal(size=2))
    ratio = curvature_bundle(F, [p]).ricci[0] / F.value(p.x, p.y) ** 2
    assert ratio == pytest.approx(2.0 / math.cosh(t) ** 2, rel=1e-10)
    assert ratio == pytest.approx(0.8399486832280522, rel=1e-10)


# -- homogeneity suite ---------------------------------------------------------------


def test_homogeneity_suite(rng):
    rd = generators.random_randers(rng, 2)
    F = randers.finsler_from_randers(rd)
    measure = randers.bh_measure(rd)
    p = FlagPoint(generators.sample_box_point(rng, 2), rng.normal(size=2))
    for lam in (0.37, 2.9):
        q = FlagPoint(p.x, lam * p.y)
        assert F.value(q.x, q.y) == pytest.approx(lam * F.value(p.x, p.y), rel=1e-12)
        bq, bp = curvature_bundle(F, [q]), curvature_bundle(F, [p])
        np.testing.assert_allclose(bq.spray, lam * lam * bp.spray, rtol=1e-10)
        np.testing.assert_allclose(bq.riemann, lam * lam * bp.riemann, rtol=1e-10)
        assert evaluate_flags(F, measure, [q]).S[0] == pytest.approx(
            lam * evaluate_flags(F, measure, [p]).S[0], rel=1e-10)


# -- S-curvature ---------------------------------------------------------------------


def test_s_curvature_riemannian_zero(rng):
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 3))
    F = FinslerMetric.from_riemannian(h)
    m = Measure.riemannian(h)
    p = FlagPoint(generators.sample_box_point(rng, 3), rng.normal(size=3))
    assert evaluate_flags(F, m, [p]).S[0] == pytest.approx(0.0, abs=1e-11)


def test_s_curvature_weighted_is_df(rng):
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 2))
    f = generators.scalar_field(generators.draw_scalar_field(rng, 2))
    F = FinslerMetric.from_riemannian(h)
    m = Measure.riemannian(h).weighted(f)
    p = euclid_flag(rng, 2)
    _, grad, _ = f.table(p.x, order=2)
    assert evaluate_flags(F, m, [p]).S[0] == pytest.approx(float(grad @ p.y), rel=1e-10)


def test_s_curvature_cigar_bh_vanishes(rng):
    nav = cigar_navigation()
    rd = randers.from_navigation(nav)
    F = randers.finsler_from_navigation(nav)
    m = randers.bh_measure(rd)
    p = FlagPoint([0.7, 0.2], rng.normal(size=2))
    assert evaluate_flags(F, m, [p]).S[0] == pytest.approx(0.0, abs=1e-11)


def test_s_dot_riemannian_zero(rng):
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 2))
    F = FinslerMetric.from_riemannian(h)
    m = Measure.riemannian(h)
    p = euclid_flag(rng, 2)
    assert evaluate_flags(F, m, [p]).s_dot[0] == pytest.approx(0.0, abs=1e-10)


def test_s_dot_weighted_is_hessian(rng):
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 2))
    f = generators.scalar_field(generators.draw_scalar_field(rng, 2))
    F = FinslerMetric.from_riemannian(h)
    m = Measure.riemannian(h).weighted(f)
    p = euclid_flag(rng, 2)
    want = riemann.hessian(riemann.point_record(h, p.x, 1), f.table(p.x, order=2), p.y)
    assert evaluate_flags(F, m, [p]).s_dot[0] == pytest.approx(want, rel=1e-9, abs=1e-11)


def test_s_dot_navigation_closed_form(rng):
    # isotropic S-curvature data: engine S-dot equals the closed form
    from finsler_solitons.solitons import s_dot_closed_form_nav

    nav, sigma, _ = generators.conformal_navigation(generators.draw_conformal(rng, 2))
    rd = randers.from_navigation(nav)
    f = generators.scalar_field(generators.draw_scalar_field(rng, 2))
    F = randers.finsler_from_navigation(nav)
    m = randers.bh_measure(rd).weighted(f)
    p = FlagPoint(generators.sample_box_point(rng, 2), rng.normal(size=2))
    H = riemann.point_record(nav.h, p.x, 1)
    T = randers.nav_tensors(H, nav.W.table(p.x, order=1))
    sig = randers.sigma_terms(sigma.table(p.x, order=1), p.y, T.w_up)
    closed = s_dot_closed_form_nav(H, T, F.value(p.x, p.y), sig, f.table(p.x, order=2), p.y)
    assert evaluate_flags(F, m, [p]).s_dot[0] == pytest.approx(closed, rel=1e-8, abs=1e-10)


# -- weighted Ricci --------------------------------------------------------------------


def test_weighted_ricci_gaussian(rng):
    rho = 1.0
    h = euclidean_metric(2)
    F = FinslerMetric.from_riemannian(h)
    f = ScalarField(lambda x: 0.5 * rho * (x[0] * x[0] + x[1] * x[1]))
    m = Measure.riemannian(h).weighted(f)
    p = euclid_flag(rng, 2)
    F2 = F.value(p.x, p.y) ** 2
    assert evaluate_flags(F, m, [p]).ric_inf[0] == pytest.approx(rho * F2, rel=1e-12)


# -- Lie derivative of F^2 --------------------------------------------------------------


def test_lie_F2_zero_field(rng):
    rd = generators.random_randers(rng, 2)
    F = randers.finsler_from_randers(rd)
    zero = VectorField(lambda x: [0.0, 0.0])
    p = euclid_flag(rng, 2)
    assert lie_F2(F, zero.table([p.x], order=1), [p.x], [p.y]).tolist() == [0.0]


def test_lie_F2_killing_riemannian(rng):
    F = FinslerMetric.from_riemannian(euclidean_metric(2))
    v = VectorField(lambda x: [-x[1], x[0]])
    p = euclid_flag(rng, 2)
    assert lie_F2(F, v.table([p.x], order=1), [p.x], [p.y])[0] == pytest.approx(0.0, abs=1e-12)


def test_lie_F2_randers_split(rng):
    rd = generators.random_randers(rng, 2)
    F = randers.finsler_from_randers(rd)
    v = generators.vector_field(generators.draw_vector_field(rng, 2))
    p = euclid_flag(rng, 2)
    lhs = lie_F2(F, v.table([p.x], order=1), [p.x], [p.y])[0]
    Fv = F.value(p.x, p.y)
    alpha = math.sqrt(float(p.y @ rd.alpha.matrix_at(p.x) @ p.y))
    A = riemann.point_record(rd.alpha, p.x, 1)
    v0, dv = v.table(p.x, order=1)
    b0, db = rd.beta.table(p.x, order=1)
    vcov = riemann.lowered_covariant_derivative(A, v0, dv)
    bcov = riemann.covariant_1form(A.gamma, b0, db)
    rhs = (Fv / alpha * riemann.lie_h2(vcov, p.y)
           + 2.0 * Fv * riemann.lie_1form(v0, vcov, A.hinv @ b0, bcov, p.y))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# -- flag curvature fit ------------------------------------------------------------------


def test_flag_curvature_flat(rng):
    F = FinslerMetric.from_riemannian(euclidean_metric(2))
    fit = finsler.flag_curvature(curvature_bundle(F, [euclid_flag(rng, 2)]))
    assert fit.flat[0] and fit.value[0] == 0.0 and fit.residual[0] == 0.0
    assert not fit.within_error[0]


def test_flag_curvature_sphere(rng):
    F = FinslerMetric.from_riemannian(sphere_metric(1.0, 3))
    p = FlagPoint(rng.uniform(-0.5, 0.5, size=3), rng.normal(size=3))
    fit = finsler.flag_curvature(curvature_bundle(F, [p]))
    assert fit.value[0] == pytest.approx(1.0, abs=1e-8)
    assert fit.residual[0] <= 1e-8


def test_flag_curvature_cigar(rng):
    F = randers.finsler_from_navigation(cigar_navigation())
    t = 1.3
    p = FlagPoint([t, 0.1], rng.normal(size=2))
    fit = finsler.flag_curvature(curvature_bundle(F, [p]))
    assert fit.value[0] == pytest.approx(2.0 / math.cosh(t) ** 2, abs=1e-7)
    assert fit.residual[0] <= 1e-7


def test_flag_curvature_monotone_along_axis():
    F = randers.finsler_from_navigation(cigar_navigation())
    flags = [FlagPoint([t, 0.0], [0.3, 0.8]) for t in (1.0, 2.0)]
    k1, k2 = finsler.flag_curvature(curvature_bundle(F, flags)).value
    assert k2 < k1


# the fit cases, in both modes, on every fixture and its W:1e-2 control: the
# stacks a fixture run fits (flat lanes on gaussian, fd lanes flat within
# their error estimate), one-flag stacks, and a stack whose lanes mix flat
# and curved flags
FIT_CASES = [(name, perturb, mode, count) for name in fixtures.FIXTURE_NAMES
             for perturb in (None, ("W", 1e-2))
             for mode, count in (("jet", 16), ("jet", 1), ("fd", 2))] + ["mixed"]


@functools.lru_cache(maxsize=None)
def _fit_case(what):
    """The bundle of the fit case `what`, one of `FIT_CASES`."""
    if what == "mixed":
        flat = FinslerMetric.from_riemannian(euclidean_metric(2))
        curved = randers.finsler_from_navigation(cigar_navigation())
        rng = np.random.default_rng(4)
        b = [curvature_bundle(m, [euclid_flag(rng, 2)]) for m in (flat, curved, flat)]
        return finsler.CurvatureBundle(*(np.concatenate(v) for v in zip(
            *(dataclasses.astuple(one) for one in b))))
    name, perturb, mode, count = what
    fx = fixtures.get_fixture(name, perturb=perturb)
    flags = sample_flags(fx, count, np.random.default_rng(3))
    if mode == "fd":
        return evaluate_flags(fx.metric, fx.measure, flags, mode="fd").bundle
    return curvature_bundle(fx.metric, flags)


@pytest.mark.parametrize("what", FIT_CASES, ids=str)
def test_stacked_flag_curvature_equals_each_flag_alone(what):
    b = _fit_case(what)
    with np.errstate(all="raise"):      # flat lanes divide by nothing
        fit = finsler.flag_curvature(b)
    assert_fit_lanes(fit, b, what)


def test_fd_lanes_flat_within_error_are_fitted_as_each_flag_alone():
    fx = fixtures.get_fixture("gaussian")
    flags = sample_flags(fx, 3, np.random.default_rng(3))
    b = evaluate_flags(fx.metric, fx.measure, flags, mode="fd").bundle
    fit = finsler.flag_curvature(b)
    assert fit.within_error.all() and fit.flat.all()
    assert_fit_lanes(fit, b, "gaussian fd")


# -- reductions and degenerate flags ------------------------------------------------------


def test_riemannian_reduction_against_christoffel(rng):
    for dim in (2, 3):
        h = generators.riemann_metric(generators.draw_riemann_metric(rng, dim))
        F = FinslerMetric.from_riemannian(h)
        for _ in range(3):
            p = FlagPoint(generators.sample_box_point(rng, dim), rng.normal(size=dim))
            want = riemann.riemann_ricci(riemann.point_record(h, p.x, 2), p.y)
            h2 = float(p.y @ h.matrix_at(p.x) @ p.y)
            assert curvature_bundle(F, [p]).ricci[0] == pytest.approx(want, rel=1e-9, abs=1e-9 * h2)


def test_fd_mode_matches_jet_mode(rng):
    rd = generators.random_randers(rng, 2)
    F = randers.finsler_from_randers(rd)
    p = euclid_flag(rng, 2)
    r_jet = curvature_bundle(F, [p]).ricci[0]
    r_fd = evaluate_flags(F, Measure.riemannian(rd.alpha), [p], mode="fd").bundle.ricci[0]
    F2 = F.value(p.x, p.y) ** 2
    assert abs(r_jet - r_fd) / max(abs(r_jet), F2) <= 1e-5


def test_flag_domain_error_on_invalid_metric():
    def bad_fn(x, y):
        return y[0]  # not a norm: F <= 0 on half the flags

    F = FinslerMetric(2, bad_fn)
    with pytest.raises(FlagDomainError):
        curvature_bundle(F, [FlagPoint([0.0, 0.0], [-1.0, 0.2])])
