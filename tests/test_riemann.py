"""Christoffel/curvature backend against closed forms and classical identities."""

import math

import numpy as np
import pytest

from finsler_solitons import generators, jets, riemann
from finsler_solitons.riemann import (MetricDomainError, RiemannMetric,
                                      ScalarField, VectorField, as_scalar_field,
                                      conformal_residual, covariant_1form,
                                      euclidean_metric, hessian_tensor,
                                      lie_1form, lie_h2,
                                      lowered_covariant_derivative,
                                      point_record, riemann_ricci)


def christoffel(h, x):
    return point_record(h, x, 1).gamma


def ricci(h, x, y):
    return riemann_ricci(point_record(h, x, 2), y)


def hessian(h, f, x, y):
    return riemann.hessian(point_record(h, x, 1), as_scalar_field(f).table(x, order=2), y)


def vcov_of(rec, v):
    """(V^k, V_{i:j}) at the record's point from one table of v."""
    v0, dv = v.table(rec.x, order=1)
    return v0, lowered_covariant_derivative(rec, v0, dv)


def gradient_tables(rec, f):
    """(V^i, d_j V^i) of the metric gradient V^i = h^ij f_j at the record's point."""
    _, grad, hess = as_scalar_field(f).table(rec.x, order=2)
    return rec.hinv @ grad, (np.einsum("jik,k->ij", rec.dhinv, grad)
                             + np.einsum("ik,kj->ij", rec.hinv, hess))


def metric_compatibility_residual(rec):
    """h_{ij;k}, which must vanish for the Levi-Civita connection."""
    return (rec.dh - np.einsum("mik,mj->kij", rec.gamma, rec.h0)
            - np.einsum("mjk,im->kij", rec.gamma, rec.h0))


def cigar_metric():
    return RiemannMetric(2, lambda x: [[1.0, 0.0], [0.0, jets.tanh(x[0]) ** 2]],
                         name="cigar")


def sphere_metric(mu, k):
    def rows(x):
        x2 = 0.0
        for v in x:
            x2 = x2 + v * v
        D = 1.0 + mu * x2
        out = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                val = -mu * x[i] * x[j] / (D * D)
                if i == j:
                    val = val + 1.0 / D
                out[i][j] = val
        return out

    return RiemannMetric(k, rows, name="sphere")


# -- christoffel ------------------------------------------------------------------


def test_christoffel_euclidean_zero():
    gam = christoffel(euclidean_metric(3), [0.3, -0.2, 0.9])
    assert np.max(np.abs(gam)) == 0.0


def test_christoffel_cigar_closed_form():
    t = 1.0
    gam = christoffel(cigar_metric(), [t, 0.4])
    assert gam[0, 1, 1] == pytest.approx(-math.tanh(t) / math.cosh(t) ** 2, rel=1e-12)
    assert gam[1, 0, 1] == pytest.approx(2.0 / math.sinh(2.0 * t), rel=1e-12)
    assert gam[1, 1, 0] == gam[1, 0, 1]
    assert gam[0, 0, 0] == pytest.approx(0.0, abs=1e-14)


def test_christoffel_projective_sphere_closed_form(rng):
    mu = 1.3
    x = rng.uniform(-0.7, 0.7, size=3)
    gam = christoffel(sphere_metric(mu, 3), x)
    D = 1.0 + mu * float(x @ x)
    want = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                want[k, i, j] = -mu / D * (x[i] * (k == j) + x[j] * (k == i))
    np.testing.assert_allclose(gam, want, atol=1e-12)


def test_christoffel_symmetric_lower_indices(rng):
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 3))
    x = generators.sample_box_point(rng, 3)
    gam = christoffel(h, x)
    np.testing.assert_allclose(gam, np.swapaxes(gam, 1, 2), atol=0.0)


def test_singular_metric_raises():
    # singular, indefinite, and -I, whose determinant is positive: only a
    # positive-definiteness test refuses the last
    for rows in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]]):
        bad = RiemannMetric(2, lambda x, rows=rows: rows, name="degenerate")
        for call in (lambda: point_record(bad, [0.0, 0.0], 1), lambda: bad.matrix_at([0.0, 0.0])):
            with pytest.raises(MetricDomainError, match="degenerate matrix not positive definite"):
                call()


def test_matrix_at_guards_without_inverting(monkeypatch, rng):
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda *a: calls.append(a) or inv(*a))
    h = generators.riemann_metric(generators.draw_riemann_metric(np.random.default_rng(2), 3))
    x = generators.sample_box_point(rng, 3)
    assert np.array_equal(h.matrix_at(x), np.array(h.matrix(list(x)), float))
    assert calls == []


def test_calibration_refuses_an_indefinite_metric():
    # rows of grid-shaped arrays, as a polynomial metric gives at the grid
    bad = RiemannMetric(2, lambda x: [[1.0 + 0.0 * x[0], 2.0 + 0.0 * x[0]],
                                      [2.0 + 0.0 * x[0], 1.0 + 0.0 * x[1]]], name="indefinite")
    raw = generators.draw_calibrated(np.random.default_rng(0), 2)[1]
    with pytest.raises(MetricDomainError, match="indefinite matrix not positive definite"):
        generators._calibrated_field(bad, raw, 0.45, "b", inverse=True)


# -- ricci ------------------------------------------------------------------------


def test_ricci_euclidean_zero(rng):
    y = rng.normal(size=3)
    assert ricci(euclidean_metric(3), [0.1, 0.2, 0.3], y) == 0.0


def test_ricci_sphere_constant_curvature(rng):
    # round sphere of curvature mu in dimension 3 = 2m-1 with m = 2
    mu = 1.0
    h = sphere_metric(mu, 3)
    x = rng.uniform(-0.6, 0.6, size=3)
    y = rng.normal(size=3)
    h2 = float(y @ h.matrix_at(x) @ y)
    assert ricci(h, x, y) == pytest.approx(2.0 * mu * h2, rel=1e-10)


def test_ricci_cigar_law(rng):
    h = cigar_metric()
    for t in (0.4, 1.0, 1.7):
        x = [t, 0.2]
        y = rng.normal(size=2)
        h2 = float(y @ h.matrix_at(x) @ y)
        assert ricci(h, x, y) == pytest.approx(2.0 / math.cosh(t) ** 2 * h2,
                                                       rel=1e-10)


def test_ricci_quadratic_in_y(rng):
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 3))
    x = generators.sample_box_point(rng, 3)
    y = rng.normal(size=3)
    base = ricci(h, x, y)
    for lam in (0.3, 2.7):
        assert ricci(h, x, lam * y) == pytest.approx(lam * lam * base,
                                                             rel=1e-12)


# -- covariant derivatives ------------------------------------------------------------


def test_covariant_derivative_constant_form_flat():
    b = VectorField(lambda x: [0.3, -0.4, 0.1])
    rec = point_record(euclidean_metric(3), [0.0, 1.0, 2.0], 1)
    out = covariant_1form(rec.gamma, *b.table(rec.x, order=1))
    assert np.max(np.abs(out)) == 0.0


def test_gradient_form_covariant_derivative_is_symmetric(rng):
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 3))
    f = ScalarField(lambda x: jets.sin(x[0]) * x[1] + jets.exp(0.3 * x[2]))
    df = VectorField(lambda x: [jets.cos(x[0]) * x[1], jets.sin(x[0]),
                                0.3 * jets.exp(0.3 * x[2])])
    x = generators.sample_box_point(rng, 3)
    rec = point_record(h, x, 1)
    bcov = covariant_1form(rec.gamma, *df.table(x, order=1))
    np.testing.assert_allclose(bcov, bcov.T, atol=1e-12)
    np.testing.assert_allclose(bcov, hessian_tensor(rec, f.table(x, order=2)), atol=1e-12)


def test_killing_field_covariant_derivative_antisymmetric(rng):
    # sphere Killing field from antisymmetric Q with Qd = 0
    mu = 1.0
    h = sphere_metric(mu, 3)
    Q = np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    d = np.array([0.0, 0.0, 0.4])

    def w_fn(x):
        xd = sum(dv * xv for dv, xv in zip(d, x))
        return [d[i] + mu * xd * x[i] + sum(Q[i, j] * x[j] for j in range(3))
                for i in range(3)]

    x = rng.uniform(-0.5, 0.5, size=3)
    rec = point_record(h, x, 1)
    wcov = vcov_of(rec, VectorField(w_fn))[1]
    np.testing.assert_allclose(wcov, -wcov.T, atol=1e-12)
    np.testing.assert_allclose(conformal_residual(rec, wcov, 0.0),
                               np.zeros((3, 3)), atol=1e-12)


# -- hessian ---------------------------------------------------------------------------


def test_hessian_flat_quadratic(rng):
    rho = 0.8
    f = ScalarField(lambda x: 0.5 * rho * (x[0] * x[0] + x[1] * x[1]))
    y = rng.normal(size=2)
    got = hessian(euclidean_metric(2), f, [0.4, -0.2], y)
    assert got == pytest.approx(rho * float(y @ y), rel=1e-12)


def test_hessian_cigar_weight(rng):
    h = cigar_metric()
    f = ScalarField(lambda x: -2.0 * jets.log(jets.cosh(x[0])))
    t = 0.9
    y = rng.normal(size=2)
    h2 = float(y @ h.matrix_at([t, 0.1]) @ y)
    assert hessian(h, f, [t, 0.1], y) == pytest.approx(-2.0 / math.cosh(t) ** 2 * h2,
                                                       rel=1e-10)


def test_hessian_constant_zero():
    assert hessian(euclidean_metric(2), 3.0, [0.1, 0.2], [1.0, 2.0]) == 0.0


def test_hessian_polarization_symmetry(rng):
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 3))
    f = generators.scalar_field(generators.draw_scalar_field(rng, 3))
    x = generators.sample_box_point(rng, 3)
    y, z = rng.normal(size=3), rng.normal(size=3)
    hy = hessian(h, f, x, y)
    hz = hessian(h, f, x, z)
    assert hessian(h, f, x, y + z) + hessian(h, f, x, y - z) == pytest.approx(
        2.0 * hy + 2.0 * hz, rel=1e-10, abs=1e-12)


# -- Lie derivatives -------------------------------------------------------------------


def test_lie_zero_field(rng):
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 2))
    zero = VectorField(lambda x: [0.0, 0.0])
    x = generators.sample_box_point(rng, 2)
    y = rng.normal(size=2)
    rec = point_record(h, x, 1)
    z0, zcov = vcov_of(rec, zero)
    assert lie_h2(zcov, y) == 0.0
    w0, wcov = vcov_of(rec, generators.vector_field(generators.draw_vector_field(rng, 2)))
    assert lie_1form(z0, zcov, w0, wcov, y) == 0.0


def test_lie_killing_rotation_flat(rng):
    h = euclidean_metric(2)
    v = VectorField(lambda x: [-x[1], x[0]])
    for _ in range(5):
        x = generators.sample_box_point(rng, 2)
        y = rng.normal(size=2)
        assert lie_h2(vcov_of(point_record(h, x, 1), v)[1], y) == pytest.approx(0.0, abs=1e-14)


def test_lie_radial_homothety_flat(rng):
    h = euclidean_metric(2)
    v = VectorField(lambda x: [x[0], x[1]])
    x = generators.sample_box_point(rng, 2)
    y = rng.normal(size=2)
    assert lie_h2(vcov_of(point_record(h, x, 1), v)[1], y) == pytest.approx(2.0 * float(y @ y),
                                                                         rel=1e-13)


def test_lie_h2_of_gradient_is_twice_hessian(rng):
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 3))
    f = generators.scalar_field(generators.draw_scalar_field(rng, 3))
    for _ in range(5):
        x = generators.sample_box_point(rng, 3)
        y = rng.normal(size=3)
        rec = point_record(h, x, 1)
        vcov = lowered_covariant_derivative(rec, *gradient_tables(rec, f))
        assert lie_h2(vcov, y) == pytest.approx(2.0 * hessian(h, f, x, y), rel=1e-10, abs=1e-10)


# -- conformal residuals ----------------------------------------------------------------


def test_conformal_residual_flat_family(rng):
    # W = -2 sigma x + Q x + C is conformal for the flat metric with factor -sigma
    sigma = 0.35
    Q = np.array([[0.0, 0.7], [-0.7, 0.0]])
    C = np.array([0.2, -0.1])
    w = VectorField(lambda x: [-2.0 * sigma * x[i] + Q[i, 0] * x[0] + Q[i, 1] * x[1] + C[i]
                               for i in range(2)])
    x = generators.sample_box_point(rng, 2)
    rec = point_record(euclidean_metric(2), x, 1)
    res = conformal_residual(rec, vcov_of(rec, w)[1], -sigma)
    np.testing.assert_allclose(res, np.zeros((2, 2)), atol=1e-13)


def test_conformal_residual_zero_field_unit_factor():
    rec = point_record(euclidean_metric(3), [0.1, 0.2, 0.3], 1)
    res = conformal_residual(rec, vcov_of(rec, VectorField(lambda x: [0.0] * 3))[1], 1.0)
    np.testing.assert_allclose(res, -4.0 * np.eye(3), atol=0.0)


# -- structural identities ---------------------------------------------------------------


def test_metric_compatibility(rng):
    for dim in (2, 3):
        h = generators.riemann_metric(generators.draw_riemann_metric(rng, dim))
        for _ in range(5):
            x = generators.sample_box_point(rng, dim)
            res = metric_compatibility_residual(point_record(h, x, 1))
            assert np.max(np.abs(res)) <= 1e-10


def test_lie_1form_matches_direct_lift(rng):
    # L_V(beta) via covariant formula vs the raw coordinate formula
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 2))
    b = generators.vector_field(generators.draw_vector_field(rng, 2))
    v = generators.vector_field(generators.draw_vector_field(rng, 2))
    x = generators.sample_box_point(rng, 2)
    y = rng.normal(size=2)
    rec = point_record(h, x, 1)
    b0, db = b.table(x, order=1)
    v0, vcov = vcov_of(rec, v)
    got = lie_1form(v0, vcov, rec.hinv @ b0, covariant_1form(rec.gamma, b0, db), y)
    dv = v.table(x, order=1)[1]
    # direct lift: V^k d_k(b_j) y^j + b_i dV^i/dx^j y^j
    want = float(np.einsum("k,jk,j->", v0, db, y) + np.einsum("i,ij,j->", b0, dv, y))
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_field_values_reads_a_constant_once_and_a_function_per_lane(monkeypatch):
    X = np.random.default_rng(9).uniform(-1.0, 1.0, size=(5, 2))
    law = riemann.ScalarField(lambda x: 2.0 / math.cosh(float(x[0])) ** 2)   # not lane-safe
    want = {0.25: [0.25] * 5, riemann.ScalarField(-1.5): [-1.5] * 5,
            law: [riemann.field_value(law, x) for x in X]}
    calls = []
    field_value = riemann.field_value
    monkeypatch.setattr(riemann, "field_value", lambda f, x: calls.append(1) or field_value(f, x))
    for field, values in want.items():
        calls.clear()
        got = riemann.field_values(field, X)
        assert got.dtype == float and np.array_equal(got, values)
        assert len(calls) == (5 if field is law else 0)
    assert riemann.ScalarField(3).const == 3.0 and law.const is None


def test_a_record_of_many_lanes_equals_its_one_point_records():
    # the Levi-Civita tables of a stack of points read `riemann._bracket`
    # C-contiguous, so their einsums sum in the one-point order at any lane
    # count (at 512 lanes and more they did not)
    rng = np.random.default_rng(5)
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, 3))
    X = rng.uniform(-0.5, 0.5, size=(2048, 3))
    rec = point_record(h, X, 2)
    for k, x in enumerate(X):
        one = point_record(h, x, 2)
        for name in ("h0", "dh", "hinv", "dhinv", "gamma", "dgamma", "ricci"):
            got, want = getattr(rec, name)[k], getattr(one, name)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                                np.signbit(want)), (name, k)
