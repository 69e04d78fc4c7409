"""The record-based Riemannian functions against the code they replaced.

Each reference below is the earlier formula, which made its own jet pass of
the metric (and of each field) at every call; point values of the metric and
of the fields are the jet values of those passes.  The record-based
functions must give the same floats, sign bits included, from one record per
(metric, point) and one table per field: at order 2, as the
characterization bundles build it, and at order 1, as the crosscheck suites
do.
"""

import dataclasses

import numpy as np
import pytest

from finsler_solitons import fixtures, generators, randers, riemann, solitons
from finsler_solitons.riemann import MetricDomainError, spd_inverse
from finsler_solitons.sampling import sample_flags


# -- the earlier formulas ------------------------------------------------------


def _levi_civita(h0, dh, d2h, what):
    hinv = spd_inverse(h0, MetricDomainError, f"{what} matrix")
    bracket = np.einsum("ijl->lij", dh) + np.einsum("jil->lij", dh) - dh
    gamma = 0.5 * np.einsum("kl,lij->kij", hinv, bracket)
    if d2h is None:
        return hinv, gamma
    dhinv = -np.einsum("ka,mab,bl->mkl", hinv, dh, hinv)
    dbracket = np.einsum("mijl->mlij", d2h) + np.einsum("mjil->mlij", d2h) - d2h
    dgamma = 0.5 * (np.einsum("mkl,lij->mkij", dhinv, bracket)
                    + np.einsum("kl,mlij->mkij", hinv, dbracket))
    return hinv, gamma, dhinv, dgamma


def _christoffel(h, x):
    h0, dh = h.tables(x, order=1)
    return _levi_civita(h0, dh, None, h.name or "metric")[1]


def _christoffel_derivative(h, x):
    _, gamma, _, dgamma = _levi_civita(*h.tables(x, order=2), h.name or "metric")
    return gamma, dgamma


def _ricci_tensor(h, x):
    return riemann.ricci_contraction(*_christoffel_derivative(h, x))


def _covariant_derivative_1form(h, b, x):
    b0, db = b.table(x, order=1)
    return db - np.einsum("kij,k->ij", _christoffel(h, x), b0)


def _lowered(h0, dh, gamma, w0, dw):
    """W_{i:j} = d_j (h_ik W^k) - Gamma^k_ij h_kl W^l from the tables of h and W."""
    dwl = np.einsum("jik,k->ij", dh, w0) + np.einsum("ik,kj->ij", h0, dw)
    return dwl - np.einsum("kij,k->ij", gamma, h0 @ w0)


def _vector_covariant_lowered(h, w, x):
    h0, dh = h.tables(x, order=1)
    w0, dw = w.table(x, order=1)
    gamma = _levi_civita(h0, dh, None, h.name or "metric")[1]
    return _lowered(h0, dh, gamma, w0, dw)


def _hessian_tensor(h, f, x):
    _, grad, hess = f.table(x, order=2)
    return hess - np.einsum("kij,k->ij", _christoffel(h, x), grad)


def _lie_h2(h, v, x, y):
    return float(2.0 * np.einsum("ij,i,j->", _vector_covariant_lowered(h, v, x), y, y))


def _lie_W0(h, w, v, x, y):
    wcov = _vector_covariant_lowered(h, w, x)
    vcov = _vector_covariant_lowered(h, v, x)
    return float(np.einsum("k,jk,j->", v.table(x, 1)[0], wcov, y)
                 + np.einsum("k,kj,j->", w.table(x, 1)[0], vcov, y))


def _lie_1form(h, b, v, x, y):
    hinv = spd_inverse(h.tables(x, 1)[0], MetricDomainError, f"{h.name or 'metric'} matrix")
    bcov = _covariant_derivative_1form(h, b, x)
    vcov = _vector_covariant_lowered(h, v, x)
    bup = hinv @ b.table(x, 1)[0]
    return float(np.einsum("k,jk,j->", v.table(x, 1)[0], bcov, y)
                 + np.einsum("k,kj,j->", bup, vcov, y))


def _conformal_residual(h, v, c, x):
    vcov = _vector_covariant_lowered(h, v, x)
    return vcov + vcov.T - 4.0 * c * h.tables(x, 1)[0]


def _beta_tables(rd, x):
    a0, da, d2a = rd.alpha.tables(x, order=2)
    ainv, gamma, dainv, dgamma = _levi_civita(a0, da, d2a, "alpha")
    b0, db, d2b = rd.beta.table(x, order=2)
    b2 = float(b0 @ ainv @ b0)
    b_up = ainv @ b0
    bcov = db - np.einsum("kij,k->ij", gamma, b0)
    dbcov = (np.einsum("ijm->mij", d2b) - np.einsum("mkij,k->mij", dgamma, b0)
             - np.einsum("kij,km->mij", gamma, db))
    r = 0.5 * (bcov + bcov.T)
    s = 0.5 * (bcov - bcov.T)
    dr = 0.5 * (dbcov + np.einsum("mij->mji", dbcov))
    ds = 0.5 * (dbcov - np.einsum("mij->mji", dbcov))
    s_mixed = ainv @ s
    s_low = b_up @ s
    s_up = ainv @ s_low
    t = s @ s_mixed
    t_mixed = ainv @ t
    db_up = np.einsum("kij,j->ik", dainv, b0) + np.einsum("ij,jk->ik", ainv, db)
    ds_low = np.einsum("ik,ij->kj", db_up, s) + np.einsum("i,kij->kj", b_up, ds)
    s_cov = ds_low.T.copy()
    s_cov -= np.einsum("pjk,p->jk", gamma, s_low)
    r_cov = dr.transpose(1, 2, 0) - np.einsum("pik,pj->ijk", gamma, r) \
        - np.einsum("pjk,ip->ijk", gamma, r)
    ds_mixed = np.einsum("kip,pj->kij", dainv, s) + np.einsum("ip,kpj->kij", ainv, ds)
    return dict(
        x=x, a=a0, ainv=ainv, b_low=b0, b_up=b_up, b2=b2, bcov=bcov, r=r, s=s,
        s_mixed=s_mixed, s_low=s_low, s_up=s_up, t=t, t_low=b_up @ t,
        t_trace=float(np.trace(t_mixed)), q=r @ s_mixed,
        e=r + np.outer(b0, s_low) + np.outer(s_low, b0), s_cov=s_cov, r_cov=r_cov,
        div_mixed_s=(np.einsum("iij->j", ds_mixed) + np.einsum("iip,pj->j", gamma, s_mixed)
                     - np.einsum("pji,ip->j", gamma, s_mixed)),
        alpha_ricci=riemann.ricci_contraction(gamma, dgamma))


def _nav_tensors(nav, x):
    h0, dh = nav.h.tables(x, order=1)
    hinv, gamma = _levi_civita(h0, dh, None, "h")
    w0, dw = nav.W.table(x, order=1)
    wcov = _lowered(h0, dh, gamma, w0, dw)
    s_asym = 0.5 * (wcov - wcov.T)
    s_low = w0 @ s_asym
    return dict(x=x, h=h0, w_up=w0, w_low=h0 @ w0, lam=1.0 - float(w0 @ h0 @ w0), wcov=wcov,
                s_mixed=hinv @ s_asym, s_low=s_low, s_up=hinv @ s_low)


def _fit_sigma_isotropic_S(rd, x, y_samples):
    T = _beta_tables(rd, x)
    lhs, rhs = [], []
    for y in y_samples:
        beta = float(T["b_low"] @ y)
        lhs.append(float(y @ T["e"] @ y))
        rhs.append(2.0 * (float(y @ T["a"] @ y) - beta * beta))
    lhs, rhs = np.array(lhs), np.array(rhs)
    sigma = float(lhs @ rhs) / float(rhs @ rhs)
    return sigma, float(np.sqrt(np.mean((lhs - sigma * rhs) ** 2) / np.mean(rhs ** 2)))


# -- comparisons -----------------------------------------------------------------------


def _same(got, want, what):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape, what
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), f"{what}: sign of zero"


def _cases(name):
    """(fixture, flags, a nonzero polynomial field V) for one fixture."""
    fx = fixtures.get_fixture(name)
    flags = sample_flags(fx, 3, np.random.default_rng(17))
    v = generators.vector_field(generators.draw_vector_field(np.random.default_rng(3), fx.dim))
    return fx, flags, v


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_record_connection_equals_the_per_call_passes(name):
    fx, flags, v = _cases(name)
    for p in flags:
        for h in (fx.rd.alpha, fx.nav.h):
            rec1, rec2 = riemann.point_record(h, p.x, 1), riemann.point_record(h, p.x, 2)
            assert rec1.ricci is None and rec1.dgamma is None
            gamma, dgamma = _christoffel_derivative(h, p.x)
            for rec in (rec1, rec2):
                _same(rec.gamma, _christoffel(h, p.x), f"{h.name} gamma")
                _same(rec.gamma, gamma, f"{h.name} gamma at order 2")
            _same(rec2.dgamma, dgamma, f"{h.name} dgamma")
            _same(rec2.ricci, _ricci_tensor(h, p.x), f"{h.name} ricci")
            _same(riemann.riemann_ricci(rec2, p.y),
                  float(np.einsum("jk,j,k->", _ricci_tensor(h, p.x), p.y, p.y)),
                  f"{h.name} riemann_ricci")


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_record_covariant_calculus_equals_the_per_call_passes(name):
    fx, flags, v = _cases(name)
    fields = {"beta": fx.rd.beta, "W": fx.nav.W, "V": v}
    for p in flags:
        ftab = fx.f.table(p.x, order=2)
        v0, dv = v.table(p.x, order=1)
        for h in (fx.rd.alpha, fx.nav.h):
            for order in (1, 2):
                rec = riemann.point_record(h, p.x, order)
                what = f"{h.name} order {order}"
                _same(riemann.hessian_tensor(rec, ftab), _hessian_tensor(h, fx.f, p.x),
                      f"{what} hessian_tensor")
                _same(riemann.hessian(rec, ftab, p.y),
                      float(np.einsum("ij,i,j->", _hessian_tensor(h, fx.f, p.x), p.y, p.y)),
                      f"{what} hessian")
                vcov = riemann.lowered_covariant_derivative(rec, v0, dv)
                for fname, w in fields.items():
                    w0, dw = w.table(p.x, order=1)
                    bcov = riemann.covariant_1form(rec.gamma, w0, dw)
                    wcov = riemann.lowered_covariant_derivative(rec, w0, dw)
                    _same(bcov, _covariant_derivative_1form(h, w, p.x), f"{what} {fname};")
                    _same(wcov, _vector_covariant_lowered(h, w, p.x), f"{what} {fname}:")
                    _same(riemann.lie_h2(wcov, p.y), _lie_h2(h, w, p.x, p.y),
                          f"{what} lie_h2 {fname}")
                    _same(riemann.conformal_residual(rec, wcov, 0.3),
                          _conformal_residual(h, w, 0.3, p.x), f"{what} conformal {fname}")
                    _same(riemann.lie_1form(v0, vcov, w0, wcov, p.y),
                          _lie_W0(h, w, v, p.x, p.y), f"{what} lie_1form of {fname}_0")
                    _same(riemann.lie_1form(v0, vcov, rec.hinv @ w0, bcov, p.y),
                          _lie_1form(h, w, v, p.x, p.y), f"{what} lie_1form {fname}")


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_record_randers_tensors_equal_the_per_call_passes(name):
    fx, flags, _ = _cases(name)
    dirs = solitons._directions(fx.dim)
    for p in flags:
        T = randers.beta_tables(riemann.point_record(fx.rd.alpha, p.x, 2),
                                fx.rd.beta.table(p.x, order=2))
        want = _beta_tables(fx.rd, p.x)
        assert list(want) == [f.name for f in dataclasses.fields(T)]
        for key in want:
            _same(getattr(T, key), want[key], f"beta_tables {key}")
        _same(randers.fit_sigma_isotropic_S(T, dirs),
              _fit_sigma_isotropic_S(fx.rd, p.x, dirs), "fit_sigma_isotropic_S")
        want = _nav_tensors(fx.nav, p.x)
        for order in (1, 2):
            N = randers.nav_tensors(riemann.point_record(fx.nav.h, p.x, order),
                                    fx.nav.W.table(p.x, order=1))
            assert list(want) == [f.name for f in dataclasses.fields(N)]
            for key in want:
                _same(getattr(N, key), want[key], f"nav_tensors order {order} {key}")
    # the fit of the flags' stacked tables: one sigma and residual per lane
    X = np.array([p.x for p in flags])
    sigmas, residuals = solitons.fit_sigma(randers.beta_tables(
        riemann.point_record(fx.rd.alpha, X, 2), fx.rd.beta.table(X, order=2)))
    want = [_fit_sigma_isotropic_S(fx.rd, p.x, dirs) for p in flags]
    _same(sigmas, [s for s, _ in want], "fit_sigma sigmas")
    _same(residuals, [r for _, r in want], "fit_sigma residuals")


def test_conformal_formulas_read_the_record_where_the_float_metric_differs():
    # On navigation-derived alpha the jet value of a/b is a * (1/b), which can
    # differ in the last bit from the float a/b; the conformal residual reads
    # h from the record alone.
    fx = fixtures.get_fixture("gaussian")
    for p in sample_flags(fx, 32, np.random.default_rng(17)):
        rec = riemann.point_record(fx.rd.alpha, p.x, 2)
        if not np.array_equal(fx.rd.alpha.matrix_at(p.x), rec.h0):
            break
    else:
        pytest.fail("no sampled point where the float and jet values of alpha differ")
    v = generators.vector_field(generators.draw_vector_field(np.random.default_rng(3), fx.dim))
    v0, dv = v.table(p.x, 1)
    vcov = riemann.lowered_covariant_derivative(rec, v0, dv)
    _same(riemann.conformal_residual(rec, vcov, 0.3), vcov + vcov.T - 4.0 * 0.3 * rec.h0,
          "conformal_residual")
