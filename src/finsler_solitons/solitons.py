"""Residual checkers for every almost-Ricci-soliton characterization.

Four equivalent descriptions are implemented and cross-checked:

  * the defining equation  2 Ric + L_V(F^2) = 2 kappa F^2  for an explicit
    vector field V (`almost_soliton_residual`);
  * the measure form  Ric_inf = kappa F^2, read off `finsler.evaluate_flags`
    (the fixture suite's `infinity-ricci` row, `suites._flag_rows`);
  * (alpha, beta) characterizations: V-form (`vector_soliton_checks_ab`) and
    gradient form (`gradient_soliton_checks_ab`);
  * navigation characterizations: V-form (`vector_soliton_checks_nav`) and
    gradient form (`gradient_soliton_checks_nav`).

A fixture run (navigation data, a weight f and the isotropic S-curvature
sigma at its sample flags) is one jet evaluation of h, W and f laned over
the flags' x (`sample_points`): the flags' `finsler.Bases`, whose stage is
the run's stage laned over them, for the flag rows and the kappa fit, and at
the bundle flags one `BundleStack`, a stacked pass of the records, beta and
W tensors and the beta tensors' contractions with the flags' y, with
sigma's order-1 table, for the sigma fit and the four bundles.  A bundle is
its row formulas, each row one array over the stack's lanes (each lane
bit-equal to its flag alone), and `_bundle_reports` makes one report per
row.  The vector bundles table V once, laned over the stack's x, and feed
its covariant derivative to the table formulas of `riemann` (Lie
derivatives, conformal residual).

All 2-homogeneous residuals are normalized by F^2 (or h^2), 1-homogeneous
ones by F (or h) and matrix residuals by max(1, max |a_ij|) (or h_ij), so
tolerances are scale-free.  The bundles check the scalars kappa, c and mu
that the caller declares (fields or constants) and the stack's sigma;
kappa and sigma are also fitted by least squares (`fit_kappa`, `fit_sigma`)
for the fixture suite's fit rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import finsler, jets, randers, riemann
from .finsler import FinslerMetric, Measure
from .jets import FlagPoint, Jet
from .randers import NavigationData, RandersData
from .reports import ResidualReport, report_from_values
from .riemann import VectorField, as_scalar_field, field_values


def _directions(dim):
    """Deterministic direction set rich enough for quadratic-form fitting."""
    dirs = [np.eye(dim)[i] for i in range(dim)]
    r = 1.0 / math.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros(dim)
            e[i] = e[j] = r
            dirs.append(e.copy())
            e[j] = -r
            dirs.append(e.copy())
    return dirs


# -- pointwise residuals ---------------------------------------------------------


def almost_soliton_residual(metric: FinslerMetric, v: VectorField, kappa,
                            points) -> np.ndarray:
    """(2 Ric + L_V(F^2) - 2 kappa F^2) / F^2 at a stack of flags, one
    residual per flag: one `finsler.curvature_bundle`, one table of V and
    one stacked `finsler.lie_F2` on it, kappa read at each flag's x
    (`riemann.field_values`), each residual bit-equal to its flag alone."""
    b = finsler.curvature_bundle(metric, points)
    lie = finsler.lie_F2(metric, v.table(b.x, order=1), b.x, b.y)
    return (2.0 * b.ricci + lie - 2.0 * field_values(kappa, b.x) * b.F2) / b.F2


# -- least-squares scalar fits ------------------------------------------------------


def fit_kappa(metric: FinslerMetric, measure: Measure, bases: finsler.Bases):
    """Pointwise least-squares kappa(x) from Ric_inf = kappa F^2 at each
    point of the `finsler.Bases` `bases` of (metric, measure).

    Returns (kappa array over the points, anisotropy), where anisotropy is
    the largest spread of Ric_inf/F^2 over `_directions(n)` at a single x; it
    must vanish for a true gradient soliton because kappa depends on x only.
    Every direction at a point reads the point's stage and density table, so
    the fit builds no density table (it repeats each point's lanes across
    the directions, `Bases.lanes`), and its stage is the bases' data at
    those lanes.
    The flags of every point, point-major, are one `finsler.evaluate_flags`
    call (one laned F^2 expansion and one spray and Riemann pass per fit),
    and their F^2 normalisers one stacked float `value`.
    """
    dirs = _directions(metric.dim)
    count = len(bases.x)
    fit = bases.lanes(np.repeat(np.arange(count), len(dirs)))
    Y = np.tile(dirs, (count, 1))
    ev = finsler.evaluate_flags(metric, measure, [FlagPoint(x, y) for x, y in zip(fit.x, Y)],
                                fit)
    vals = ev.ric_inf / jets.power(metric.value(fit.x, Y), 2)
    kappas = []
    anisotropy = 0.0
    for row in vals.reshape(count, len(dirs)):
        kappas.append(float(np.mean(row)))
        anisotropy = max(anisotropy, float(np.max(row) - np.min(row)))
    return np.array(kappas), anisotropy


def fit_sigma(T: randers.BetaTables):
    """Pointwise isotropic-S sigma at each lane of a stack of beta tables;
    returns (sigmas, fit residuals), one per lane."""
    return randers.fit_sigma_isotropic_S(T, _directions(T.x.shape[-1]))


# -- characterization bundles ---------------------------------------------------------


@dataclass
class BundleStack:
    """What the bundles and the sigma fit read at a run's bundle flags, every
    field a stack with one lane per flag (leading axis): the flags' x and y,
    the order-2 records of alpha and h, the beta tensors and their
    contractions with y, the W tensors, f's order-2 table (value, grad,
    hess) and sigma's order-1 table (value, grad)."""

    x: np.ndarray
    y: np.ndarray
    alpha: riemann.PointRecord
    h: riemann.PointRecord
    beta: randers.BetaTables
    bd: randers.BetaDerivatives
    nav: randers.NavTensors
    f: tuple
    sigma: tuple


def sample_points(rd: RandersData, nav: NavigationData, f, sigma, flags,
                  bundle) -> tuple[finsler.Bases, BundleStack | None]:
    """(the `finsler.Bases` of the flags, the `BundleStack` of the first
    `bundle` flags or None) of nav, rd = from_navigation(nav), the weight f
    and the S-curvature field sigma.  The flags' x are the lanes of one set
    of order-2 x jets: one guarded evaluation of h rows, W, lambda, h W and
    f, one density and log and one gather serve every flag, and that
    evaluation is the run's stage (`finsler.LaneStage`), laned over the
    flags (one flag is one lane); any lanes of it expand as one stage.

    The density of dm_BH is sqrt(det h) (Xing 2005), so only the bundle
    lanes build the (alpha, beta) rows from that evaluation, and their
    records, beta and W tensors and `beta_derivatives` are one stacked pass
    (sigma's order-1 table one jet pass over their x)."""
    X = np.array([p.x for p in flags], float)
    xs = Jet.variables(riemann.coordinates(X), 2)
    space = xs[0].space
    point = randers._navigation_point(nav, xs)
    fval = as_scalar_field(f)(xs)
    density = finsler.weighted_density(fval, riemann.sqrt_det(point[0]))
    logs = riemann.scalar_gather(jets.log(density), space, 2, X.shape[:1])
    bases = finsler.Bases(X, finsler.LaneStage(randers._navigation_stage, point, None), logs)
    if not bundle:
        return bases, None
    xb = X[:bundle]
    lanes, bpoint = xb.shape[:1], jets.lane(point, slice(0, bundle))
    A = riemann.record_from_tables(
        rd.alpha, xb, riemann.matrix_gather(randers._alpha_rows(bpoint), space, 2, lanes))
    H = riemann.record_from_tables(nav.h, xb, riemann.matrix_gather(bpoint[0], space, 2, lanes))
    T = randers.beta_tables(A, riemann.vector_gather(randers._beta_low(bpoint), space, 2, lanes))
    N = randers.nav_tensors(H, riemann.vector_gather(bpoint[1], space, 1, lanes))
    ftab = riemann.scalar_gather(jets.lane(fval, slice(0, bundle)), space, 2, lanes)
    y = np.array([p.y for p in flags[:bundle]], float)
    return bases, BundleStack(xb, y, A, H, T, randers.beta_derivatives(T, y), N, ftab,
                              as_scalar_field(sigma).table(xb, order=1))


def _matrix_residual(res, scale):
    """max |res_ij| relative to max(1, max |scale_ij|), one per lane."""
    return np.abs(res).max(axis=(-2, -1)) / np.maximum(1.0, np.abs(scale).max(axis=(-2, -1)))


def _isotropic_s_row(bd: randers.BetaDerivatives, sval):
    """The `isotropic-s` row: (e_00 - 2 sigma (alpha^2 - beta^2)) / alpha^2."""
    a2 = jets.power(bd.alpha, 2)
    return (bd.e00 - 2.0 * sval * (a2 - jets.power(bd.beta, 2))) / a2


def _conformal_w_row(S: BundleStack, sval):
    """The `conformal-w` row: W_{i:j} + W_{j:i} + 4 sigma h_ij relative to h."""
    return _matrix_residual(riemann.conformal_residual(S.h, S.nav.wcov, -sval), S.nav.h)


def _bundle_reports(names, rows, tol) -> list[ResidualReport]:
    """One report per row name, in order, over its row: one value per lane."""
    return [report_from_values(name, row, tol) for name, row in zip(names, rows, strict=True)]


def vector_soliton_checks_ab(v: VectorField, kappa, S: BundleStack, tol: float, *,
                             c) -> list[ResidualReport]:
    """(alpha, beta) residuals for the vector-field soliton characterization:

      (i)   V_{i;j} + V_{j;i} = 4 c a_ij
      (ii)  e_00 = 2 sigma (alpha^2 - beta^2)
      (iii) aRic = (kappa - 2c)(alpha^2 + beta^2) + t^i_i alpha^2 + 2 t_00
              - (n-1) sigma^2 (3 alpha^2 - beta^2) + 2(n-1) sigma_0 beta
              - (n-1)(s_0^2 + s_{0;0})
      (iv)  3(n-1) sigma_0 = 2 c beta - L_V(beta)

    at each lane of the `BundleStack` S (bundle data of alpha, beta and
    sigma), with V tabled once over the lanes' x.
    """
    T, bd, A, y = S.beta, S.bd, S.alpha, S.y
    n = y.shape[-1]
    v0, dv = v.table(S.x, order=1)
    vcov = riemann.lowered_covariant_derivative(A, v0, dv)
    cval = field_values(c, S.x)
    sval, sigma0, _, _ = randers.sigma_terms(S.sigma, y, T.b_up)
    kap = field_values(kappa, S.x)
    a2 = jets.power(bd.alpha, 2)
    beta = bd.beta
    aric = riemann.bilinear(y, T.alpha_ricci, y)
    rhs = ((kap - 2.0 * cval) * (a2 + jets.power(beta, 2)) + T.t_trace * a2 + 2.0 * bd.t00
           - (n - 1) * jets.power(sval, 2) * (3.0 * a2 - jets.power(beta, 2))
           + 2.0 * (n - 1) * sigma0 * beta
           - (n - 1) * (jets.power(bd.s0, 2) + bd.s00))
    lie_beta = riemann.lie_1form(v0, vcov, T.b_up, T.bcov, y)
    return _bundle_reports(("conformal-v", "isotropic-s", "alpha-ricci-balance",
                            "sigma-lie-balance"),
                           (_matrix_residual(riemann.conformal_residual(A, vcov, cval), T.a),
                            _isotropic_s_row(bd, sval),
                            (aric - rhs) / a2,
                            (3.0 * (n - 1) * sigma0 - (2.0 * cval * beta - lie_beta)) / bd.alpha),
                           tol)


def vector_soliton_checks_nav(v: VectorField, kappa, S: BundleStack, tol: float, *,
                              mu) -> list[ResidualReport]:
    """Navigation residuals for the vector-field soliton characterization:

      (i)   hRic = mu h^2                       (h Einstein)
      (ii)  W_{i:j} + W_{j:i} = -4 sigma h_ij    (conformal with factor -sigma)
      (iii) L_V(h^2) = 2 c h^2 - 6(n-1){ (sigma_i W^i) h^2 + sigma_0 W_0 }
      (iv)  L_V(W_0) = c W_0 - 3(n-1){ 2 (sigma_i W^i) W_0 - lam sigma_0 }

    with c = kappa - mu + (n-1) sigma^2 + 2(n-1) sigma_i W^i, at each lane
    of the `BundleStack` S (bundle data of h, W and sigma), with V tabled
    once over the lanes' x.
    """
    T, y = S.nav, S.y
    n = y.shape[-1]
    h2 = riemann.bilinear(y, T.h, y)
    w0 = riemann.dot(T.w_low, y)
    v0, dv = v.table(S.x, order=1)
    vcov = riemann.lowered_covariant_derivative(S.h, v0, dv)
    mval = field_values(mu, S.x)
    sval, sigma0, sigw, _ = randers.sigma_terms(S.sigma, y, T.w_up)
    kap = field_values(kappa, S.x)
    cval = kap - mval + (n - 1) * jets.power(sval, 2) + 2.0 * (n - 1) * sigw
    rhs3 = 2.0 * cval * h2 - 6.0 * (n - 1) * (sigw * h2 + sigma0 * w0)
    lie_w0 = riemann.lie_1form(v0, vcov, T.w_up, T.wcov, y)
    rhs4 = cval * w0 - 3.0 * (n - 1) * (2.0 * sigw * w0 - T.lam * sigma0)
    return _bundle_reports(("einstein-h", "conformal-w", "lie-h2-balance", "lie-w0-balance"),
                           ((riemann.bilinear(y, S.h.ricci, y) - mval * h2) / h2,
                            _conformal_w_row(S, sval),
                            (riemann.lie_h2(vcov, y) - rhs3) / h2,
                            (lie_w0 - rhs4) / np.sqrt(h2)),
                           tol)


def gradient_soliton_checks_ab(kappa, S: BundleStack, tol: float) -> list[ResidualReport]:
    """(alpha, beta) residuals for the gradient soliton characterization:

      (i)   e_00 = 2 sigma (alpha^2 - beta^2)
      (ii)  aRic = kappa (alpha^2 + beta^2) + 2 t_00 + t^i_i alpha^2
              - 2 n sigma_0 beta - (n-1)(s_0^2 + s_{0;0} + 3 sigma^2 alpha^2
              - sigma^2 beta^2) - 2 (s_0 + sigma beta) f_0 - Hess_a(f)
      (iii) (2n-1)(1-b^2) sigma_0 = sigma (1+b^2) f_0 + f_i (s^i_0 - s^i beta)
              + f_{;0j} b^j + (s_0 + 2 sigma beta)(f_i b^i)
      (iv)  the right side of (iii) alone; sigma is constant when it vanishes

    at each lane of the `BundleStack` S (bundle data of alpha, beta and
    sigma), whose f table gives the weight f.
    """
    T, bd, y = S.beta, S.bd, S.y
    n = y.shape[-1]
    sval, sigma0, _, _ = randers.sigma_terms(S.sigma, y, T.b_up)
    kap = field_values(kappa, S.x)
    df = S.f[1]
    f0 = riemann.dot(df, y)
    fb = riemann.dot(df, T.b_up)
    hess_a = riemann.hessian_tensor(S.alpha, S.f)
    a2 = jets.power(bd.alpha, 2)
    beta = bd.beta
    b2 = T.b2
    aric = riemann.bilinear(y, T.alpha_ricci, y)
    s2 = jets.power(sval, 2)
    rhs = (kap * (a2 + jets.power(beta, 2)) + 2.0 * bd.t00 + T.t_trace * a2
           - 2.0 * n * sigma0 * beta
           - (n - 1) * (jets.power(bd.s0, 2) + bd.s00 + 3.0 * s2 * a2 - s2 * jets.power(beta, 2))
           - 2.0 * (bd.s0 + sval * beta) * f0
           - riemann.bilinear(y, hess_a, y))
    s_mixed_y = riemann.mat_vec(T.s_mixed, y)
    grad_terms = (sval * (1.0 + b2) * f0
                  + riemann.dot(df, s_mixed_y - T.s_up * beta[:, None])
                  + riemann.bilinear(y, hess_a, T.b_up)
                  + (bd.s0 + 2.0 * sval * beta) * fb)
    return _bundle_reports(("isotropic-s", "alpha-ricci-balance", "sigma-gradient-balance",
                            "sigma-constancy"),
                           (_isotropic_s_row(bd, sval),
                            (aric - rhs) / a2,
                            ((2.0 * n - 1.0) * (1.0 - b2) * sigma0 - grad_terms) / bd.alpha,
                            grad_terms / bd.alpha),
                           tol)


def gradient_soliton_checks_nav(kappa, S: BundleStack, tol: float, *,
                                mu) -> list[ResidualReport]:
    """Navigation residuals for the gradient soliton characterization:

      (i)   hRic + Hess_h(f) = mu h^2          ((h, f) Riemannian gradient soliton)
      (ii)  W_{i:j} + W_{j:i} = -4 sigma h_ij
      (iii) (2n-1) sigma_0 = sigma f_0 - f_k S^k_0 - f_{:0j} W^j
      (iv)  (sigma_i - sigma f_i) W^i = kappa - mu + (n-1) sigma^2
      (v)   sigma f_0 - f_k S^k_0 - f_{:0j} W^j alone; sigma is constant when 0

    at each lane of the `BundleStack` S (bundle data of h, W and sigma),
    whose f table gives the weight f.
    """
    T, y = S.nav, S.y
    n = y.shape[-1]
    h2 = riemann.bilinear(y, T.h, y)
    hnorm = np.sqrt(h2)
    mval = field_values(mu, S.x)
    sval, sigma0, sigw, dsig = randers.sigma_terms(S.sigma, y, T.w_up)
    kap = field_values(kappa, S.x)
    df = S.f[1]
    hess_h = riemann.hessian_tensor(S.h, S.f)
    f0 = riemann.dot(df, y)
    fS0 = riemann.bilinear(df, T.s_mixed, y)
    fW_hess = riemann.bilinear(y, hess_h, T.w_up)
    compat = sval * f0 - fS0 - fW_hess
    return _bundle_reports(("riemannian-soliton", "conformal-w", "sigma-gradient-balance",
                            "scalar-compatibility", "sigma-constancy"),
                           ((riemann.bilinear(y, S.h.ricci + hess_h, y) - mval * h2) / h2,
                            _conformal_w_row(S, sval),
                            ((2.0 * n - 1.0) * sigma0 - compat) / hnorm,
                            riemann.dot(dsig - sval[:, None] * df, T.w_up)
                            - (kap - mval + (n - 1) * jets.power(sval, 2)),
                            compat / hnorm),
                           tol)


# -- navigation closed form for the S-curvature rate -----------------------------------


def s_dot_closed_form_nav(H: riemann.PointRecord, T: randers.NavTensors, F,
                          sigma_terms, ftab, y):
    """S-dot of (F, e^{-f} dm_BH) under isotropic S-curvature sigma:

        S-dot = (n+1) sigma_0 F - 2 sigma f_0 F + 2 (f_k S^k_0) F
                + (f_k S^k) F^2 + Hess_h(f)(y)

    at the flag (x, y) with float F(x, y), from a record H of h and the W
    tensors T at x, the `sigma_terms` of sigma there against W and f's
    order-2 table; at a stack of flags (leading lane axes, F one per flag)
    one value per lane, each bit-equal to its one-flag call.
    """
    n = T.x.shape[-1]
    sval, sigma0, _, _ = sigma_terms
    df = ftab[1]
    f0 = riemann.dot(df, y)
    fS0 = riemann.bilinear(df, T.s_mixed, y)
    fS = riemann.dot(df, T.s_up)
    hess = riemann.hessian(H, ftab, y)
    return ((n + 1) * sigma0 * F - 2.0 * sval * f0 * F + 2.0 * fS0 * F
            + fS * F * F + hess)
