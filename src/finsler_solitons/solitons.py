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

Each sample flag of a fixture (navigation data, a weight f and the
isotropic S-curvature sigma) is one `SamplePoint`.  A run's sample points
come from one jet evaluation of h, W and f laned over the flags' x
(`sample_points`), and the tables at its bundle flags from one stacked pass
of the records, beta and W tensors and the beta tensors' contractions with
the flags' y, with sigma's order-1 table; the flag rows, the kappa and sigma
fits and the four bundles read them.  A bundle is its row formulas: at each point it appends one tuple of
row values, and `_bundle_reports` makes one report per row.  The vector
bundles table V once per flag and feed its covariant derivative to the
table formulas of `riemann` (Lie derivatives, conformal residual).

All 2-homogeneous residuals are normalized by F^2 (or h^2), 1-homogeneous
ones by F (or h) and matrix residuals by max(1, max |a_ij|) (or h_ij), so
tolerances are scale-free.  The bundles check the scalars kappa, c and mu
that the caller declares (fields or constants) and the sample points' sigma;
kappa and sigma are also fitted by least squares (`fit_kappa`, `fit_sigma`)
for the fixture suite's fit rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import finsler, jets, randers, riemann
from .finsler import FinslerMetric, Measure
from .jets import FlagPoint, Jet
from .randers import NavigationData, RandersData
from .reports import ResidualReport, report_from_values
from .riemann import VectorField, as_scalar_field, field_value


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
                            p: FlagPoint) -> float:
    """(2 Ric + L_V(F^2) - 2 kappa F^2) / F^2 at one flag."""
    b = finsler.curvature_bundle(metric, [p])[0]
    lie = finsler.lie_F2(metric, v, p)
    return (2.0 * b.ricci + lie - 2.0 * field_value(kappa, p.x) * b.F2) / b.F2


# -- least-squares scalar fits ------------------------------------------------------


def fit_kappa(metric: FinslerMetric, measure: Measure, bases):
    """Pointwise least-squares kappa(x) from Ric_inf = kappa F^2 at each of
    the `finsler.BasePoint`s `bases` of (metric, measure).

    Returns (kappa array over the points, anisotropy), where anisotropy is
    the largest spread of Ric_inf/F^2 over `_directions(n)` at a single x; it
    must vanish for a true gradient soliton because kappa depends on x only.
    Every direction at a point reads the point's stage and density table, so
    the fit builds neither.  The flags of every point, base-major, are one
    `finsler.evaluate_flags` call (one spray and Riemann pass per fit), and
    their F^2 normalisers one stacked float `value`.
    """
    dirs = _directions(metric.dim)
    points = [FlagPoint(base.x, d) for base in bases for d in dirs]
    evs = finsler.evaluate_flags(metric, measure, points,
                                 [base for base in bases for _ in dirs])
    F = metric.value(np.array([p.x for p in points]), np.array([p.y for p in points]))
    vals = np.array([ev.ric_inf / f ** 2 for ev, f in zip(evs, F.tolist())])
    kappas = []
    anisotropy = 0.0
    for row in vals.reshape(len(bases), len(dirs)):
        kappas.append(float(np.mean(row)))
        anisotropy = max(anisotropy, float(np.max(row) - np.min(row)))
    return np.array(kappas), anisotropy


def fit_sigma(tables):
    """Pointwise isotropic-S sigma at the points of a list of beta tables;
    returns (sigmas, worst fit)."""
    sigmas, worst = [], 0.0
    for T in tables:
        s, r = randers.fit_sigma_isotropic_S(T, _directions(T.x.size))
        sigmas.append(s)
        worst = max(worst, r)
    return np.array(sigmas), worst


# -- characterization bundles ---------------------------------------------------------


@dataclass
class SamplePoint:
    """A sample flag p and what every check reads there: `base`, the stage of
    F and the log-density table of e^{-f} dm_BH at x; at a bundle flag (else
    None) also the order-2 records of alpha and h, the beta tensors and their
    y-contractions, the W tensors, f's order-2 table (value, grad, hess) and
    sigma's order-1 table (value, grad).  Each table is the flag's row of
    its run's stack (`sample_points`)."""

    p: FlagPoint
    base: finsler.BasePoint
    alpha: riemann.PointRecord | None
    beta: randers.BetaTables | None
    bd: randers.BetaDerivatives | None
    h: riemann.PointRecord | None
    nav: randers.NavTensors | None
    f: tuple | None
    sigma: tuple | None


def _rows(stack):
    """The rows of a stack, one per lane: of an array (a float where a row
    is one number), of each entry of a tuple, or of each field of a record,
    a dataclass whose fields are its attributes in order (None stays None)."""
    if isinstance(stack, np.ndarray):
        return stack.tolist() if stack.ndim == 1 else list(stack)
    if isinstance(stack, tuple):
        return list(zip(*map(_rows, stack)))
    if stack is None:
        return itertools.repeat(None)
    return [type(stack)(*row) for row in zip(*map(_rows, vars(stack).values()))]


def sample_points(rd: RandersData, nav: NavigationData, f, sigma, flags,
                  bundle) -> list[SamplePoint]:
    """The sample points at `flags` of nav, rd = from_navigation(nav), the
    weight f and the S-curvature field sigma, the first `bundle` with bundle
    data.  The flags' x are the lanes of one set of order-2 x jets: one
    guarded evaluation of h rows, W, lambda, h W and f, one density and log
    and one gather serve every flag, and each flag's stage is built from its
    lane of that evaluation.

    The density of dm_BH is sqrt(det h) (Xing 2005), so only the bundle
    lanes build the (alpha, beta) rows from that evaluation, and their
    records, beta and W tensors and `beta_derivatives` are one stacked pass
    (sigma's order-1 table one jet pass over their x)."""
    X = np.array([p.x for p in flags], float)
    xs = Jet.variables(list(X.T), 2)
    space = xs[0].space
    point = randers._navigation_point(nav, xs)
    fval = as_scalar_field(f)(xs)
    density = finsler.weighted_density(fval, riemann.sqrt_det(point[0]))
    logs = riemann.scalar_gather(jets.log(density), space, 2, X.shape[:1])
    stages = [randers._navigation_stage(randers._point_lane(point, k)) for k in range(len(flags))]
    points = [SamplePoint(p, finsler.BasePoint(p.x, stage, row), *(None,) * 7)
              for p, stage, row in zip(flags, stages, _rows(logs))]
    if not bundle:
        return points
    xb = X[:bundle]
    lanes, bpoint = xb.shape[:1], randers._point_lane(point, slice(0, bundle))
    A = riemann.record_from_tables(
        rd.alpha, xb, riemann.matrix_gather(randers._alpha_rows(bpoint), space, 2, lanes))
    H = riemann.record_from_tables(nav.h, xb, riemann.matrix_gather(bpoint[0], space, 2, lanes))
    T = randers.beta_tables(A, riemann.vector_gather(randers._beta_low(bpoint), space, 2, lanes))
    N = randers.nav_tensors(H, riemann.vector_gather(bpoint[1], space, 1, lanes))
    ftab = riemann.scalar_gather(jets.lane(fval, slice(0, bundle)), space, 2, lanes)
    bd = randers.beta_derivatives(T, np.array([p.y for p in flags[:bundle]], float))
    rows = zip(*map(_rows, (A, T, bd, H, N, ftab, as_scalar_field(sigma).table(xb, order=1))))
    return [SamplePoint(sp.p, sp.base, *row) for sp, row in zip(points, rows)] + points[bundle:]


def _matrix_residual(res, scale) -> float:
    """max |res_ij| relative to max(1, max |scale_ij|)."""
    return float(np.max(np.abs(res))) / max(1.0, float(np.max(np.abs(scale))))


def _isotropic_s_row(bd: randers.BetaDerivatives, sval: float) -> float:
    """The `isotropic-s` row: (e_00 - 2 sigma (alpha^2 - beta^2)) / alpha^2."""
    a2 = bd.alpha ** 2
    return (bd.e00 - 2.0 * sval * (a2 - bd.beta ** 2)) / a2


def _conformal_w_row(bp: SamplePoint, sval: float) -> float:
    """The `conformal-w` row: W_{i:j} + W_{j:i} + 4 sigma h_ij relative to h."""
    return _matrix_residual(riemann.conformal_residual(bp.h, bp.nav.wcov, -sval), bp.nav.h)


def _bundle_reports(names, rows, tol) -> list[ResidualReport]:
    """One report per row name, in order, over the matching entry of every
    point's tuple of row values."""
    return [report_from_values(name, [row[k] for row in rows], tol)
            for k, name in enumerate(names)]


def vector_soliton_checks_ab(v: VectorField, kappa, points, tol: float, *,
                             c) -> list[ResidualReport]:
    """(alpha, beta) residuals for the vector-field soliton characterization:

      (i)   V_{i;j} + V_{j;i} = 4 c a_ij
      (ii)  e_00 = 2 sigma (alpha^2 - beta^2)
      (iii) aRic = (kappa - 2c)(alpha^2 + beta^2) + t^i_i alpha^2 + 2 t_00
              - (n-1) sigma^2 (3 alpha^2 - beta^2) + 2(n-1) sigma_0 beta
              - (n-1)(s_0^2 + s_{0;0})
      (iv)  3(n-1) sigma_0 = 2 c beta - L_V(beta)

    at each `SamplePoint` (bundle data of alpha, beta and sigma), with V
    tabled once per point.
    """
    rows = []
    for bp in points:
        p, T, bd, A = bp.p, bp.beta, bp.bd, bp.alpha
        n = p.dim
        v0, dv = v.table(p.x, order=1)
        vcov = riemann.lowered_covariant_derivative(A, v0, dv)
        cval = field_value(c, p.x)
        sval, sigma0, _, _ = randers.sigma_terms(bp.sigma, p.y, T.b_up)
        kap = field_value(kappa, p.x)
        a2 = bd.alpha ** 2
        beta = bd.beta
        aric = float(p.y @ T.alpha_ricci @ p.y)
        rhs = ((kap - 2.0 * cval) * (a2 + beta ** 2) + T.t_trace * a2 + 2.0 * bd.t00
               - (n - 1) * sval ** 2 * (3.0 * a2 - beta ** 2)
               + 2.0 * (n - 1) * sigma0 * beta
               - (n - 1) * (bd.s0 ** 2 + bd.s00))
        lie_beta = riemann.lie_1form(v0, vcov, T.b_up, T.bcov, p.y)
        rows.append((_matrix_residual(riemann.conformal_residual(A, vcov, cval), T.a),
                     _isotropic_s_row(bd, sval),
                     (aric - rhs) / a2,
                     (3.0 * (n - 1) * sigma0 - (2.0 * cval * beta - lie_beta)) / bd.alpha))
    return _bundle_reports(("conformal-v", "isotropic-s", "alpha-ricci-balance",
                            "sigma-lie-balance"), rows, tol)


def vector_soliton_checks_nav(v: VectorField, kappa, points, tol: float, *,
                              mu) -> list[ResidualReport]:
    """Navigation residuals for the vector-field soliton characterization:

      (i)   hRic = mu h^2                       (h Einstein)
      (ii)  W_{i:j} + W_{j:i} = -4 sigma h_ij    (conformal with factor -sigma)
      (iii) L_V(h^2) = 2 c h^2 - 6(n-1){ (sigma_i W^i) h^2 + sigma_0 W_0 }
      (iv)  L_V(W_0) = c W_0 - 3(n-1){ 2 (sigma_i W^i) W_0 - lam sigma_0 }

    with c = kappa - mu + (n-1) sigma^2 + 2(n-1) sigma_i W^i, at each
    `SamplePoint` (bundle data of h, W and sigma), with V tabled once per
    point.
    """
    rows = []
    for bp in points:
        p, T = bp.p, bp.nav
        n = p.dim
        h2 = float(p.y @ T.h @ p.y)
        w0 = float(T.w_low @ p.y)
        v0, dv = v.table(p.x, order=1)
        vcov = riemann.lowered_covariant_derivative(bp.h, v0, dv)
        mval = field_value(mu, p.x)
        sval, sigma0, sigw, _ = randers.sigma_terms(bp.sigma, p.y, T.w_up)
        kap = field_value(kappa, p.x)
        cval = kap - mval + (n - 1) * sval ** 2 + 2.0 * (n - 1) * sigw
        rhs3 = 2.0 * cval * h2 - 6.0 * (n - 1) * (sigw * h2 + sigma0 * w0)
        lie_w0 = riemann.lie_1form(v0, vcov, T.w_up, T.wcov, p.y)
        rhs4 = cval * w0 - 3.0 * (n - 1) * (2.0 * sigw * w0 - T.lam * sigma0)
        rows.append(((float(p.y @ bp.h.ricci @ p.y) - mval * h2) / h2,
                     _conformal_w_row(bp, sval),
                     (riemann.lie_h2(vcov, p.y) - rhs3) / h2,
                     (lie_w0 - rhs4) / math.sqrt(h2)))
    return _bundle_reports(("einstein-h", "conformal-w", "lie-h2-balance",
                            "lie-w0-balance"), rows, tol)


def gradient_soliton_checks_ab(kappa, points, tol: float) -> list[ResidualReport]:
    """(alpha, beta) residuals for the gradient soliton characterization:

      (i)   e_00 = 2 sigma (alpha^2 - beta^2)
      (ii)  aRic = kappa (alpha^2 + beta^2) + 2 t_00 + t^i_i alpha^2
              - 2 n sigma_0 beta - (n-1)(s_0^2 + s_{0;0} + 3 sigma^2 alpha^2
              - sigma^2 beta^2) - 2 (s_0 + sigma beta) f_0 - Hess_a(f)
      (iii) (2n-1)(1-b^2) sigma_0 = sigma (1+b^2) f_0 + f_i (s^i_0 - s^i beta)
              + f_{;0j} b^j + (s_0 + 2 sigma beta)(f_i b^i)
      (iv)  the right side of (iii) alone; sigma is constant when it vanishes

    at each `SamplePoint` (bundle data of alpha, beta and sigma), whose f
    table gives the weight f.
    """
    rows = []
    for bp in points:
        p, T, bd = bp.p, bp.beta, bp.bd
        n = p.dim
        sval, sigma0, _, _ = randers.sigma_terms(bp.sigma, p.y, T.b_up)
        kap = field_value(kappa, p.x)
        df = bp.f[1]
        f0 = float(df @ p.y)
        fb = float(df @ T.b_up)
        hess_a = riemann.hessian_tensor(bp.alpha, bp.f)
        a2 = bd.alpha ** 2
        beta = bd.beta
        b2 = T.b2
        aric = float(p.y @ T.alpha_ricci @ p.y)
        rhs = (kap * (a2 + beta ** 2) + 2.0 * bd.t00 + T.t_trace * a2
               - 2.0 * n * sigma0 * beta
               - (n - 1) * (bd.s0 ** 2 + bd.s00 + 3.0 * sval ** 2 * a2
                            - sval ** 2 * beta ** 2)
               - 2.0 * (bd.s0 + sval * beta) * f0
               - float(p.y @ hess_a @ p.y))
        s_mixed_y = T.s_mixed @ p.y
        grad_terms = (sval * (1.0 + b2) * f0
                      + float(df @ (s_mixed_y - T.s_up * beta))
                      + float(p.y @ hess_a @ T.b_up)
                      + (bd.s0 + 2.0 * sval * beta) * fb)
        rows.append((_isotropic_s_row(bd, sval),
                     (aric - rhs) / a2,
                     ((2.0 * n - 1.0) * (1.0 - b2) * sigma0 - grad_terms) / bd.alpha,
                     grad_terms / bd.alpha))
    return _bundle_reports(("isotropic-s", "alpha-ricci-balance", "sigma-gradient-balance",
                            "sigma-constancy"), rows, tol)


def gradient_soliton_checks_nav(kappa, points, tol: float, *, mu) -> list[ResidualReport]:
    """Navigation residuals for the gradient soliton characterization:

      (i)   hRic + Hess_h(f) = mu h^2          ((h, f) Riemannian gradient soliton)
      (ii)  W_{i:j} + W_{j:i} = -4 sigma h_ij
      (iii) (2n-1) sigma_0 = sigma f_0 - f_k S^k_0 - f_{:0j} W^j
      (iv)  (sigma_i - sigma f_i) W^i = kappa - mu + (n-1) sigma^2
      (v)   sigma f_0 - f_k S^k_0 - f_{:0j} W^j alone; sigma is constant when 0

    at each `SamplePoint` (bundle data of h, W and sigma), whose f table
    gives the weight f.
    """
    rows = []
    for bp in points:
        p, T = bp.p, bp.nav
        n = p.dim
        h2 = float(p.y @ T.h @ p.y)
        hnorm = math.sqrt(h2)
        mval = field_value(mu, p.x)
        sval, sigma0, sigw, dsig = randers.sigma_terms(bp.sigma, p.y, T.w_up)
        kap = field_value(kappa, p.x)
        df = bp.f[1]
        hess_h = riemann.hessian_tensor(bp.h, bp.f)
        f0 = float(df @ p.y)
        fS0 = float(df @ T.s_mixed @ p.y)
        fW_hess = float(p.y @ hess_h @ T.w_up)
        compat = sval * f0 - fS0 - fW_hess
        rows.append(((float(p.y @ (bp.h.ricci + hess_h) @ p.y) - mval * h2) / h2,
                     _conformal_w_row(bp, sval),
                     ((2.0 * n - 1.0) * sigma0 - compat) / hnorm,
                     float((dsig - sval * df) @ T.w_up) - (kap - mval + (n - 1) * sval ** 2),
                     compat / hnorm))
    return _bundle_reports(("riemannian-soliton", "conformal-w", "sigma-gradient-balance",
                            "scalar-compatibility", "sigma-constancy"), rows, tol)


# -- navigation closed form for the S-curvature rate -----------------------------------


def s_dot_closed_form_nav(H: riemann.PointRecord, T: randers.NavTensors, F: float,
                          sigma_terms, ftab, y) -> float:
    """S-dot of (F, e^{-f} dm_BH) under isotropic S-curvature sigma:

        S-dot = (n+1) sigma_0 F - 2 sigma f_0 F + 2 (f_k S^k_0) F
                + (f_k S^k) F^2 + Hess_h(f)(y)

    at the flag (x, y) with float F(x, y), from a record H of h and the W
    tensors T at x, the `sigma_terms` of sigma there against W and f's
    order-2 table.
    """
    n = T.x.size
    sval, sigma0, _, _ = sigma_terms
    df = ftab[1]
    f0 = float(df @ y)
    fS0 = float(df @ T.s_mixed @ y)
    fS = float(df @ T.s_up)
    hess = riemann.hessian(H, ftab, y)
    return ((n + 1) * sigma0 * F - 2.0 * sval * f0 * F + 2.0 * fS0 * F
            + fS * F * F + hess)
