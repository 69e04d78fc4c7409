"""Randers layer: (alpha, beta) <-> navigation data, the beta-derivative
tensor family, the Busemann-Hausdorff density of Randers data, isotropic-S
fitting, and the closed-form Ricci curvature.

Conventions (all indices raised/lowered with a_ij unless noted):

    r_ij = (b_{i;j} + b_{j;i})/2      s_ij = (b_{i;j} - b_{j;i})/2
    s^i_j = a^ik s_kj                 s_j = b^i s_ij
    e_ij = r_ij + b_i s_j + b_j s_i   t_ij = s_ik s^k_j
    q_ij = r_ik s^k_j                 t_j = b^i t_ij

and on the navigation side (indices via h_ij):

    R_ij = (W_{i:j} + W_{j:i})/2      S_ij = (W_{i:j} - W_{j:i})/2

The alpha rows, b and the stage of F are each one function of a guarded
`_navigation_point` (h rows, W, lambda, h W); the closures and
`solitons.sample_points` all call them, the latter on one point laned over a
run's flags (`jets.lane` slices it); the Randers side reads det a and
det(a - b b^T) of one guarded `_randers_point`, and no inverse of alpha.
sigma_BH(a rows, b) (`_bh_density`) serves `RandersData` callers
(`bh_measure`, the `jets-vs-fd` suite); on navigation data sigma_BH =
sqrt(det h) (Xing 2005), which the fixtures and sample points read, and
`_bh_density` is the oracle a test holds it to.
The tensors of one point read a `riemann.PointRecord` of alpha or h and the
table of beta or W (`beta_tables`, `nav_tensors`; with leading lane axes,
the tensors of a stack of points, each lane bit-equal to its point alone;
`beta_derivatives`, `randers_ricci_closed_form`, `sigma_terms`,
`fit_sigma_isotropic_S` and `ricci_transfer_sides` take a stack of flags the
same way), and the navigation identities read those tensors and the
flag's F from the caller, with xi = y - F W on the tabled W (`NavTensors.w_up`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets, riemann
from .finsler import FinslerMetric, Measure, lie_scalar
from .jets import scalar_value
from .riemann import MetricDomainError, RiemannMetric, VectorField, generic_det


class RandersDomainError(ArithmeticError):
    """||beta||_alpha >= 1 at an evaluated point."""


class NavigationDomainError(ArithmeticError):
    """||W||_h >= 1 at an evaluated point (lambda <= 0)."""


@dataclass
class RandersData:
    """A Randers structure F = alpha + beta given by (a_ij, b_i)."""

    alpha: RiemannMetric
    beta: VectorField
    name: str = ""

    @property
    def dim(self) -> int:
        return self.alpha.dim


def _lam(rows, w):
    """lambda = 1 - h_ij W^i W^j from the rows of h and the components of W."""
    return 1.0 - jets.YForms(rows)(w)[0]


@dataclass
class NavigationData:
    """Navigation pair (h, W) with ||W||_h < 1."""

    h: RiemannMetric
    W: VectorField
    name: str = ""

    @property
    def dim(self) -> int:
        return self.h.dim


# -- conversions ---------------------------------------------------------------


def _navigation_point(nav: NavigationData, x):
    """(rows of h, W^i, lambda, h_ij W^j per (i, j)) at x, guarded in every
    lane of laned x: the data of alpha, beta and F; W_i = h_ij W^j is the
    sum of row i of the last."""
    rows = nav.h.matrix(x)
    w = nav.W.components(x)
    lam = _lam(rows, w)
    jets.refuse(scalar_value(lam) <= 0.0, NavigationDomainError,
                lambda k: "||W||_h >= 1 at evaluated point")
    n = len(w)
    return rows, w, lam, [[rows[i][j] * w[j] for j in range(n)] for i in range(n)]


def _alpha_rows(point):
    """a_ij = h_ij/lam + W_i W_j/lam^2 from a `_navigation_point`."""
    rows, _, lam, hw = point
    n = len(rows)
    wl = [sum(row) for row in hw]
    lam2 = lam * lam
    return [[rows[i][j] / lam + wl[i] * wl[j] / lam2 for j in range(n)] for i in range(n)]


def _beta_low(point):
    """b_i = -W_i/lam from a `_navigation_point`."""
    _, _, lam, hw = point
    return [-sum(row) / lam for row in hw]


def _navigation_stage(point):
    """F(x, .) = (sqrt(lam h^2 + W_0^2) - W_0)/lam from a `_navigation_point`
    at x; W_0 sums (h_ij W^j) y^i in that order (`jets.YForms`)."""
    rows, _, lam, hw = point
    forms = jets.YForms(rows, hw)

    def F(y):
        h2, w0 = forms(y)
        return (jets.sqrt(lam * h2 + w0 * w0) - w0) / lam

    return F


def _randers_point(rows, b, message):
    """(det a, det(a - b b^T)) from the rows of a and the b_i at one point, or
    at each lane of laned values, whose quotient is lambda = 1 - b^2 (matrix
    determinant lemma); det a <= 0 raises `MetricDomainError` and lambda <= 0
    `RandersDomainError(message)`, naming the refused lanes (`jets.refuse`)."""
    det_a = generic_det(rows)
    jets.refuse(scalar_value(det_a) <= 0.0, MetricDomainError,
                lambda k: "alpha not positive definite (det a <= 0)")
    det_m = generic_det([[a - bi * bj for a, bj in zip(row, b)] for row, bi in zip(rows, b)])
    jets.refuse(scalar_value(det_m) <= 0.0, RandersDomainError, lambda k: message)
    return det_a, det_m


def from_navigation(nav: NavigationData) -> RandersData:
    """(a_ij, b_i) with a_ij = h_ij/lam + W_i W_j/lam^2 and b_i = -W_i/lam."""
    return RandersData(
        alpha=RiemannMetric(nav.dim, lambda x: _alpha_rows(_navigation_point(nav, x)),
                            name=f"alpha({nav.name})"),
        beta=VectorField(lambda x: _beta_low(_navigation_point(nav, x)),
                         name=f"beta({nav.name})"),
        name=nav.name)


def to_navigation(rd: RandersData) -> NavigationData:
    """(h_ij, W^i) with h_ij = lam (a_ij - b_i b_j), lam = 1 - b^2, and, by
    Cramer's rule, W^i = -b^i/lam = -det(a, column i := b)/det(a - b b^T)."""
    n = rd.dim
    message = "||beta||_alpha >= 1 while converting Randers data"

    def h_fn(x):
        rows, b = rd.alpha.matrix(x), rd.beta.components(x)
        det_a, det_m = _randers_point(rows, b, message)
        lam = det_m / det_a
        return [[lam * (rows[i][j] - b[i] * b[j]) for j in range(n)] for i in range(n)]

    def w_fn(x):
        rows, b = rd.alpha.matrix(x), rd.beta.components(x)
        det_m = _randers_point(rows, b, message)[1]
        return [-generic_det([[b[r] if c == i else rows[r][c] for c in range(n)]
                              for r in range(n)]) / det_m for i in range(n)]

    return NavigationData(h=RiemannMetric(n, h_fn, name=f"h({rd.name})"),
                          W=VectorField(w_fn, name=f"W({rd.name})"),
                          name=rd.name)


# -- metric evaluation ----------------------------------------------------------


def finsler_from_randers(rd: RandersData) -> FinslerMetric:
    n = rd.dim

    def at(x):
        rows, b = rd.alpha.matrix(x), rd.beta.components(x)
        # the guard reads values only: float determinants, not ones of x jets
        _randers_point([[scalar_value(v) for v in row] for row in rows],
                       [scalar_value(v) for v in b], "||beta||_alpha >= 1 at evaluated point")
        forms = jets.YForms(rows, [[v] for v in b])

        def F(y):
            quad, lin = forms(y)
            return jets.sqrt(quad) + lin

        return F

    return FinslerMetric.from_stage(n, at, name=rd.name or "randers")


def finsler_from_navigation(nav: NavigationData) -> FinslerMetric:
    return FinslerMetric.from_stage(nav.dim, lambda x: _navigation_stage(_navigation_point(nav, x)),
                                    name=nav.name or "navigation")


# -- Busemann-Hausdorff measure ---------------------------------------------------


def _bh_density(rows, b):
    """sigma_BH = lam^{(n+1)/2} sqrt(det a) from the rows of a and the b_i."""
    det_a, det_m = _randers_point(rows, b, "||beta||_alpha >= 1 in Busemann-Hausdorff density")
    return jets.power(det_m / det_a, 0.5 * (len(b) + 1)) * jets.sqrt(det_a)


def bh_measure(rd: RandersData) -> Measure:
    """dm_BH of Randers data: its density at x, on floats or Jets, is `_bh_density`."""
    return Measure(lambda x: _bh_density(rd.alpha.matrix(x), rd.beta.components(x)),
                   name=f"BH({rd.name or 'randers'})")


# -- beta derivative tables --------------------------------------------------------


@dataclass
class BetaTables:
    """Point-level tensors of (alpha, beta) at one x (every field with the
    leading lane axes of a stack of points, the floats lane arrays)."""

    x: np.ndarray
    a: np.ndarray
    ainv: np.ndarray
    b_low: np.ndarray          # b_i
    b_up: np.ndarray           # b^i
    b2: float
    bcov: np.ndarray           # b_{i;j}
    r: np.ndarray              # r_ij
    s: np.ndarray              # s_ij
    s_mixed: np.ndarray        # s^i_j
    s_low: np.ndarray          # s_j
    s_up: np.ndarray           # s^j
    t: np.ndarray              # t_ij
    t_low: np.ndarray          # t_j
    t_trace: float             # t^i_i
    q: np.ndarray              # q_ij
    e: np.ndarray              # e_ij
    s_cov: np.ndarray          # (s_j)_{;k}
    r_cov: np.ndarray          # r_{ij;k}
    div_mixed_s: np.ndarray    # (s^i_j)_{;i} as a covector in j
    alpha_ricci: np.ndarray    # Ricci tensor of alpha


def beta_tables(A: riemann.PointRecord, btab) -> BetaTables:
    """The beta tensors at the point of A, an order-2 record of alpha, from
    beta's order-2 table (b_i, d_j b_i, d_j d_k b_i) there.  The record and
    table may carry leading lane axes (one lane per point of a stack); every
    contraction keeps its one-point order, so each lane is bit-equal to its
    one-point call."""
    x = A.x
    a0, ainv, gamma, dainv, dgamma = A.h0, A.hinv, A.gamma, A.dhinv, A.dgamma
    b0, db, d2b = btab

    b_up = riemann.mat_vec(ainv, b0)
    b2 = riemann.bilinear(b0, ainv, b0)
    jets.refuse(b2 >= 1.0, RandersDomainError,
                lambda k: f"||beta||_alpha^2 = {b2[k]:.6f} >= 1 at {x[k].tolist()}")

    bcov = riemann.covariant_1form(gamma, b0, db)
    dbcov = (np.einsum("...ijm->...mij", d2b)
             - np.einsum("...mkij,...k->...mij", dgamma, b0)
             - np.einsum("...kij,...km->...mij", gamma, db))

    bcov_t = bcov.swapaxes(-1, -2)
    dbcov_t = np.einsum("...mij->...mji", dbcov)
    r = 0.5 * (bcov + bcov_t)
    s = 0.5 * (bcov - bcov_t)
    dr = 0.5 * (dbcov + dbcov_t)
    ds = 0.5 * (dbcov - dbcov_t)

    s_mixed = ainv @ s
    s_low = riemann.vec_mat(b_up, s)
    s_up = riemann.mat_vec(ainv, s_low)
    t = s @ s_mixed
    t_mixed = ainv @ t
    t_low = riemann.vec_mat(b_up, t)
    t_trace = t_mixed.trace(axis1=-2, axis2=-1)
    q = r @ s_mixed
    e = r + b0[..., :, None] * s_low[..., None, :] + s_low[..., :, None] * b0[..., None, :]

    db_up = np.einsum("...kij,...j->...ik", dainv, b0) + np.einsum("...ij,...jk->...ik", ainv, db)
    ds_low = np.einsum("...ik,...ij->...kj", db_up, s) + np.einsum("...i,...kij->...kj", b_up, ds)
    s_cov = riemann.covariant_1form(gamma, s_low, ds_low.swapaxes(-1, -2))

    r_cov = np.einsum("...mij->...ijm", dr) - np.einsum("...pik,...pj->...ijk", gamma, r) \
        - np.einsum("...pjk,...ip->...ijk", gamma, r)

    ds_mixed = (np.einsum("...kip,...pj->...kij", dainv, s)
                + np.einsum("...ip,...kpj->...kij", ainv, ds))
    # Gamma^p_ji s^i_p sums over p for each i, then over i from 0.0: the
    # order of the one-point einsum "pji,ip->j", which a stacked one does not keep
    gamma_s = np.add.reduce(np.einsum("...pji,...ip->...ij", gamma, s_mixed), axis=-2,
                            initial=0.0)
    div_mixed_s = (np.einsum("...iij->...j", ds_mixed)
                   + np.einsum("...iip,...pj->...j", gamma, s_mixed) - gamma_s)

    return BetaTables(x=x, a=a0, ainv=ainv, b_low=b0, b_up=b_up, b2=b2, bcov=bcov,
                      r=r, s=s, s_mixed=s_mixed, s_low=s_low, s_up=s_up,
                      t=t, t_low=t_low, t_trace=t_trace, q=q, e=e, s_cov=s_cov,
                      r_cov=r_cov, div_mixed_s=div_mixed_s, alpha_ricci=A.ricci)


@dataclass
class BetaDerivatives:
    """Flag-level contractions of the beta tensors at one (x, y) (every field
    an array over the lanes at a stack of flags)."""

    alpha: float
    beta: float
    F: float
    r00: float
    s0: float
    e00: float
    t00: float
    t0: float
    q00: float
    s00: float        # (s_0)_{;0} = (s_j)_{;k} y^j y^k
    r000: float       # r_{00;0}
    si0i: float       # (s^i_0)_{;i}


def beta_derivatives(T: BetaTables, y) -> BetaDerivatives:
    """The contractions of the beta tensors T with the direction y; tables of
    a stack of points with one direction per point (leading lane axes) give
    one row per lane, each bit-equal to its one-point call."""
    y = np.asarray(y, float)

    def quad(m):
        return riemann.bilinear(y, m, y)

    def lin(v):
        return riemann.dot(v, y)

    alpha = jets.sqrt(quad(T.a))
    beta = lin(T.b_low)
    rows = dict(alpha=alpha, beta=beta, F=alpha + beta, r00=quad(T.r), s0=lin(T.s_low),
                e00=quad(T.e), t00=quad(T.t), t0=lin(T.t_low), q00=quad(T.q),
                s00=riemann.einsum_rows("jk,j,k->", T.s_cov, y, y),
                r000=riemann.einsum_rows("ijk,i,j,k->", T.r_cov, y, y, y), si0i=lin(T.div_mixed_s))
    return BetaDerivatives(**{k: v if np.ndim(v) else float(v) for k, v in rows.items()})


# -- isotropic S fitting and closed-form Ricci ---------------------------------------


def sigma_terms(stab, y, v):
    """(sigma, sigma_0 = sigma_i y^i, sigma_i v^i, d sigma) from the order-1
    table (value, gradient) of a sigma field at a point, or one row per lane
    of the tables and vectors of a stack of points."""
    sval, dsig = stab
    return sval, riemann.dot(dsig, np.asarray(y, float)), riemann.dot(dsig, v), dsig


def fit_sigma_isotropic_S(T: BetaTables, y_samples):
    """Least-squares sigma in e_00 = 2 sigma (alpha^2 - beta^2) over the y samples
    at the point of the beta tables T.

    Returns (sigma, residual) where residual is the rms misfit relative to the
    rms of 2(alpha^2 - beta^2); tables of a stack of points (leading lane
    axes) give one of each per lane, each bit-equal to its one-point call.
    """
    n = T.x.shape[-1]
    # one C-contiguous row of samples per lane (one row at a point): a dot
    # along a strided row can sum in another order
    Y = np.array(y_samples, float)
    count = len(Y)
    beta = riemann.dot(T.b_low[..., None, :], Y)
    lhs = riemann.bilinear(Y, T.e[..., None, :, :], Y).reshape(-1, count)
    rhs = (2.0 * (riemann.bilinear(Y, T.a[..., None, :, :], Y) - beta * beta)).reshape(-1, count)
    num, denom = np.array([(a @ r, r @ r) for a, r in zip(lhs, rhs)]).T
    if np.any(denom <= 0.0) or count < n * (n + 1) // 2:
        raise ValueError("degenerate y-sample set for sigma fit")
    sigma = num / denom
    residual = np.sqrt(np.mean((lhs - sigma[:, None] * rhs) ** 2, axis=-1)
                       / np.mean(rhs ** 2, axis=-1))
    lanes = T.x.shape[:-1]
    return (sigma.reshape(lanes), residual.reshape(lanes)) if lanes else (
        float(sigma[0]), float(residual[0]))


def randers_ricci_closed_form(rd: RandersData, x, y):
    """Ricci curvature of F = alpha + beta at the flag (x, y) assembled term by term:

        Ric = aRic + 2 alpha s^i_{0;i} - 2 t_00 - alpha^2 t^i_i + (n-1) Xi,
        Xi  = (2 alpha/F)(q_00 - alpha t_0) + 3/(4F^2) (r_00 - 2 alpha s_0)^2
              - 1/(2F) (r_{00;0} - 2 alpha s_{0;0}).

    At a stack of flags (x and y of shape (P, n)) one order-2 record, one
    `beta_tables` and one `beta_derivatives` serve them all, and the result
    is one Ricci curvature per flag, each bit-equal to its one-flag call.
    """
    n = rd.dim
    x, y = np.asarray(x, float), np.asarray(y, float)
    T = beta_tables(riemann.point_record(rd.alpha, x, 2), rd.beta.table(x, order=2))
    bd = beta_derivatives(T, y)
    aric = riemann.einsum_rows("jk,j,k->", T.alpha_ricci, y, y)
    alpha, F = bd.alpha, bd.F
    jets.refuse(np.logical_or(F <= 0.0, alpha <= 0.0), RandersDomainError,
                lambda k: "flag outside the Randers domain (F or alpha <= 0)")
    xi = (2.0 * alpha / F * (bd.q00 - alpha * bd.t0)
          + 0.75 / (F * F) * jets.power(bd.r00 - 2.0 * alpha * bd.s0, 2)
          - 0.5 / F * (bd.r000 - 2.0 * alpha * bd.s00))
    return aric + 2.0 * alpha * bd.si0i - 2.0 * bd.t00 - alpha * alpha * T.t_trace \
        + (n - 1) * xi


# -- navigation-side tensors ---------------------------------------------------------


@dataclass
class NavTensors:
    """W-derivative tensors of a navigation pair at one x (indices via h;
    with leading lane axes at a stack of points, as `BetaTables`)."""

    x: np.ndarray
    h: np.ndarray
    w_up: np.ndarray          # W^i
    w_low: np.ndarray         # W_i
    lam: float
    wcov: np.ndarray          # W_{i:j}
    s_mixed: np.ndarray       # h^ik S_kj
    s_low: np.ndarray         # S_j = W^i S_ij
    s_up: np.ndarray          # h^ij S_j


def nav_tensors(H: riemann.PointRecord, wtab) -> NavTensors:
    """The W tensors at the point of H, a record of h (any order), from W's
    order-1 table (W^i, d_j W^i) there; leading lane axes pass through, as
    in `beta_tables`."""
    x, h0, hinv = H.x, H.h0, H.hinv
    w0, dw = wtab
    lam = 1.0 - riemann.bilinear(w0, h0, w0)
    jets.refuse(lam <= 0.0, NavigationDomainError,
                lambda k: f"lambda = {lam[k]:.6f} <= 0 at {x[k].tolist()}")
    wcov = riemann.lowered_covariant_derivative(H, w0, dw)
    s_asym = 0.5 * (wcov - wcov.swapaxes(-1, -2))
    s_low = riemann.vec_mat(w0, s_asym)
    return NavTensors(x=x, h=h0, w_up=w0, w_low=riemann.mat_vec(h0, w0), lam=lam, wcov=wcov,
                      s_mixed=hinv @ s_asym, s_low=s_low, s_up=riemann.mat_vec(hinv, s_low))


def spray_correction(T: NavTensors, sigma: float, y) -> np.ndarray:
    """zeta^i with G_alpha = G_h + zeta under isotropic S-curvature sigma, from
    the W tensors T at the flag's point:

        zeta^i = (S_0 - 2 sigma W_0)/lam y^i - (lam h^2 + 2 W_0^2)/(2 lam^2) S^i
                 + W_0/lam S^i_0
    """
    y = np.asarray(y, float)
    h2 = float(y @ T.h @ y)
    w0 = float(T.w_low @ y)
    s0 = float(T.s_low @ y)
    return ((s0 - 2.0 * sigma * w0) / T.lam * y
            - (T.lam * h2 + 2.0 * w0 * w0) / (2.0 * T.lam ** 2) * T.s_up
            + w0 / T.lam * (T.s_mixed @ y))


def lie_nav_h2_sides(nav: NavigationData, vtab, X, Y, F):
    """Both sides of the navigation Lie-derivative identity

        L_V(htilde^2) = 2/(htilde + Wtilde_0) { htilde Vtilde_{0:0}
                          + htilde^2 (V_{j:k} W^k - W_{j:k} V^k) xi^j },

    where htilde(x, xi) = F(x, y) and xi = y - F W, at a stack of flags (X
    and Y of shape (P, n)) with F their float F(x, y), one per flag, and
    vtab V's order-1 table (v0, dv) laned over the flags' x, which both
    sides read.  The jet side is one `lie_scalar` pass, which reads h, W and
    the stage from one `_navigation_point` laned over the flags; the float
    side is one record of h, one table of W and one `nav_tensors`, laned
    over the flags, and each row's products with xi are `riemann.bilinear`,
    `riemann.mat_vec` and `riemann.dot`, bit-equal to the one-flag `@`.
    Returns (lhs, rhs), one value per flag each.
    """
    n = nav.dim

    def phi(xs, ys):
        point = _navigation_point(nav, xs)
        rows, w = point[0], point[1]
        Fv = _navigation_stage(point)(ys)
        return jets.YForms(rows)([ys[i] - Fv * w[i] for i in range(n)])[0]

    X, Y = np.asarray(X, float), np.asarray(Y, float)
    lhs = lie_scalar(phi, vtab, X, Y)

    H = riemann.point_record(nav.h, X, 1)
    T = nav_tensors(H, nav.W.table(X, order=1))
    xi = Y - np.asarray(F)[..., None] * T.w_up
    htilde = jets.sqrt(riemann.bilinear(xi, T.h, xi))
    wt0 = riemann.dot(T.w_low, xi)
    v0, dv = vtab
    vcov = riemann.lowered_covariant_derivative(H, v0, dv)
    v00 = riemann.bilinear(xi, vcov, xi)
    mixed = riemann.dot(riemann.mat_vec(vcov, T.w_up) - riemann.mat_vec(T.wcov, v0), xi)
    rhs = 2.0 / (htilde + wt0) * (htilde * v00 + htilde * htilde * mixed)
    return lhs, rhs


def ricci_transfer_sides(ric, F, H: riemann.PointRecord, T: NavTensors,
                         sigma_terms, mu_tilde: float, y):
    """Both sides of the isotropic-S curvature transfer identity

        Ric - (n-1)(3 sigma_0/F + mu - sigma^2 - 2 sigma_i W^i) F^2
            = hRic_ij xi^i xi^j - (n-1) mu F^2,    xi = y - F W,

    for an arbitrary test scalar mu, from the flag's Ricci curvature and F,
    an order-2 record H of h and the W tensors T at its point, and the
    `sigma_terms` of sigma there against W; at a stack of flags (leading
    lane axes, Ric and F one per flag) one pair of rows.  Returns (lhs, rhs).
    """
    n = T.x.shape[-1]
    sval, sigma0, sigw, _ = sigma_terms
    lhs = ric - (n - 1) * (3.0 * sigma0 / F + mu_tilde - jets.power(sval, 2) - 2.0 * sigw) * F * F
    xi = y - np.asarray(F)[..., None] * T.w_up
    rhs = riemann.bilinear(xi, H.ricci, xi) - (n - 1) * mu_tilde * F * F
    return lhs, rhs
