"""Riemannian backend: Christoffel symbols, curvature, covariant calculus.

Everything here runs off plain partial-derivative tables, each from one jet
evaluation of the metric / field components and one gather of their
coefficients (`jets.derivative_tensors`; a float entry enters as a constant
jet), so the module stays fully independent of the spray-based Finsler
engine.  On Riemannian inputs the two paths must agree, which gives the main
cross-validation oracle.

One jet pass of a metric at a point gives its `PointRecord` (`point_record`):
the partial-derivative tables of h and the Levi-Civita data built from them
by the table formulas `christoffel`, `christoffel_derivative` and
`ricci_contraction`, which live here once.  Everything that reads the metric
at that point takes the record: Hessians, conformal residuals and fits, and
the (alpha, beta) and navigation tensors of `randers`.  A caller that needs
several of them pays one pass.

Fields enter as their tables at the record's point, never as closures:
`covariant_1form` (b_{i;j}, the one place of d b - Gamma b) and
`lowered_covariant_derivative` (W_{i:j}) turn a table into a covariant
derivative, and the Lie derivatives `lie_h2` and `lie_1form` contract those
tensors with the field values.  A caller tables each field once per point.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import Jet, scalar_value

COND_WARN_THRESHOLD = 1e10


class MetricDomainError(ArithmeticError):
    """Metric matrix is singular or not positive definite at a point."""


# -- linear algebra over plain scalars or Jets -----------------------------


def generic_det(rows):
    """Determinant by cofactor expansion; works for float or Jet entries."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    out = 0.0
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * generic_det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def generic_inverse(rows):
    """Gauss-Jordan inverse with value-based pivoting over floats or Jets."""
    n = len(rows)
    a = [[rows[i][j] for j in range(n)] for i in range(n)]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(scalar_value(a[r][col])))
        if abs(scalar_value(a[pivot][col])) == 0.0:
            raise MetricDomainError("singular matrix in generic inversion")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        piv = a[col][col]
        a[col] = [v / piv for v in a[col]]
        inv[col] = [v / piv for v in inv[col]]
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col]
            if isinstance(factor, numbers.Real) and factor == 0.0:
                continue
            a[r] = [av - factor * cv for av, cv in zip(a[r], a[col])]
            inv[r] = [av - factor * cv for av, cv in zip(inv[r], inv[col])]
    return inv


def _inv_with_guard(mat, what="metric"):
    try:
        out = np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise MetricDomainError(f"singular {what} matrix") from exc
    cond = np.linalg.cond(mat)
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(f"{what} matrix nearly singular (cond ~ {cond:.2e})",
                      RuntimeWarning, stacklevel=3)
    return out


def check_positive_definite(mat, what="metric"):
    """Leading-principal-minor test; raises MetricDomainError on failure."""
    mat = np.asarray(mat, float)
    n = mat.shape[0]
    for k in range(1, n + 1):
        if np.linalg.det(mat[:k, :k]) <= 0.0:
            raise MetricDomainError(f"{what} matrix not positive definite")


# -- field specs ------------------------------------------------------------


class ScalarField:
    """Scalar function of chart coordinates, evaluable on floats or Jets."""

    def __init__(self, fn, name=""):
        if isinstance(fn, numbers.Real):
            const = float(fn)
            self._fn = lambda x: const
            self.name = name or f"const({const})"
        else:
            self._fn = fn
            self.name = name

    def __call__(self, x):
        return self._fn(x)

    def table(self, x, order=2):
        """(value, gradient, hessian) of the field at x; hessian only if order >= 2."""
        return scalar_table(self._fn, x, order)


def as_scalar_field(obj) -> ScalarField:
    if isinstance(obj, ScalarField):
        return obj
    return ScalarField(obj)


class VectorField:
    """Vector (or 1-form) components as a function of x, jet-evaluable.

    The same wrapper serves contravariant components W^i and covariant
    components b_i; which one it is follows from how callers contract it.
    """

    def __init__(self, fn, name=""):
        self._fn = fn
        self.name = name

    def components(self, x):
        return list(self._fn(x))

    def at(self, x) -> np.ndarray:
        """The components at x as floats."""
        return np.array([scalar_value(c) for c in self.components(list(x))], float)

    def table(self, x, order=1):
        return vector_table(self._fn, x, order)


class TableVectorField(VectorField):
    """Vector field given by precomputed value/derivative tables at any x.

    Used for derived fields (like metric gradients) whose components are
    assembled analytically instead of via jet evaluation of a closure.
    """

    def __init__(self, table_fn, name=""):
        self._table_fn = table_fn
        self.name = name

    def components(self, x):
        return list(self._table_fn(x)[0])

    def table(self, x, order=1):
        out = self._table_fn(x)
        if len(out) < order + 1:
            raise ValueError(f"{self.name or 'table field'} has no order-{order} data")
        return out[: order + 1]


class RiemannMetric:
    """Positive definite symmetric matrix field h_ij(x), jet-evaluable."""

    def __init__(self, dim: int, fn, name=""):
        self.dim = dim
        self._fn = fn
        self.name = name

    def matrix(self, x):
        return self._fn(x)

    def matrix_at(self, x) -> np.ndarray:
        m = np.array([[scalar_value(v) for v in row] for row in self._fn(x)], float)
        check_positive_definite(m, self.name or "metric")
        return m

    def tables(self, x, order=2):
        return matrix_table(self._fn, x, self.dim, order)

    def sqrt_det(self, x):
        """sqrt(det h) at x, usable on Jets (the Riemannian volume density)."""
        return jets.sqrt(generic_det(self._fn(x)))


def euclidean_metric(dim: int) -> RiemannMetric:
    eye = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    return RiemannMetric(dim, lambda x: eye, name="euclidean")


# -- partial-derivative tables ----------------------------------------------


def _tables(fn, x, order, entries, shape=()):
    """One jet pass of fn at x and one gather: `entries` lists the scalar-or-Jet
    entries of fn's output (a float enters as a constant jet), `shape` arranges them."""
    xs = Jet.variables([float(v) for v in x], order)
    space = xs[0].space
    coeffs = np.array([v.coeffs if isinstance(v, Jet) else Jet.constant(float(v), space).coeffs
                       for v in entries(fn(xs))])
    return jets.derivative_tensors(coeffs.reshape(shape + (space.nterms,)), space, order)


def scalar_table(fn, x, order=2):
    """(value, grad, hess, ...) up to `order` from one jet pass."""
    value, *derivs = _tables(fn, x, order, lambda v: [v])
    return (float(value), *derivs)


def vector_table(fn, x, order=1):
    """(v[i], dv[i,j]=d_j v^i, d2v[i,j,k]=d_j d_k v^i, ...) from one jet pass."""
    return tuple(_tables(fn, x, order, list, (-1,)))


def matrix_table(fn, x, n, order=2):
    """(m[i,j], dm[k,i,j]=d_k m_ij, d2m[k,l,i,j]) from one jet pass."""
    value, *derivs = _tables(fn, x, order, lambda rows: [rows[i][j] for i in range(n)
                                                         for j in range(n)], (n, n))
    # the gather puts the derivative axes last; the layout puts them first
    return (value, *(np.ascontiguousarray(np.moveaxis(d, (0, 1), (-2, -1))) for d in derivs))


# -- connection and curvature ------------------------------------------------


def _bracket(dh):
    """d_i h_jl + d_j h_il - d_l h_ij as [..., l, i, j]; leading axes pass through."""
    return np.einsum("...ijl->...lij", dh) + np.einsum("...jil->...lij", dh) - dh


def christoffel(hinv, dh) -> np.ndarray:
    """Gamma[k,i,j] = Gamma^k_ij = 1/2 h^kl (d_i h_jl + d_j h_il - d_l h_ij)
    from h^-1 and dh[k,i,j] = d_k h_ij."""
    return 0.5 * np.einsum("kl,lij->kij", hinv, _bracket(dh))


def christoffel_derivative(hinv, dhinv, dh, d2h) -> np.ndarray:
    """dGamma[m,k,i,j] = d_m Gamma^k_ij from h^-1, dhinv[m,k,l] = d_m h^kl, dh
    and d2h[m,k,i,j] = d_m d_k h_ij."""
    return 0.5 * (np.einsum("mkl,lij->mkij", dhinv, _bracket(dh))
                  + np.einsum("kl,mlij->mkij", hinv, _bracket(d2h)))


def ricci_contraction(gamma, dgamma) -> np.ndarray:
    """Ric_jk = d_i Gamma^i_jk - d_j Gamma^i_ik + Gamma^i_ip Gamma^p_jk - Gamma^i_jp Gamma^p_ik."""
    return (np.einsum("iijk->jk", dgamma) - np.einsum("jiik->jk", dgamma)
            + np.einsum("iip,pjk->jk", gamma, gamma) - np.einsum("ijp,pik->jk", gamma, gamma))


@dataclass
class PointRecord:
    """One jet pass of a metric at x and the Levi-Civita data it determines.

    At every order: h0[i,j] = h_ij, dh[k,i,j] = d_k h_ij, hinv = h^-1,
    dhinv[m,k,l] = d_m h^kl and gamma[k,i,j] = Gamma^k_ij.  At order 2 also
    d2h[m,k,i,j] = d_m d_k h_ij, dgamma[m,k,i,j] = d_m Gamma^k_ij and the
    Ricci tensor ricci[j,k]; at order 1 these three are None.
    """

    metric: RiemannMetric
    x: np.ndarray
    h0: np.ndarray
    dh: np.ndarray
    hinv: np.ndarray
    dhinv: np.ndarray
    gamma: np.ndarray
    d2h: np.ndarray | None
    dgamma: np.ndarray | None
    ricci: np.ndarray | None


def point_record(h: RiemannMetric, x, order: int) -> PointRecord:
    """The point record of h at x from one jet pass of the given order (1 or 2).

    Build one per (metric, point) and hand it to every function below that
    reads the metric there; only the Ricci tensor needs order 2.
    """
    x = np.asarray(x, float)
    tables = h.tables(x, order=order)
    h0, dh = tables[0], tables[1]
    what = h.name or "metric"
    check_positive_definite(h0, what)
    hinv = _inv_with_guard(h0, what)
    dhinv = -np.einsum("ka,mab,bl->mkl", hinv, dh, hinv)
    gamma = christoffel(hinv, dh)
    d2h = dgamma = ricci = None
    if order >= 2:
        d2h = tables[2]
        dgamma = christoffel_derivative(hinv, dhinv, dh, d2h)
        ricci = ricci_contraction(gamma, dgamma)
    return PointRecord(h, x, h0, dh, hinv, dhinv, gamma, d2h, dgamma, ricci)


def riemann_ricci(rec: PointRecord, y) -> float:
    """Ricci tensor of an order-2 record contracted twice with y."""
    y = np.asarray(y, float)
    return float(np.einsum("jk,j,k->", rec.ricci, y, y))


# -- covariant derivatives ----------------------------------------------------


def covariant_1form(gamma, b0, db) -> np.ndarray:
    """b_{i;j} = d_j b_i - Gamma^k_ij b_k from the values b0[i] = b_i and the
    derivatives db[i,j] = d_j b_i of a 1-form."""
    return db - np.einsum("kij,k->ij", gamma, b0)


def lowered_covariant_derivative(h0, dh, gamma, w0, dw) -> np.ndarray:
    """W_{i:j} = d_j (h_ik W^k) - Gamma^k_ij h_kl W^l from the tables of h and W."""
    dwl = np.einsum("jik,k->ij", dh, w0) + np.einsum("ik,kj->ij", h0, dw)
    return covariant_1form(gamma, h0 @ w0, dwl)


def hessian_tensor(rec: PointRecord, ftab) -> np.ndarray:
    """Covariant Hessian f_{:ij} = d_i d_j f - Gamma^k_ij f_k from f's order-2
    table (value, gradient, hessian) at the record's point."""
    _, grad, hess = ftab
    return covariant_1form(rec.gamma, grad, hess)


def hessian(rec: PointRecord, ftab, y) -> float:
    y = np.asarray(y, float)
    return float(np.einsum("ij,i,j->", hessian_tensor(rec, ftab), y, y))


def gradient_table(h: RiemannMetric, f):
    """Metric gradient of f as a TableVectorField (components h^ij f_j)."""
    f = as_scalar_field(f)

    def tables(x):
        rec = point_record(h, x, 1)
        _, grad, hess = f.table(x, order=2)
        v = rec.hinv @ grad
        dv = np.einsum("jik,k->ij", rec.dhinv, grad) + np.einsum("ik,kj->ij", rec.hinv, hess)
        return v, dv

    return TableVectorField(tables, name=f"grad({f.name})")


# -- Lie derivatives and conformal residuals ----------------------------------
#
# V enters through vcov[i,j] = V_{i:j}, the lowered covariant derivative of
# its table at the record's point (`lowered_covariant_derivative`).


def lie_h2(vcov, y) -> float:
    """Lie derivative of h^2 along the complete lift: 2 V_{i:j} y^i y^j."""
    y = np.asarray(y, float)
    return float(2.0 * np.einsum("ij,i,j->", vcov, y, y))


def lie_1form(v0, vcov, x_up, xcov, y) -> float:
    """Lie derivative of the 1-form X_i y^i: (V^k X_{j;k} + X^k V_{k;j}) y^j,
    from V^k, V_{k:j}, X^k and xcov[j,k] = X_{j;k}.  X is beta (its b^k and
    b_{j;k}) or, for L_V(W_0), the lowered W (its W^k and W_{j:k})."""
    y = np.asarray(y, float)
    return float(np.einsum("k,jk,j->", v0, xcov, y) + np.einsum("k,kj,j->", x_up, vcov, y))


def conformal_residual(rec: PointRecord, vcov, c: float) -> np.ndarray:
    """V_{i:j} + V_{j:i} - 4 c h_ij; the zero matrix iff V is conformal with factor c."""
    return vcov + vcov.T - 4.0 * c * rec.h0


def metric_compatibility_residual(rec: PointRecord) -> np.ndarray:
    """h_{ij;k}, which must vanish for the Levi-Civita connection."""
    return (rec.dh - np.einsum("mik,mj->kij", rec.gamma, rec.h0)
            - np.einsum("mjk,im->kij", rec.gamma, rec.h0))
