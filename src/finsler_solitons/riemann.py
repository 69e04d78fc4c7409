"""Riemannian backend: Christoffel symbols, curvature, covariant calculus.

Everything here runs off plain partial-derivative tables, each one gather
(`jets.derivative_tensors`; a float entry enters as a constant jet) of a jet
evaluation of the metric / field components: the `*_table` functions make
their own, the `*_gather` functions take one made by the caller.  So the
module stays fully independent of the spray-based Finsler engine.  On
Riemannian inputs the two paths must agree, which gives the main
cross-validation oracle.

One jet pass of a metric at a point gives its `PointRecord` (`point_record`,
or `record_from_tables` on gathered tables): the tables of h and the
Levi-Civita data built from them by the table formulas `christoffel`,
`christoffel_derivative` and `ricci_contraction`, which live here once.
Everything that reads the metric at that point takes the record: Hessians,
conformal residuals and fits, and the (alpha, beta) and navigation tensors
of `randers`.  A caller that needs several of them pays one pass.

Fields enter as their tables at the record's point, never as closures:
`covariant_1form` (b_{i;j}, the one place of d b - Gamma b) and
`lowered_covariant_derivative` (W_{i:j}) turn a table into a covariant
derivative, and the Lie derivatives `lie_h2` and `lie_1form` contract those
tensors with the field values.  A caller tables each field once per point.

Jets meet linear algebra only through `generic_det` and `sqrt_det`; every float
positive-definiteness test is one Cholesky guard, `spd_guard`, run by `spd_inverse` too.

The gathers take the lane shape of laned jets (`jets` module notes), and a
table of a stack of points x has it as leading axes, which `record_from_tables`,
the connection formulas and the covariant derivatives pass through; `mat_vec`,
`vec_mat`, `bilinear` and `dot` are the stacked forms of `@` with a vector, each row
bit-equal to its one-point product.  The float readers `RiemannMetric.matrix_at`
and `VectorField.at` take a stack of points too, one row per point: the
closure runs once with each coordinate an array of lane values
(`coordinates`), so a row is bit-equal to its point's call when the closure
uses only + - * / and the `jets` functions (`jets.power` for a power: numpy's
`**` on an array need not match a float's).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import Jet, scalar_value


class MetricDomainError(ArithmeticError):
    """Metric matrix is singular or not positive definite at a point."""


# -- linear algebra: determinants over floats or Jets, SPD inverses of floats


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


def sqrt_det(rows):
    """sqrt(det) of a metric's rows at a point, on floats or Jets: its volume density."""
    return jets.sqrt(generic_det(rows))


def spd_guard(mat, error, what):
    """Cholesky check that a matrix, or each of a stack (leading axes pass through),
    is positive definite: where it fails, error(f"{what} not positive definite"),
    naming the refused lanes of a stack (`jets.refuse`)."""
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        bad = np.zeros(np.shape(mat)[:-2], bool)
        for i in np.ndindex(bad.shape):
            try:
                np.linalg.cholesky(mat[i])
            except np.linalg.LinAlgError:
                bad[i] = True
        jets.refuse(bad, error, lambda k: f"{what} not positive definite")


def spd_inverse(mat, error, what):
    """The inverse of an SPD matrix or of each of a stack, behind `spd_guard`."""
    spd_guard(mat, error, what)
    return np.linalg.inv(mat)


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

    def table(self, x, order):
        """(value, gradient, hessian) of the field at x; hessian only if order >= 2."""
        return scalar_table(self._fn, x, order)


def as_scalar_field(obj) -> ScalarField:
    if isinstance(obj, ScalarField):
        return obj
    return ScalarField(obj)


def coordinates(x):
    """The coordinates of a point x, shape (n,), as the list a field's
    closure takes; of a stack of points, shape (..., n), each coordinate the
    array of its lane values."""
    x = np.asarray(x, float)
    return list(x.transpose(-1, *range(x.ndim - 1)))


def _float_stack(values, lanes):
    """Float values, each a number or an array of lane values, as one array
    of shape lanes + (len(values),): a number, the same in every lane, is
    broadcast."""
    out = np.empty(lanes + (len(values),))
    for i, v in enumerate(values):
        out[..., i] = scalar_value(v)
    return out


def field_value(field, x) -> float:
    """The float value at the chart point x of a scalar field (a `ScalarField`,
    a function of x or a constant)."""
    return float(scalar_value(as_scalar_field(field)(list(x))))


def field_values(field, X) -> np.ndarray:
    """`field_value` at each row of a stack of points X, one float per lane:
    read at each lane's point, a fixture's closures need not be lane-safe
    (cigar's curvature law calls math.cosh on a float)."""
    return np.array([field_value(field, x) for x in X])


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
        """The components at x as floats; at a stack of points x, one row per point."""
        x = np.asarray(x, float)
        return _float_stack(self.components(coordinates(x)), x.shape[:-1])

    def table(self, x, order):
        return vector_table(self._fn, x, order)


class RiemannMetric:
    """Positive definite symmetric matrix field h_ij(x), jet-evaluable."""

    def __init__(self, dim: int, fn, name=""):
        self.dim = dim
        self._fn = fn
        self.name = name

    def matrix(self, x):
        return self._fn(x)

    def matrix_at(self, x) -> np.ndarray:
        """The matrix at x as floats, guarded; at a stack of points x, one
        matrix per point."""
        x, n = np.asarray(x, float), self.dim
        m = _float_stack([v for row in self._fn(coordinates(x)) for v in row], x.shape[:-1])
        m = m.reshape(x.shape[:-1] + (n, n))
        spd_guard(m, MetricDomainError, f"{self.name or 'metric'} matrix")
        return m

    def tables(self, x, order):
        return matrix_table(self._fn, x, order)

    def sqrt_det(self, x):
        """sqrt(det h) at x, usable on Jets (the Riemannian volume density)."""
        return sqrt_det(self._fn(x))


def euclidean_metric(dim: int) -> RiemannMetric:
    eye = [[1.0 if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    return RiemannMetric(dim, lambda x: eye, name="euclidean")


# -- partial-derivative tables ----------------------------------------------


def vector_gather(v, space, order, lanes):
    """(v[i], dv[i,j]=d_j v^i, d2v[i,j,k]=d_j d_k v^i, ...) of scalar-or-Jet
    components over `space` with the lane shape `lanes` (() at one point),
    one gather: a float or unlaned jet, the same in every lane, is broadcast
    (a float as a constant jet), and the lane axes lead every table."""
    rows = [c.coeffs if isinstance(c, Jet) else Jet.constant(float(c), space).coeffs for c in v]
    if lanes:
        coeffs = np.empty(lanes + (len(v), space.nterms))
        for i, row in enumerate(rows):
            coeffs[..., i, :] = row
    else:
        coeffs = np.array(rows)
    return tuple(jets.derivative_tensors(coeffs, space, order))


def scalar_gather(v, space, order, lanes):
    """(value, grad, hess, ...) up to `order` of a scalar-or-Jet over `space`
    (`vector_gather`); the value is a float at one point."""
    value, *derivs = vector_gather([v], space, order, lanes)
    at = (slice(None),) * len(lanes) + (0,)         # the one component, after the lanes
    return (value[at] if lanes else float(value[at]), *(d[at] for d in derivs))


def matrix_gather(rows, space, order, lanes):
    """(m[i,j], dm[k,i,j]=d_k m_ij, d2m[k,l,i,j]) of matrix rows over `space`
    (`vector_gather`)."""
    n, k = len(rows), len(lanes)
    value, *derivs = vector_gather([v for row in rows for v in row], space, order, lanes)
    # the gather puts the derivative axes last; the layout puts them first
    return (value.reshape(*lanes, n, n), *(np.ascontiguousarray(np.moveaxis(
        d.reshape(*lanes, n, n, *d.shape[k + 1:]), (k, k + 1), (-2, -1))) for d in derivs))


def _jet_pass(fn, x, order):
    """(fn at x as order-`order` jets, their space, order, the lane shape):
    one jet pass at a point x, or at each row of a stack of points (lanes)."""
    x = np.asarray(x, float)
    xs = Jet.variables(coordinates(x), order)
    return fn(xs), xs[0].space, order, x.shape[:-1]


def scalar_table(fn, x, order):
    """`scalar_gather` of one jet pass of fn at x."""
    return scalar_gather(*_jet_pass(fn, x, order))


def vector_table(fn, x, order):
    """`vector_gather` of one jet pass of fn at x."""
    return vector_gather(*_jet_pass(fn, x, order))


def matrix_table(fn, x, order):
    """`matrix_gather` of one jet pass of fn (n x n rows) at x."""
    return matrix_gather(*_jet_pass(fn, x, order))


# -- connection and curvature ------------------------------------------------


def _bracket(dh):
    """d_i h_jl + d_j h_il - d_l h_ij as [..., l, i, j]; leading axes pass through."""
    return np.einsum("...ijl->...lij", dh) + np.einsum("...jil->...lij", dh) - dh


def christoffel(hinv, dh) -> np.ndarray:
    """Gamma[k,i,j] = Gamma^k_ij = 1/2 h^kl (d_i h_jl + d_j h_il - d_l h_ij)
    from h^-1 and dh[k,i,j] = d_k h_ij; leading axes pass through."""
    return 0.5 * np.einsum("...kl,...lij->...kij", hinv, _bracket(dh))


def christoffel_derivative(hinv, dhinv, dh, d2h) -> np.ndarray:
    """dGamma[m,k,i,j] = d_m Gamma^k_ij from h^-1, dhinv[m,k,l] = d_m h^kl, dh
    and d2h[m,k,i,j] = d_m d_k h_ij; leading axes pass through."""
    return 0.5 * (np.einsum("...mkl,...lij->...mkij", dhinv, _bracket(dh))
                  + np.einsum("...kl,...mlij->...mkij", hinv, _bracket(d2h)))


def ricci_contraction(gamma, dgamma) -> np.ndarray:
    """Ric_jk = d_i Gamma^i_jk - d_j Gamma^i_ik + Gamma^i_ip Gamma^p_jk - Gamma^i_jp Gamma^p_ik;
    leading axes pass through."""
    return (np.einsum("...iijk->...jk", dgamma) - np.einsum("...jiik->...jk", dgamma)
            + np.einsum("...iip,...pjk->...jk", gamma, gamma)
            - np.einsum("...ijp,...pik->...jk", gamma, gamma))


@dataclass
class PointRecord:
    """One jet pass of a metric at x and the Levi-Civita data it determines.

    At every order: h0[i,j] = h_ij, dh[k,i,j] = d_k h_ij, hinv = h^-1,
    dhinv[m,k,l] = d_m h^kl and gamma[k,i,j] = Gamma^k_ij.  At order 2 also
    dgamma[m,k,i,j] = d_m Gamma^k_ij and the Ricci tensor ricci[j,k]; at
    order 1 these two are None.
    """

    x: np.ndarray
    h0: np.ndarray
    dh: np.ndarray
    hinv: np.ndarray
    dhinv: np.ndarray
    gamma: np.ndarray
    dgamma: np.ndarray | None
    ricci: np.ndarray | None


def point_record(h: RiemannMetric, x, order: int) -> PointRecord:
    """The point record of h at x from one jet pass of the given order (1 or 2).

    Build one per (metric, point) and hand it to every function below that
    reads the metric there; only the Ricci tensor needs order 2.
    """
    x = np.asarray(x, float)
    return record_from_tables(h, x, h.tables(x, order=order))


def record_from_tables(h: RiemannMetric, x, tables) -> PointRecord:
    """The record of h at x from its tables there, (h, dh) or (h, dh, d2h);
    h names the metric in the guard messages.  The tables may carry leading
    lane axes, one lane per row of a stack of points x (`matrix_gather`);
    every field then carries them too."""
    h0, dh = tables[0], tables[1]
    hinv = spd_inverse(h0, MetricDomainError, f"{h.name or 'metric'} matrix")
    dhinv = -np.einsum("...ka,...mab,...bl->...mkl", hinv, dh, hinv)
    gamma = christoffel(hinv, dh)
    dgamma = ricci = None
    if len(tables) > 2:
        dgamma = christoffel_derivative(hinv, dhinv, dh, tables[2])
        ricci = ricci_contraction(gamma, dgamma)
    return PointRecord(x, h0, dh, hinv, dhinv, gamma, dgamma, ricci)


def riemann_ricci(rec: PointRecord, y) -> float:
    """Ricci tensor of an order-2 record contracted twice with y."""
    y = np.asarray(y, float)
    return float(np.einsum("jk,j,k->", rec.ricci, y, y))


# -- covariant derivatives ----------------------------------------------------


def covariant_1form(gamma, b0, db) -> np.ndarray:
    """b_{i;j} = d_j b_i - Gamma^k_ij b_k from the values b0[i] = b_i and the
    derivatives db[i,j] = d_j b_i of a 1-form; leading axes pass through."""
    return db - np.einsum("...kij,...k->...ij", gamma, b0)


def mat_vec(m, v):
    """m @ v over leading axes: each row the product of its matrix and vector."""
    return (m @ v[..., None])[..., 0]


def vec_mat(v, m):
    """v @ m over leading axes: each row the product of its vector and matrix."""
    return (v[..., None, :] @ m)[..., 0, :]


def bilinear(v, m, w):
    """(v @ m) @ w over leading axes, one float per row."""
    return (v[..., None, :] @ m @ w[..., :, None])[..., 0, 0]


def dot(v, w):
    """v @ w over leading axes, one float per row."""
    return (v[..., None, :] @ w[..., :, None])[..., 0, 0]


def einsum_rows(spec, *operands):
    """np.einsum(spec, *operands) as a float at one point; with one leading
    lane axis on every operand, that one-point einsum at each lane (a stacked
    einsum can sum in another order: "jk,j,k->" does)."""
    if operands[-1].ndim == 1:
        return float(np.einsum(spec, *operands))
    return np.array([np.einsum(spec, *row) for row in zip(*operands)])


def lowered_covariant_derivative(rec: PointRecord, w0, dw) -> np.ndarray:
    """W_{i:j} = d_j (h_ik W^k) - Gamma^k_ij h_kl W^l from a record of h and
    W's order-1 table (W^i, d_j W^i) at its point; leading axes pass through."""
    dwl = np.einsum("...jik,...k->...ij", rec.dh, w0) + np.einsum("...ik,...kj->...ij", rec.h0, dw)
    return covariant_1form(rec.gamma, mat_vec(rec.h0, w0), dwl)


def hessian_tensor(rec: PointRecord, ftab) -> np.ndarray:
    """Covariant Hessian f_{:ij} = d_i d_j f - Gamma^k_ij f_k from f's order-2
    table (value, gradient, hessian) at the record's point."""
    _, grad, hess = ftab
    return covariant_1form(rec.gamma, grad, hess)


def hessian(rec: PointRecord, ftab, y):
    """Hess(f)(y, y) at the record's point, or one per lane of a stack (`einsum_rows`)."""
    y = np.asarray(y, float)
    return einsum_rows("ij,i,j->", hessian_tensor(rec, ftab), y, y)


# -- Lie derivatives and conformal residuals ----------------------------------
#
# V enters through vcov[i,j] = V_{i:j}, the lowered covariant derivative of
# its table at the record's point (`lowered_covariant_derivative`).  At a
# stack of points (leading lane axes) each gives one row per lane, and the
# contractions with y run per lane (`einsum_rows`).


def lie_h2(vcov, y):
    """Lie derivative of h^2 along the complete lift: 2 V_{i:j} y^i y^j."""
    y = np.asarray(y, float)
    return 2.0 * einsum_rows("ij,i,j->", vcov, y, y)


def lie_1form(v0, vcov, x_up, xcov, y):
    """Lie derivative of the 1-form X_i y^i: (V^k X_{j;k} + X^k V_{k;j}) y^j,
    from V^k, V_{k:j}, X^k and xcov[j,k] = X_{j;k}.  X is beta (its b^k and
    b_{j;k}) or, for L_V(W_0), the lowered W (its W^k and W_{j:k})."""
    y = np.asarray(y, float)
    return einsum_rows("k,jk,j->", v0, xcov, y) + einsum_rows("k,kj,j->", x_up, vcov, y)


def conformal_residual(rec: PointRecord, vcov, c) -> np.ndarray:
    """V_{i:j} + V_{j:i} - 4 c h_ij; the zero matrix iff V is conformal with
    factor c (one c per lane at a stack)."""
    return vcov + vcov.swapaxes(-1, -2) - 4.0 * np.asarray(c)[..., None, None] * rec.h0
