"""Seeded random geometry for the cross-validation suites.

Random Riemannian metrics are small polynomial perturbations of the identity
so positive definiteness is guaranteed on the sampling box; random 1-forms are
rescaled so the Randers bound ||beta||_alpha < 0.45 holds on the whole box.
Everything is driven by a caller-supplied numpy Generator, so suites are
reproducible from a seed.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import jets, riemann
from .jets import Jet
from .randers import NavigationData, RandersData
from .riemann import RiemannMetric, ScalarField, VectorField, euclidean_metric

BOX = 0.5  # random fields are calibrated for x in [-BOX, BOX]^dim


def _poly2(coeffs, x):
    """Entries c0[e] + c1[e].x + x.c2[e].x of stacked coefficients at x.

    Each entry adds its terms in one order: c0, then for each k the term
    c1[k] x[k] followed by the terms (c2[k, l] x[k]) x[l] for each l.  With
    x jets over one space, all entries are computed at once, and all E n^2
    jet products run through one `jets.mul_rows`; each entry is bit-equal
    to that scalar loop over its own jets.  Anything else (floats, arrays of
    floats, mixed) runs the scalar loop per entry.
    """
    c0, c1, c2 = coeffs
    n = len(x)
    space = x[0].space if isinstance(x[0], Jet) else None
    if space is not None and all(isinstance(v, Jet) and v.space is space for v in x):
        X = np.array([v.coeffs for v in x])                     # [k, lanes..., coefficient]
        lanes = (1,) * (X.ndim - 2)                             # entry axes over the lanes
        prods = jets.mul_rows(c2.reshape(c2.shape + lanes + (1,)) * X[None, :, None], X, space)
        c1x = c1.reshape(c1.shape + lanes + (1,))
        out = np.zeros((c0.size,) + X.shape[1:])
        out[..., 0] = c0.reshape(c0.shape + lanes)
        for k in range(n):
            out = out + c1x[:, k] * X[k]
            for l in range(n):
                out = out + prods[:, k, l]
        return [Jet(space, row) for row in out]
    entries = []
    for e in range(c0.size):
        out = c0[e]
        for k in range(n):
            out = out + c1[e, k] * x[k]
            for l in range(n):
                out = out + c2[e, k, l] * x[k] * x[l]
        entries.append(out)
    return entries


def _draw_poly2(rng, dim, amp):
    return (float(rng.uniform(-amp, amp)),
            rng.uniform(-amp, amp, size=dim),
            rng.uniform(-amp, amp, size=(dim, dim)))


def _draw_stacked(rng, dim, amp, entries):
    """`entries` polynomial draws, in order, stacked for `_poly2`."""
    draws = [_draw_poly2(rng, dim, amp) for _ in range(entries)]
    return tuple(np.array([d[k] for d in draws]) for k in range(3))


def _box_grid(dim):
    """The calibration grid, 5 points per axis, as one array per coordinate
    (points in `itertools.product` order)."""
    axes = [np.linspace(-BOX, BOX, 5)] * dim
    return list(np.array(list(itertools.product(*axes))).T)


def _grid_stack(values):
    """Matrix rows or a vector of per-point arrays as one C-contiguous (G, ...)
    float stack, grid point first: each point's slice then runs the same
    products as an array built for that point alone (a strided slice need not)."""
    return np.ascontiguousarray(np.moveaxis(np.array(values, float), -1, 0))


def random_riemann_metric(rng, dim, name="random-h") -> RiemannMetric:
    """Identity plus a symmetric quadratic-polynomial perturbation."""
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    coeffs = _draw_stacked(rng, dim, 0.1 / (dim * dim), len(pairs))

    def fn(x):
        rows = [[None] * dim for _ in range(dim)]
        for (i, j), pert in zip(pairs, _poly2(coeffs, x)):
            rows[i][j] = rows[j][i] = pert + 1.0 if i == j else pert
        return rows

    return RiemannMetric(dim, fn, name=name)


def random_vector_field(rng, dim) -> VectorField:
    coeffs = _draw_stacked(rng, dim, 0.2, dim)
    return VectorField(lambda x: _poly2(coeffs, x), name="random-v")


def random_scalar_field(rng, dim) -> ScalarField:
    coeffs = _draw_stacked(rng, dim, 0.2, 1)
    return ScalarField(lambda x: _poly2(coeffs, x)[0], name="random-f")


def _calibrated_field(rng, metric: RiemannMetric, bound, name, inverse=False) -> VectorField:
    """A random quadratic field v rescaled so that v.M.v < bound^2 on the box,
    with M the metric's matrix, or its inverse for a 1-form (`inverse`).

    The field and M are evaluated at every grid point at once (arrays
    through the scalar loop), and v.M.v is one stacked `riemann.bilinear`;
    a stacked inverse and each bilinear row are bit-equal to the per-point
    ones.
    """
    raw = _draw_stacked(rng, metric.dim, 0.3, metric.dim)
    grid = _box_grid(metric.dim)
    mats = _grid_stack(metric.matrix(grid))
    if inverse:
        mats = riemann.spd_inverse(mats, riemann.MetricDomainError, f"{metric.name} matrix")
    V = _grid_stack(_poly2(raw, grid))
    worst = max([0.0] + riemann.bilinear(V, mats, V).tolist())
    scale = bound / max(np.sqrt(worst), 1e-9)
    return VectorField(lambda x: [scale * v for v in _poly2(raw, x)], name=name)


def random_randers(rng, dim) -> RandersData:
    """Random valid Randers data on the box: b is rescaled below 0.45."""
    alpha = random_riemann_metric(rng, dim, name="alpha(random-randers)")
    beta = _calibrated_field(rng, alpha, 0.45, "beta(random-randers)", inverse=True)
    return RandersData(alpha=alpha, beta=beta, name="random-randers")


def random_navigation(rng, dim) -> NavigationData:
    """Random valid navigation data: ||W||_h is rescaled below 0.5 on the box."""
    h = random_riemann_metric(rng, dim, name="h(random-nav)")
    W = _calibrated_field(rng, h, 0.5, "W(random-nav)")
    return NavigationData(h=h, W=W, name="random-nav")


def conformal_euclidean_navigation(rng, dim):
    """Euclidean navigation data whose W is an exact conformal field.

    W = a + (lam I + A) x + 2<x,k> x - |x|^2 k with A antisymmetric is
    conformal for the flat metric with factor (lam + 2<k,x>)/2, so the
    isotropic S-curvature function is sigma(x) = -(lam + 2<k,x>)/2 exactly.
    Returns (nav, sigma_field, c_field).
    """
    scale = 0.15
    a = rng.uniform(-scale, scale, size=dim)
    lam = float(rng.uniform(-scale, scale))
    A = rng.uniform(-scale, scale, size=(dim, dim))
    A = A - A.T
    k = rng.uniform(-scale, scale, size=dim)

    def w_fn(x):
        xk = 0.0
        x2 = 0.0
        for i in range(dim):
            xk = xk + k[i] * x[i]
            x2 = x2 + x[i] * x[i]
        out = []
        for i in range(dim):
            v = a[i] + lam * x[i]
            for j in range(dim):
                v = v + A[i, j] * x[j]
            out.append(v + 2.0 * xk * x[i] - x2 * k[i])
        return out

    def c_fn(x):
        xk = 0.0
        for i in range(dim):
            xk = xk + k[i] * x[i]
        return 0.5 * (lam + 2.0 * xk)

    nav = NavigationData(h=euclidean_metric(dim), W=VectorField(w_fn, name="conformal-w"),
                         name="conformal-euclidean")
    sigma = ScalarField(lambda x: -c_fn(x), name="sigma")
    c = ScalarField(c_fn, name="c")
    return nav, sigma, c


def sample_box_point(rng, dim) -> np.ndarray:
    return rng.uniform(-BOX, BOX, size=dim)
