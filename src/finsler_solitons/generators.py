"""Seeded random geometry for the cross-validation suites.

Random Riemannian metrics are small polynomial perturbations of the identity
so positive definiteness is guaranteed on the sampling box; random 1-forms are
rescaled so the Randers bound ||beta||_alpha < max_b holds on the whole box.
Everything is driven by a caller-supplied numpy Generator, so suites are
reproducible from a seed.
"""

from __future__ import annotations

import itertools

import numpy as np

from .randers import NavigationData, RandersData
from .riemann import RiemannMetric, ScalarField, VectorField, euclidean_metric

BOX = 0.5  # random fields are calibrated for x in [-BOX, BOX]^dim


def _poly2(coeffs, x):
    """c0 + c1.x + x.c2.x with scalar-or-Jet coordinates."""
    c0, c1, c2 = coeffs
    out = c0
    n = len(x)
    for k in range(n):
        out = out + c1[k] * x[k]
        for l in range(n):
            out = out + c2[k, l] * x[k] * x[l]
    return out


def _draw_poly2(rng, dim, amp):
    return (float(rng.uniform(-amp, amp)),
            rng.uniform(-amp, amp, size=dim),
            rng.uniform(-amp, amp, size=(dim, dim)))


def _box_grid(dim, per_axis=5):
    axes = [np.linspace(-BOX, BOX, per_axis)] * dim
    return list(itertools.product(*axes))


def random_riemann_metric(rng, dim, amp=0.1, name="random-h") -> RiemannMetric:
    """Identity plus a symmetric quadratic-polynomial perturbation."""
    coeffs = {}
    for i in range(dim):
        for j in range(i, dim):
            coeffs[(i, j)] = _draw_poly2(rng, dim, amp / (dim * dim))

    def fn(x):
        rows = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                pert = _poly2(coeffs[(i, j)], x)
                val = pert + 1.0 if i == j else pert
                rows[i][j] = val
                if i != j:
                    rows[j][i] = val
        return rows

    return RiemannMetric(dim, fn, name=name)


def random_vector_field(rng, dim, amp=0.2, name="random-v") -> VectorField:
    coeffs = [_draw_poly2(rng, dim, amp) for _ in range(dim)]

    def fn(x):
        return [_poly2(c, x) for c in coeffs]

    return VectorField(fn, name=name)


def random_scalar_field(rng, dim, amp=0.2, name="random-f") -> ScalarField:
    coeffs = _draw_poly2(rng, dim, amp)
    return ScalarField(lambda x: _poly2(coeffs, x), name=name)


def random_randers(rng, dim, amp=0.1, max_b=0.45, name="random-randers") -> RandersData:
    """Random valid Randers data on the box: b is rescaled below max_b."""
    alpha = random_riemann_metric(rng, dim, amp=amp, name=f"alpha({name})")
    raw = [_draw_poly2(rng, dim, 0.3) for _ in range(dim)]

    def raw_fn(x):
        return [_poly2(c, x) for c in raw]

    worst = 0.0
    for pt in _box_grid(dim):
        a = np.array([[v for v in row] for row in alpha.matrix(list(pt))], float)
        b = np.array(raw_fn(list(pt)), float)
        worst = max(worst, float(b @ np.linalg.inv(a) @ b))
    scale = max_b / max(np.sqrt(worst), 1e-9)

    def b_fn(x):
        return [scale * v for v in raw_fn(x)]

    return RandersData(alpha=alpha, beta=VectorField(b_fn, name=f"beta({name})"), name=name)


def random_navigation(rng, dim, amp=0.1, max_w=0.5, name="random-nav") -> NavigationData:
    """Random valid navigation data: ||W||_h is rescaled below max_w on the box."""
    h = random_riemann_metric(rng, dim, amp=amp, name=f"h({name})")
    raw = [_draw_poly2(rng, dim, 0.3) for _ in range(dim)]

    def raw_fn(x):
        return [_poly2(c, x) for c in raw]

    worst = 0.0
    for pt in _box_grid(dim):
        hm = np.array([[v for v in row] for row in h.matrix(list(pt))], float)
        w = np.array(raw_fn(list(pt)), float)
        worst = max(worst, float(w @ hm @ w))
    scale = max_w / max(np.sqrt(worst), 1e-9)

    def w_fn(x):
        return [scale * v for v in raw_fn(x)]

    return NavigationData(h=h, W=VectorField(w_fn, name=f"W({name})"), name=name)


def conformal_euclidean_navigation(rng, dim, scale=0.15):
    """Euclidean navigation data whose W is an exact conformal field.

    W = a + (lam I + A) x + 2<x,k> x - |x|^2 k with A antisymmetric is
    conformal for the flat metric with factor (lam + 2<k,x>)/2, so the
    isotropic S-curvature function is sigma(x) = -(lam + 2<k,x>)/2 exactly.
    Returns (nav, sigma_field, c_field).
    """
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


def sample_box_point(rng, dim, radius=BOX) -> np.ndarray:
    return rng.uniform(-radius, radius, size=dim)
