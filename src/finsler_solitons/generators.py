"""Seeded random geometry for the cross-validation suites.

Random Riemannian metrics are small polynomial perturbations of the identity
so positive definiteness is guaranteed on the sampling box; random 1-forms are
rescaled so the Randers bound ||beta||_alpha < 0.45 holds on the whole box.
Everything is driven by a caller-supplied numpy Generator, so suites are
reproducible from a seed.

Drawing is split from building.  The draws (`draw_riemann_metric`,
`draw_calibrated`, `draw_vector_field`, `draw_scalar_field`,
`draw_conformal` and the `_draw_*` helpers behind them) consume the rng and
return coefficients; the builders (`riemann_metric`, `randers_data`,
`navigation_data`, `vector_field`, `scalar_field`, `conformal_navigation`:
the closures and the box-grid calibration of `_calibrated_field`) consume
none.  So a suite can draw first, in the rng order of one draw at a time,
and build later; `random_randers` is one draw, built.

A family is the same builders run on the coefficients of several draws of
one kind and dimension stacked along a trailing lane axis (`family`): its
closures take x laned over the draws, one lane per draw (jets or float
arrays of lane values), and each lane of what they return is bit-equal to
that draw built alone at its lane's point, signs of zero included (Taylor
arithmetic vectorised over points, Griewank-Walther): `_poly2` broadcasts
the coefficients, and the conformal closures multiply and add each one lane
by lane (`_scaled`, `_shifted`).  Unlaned coefficients are one draw, and a
family of one draw is one lane; there is no other code path.  A family is
calibrated in one grid pass, with one stacked inverse and `bilinear` over
its lanes and one scale per lane.
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
    jet products run through one `jets.mul_rows`; with x floats or float
    arrays (a grid, lanes), all entries are one pass of array operations,
    the entry axis first.  Either way each entry is bit-equal to that scalar
    loop over its own x.  x that mixes jets with floats, or jets over
    several spaces, raises numpy's TypeError.

    The coefficients of a family (module notes) carry trailing lane axes,
    c0 of shape (E, lanes...), c1 (E, n, lanes...), c2 (E, n, n, lanes...),
    which broadcast against the lane axes of x: in the jet path each
    coefficient multiplies its lane's coefficient row of x, as a float
    multiplies a jet, and in the float path numpy broadcasts the arrays.
    """
    c0, c1, c2 = coeffs
    n = len(x)
    clanes = c0.shape[1:]
    space = x[0].space if isinstance(x[0], Jet) else None
    if space is not None and all(isinstance(v, Jet) and v.space is space for v in x):
        X = np.array([v.coeffs for v in x])                     # [k, lanes..., coefficient]
        lanes = (1,) * (X.ndim - 2 - len(clanes)) + clanes      # entry axes over the lanes

        def laned(c):
            return c.reshape(c.shape[:c.ndim - len(clanes)] + lanes + (1,))

        prods = jets.mul_rows(laned(c2) * X[None, :, None], X, space, space)
        c1x = laned(c1)
        out = np.zeros((c0.shape[0],) + X.shape[1:])
        out[..., 0] = laned(c0)[..., 0]
        for k in range(n):
            out = out + c1x[:, k] * X[k]
            for l in range(n):
                out = out + prods[:, k, l]
        return [Jet(space, row) for row in out]
    xs = [np.asarray(v, float) for v in x]
    pad = (1,) * max(0, max(v.ndim for v in xs) - len(clanes))

    def entries(c):                                             # [entry, x axes..., lanes...]
        return c.reshape(c.shape[:1] + pad + clanes)

    out = entries(c0)
    for k in range(n):
        out = out + entries(c1[:, k]) * xs[k]
        for l in range(n):
            out = out + entries(c2[:, k, l]) * xs[k] * xs[l]
    return list(out)


# -- drawing: every rng read -----------------------------------------------------------


def _draw_stacked(rng, dim, amp, entries):
    """`entries` polynomial draws, stacked for `_poly2`: one block of the
    rng, a row per entry holding its c0, then c1, then c2 row by row, the
    order in which one draw of each in turn reads them."""
    block = rng.uniform(-amp, amp, size=(entries, 1 + dim + dim * dim))
    return block[:, 0], block[:, 1:1 + dim], block[:, 1 + dim:].reshape(entries, dim, dim)


def draw_riemann_metric(rng, dim):
    """The coefficients of a random `riemann_metric`: one entry per i <= j."""
    return _draw_stacked(rng, dim, 0.1 / (dim * dim), dim * (dim + 1) // 2)


def draw_calibrated(rng, dim):
    """The coefficients of `randers_data` or `navigation_data`: the metric's,
    then the raw ones of the field `_calibrated_field` rescales on it."""
    return draw_riemann_metric(rng, dim), _draw_stacked(rng, dim, 0.3, dim)


def draw_vector_field(rng, dim):
    """The coefficients of a random quadratic `vector_field`."""
    return _draw_stacked(rng, dim, 0.2, dim)


def draw_scalar_field(rng, dim):
    """The coefficients of a random quadratic `scalar_field`."""
    return _draw_stacked(rng, dim, 0.2, 1)


def draw_conformal(rng, dim):
    """The coefficients (a, lam, A, k) of `conformal_navigation`, A not yet
    antisymmetrised."""
    scale = 0.15
    return (rng.uniform(-scale, scale, size=dim), float(rng.uniform(-scale, scale)),
            rng.uniform(-scale, scale, size=(dim, dim)), rng.uniform(-scale, scale, size=dim))


def family(draws):
    """Draws of one kind and dimension as one family: each coefficient array
    of the draws stacked along a new trailing lane axis, lane k draw k (one
    draw makes a family of one lane)."""
    if isinstance(draws[0], tuple):
        return tuple(family(parts) for parts in zip(*draws))
    return np.stack(draws, axis=-1)


# -- building: no rng read ---------------------------------------------------------------


def _box_grid(dim):
    """The calibration grid, 5 points per axis, as one array per coordinate
    (points in `itertools.product` order)."""
    axes = [np.linspace(-BOX, BOX, 5)] * dim
    return list(np.array(list(itertools.product(*axes))).T)


def _grid_stack(values, lanes):
    """Matrix rows or a vector of arrays of shape (G, lanes...), a family's
    values at the grid points, as one float stack (lanes..., G, ...): each
    lane's (G, ...) stack is C-contiguous, grid point first, so each point's
    slice runs the same products as an array built for that point of that
    draw alone (a strided slice need not)."""
    values = np.array(values, float)
    grid = values.ndim - 1 - len(lanes)
    moved = np.moveaxis(values, [*range(grid + 1, values.ndim), grid], range(len(lanes) + 1))
    return np.ascontiguousarray(moved)


def _riemann_metric(coeffs, name) -> RiemannMetric:
    """Identity plus the symmetric quadratic perturbation of
    `draw_riemann_metric`'s coefficients (one draw or a family)."""
    dim = coeffs[1].shape[1]
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]

    def fn(x):
        rows = [[None] * dim for _ in range(dim)]
        for (i, j), pert in zip(pairs, _poly2(coeffs, x)):
            rows[i][j] = rows[j][i] = pert + 1.0 if i == j else pert
        return rows

    return RiemannMetric(dim, fn, name=name)


def _calibration(metric: RiemannMetric, raw, bound, inverse):
    """The scale that brings the raw field v to v.M.v < bound^2 on the box,
    with M the metric's matrix, or its inverse for a 1-form (`inverse`):
    a float, or one per lane of a family.

    The field and M are evaluated at every grid point of every lane at once
    (one float pass of `_poly2`), and v.M.v is one stacked
    `riemann.bilinear`; a stacked inverse and each bilinear row are
    bit-equal to the per-point ones, and the max over a lane's grid is
    exact.
    """
    lanes = raw[0].shape[1:]
    grid = [g.reshape(g.shape + (1,) * len(lanes)) for g in _box_grid(metric.dim)]
    mats = _grid_stack(metric.matrix(grid), lanes)
    if inverse:
        mats = riemann.spd_inverse(mats, riemann.MetricDomainError, f"{metric.name} matrix")
    V = _grid_stack(_poly2(raw, grid), lanes)
    worst = np.max(riemann.bilinear(V, mats, V), axis=-1, initial=0.0)
    return bound / np.maximum(np.sqrt(worst), 1e-9)


def _scaled(scale, v):
    """scale * v, v a jet, a float or an array of lane values, and scale a
    float or one per lane of a family: each lane by its lane's scale, as a
    float multiplies a jet (its coefficients) or a float."""
    if isinstance(v, Jet):
        return Jet(v.space, v.coeffs * np.asarray(scale)[..., None])
    return scale * v


def _shifted(shift, v):
    """shift + v, lane by lane as `_scaled`: a float adds to a jet as its
    constant jet (every coefficient, zeros included, takes an addition)."""
    if isinstance(v, Jet):
        return v + Jet.constant(shift, v.space)
    return shift + v


def _calibrated_field(metric: RiemannMetric, raw, bound, name, inverse=False) -> VectorField:
    """The raw quadratic field rescaled by its `_calibration` on the box."""
    scale = _calibration(metric, raw, bound, inverse)
    return VectorField(lambda x: [_scaled(scale, v) for v in _poly2(raw, x)], name=name)


def randers_data(coeffs) -> RandersData:
    """Random valid Randers data from `draw_calibrated` coefficients (one draw
    or a family): b is rescaled below 0.45."""
    alpha = _riemann_metric(coeffs[0], "alpha(random-randers)")
    beta = _calibrated_field(alpha, coeffs[1], 0.45, "beta(random-randers)", inverse=True)
    return RandersData(alpha=alpha, beta=beta, name="random-randers")


def navigation_data(coeffs) -> NavigationData:
    """Random valid navigation data from `draw_calibrated` coefficients (one
    draw or a family): ||W||_h is rescaled below 0.5 on the box."""
    h = _riemann_metric(coeffs[0], "h(random-nav)")
    W = _calibrated_field(h, coeffs[1], 0.5, "W(random-nav)")
    return NavigationData(h=h, W=W, name="random-nav")


def vector_field(coeffs) -> VectorField:
    """The random quadratic field of `draw_vector_field` coefficients (one
    draw or a family)."""
    return VectorField(lambda x: _poly2(coeffs, x), name="random-v")


def riemann_metric(coeffs) -> RiemannMetric:
    """Identity plus the symmetric quadratic perturbation of
    `draw_riemann_metric` coefficients (one draw or a family)."""
    return _riemann_metric(coeffs, "random-h")


def scalar_field(coeffs) -> ScalarField:
    """The random quadratic function of `draw_scalar_field` coefficients (one
    draw or a family)."""
    return ScalarField(lambda x: _poly2(coeffs, x)[0], name="random-f")


def conformal_navigation(coeffs):
    """Euclidean navigation data whose W is an exact conformal field, from
    `draw_conformal` coefficients (one draw or a family).

    W = a + (lam I + A) x + 2<x,k> x - |x|^2 k with A antisymmetric is
    conformal for the flat metric with factor (lam + 2<k,x>)/2, so the
    isotropic S-curvature function is sigma(x) = -(lam + 2<k,x>)/2 exactly.
    Each coefficient multiplies (`_scaled`) or adds (`_shifted`) lane by lane.
    Returns (nav, sigma_field, c_field).
    """
    a, lam, A, k = coeffs
    dim = len(a)
    A = A - np.swapaxes(A, 0, 1)

    def w_fn(x):
        xk = 0.0
        x2 = 0.0
        for i in range(dim):
            xk = xk + _scaled(k[i], x[i])
            x2 = x2 + x[i] * x[i]
        out = []
        for i in range(dim):
            v = _shifted(a[i], _scaled(lam, x[i]))
            for j in range(dim):
                v = v + _scaled(A[i, j], x[j])
            out.append(v + 2.0 * xk * x[i] - _scaled(k[i], x2))
        return out

    def c_fn(x):
        xk = 0.0
        for i in range(dim):
            xk = xk + _scaled(k[i], x[i])
        return 0.5 * _shifted(lam, 2.0 * xk)

    nav = NavigationData(h=euclidean_metric(dim), W=VectorField(w_fn, name="conformal-w"),
                         name="conformal-euclidean")
    sigma = ScalarField(lambda x: -c_fn(x), name="sigma")
    c = ScalarField(c_fn, name="c")
    return nav, sigma, c


# -- one draw, built -----------------------------------------------------------------------


def random_randers(rng, dim) -> RandersData:
    """Random valid Randers data on the box: b is rescaled below 0.45."""
    return randers_data(draw_calibrated(rng, dim))


def sample_box_point(rng, dim) -> np.ndarray:
    return rng.uniform(-BOX, BOX, size=dim)
