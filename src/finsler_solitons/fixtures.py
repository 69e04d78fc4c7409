"""Built-in soliton fixtures: flat Gaussian-type data, the rotationally
symmetric steady soliton on the plane, and shrinking/expanding cylinders over
odd spheres.

Every fixture is one navigation construction (Bao-Robles-Shen 2004): a
Riemannian gradient soliton (h, f, kappa), Ric_h + Hess_h f = kappa h, and a
Killing field W of h with W(f) = 0 and |W|_h < 1 on the sample domain give
the Randers metric F of (h, W), which with the measure e^{-f} dm_BH is a
gradient soliton with the same kappa and isotropic S-curvature sigma = 0;
F is Einstein exactly when h is, with the same Einstein scalar.  The
Busemann-Hausdorff volume of F is the Riemannian volume of h (Xing 2005), so
the measure is e^{-f} dm_BH = e^{-f} vol_h.  A fixture
declares (h, W, f, kappa), a sampler and, where they hold, the Einstein
scalar and the flag curvature; a `Fixture` is that declaration and derives
the Randers data, F and the measure.  A negative control re-declares one
ingredient (`perturbed`).  To add a fixture, build those and call
`navigation_soliton`, then add a builder to `_REGISTRY`.  Sample domains avoid
chart singularities (the t > 0 axis on the plane, the cone point of the warped
cylinder, the hemisphere chart boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import randers
from .finsler import FinslerMetric, Measure
from .randers import NavigationData, RandersData
from .riemann import (RiemannMetric, ScalarField, VectorField, as_scalar_field,
                      euclidean_metric)


class ConstructionError(ValueError):
    """Fixture parameters violate a structural identity."""


# The vector field 0: the wind of a fixture declared with W=None, and the V of
# the vector-field bundles.  Its components are x - x, zeros of x's own type,
# so at jet x a stage's x-only data stay jets over x's space (float data alone
# would expand the stage's forms over a constant space of their own).
ZERO_FIELD = VectorField(lambda x: [v - v for v in x], name="zero")


@dataclass
class Fixture:
    """A navigation soliton declaration (the init fields) and what it fixes; `rd`,
    `metric` and `measure` derive from `nav` and `f` at each build or `replace`."""

    name: str
    nav: NavigationData
    f: ScalarField
    kappa: ScalarField                  # soliton scalar of (F, measure)
    mu: ScalarField                     # soliton scalar of the Riemannian pair (h, f)
    sigma: ScalarField                  # isotropic S-curvature
    einstein: ScalarField | None        # Einstein scalar of F, when F is Einstein
    einstein_h: ScalarField | None      # Einstein scalar of h, when h is Einstein
    flag_curvature: ScalarField | None  # the flag curvature K, when it is scalar
    sample_x: object                    # callable rng -> chart point
    bundles: tuple
    constraints: dict                   # structural identity -> its float residual
    rd: RandersData = field(init=False)
    metric: FinslerMetric = field(init=False)
    measure: Measure = field(init=False)  # e^{-f} dm_BH = e^{-f} vol_h

    def __post_init__(self):
        self.rd = randers.from_navigation(self.nav)
        self.metric = randers.finsler_from_navigation(self.nav)
        self.measure = Measure.riemannian(self.nav.h).weighted(self.f)

    @property
    def dim(self) -> int:
        return self.nav.dim


def navigation_soliton(name, h: RiemannMetric, W: VectorField | None, f: ScalarField,
                       kappa, sample_x, *, einstein=None, flag_curvature=None,
                       constraints=None) -> Fixture:
    """The fixture of a navigation soliton: F from (h, W) (W=None: no wind),
    the measure e^{-f} dm_BH = e^{-f} vol_h and the soliton scalar kappa of
    (h, f).

    It fixes sigma = 0 and mu = kappa; `einstein`, when h (and so F) is
    Einstein, is the Einstein scalar of both.  `flag_curvature` is declared
    apart: an Einstein F of dim >= 3 need not have scalar flag curvature.
    Every fixture gets the two gradient bundles, and an Einstein one with
    wind the two vector bundles (with V = 0).
    """
    bundles = ("gradient-ab", "gradient-nav")
    if einstein is not None and W is not None:
        bundles += ("vector-ab", "vector-nav")
    W = ZERO_FIELD if W is None else W
    kappa = as_scalar_field(kappa)
    einstein = None if einstein is None else as_scalar_field(einstein)
    if flag_curvature is not None:
        flag_curvature = as_scalar_field(flag_curvature)
    return Fixture(name=name, nav=NavigationData(h, W, name=name), f=f, kappa=kappa,
                   mu=kappa, sigma=ScalarField(0.0), einstein=einstein, einstein_h=einstein,
                   flag_curvature=flag_curvature, sample_x=sample_x, bundles=bundles,
                   constraints=constraints or {})


def perturbed(fx: Fixture, ingredient, eps) -> Fixture:
    """fx with f or W bumped (f + eps x0^2, W^0 + eps x0), or kappa, mu (with
    einstein_h) or sigma shifted by eps: a negative control, re-derived."""
    if ingredient == "f":
        return replace(fx, f=_bump_f(fx.f, eps))
    if ingredient == "W":
        return replace(fx, nav=replace(fx.nav, W=_bump_w(fx.nav.W, eps)))
    if ingredient == "kappa":
        return replace(fx, kappa=_shift(fx.kappa, eps))
    if ingredient == "mu":
        einstein_h = None if fx.einstein_h is None else _shift(fx.einstein_h, eps)
        return replace(fx, mu=_shift(fx.mu, eps), einstein_h=einstein_h)
    if ingredient == "sigma":
        return replace(fx, sigma=_shift(fx.sigma, eps))
    raise ConstructionError(f"unknown perturbation ingredient {ingredient!r}")


def _ball_sampler(dim, radius, offset=None):
    """Uniform points of the ball; `offset(rng)`, drawn first, is prepended."""
    def sample(rng):
        head = [] if offset is None else [offset(rng)]
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        r = radius * rng.uniform() ** (1.0 / dim)
        return np.concatenate([head, r * u])

    return sample


def _shift(f: ScalarField, eps):
    return ScalarField(lambda x: f(x) + eps, name=f"{f.name}+{eps}")


def _bump_f(f: ScalarField, eps):
    return ScalarField(lambda x: f(x) + eps * x[0] * x[0], name=f"{f.name}+bump")


def _bump_w(w: VectorField, eps):
    def fn(x):
        comps = list(w.components(x))
        comps[0] = comps[0] + eps * x[0]
        return comps

    return VectorField(fn, name=f"{w.name}+bump")


# -- flat Gaussian-type fixtures -------------------------------------------------------


def gaussian(rho=1.0, Q=None, C=None, n=2) -> Fixture:
    """Euclidean navigation fixture: W = Q x + C with Q antisymmetric.

    The measure e^{-rho |x|^2 / 2} dx makes this a gradient soliton with
    scalar rho on the region where ||W|| < 1; rho != 0 forces C = 0.  The
    underlying metric is Ricci-flat, so with V = 0 it is also a trivial
    (Einstein) soliton, which is what the vector-field checks exercise.
    """
    Q = np.zeros((n, n)) if Q is None else np.asarray(Q, float)
    C = np.zeros(n) if C is None else np.asarray(C, float)
    if Q.shape != (n, n):
        raise ConstructionError(f"Q must be {n}x{n}")
    if np.max(np.abs(Q + Q.T)) != 0.0:
        raise ConstructionError("Q must be antisymmetric: Q + Q^T != 0")
    if rho != 0.0 and np.max(np.abs(C)) != 0.0:
        raise ConstructionError("a drift C != 0 is only allowed in the steady case rho = 0")
    radius = 0.9  # of the sample ball, which must lie where ||W|| < 1
    wmax = radius * float(np.linalg.norm(Q, 2)) + float(np.linalg.norm(C))
    if wmax >= 1.0:
        raise ConstructionError(
            f"||W|| reaches {wmax:.3f} >= 1 on the sample ball; shrink Q, C or radius")

    wind = bool(Q.any() or C.any())

    def w_fn(x):
        return [sum(Q[i, j] * x[j] for j in range(n)) + C[i] for i in range(n)]

    f = ScalarField(lambda x: 0.5 * rho * sum(v * v for v in x), name="rho|x|^2/2")
    return navigation_soliton(
        "gaussian" if wind else "gaussian-riemannian", euclidean_metric(n),
        VectorField(w_fn, name="Qx+C") if wind else None, f, float(rho),
        _ball_sampler(n, radius), einstein=0.0, flag_curvature=0.0)


def _default_rotation(n):
    Q = np.zeros((n, n))
    Q[0, 1], Q[1, 0] = 0.5, -0.5
    return Q


# -- steady soliton on the plane --------------------------------------------------------


def cigar() -> Fixture:
    """Rotationally symmetric steady gradient soliton on the (t, theta) half plane.

    h = dt^2 + tanh^2(t) dtheta^2, W = d/dtheta, f = -2 log cosh t.  The
    metric is Einstein with scalar 2/cosh^2 t, which in dimension 2 is also
    its flag curvature.  Samples take t in [0.2, 2.0).
    """
    from . import jets

    def h_fn(x):
        return [[1.0, 0.0], [0.0, jets.power(jets.tanh(x[0]), 2)]]

    f = ScalarField(lambda x: -2.0 * jets.log(jets.cosh(x[0])), name="-2 log cosh t")
    law = ScalarField(lambda x: 2.0 / math.cosh(float(x[0])) ** 2, name="2/cosh^2 t")

    def sample_x(rng):
        return np.array([rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0 * math.pi)])

    return navigation_soliton(
        "cigar", RiemannMetric(2, h_fn, name="cigar-h"),
        VectorField(lambda x: [0.0, 1.0], name="dtheta"), f, 0.0, sample_x,
        einstein=law, flag_curvature=law)


# -- cylinders over odd spheres ----------------------------------------------------------


def _sphere_rows(mu, x):
    """Projective-chart sphere metric rows: delta/D - mu x x^T / D^2, D = 1 + mu |x|^2."""
    k = len(x)
    x2 = 0.0
    for v in x:
        x2 = x2 + v * v
    D = 1.0 + mu * x2
    D2 = D * D
    rows = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            val = -mu * x[i] * x[j] / D2
            if i == j:
                val = val + 1.0 / D
            rows[i][j] = val
            rows[j][i] = val
    return rows


def sphere_metric(mu: float, k: int) -> RiemannMetric:
    """Round metric of curvature mu on the upper-hemisphere projective chart of S^k."""
    return RiemannMetric(k, lambda x: _sphere_rows(mu, x),
                         name=f"sphere(mu={mu})")


def _killing_sphere_field(Q, d, mu):
    k = len(d)

    def fn(x):
        xd = 0.0
        for i in range(k):
            xd = xd + d[i] * x[i]
        out = []
        for i in range(k):
            v = d[i] + mu * xd * x[i]
            for j in range(k):
                v = v + Q[i, j] * x[j]
            out.append(v)
        return out

    return VectorField(fn, name="sphere-killing")


def _validate_cylinder_data(Q, d, mu):
    # the quadratic identities hold exactly in floats for the default data
    # (mu = 1, dyadic l); for general mu a few ulps of slack are allowed
    Q = np.asarray(Q, float)
    d = np.asarray(d, float)
    slack = 64.0 * np.finfo(float).eps * max(1.0, abs(mu))
    checks = {}
    anti = float(np.max(np.abs(Q + Q.T)))
    if anti != 0.0:
        raise ConstructionError("Q + Q^T != 0 (antisymmetry fails)")
    checks["Q-antisymmetric"] = anti
    con = float(np.max(np.abs(Q.T @ Q + mu * np.outer(d, d) - mu * float(d @ d) * np.eye(len(d)))))
    if con > slack:
        raise ConstructionError("Q^T Q + mu d d^T != mu |d|^2 E")
    checks["QtQ-identity"] = con
    qd = float(np.max(np.abs(Q @ d)))
    if qd > slack:
        raise ConstructionError("Q d != 0")
    checks["Qd-zero"] = qd
    if float(d @ d) >= 1.0:
        raise ConstructionError("|d| >= 1")
    return Q, d, checks


def _default_cylinder_qd(m, mu):
    # d = l e_1 with l = 1/2; Q = sqrt(mu) l J with J an antisymmetric complex
    # structure on the 2(m-1)-dimensional complement, so Q^T Q + mu d d^T = mu l^2 E
    k, l = 2 * m - 1, 0.5
    Q = np.zeros((k, k))
    s = math.sqrt(mu) * l
    for b in range(m - 1):
        i, j = 1 + 2 * b, 2 + 2 * b
        Q[i, j], Q[j, i] = s, -s
    d = np.zeros(k)
    d[0] = l
    return Q, d


def _cylinder(name, h_name, m, mu, Q, d, t_range, radius, warp, f, kap):
    """The cylinder R x S^{2m-1} (or its warped t-range) with h^2 = dt^2 +
    warp(t) hat-h^2 (warp None: the product), W the sphere Killing field of
    (Q, d), samples t in t_range and the sphere point in a ball of `radius`."""
    if m < 2:
        raise ConstructionError("need m >= 2 (sphere dimension 2m-1 >= 3)")
    if Q is None or d is None:
        Q, d = _default_cylinder_qd(m, mu)
    Q, d, checks = _validate_cylinder_data(Q, d, mu)
    k = 2 * m - 1

    def h_fn(z):
        hat = _sphere_rows(mu, z[1:])
        rows = [[0.0] * (k + 1) for _ in range(k + 1)]
        rows[0][0] = 1.0
        t2 = None if warp is None else warp(z[0])
        for i in range(k):
            for j in range(k):
                rows[i + 1][j + 1] = hat[i][j] if t2 is None else t2 * hat[i][j]
        return rows

    what = _killing_sphere_field(Q, d, mu)

    def w_fn(z):
        return [0.0] + list(what.components(list(z[1:])))

    sample_x = _ball_sampler(k, radius, offset=lambda rng: rng.uniform(*t_range))
    return navigation_soliton(
        name, RiemannMetric(k + 1, h_fn, name=h_name), VectorField(w_fn, name="(0,What)"),
        f, kap, sample_x, constraints=checks)


def shrinking_cylinder(m=2, mu=1.0, Q=None, d=None) -> Fixture:
    """Product cylinder over an odd sphere of curvature mu: a gradient shrinker.

    h^2 = dt^2 + hat-h^2 on R x S^{2m-1} in the upper-hemisphere projective
    chart, W the sphere Killing field built from (Q, d) subject to
    Q^T Q + mu d d^T = mu |d|^2 E and Q d = 0, and f = (m-1) mu t^2, giving
    soliton constant 2 (m-1) mu.  Samples take t in [-1.2, 1.2).
    """
    f = ScalarField(lambda z: (m - 1) * mu * z[0] * z[0], name="(m-1) mu t^2")
    return _cylinder("shrinking", "cylinder-h", m, mu, Q, d, (-1.2, 1.2),
                     radius=2.0 / math.sqrt(mu), warp=None, f=f,
                     kap=2.0 * (m - 1) * mu)


def expanding_cylinder(m=2, Q=None, d=None, t_range=(0.21, 0.89)) -> Fixture:
    """Warped cylinder (0,1) x S^{2m-1} with h^2 = dt^2 + t^2 hat-h^2: an expander.

    Requires unit sphere curvature (so h is Ricci-flat); with f = -(m-1) t^2
    the soliton constant is -2(m-1).  The t-range floor keeps samples away
    from the cone point.
    """
    mu = 1.0
    if t_range[0] <= 0.0 or t_range[1] >= 1.0:
        raise ConstructionError("t-range must stay inside (0, 1)")
    f = ScalarField(lambda z: -(m - 1) * mu * z[0] * z[0], name="-(m-1) t^2")
    return _cylinder("expanding", "warped-cylinder-h", m, mu, Q, d, t_range,
                     radius=2.0, warp=lambda t: t * t, f=f, kap=-2.0 * (m - 1))


# -- registry ---------------------------------------------------------------------------


_REGISTRY = {
    "gaussian": lambda: gaussian(rho=1.0, Q=_default_rotation(2), n=2),
    "gaussian-riemannian": lambda: gaussian(rho=1.0, n=2),
    "cigar": cigar,
    "shrinking": shrinking_cylinder,
    "expanding": expanding_cylinder,
}

FIXTURE_NAMES = tuple(_REGISTRY)


def get_fixture(name: str, perturb=None) -> Fixture:
    """The registry fixture `name`, `perturbed` by `perturb` = (ingredient, eps) if given."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    fx = _REGISTRY[name]()
    return fx if perturb is None else perturbed(fx, *perturb)
