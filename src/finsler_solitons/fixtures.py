"""Built-in soliton fixtures: flat Gaussian-type data, the rotationally
symmetric steady soliton on the plane, and shrinking/expanding cylinders over
odd spheres, each packaged as navigation data + measure + expected scalars.

Every fixture is a gradient soliton for the measure e^{-f} dm_BH; the plane
and Gaussian fixtures are additionally Einstein, so the vector-field
characterizations apply to them with V = 0.  Sample domains avoid chart
singularities (the t > 0 axis on the plane, the cone point of the warped
cylinder, the hemisphere chart boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import randers
from .finsler import FinslerMetric, Measure
from .randers import NavigationData, RandersData
from .riemann import RiemannMetric, ScalarField, VectorField, euclidean_metric


class ConstructionError(ValueError):
    """Fixture parameters violate a structural identity."""


@dataclass
class Fixture:
    """A metric + measure + expected-scalar package for the check suites."""

    name: str
    dim: int
    nav: NavigationData
    rd: RandersData
    metric: FinslerMetric
    measure: Measure
    f: ScalarField
    kappa: ScalarField                  # soliton scalar of (F, measure)
    sigma: ScalarField                  # isotropic S-curvature value
    mu_soliton: ScalarField             # soliton scalar of the Riemannian pair (h, f)
    zero_field: VectorField
    einstein_kappa: ScalarField | None = None   # Einstein scalar of F, when F is Einstein
    mu_einstein_h: ScalarField | None = None    # Einstein scalar of h, when h is Einstein
    ricci_law: object = None            # callable x -> expected Ric/F^2
    flag_curvature_law: object = None   # callable x -> expected K
    sample_x: object = None             # callable rng -> chart point
    bundles: tuple = ()
    constraints: dict = field(default_factory=dict)


def _ball_sampler(dim, radius, offset=None):
    """Uniform points of the ball; `offset(rng)`, drawn first, is prepended."""
    def sample(rng):
        head = [] if offset is None else [offset(rng)]
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        r = radius * rng.uniform() ** (1.0 / dim)
        return np.concatenate([head, r * u])

    return sample


def _shift(field_or_const, eps):
    f = field_or_const
    if isinstance(f, ScalarField):
        return ScalarField(lambda x, _f=f: _f(x) + eps, name=f"{f.name}+{eps}")
    return ScalarField(float(f) + eps)


def _bump_f(f: ScalarField, eps):
    return ScalarField(lambda x, _f=f: _f(x) + eps * x[0] * x[0], name=f"{f.name}+bump")


def _bump_w(w: VectorField, eps):
    def fn(x, _w=w):
        comps = list(_w.components(x))
        comps[0] = comps[0] + eps * x[0]
        return comps

    return VectorField(fn, name=f"{w.name}+bump")


def _assemble(name, nav, f, kappa, sigma, mu_soliton, bundles, sample_x,
              perturb=None, einstein_kappa=None, mu_einstein_h=None,
              ricci_law=None, flag_curvature_law=None, constraints=None):
    kappa = kappa if isinstance(kappa, ScalarField) else ScalarField(kappa)
    sigma = sigma if isinstance(sigma, ScalarField) else ScalarField(sigma)
    mu_soliton = mu_soliton if isinstance(mu_soliton, ScalarField) else ScalarField(mu_soliton)
    if perturb is not None:
        ingredient, eps = perturb
        if ingredient == "f":
            f = _bump_f(f, eps)
        elif ingredient == "W":
            nav = NavigationData(nav.h, _bump_w(nav.W, eps), name=nav.name)
        elif ingredient == "kappa":
            kappa = _shift(kappa, eps)
        elif ingredient == "mu":
            mu_soliton = _shift(mu_soliton, eps)
            if mu_einstein_h is not None:
                mu_einstein_h = _shift(mu_einstein_h, eps)
        elif ingredient == "sigma":
            sigma = _shift(sigma, eps)
        else:
            raise ConstructionError(f"unknown perturbation ingredient {ingredient!r}")
    rd = randers.from_navigation(nav)
    metric = randers.finsler_from_navigation(nav)
    metric.name = name
    measure = randers.bh_measure(rd).weighted(f)
    return Fixture(name=name, dim=nav.dim, nav=nav, rd=rd, metric=metric,
                   measure=measure, f=f, kappa=kappa, sigma=sigma,
                   mu_soliton=mu_soliton,
                   zero_field=VectorField(lambda x, _n=nav.dim: [0.0] * _n, name="zero"),
                   einstein_kappa=einstein_kappa, mu_einstein_h=mu_einstein_h,
                   ricci_law=ricci_law, flag_curvature_law=flag_curvature_law,
                   sample_x=sample_x, bundles=tuple(bundles),
                   constraints=constraints or {})


# -- flat Gaussian-type fixtures -------------------------------------------------------


def gaussian(rho=1.0, Q=None, C=None, n=2, radius=0.9, perturb=None) -> Fixture:
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
    wmax = radius * float(np.linalg.norm(Q, 2)) + float(np.linalg.norm(C))
    if wmax >= 1.0:
        raise ConstructionError(
            f"||W|| reaches {wmax:.3f} >= 1 on the sample ball; shrink Q, C or radius")

    def w_fn(x):
        return [sum(Q[i, j] * x[j] for j in range(n)) + C[i] for i in range(n)]

    nav = NavigationData(h=euclidean_metric(n), W=VectorField(w_fn, name="Qx+C"),
                         name="gaussian")
    f = ScalarField(lambda x: 0.5 * rho * sum(v * v for v in x), name="rho|x|^2/2")
    randers_like = float(np.max(np.abs(Q))) > 0.0 or float(np.max(np.abs(C))) > 0.0
    bundles = ["gradient-ab", "gradient-nav"]
    if randers_like:
        bundles += ["vector-ab", "vector-nav"]
    name = "gaussian" if randers_like else "gaussian-riemannian"
    return _assemble(
        name=name, nav=nav, f=f, kappa=float(rho), sigma=0.0, mu_soliton=float(rho),
        bundles=bundles, sample_x=_ball_sampler(n, radius), perturb=perturb,
        einstein_kappa=ScalarField(0.0), mu_einstein_h=ScalarField(0.0),
        ricci_law=lambda x: 0.0, flag_curvature_law=lambda x: 0.0)


def _default_rotation(n, scale=0.5):
    Q = np.zeros((n, n))
    Q[0, 1], Q[1, 0] = scale, -scale
    return Q


# -- steady soliton on the plane --------------------------------------------------------


def cigar(t_range=(0.2, 2.0), perturb=None) -> Fixture:
    """Rotationally symmetric steady gradient soliton on the (t, theta) half plane.

    h = dt^2 + tanh^2(t) dtheta^2, W = d/dtheta, f = -2 log cosh t.  The
    metric is Einstein with scalar 2/cosh^2 t, which doubles as the Ricci and
    flag-curvature law used by the acceptance suite.
    """
    from . import jets

    def h_fn(x):
        return [[1.0, 0.0], [0.0, jets.tanh(x[0]) ** 2]]

    nav = NavigationData(h=RiemannMetric(2, h_fn, name="cigar-h"),
                         W=VectorField(lambda x: [0.0, 1.0], name="dtheta"),
                         name="cigar")
    f = ScalarField(lambda x: -2.0 * jets.log(jets.cosh(x[0])), name="-2 log cosh t")
    law = lambda x: 2.0 / math.cosh(float(x[0])) ** 2

    def sample_x(rng):
        return np.array([rng.uniform(*t_range), rng.uniform(0.0, 2.0 * math.pi)])

    return _assemble(
        name="cigar", nav=nav, f=f, kappa=0.0, sigma=0.0, mu_soliton=0.0,
        bundles=("gradient-ab", "gradient-nav", "vector-ab", "vector-nav"),
        sample_x=sample_x, perturb=perturb,
        einstein_kappa=ScalarField(law, name="2/cosh^2 t"),
        mu_einstein_h=ScalarField(law, name="2/cosh^2 t"),
        ricci_law=law, flag_curvature_law=law)


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


def _default_cylinder_qd(m, mu, l=0.5):
    # d along e_1; Q = sqrt(mu) l J with J an antisymmetric complex structure
    # on the 2(m-1)-dimensional complement, so Q^T Q + mu d d^T = mu l^2 E
    k = 2 * m - 1
    Q = np.zeros((k, k))
    s = math.sqrt(mu) * l
    for b in range(m - 1):
        i, j = 1 + 2 * b, 2 + 2 * b
        Q[i, j], Q[j, i] = s, -s
    d = np.zeros(k)
    d[0] = l
    return Q, d


def _cylinder(name, h_name, m, mu, Q, d, t_range, radius, warp, f, kap, perturb):
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

    nav = NavigationData(h=RiemannMetric(k + 1, h_fn, name=h_name),
                         W=VectorField(w_fn, name="(0,What)"), name=name)
    sample_x = _ball_sampler(k, radius, offset=lambda rng: rng.uniform(*t_range))
    return _assemble(
        name=name, nav=nav, f=f, kappa=kap, sigma=0.0, mu_soliton=kap,
        bundles=("gradient-ab", "gradient-nav"), sample_x=sample_x, perturb=perturb,
        constraints=checks)


def shrinking_cylinder(m=2, mu=1.0, Q=None, d=None, t_range=(-1.2, 1.2),
                       perturb=None) -> Fixture:
    """Product cylinder over an odd sphere of curvature mu: a gradient shrinker.

    h^2 = dt^2 + hat-h^2 on R x S^{2m-1} in the upper-hemisphere projective
    chart, W the sphere Killing field built from (Q, d) subject to
    Q^T Q + mu d d^T = mu |d|^2 E and Q d = 0, and f = (m-1) mu t^2, giving
    soliton constant 2 (m-1) mu.
    """
    f = ScalarField(lambda z: (m - 1) * mu * z[0] * z[0], name="(m-1) mu t^2")
    return _cylinder("shrinking", "cylinder-h", m, mu, Q, d, t_range,
                     radius=2.0 / math.sqrt(mu), warp=None, f=f,
                     kap=2.0 * (m - 1) * mu, perturb=perturb)


def expanding_cylinder(m=2, Q=None, d=None, t_range=(0.21, 0.89), perturb=None) -> Fixture:
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
                     radius=2.0, warp=lambda t: t * t, f=f, kap=-2.0 * (m - 1),
                     perturb=perturb)


# -- registry ---------------------------------------------------------------------------


def _registry():
    return {
        "gaussian": lambda perturb=None: gaussian(rho=1.0, Q=_default_rotation(2),
                                                  n=2, perturb=perturb),
        "gaussian-riemannian": lambda perturb=None: gaussian(rho=1.0, n=2, perturb=perturb),
        "cigar": lambda perturb=None: cigar(perturb=perturb),
        "shrinking": lambda perturb=None: shrinking_cylinder(perturb=perturb),
        "expanding": lambda perturb=None: expanding_cylinder(perturb=perturb),
    }


FIXTURE_NAMES = tuple(_registry().keys())


def get_fixture(name: str, perturb=None) -> Fixture:
    reg = _registry()
    if name not in reg:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return reg[name](perturb=perturb)
