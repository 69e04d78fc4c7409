"""Generic Finsler engine built on the spray.

From any jet-evaluable F(x, y) this module produces the fundamental and
Cartan tensors, geodesic spray coefficients, the Riemann curvature operator
R^i_k, Ricci and weighted Ricci curvatures, distortion, S-curvature and its
rate of change along the geodesic flow, Lie derivatives of F^2, and a
least-squares scalar flag-curvature fit.

`evaluate_flag` is the one evaluation per flag: a single fourth-order
expansion of F^2 yields Ric, S, S-dot, Ric_inf and the flag-curvature fit
together.  Its x-only work is a `BasePoint` (`base_point`): the metric's
stage at x and the log-density table, built once per sample point and shared
by every direction evaluated there.  The single-quantity functions (`ricci`,
`s_dot`, `weighted_ricci`, `flag_curvature_fit`) read the same evaluation in
jet mode.

Curvature comes exclusively from the spray,

    G^i = 1/4 g^il { [F^2]_{x^m y^l} y^m - [F^2]_{x^l} },
    R^i_k = 2 dG^i/dx^k - d^2G^i/(dx^j dy^k) y^j
            + 2 G^j d^2G^i/(dy^j dy^k) - dG^i/dy^j dG^j/dy^k,

so the Riemannian module's Christoffel path stays an independent oracle.
The second spray derivatives consume mixed fourth-order coefficients of F^2
(x-degree <= 2, y-degree <= 4), hence the engine expands F^2 internally to
total degree 4 even though the public jet lift is capped at 3.  No formula
reads a coefficient of x-degree above 2, so F^2 is expanded only to x-degree
<= 2 and total degree <= 4 (`jets.flag_space`); the monomials cut off form
an ideal, so the kept coefficients are exact.

A metric is staged: `FinslerMetric.at(x)` does the x-only work and returns
F(x, .) as a function of y.  The engine passes x as order-2 jets over the n
x-variables and y as jets over the 2n flag coordinates; jet arithmetic
prefix-embeds the x-only intermediate results where they meet y (see
`jets`), so fields of x alone cost n-variable products at order 2, once per
stage, and F^2 comes out over all 2n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jets, riemann
from .jets import FlagPoint, Jet, fd_derivative, scalar_value
from .riemann import RiemannMetric, VectorField, as_scalar_field


class FlagDomainError(ArithmeticError):
    """The metric is invalid at the requested flag (F <= 0 or g not PD)."""


class ParameterError(ValueError):
    """An effective-dimension or configuration parameter is out of range."""


class FinslerMetric:
    """A Finsler norm F(x, y), jet-evaluable in all 2n coordinates.

    `at(x)` is the metric's point stage: F(x, .) as a function of y alone.
    A metric built with `from_stage` does its x-only work (fields, guards,
    products of x-only factors) once per stage, so every direction at one
    point shares it; `FinslerMetric(dim, fn)` with `fn(x, y)` stages as
    `lambda y: fn(x, y)`.  `F` and `value` both go through the stage.
    """

    def __init__(self, dim: int, fn, name=""):
        self.dim = dim
        self._at = lambda x: lambda y: fn(x, y)
        self.name = name

    @classmethod
    def from_stage(cls, dim: int, at, name="") -> "FinslerMetric":
        """The metric whose stage at x is `at(x)`, a function of y."""
        metric = cls(dim, None, name)
        metric._at = at
        return metric

    def at(self, x):
        return self._at(x)

    def F(self, x, y):
        return self.at(x)(y)

    def value(self, x, y) -> float:
        return float(scalar_value(self.at(list(x))(list(y))))

    @classmethod
    def from_riemannian(cls, h: RiemannMetric, name="") -> "FinslerMetric":
        n = h.dim

        def at(x):
            rows = h.matrix(x)

            def F(y):
                quad = 0.0
                for i in range(n):
                    for j in range(n):
                        quad = quad + rows[i][j] * y[i] * y[j]
                return jets.sqrt(quad)

            return F

        return cls.from_stage(n, at, name or f"riemannian({h.name or 'h'})")


class Measure:
    """A smooth measure dm = sigma(x) dx given by its density function."""

    def __init__(self, density_fn, name=""):
        self._fn = density_fn
        self.name = name

    def density(self, x):
        return self._fn(x)

    def log_density_table(self, x, order=2):
        return riemann.scalar_table(lambda xs: jets.log(self._fn(xs)), x, order)

    @classmethod
    def riemannian(cls, h: RiemannMetric) -> "Measure":
        return cls(h.sqrt_det, name=f"vol({h.name or 'h'})")

    def weighted(self, f) -> "Measure":
        """The measure e^{-f} dm relative to this one."""
        f = as_scalar_field(f)
        base = self._fn
        return Measure(lambda x: jets.exp(-f(x)) * base(x),
                       name=f"e^-{f.name or 'f'} {self.name}")


# -- F^2 partial tables -------------------------------------------------------


def _stage(metric: FinslerMetric, x, order: int):
    """The metric's stage at x for an order-`order` expansion: x enters as
    jets of order min(order, 2) over the n x-variables (see the module notes)."""
    return metric.at(Jet.variables([float(v) for v in x], min(order, 2)))


def _f2_jet(stage, y, order: int) -> Jet:
    """F^2 as a jet over `jets.flag_space(n, order)` from the stage at x
    (`_stage` at this order, or a `BasePoint`'s for orders 2 to 4)."""
    n = len(y)
    flag_space = jets.flag_space(n, order)
    ys = [Jet.variable(float(v), n + k, flag_space) for k, v in enumerate(y)]
    F = stage(ys)
    if not isinstance(F, Jet):
        raise FlagDomainError("metric does not depend on the flag coordinates")
    if F.value <= 0.0:
        raise FlagDomainError(f"F = {F.value!r} <= 0 at the requested flag")
    F = F.embedded(flag_space)
    return F * F


# (x-degree, y-degree) of the partial tables an expansion of the given order adds.
_Q_TABLES = {1: ((1, 0), (0, 1)), 2: ((1, 1), (0, 2)), 3: ((1, 2), (0, 3)),
             4: ((2, 0), (2, 1), (2, 2), (1, 3), (0, 4))}


@lru_cache(maxsize=None)
def _f2_index(n: int, order: int) -> dict:
    """Coefficient positions of every Q table of an (n, order) F^2 expansion.

    Q{a}{b}[k1..ka, i1..ib] is d^a/dx^k d^b/dy^i of F^2: its first a axes
    range over the x variables and its last b over the y variables, at
    offset n (`jets.tensor_index`), so each table is one gather from the
    jet's coefficient vector times its factorials.
    """
    space = jets.flag_space(n, order)
    return {f"Q{a}{b}": jets.tensor_index(space, a + b, n, (0,) * a + (n,) * b)
            for level in range(1, order + 1) for a, b in _Q_TABLES[level]}


def _f2_tables(stage, y, order: int) -> dict:
    """Partial derivatives of F^2 at (x, y), grouped by (x-degree, y-degree),
    from the stage at x (see `_f2_jet`)."""
    n = len(y)
    f2 = _f2_jet(stage, y, order)
    partials = f2.coeffs * f2.space.factorials
    T = {"n": n, "F2": f2.value, "F": math.sqrt(f2.value)}
    for name, pos in _f2_index(n, order).items():
        T[name] = partials[pos]
    return T


def _fundamental(T):
    g = 0.5 * T["Q02"]
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise FlagDomainError("fundamental tensor not positive definite at flag") from exc
    return g, np.linalg.inv(g)


def _d2_inverse(ginv, first, second, mixed):
    """d_p d_k of g^{-1} given dg along the two directions and the mixed d2g:

        [k, p] = -g^-1 d2g[k, p] g^-1 + (A_k B_p + B_p A_k) g^-1,
        A_k = g^-1 first[k],  B_p = g^-1 second[p].
    """
    a = (ginv @ first)[:, None]
    b = (ginv @ second)[None, :]
    return -(ginv @ mixed @ ginv) + (a @ b + b @ a) @ ginv


def _spray_derivatives(T, y, order: int):
    """Spray G and its first (order >= 3) and second (order >= 4) derivatives.

    Index layout: dG_dx[k, i] = dG^i/dx^k, d2G_dxdy[k, p, i] = d2 G^i/dx^k dy^p.
    """
    g, ginv = _fundamental(T)
    out = {"g": g, "ginv": ginv}
    N = np.einsum("m,ml->l", y, T["Q11"]) - T["Q10"]
    out["G"] = 0.25 * ginv @ N
    if order < 3:
        return out

    dg_dx = 0.5 * T["Q12"]                                # [k,i,j]
    dg_dy = 0.5 * np.einsum("ijp->pij", T["Q03"])
    dginv_dx = -np.einsum("ia,kab,bj->kij", ginv, dg_dx, ginv)
    dginv_dy = -np.einsum("ia,pab,bj->pij", ginv, dg_dy, ginv)
    dN_dy = np.einsum("m,mlp->pl", y, T["Q12"]) + T["Q11"] - T["Q11"].T
    out["dG_dy"] = 0.25 * (np.einsum("pil,l->pi", dginv_dy, N)
                           + np.einsum("il,pl->pi", ginv, dN_dy))
    if order < 4:
        return out

    dN_dx = np.einsum("m,kml->kl", y, T["Q21"]) - T["Q20"]
    out["dG_dx"] = 0.25 * (np.einsum("kil,l->ki", dginv_dx, N)
                           + np.einsum("il,kl->ki", ginv, dN_dx))

    d2g_dxdy = 0.5 * np.einsum("kijp->kpij", T["Q13"])
    d2g_dydy = 0.5 * np.einsum("ijpq->pqij", T["Q04"])
    d2ginv_dxdy = _d2_inverse(ginv, dg_dx, dg_dy, d2g_dxdy)
    d2ginv_dydy = _d2_inverse(ginv, dg_dy, dg_dy, d2g_dydy)

    d2N_dxdy = (np.einsum("m,kmlp->kpl", y, T["Q22"]) + T["Q21"]
                - np.einsum("klp->kpl", T["Q21"]))
    d2N_dydy = (np.einsum("m,mlpq->pql", y, T["Q13"])
                + np.einsum("plq->pql", T["Q12"])
                + np.einsum("qlp->pql", T["Q12"])
                - np.einsum("lpq->pql", T["Q12"]))
    out["d2G_dxdy"] = 0.25 * (np.einsum("kpil,l->kpi", d2ginv_dxdy, N)
                              + np.einsum("kil,pl->kpi", dginv_dx, dN_dy)
                              + np.einsum("pil,kl->kpi", dginv_dy, dN_dx)
                              + np.einsum("il,kpl->kpi", ginv, d2N_dxdy))
    out["d2G_dydy"] = 0.25 * (np.einsum("pqil,l->pqi", d2ginv_dydy, N)
                              + np.einsum("pil,ql->pqi", dginv_dy, dN_dy)
                              + np.einsum("qil,pl->pqi", dginv_dy, dN_dy)
                              + np.einsum("il,pql->pqi", ginv, d2N_dydy))
    return out


# -- curvature bundle ---------------------------------------------------------


@dataclass
class CurvatureBundle:
    """All spray-level data of one flag; indices follow dG_dx[k, i] = dG^i/dx^k.

    `dF2_dy` is the y-gradient of F^2.  `cartan` is None on the
    finite-difference path, which never expands F^2 to third order.
    """

    x: np.ndarray
    y: np.ndarray
    F: float
    dF2_dy: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    cartan: np.ndarray | None
    spray: np.ndarray
    dG_dx: np.ndarray
    dG_dy: np.ndarray
    d2G_dxdy: np.ndarray
    d2G_dydy: np.ndarray
    riemann: np.ndarray
    ricci: float

    @property
    def F2(self) -> float:
        return self.F * self.F


def _assemble_riemann(y, G, dG_dx, dG_dy, d2G_dxdy, d2G_dydy):
    return (2.0 * dG_dx.T
            - np.einsum("jki,j->ik", d2G_dxdy, y)
            + 2.0 * np.einsum("j,jki->ik", G, d2G_dydy)
            - np.einsum("ji,kj->ik", dG_dy, dG_dy))


def curvature_bundle(metric: FinslerMetric, p: FlagPoint, mode: str = "jet",
                     stage=None) -> CurvatureBundle:
    """Spray, curvature operator and Ricci at one flag.

    mode="jet" assembles everything from one fourth-order expansion of F^2,
    from `stage`, the metric's stage at p.x (a `BasePoint`'s), or one built
    here; mode="fd" recomputes the outer spray derivatives by Richardson
    central differences of the pointwise spray map, as an independent
    cross-check.
    """
    if mode == "fd":
        return _curvature_bundle_fd(metric, p)
    if mode != "jet":
        raise ParameterError(f"unknown differentiation mode {mode!r}")
    if stage is None:
        stage = _stage(metric, p.x, 4)
    x, y = p.x, p.y
    T = _f2_tables(stage, y, order=4)
    D = _spray_derivatives(T, y, order=4)
    R = _assemble_riemann(y, D["G"], D["dG_dx"], D["dG_dy"], D["d2G_dxdy"], D["d2G_dydy"])
    return CurvatureBundle(x=np.asarray(x, float), y=np.asarray(y, float),
                           F=T["F"], dF2_dy=T["Q01"], g=D["g"], ginv=D["ginv"],
                           cartan=0.25 * T["Q03"],
                           spray=D["G"], dG_dx=D["dG_dx"], dG_dy=D["dG_dy"],
                           d2G_dxdy=D["d2G_dxdy"], d2G_dydy=D["d2G_dydy"],
                           riemann=R, ricci=float(np.trace(R)))


# -- finite-difference cross-check path --------------------------------------


def _pointwise_spray(metric: FinslerMetric):
    n = metric.dim

    def G_fn(z):
        T = _f2_tables(_stage(metric, z[:n], 2), z[n:], order=2)
        D = _spray_derivatives(T, np.asarray(z[n:], float), order=2)
        return D["G"]

    return G_fn


def _curvature_bundle_fd(metric: FinslerMetric, p: FlagPoint,
                         step1: float = 1e-5, step2: float = 3e-4) -> CurvatureBundle:
    n = metric.dim
    x, y = np.asarray(p.x, float), np.asarray(p.y, float)
    z0 = np.concatenate([x, y])
    scale = max(1.0, float(np.max(np.abs(z0))))
    G_fn = _pointwise_spray(metric)

    T = _f2_tables(_stage(metric, x, 2), y, order=2)
    g, ginv = _fundamental(T)
    G = G_fn(z0)

    def dcomp(i, multi, step):
        return fd_derivative(lambda *z: G_fn(np.asarray(z))[i], z0, multi, step=step)

    def unit(a, b=None):
        m = [0] * (2 * n)
        m[a] += 1
        if b is not None:
            m[b] += 1
        return tuple(m)

    dG_dx = np.array([[dcomp(i, unit(k), step1 * scale) for i in range(n)] for k in range(n)])
    dG_dy = np.array([[dcomp(i, unit(n + k), step1 * scale) for i in range(n)] for k in range(n)])
    d2G_dxdy = np.array([[[dcomp(i, unit(k, n + q), step2 * scale) for i in range(n)]
                          for q in range(n)] for k in range(n)])
    d2G_dydy = np.array([[[dcomp(i, unit(n + pp, n + q), step2 * scale) for i in range(n)]
                          for q in range(n)] for pp in range(n)])

    R = _assemble_riemann(y, G, dG_dx, dG_dy, d2G_dxdy, d2G_dydy)
    return CurvatureBundle(x=x, y=y, F=T["F"], dF2_dy=T["Q01"], g=g, ginv=ginv,
                           cartan=None, spray=G,
                           dG_dx=dG_dx, dG_dy=dG_dy, d2G_dxdy=d2G_dxdy,
                           d2G_dydy=d2G_dydy, riemann=R, ricci=float(np.trace(R)))


# -- single-quantity operations ----------------------------------------------


def fundamental_tensor(metric: FinslerMetric, p: FlagPoint) -> np.ndarray:
    T = _f2_tables(_stage(metric, p.x, 2), p.y, order=2)
    g, _ = _fundamental(T)
    return g


def cartan_tensor(metric: FinslerMetric, p: FlagPoint) -> np.ndarray:
    T = _f2_tables(_stage(metric, p.x, 3), p.y, order=3)
    return 0.25 * T["Q03"]


def spray(metric: FinslerMetric, p: FlagPoint) -> np.ndarray:
    T = _f2_tables(_stage(metric, p.x, 2), p.y, order=2)
    return _spray_derivatives(T, p.y, order=2)["G"]


def riemann_curvature(metric: FinslerMetric, p: FlagPoint, mode="jet") -> np.ndarray:
    return curvature_bundle(metric, p, mode=mode).riemann


def ricci(metric: FinslerMetric, p: FlagPoint, mode="jet") -> float:
    return curvature_bundle(metric, p, mode=mode).ricci


def distortion(metric: FinslerMetric, measure: Measure, p: FlagPoint) -> float:
    """tau = log( sqrt(det g(x, y)) / sigma(x) )."""
    T = _f2_tables(_stage(metric, p.x, 2), p.y, order=2)
    g, _ = _fundamental(T)
    det = float(np.linalg.det(g))
    if det <= 0.0:
        raise FlagDomainError("det g <= 0 at flag")
    sigma = float(scalar_value(measure.density([float(v) for v in p.x])))
    if sigma <= 0.0:
        raise jets.EvaluationError(f"measure density must be positive, got {sigma!r}")
    return 0.5 * math.log(det) - math.log(sigma)


def _s_value(dG_dy, y, logs) -> float:
    """S = dG^i/dy^i - y^i d_i log sigma, from the spray's y-derivative."""
    return float(np.trace(dG_dy) - np.dot(y, logs[1]))


def _s_order3(metric: FinslerMetric, measure: Measure, x, y) -> float:
    """S alone, from a third-order expansion of F^2."""
    y = np.asarray(y, float)
    base = base_point(metric, measure, x)
    T = _f2_tables(base.stage, y, order=3)
    D = _spray_derivatives(T, y, order=3)
    return _s_value(D["dG_dy"], y, base.logs)


def s_curvature(metric: FinslerMetric, measure: Measure, p: FlagPoint) -> float:
    """S(x, y) = dG^i/dy^i - y^i d_i log sigma."""
    return _s_order3(metric, measure, p.x, p.y)


def s_dot(metric: FinslerMetric, measure: Measure, p: FlagPoint, mode="jet") -> float:
    """Rate of change of S along the geodesic flow: y.dS/dx - 2G.dS/dy."""
    if mode == "fd":
        return _s_dot_fd(metric, measure, p)
    return evaluate_flag(metric, measure, p).s_dot


def _s_dot_fd(metric: FinslerMetric, measure: Measure, p: FlagPoint,
              step: float = 1e-5) -> float:
    n = metric.dim
    z0 = np.concatenate([np.asarray(p.x, float), np.asarray(p.y, float)])
    scale = max(1.0, float(np.max(np.abs(z0))))

    def S_fn(*z):
        return _s_order3(metric, measure, z[:n], z[n:])

    G = spray(metric, p)
    dS = np.array([fd_derivative(S_fn, z0, tuple(1 if i == k else 0 for i in range(2 * n)),
                                 step=step * scale) for k in range(2 * n)])
    return float(np.dot(p.y, dS[:n]) - 2.0 * np.dot(G, dS[n:]))


def weighted_ricci(metric: FinslerMetric, measure: Measure, p: FlagPoint,
                   N: float = math.inf, mode="jet") -> float:
    """Ric_N = Ric + S-dot - S^2/(N - n); Ric_inf drops the last term."""
    n = metric.dim
    if N <= n:
        raise ParameterError(f"effective dimension N must exceed n = {n}")
    if mode == "jet":
        ev = evaluate_flag(metric, measure, p)
        ric_inf, S = ev.ric_inf, ev.S
    else:
        ric_inf = ricci(metric, p, mode=mode) + s_dot(metric, measure, p, mode=mode)
        S = s_curvature(metric, measure, p) if math.isfinite(N) else 0.0
    return ric_inf if math.isinf(N) else ric_inf - S * S / (N - n)


def lie_scalar(fn2n, v: VectorField, p: FlagPoint) -> float:
    """Lie derivative along the complete lift of V of a scalar Phi(x, y):

        L Phi = V^i dPhi/dx^i + y^j dV^i/dx^j dPhi/dy^i
    """
    n = p.dim
    zs = Jet.variables(list(p.x) + list(p.y), 1)
    phi = fn2n(zs[:n], zs[n:])
    if not isinstance(phi, Jet):
        return 0.0
    grad = phi.gradient()
    v0, dv = v.table(p.x, order=1)
    ydv = np.einsum("j,ij->i", p.y, dv)
    return float(np.dot(v0, grad[:n]) + np.dot(ydv, grad[n:]))


def lie_F2(metric: FinslerMetric, v: VectorField, p: FlagPoint) -> float:
    """Lie derivative of F^2 along the complete lift of V."""
    return lie_scalar(lambda xs, ys: metric.F(xs, ys) ** 2, v, p)


@dataclass(frozen=True)
class FlagCurvature:
    value: float
    residual: float
    flat: bool


def _flag_curvature(b: CurvatureBundle) -> FlagCurvature:
    """Least-squares K with R^i_k ~ K (F^2 delta^i_k - F F_{y^k} y^i).

    The residual is the Frobenius misfit relative to |R|; a vanishing R is
    reported as flat with K = 0 and residual 0.
    """
    F2 = b.F2
    A = F2 * np.eye(b.y.size) - 0.5 * np.outer(b.y, b.dF2_dy)
    R = b.riemann
    normR = float(np.linalg.norm(R))
    if normR <= 1e-11 * F2 * F2 + 1e-300:
        return FlagCurvature(0.0, 0.0, True)
    K = float(np.sum(R * A) / np.sum(A * A))
    residual = float(np.linalg.norm(R - K * A) / normR)
    return FlagCurvature(K, residual, False)


def flag_curvature_fit(metric: FinslerMetric, p: FlagPoint, mode="jet") -> FlagCurvature:
    """Scalar flag-curvature fit at one flag (see `_flag_curvature`)."""
    return _flag_curvature(curvature_bundle(metric, p, mode=mode))


# -- one evaluation per flag ------------------------------------------------------


@dataclass(frozen=True)
class BasePoint:
    """The x-only work at one sample point, shared by every flag there: the
    metric's stage at x as order-2 jets (serves expansions of order 2 to 4)
    and the order-2 log-density table of the measure."""

    x: np.ndarray
    stage: object
    logs: tuple


def base_point(metric: FinslerMetric, measure: Measure, x) -> BasePoint:
    """The base point of (metric, measure) at x."""
    return BasePoint(x=np.asarray(x, float), stage=_stage(metric, x, 4),
                     logs=measure.log_density_table(x, order=2))


@dataclass(frozen=True)
class FlagEvaluation:
    """Every per-flag quantity of the soliton laws, from one order-4 expansion."""

    bundle: CurvatureBundle
    S: float
    dS_dx: np.ndarray
    dS_dy: np.ndarray
    s_dot: float
    ric_inf: float
    flag_curvature: FlagCurvature


def evaluate_flag(metric: FinslerMetric, measure: Measure, p: FlagPoint,
                  base: BasePoint | None = None) -> FlagEvaluation:
    """Bundle, S, its derivatives, S-dot, Ric_inf and the K-fit at one flag.

    `base` is `base_point(metric, measure, p.x)`; it depends on x only, so
    callers evaluating several flags at one point build it once and pass it
    in.  Without it, the flag builds its own.
    """
    if base is None:
        base = base_point(metric, measure, p.x)
    elif not np.array_equal(base.x, p.x):
        raise ValueError("base point and flag are at different x")
    b = curvature_bundle(metric, p, stage=base.stage)
    logs = base.logs
    y = b.y
    S = _s_value(b.dG_dy, y, logs)
    dS_dx = np.einsum("kii->k", b.d2G_dxdy) - np.einsum("i,ki->k", y, logs[2])
    dS_dy = np.einsum("kii->k", b.d2G_dydy) - logs[1]
    sdot = float(np.dot(y, dS_dx) - 2.0 * np.dot(b.spray, dS_dy))
    return FlagEvaluation(bundle=b, S=S, dS_dx=dS_dx, dS_dy=dS_dy, s_dot=sdot,
                          ric_inf=b.ricci + sdot, flag_curvature=_flag_curvature(b))
