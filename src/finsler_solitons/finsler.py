"""Generic Finsler engine built on the spray.

From any jet-evaluable F(x, y) this module produces the fundamental
tensor, geodesic spray coefficients, the Riemann curvature operator R^i_k,
the Ricci curvature and the weighted Ricci curvature Ric_inf, S-curvature
and its rate of change along the geodesic flow, Lie derivatives of F^2, and
a least-squares scalar flag-curvature fit.

`evaluate_flags` is the one evaluation per flag and the one way to read
flags' quantities: a single fourth-order expansion of F^2 yields Ric, S,
S-dot and Ric_inf together; the flag-curvature fit is read off a bundle by
the callers that want it (`_flag_curvature`).  Without a measure,
`curvature_bundle` gives the spray, R and Ric alone.  Both take a stack of
flags and return one record whose fields carry a leading flag axis; F^2 is
expanded once per stack: one jet laned over the flags, from one stage laned
over their x (Taylor arithmetic vectorised over points, Griewank-Walther),
so the expansion, the Q-table gathers, the spray derivatives, R, Ric, S, dS
and S-dot each run once per stack (one pass of numpy calls over arrays with
a leading flag axis), each lane bit-equal to the flag evaluated alone.  A
stack of one flag expands unlaned.  A kappa fit (`solitons.fit_kappa`) is
one such stack.  The x-only work of a stack is one `Bases` record: the
metric's stage laned over the points (a `LaneStage`, built on first use)
and the log-density tables, one lane per point, built by `base_points` for
any metric and measure, or for all of a fixture run's flags at once by
`solitons.sample_points`; `Bases.lanes` takes lanes of it (a kappa fit
repeats each point's lane across its directions), and lanes of one stage's
data expand as one stage.

`evaluate_flags` is also the one place a flag evaluation chooses jet or
finite-difference (fd) differentiation; S-dot and Ric_inf = Ric + S-dot are
written there once for both.  The fd oracle differentiates G (the fd bundle)
and the order-3 S by Richardson central differences, flag by flag, and
stacks the flags' results once.  Both stencils read one memo of stages
(`_memo`), one per distinct stencil x and seeded with the bases' stage at
each p.x, so an fd flag on passed bases builds 8n stages and 4n log-density
tables.

Curvature comes exclusively from the spray,

    G^i = 1/4 g^il { [F^2]_{x^m y^l} y^m - [F^2]_{x^l} },
    R^i_k = 2 dG^i/dx^k - d^2G^i/(dx^j dy^k) y^j
            + 2 G^j d^2G^i/(dy^j dy^k) - dG^i/dy^j dG^j/dy^k,

so the Riemannian module's Christoffel path stays an independent oracle.
dG/dx and the second derivatives of G differentiate g_ij G^j = N_i/4 (N the
braces) by the product rule, so no derivative of g^-1 is formed.  dG/dy
keeps its g^-1-derivative form: the fd oracle differentiates the order-3 S
built on it, and the product-rule dG/dy moved an fd report by 2.9e-9.
The second spray derivatives consume mixed fourth-order coefficients of F^2
(x-degree <= 2, y-degree <= 4), hence the engine expands F^2 internally to
total degree 4 even though the public jet lift is capped at 3.  No formula
reads a coefficient of x-degree above 2, so F^2 is expanded only to x-degree
<= 2 and total degree <= 4 (`jets.flag_space`); the monomials cut off form
an ideal, so the kept coefficients are exact.

A metric is staged: `FinslerMetric.at(x)` does the x-only work and returns
F(x, .) as a function of y.  The engine passes x as order-2 jets over the n
x-variables and y as the variables n..2n-1 of the flag space, both laned
over the flags of a stack (`_stage`, `_f2_jet`); jet
arithmetic prefix-embeds the x-only intermediate results where they meet y
(see `jets`), so fields of x alone cost n-variable products at order 2, once
per stage, and F^2 comes out over all 2n.  The library stages form their
quadratic and linear forms in y with `jets.YForms`, which for these y
scatters closed-form terms instead of running n^2 jet products; an order-4
F^2 of a navigation metric then takes 8 jet products per stack of flags.
`FinslerMetric.value` reads a float F, or one per flag of a stack from one
stage at float lanes (`riemann.coordinates`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import jets, riemann
from .jets import FlagPoint, Jet, fd_estimate, scalar_value
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

    def value(self, x, y):
        """F(x, y) as a float; at a stack of flags (x and y of shape (..., n)),
        one float per flag, from one stage laned over the stack's x."""
        return scalar_value(self.at(riemann.coordinates(x))(riemann.coordinates(y)))

    @classmethod
    def from_riemannian(cls, h: RiemannMetric) -> "FinslerMetric":
        n = h.dim

        def at(x):
            forms = jets.YForms(h.matrix(x))
            return lambda y: jets.sqrt(forms(y)[0])

        return cls.from_stage(n, at, f"riemannian({h.name or 'h'})")


class Measure:
    """A smooth measure dm = sigma(x) dx given by its density function."""

    def __init__(self, density_fn, name=""):
        self._fn = density_fn
        self.name = name

    def density(self, x):
        return self._fn(x)

    def log_density_table(self, x):
        return riemann.scalar_table(lambda xs: jets.log(self._fn(xs)), x, 2)

    @classmethod
    def riemannian(cls, h: RiemannMetric) -> "Measure":
        return cls(h.sqrt_det, name=f"vol({h.name or 'h'})")

    def weighted(self, f) -> "Measure":
        """The measure e^{-f} dm relative to this one."""
        f = as_scalar_field(f)
        base = self._fn
        return Measure(lambda x: weighted_density(f(x), base(x)),
                       name=f"e^-{f.name or 'f'} {self.name}")


def weighted_density(f_value, density):
    """e^{-f} sigma: the density of e^{-f} dm from f and the density of dm."""
    return jets.exp(-f_value) * density


# -- F^2 partial tables -------------------------------------------------------


def _stage(metric: FinslerMetric, x):
    """The metric's stage at x: x enters as jets of order jets.X_ORDER over
    the n x-variables, the x-degree of the flag space (see the module
    notes), so the stage serves expansions of order 2 to 4.  At a stack of
    points x, shape (P, n), one stage laned over them."""
    return metric.at(Jet.variables(riemann.coordinates(x), jets.X_ORDER))


class LaneStage:
    """The stage at lanes `idx` of laned x-only data: `build(data)` is the
    stage at every lane, and `data` holds laned jets in nested lists and
    tuples (`jets.lane` takes its lanes; one point's unlaned data passes
    through, so its stage is unlaned at every idx).  idx is None for every
    lane, an int for one lane's unlaned stage, or an index array.
    The stage is built on the first call and kept; `lane(idx)` shares the
    data, so any lanes of one data expand as one stage."""

    __slots__ = ("build", "data", "idx", "_stage")

    def __init__(self, build, data, idx):
        self.build, self.data, self.idx = build, data, idx
        self._stage = None

    def lane(self, idx) -> "LaneStage":
        """The stage at lanes idx of this one's lanes."""
        return LaneStage(self.build, self.data, idx if self.idx is None else self.idx[idx])

    def __call__(self, y):
        if self._stage is None:
            data = self.data if self.idx is None else jets.lane(self.data, self.idx)
            self._stage = self.build(data)
        return self._stage(y)


def _f2_jet(stage, y, order: int) -> Jet:
    """F^2 as a jet over `jets.flag_space(n, order)` from the stage at x
    (`_stage` or a `Bases`' stage, for orders 2 to 4).  At a stack of
    directions y, shape (P, n), and the stage at their P points (or at one
    point), one jet laned over the flags: y enters as flag variables laned
    over the stack, and each lane is bit-equal to its flag's expansion."""
    y = np.asarray(y, float)
    n = y.shape[-1]
    flag_space = jets.flag_space(n, order)
    ys = [Jet.variable(v, n + k, flag_space) for k, v in enumerate(y.T)]
    F = stage(ys)
    if not isinstance(F, Jet):
        raise FlagDomainError("metric does not depend on the flag coordinates")
    jets.refuse(F.value <= 0.0, FlagDomainError,
                lambda k: f"F = {float(np.asarray(F.value)[k])!r} <= 0 at the requested flag")
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
    and "F", from the stage at x (see `_f2_jet`).

    At a stack of flags, y of shape (P, n) and `stage` their stage laned over
    the stack (or one stage every flag shares), the expansion is one jet
    laned over the flags, and each table is gathered once over it, one row
    per flag; a stack of one flag expands it unlaned, by an unlaned stage.  The
    gather is the coefficient rows times the factorials, then one `take`,
    which keeps the flag axis first and every table C-contiguous; an index
    `[:, pos]` would leave the flag axis innermost in memory, and the
    stacked einsums of the spray would then sum in another order.
    """
    y = np.asarray(y, float)
    f2 = _f2_jet(stage, y[0] if y.shape[:-1] == (1,) else y, order)
    coeffs = f2.coeffs.reshape(y.shape[:-1] + (-1,))
    partials = coeffs * f2.space.factorials
    T = {name: partials.take(pos, axis=-1) for name, pos in _f2_index(y.shape[-1], order).items()}
    T["F"] = np.sqrt(coeffs[..., 0])
    return T


def _fundamental(T):
    """g and g^-1 from the Q02 table, over any leading stack axes, by
    `riemann.spd_inverse`: one g that is not positive definite raises."""
    g = 0.5 * T["Q02"]
    return g, riemann.spd_inverse(g, FlagDomainError, "fundamental tensor")


def _spray_derivatives(T, y, order: int):
    """Spray G and its first (order >= 3) and second (order >= 4) derivatives.

    T and y may carry leading stack axes (one row per flag, see
    `curvature_bundle`); every index below follows them.  Index layout:
    dG_dx[k, i] = dG^i/dx^k, d2G_dxdy[k, p, i] = d2 G^i/dx^k dy^p.
    Order 4 uses the product rule on g G = N/4; dG_dy does not (module notes).
    """
    g, ginv = _fundamental(T)
    out = {"g": g}
    N = np.einsum("...m,...ml->...l", y, T["Q11"]) - T["Q10"]
    G = out["G"] = (0.25 * ginv @ N[..., None])[..., 0]
    if order < 3:
        return out

    dg_dy = 0.5 * np.einsum("...ijp->...pij", T["Q03"])         # [p,i,j]
    dginv_dy = -np.einsum("...ia,...pab,...bj->...pij", ginv, dg_dy, ginv)
    dN_dy = (np.einsum("...m,...mlp->...pl", y, T["Q12"]) + T["Q11"]
             - np.swapaxes(T["Q11"], -1, -2))
    dG_dy = out["dG_dy"] = 0.25 * (np.einsum("...pil,...l->...pi", dginv_dy, N)
                                   + np.einsum("...il,...pl->...pi", ginv, dN_dy))
    if order < 4:
        return out

    dN_dx = np.einsum("...m,...kml->...kl", y, T["Q21"]) - T["Q20"]
    d2N_dxdy = (np.einsum("...m,...kmlp->...kpl", y, T["Q22"]) + T["Q21"]
                - np.einsum("...klp->...kpl", T["Q21"]))
    d2N_dydy = (np.einsum("...m,...mlpq->...pql", y, T["Q13"])
                + np.einsum("...plq->...pql", T["Q12"])
                + np.einsum("...qlp->...pql", T["Q12"])
                - np.einsum("...lpq->...pql", T["Q12"]))
    ginv_t = np.swapaxes(ginv, -1, -2)
    dG_dx = out["dG_dx"] = ((0.25 * dN_dx - 0.5 * np.einsum("...kij,...j->...ki", T["Q12"], G))
                            @ ginv_t)
    ginv_t = ginv_t[..., None, :, :]        # broadcast over the first index
    out["d2G_dxdy"] = (0.25 * d2N_dxdy - 0.5 * np.einsum("...kpij,...j->...kpi", T["Q13"], G)
                       - np.einsum("...pij,...kj->...kpi", dg_dy, dG_dx)
                       - 0.5 * np.einsum("...kij,...pj->...kpi", T["Q12"], dG_dy)) @ ginv_t
    dg_dG = np.einsum("...pij,...qj->...pqi", dg_dy, dG_dy)
    out["d2G_dydy"] = (0.25 * d2N_dydy - 0.5 * np.einsum("...pqij,...j->...pqi", T["Q04"], G)
                       - dg_dG - np.swapaxes(dg_dG, -3, -2)) @ ginv_t
    return out


# -- curvature bundle ---------------------------------------------------------


@dataclass
class CurvatureBundle:
    """All spray-level data of a stack of flags, every field with a leading
    flag axis (F, ricci and r_error one float per flag); indices follow
    dG_dx[..., k, i] = dG^i/dx^k.

    `dF2_dy` is the y-gradient of F^2.  `r_error` estimates the error of
    `riemann` (Frobenius norm): 0 on the jet path, which is exact to
    rounding, and on the finite-difference path the Richardson error
    estimates carried through `_assemble_riemann`.
    """

    x: np.ndarray
    y: np.ndarray
    F: np.ndarray
    dF2_dy: np.ndarray
    g: np.ndarray
    spray: np.ndarray
    dG_dx: np.ndarray
    dG_dy: np.ndarray
    d2G_dxdy: np.ndarray
    d2G_dydy: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    r_error: np.ndarray

    @property
    def F2(self) -> np.ndarray:
        return self.F * self.F


def _assemble_riemann(y, G, dG_dx, dG_dy, d2G_dxdy, d2G_dydy):
    """R^i_k from the spray derivatives, over any leading stack axes."""
    return (2.0 * np.swapaxes(dG_dx, -1, -2)
            - np.einsum("...jki,...j->...ik", d2G_dxdy, y)
            + 2.0 * np.einsum("...j,...jki->...ik", G, d2G_dydy)
            - np.einsum("...ji,...kj->...ik", dG_dy, dG_dy))


def curvature_bundle(metric: FinslerMetric, points, mode: str = "jet",
                     stage_at=None) -> CurvatureBundle:
    """Spray, curvature operator and Ricci at the flags `points`, one bundle
    whose fields stack them.

    `stage_at(x)` is the metric's stage at x (by default one built here, an
    `_memo` of `_stage` in fd mode).  mode="jet" reads it once, at the
    points' x, shape (P, n): a stage laned over them (one point's x, shape
    (n,), for one flag: an unlaned stage), and expands F^2 to fourth order
    once for the stack, laned over its flags; the Q tables are gathered once
    over the stack (`_f2_tables`), and the spray and Riemann formulas and the
    trace run once over it.
    mode="fd" builds each flag's bundle alone, recomputing the outer spray
    derivatives by Richardson central differences of the pointwise spray, as
    an independent cross-check, and stacks them; it reads `stage_at` at each
    p.x and at every stencil x.
    """
    if mode == "fd":
        stage_at = stage_at or _memo(partial(_stage, metric))
        flags = [_curvature_bundle_fd(metric, p, stage_at) for p in points]
        return CurvatureBundle(*(np.array(field) for field in zip(*flags)))
    if mode != "jet":
        raise ParameterError(f"unknown differentiation mode {mode!r}")
    x = np.array([p.x for p in points], float)
    y = np.array([p.y for p in points], float)
    stage = (stage_at or partial(_stage, metric))(x[0] if len(points) == 1 else x)
    T = _f2_tables(stage, y, order=4)
    D = _spray_derivatives(T, y, order=4)
    R = _assemble_riemann(y, D["G"], D["dG_dx"], D["dG_dy"], D["d2G_dxdy"], D["d2G_dydy"])
    return CurvatureBundle(x=x, y=y, F=T["F"], dF2_dy=T["Q01"], g=D["g"], spray=D["G"],
                           dG_dx=D["dG_dx"], dG_dy=D["dG_dy"], d2G_dxdy=D["d2G_dxdy"],
                           d2G_dydy=D["d2G_dydy"], riemann=R,
                           ricci=np.trace(R, axis1=-2, axis2=-1), r_error=np.zeros(len(points)))


# -- finite-difference cross-check path --------------------------------------

# Richardson steps of the fd path, times max(1, |z|): the first derivatives
# of G and of S, and the second derivatives of G.  The first-derivative
# stencils of G and S step x alike, so they share their stencil x.
FD_STEP1, FD_STEP2 = 1e-5, 3e-4


def _memo(build, *seeds):
    """x -> build(x), built once per distinct x (by its float64 bytes) and
    seeded with the (x, value) pairs `seeds`."""
    table = {np.asarray(x, float).tobytes(): v for x, v in seeds}

    def at(x):
        x = np.asarray(x, float)
        key = x.tobytes()
        if key not in table:
            table[key] = build(x)
        return table[key]

    return at


def _fd_table(f, z0, *axes, step):
    """(values, error estimates) of d f / dz_t1 .. dz_tk at z0 for each index
    tuple (t1, .., tk) of the axes' product, by `fd_estimate` at `step` times
    max(1, |z0|), shaped [t1, .., tk] followed by the shape of f's value."""
    h = step * max(1.0, float(np.max(np.abs(z0))))
    est = [fd_estimate(f, z0, tuple(t.count(v) for v in range(z0.size)), step=h)
           for t in itertools.product(*axes)]
    shape = tuple(len(a) for a in axes) + np.shape(est[0][0])
    return tuple(np.array([e[k] for e in est]).reshape(shape) for k in (0, 1))


def _riemann_error(y, G, dG_dy, errors):
    """A first-order bound on the error of `_assemble_riemann` from the
    error estimates (nonnegative) of the four spray derivative arrays
    (G exact)."""
    e_dx, e_dy, e_dxdy, e_dydy = errors
    d_dy = np.abs(dG_dy)
    return (2.0 * e_dx.T
            + np.einsum("jki,j->ik", e_dxdy, np.abs(y))
            + 2.0 * np.einsum("j,jki->ik", np.abs(G), e_dydy)
            + np.einsum("ji,kj->ik", e_dy, d_dy) + np.einsum("ji,kj->ik", d_dy, e_dy))


def _curvature_bundle_fd(metric: FinslerMetric, p: FlagPoint, stage_at) -> tuple:
    """The fields of the finite-difference bundle at one flag, in
    `CurvatureBundle` order: G and g from the order-2 expansion at p, the
    spray derivatives Richardson central differences of the pointwise spray,
    all components at once, with G once per distinct stencil point.
    `r_error` is the Frobenius norm of `_riemann_error` on the derivatives'
    `fd_estimate` errors."""
    n = metric.dim
    x, y = np.asarray(p.x, float), np.asarray(p.y, float)
    z0 = np.concatenate([x, y])
    T = _f2_tables(stage_at(x), y, order=2)
    D = _spray_derivatives(T, y, order=2)
    G = D["G"]

    def spray_at(z):
        return _spray_derivatives(_f2_tables(stage_at(z[:n]), z[n:], order=2),
                                  z[n:], order=2)["G"]

    G_at = _memo(spray_at, (z0, G))
    G_fn = lambda *z: G_at(z)
    xs, ys = range(n), range(n, 2 * n)
    dG_dx, e_dx = _fd_table(G_fn, z0, xs, step=FD_STEP1)
    dG_dy, e_dy = _fd_table(G_fn, z0, ys, step=FD_STEP1)
    d2G_dxdy, e_dxdy = _fd_table(G_fn, z0, xs, ys, step=FD_STEP2)
    d2G_dydy, e_dydy = _fd_table(G_fn, z0, ys, ys, step=FD_STEP2)

    R = _assemble_riemann(y, G, dG_dx, dG_dy, d2G_dxdy, d2G_dydy)
    r_error = np.linalg.norm(_riemann_error(y, G, dG_dy, (e_dx, e_dy, e_dxdy, e_dydy)))
    return (x, y, T["F"], T["Q01"], D["g"], G, dG_dx, dG_dy, d2G_dxdy, d2G_dydy, R,
            np.trace(R), r_error)


# -- S and Lie derivatives ----------------------------------------------------


def _s_value(dG_dy, y, logs):
    """S = dG^i/dy^i - y^i d_i log sigma, from the spray's y-derivative and
    the log-density table, over any leading stack axes."""
    return np.trace(dG_dy, axis1=-2, axis2=-1) - riemann.dot(y, logs[1])


def _s_order3(stage, logs, y):
    """S alone at (x, y) from the stage and log-density table at x, by a
    third-order expansion of F^2."""
    y = np.asarray(y, float)
    T = _f2_tables(stage, y, order=3)
    D = _spray_derivatives(T, y, order=3)
    return _s_value(D["dG_dy"], y, logs)


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
    within_error: bool = False      # flat only because |R| <= the bundle's r_error


def _flag_curvature(b: CurvatureBundle, k: int) -> FlagCurvature:
    """Least-squares K with R^i_k ~ K (F^2 delta^i_k - F F_{y^k} y^i) at
    flag k of the bundle b.

    The residual is the Frobenius misfit relative to |R|; a vanishing R is
    reported as flat with K = 0 and residual 0, and so is an R no larger
    than the bundle's error estimate `r_error` (a finite-difference R that
    is noise), marked `within_error`.  The fit reads one flag at a time: a
    norm over a stack of R sums in another order.
    """
    F2, y = b.F2[k], b.y[k]
    A = F2 * np.eye(y.size) - 0.5 * np.outer(y, b.dF2_dy[k])
    R = b.riemann[k]
    normR = float(np.linalg.norm(R))
    if normR <= 1e-11 * F2 * F2 + 1e-300:
        return FlagCurvature(0.0, 0.0, True)
    if normR <= b.r_error[k]:
        return FlagCurvature(0.0, 0.0, True, within_error=True)
    K = float(np.sum(R * A) / np.sum(A * A))
    residual = float(np.linalg.norm(R - K * A) / normR)
    return FlagCurvature(K, residual, False)


# -- one evaluation per flag ------------------------------------------------------


@dataclass(frozen=True)
class Bases:
    """The x-only work at a stack of sample points, shared by every flag
    there: the points x, shape (P, n); the metric's stage at x as order-2
    jets (serves expansions of order 2 to 4), a `LaneStage` laned over the
    points (unlaned at one point); and the order-2 log-density tables of the
    measure, each with a leading lane axis."""

    x: np.ndarray
    stage: LaneStage
    logs: tuple

    def lanes(self, idx) -> "Bases":
        """The bases at lanes idx, an index array (in its order, repeats
        allowed), or at one lane k, an int (that point's x, unlaned stage and
        tables).  One point's unlaned stage serves every lane as it is."""
        stage = self.stage if len(self.x) == 1 else self.stage.lane(idx)
        return Bases(self.x[idx], stage, tuple(t[idx] for t in self.logs))


def base_points(metric: FinslerMetric, measure: Measure, X) -> Bases:
    """The bases of (metric, measure) at the points X, shape (P, n): one
    stage laned over them, built on first use, and one log-density table
    laned over them.  One point runs unlaned (a laned op at one lane costs
    more than the unlaned op), and its tables take a lane axis of one."""
    X = np.asarray(X, float)
    x = X[0] if len(X) == 1 else X
    logs = measure.log_density_table(x)
    if len(X) == 1:
        logs = tuple(np.asarray(t)[None] for t in logs)
    xs = Jet.variables(riemann.coordinates(x), jets.X_ORDER)
    return Bases(X, LaneStage(metric.at, xs, None), logs)


@dataclass(frozen=True)
class FlagEvaluation:
    """Every quantity of the soliton laws at a stack of flags, each with a
    leading flag axis: in jet mode from one order-4 expansion, in fd mode
    from the fd bundles and the fd S.  The flag-curvature fit is not one of
    them: a reader that wants it calls `_flag_curvature(bundle, k)`."""

    bundle: CurvatureBundle
    S: np.ndarray
    dS_dx: np.ndarray
    dS_dy: np.ndarray
    s_dot: np.ndarray
    ric_inf: np.ndarray


def evaluate_flags(metric: FinslerMetric, measure: Measure, points,
                   bases: Bases | None = None, mode: str = "jet") -> FlagEvaluation:
    """Bundle, S, its derivatives, S-dot and Ric_inf at the flags `points`,
    one evaluation whose fields stack them.

    mode="jet" reads them all off one order-4 expansion of F^2 laned over the
    flags, from the bases' stage, with the spray and curvature of all the
    flags in one stacked pass (`curvature_bundle`) and S and dS in one more
    (over the stacked bundle and density tables).  mode="fd" takes each
    flag's fd bundle, S from an order-3 expansion, and dS by central
    differences of that S; every x the two fd stencils visit is staged once,
    and tabled once where S reads its density (see the module notes).
    S-dot and Ric_inf are one stacked pass in both modes.

    `bases` is `base_points(metric, measure, X)` at the points' x; it
    depends on x only, so callers evaluating several flags at one point
    build it once and take its lanes (`Bases.lanes`).  Without `bases`, the
    flags' x build theirs.
    """
    X = np.array([p.x for p in points], float)
    if bases is None:
        bases = base_points(metric, measure, X)
    if not np.array_equal(bases.x, X):
        raise ValueError("bases and flags are at different x")
    if mode == "jet":
        b = curvature_bundle(metric, points, mode, lambda x: bases.stage)
        logs = bases.logs
        S = _s_value(b.dG_dy, b.y, logs)
        dS_dx = (np.einsum("...kii->...k", b.d2G_dxdy)
                 - np.einsum("...i,...ki->...k", b.y, logs[2]))
        dS_dy = np.einsum("...kii->...k", b.d2G_dydy) - logs[1]
    else:
        lanes = [bases.lanes(k) for k in range(len(points))]
        stage_at = _memo(partial(_stage, metric), *((base.x, base.stage) for base in lanes))
        b = curvature_bundle(metric, points, mode, stage_at)
        S, dS_dx, dS_dy = (np.array(v) for v in zip(
            *(_fd_s(measure, stage_at, base, y) for base, y in zip(lanes, b.y))))
    s_dot = riemann.dot(b.y, dS_dx) - 2.0 * riemann.dot(b.spray, dS_dy)
    return FlagEvaluation(bundle=b, S=S, dS_dx=dS_dx, dS_dy=dS_dy, s_dot=s_dot,
                          ric_inf=b.ricci + s_dot)


def _fd_s(measure: Measure, stage_at, base: Bases, y):
    """(S, dS_dx, dS_dy) at the flag (base.x, y) of one lane of the bases:
    S from an order-3 expansion on the base, dS by central differences of
    that S, each stencil x staged by `stage_at` and its density tabled once."""
    n = y.size
    S = _s_order3(base.stage, base.logs, y)
    logs_at = _memo(measure.log_density_table, (base.x, base.logs))
    dS = _fd_table(lambda *z: _s_order3(stage_at(z[:n]), logs_at(z[:n]), z[n:]),
                   np.concatenate([base.x, y]), range(2 * n), step=FD_STEP1)[0]
    return S, dS[:n], dS[n:]
