"""Generic Finsler engine built on the spray.

From any jet-evaluable F(x, y) this module produces the fundamental
tensor, geodesic spray coefficients, the Riemann curvature operator R^i_k,
the Ricci curvature and the weighted Ricci curvature Ric_inf, S-curvature
and its rate of change along the geodesic flow, Lie derivatives of F^2
(from V's order-1 table, which a caller tables once per stack of flags), and
a least-squares scalar flag-curvature fit.

`evaluate_flags` is the one evaluation per flag and the one way to read
flags' quantities: a single fourth-order expansion of F^2 yields Ric, S,
S-dot and Ric_inf together; the flag-curvature fit is read off a bundle by
the callers that want it (`flag_curvature`).  Without a measure,
`curvature_bundle` gives the jet spray, R and Ric alone.  Both take a stack
of flags and return one record whose fields carry a leading flag axis; F^2 is
expanded once per stack: one jet laned over the flags, from one stage laned
over their x (Taylor arithmetic vectorised over points, Griewank-Walther),
so the expansion, the Q-table gathers, the spray derivatives, R, Ric, S, dS
and S-dot each run once per stack (one pass of numpy calls over arrays with
a leading flag axis), each lane bit-equal to the flag evaluated alone; a
stack of one flag is one lane.  A kappa fit (`solitons.fit_kappa`) is one
such stack.  The x-only work of a stack is one `Bases` record: the
metric's stage laned over the points (a `LaneStage`, built on first use)
and the log-density tables, one lane per point, built by `base_points` for
any metric and measure, or for all of a fixture run's flags at once by
`solitons.sample_points`; `Bases.lanes` takes lanes of it (a kappa fit
repeats each point's lane across its directions), and lanes of one stage's
data expand as one stage.

`evaluate_flags` is also the one place a flag evaluation chooses jet or
finite-difference (fd) differentiation; S-dot and Ric_inf = Ric + S-dot are
written there once for both.  The fd oracle differentiates G (the fd bundle,
read as `evaluate_flags(..., mode="fd").bundle`) and the order-3 S by
Richardson central differences (`_fd_evaluation`).
Only its evaluation of G and S is stacked: every distinct stencil point of
the stack's flags (1 + 8n + 12n^2 spray points and 1 + 8n S points per flag,
each flag's own point among them) is one lane of one order-2 pass or one
order-3 pass with one log-density table, both from lanes of one stage laned
over the distinct stencil x; each flag's stencil sums, in the order and
with the weights of `jets.fd_stencils`, then read those lanes.

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
over the flags of a stack (`_lane_stage`, `_f2_jet`); jet
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
from functools import lru_cache

import numpy as np

from . import jets, riemann
from .jets import Jet, fd_stencils, scalar_value
from .riemann import RiemannMetric, as_scalar_field


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
    `lane_safe` is False for such an fn, which need not take arrays of lane
    values: `sampling.sample_flags` reads it one draw at a time.
    """

    def __init__(self, dim: int, fn, name=""):
        self.dim = dim
        self._at = lambda x: lambda y: fn(x, y)
        self.name = name
        self.lane_safe = fn is None

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


class LaneStage:
    """The stage at lanes `idx` of laned x-only data: `build(data)` is the
    stage at every lane, and `data` holds laned jets in nested lists and
    tuples (`jets.lane` takes its lanes).  idx is None for every lane, an
    int for one lane's unlaned stage, or an index array.
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


def _lane_stage(metric: FinslerMetric, x) -> LaneStage:
    """The metric's stage at the points x, shape (P, n), as a `LaneStage`
    laned over them and built on first use.  x enters as jets of order
    jets.X_ORDER over the n x-variables, the x-degree of the flag space (see
    the module notes), so the stage serves expansions of order 2 to 4.  x of
    shape (1, n) is one lane; one point's x of shape (n,) is unlaned."""
    x = np.asarray(x, float)
    return LaneStage(metric.at, Jet.variables(riemann.coordinates(x), jets.X_ORDER), None)


def _f2_jet(stage, y, order: int) -> Jet:
    """F^2 as a jet over `jets.flag_space(n, order)` from the stage at x
    (`_lane_stage` or a `Bases`' stage, for orders 2 to 4).  At a stack of
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
    per flag.  The gather is the coefficient rows times the factorials, then
    one `take`, which keeps the flag axis first and every table
    C-contiguous; an index `[:, pos]` would leave the flag axis innermost in
    memory, and the stacked einsums of the spray would then sum in another
    order.
    """
    y = np.asarray(y, float)
    f2 = _f2_jet(stage, y, order)
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


def curvature_bundle(metric: FinslerMetric, points, stage=None) -> CurvatureBundle:
    """Spray, curvature operator and Ricci at the flags `points`, one jet
    bundle whose fields stack them.

    Reads `stage`, the metric's stage at the points' x (by default
    `_lane_stage` laned over the points), and expands F^2 to fourth order
    once for the stack, laned over its flags;
    the Q tables are gathered once over the stack (`_f2_tables`), and the
    spray and Riemann formulas and the trace run once over it.  The fd
    bundle, the independent cross-check, is the `bundle` of
    `evaluate_flags(..., mode="fd")`, the one mode switch.
    """
    x = np.array([p.x for p in points], float)
    y = np.array([p.y for p in points], float)
    if stage is None:
        stage = _lane_stage(metric, x)
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


def _visit(lanes, z):
    """The lane of the point z in `lanes`, a dict of distinct points by their
    float64 bytes in order of first visit, each with its lane; added if new."""
    z = np.asarray(z, float)
    return lanes.setdefault(z.tobytes(), (len(lanes), z))[0]


def _points(lanes):
    """The points of `lanes` (see `_visit`) in lane order, shape (P, size)."""
    return np.array([z for _lane, z in lanes.values()])


def _fd_stencils(lanes, z0, *axes, step):
    """The stencils of the table of d f / dz_t1 .. dz_tk at z0, one entry per
    index tuple (t1, .., tk) of the axes' product: the table's shape, and
    each entry's coarse and fine stencils (`jets.fd_stencils` at `step`
    times max(1, |z0|)) as (lanes, weights), every stencil point visited in
    `lanes`."""
    h = step * max(1.0, float(np.max(np.abs(z0))))
    entries = [tuple(([_visit(lanes, z) for z, _w in terms], [w for _z, w in terms])
                     for terms in fd_stencils(z0, tuple(t.count(v) for v in range(z0.size)), h))
               for t in itertools.product(*axes)]
    return tuple(len(a) for a in axes), entries


def _fd_table(values, stencils):
    """(values, error estimates) of the fd table whose `_fd_stencils` are
    `stencils`, from f's values at their lanes (leading lane axis): each
    entry's `jets.richardson` of its two stencil sums, shaped as the table
    followed by the shape of f's value."""
    shape, entries = stencils
    est = [jets.richardson(*(jets.stencil_sum(weights, values[lanes])
                             for lanes, weights in pair)) for pair in entries]
    shape += np.shape(est[0][0])
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


def _fd_evaluation(metric: FinslerMetric, points, measure: Measure):
    """The fd bundle of the flags `points` and their fd (S, dS_dx, dS_dy),
    each with a leading flag axis: the fd mode of `evaluate_flags`, the one
    mode switch.

    Every stencil point of every flag is evaluated once, in two laned
    passes: one order-2 expansion of F^2 and spray at all the spray stencil
    points (the flags' own points among them: G, g, F and dF2_dy at a flag
    are its lane), and one order-3 expansion, S and one log-density table at
    all the S stencil points (the flags' own points among them: S at a flag
    is its lane).  Both read lanes of one stage laned over the distinct
    stencil x.  Then each flag, alone: the spray derivatives and dS are
    Richardson central differences of those lanes (`_fd_table`), R is
    assembled from them, and `r_error` is the Frobenius norm of
    `_riemann_error` on their error estimates.
    """
    n = metric.dim
    x = np.array([p.x for p in points], float)
    y = np.array([p.y for p in points], float)
    Z = np.concatenate([x, y], axis=1)
    xs, ys, zs = range(n), range(n, 2 * n), range(2 * n)
    g_lanes, s_lanes, x_lanes = {}, {}, {}
    g_center = [_visit(g_lanes, z0) for z0 in Z]
    g_stencils = [[_fd_stencils(g_lanes, z0, *axes, step=step)
                   for axes, step in (((xs,), FD_STEP1), ((ys,), FD_STEP1),
                                      ((xs, ys), FD_STEP2), ((ys, ys), FD_STEP2))]
                  for z0 in Z]
    s_center = [_visit(s_lanes, z0) for z0 in Z]
    s_stencils = [_fd_stencils(s_lanes, z0, zs, step=FD_STEP1) for z0 in Z]
    # the S stencil x first: they are the first lanes of the stage's x, and
    # the density tables are laned over them alone
    s_points, g_points = _points(s_lanes), _points(g_lanes)
    s_x = np.array([_visit(x_lanes, z[:n]) for z in s_points])
    n_sx = len(x_lanes)
    g_x = np.array([_visit(x_lanes, z[:n]) for z in g_points])
    X = _points(x_lanes)
    stage = _lane_stage(metric, X)

    T = _f2_tables(stage.lane(g_x), g_points[:, n:], order=2)
    D = _spray_derivatives(T, g_points[:, n:], order=2)
    G = D["G"]
    fields = []
    for y0, c, stencils in zip(y, g_center, g_stencils):
        (dG_dx, e_dx), (dG_dy, e_dy), (d2G_dxdy, e_dxdy), (d2G_dydy, e_dydy) = (
            _fd_table(G, table) for table in stencils)
        R = _assemble_riemann(y0, G[c], dG_dx, dG_dy, d2G_dxdy, d2G_dydy)
        r_error = np.linalg.norm(_riemann_error(y0, G[c], dG_dy, (e_dx, e_dy, e_dxdy, e_dydy)))
        fields.append((dG_dx, dG_dy, d2G_dxdy, d2G_dydy, R, np.trace(R), r_error))
    dG_dx, dG_dy, d2G_dxdy, d2G_dydy, R, ricci, r_error = (np.array(f) for f in zip(*fields))
    bundle = CurvatureBundle(x=x, y=y, F=T["F"][g_center],
                             dF2_dy=T["Q01"][g_center], g=D["g"][g_center],
                             spray=G[g_center], dG_dx=dG_dx, dG_dy=dG_dy,
                             d2G_dxdy=d2G_dxdy, d2G_dydy=d2G_dydy, riemann=R, ricci=ricci,
                             r_error=r_error)

    logs = measure.log_density_table(X[:n_sx])
    y = s_points[:, n:]
    T = _f2_tables(stage.lane(s_x), y, order=3)
    S = _s_value(_spray_derivatives(T, y, order=3)["dG_dy"], y, tuple(t[s_x] for t in logs))
    dS = [_fd_table(S, table)[0] for table in s_stencils]
    return bundle, S[s_center], np.array([d[:n] for d in dS]), np.array([d[n:] for d in dS])


# -- S and Lie derivatives ----------------------------------------------------


def _s_value(dG_dy, y, logs):
    """S = dG^i/dy^i - y^i d_i log sigma, from the spray's y-derivative and
    the log-density table, over any leading stack axes."""
    return np.trace(dG_dy, axis1=-2, axis2=-1) - riemann.dot(y, logs[1])


def lie_scalar(fn2n, vtab, X, Y) -> np.ndarray:
    """Lie derivative along the complete lift of V of a scalar Phi(x, y),

        L Phi = V^i dPhi/dx^i + y^j dV^i/dx^j dPhi/dy^i,

    at a stack of flags, X and Y of shape (P, n): one value per flag.  V
    enters as its order-1 table (v0, dv) laned over the flags' x
    (`VectorField.table(X, order=1)`), which the caller tables once and may
    share with its other readers.  Phi is one order-1 jet pass in the 2n
    variables laned over the flags; each flag's contraction of the gradient
    is the one-point one (`np.dot` and `np.einsum` on its lane, as
    `riemann.einsum_rows` runs them, since a stacked product can sum in
    another order), so each value is bit-equal to its flag's stack of one.
    A Phi that is not a jet has zero derivative: one zero per flag.
    """
    X, Y = np.asarray(X, float), np.asarray(Y, float)
    n = X.shape[-1]
    zs = Jet.variables(riemann.coordinates(np.concatenate([X, Y], axis=-1)), 1)
    phi = fn2n(zs[:n], zs[n:])
    if not isinstance(phi, Jet):
        return np.zeros(len(X))
    grad = phi.gradient()
    v0, dv = vtab
    return np.array([np.dot(v0[k], grad[k, :n]) + np.dot(np.einsum("j,ij->i", Y[k], dv[k]),
                                                          grad[k, n:])
                     for k in range(len(X))])


def lie_F2(metric: FinslerMetric, vtab, X, Y) -> np.ndarray:
    """Lie derivative of F^2 along the complete lift of V at a stack of
    flags, from V's order-1 table at their x (`lie_scalar`), one value per
    flag."""
    return lie_scalar(lambda xs, ys: metric.F(xs, ys) ** 2, vtab, X, Y)


@dataclass(frozen=True, eq=False)
class FlagCurvature:
    """The flag-curvature fit of a stack of flags, one entry per flag."""

    value: np.ndarray
    residual: np.ndarray
    flat: np.ndarray
    within_error: np.ndarray        # flat only because |R| <= the bundle's r_error


def _memory_rows(M):
    """Each matrix of a stack as one C-contiguous row, its entries in the
    order the matrix lies in memory: the order in which `np.linalg.norm`
    sums a lane (`ravel(order='K')`)."""
    if M.strides[-2] < M.strides[-1]:
        M = np.swapaxes(M, -1, -2)
    return np.ascontiguousarray(M.reshape(M.shape[0], -1))


def flag_curvature(b: CurvatureBundle) -> FlagCurvature:
    """Least-squares K with R^i_k ~ K (F^2 delta^i_k - F F_{y^k} y^i) at
    every flag of the bundle b, in one stacked pass.

    The residual is the Frobenius misfit relative to |R|; a vanishing R is
    reported as flat with K = 0 and residual 0, and so is an R no larger
    than the bundle's error estimate `r_error` (a finite-difference R that
    is noise), marked `within_error`.  Each lane is bit-equal to the fit of
    its flag alone (a lane's `np.linalg.norm` and `np.sum`): a squared norm
    is `riemann.dot` of rows, the BLAS dot `np.linalg.norm` takes, over R's
    lanes in their memory order (`_memory_rows`) and over the misfit's in C
    order, as R - K A lies; the sums of products are `np.sum` over C-order
    rows.  Flat lanes divide by nothing.
    """
    F2, y = b.F2, b.y
    P, n = y.shape
    A = F2[:, None, None] * np.eye(n) - 0.5 * (y[:, :, None] * b.dF2_dy[:, None, :])
    R = b.riemann
    rows = _memory_rows(R)
    normR = np.sqrt(riemann.dot(rows, rows))
    tiny = normR <= 1e-11 * F2 * F2 + 1e-300
    within_error = ~tiny & (normR <= b.r_error)
    live = ~(tiny | within_error)
    K = np.divide(np.sum((R * A).reshape(P, -1), axis=-1),
                  np.sum((A * A).reshape(P, -1), axis=-1), out=np.zeros(P), where=live)
    misfit = (R - K[:, None, None] * A).reshape(P, -1)
    residual = np.divide(np.sqrt(riemann.dot(misfit, misfit)), normR,
                         out=np.zeros(P), where=live)
    return FlagCurvature(K, residual, ~live, within_error)


# -- one evaluation per flag ------------------------------------------------------


@dataclass(frozen=True)
class Bases:
    """The x-only work at a stack of sample points, shared by every flag
    there: the points x, shape (P, n); the metric's stage at x as order-2
    jets (serves expansions of order 2 to 4), a `LaneStage` laned over the
    points; and the order-2 log-density tables of the measure, each with a
    leading lane axis."""

    x: np.ndarray
    stage: LaneStage
    logs: tuple

    def lanes(self, idx) -> "Bases":
        """The bases at lanes idx, an index array (in its order, repeats
        allowed), or at one lane k, an int (that point's x, unlaned stage and
        tables)."""
        return Bases(self.x[idx], self.stage.lane(idx), tuple(t[idx] for t in self.logs))


def base_points(metric: FinslerMetric, measure: Measure, X) -> Bases:
    """The bases of (metric, measure) at the points X, shape (P, n): one
    stage laned over them, built on first use, and one log-density table
    laned over them; one point is one lane."""
    X = np.asarray(X, float)
    return Bases(X, _lane_stage(metric, X), measure.log_density_table(X))


@dataclass(frozen=True)
class FlagEvaluation:
    """Every quantity of the soliton laws at a stack of flags, each with a
    leading flag axis: in jet mode from one order-4 expansion, in fd mode
    from the fd bundles and the fd S.  The flag-curvature fit is not one of
    them: a reader that wants it calls `flag_curvature(bundle)`."""

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
    (over the stacked bundle and density tables).  mode="fd" takes the fd
    bundle, S from an order-3 expansion and dS by central differences of
    that S, from one laned order-2 pass at every spray stencil point of the
    stack and one laned order-3 pass and density table at every S stencil
    point (`_fd_evaluation`); it reads no bases.  S-dot and Ric_inf are one
    stacked pass in both modes.

    `bases` is `base_points(metric, measure, X)` at the points' x; it
    depends on x only, so callers evaluating several flags at one point
    build it once and take its lanes (`Bases.lanes`).  Without `bases`, the
    jet mode builds the flags' own.
    """
    X = np.array([p.x for p in points], float)
    if bases is not None and not np.array_equal(bases.x, X):
        raise ValueError("bases and flags are at different x")
    if mode == "jet":
        if bases is None:
            bases = base_points(metric, measure, X)
        b = curvature_bundle(metric, points, bases.stage)
        logs = bases.logs
        S = _s_value(b.dG_dy, b.y, logs)
        dS_dx = (np.einsum("...kii->...k", b.d2G_dxdy)
                 - np.einsum("...i,...ki->...k", b.y, logs[2]))
        dS_dy = np.einsum("...kii->...k", b.d2G_dydy) - logs[1]
    elif mode == "fd":
        b, S, dS_dx, dS_dy = _fd_evaluation(metric, points, measure)
    else:
        raise ParameterError(f"unknown differentiation mode {mode!r}")
    s_dot = riemann.dot(b.y, dS_dx) - 2.0 * riemann.dot(b.spray, dS_dy)
    return FlagEvaluation(bundle=b, S=S, dS_dx=dS_dx, dS_dy=dS_dy, s_dot=s_dot,
                          ric_inf=b.ricci + s_dot)
