"""One lane-equality check for the stacked records of the engine.

A stacked record (`finsler.FlagEvaluation`, `finsler.CurvatureBundle`,
`finsler.Bases`, `solitons.BundleStack`) holds a stack of flags or points,
every array with a leading lane axis.  Its lane k must equal the record of
that one flag or point alone, in values, shape and signs of zero.  The
stacked flag-curvature fit is checked lane by lane against the one-point
formula it replaced (`one_flag_fit`), the stacked finite-difference
evaluation against the per-point one it replaced (`fd_flag_alone`), and
the `lie-identity`, `riemann-reduction` and `isotropic-s` crosschecks, one
family of random draws per dimension, and the pipeline half of
`jets-vs-fd`, one family per metric kind, against the per-draw loops they
replaced (`lie_draw_alone`, `reduction_draw_alone`, `isotropic_draw_alone`,
`pipeline_draw_alone`).
"""

import dataclasses
import itertools
import math

import numpy as np

from finsler_solitons import finsler, generators, jets, randers, riemann, solitons
from finsler_solitons.jets import FlagPoint, Jet
from finsler_solitons.sampling import unit_direction


def _lane(record, k):
    """Lane k of a record, as nested dicts and lists of arrays: every array
    at [k]; k None keeps the record's arrays as they are (a one-point record
    with no lane axis).  A stage is code, not data: the tests that hold one
    compare what it expands (`finsler._f2_jet`)."""
    if isinstance(record, finsler.LaneStage):
        return "stage"
    if dataclasses.is_dataclass(record):
        return {"type": type(record).__name__,
                **{f.name: _lane(getattr(record, f.name), k)
                   for f in dataclasses.fields(record)}}
    if isinstance(record, (list, tuple)):
        return [_lane(v, k) for v in record]
    if record is None or k is None:
        return record
    return np.asarray(record)[k]


def _assert_same(got, want, what):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), what
        for key in want:
            _assert_same(got[key], want[key], (what, key))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), what
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, (what, i))
    elif want is None or isinstance(want, str):
        assert got == want, what
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape, (what, got.shape, want.shape)
        assert np.array_equal(got, want), what
        assert np.array_equal(np.signbit(got), np.signbit(want)), what


def assert_lane(stack, k, one, what, lane=0):
    """Lane k of the stacked record `stack` equals `one`, the record of its
    flag or point alone: at its lane `lane` (a one-flag stack), or as it is
    for lane=None (a one-point record with no lane axis)."""
    _assert_same(_lane(stack, k), _lane(one, lane), what)


def one_flag_fit(b, k):
    """The flag-curvature fit of flag k of the bundle b alone, by the
    one-point formula: (K, residual, flat, within_error).  The reference for
    the stacked `finsler.flag_curvature`."""
    F2, y = b.F2[k], b.y[k]
    A = F2 * np.eye(y.size) - 0.5 * np.outer(y, b.dF2_dy[k])
    R = b.riemann[k]
    normR = float(np.linalg.norm(R))
    if normR <= 1e-11 * F2 * F2 + 1e-300:
        return 0.0, 0.0, True, False
    if normR <= b.r_error[k]:
        return 0.0, 0.0, True, True
    K = float(np.sum(R * A) / np.sum(A * A))
    return K, float(np.linalg.norm(R - K * A) / normR), False, False


def assert_fit_lanes(fit, b, what):
    """Every lane of the stacked fit `fit` of the bundle b equals
    `one_flag_fit` of its flag, bit for bit and in signs of zero."""
    assert all(len(v) == len(b.y) for v in dataclasses.astuple(fit)), what
    for k in range(len(b.y)):
        K, residual, flat, within_error = one_flag_fit(b, k)
        _assert_same([fit.value[k], fit.residual[k]], [K, residual], (what, k))
        assert (fit.flat[k], fit.within_error[k]) == (flat, within_error), (what, k)


# -- the per-point fd evaluation: the reference of the stacked fd oracle -----------------


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
    tuple of the axes' product, one `jets.fd_estimate` (f called at each
    stencil point) at `step` times max(1, |z0|)."""
    h = step * max(1.0, float(np.max(np.abs(z0))))
    est = [jets.fd_estimate(f, z0, tuple(t.count(v) for v in range(z0.size)), step=h)
           for t in itertools.product(*axes)]
    shape = tuple(len(a) for a in axes) + np.shape(est[0][0])
    return tuple(np.array([e[k] for e in est]).reshape(shape) for k in (0, 1))


def _s_order3(stage, logs, y):
    y = np.asarray(y, float)
    T = finsler._f2_tables(stage, y, order=3)
    return finsler._s_value(finsler._spray_derivatives(T, y, order=3)["dG_dy"], y, logs)


def fd_flag_alone(metric, measure, p):
    """The fd evaluation of the one flag p, point by point, as the engine
    made it before the stacked oracle: an unlaned stage and order-2 spray
    at each distinct stencil point (`_memo`, seeded with the flag's spray
    and, given a measure, with the stage of the flag's one-point bases),
    and S by an unlaned order-3 expansion and density table at each S
    stencil point (seeded with the bases' at the flag's x).  A one-flag
    `finsler.FlagEvaluation`; with measure None, its fd bundle alone, from
    stages no bases seed (the bundle of the fd `evaluate_flags` does not
    depend on the measure)."""
    n = metric.dim
    stage_at = _memo(lambda x: finsler._lane_stage(metric, x))
    if measure is not None:
        base = finsler.base_points(metric, measure, [p.x]).lanes(0)
        stage_at = _memo(lambda x: finsler._lane_stage(metric, x), (base.x, base.stage))
    x, y = np.asarray(p.x, float), np.asarray(p.y, float)
    z0 = np.concatenate([x, y])
    T = finsler._f2_tables(stage_at(x), y, order=2)
    D = finsler._spray_derivatives(T, y, order=2)
    G = D["G"]

    def spray_at(z):
        return finsler._spray_derivatives(finsler._f2_tables(stage_at(z[:n]), z[n:], order=2),
                                          z[n:], order=2)["G"]

    G_at = _memo(spray_at, (z0, G))
    G_fn = lambda *z: G_at(z)
    xs, ys = range(n), range(n, 2 * n)
    dG_dx, e_dx = _fd_table(G_fn, z0, xs, step=finsler.FD_STEP1)
    dG_dy, e_dy = _fd_table(G_fn, z0, ys, step=finsler.FD_STEP1)
    d2G_dxdy, e_dxdy = _fd_table(G_fn, z0, xs, ys, step=finsler.FD_STEP2)
    d2G_dydy, e_dydy = _fd_table(G_fn, z0, ys, ys, step=finsler.FD_STEP2)
    R = finsler._assemble_riemann(y, G, dG_dx, dG_dy, d2G_dxdy, d2G_dydy)
    r_error = np.linalg.norm(finsler._riemann_error(y, G, dG_dy, (e_dx, e_dy, e_dxdy, e_dydy)))
    bundle = finsler.CurvatureBundle(*(np.array([v]) for v in (
        x, y, T["F"], T["Q01"], D["g"], G, dG_dx, dG_dy, d2G_dxdy, d2G_dydy, R, np.trace(R),
        r_error)))
    if measure is None:
        return bundle

    S = _s_order3(base.stage, base.logs, y)
    logs_at = _memo(measure.log_density_table, (base.x, base.logs))
    dS = _fd_table(lambda *z: _s_order3(stage_at(z[:n]), logs_at(z[:n]), z[n:]),
                   z0, range(2 * n), step=finsler.FD_STEP1)[0]
    dS_dx, dS_dy = np.array([dS[:n]]), np.array([dS[n:]])
    s_dot = riemann.dot(bundle.y, dS_dx) - 2.0 * riemann.dot(bundle.spray, dS_dy)
    return finsler.FlagEvaluation(bundle=bundle, S=np.array([S]), dS_dx=dS_dx, dS_dy=dS_dy,
                                  s_dot=s_dot, ric_inf=bundle.ricci + s_dot)


# -- the per-draw crosscheck loops: the references of the stacked suites ------------------


def _lie_scalar_alone(fn2n, v, p):
    """L Phi = V^i dPhi/dx^i + y^j dV^i/dx^j dPhi/dy^i at the one flag p,
    from an unlaned order-1 jet pass (the one-flag `finsler.lie_scalar`)."""
    n = p.dim
    zs = Jet.variables(list(p.x) + list(p.y), 1)
    phi = fn2n(zs[:n], zs[n:])
    if not isinstance(phi, Jet):
        return 0.0
    grad = phi.gradient()
    v0, dv = v.table(p.x, order=1)
    ydv = np.einsum("j,ij->i", p.y, dv)
    return float(np.dot(v0, grad[:n]) + np.dot(ydv, grad[n:]))


def _lie_nav_h2_sides_alone(nav, v, p, F):
    """Both sides of the navigation Lie identity at the one flag p, the
    float side by one-point `@` (the one-flag `randers.lie_nav_h2_sides`)."""
    n = nav.dim

    def phi(xs, ys):
        point = randers._navigation_point(nav, xs)
        rows, w = point[0], point[1]
        Fv = randers._navigation_stage(point)(ys)
        return jets.YForms(rows)([ys[i] - Fv * w[i] for i in range(n)])[0]

    lhs = _lie_scalar_alone(phi, v, p)

    H = riemann.point_record(nav.h, p.x, 1)
    T = randers.nav_tensors(H, nav.W.table(p.x, order=1))
    xi = p.y - F * T.w_up
    htilde = math.sqrt(float(xi @ T.h @ xi))
    wt0 = float(T.w_low @ xi)
    v0, dv = v.table(p.x, order=1)
    vcov = riemann.lowered_covariant_derivative(H, v0, dv)
    v00 = float(xi @ vcov @ xi)
    mixed = float((vcov @ T.w_up - T.wcov @ v0) @ xi)
    rhs = 2.0 / (htilde + wt0) * (htilde * v00 + htilde * htilde * mixed)
    return lhs, rhs


def lie_draw_alone(rng, i):
    """(split row, lifted row) of draw i of `crosscheck_lie_identities`, as
    the per-draw loop made them: each random object built alone from its own
    draw, every quantity at the draw's one flag."""
    dim = 2 + (i % 2)
    rd = generators.random_randers(rng, dim)
    metric = randers.finsler_from_randers(rd)
    v = generators.vector_field(generators.draw_vector_field(rng, dim))
    p = FlagPoint(generators.sample_box_point(rng, dim), unit_direction(rng, dim))
    lhs = _lie_scalar_alone(lambda xs, ys: metric.F(xs, ys) ** 2, v, p)
    F = metric.value(p.x, p.y)
    A = riemann.point_record(rd.alpha, p.x, 1)
    alpha = math.sqrt(float(p.y @ A.h0 @ p.y))
    v0, dv = v.table(p.x, order=1)
    b0, db = rd.beta.table(p.x, order=1)
    vcov = riemann.lowered_covariant_derivative(A, v0, dv)
    la2 = riemann.lie_h2(vcov, p.y)
    lb = riemann.lie_1form(v0, vcov, A.hinv @ b0, riemann.covariant_1form(A.gamma, b0, db),
                           p.y)
    rhs = F / alpha * la2 + 2.0 * F * lb
    split = (lhs - rhs) / (F * F)

    nav = generators.navigation_data(generators.draw_calibrated(rng, dim))
    pn = FlagPoint(generators.sample_box_point(rng, dim), unit_direction(rng, dim))
    Fn = randers.finsler_from_navigation(nav).value(pn.x, pn.y)
    l2, r2 = _lie_nav_h2_sides_alone(nav, v, pn, Fn)
    return split, (l2 - r2) / (Fn * Fn)


def reduction_draw_alone(rng, i):
    """(row,) of draw i of `crosscheck_riemann_reduction`, as the per-draw
    loop made it: the draw's metric built alone, a one-flag bundle and an
    unlaned order-2 record at its flag."""
    dim = 2 + (i % 2)
    h = generators.riemann_metric(generators.draw_riemann_metric(rng, dim))
    metric = finsler.FinslerMetric.from_riemannian(h)
    p = FlagPoint(generators.sample_box_point(rng, dim), unit_direction(rng, dim))
    spray_ric = float(finsler.curvature_bundle(metric, [p]).ricci[0])
    rec = riemann.point_record(h, p.x, 2)
    chris_ric = float(np.einsum("jk,j,k->", rec.ricci, p.y, p.y))
    h2 = float(p.y @ rec.h0 @ p.y)
    return ((spray_ric - chris_ric) / max(abs(chris_ric), h2),)


def isotropic_draw_alone(rng, i):
    """The five rows of draw i of `crosscheck_isotropic_s`, as the per-draw
    loop made them: the draw's navigation data, sigma and f built alone, the
    one-flag bases and bundle stack of `solitons.sample_points`, one
    one-flag `evaluate_flags` and a float F at its flag."""
    dim = 2 + (i % 2)
    nav, sigma, _c = generators.conformal_navigation(generators.draw_conformal(rng, dim))
    rd = randers.from_navigation(nav)
    metric = randers.finsler_from_navigation(nav)
    f = generators.scalar_field(generators.draw_scalar_field(rng, dim))
    measure = finsler.Measure.riemannian(nav.h).weighted(f)
    x = generators.sample_box_point(rng, dim)
    y = unit_direction(rng, dim)
    p = FlagPoint(x, y)
    bases, S = solitons.sample_points(rd, nav, f, sigma, [p], 1)
    T, N, Y = S.beta, S.nav, S.y
    fitted, _res = solitons.fit_sigma(T)
    sig_fit = fitted - riemann.field_value(sigma, x)
    mu_t = float(rng.uniform(-1.0, 1.0))
    ev = finsler.evaluate_flags(metric, measure, [p], bases)
    F = metric.value(x, y)
    sig = randers.sigma_terms(S.sigma, Y, N.w_up)
    lhs, rhs = randers.ricci_transfer_sides(ev.bundle.ricci, F, S.h, N, sig, mu_t, Y)
    s0 = riemann.dot(T.s_low, Y) - riemann.dot(N.s_low, Y) / N.lam
    smix = -N.s_mixed + N.s_up[..., :, None] * N.w_low[..., None, :] / N.lam[..., None, None]
    sd_closed = solitons.s_dot_closed_form_nav(S.h, N, F, sig, S.f, Y)
    rows = (sig_fit, (lhs - rhs) / F ** 2, s0, np.abs(T.s_mixed - smix).max(axis=(-2, -1)),
            (ev.s_dot - sd_closed) / np.maximum(1.0, np.abs(ev.s_dot)))
    return tuple(float(row[0]) for row in rows)


def pipeline_draw_alone(rng, i):
    """The three pipeline rows (Ric, S-dot, Ric_inf) of draw i of
    `crosscheck_jets_vs_fd`, as the per-draw loop made them: the draw's
    metric and weighted measure built alone (Randers with the
    Busemann-Hausdorff measure for even i, Riemannian for odd i), a float F,
    a one-flag jet `evaluate_flags` and the per-point fd evaluation
    (`fd_flag_alone`) at its flag."""
    if i % 2 == 0:
        rd = generators.random_randers(rng, 2)
        metric = randers.finsler_from_randers(rd)
        measure = randers.bh_measure(rd)
    else:
        h = generators.riemann_metric(generators.draw_riemann_metric(rng, 2))
        metric = finsler.FinslerMetric.from_riemannian(h)
        measure = finsler.Measure.riemannian(h)
    measure = measure.weighted(generators.scalar_field(generators.draw_scalar_field(rng, 2)))
    p = FlagPoint(generators.sample_box_point(rng, 2), unit_direction(rng, 2))
    F2 = metric.value(p.x, p.y) ** 2
    jet = finsler.evaluate_flags(metric, measure, [p])
    fd = fd_flag_alone(metric, measure, p)
    return tuple(float(((j - f) / np.maximum(np.abs(j), F2))[0])
                 for j, f in ((jet.bundle.ricci, fd.bundle.ricci), (jet.s_dot, fd.s_dot),
                              (jet.ric_inf, fd.ric_inf)))
