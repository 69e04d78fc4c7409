"""The plumbing around the oracle paths, against private copies of what it
replaced, bit for bit:

* the stacked random polynomial fields of `generators` against the scalar
  loop that evaluated one entry at a time, and the box-grid calibration of
  `random_randers` / `random_navigation` against the per-point loop;
* the finite-difference bundle, which computes the spray once per distinct
  stencil point for all components, against the per-component path;
* the fd `evaluate_flags`, whose two stencils share one stage per distinct
  stencil x, against the fd bundle and fd S-dot as separate oracles with a
  stage per stencil point;
* `crosscheck_jets_vs_fd`, which makes one evaluation per flag on each side;
* the fd flat test (`r_error`) and the sampled F that `_flag_rows` reads.
"""

import itertools
import math

import numpy as np
import pytest
from _lanes import assert_fit_lanes, assert_lane, one_flag_fit

from finsler_solitons import (finsler, fixtures, generators, jets, randers, riemann,
                              solitons, suites)
from finsler_solitons.jets import FlagPoint, Jet, fd_derivative
from finsler_solitons.sampling import sample_flags, unit_direction

# -- the references: scalar polynomial fields and per-point calibration -----------------


def _scalar_poly2(coeffs, x):
    """c0 + c1.x + x.c2.x of one entry, one term at a time."""
    c0, c1, c2 = coeffs
    out = c0
    n = len(x)
    for k in range(n):
        out = out + c1[k] * x[k]
        for l in range(n):
            out = out + c2[k, l] * x[k] * x[l]
    return out


def _scalar_metric(rng, dim, amp=0.1):
    coeffs = {}
    for i in range(dim):
        for j in range(i, dim):
            coeffs[(i, j)] = generators._draw_poly2(rng, dim, amp / (dim * dim))

    def fn(x):
        rows = [[None] * dim for _ in range(dim)]
        for (i, j), c in coeffs.items():
            pert = _scalar_poly2(c, x)
            rows[i][j] = rows[j][i] = pert + 1.0 if i == j else pert
        return rows

    return fn


def _scalar_calibrated(rng, dim, bound, form):
    """(matrix fn, field fn) of a random metric and a field rescaled to
    sqrt(max form(matrix, raw)) = bound over the box grid, point by point."""
    matrix = _scalar_metric(rng, dim)
    raw = [generators._draw_poly2(rng, dim, 0.3) for _ in range(dim)]
    axes = [np.linspace(-generators.BOX, generators.BOX, 5)] * dim
    worst = 0.0
    for pt in itertools.product(*axes):
        m = np.array([[v for v in row] for row in matrix(list(pt))], float)
        b = np.array([_scalar_poly2(c, list(pt)) for c in raw], float)
        worst = max(worst, form(m, b))
    scale = bound / max(np.sqrt(worst), 1e-9)
    return matrix, lambda x: [scale * _scalar_poly2(c, x) for c in raw]


def _bits(v):
    if isinstance(v, Jet):
        return v.space, v.coeffs.tobytes()
    return None, np.asarray(v, float).tobytes()


def _assert_same(got, want, what=""):
    assert type(got) is type(want) or not isinstance(want, Jet), what
    assert _bits(got) == _bits(want), what


def _points(dim, rng):
    """Coordinates the fields meet: floats, arrays, jets of orders 1-4, the
    x-half of flag-coordinate jets, and a mix of jets and floats."""
    x = rng.uniform(-0.5, 0.5, size=dim)
    out = [list(x), [float(v) for v in x], list(rng.uniform(-0.5, 0.5, size=(dim, 7)))]
    out += [Jet.variables(x, order) for order in (1, 2, 3, 4)]
    y = rng.normal(size=dim)
    out += [Jet.variables(list(x) + list(y), order)[:dim] for order in (1, 2)]
    out.append([Jet.variables(x[:1], 2)[0]] + [float(v) for v in x[1:]])
    return out


# -- stacked fields ------------------------------------------------------------------------


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_stacked_poly2_equals_the_scalar_loop(dim):
    rng = np.random.default_rng(40 + dim)
    draws = [generators._draw_poly2(rng, dim, 0.3) for _ in range(dim * (dim + 1) // 2)]
    stacked = tuple(np.array([d[k] for d in draws]) for k in range(3))
    for x in _points(dim, rng):
        got = generators._poly2(stacked, x)
        assert len(got) == len(draws)
        for e, d in enumerate(draws):
            _assert_same(got[e], _scalar_poly2(d, x), (dim, e))


def test_mul_rows_equals_jet_products():
    rng = np.random.default_rng(7)
    for space in (jets.jet_space(2, 1), jets.jet_space(3, 4), jets.flag_space(2, 4)):
        a = rng.normal(size=(3, 2, space.nterms))
        b = rng.normal(size=(2, space.nterms))
        got = jets.mul_rows(a, b, space, space)
        assert got.shape == a.shape
        for i in range(3):
            for j in range(2):
                want = Jet(space, a[i, j]) * Jet(space, b[j])
                assert got[i, j].tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_random_fields_equal_the_scalar_fields(dim):
    rng_a, rng_b = np.random.default_rng(dim), np.random.default_rng(dim)
    h = generators.random_riemann_metric(rng_a, dim)
    v = generators.random_vector_field(rng_a, dim)
    f = generators.random_scalar_field(rng_a, dim)
    h_ref = _scalar_metric(rng_b, dim)
    v_ref = [generators._draw_poly2(rng_b, dim, 0.2) for _ in range(dim)]
    f_ref = generators._draw_poly2(rng_b, dim, 0.2)
    assert rng_a.random() == rng_b.random()
    for x in _points(dim, np.random.default_rng(dim)):
        for row, row_ref in zip(h.matrix(x), h_ref(x)):
            for got, want in zip(row, row_ref):
                _assert_same(got, want)
        for got, c in zip(v.components(x), v_ref):
            _assert_same(got, _scalar_poly2(c, x))
        _assert_same(f(x), _scalar_poly2(f_ref, x))


@pytest.mark.parametrize("dim", (2, 3))
def test_calibration_rows_equal_the_per_point_products(dim):
    # the grid's v.M.v, M the metric's matrix or its inverse, as the rows of
    # one stacked `riemann.bilinear`, against the one-point products it replaced
    rng = np.random.default_rng(dim)
    grid = generators._box_grid(dim)
    for _ in range(50):
        h = generators.random_riemann_metric(rng, dim)
        V = generators._grid_stack(generators._poly2(generators._draw_stacked(rng, dim, 0.3, dim),
                                                     grid))
        mats = generators._grid_stack(h.matrix(grid))
        for M in (mats, riemann.spd_inverse(mats, riemann.MetricDomainError, "h")):
            assert riemann.bilinear(V, M, V).tolist() == [float(v @ m @ v) for v, m in zip(V, M)]


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_calibration_over_the_grid_equals_the_per_point_loop(dim):
    for seed in range(3):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        rd = generators.random_randers(rng_a, dim)
        a_ref, b_ref = _scalar_calibrated(
            rng_b, dim, 0.45, lambda m, b: float(b @ np.linalg.inv(m) @ b))
        nav = generators.random_navigation(rng_a, dim)
        h_ref, w_ref = _scalar_calibrated(rng_b, dim, 0.5, lambda m, w: float(w @ m @ w))
        assert rng_a.random() == rng_b.random()
        for x in _points(dim, np.random.default_rng(seed)):
            for fn, ref in ((rd.beta.components, b_ref), (nav.W.components, w_ref)):
                for got, want in zip(fn(x), ref(x), strict=True):
                    _assert_same(got, want)
            for got, want in zip(rd.alpha.matrix(x)[0] + nav.h.matrix(x)[-1],
                                 a_ref(x)[0] + h_ref(x)[-1]):
                _assert_same(got, want)


# -- the finite-difference bundle ---------------------------------------------------------


def _pointwise_spray(metric, z):
    """G at the point z = (x, y), from a stage of the metric at x of its own."""
    n = metric.dim
    y = np.asarray(z[n:], float)
    T = finsler._f2_tables(finsler._stage(metric, z[:n]), y, order=2)
    return finsler._spray_derivatives(T, y, order=2)["G"]


def _per_component_bundle(metric, p, step1=1e-5, step2=3e-4):
    """The fd spray derivatives one component at a time, each stencil point's
    spray recomputed for each; returns the arrays and the points visited."""
    n = metric.dim
    x, y = np.asarray(p.x, float), np.asarray(p.y, float)
    z0 = np.concatenate([x, y])
    scale = max(1.0, float(np.max(np.abs(z0))))
    visited = []

    def G_fn(z):
        visited.append(np.asarray(z, float).tobytes())
        return _pointwise_spray(metric, z)

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
    dG_dy = np.array([[dcomp(i, unit(n + k), step1 * scale) for i in range(n)]
                      for k in range(n)])
    d2G_dxdy = np.array([[[dcomp(i, unit(k, n + q), step2 * scale) for i in range(n)]
                          for q in range(n)] for k in range(n)])
    d2G_dydy = np.array([[[dcomp(i, unit(n + pp, n + q), step2 * scale) for i in range(n)]
                          for q in range(n)] for pp in range(n)])
    R = finsler._assemble_riemann(y, G, dG_dx, dG_dy, d2G_dxdy, d2G_dydy)
    return (G, dG_dx, dG_dy, d2G_dxdy, d2G_dydy, R), visited


def test_fd_estimate_bounds_the_richardson_error_and_works_entrywise():
    f = lambda a, b: np.array([math.sin(a) * math.exp(b), a ** 4 * b])
    exact = {(1, 0): [math.cos(0.3) * math.exp(-0.2), 4 * 0.3 ** 3 * -0.2],
             (1, 1): [math.cos(0.3) * math.exp(-0.2), 4 * 0.3 ** 3],
             (0, 2): [math.sin(0.3) * math.exp(-0.2), 0.0],
             (2, 1): [-math.sin(0.3) * math.exp(-0.2), 12 * 0.3 ** 2]}
    for multi, want in exact.items():
        value, err = jets.fd_estimate(f, [0.3, -0.2], multi, step=0.05)
        assert np.all(np.abs(value - want) <= err)
        for i in range(2):
            alone = fd_derivative(lambda a, b: f(a, b)[i], [0.3, -0.2], multi, step=0.05)
            assert value[i] == alone
    assert jets.fd_estimate(f, [0.3, -0.2], (0, 0), step=0.05)[1] == 0.0


def _recording_sprays(monkeypatch):
    """Record, from now on, the x of every stage built (`FinslerMetric.at`
    at jet x) and the point (x, y) of every order-2 expansion of F^2 (a spray
    at that point)."""
    sprays, stages, at = [], [], {}
    stage_at, tables = finsler.FinslerMetric.at, finsler._f2_tables

    def recording_at(metric, x):
        out = stage_at(metric, x)
        if isinstance(x[0], Jet):
            at[id(out)] = np.array([v.value for v in x], float).tobytes()
            stages.append(at[id(out)])
        return out

    def recording_tables(st, y, order):
        out = tables(st, y, order)
        if order == 2:
            # the bases' stage is a LaneStage, built on first use
            x = at[id(st._stage if isinstance(st, finsler.LaneStage) else st)]
            sprays.append(x + np.asarray(y, float).tobytes())
        return out

    monkeypatch.setattr(finsler.FinslerMetric, "at", recording_at)
    monkeypatch.setattr(finsler, "_f2_tables", recording_tables)
    return sprays, stages


@pytest.mark.parametrize("name,count", [("gaussian", 2), ("cigar", 2), ("shrinking", 1)])
def test_fd_bundle_computes_one_spray_per_distinct_stencil_point(name, count, monkeypatch):
    fx = fixtures.get_fixture(name)
    flags = sample_flags(fx, count, np.random.default_rng(11))
    refs = [_per_component_bundle(fx.metric, p) for p in flags]
    calls, stages = _recording_sprays(monkeypatch)
    n = fx.dim
    for p, (want, visited) in zip(flags, refs):
        del calls[:], stages[:]
        b = finsler.curvature_bundle(fx.metric, [p], mode="fd")
        # G at p is read off the flag's own order-2 table, which the second
        # y-derivatives' stencils visit again
        assert len(calls) == len(set(calls)) == 1 + 8 * n + 12 * n * n
        assert set(calls) == set(visited)
        assert len(visited) == 1 + n * (16 * n * n + 6 * n)     # 153 at n = 2
        # one stage per distinct stencil x: p.x and 4n steps of each step size
        assert len(stages) == len(set(stages)) == 1 + 8 * n
        got = (b.spray, b.dG_dx, b.dG_dy, b.d2G_dxdy, b.d2G_dydy, b.riemann)
        for g, w in zip(got, want, strict=True):
            assert g.shape == (1,) + w.shape and g[0].tobytes() == w.tobytes(), name
        assert b.ricci.tolist() == [float(np.trace(want[-1]))]
        assert math.isfinite(b.r_error[0]) and b.r_error[0] > 0.0
    assert finsler.curvature_bundle(fx.metric, [flags[0]]).r_error[0] == 0.0


def _s_dot_fd_per_point(metric, measure, p, step=1e-5):
    """fd S-dot with the bases built at every stencil point."""
    n = metric.dim
    z0 = np.concatenate([p.x, p.y])
    scale = max(1.0, float(np.max(np.abs(z0))))

    def S_fn(*z):
        y = np.asarray(z[n:], float)
        base = finsler.base_points(metric, measure, [z[:n]]).lanes(0)
        D = finsler._spray_derivatives(finsler._f2_tables(base.stage, y, order=3), y, order=3)
        return finsler._s_value(D["dG_dy"], y, base.logs)

    dS = np.array([fd_derivative(S_fn, z0, tuple(1 if i == k else 0 for i in range(2 * n)),
                                 step=step * scale) for k in range(2 * n)])
    return float(np.dot(p.y, dS[:n]) - 2.0 * np.dot(_pointwise_spray(metric, z0), dS[n:]))


@pytest.mark.parametrize("name", ("gaussian", "cigar", "shrinking"))
def test_fd_s_dot_builds_one_base_point_per_stencil_x(name, monkeypatch):
    fx = fixtures.get_fixture(name)
    p = sample_flags(fx, 1, np.random.default_rng(13))[0]
    want = _s_dot_fd_per_point(fx.metric, fx.measure, p)
    _calls, stages = _recording_sprays(monkeypatch)
    tables = []
    density = finsler.Measure.log_density_table

    def recording(measure, x):
        tables.append(np.asarray(x, float).tobytes())
        return density(measure, x)

    monkeypatch.setattr(finsler.Measure, "log_density_table", recording)
    assert finsler.evaluate_flags(fx.metric, fx.measure, [p], mode="fd").s_dot[0] == want
    # the 4n points along y share the flag's x; each step along x has its own,
    # and the spray stencil steps x by the same first-derivative steps
    n = fx.dim
    assert len(tables) == len(set(tables)) == 1 + 4 * n
    assert len(stages) == len(set(stages)) == 1 + 8 * n
    assert set(tables) <= set(stages)


def test_fd_weighted_ricci_is_the_sum_of_fd_ricci_and_fd_s_dot():
    rng = np.random.default_rng(3)
    rd = generators.random_randers(rng, 2)
    cases = [(randers.finsler_from_randers(rd),
              randers.bh_measure(rd).weighted(generators.random_scalar_field(rng, 2)),
              FlagPoint(generators.sample_box_point(rng, 2), unit_direction(rng, 2)))]
    fx = fixtures.get_fixture("cigar")
    cases.append((fx.metric, fx.measure, FlagPoint([1.0, 0.3], [0.4, -0.7])))
    for metric, measure, p in cases:
        ev = finsler.evaluate_flags(metric, measure, [p], mode="fd")
        assert ev.bundle.ricci[0] == finsler.curvature_bundle(metric, [p], mode="fd").ricci[0]
        assert ev.s_dot[0] == _s_dot_fd_per_point(metric, measure, p)
        assert ev.ric_inf[0] == ev.bundle.ricci[0] + ev.s_dot[0]


# -- the fd evaluation: one stage per distinct stencil x --------------------------------


def _separate_fd_oracles(metric, measure, p, step1=1e-5, step2=3e-4):
    """The fd bundle and the fd S-dot as two separate oracles: the spray at
    each stencil point (p included) from a stage of its own, g and F from
    one more order-2 expansion at p, bases per stencil x of S, and S-dot
    from `_pointwise_spray` at p.  Returns the one-flag bundle and S-dot."""
    n = metric.dim
    x, y = np.asarray(p.x, float), np.asarray(p.y, float)
    z0 = np.concatenate([x, y])
    scale = max(1.0, float(np.max(np.abs(z0))))
    sprays = {}

    def G_at(*z):
        z = np.asarray(z, float)
        if z.tobytes() not in sprays:
            sprays[z.tobytes()] = _pointwise_spray(metric, z)
        return sprays[z.tobytes()]

    def table(*axes, step):
        est = [jets.fd_estimate(G_at, z0, tuple(t.count(v) for v in range(2 * n)),
                                step=step * scale) for t in itertools.product(*axes)]
        shape = tuple(len(a) for a in axes) + (n,)
        return tuple(np.array([e[k] for e in est]).reshape(shape) for k in (0, 1))

    T = finsler._f2_tables(finsler._stage(metric, x), y, order=2)
    g = finsler._fundamental(T)[0]
    G = G_at(*z0)
    xs, ys = range(n), range(n, 2 * n)
    (dx, e_dx), (dy, e_dy) = table(xs, step=step1), table(ys, step=step1)
    (dxdy, e_dxdy), (dydy, e_dydy) = table(xs, ys, step=step2), table(ys, ys, step=step2)
    R = finsler._assemble_riemann(y, G, dx, dy, dxdy, dydy)
    err = finsler._riemann_error(y, G, dy, (e_dx, e_dy, e_dxdy, e_dydy))
    bundle = finsler.CurvatureBundle(*(np.array([v]) for v in (
        x, y, T["F"], T["Q01"], g, G, dx, dy, dxdy, dydy, R, np.trace(R), np.linalg.norm(err))))
    return bundle, _s_dot_fd_per_point(metric, measure, p, step=step1)


def _fd_cases():
    """(metric, measure, flags, the flags' bases or None) on three fixtures
    (their sample points' `finsler.Bases`) and a random Randers metric with a
    weighted Busemann-Hausdorff measure (no bases)."""
    for name, count in (("gaussian", 2), ("cigar", 2), ("shrinking", 1)):
        fx = fixtures.get_fixture(name)
        flags = sample_flags(fx, count, np.random.default_rng(17))
        yield name, fx.metric, fx.measure, flags, solitons.sample_points(
            fx.rd, fx.nav, fx.f, fx.sigma, flags, 0)[0]
    rng = np.random.default_rng(19)
    rd = generators.random_randers(rng, 2)
    measure = randers.bh_measure(rd).weighted(generators.random_scalar_field(rng, 2))
    flags = [FlagPoint(generators.sample_box_point(rng, 2), unit_direction(rng, 2))
             for _ in range(2)]
    yield "randers", randers.finsler_from_randers(rd), measure, flags, None


@pytest.mark.parametrize("case", list(_fd_cases()), ids=lambda c: c[0])
def test_fd_evaluation_equals_the_separate_fd_oracles(case):
    name, metric, measure, flags, bases = case
    ev = finsler.evaluate_flags(metric, measure, flags, bases, mode="fd")
    fit = finsler.flag_curvature(ev.bundle)
    assert ev.S.shape == (len(flags),)
    for k, p in enumerate(flags):
        want, want_sdot = _separate_fd_oracles(metric, measure, p)
        assert_lane(ev.bundle, k, want, (name, k))
        assert ev.S[k] == finsler.evaluate_flags(metric, measure, [p]).S[0]
        assert ev.s_dot[k] == want_sdot
        assert ev.ric_inf[k] == want.ricci[0] + want_sdot
        assert (fit.value[k], fit.residual[k], fit.flat[k], fit.within_error[k]) == \
            one_flag_fit(want, 0)


def test_evaluate_flag_refuses_an_unknown_mode():
    fx = fixtures.get_fixture("cigar")
    with pytest.raises(finsler.ParameterError, match="bogus"):
        finsler.evaluate_flags(fx.metric, fx.measure, [FlagPoint([1.0, 0.3], [0.4, -0.7])],
                               mode="bogus")


# -- jets-vs-fd: one evaluation per flag on each side -------------------------------------


def _pipeline_reference(count, seed):
    """The pipeline rows as three separate calls per quantity and mode made them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        rng.uniform(-0.8, 0.8, size=2)
    rows = ([], [], [])
    for i in range(count):
        if i % 2 == 0:
            rd = generators.random_randers(rng, 2)
            metric = randers.finsler_from_randers(rd)
            measure = randers.bh_measure(rd).weighted(generators.random_scalar_field(rng, 2))
        else:
            h = generators.random_riemann_metric(rng, 2)
            metric = finsler.FinslerMetric.from_riemannian(h)
            measure = finsler.Measure.riemannian(h).weighted(
                generators.random_scalar_field(rng, 2))
        p = FlagPoint(generators.sample_box_point(rng, 2), unit_direction(rng, 2))
        F2 = metric.value(p.x, p.y) ** 2
        for out, fn in zip(rows, (
                lambda mode: finsler.curvature_bundle(metric, [p], mode=mode).ricci[0],
                lambda mode: finsler.evaluate_flags(metric, measure, [p], mode=mode).s_dot[0],
                lambda mode: finsler.evaluate_flags(metric, measure, [p], mode=mode).ric_inf[0])):
            j, f = fn("jet"), fn("fd")
            out.append((j - f) / max(abs(j), F2))
    return rows


def test_jets_vs_fd_evaluates_each_flag_once_per_side(monkeypatch):
    count, seed = 3, 5
    want = _pipeline_reference(count, seed)
    modes = {"evaluate_flags": [], "curvature_bundle": []}
    evaluate, bundle, base_points = (finsler.evaluate_flags, finsler.curvature_bundle,
                                     finsler.base_points)

    def counted_evaluate(metric, measure, points, bases=None, mode="jet"):
        assert len(points) == 1
        modes["evaluate_flags"].append(mode)
        return evaluate(metric, measure, points, bases, mode)

    def counted_bundle(metric, points, mode="jet", stage_at=None):
        assert len(points) == 1
        modes["curvature_bundle"].append(mode)
        return bundle(metric, points, mode, stage_at)

    bases = []
    monkeypatch.setattr(finsler, "evaluate_flags", counted_evaluate)
    monkeypatch.setattr(finsler, "curvature_bundle", counted_bundle)
    monkeypatch.setattr(finsler, "base_points", lambda *a: bases.append(1) or base_points(*a))
    sprays, _stages = _recording_sprays(monkeypatch)
    reports = {r.name: r for r in suites.crosscheck_jets_vs_fd(count=count, seed=seed)}
    for calls in modes.values():
        assert calls == ["jet", "fd"] * count
    assert len(bases) == count         # one one-point Bases per flag, shared by both sides
    assert len(sprays) == count * (1 + 8 * 2 + 12 * 2 * 2) <= 198
    for name, rows in zip(("pipeline-ricci", "pipeline-s-dot", "pipeline-infinity-ricci"),
                          want):
        vals = np.abs(rows)
        assert reports[name].max_abs == float(np.max(vals))
        assert reports[name].mean_abs == float(np.mean(vals))


# -- the fd flat test ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", (0, 3))
def test_fd_flat_fixture_passes_and_names_its_flat_flags(seed):
    fx = fixtures.get_fixture("gaussian")
    reports = {r.name: r for r in suites.run_fixture_suite(fx, samples=3, seed=seed,
                                                           mode="fd")}
    assert all(r.passed for r in reports.values())
    for name in ("flag-curvature-law", "flag-curvature-misfit"):
        assert reports[name].max_abs == 0.0
        assert reports[name].detail == (
            "3 of 3 flags flat: |R| within the finite-difference error estimate")
    assert reports["ricci-law"].detail == ""


@pytest.mark.parametrize("perturb", ("f:1e-2", "W:1e-2", "W:1e-6", "kappa:1e-2",
                                     "mu:1e-2", "sigma:1e-2"))
def test_fd_flat_fixture_controls_still_fail(perturb):
    ingredient, eps = perturb.split(":")
    fx = fixtures.get_fixture("gaussian", perturb=(ingredient, float(eps)))
    reports = suites.run_fixture_suite(fx, samples=3, seed=3, mode="fd")
    assert not all(r.passed for r in reports)
    if ingredient == "W":
        # a bent W makes R curved: fitted, not declared flat
        law = next(r for r in reports if r.name == "flag-curvature-law")
        assert law.detail == "" and law.max_abs > 0.0


def test_flat_within_error_only_on_a_bundle_with_an_error_bound():
    fx = fixtures.get_fixture("cigar")
    flags = [FlagPoint([t, 0.3], [0.4, -0.7]) for t in (1.0, 1.5, 2.0)]
    b = finsler.curvature_bundle(fx.metric, flags)
    fit = finsler.flag_curvature(b)
    assert not fit.flat.any() and not fit.within_error.any()
    norm = np.array([float(np.linalg.norm(R)) for R in b.riemann])
    # lane 0 within its error bound, lane 1 above it, lane 2 with none
    b.r_error = norm * [1.0, 0.5, 0.0]
    within = finsler.flag_curvature(b)
    assert within.within_error.tolist() == within.flat.tolist() == [True, False, False]
    assert (within.value[0], within.residual[0]) == (0.0, 0.0)
    assert np.array_equal(within.value[1:], fit.value[1:])
    assert np.array_equal(within.residual[1:], fit.residual[1:])
    assert_fit_lanes(within, b, "cigar")


# -- one stacked F per batch of sampled flags -------------------------------------------------


@pytest.mark.parametrize("perturb", [None, ("W", 0.3)], ids=["cigar", "cigar-W:0.3"])
def test_fixture_suite_reads_one_stacked_f_per_batch_of_draws(perturb, monkeypatch):
    # The sampler reads one stacked F per batch of draws; a batch with a
    # rejected draw reads one `value` per draw again, so only the last
    # batch is accepted from its stack.  W:0.3 refuses draws on cigar.
    fx = fixtures.get_fixture("cigar", perturb=perturb)
    draws, values, stacks = [], [], []
    sample_x, value, F = fx.sample_x, finsler.FinslerMetric.value, finsler.FinslerMetric.F

    def counted_value(self, x, y):
        values.append(np.ndim(x))
        return value(self, x, y)

    def counted_F(self, x, y):
        stacks.append(len(x[0]))
        return F(self, x, y)

    monkeypatch.setattr(fx, "sample_x", lambda rng: draws.append(1) or sample_x(rng))
    monkeypatch.setattr(finsler.FinslerMetric, "value", counted_value)
    monkeypatch.setattr(finsler.FinslerMetric, "F", counted_F)
    suites.run_fixture_suite(fx, samples=8, seed=3)
    assert stacks[0] == 8 and sum(stacks) == len(draws)
    assert (len(stacks) > 1) == (perturb is not None)
    # a value per draw of every batch but the last, and the kappa fit's
    # normalisers one stacked value
    assert values.count(1) == len(draws) - stacks[-1]
    assert values.count(2) == 1 and len(values) == values.count(1) + 1
    monkeypatch.undo()
    for p in sample_flags(fx, 8, np.random.default_rng(3)):
        assert p.F == fx.metric.value(p.x, p.y)
