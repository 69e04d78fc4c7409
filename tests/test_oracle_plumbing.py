"""The plumbing around the oracle paths, against private copies of what it
replaced, bit for bit:

* the stacked random polynomial fields of `generators`, drawn as one block
  of the rng, against the draw and the scalar loop of one entry at a time,
  the box-grid calibration of `randers_data` / `navigation_data`
  against the per-point loop, and a family of draws, laned, against each
  draw built alone;
* the finite-difference bundle, whose one spray pass laned (stencil point,
  flag) evaluates each distinct stencil point of each flag once for all
  components, against the per-component path;
* the fd `evaluate_flags`, whose two laned passes read lanes of one stage
  laned (stencil x, flag), against the fd bundle and fd S-dot as separate
  oracles with a stage per stencil point, on a stencil point the metric
  refuses, and at steps that underflow;
* `crosscheck_jets_vs_fd`, which makes one evaluation per family of draws
  on each side, each flag a lane of it;
* the fd flat test (`r_error`) and the sampled F that `_flag_rows` reads.
"""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from _lanes import (assert_fit_lanes, assert_lane, fd_flag_alone, one_flag_fit,
                    pipeline_draw_alone)

from finsler_solitons import (cli, finsler, fixtures, generators, jets, randers, riemann,
                              solitons, suites)
from finsler_solitons.jets import FlagPoint, Jet, fd_derivative
from finsler_solitons.sampling import sample_flags, unit_direction

# -- the references: scalar polynomial fields and per-point calibration -----------------


def _draw_poly2(rng, dim, amp):
    """The coefficients (c0, c1, c2) of one entry, one rng call each."""
    return (float(rng.uniform(-amp, amp)),
            rng.uniform(-amp, amp, size=dim),
            rng.uniform(-amp, amp, size=(dim, dim)))


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
            coeffs[(i, j)] = _draw_poly2(rng, dim, amp / (dim * dim))

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
    raw = [_draw_poly2(rng, dim, 0.3) for _ in range(dim)]
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
    """Coordinates the fields meet: floats, arrays, jets of orders 1-4 and
    the x-half of flag-coordinate jets."""
    x = rng.uniform(-0.5, 0.5, size=dim)
    out = [list(x), [float(v) for v in x], list(rng.uniform(-0.5, 0.5, size=(dim, 7)))]
    out += [Jet.variables(x, order) for order in (1, 2, 3, 4)]
    y = rng.normal(size=dim)
    out += [Jet.variables(list(x) + list(y), order)[:dim] for order in (1, 2)]
    return out


# -- stacked fields ------------------------------------------------------------------------


def test_poly2_refuses_jets_mixed_with_floats():
    c = generators._draw_stacked(np.random.default_rng(1), 2, 0.3, 2)
    with pytest.raises(TypeError):
        generators._poly2(c, [Jet.variables([0.1], 2)[0], 0.2])


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_stacked_poly2_equals_the_scalar_loop(dim):
    rng = np.random.default_rng(40 + dim)
    draws = [_draw_poly2(rng, dim, 0.3) for _ in range(dim * (dim + 1) // 2)]
    stacked = tuple(np.array([d[k] for d in draws]) for k in range(3))
    for x in _points(dim, rng):
        got = generators._poly2(stacked, x)
        assert len(got) == len(draws)
        for e, d in enumerate(draws):
            _assert_same(got[e], _scalar_poly2(d, x), (dim, e))


@pytest.mark.parametrize("dim", (2, 3))
def test_float_poly2_equals_the_scalar_loop_of_each_draw(dim):
    # the one float pass over all entries, for one draw and for a family of
    # three, at floats, arrays of lane values and grid-shaped x (the
    # calibration's, with a lane axis for the family): every element, value
    # and sign bit, is the scalar loop of its entry of its lane's draw at
    # its point, in Python floats
    rng = np.random.default_rng(60 + dim)
    draws = [generators._draw_stacked(rng, dim, 0.3, dim) for _ in range(3)]
    draws[1][0][0] = -0.0           # an entry -0.0 + 0.0 x + 0.0 x x, whose sign
    draws[1][1][0] = 0.0            # follows the order of its additions
    draws[1][2][0] = 0.0
    x = list(rng.uniform(-0.5, 0.5, size=dim))
    x[0] = -0.0
    lanes = list(rng.uniform(-0.5, 0.5, size=(dim, 3)))
    grid = generators._box_grid(dim)
    for coeffs, laned in ((draws[0], False), (generators.family(draws), True)):
        for xs in (x, lanes, [g[:, None] for g in grid] if laned else grid):
            got = generators._poly2(coeffs, xs)
            assert len(got) == dim
            for e, entry in enumerate(got):
                shape = np.broadcast_shapes(*(np.shape(v) for v in xs),
                                            (3,) if laned else ())
                entry = np.asarray(entry)
                assert entry.shape == shape, (dim, e)
                for idx in np.ndindex(shape):
                    draw = draws[idx[-1]] if laned else draws[0]
                    point = [float(np.broadcast_to(v, shape)[idx]) for v in xs]
                    want = _scalar_poly2(tuple(c[e] for c in draw), point)
                    assert entry[idx].tobytes() == np.float64(want).tobytes(), (dim, e, idx)


def test_a_family_of_one_draw_at_one_flag_equals_the_draw_alone():
    # a family of one draw is one lane, so its bundle at one flag (a stage of
    # one lane) meets coefficients of one lane
    rng = np.random.default_rng(3)
    d = generators.draw_riemann_metric(rng, 3)
    assert [c.shape for c in generators.family([d])] == [c.shape + (1,) for c in d]
    p = FlagPoint(generators.sample_box_point(rng, 3), unit_direction(rng, 3))
    h = generators.riemann_metric(generators.family([d]))
    got = finsler.curvature_bundle(finsler.FinslerMetric.from_riemannian(h), [p])
    want = finsler.curvature_bundle(
        finsler.FinslerMetric.from_riemannian(generators.riemann_metric(d)), [p])
    assert_lane(got, 0, want, "one-draw family")


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
    h = generators.riemann_metric(generators.draw_riemann_metric(rng_a, dim))
    v = generators.vector_field(generators.draw_vector_field(rng_a, dim))
    f = generators.scalar_field(generators.draw_scalar_field(rng_a, dim))
    h_ref = _scalar_metric(rng_b, dim)
    v_ref = [_draw_poly2(rng_b, dim, 0.2) for _ in range(dim)]
    f_ref = _draw_poly2(rng_b, dim, 0.2)
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
        h = generators.riemann_metric(generators.draw_riemann_metric(rng, dim))
        V = generators._grid_stack(generators._poly2(generators._draw_stacked(rng, dim, 0.3, dim),
                                                     grid), ())
        mats = generators._grid_stack(h.matrix(grid), ())
        for M in (mats, riemann.spd_inverse(mats, riemann.MetricDomainError, "h")):
            assert riemann.bilinear(V, M, V).tolist() == [float(v @ m @ v) for v, m in zip(V, M)]


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_calibration_over_the_grid_equals_the_per_point_loop(dim):
    for seed in range(3):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        rd = generators.random_randers(rng_a, dim)
        a_ref, b_ref = _scalar_calibrated(
            rng_b, dim, 0.45, lambda m, b: float(b @ np.linalg.inv(m) @ b))
        nav = generators.navigation_data(generators.draw_calibrated(rng_a, dim))
        h_ref, w_ref = _scalar_calibrated(rng_b, dim, 0.5, lambda m, w: float(w @ m @ w))
        assert rng_a.random() == rng_b.random()
        for x in _points(dim, np.random.default_rng(seed)):
            for fn, ref in ((rd.beta.components, b_ref), (nav.W.components, w_ref)):
                for got, want in zip(fn(x), ref(x), strict=True):
                    _assert_same(got, want)
            for got, want in zip(rd.alpha.matrix(x)[0] + nav.h.matrix(x)[-1],
                                 a_ref(x)[0] + h_ref(x)[-1]):
                _assert_same(got, want)


@pytest.mark.parametrize("dim", (2, 3))
def test_a_family_of_draws_equals_each_draw_built_alone(dim):
    lanes = 4
    rng_a, rng_b = np.random.default_rng(dim), np.random.default_rng(dim)
    draws = [(generators.draw_calibrated(rng_a, dim), generators.draw_calibrated(rng_a, dim),
              generators.draw_vector_field(rng_a, dim)) for _ in range(lanes)]
    # the rng reads of the per-draw loop: metric, then raw field, then V
    for _ in range(lanes):
        _scalar_calibrated(rng_b, dim, 0.45, lambda m, b: 0.0)
        _scalar_calibrated(rng_b, dim, 0.5, lambda m, w: 0.0)
        [_draw_poly2(rng_b, dim, 0.2) for _ in range(dim)]
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    X = rng_a.uniform(-0.5, 0.5, size=(lanes, dim))
    X[0, 0] = -0.0
    rd_c, nav_c, v_c = (generators.family(c) for c in zip(*draws))
    built = (generators.randers_data(rd_c), generators.navigation_data(nav_c),
             generators.vector_field(v_c))
    for k, (rd_k, nav_k, v_k) in enumerate(draws):
        alone = (generators.randers_data(rd_k), generators.navigation_data(nav_k),
                 generators.vector_field(v_k))
        for (metric, field), (m_one, f_one), raw, raw_one, bound, inverse in (
                ((built[0].alpha, built[0].beta), (alone[0].alpha, alone[0].beta),
                 rd_c[1], rd_k[1], 0.45, True),
                ((built[1].h, built[1].W), (alone[1].h, alone[1].W),
                 nav_c[1], nav_k[1], 0.5, False)):
            scale = generators._calibration(metric, raw, bound, inverse)
            assert scale.shape == (lanes,)
            assert_lane(scale, k, generators._calibration(m_one, raw_one, bound, inverse),
                        ("scale", k), None)
            assert_lane(metric.matrix_at(X), k, m_one.matrix_at(X[k]), ("matrix", k), None)
            assert_lane(metric.tables(X, 1), k, m_one.tables(X[k], 1), ("tables", k), None)
            assert_lane(field.at(X), k, f_one.at(X[k]), ("field", k), None)
            assert_lane(field.table(X, 1), k, f_one.table(X[k], 1), ("field table", k), None)
        assert_lane(built[2].at(X), k, alone[2].at(X[k]), ("V", k), None)
        assert_lane(built[2].table(X, 1), k, alone[2].table(X[k], 1), ("V table", k), None)


def _scalar_conformal(coeffs):
    """(W, c) closures of one `generators.draw_conformal` draw as the
    one-draw builder wrote them: float coefficients times and plus x."""
    a, lam, A, k = coeffs
    dim = len(a)
    A = A - A.T

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

    return w_fn, c_fn


@pytest.mark.parametrize("dim", (2, 3))
def test_conformal_navigation_equals_the_scalar_closures(dim):
    # one draw at every kind of x, and each lane of a family of three at x
    # laned over it (jets and float lane arrays), against the one-draw
    # closures, signs of zero included: a negative lam scales the zero
    # coefficients of an x jet to -0.0, which adding a float's constant jet
    # makes +0.0
    rng = np.random.default_rng(70 + dim)
    draws = [generators.draw_conformal(rng, dim) for _ in range(3)]
    a, lam, A, k = draws[0]
    draws[0] = (a, -abs(lam), A, k)
    nav, sigma, c = generators.conformal_navigation(draws[0])
    w_ref, c_ref = _scalar_conformal(draws[0])
    for x in _points(dim, rng):
        for got, want in zip(nav.W.components(x), w_ref(x), strict=True):
            _assert_same(got, want)
        _assert_same(c(x), c_ref(x))
        _assert_same(sigma(x), -c_ref(x))
    nav, sigma, c = generators.conformal_navigation(generators.family(draws))
    X = rng.uniform(-0.5, 0.5, size=(3, dim))
    X[0, 0] = -0.0
    for point in (lambda x: Jet.variables(riemann.coordinates(x), 2), riemann.coordinates):
        got_w, got_c = nav.W.components(point(X)), c(point(X))
        for lane, d in enumerate(draws):
            w_ref, c_ref = _scalar_conformal(d)
            at = (lambda v: jets.lane(v, lane) if isinstance(v, Jet) else v[lane])
            for got, want in zip(got_w, w_ref(point(X[lane])), strict=True):
                _assert_same(at(got), want)
            _assert_same(at(got_c), c_ref(point(X[lane])))


# -- the finite-difference bundle ---------------------------------------------------------


def _pointwise_spray(metric, z):
    """G at the point z = (x, y), from a stage of the metric at x of its own."""
    n = metric.dim
    y = np.asarray(z[n:], float)
    T = finsler._f2_tables(finsler._lane_stage(metric, z[:n]), y, order=2)
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


def _recording_expansions(monkeypatch):
    """Record, from now on, the F^2 expansions (`_f2_tables`) as (order, the
    points (x, y) of their lanes, shape lanes + (2n,)), the x of every stage
    built (`FinslerMetric.at` at jet x; shape lanes + (n,)), and the x of
    every stage laned by the fd oracle (`_lane_stage`)."""
    expansions, stages, lane_stages, at = [], [], [], {}
    stage_at, tables, lane_stage = (finsler.FinslerMetric.at, finsler._f2_tables,
                                    finsler._lane_stage)

    def recording_at(metric, x):
        out = stage_at(metric, x)
        if isinstance(x[0], Jet):
            at[id(out)] = np.moveaxis(np.array([v.value for v in x], float), 0, -1)
            stages.append(at[id(out)])
        return out

    def recording_tables(st, y, order):
        out = tables(st, y, order)
        y = np.asarray(y, float)
        # a LaneStage is built on first use
        x = np.broadcast_to(at[id(st._stage if isinstance(st, finsler.LaneStage) else st)],
                            y.shape)
        expansions.append((order, np.concatenate([x, y], axis=-1)))
        return out

    def recording_lane_stage(metric, x):
        lane_stages.append(np.array(x, float))
        return lane_stage(metric, x)

    monkeypatch.setattr(finsler.FinslerMetric, "at", recording_at)
    monkeypatch.setattr(finsler, "_f2_tables", recording_tables)
    monkeypatch.setattr(finsler, "_lane_stage", recording_lane_stage)
    return expansions, stages, lane_stages


def _rows(a):
    """The rows of a (its last axis), as a set of their bytes."""
    a = np.asarray(a)
    return {row.tobytes() for row in a.reshape(-1, a.shape[-1])}


@pytest.mark.parametrize("name,count", [("gaussian", 2), ("cigar", 2), ("shrinking", 1)])
def test_fd_bundle_computes_one_spray_per_distinct_stencil_point(name, count, monkeypatch):
    fx = fixtures.get_fixture(name)
    flags = sample_flags(fx, count, np.random.default_rng(11))
    refs = [_per_component_bundle(fx.metric, p) for p in flags]
    expansions, stages, lane_stages = _recording_expansions(monkeypatch)
    n = fx.dim
    b = finsler.evaluate_flags(fx.metric, fx.measure, flags, mode="fd").bundle
    # one order-2 expansion for the stack, laned (spray point, flag): a
    # flag's column holds each distinct stencil point of that flag once, its
    # own point first (G, g and F at a flag are that lane, which the second
    # y-derivatives' stencils visit again); the order-3 expansion after it
    # is S's
    (order, Z), (s_order, _S) = expansions
    assert (order, s_order) == (2, 3)
    assert Z.shape == (1 + 8 * n + 12 * n * n, count, 2 * n)
    for k, (p, (_want, visited)) in enumerate(zip(flags, refs)):
        assert Z[0, k].tobytes() == np.concatenate([p.x, p.y]).tobytes()
        assert len(_rows(Z[:, k])) == len(Z) and _rows(Z[:, k]) == set(visited)
        assert len(visited) == 1 + n * (16 * n * n + 6 * n)     # 153 at n = 2
    # one stage laned (stencil x, flag): a flag's column holds its x and 4n
    # steps of each step size once, the x its expansion lanes read
    [X] = lane_stages
    assert X.shape == (1 + 8 * n, count, n)
    for k, p in enumerate(flags):
        assert X[0, k].tobytes() == np.asarray(p.x, float).tobytes()
        assert len(_rows(X[:, k])) == len(X) and _rows(X[:, k]) == _rows(Z[:, k, :n])
    # (built once per laned pass: the spray's first, then S's)
    assert len(stages) == 2 and _rows(stages[0]) == _rows(X)
    for k, (want, _visited) in enumerate(refs):
        got = (b.spray, b.dG_dx, b.dG_dy, b.d2G_dxdy, b.d2G_dydy, b.riemann)
        for g, w in zip(got, want, strict=True):
            assert g.shape == (count,) + w.shape and g[k].tobytes() == w.tobytes(), name
        assert b.ricci[k] == float(np.trace(want[-1]))
        assert math.isfinite(b.r_error[k]) and b.r_error[k] > 0.0
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
    # every stencil x of the flag is one lane of the stage, and every S
    # stencil x one lane of the density tables
    fx = fixtures.get_fixture(name)
    p = sample_flags(fx, 1, np.random.default_rng(13))[0]
    want = _s_dot_fd_per_point(fx.metric, fx.measure, p)
    expansions, stages, lane_stages = _recording_expansions(monkeypatch)
    tables = []
    density = finsler.Measure.log_density_table

    def recording(measure, x):
        tables.append(np.array(x, float))
        return density(measure, x)

    monkeypatch.setattr(finsler.Measure, "log_density_table", recording)
    assert finsler.evaluate_flags(fx.metric, fx.measure, [p], mode="fd").s_dot[0] == want
    n = fx.dim
    # one laned order-2 pass (the spray stencil) and one laned order-3 pass
    # (S at the flag and its 8n stencil points), laned (point, flag), each
    # point once, the flag's own first
    assert [order for order, _Z in expansions] == [2, 3]
    S = expansions[1][1]
    assert S.shape == (1 + 8 * n, 1, 2 * n) and len(_rows(S)) == len(S)
    assert S[0, 0].tobytes() == np.concatenate([p.x, p.y]).tobytes()
    # one stage laned (stencil x, flag): the 4n points along y share the
    # flag's x, each step along x has its own, and the spray stencil steps x
    # by the same first-derivative steps and 4n more
    [X] = lane_stages
    assert X.shape == (1 + 8 * n, 1, n) and len(_rows(X)) == len(X)
    assert [_rows(x) for x in stages] == [_rows(Z[..., :n]) for _order, Z in expansions]
    assert _rows(stages[0]) == _rows(X)
    # one density table, laned (S stencil x, flag): the flag's x and 4n steps
    [T] = tables
    assert T.shape == (1 + 4 * n, 1, n) and len(_rows(T)) == len(T)
    assert _rows(T) == _rows(stages[1]) and _rows(T) <= _rows(X)


def test_fd_weighted_ricci_is_the_sum_of_fd_ricci_and_fd_s_dot():
    rng = np.random.default_rng(3)
    rd = generators.random_randers(rng, 2)
    f = generators.scalar_field(generators.draw_scalar_field(rng, 2))
    cases = [(randers.finsler_from_randers(rd), randers.bh_measure(rd).weighted(f),
              FlagPoint(generators.sample_box_point(rng, 2), unit_direction(rng, 2)))]
    fx = fixtures.get_fixture("cigar")
    cases.append((fx.metric, fx.measure, FlagPoint([1.0, 0.3], [0.4, -0.7])))
    for metric, measure, p in cases:
        ev = finsler.evaluate_flags(metric, measure, [p], mode="fd")
        assert ev.bundle.ricci[0] == fd_flag_alone(metric, None, p).ricci[0]
        assert ev.s_dot[0] == _s_dot_fd_per_point(metric, measure, p)
        assert ev.ric_inf[0] == ev.bundle.ricci[0] + ev.s_dot[0]


# -- the fd evaluation: one laned stage over the distinct stencil x --------------------


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

    T = finsler._f2_tables(finsler._lane_stage(metric, x), y, order=2)
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


# the fd cases: three fixtures at this many sampled flags, and a random
# Randers metric
FD_CASES = {"gaussian": 2, "cigar": 2, "shrinking": 1, "randers": 2}


@functools.lru_cache(maxsize=None)
def _fd_case(name):
    """(metric, measure, flags, the flags' bases or None) of the fd case
    `name`: a fixture (its sample points' `finsler.Bases`) or the random
    Randers metric with a weighted Busemann-Hausdorff measure (no bases)."""
    if name == "randers":
        rng = np.random.default_rng(19)
        rd = generators.random_randers(rng, 2)
        f = generators.scalar_field(generators.draw_scalar_field(rng, 2))
        measure = randers.bh_measure(rd).weighted(f)
        flags = [FlagPoint(generators.sample_box_point(rng, 2), unit_direction(rng, 2))
                 for _ in range(FD_CASES[name])]
        return randers.finsler_from_randers(rd), measure, flags, None
    fx = fixtures.get_fixture(name)
    flags = sample_flags(fx, FD_CASES[name], np.random.default_rng(17))
    return fx.metric, fx.measure, flags, solitons.sample_points(
        fx.rd, fx.nav, fx.f, fx.sigma, flags, 0)[0]


@pytest.mark.parametrize("name", FD_CASES)
def test_fd_evaluation_equals_the_separate_fd_oracles(name):
    metric, measure, flags, bases = _fd_case(name)
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


def _half_plane():
    """A lane-safe metric refused on x[0] < 0 (as in `test_sampling.py`, on
    jet x too) and a measure for it."""
    def at(x):
        jets.refuse(np.asarray(jets.scalar_value(x[0])) < 0, jets.EvaluationError,
                    lambda k: "outside the chart")
        return lambda y: jets.sqrt(y[0] * y[0] + y[1] * y[1]) * (1.0 + 0.1 * x[0])

    return (finsler.FinslerMetric.from_stage(2, at, "half-plane"),
            finsler.Measure(lambda x: jets.exp(0.1 * x[0])))


def test_a_refused_stencil_point_refuses_the_fd_evaluation(monkeypatch, capsys):
    # the flag is inside the chart, its x-stencil (step 1e-5) crosses x[0] = 0
    metric, measure = _half_plane()
    inside, crossing = FlagPoint([0.5, 0.2], [0.6, 0.8]), FlagPoint([2e-6, 0.2], [0.6, 0.8])
    assert metric.value(crossing.x, crossing.y) > 0.0
    finsler.evaluate_flags(metric, measure, [inside], mode="fd")
    # the stacked stage names the refused lanes, as (stencil x, flag) pairs;
    # the per-point path named none
    for stack in ([crossing], [inside, crossing]):
        with pytest.raises(jets.EvaluationError,
                           match=rf"^outside the chart at lanes \(\d+, {len(stack) - 1}\), "):
            finsler.evaluate_flags(metric, measure, stack, mode="fd")
    with pytest.raises(jets.EvaluationError, match=r"^outside the chart$"):
        fd_flag_alone(metric, measure, crossing)
    # and the CLI reports it as an evaluation error, exit 3
    monkeypatch.setattr(suites, "run_fixture_suite", lambda *args, **kwargs:
                        finsler.evaluate_flags(metric, measure, [crossing], mode="fd"))
    assert cli.main(["verify", "--fixture", "cigar", "--diff-mode", "fd", "--samples", "1"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("evaluation error on fixture 'cigar': outside the chart at lanes ")


def _underflowing_stencils(points, n):
    """How many fd stencils of the flags move a coordinate that their step
    underflows (z + h == z), at the steps `finsler.FD_STEP1`/`FD_STEP2`."""
    xs, ys, zs = range(n), range(n, 2 * n), range(2 * n)
    count = 0
    for p in points:
        z = np.concatenate([p.x, p.y])
        scale = max(1.0, float(np.max(np.abs(z))))
        for axes, step in (((xs,), finsler.FD_STEP1), ((ys,), finsler.FD_STEP1),
                           ((xs, ys), finsler.FD_STEP2), ((ys, ys), finsler.FD_STEP2),
                           ((zs,), finsler.FD_STEP1)):
            h = step * scale
            count += sum(any(z[i] + h == z[i] for i in t) for t in itertools.product(*axes))
    return count


def test_fd_step_warnings_fire_for_the_same_stencils(monkeypatch):
    # steps that underflow the coordinates from 0.25 up (cigar's x0 is in
    # [0.2, 2)): each stencil that moves such a coordinate warns once, as in
    # the per-point path, and the values stay bit-equal
    fx = fixtures.get_fixture("cigar")
    flags = sample_flags(fx, 3, np.random.default_rng(3))
    monkeypatch.setattr(finsler, "FD_STEP1", 1e-17)
    monkeypatch.setattr(finsler, "FD_STEP2", 1e-17)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        ev = finsler.evaluate_flags(fx.metric, fx.measure, flags, mode="fd")
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        alone = [fd_flag_alone(fx.metric, fx.measure, p) for p in flags]
    expected = _underflowing_stencils(flags, fx.dim)
    assert 0 < expected < len(flags) * (2 * 2 + 2 * 2 + 2 * 4 + 4)
    assert len(got) == len(want) == expected
    assert all(w.category is jets.FdStepWarning for w in got + want)
    for k, one in enumerate(alone):
        assert_lane(ev, k, one, k)


def test_evaluate_flag_refuses_an_unknown_mode():
    fx = fixtures.get_fixture("cigar")
    with pytest.raises(finsler.ParameterError, match="bogus"):
        finsler.evaluate_flags(fx.metric, fx.measure, [FlagPoint([1.0, 0.3], [0.4, -0.7])],
                               mode="bogus")


# -- jets-vs-fd: one evaluation per family on each side -----------------------------------


def test_jets_vs_fd_evaluates_each_flag_once_per_side(monkeypatch):
    # count 5: a Randers family of draws 0, 2, 4 and a Riemannian one of 1, 3
    count, seed = 5, 5
    rng = np.random.default_rng(seed)
    rng.uniform(-0.8, 0.8, size=(count, 2))         # the plain half's points
    want = np.array([pipeline_draw_alone(rng, i) for i in range(count)]).T
    modes, fd_flags, bases = [], [], []
    evaluate, fd_evaluation, base_points = (finsler.evaluate_flags, finsler._fd_evaluation,
                                            finsler.base_points)

    def counted_evaluate(metric, measure, points, bases=None, mode="jet"):
        modes.append((mode, len(points)))
        return evaluate(metric, measure, points, bases, mode)

    def counted_fd(metric, points, measure):
        fd_flags.append((len(points), measure is not None))
        return fd_evaluation(metric, points, measure)

    monkeypatch.setattr(finsler, "evaluate_flags", counted_evaluate)
    monkeypatch.setattr(finsler, "_fd_evaluation", counted_fd)
    monkeypatch.setattr(finsler, "base_points",
                        lambda m, mu, X: bases.append(len(X)) or base_points(m, mu, X))
    expansions, _stages, _lane_stages = _recording_expansions(monkeypatch)
    reports = {r.name: r for r in suites.crosscheck_jets_vs_fd(count=count, seed=seed)}
    # each flag is a lane of one evaluation per side: one per family and mode
    assert modes == [("jet", 3), ("fd", 3), ("jet", 2), ("fd", 2)]
    assert fd_flags == [(3, True), (2, True)]   # the fd side: one fd evaluation per family
    assert bases == [3, 2]      # one Bases per family for the jet side, a lane per flag
    # per family: one order-4 expansion laned over its flags (jet), then one
    # order-2 pass laned (spray point, flag) at each flag's 65 distinct
    # spray stencil points and one order-3 pass laned (S point, flag) at its
    # 17 distinct S stencil points (fd)
    K2, K3 = 1 + 8 * 2 + 12 * 2 * 2, 1 + 8 * 2
    assert [(order, Z.shape[:-1]) for order, Z in expansions] == [
        (4, (3,)), (2, (K2, 3)), (3, (K3, 3)), (4, (2,)), (2, (K2, 2)), (3, (K3, 2))]
    for order, Z in expansions:
        for k in range(Z.shape[-2]):
            assert len(_rows(Z[..., k, :])) == (1 if order == 4 else len(Z))
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
