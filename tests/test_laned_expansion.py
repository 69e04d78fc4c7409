"""One laned F^2 expansion per flag stack, lane by lane against one flag.

A stack of flags expands F^2 once, as a jet laned over its flags, from one
stage laned over their x (`finsler._f2_jet`).  Every lane must be bit-equal,
signs of zero included, to the one-point expansion of its flag.  So must the
pieces the laned expansion is built from: the laned cross-space product
(`jets.mul_rows` over the cross table, split into blocks of lanes) and the
laned `jets.YForms` scatter.
"""

import numpy as np
import pytest
from _lanes import assert_lane

from finsler_solitons import finsler, fixtures, generators, jets, randers, solitons
from finsler_solitons.finsler import FinslerMetric, FlagDomainError
from finsler_solitons.jets import FlagPoint, Jet
from finsler_solitons.sampling import sample_flags, unit_direction


def _assert_bitwise(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert np.array_equal(got, want), what
    assert np.array_equal(np.signbit(got), np.signbit(want)), what


def _assert_lanes_equal_one_point(stage_of, X, Y, order, what):
    """The laned expansion of the stack (X, Y) against each flag's one-point
    expansion; stage_of(x) is the stage at one x or laned over a stack."""
    laned = finsler._f2_jet(stage_of(X), Y, order)
    assert laned.coeffs.shape == (len(Y), jets.flag_space(X.shape[1], order).nterms)
    for k, (x, y) in enumerate(zip(X, Y)):
        alone = finsler._f2_jet(stage_of(x), y, order)
        assert alone.space is laned.space
        _assert_bitwise(laned.coeffs[k], alone.coeffs, (what, order, k))


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_a_fixture_run_expands_as_each_flag_alone(name):
    # the run's stage: the lanes of the sample points' one navigation point
    fx = fixtures.get_fixture(name)
    flags = sample_flags(fx, 64, np.random.default_rng(0))
    bases, _ = solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags, 0)
    X = np.array([p.x for p in flags])
    Y = np.array([p.y for p in flags])
    stage = bases.stage
    assert isinstance(stage, finsler.LaneStage) and stage.idx is None
    for order in (2, 3, 4):
        laned = finsler._f2_jet(stage, Y, order)
        for k, p in enumerate(flags):
            alone = finsler._f2_jet(finsler._lane_stage(fx.metric, p.x), p.y, order)
            _assert_bitwise(laned.coeffs[k], alone.coeffs, (name, order, k))
        # and the metric's own stage laned over the stack
        _assert_lanes_equal_one_point(lambda x: finsler._lane_stage(fx.metric, x), X, Y, order,
                                      name)


def _block(n, order):
    """The lanes of one block of a flag-space product (`jets.MUL_BLOCK`)."""
    space = jets.flag_space(n, order)
    return jets._mul_table(space, space)[4]


@pytest.mark.parametrize("dim", (2, 3, 4))
def test_random_randers_stacks_expand_as_each_flag_alone(dim, rng):
    rd = generators.random_randers(rng, dim)
    metric = randers.finsler_from_randers(rd)
    for order in (2, 3, 4):
        block = _block(dim, order)
        for size in (1, block, block + 1):
            X = np.array([generators.sample_box_point(rng, dim) for _ in range(size)])
            Y = np.array([unit_direction(rng, dim) for _ in range(size)])
            _assert_lanes_equal_one_point(lambda x: finsler._lane_stage(metric, x), X, Y, order,
                                          (dim, size))


@pytest.mark.parametrize("name", ["cigar", "shrinking"])
def test_directions_on_one_shared_stage_evaluate_as_each_flag_alone(name):
    # the one lane of one base's stage, repeated, serves every lane's y (the
    # kappa fit of one point); at n = 4 its 16 directions are two blocks of
    # the scatter
    fx = fixtures.get_fixture(name)
    p = sample_flags(fx, 1, np.random.default_rng(2))[0]
    base = finsler.base_points(fx.metric, fx.measure, [p.x])
    points = [FlagPoint(p.x, d) for d in solitons._directions(fx.dim)]
    shared = base.lanes(np.zeros(len(points), int))
    assert shared.stage.data is base.stage.data
    stacked = finsler.evaluate_flags(fx.metric, fx.measure, points, shared)
    laned = finsler._f2_jet(shared.stage, np.array([q.y for q in points]), 4)
    for k, q in enumerate(points):
        alone = finsler.evaluate_flags(fx.metric, fx.measure, [q], base)
        assert_lane(stacked, k, alone, (name, k))
        # and each lane's expansion against the base's unlaned stage
        unlaned = finsler._f2_jet(base.lanes(0).stage, q.y, 4)
        _assert_bitwise(laned.coeffs[k], unlaned.coeffs, (name, k))


# -- the laned products and forms -----------------------------------------------------


@pytest.mark.parametrize("n", (2, 3, 4))
def test_a_laned_cross_space_product_equals_the_unlaned_one(n, rng):
    x_space, flag = jets.jet_space(n, 2), jets.flag_space(n, 4)
    ia, _, _, space, block = jets._mul_table(x_space, flag)
    assert space is flag and ia.size < flag.mul_ia.size
    lanes = block + 1                       # one block and one lane more
    a = rng.normal(size=(lanes, x_space.nterms))
    b = rng.normal(size=(lanes, flag.nterms))
    a[0, 1] = -0.0
    for got, swap in ((Jet(x_space, a) * Jet(flag, b), False),
                      (Jet(flag, b) * Jet(x_space, a), True),
                      (Jet(x_space, a[1]) * Jet(flag, b), None)):
        assert got.space is flag and got.coeffs.shape == (lanes, flag.nterms)
        for k in range(lanes):
            u, v = Jet(x_space, a[1] if swap is None else a[k]), Jet(flag, b[k])
            want = v * u if swap else u * v
            _assert_bitwise(got.coeffs[k], want.coeffs, (n, swap, k))
    # a product of more lanes than one block runs block by block
    assert jets.mul_rows(a, b, x_space, flag).shape == (lanes, flag.nterms)


def _loop(quad, lin, y):
    """The loop `YForms` replaces, term by term in loop order."""
    n = len(y)
    q = l = 0.0
    for i in range(n):
        for k in range(len(lin[i])):
            l = l + lin[i][k] * y[i]
        for j in range(n):
            q = q + quad[i][j] * y[i] * y[j]
    return q, l


@pytest.mark.parametrize("n", (2, 3, 4))
def test_the_laned_yforms_scatter_equals_its_loop(n, rng):
    flag = jets.flag_space(n, 4)
    plan_bins = jets._form_plan(jets.jet_space(n, 2), flag, 1)[0]
    for lanes in (5, jets.MUL_BLOCK // plan_bins.size + 1):       # one block, two blocks
        X = rng.uniform(-0.5, 0.5, size=(lanes, n))
        Y = rng.normal(size=(lanes, n))
        xs = Jet.variables(list(X.T), 2)

        def entry(i, j):
            # x jets over one space, and floats as constant rows
            if (i + j) % 3 == 0:
                return 0.5 + i - j
            return xs[i] * xs[j] + xs[(i + 1) % n] * float(j + 1)

        quad = [[entry(i, j) for j in range(n)] for i in range(n)]
        lin = [[entry(i, n - 1 - i) * 2.0] for i in range(n)]
        ys = [Jet.variable(Y[:, k], n + k, flag) for k in range(n)]
        forms = jets.YForms(quad, lin)
        q, l = forms(ys)
        assert forms._rows                  # the scatter ran, not the loop
        assert q.coeffs.shape == l.coeffs.shape == (lanes, flag.nterms)
        # unlaned coefficients against laned y: each lane is the one-x forms
        q0, l0 = jets.YForms(jets.lane(quad, 0), jets.lane(lin, 0))(ys)
        for k in range(lanes):
            yk = [Jet.variable(float(v), n + i, flag) for i, v in enumerate(Y[k])]
            want_q, want_l = _loop(jets.lane(quad, k), jets.lane(lin, k), yk)
            _assert_bitwise(q.coeffs[k], want_q.coeffs, ("quad", lanes, k))
            _assert_bitwise(l.coeffs[k], want_l.coeffs, ("lin", lanes, k))
            want_q, want_l = _loop(jets.lane(quad, 0), jets.lane(lin, 0), yk)
            _assert_bitwise(q0.coeffs[k], want_q.coeffs, ("one x", lanes, k))
            _assert_bitwise(l0.coeffs[k], want_l.coeffs, ("one x", lanes, k))


def test_a_laned_f_guard_names_its_lanes():
    # F = x0 |y| is positive at x0 > 0 only
    metric = FinslerMetric(2, lambda x, y: x[0] * jets.sqrt(y[0] * y[0] + y[1] * y[1]))
    X = np.array([[0.5, 0.0], [-0.5, 0.1], [0.3, 0.2], [-0.1, 0.0]])
    Y = np.array([[1.0, 0.3]] * 4)
    with pytest.raises(FlagDomainError, match=r"^F = -0\.5\d* <= 0 at the requested flag "
                                              r"at lanes 1, 3$"):
        finsler._f2_jet(finsler._lane_stage(metric, X), Y, 4)
    with pytest.raises(FlagDomainError, match="at lanes 1, 3$"):
        finsler.curvature_bundle(metric, [FlagPoint(x, y) for x, y in zip(X, Y)])
    with pytest.raises(FlagDomainError, match=r"<= 0 at the requested flag$"):
        finsler._f2_jet(finsler._lane_stage(metric, X[1]), Y[1], 4)


@pytest.mark.parametrize("order", (2, 3))
def test_tables_and_spray_at_many_lanes_equal_blocks_of_16(order, rng):
    # the fd passes run many lanes at once (about 1,600 in the order-2 pass
    # of a default jets-vs-fd run): at 3,000 lanes every Q table and spray
    # array equals that of 16-lane blocks, bit for bit, so no stacked
    # einsum sums in another order at many lanes
    metric = randers.finsler_from_randers(generators.random_randers(rng, 2))
    X = np.array([generators.sample_box_point(rng, 2) for _ in range(3000)])
    Y = np.array([unit_direction(rng, 2) for _ in range(3000)])
    T = finsler._f2_tables(finsler._lane_stage(metric, X), Y, order)
    D = finsler._spray_derivatives(T, Y, order)
    for k in range(0, len(X), 16):
        block = slice(k, k + 16)
        Tb = finsler._f2_tables(finsler._lane_stage(metric, X[block]), Y[block], order)
        Db = finsler._spray_derivatives(Tb, Y[block], order)
        for got, want in ((T, Tb), (D, Db)):
            assert got.keys() == want.keys()
            for key in want:
                _assert_bitwise(got[key][block], want[key], (order, key, k))
