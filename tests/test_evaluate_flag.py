"""One evaluation per flag: `finsler.evaluate_flags` against the separate
per-quantity formulas, a stack of flags against each flag alone, and
counters on the F^2 expansions, spray passes and density tables the suites
make."""

import collections
import itertools
import math

import numpy as np
import pytest
from _lanes import assert_lane, one_flag_fit

from finsler_solitons import finsler, fixtures, jets, randers, solitons, suites
from finsler_solitons.jets import FlagPoint, Jet
from finsler_solitons.sampling import sample_flags


def _flags(fx, count=3, seed=5):
    return sample_flags(fx, count, np.random.default_rng(seed))


def _bases(fx, flags):
    return solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags, 0)[0]


def _separate_formulas(metric, measure, p):
    """Each quantity from its own expansion and an unstacked spray, as the
    engine computed them before one evaluation per flag existed."""
    y = np.asarray(p.y, float)
    T = finsler._f2_tables(finsler._lane_stage(metric, p.x), y, order=4)
    D = finsler._spray_derivatives(T, y, order=4)
    R = finsler._assemble_riemann(y, D["G"], D["dG_dx"], D["dG_dy"], D["d2G_dxdy"],
                                  D["d2G_dydy"])
    ric = float(np.trace(R))
    logs = measure.log_density_table(p.x)
    dS_dx = np.einsum("kii->k", D["d2G_dxdy"]) - np.einsum("i,ki->k", y, logs[2])
    dS_dy = np.einsum("kii->k", D["d2G_dydy"]) - logs[1]
    sdot = float(np.dot(p.y, dS_dx) - 2.0 * np.dot(D["G"], dS_dy))

    T3 = finsler._f2_tables(finsler._lane_stage(metric, p.x), y, order=3)
    D3 = finsler._spray_derivatives(T3, y, order=3)
    S = float(np.trace(D3["dG_dy"]) - np.dot(y, logs[1]))

    T1 = finsler._f2_tables(metric.at(Jet.variables(list(p.x), 1)), p.y, order=1)
    F2 = T["F"] * T["F"]
    A = F2 * np.eye(metric.dim) - 0.5 * np.outer(p.y, T1["Q01"])
    normR = float(np.linalg.norm(R))
    if normR <= 1e-11 * F2 * F2 + 1e-300:
        fit = (0.0, 0.0, True, False)
    else:
        K = float(np.sum(R * A) / np.sum(A * A))
        fit = (K, float(np.linalg.norm(R - K * A) / normR), False, False)
    return {"ricci": ric, "S": S, "dS_dx": dS_dx, "dS_dy": dS_dy, "s_dot": sdot,
            "ric_inf": ric + sdot, "fit": fit}


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_evaluate_flag_equals_the_separate_formulas(name):
    fx = fixtures.get_fixture(name)
    flags = _flags(fx)
    ev = finsler.evaluate_flags(fx.metric, fx.measure, flags)
    fit = finsler.flag_curvature(ev.bundle)
    assert ev.S.shape == (len(flags),)
    for k, p in enumerate(flags):
        want = _separate_formulas(fx.metric, fx.measure, p)
        assert ev.bundle.ricci[k] == want["ricci"]
        assert ev.S[k] == want["S"]
        assert np.array_equal(ev.dS_dx[k], want["dS_dx"])
        assert np.array_equal(ev.dS_dy[k], want["dS_dy"])
        assert ev.s_dot[k] == want["s_dot"]
        assert ev.ric_inf[k] == want["ric_inf"]
        assert (fit.value[k], fit.residual[k], fit.flat[k], fit.within_error[k]) == want["fit"]


def test_evaluate_flag_reuses_a_passed_density_table(monkeypatch):
    # The bases' density table and stage: the flag builds no density
    # table, and the stage once, on its first use, and never again.
    fx = fixtures.get_fixture("cigar")
    p = _flags(fx, count=1)[0]
    a = finsler.evaluate_flags(fx.metric, fx.measure, [p])
    counter = _Counter(monkeypatch)
    base = finsler.base_points(fx.metric, fx.measure, [p.x])
    assert (counter.density_tables, counter.stages) == (1, 0)
    b = finsler.evaluate_flags(fx.metric, fx.measure, [p], base)
    assert (counter.orders, counter.density_tables, counter.stages) == ([4], 1, 1)
    c = finsler.evaluate_flags(fx.metric, fx.measure, [p], base)
    assert (counter.orders, counter.density_tables, counter.stages) == ([4, 4], 1, 1)
    assert_lane(b, 0, a, "b")
    assert_lane(c, 0, a, "c")


@pytest.mark.parametrize("name,order", [("cigar", 4), ("shrinking", 4), ("cigar", 2),
                                        ("gaussian", 3), ("shrinking", 1)])
def test_f2_tables_gather_equals_partials(name, order):
    fx = fixtures.get_fixture(name)
    p = _flags(fx, count=1)[0]
    n = fx.dim
    stage = fx.metric.at(Jet.variables(list(p.x), min(order, jets.X_ORDER)))
    T = finsler._f2_tables(stage, p.y, order)
    f2 = finsler._f2_jet(stage, p.y, order)
    names = [k for k in T if k.startswith("Q")]
    assert names == [f"Q{a}{b}" for lvl in range(1, order + 1)
                     for a, b in finsler._Q_TABLES[lvl]]
    for key in names:
        a, b = int(key[1]), int(key[2])
        assert T[key].shape == (n,) * (a + b)
        for t in itertools.product(range(n), repeat=a + b):
            m = [0] * (2 * n)
            for k in t[:a]:
                m[k] += 1
            for i in t[a:]:
                m[n + i] += 1
            assert T[key][t] == f2.partial(tuple(m))


class _Counter:
    """Counts F^2 expansions (`_f2_jet`: `orders` by order, `ys` the
    directions of each, one row per lane), log-density tables, metric stages
    and navigation points.

    `stages` counts `FinslerMetric.at` at jet x: the x-only work an expansion
    reads.  `value` stages at float x (`float_stages`); it stays a float
    evaluation, so the F^2 normalisers keep the bits of the float formula.
    `nav_xs` holds the x of each `randers._navigation_point` call at jet x
    (a row per lane): the sample points' one laned evaluation of the
    navigation data, from which each gathers its stage and density table
    without `FinslerMetric.at` or `log_density_table`.
    """

    def __init__(self, monkeypatch):
        self.orders = []
        self.ys = []
        self.density_tables = 0
        self.stages = 0
        self.float_stages = 0
        self.nav_xs = []
        expand = finsler._f2_jet
        density = finsler.Measure.log_density_table
        at = finsler.FinslerMetric.at
        nav_point = randers._navigation_point

        def count_expansions(stage, y, order):
            self.orders.append(order)
            self.ys.append(np.array(y, float).reshape(-1, np.shape(y)[-1]))
            return expand(stage, y, order)

        def count_density(measure, x):
            self.density_tables += 1
            return density(measure, x)

        def count_at(metric, x):
            if isinstance(x[0], Jet):
                self.stages += 1
            else:
                self.float_stages += 1
            return at(metric, x)

        def count_nav_point(nav, x, *args):
            if isinstance(x[0], Jet):
                self.nav_xs.append(np.array([v.value for v in x]).T)
            return nav_point(nav, x, *args)

        monkeypatch.setattr(randers, "_navigation_point", count_nav_point)
        monkeypatch.setattr(finsler, "_f2_jet", count_expansions)
        monkeypatch.setattr(finsler.Measure, "log_density_table", count_density)
        monkeypatch.setattr(finsler.FinslerMetric, "at", count_at)


@pytest.mark.parametrize("name", ["cigar", "shrinking"])
def test_flag_rows_expand_f2_once_per_flag(name, monkeypatch):
    fx = fixtures.get_fixture(name)
    flags = _flags(fx, count=3)
    bases = _bases(fx, flags)
    counter = _Counter(monkeypatch)
    rows, flat = suites._flag_rows(fx, flags, bases, "jet")
    assert flat == 0 and all(row.shape == (3,) for row in rows.values())
    if fx.einstein is not None:
        assert {"ricci-law", "flag-curvature-law"} <= set(rows)
    # one order-4 expansion for the stack, whose lanes are its flags in order
    assert counter.orders == [4]
    assert np.array_equal(counter.ys[0], np.array([p.y for p in flags]))
    # every row reads its sample point's stage and density table
    assert counter.density_tables == counter.stages == len(counter.nav_xs) == 0


@pytest.mark.parametrize("name", ["cigar", "shrinking"])
def test_fixture_suite_stages_each_flag_once_and_fits_kappa_on_its_base_points(
        name, monkeypatch):
    fx = fixtures.get_fixture(name)
    samples = 3
    fitted = []
    fit_kappa = solitons.fit_kappa

    def record_fit(metric, measure, bases):
        fitted.append(bases)
        return fit_kappa(metric, measure, bases)

    monkeypatch.setattr(solitons, "fit_kappa", record_fit)
    counter = _Counter(monkeypatch)
    reports = suites.run_fixture_suite(fx, samples=samples, seed=5)
    assert {r.name for r in reports} >= {"infinity-ricci", "kappa-fit", "kappa-anisotropy"}
    # one navigation point laned over the flags' x, in flag order, gives
    # every flag its stage and density table; the kappa fit adds none, and
    # nothing stages or tables the density again
    flags = _flags(fx, count=samples)
    assert len(counter.nav_xs) == 1
    assert np.array_equal(counter.nav_xs[0], np.array([p.x for p in flags]))
    assert counter.stages == counter.density_tables == 0
    dirs = solitons._directions(fx.dim)
    # one order-4 expansion per stack: the flags in order, then the kappa
    # fit's directions at each fitted point, point-major
    assert counter.orders == [4, 4]
    assert np.array_equal(counter.ys[0], np.array([p.y for p in flags]))
    [bases] = fitted
    assert np.array_equal(counter.ys[1], np.array([d for _ in bases.x for d in dirs]))
    assert np.array_equal(bases.x, np.array([p.x for p in flags]))


@pytest.mark.parametrize("name", ["gaussian-riemannian", "cigar"])
def test_fd_flag_rows_build_one_fd_bundle_per_flag(name, monkeypatch):
    fx = fixtures.get_fixture(name)
    flags = _flags(fx, count=2)
    expected, flat = {}, 0
    for p in flags:
        F2 = fx.metric.value(p.x, p.y) ** 2
        kap = float(fx.kappa(list(p.x)))
        ev = finsler.evaluate_flags(fx.metric, fx.measure, [p], mode="fd")
        row = {"infinity-ricci": (ev.ric_inf[0] - kap * F2) / F2}
        b = ev.bundle
        if fx.einstein is not None:
            row["ricci-law"] = b.ricci[0] / F2 - float(fx.einstein(list(p.x)))
        if fx.flag_curvature is not None:
            K, residual, _, within_error = one_flag_fit(b, 0)
            row["flag-curvature-law"] = K - float(fx.flag_curvature(list(p.x)))
            row["flag-curvature-misfit"] = residual
            flat += within_error
        for key, value in row.items():
            expected.setdefault(key, []).append(value)

    calls = []
    bundle, fd_evaluation = finsler.curvature_bundle, finsler._fd_evaluation

    def count_bundle(metric, points, stage=None):
        calls.append(("bundle", len(points)))
        return bundle(metric, points, stage)

    def count_fd(metric, points, measure):
        calls.append(("fd", measure is not None, len(points)))
        return fd_evaluation(metric, points, measure)

    monkeypatch.setattr(finsler, "curvature_bundle", count_bundle)
    monkeypatch.setattr(finsler, "_fd_evaluation", count_fd)
    rows, got_flat = suites._flag_rows(fx, flags, _bases(fx, flags), "fd")
    # one fd evaluation for the stack, bundle and S together: each flag's
    # rows read one fd bundle, and no bundle is built apart
    assert calls == [("fd", True, len(flags))]
    assert rows.keys() == expected.keys() and got_flat == flat
    for key, want in expected.items():
        assert np.array_equal(rows[key], want), key


@pytest.mark.parametrize("name", ["cigar", "shrinking"])
def test_fd_flag_on_its_sample_point_stages_each_stencil_x_once(name, monkeypatch):
    # The spray stencil steps x by 4n points at each of its two step sizes,
    # the S stencil by the 4n of the first.  Both read lanes of one stage
    # laned over the distinct stencil x, the flag's own x among them, and
    # not the sample point's base: one stage per laned pass.
    fx = fixtures.get_fixture(name)
    n = fx.dim
    p = _flags(fx, count=1)[0]
    base = _bases(fx, [p])
    counter = _Counter(monkeypatch)
    finsler.evaluate_flags(fx.metric, fx.measure, [p], base, mode="fd")
    assert counter.stages == 2
    # one density table, laned over the S stencil x
    assert counter.density_tables == 1
    # order 2: the flag and the other spray stencil points; order 3: S at the
    # flag and its stencil points; one laned expansion each
    assert counter.orders == [2, 3]
    assert [len(ys) for ys in counter.ys] == [1 + 8 * n + 12 * n * n, 1 + 8 * n]
    assert all(np.array_equal(ys[0], p.y) for ys in counter.ys)


def test_fit_kappa_one_expansion_per_direction_one_density_table_per_point(monkeypatch):
    fx = fixtures.get_fixture("cigar")
    xs = [f.x for f in _flags(fx, count=2)]
    dirs = solitons._directions(fx.dim)
    counter = _Counter(monkeypatch)
    bases = finsler.base_points(fx.metric, fx.measure, xs)
    # the bases build their stage on first use, not before, and one density
    # table laned over the points, a lane per point
    assert (counter.stages, counter.density_tables) == (0, 1)
    assert bases.logs[2].shape == (len(xs), fx.dim, fx.dim)
    solitons.fit_kappa(fx.metric, fx.measure, bases)
    # the fit builds no density table of its own, and stages once: its
    # flags' lanes of the bases' x jets (a fixture run's bases are lanes of
    # its navigation point: `test_fixture_suite_stages_each_flag_once...`)
    assert (counter.stages, counter.density_tables) == (1, 1)
    assert counter.orders == [4]
    assert np.array_equal(counter.ys[0], np.array([d for _ in xs for d in dirs]))
    assert counter.float_stages == 1            # the F^2 normalisers: one stacked value


def test_shrinking_fit_kappa_point_runs_the_x_space_products_of_one_expansion(monkeypatch):
    fx = fixtures.get_fixture("shrinking")
    p = _flags(fx, count=1)[0]
    dirs = solitons._directions(fx.dim)
    assert len(dirs) == 16
    base = finsler.base_points(fx.metric, fx.measure, [p.x])
    counts = collections.Counter()
    mul = Jet.__mul__

    def counting_mul(self, other):
        out = mul(self, other)
        if isinstance(other, Jet):
            counts[out.space] += 1
        return out

    monkeypatch.setattr(Jet, "__mul__", counting_mul)
    finsler._f2_jet(finsler._lane_stage(fx.metric, p.x), p.y, 4)
    one = dict(counts)
    counts.clear()
    solitons.fit_kappa(fx.metric, fx.measure, base)
    x_space, flag_space = jets.jet_space(4, 2), jets.flag_space(4, 4)
    assert set(counts) == set(one) == {x_space, flag_space}
    assert 0 < counts[x_space] <= one[x_space]
    # the 16 directions share the base's stage of one lane and expand as one
    # laned jet: the flag-space products of one expansion
    assert counts[flag_space] == one[flag_space]


def test_gradient_soliton_residual_expands_f2_once(monkeypatch):
    fx = fixtures.get_fixture("cigar")
    p = _flags(fx, count=1)[0]
    counter = _Counter(monkeypatch)
    ric_inf = finsler.evaluate_flags(fx.metric, fx.measure, [p]).ric_inf[0]
    assert abs(ric_inf / p.F ** 2 - float(fx.kappa(list(p.x)))) < 1e-9
    assert counter.orders == [4]


def test_fd_bundle_matches_the_jet_bundle():
    fx = fixtures.get_fixture("cigar")
    p = FlagPoint([1.0, 0.3], [0.4, -0.7])
    fd = finsler.evaluate_flags(fx.metric, fx.measure, [p], mode="fd").bundle
    jet = finsler.curvature_bundle(fx.metric, [p])
    np.testing.assert_array_equal(fd.dF2_dy, jet.dF2_dy)
    assert math.isclose(fd.ricci[0], jet.ricci[0], rel_tol=1e-6)
