"""Soliton residual checkers: pointwise laws, characterization bundles,
scalar fitting, and falsifiability via negative controls."""

import collections
import dataclasses

import numpy as np
import pytest

from finsler_solitons import (finsler, fixtures, generators, randers, riemann, solitons,
                              suites)
from finsler_solitons.finsler import FinslerMetric, Measure
from finsler_solitons.jets import FlagPoint
from finsler_solitons.reports import all_passed
from finsler_solitons.riemann import ScalarField, VectorField, euclidean_metric, field_value
from finsler_solitons.sampling import sample_flags, unit_direction

TOL = 1e-7


def flags_of(fx, n=12, seed=5):
    return sample_flags(fx, n, np.random.default_rng(seed))


def points_of(fx, n=12, seed=5, f=None):
    """The bundle stack of the first n flags of `flags_of`."""
    return solitons.sample_points(fx.rd, fx.nav, fx.f if f is None else f, fx.sigma,
                                  flags_of(fx, n, seed), n)[1]


# -- pointwise residuals -----------------------------------------------------------


def test_almost_soliton_trivial_einstein():
    # V = 0 on an Einstein metric: the defining equation holds at the Einstein scalar
    fx = fixtures.get_fixture("cigar")
    res = solitons.almost_soliton_residual(fx.metric, fixtures.ZERO_FIELD, fx.einstein,
                                           flags_of(fx, 6))
    assert res.shape == (6,) and np.all(np.abs(res) <= 1e-10)


def test_almost_soliton_gradient_field_riemannian(rng):
    # flat space, V = rho x = grad(rho |x|^2 / 2): soliton at kappa = rho
    rho = 1.0
    F = FinslerMetric.from_riemannian(euclidean_metric(2))
    v = VectorField(lambda x: [rho * x[0], rho * x[1]])
    flags = [FlagPoint(generators.sample_box_point(rng, 2), rng.normal(size=2))
             for _ in range(6)]
    assert np.all(np.abs(solitons.almost_soliton_residual(F, v, rho, flags)) <= 1e-12)


@pytest.mark.parametrize("name", ("cigar", "shrinking"))
def test_almost_soliton_residual_lanes_equal_each_flag_alone(name):
    # a nonzero V and a nonconstant kappa, so every term of each lane is live
    fx = fixtures.get_fixture(name)
    v = generators.vector_field(generators.draw_vector_field(np.random.default_rng(9), fx.dim))
    kappa = ScalarField(lambda x: 0.3 + 0.1 * x[0])
    flags = flags_of(fx, 5)
    res = solitons.almost_soliton_residual(fx.metric, v, kappa, flags)
    assert res.shape == (5,)
    for k, p in enumerate(flags):
        assert res[k] == solitons.almost_soliton_residual(fx.metric, v, kappa, [p])[0], k


def test_gradient_soliton_residual_fixtures():
    for name, tol in (("cigar", 1e-8), ("shrinking", 1e-7), ("expanding", 1e-7)):
        fx = fixtures.get_fixture(name)
        for p in flags_of(fx, 4):
            ric_inf = finsler.evaluate_flags(fx.metric, fx.measure, [p]).ric_inf[0]
            assert abs(ric_inf / p.F ** 2 - field_value(fx.kappa, p.x)) <= tol, name


def test_gradient_residual_affine_in_kappa():
    fx = fixtures.get_fixture("cigar")
    flags = flags_of(fx, 1)
    bases, _ = solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags, 0)
    delta = 0.123
    shifted_fx = dataclasses.replace(fx, kappa=ScalarField(lambda x: float(fx.kappa(x)) + delta))
    base, _ = suites._flag_rows(fx, flags, bases, "jet")
    shifted, _ = suites._flag_rows(shifted_fx, flags, bases, "jet")
    assert shifted["infinity-ricci"] == pytest.approx(base["infinity-ricci"] - delta, abs=1e-12)


# -- characterization bundles on fixtures ---------------------------------------------


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_gradient_bundles_pass(name):
    fx = fixtures.get_fixture(name)
    points = points_of(fx, 10)
    rows = solitons.gradient_soliton_checks_ab(fx.kappa, points, TOL)
    rows += solitons.gradient_soliton_checks_nav(fx.kappa, points, TOL, mu=fx.mu)
    assert all_passed(rows), [(r.name, r.max_abs) for r in rows if not r.passed]


@pytest.mark.parametrize("name", ("cigar", "gaussian"))
def test_vector_bundles_pass_on_einstein_fixtures(name):
    fx = fixtures.get_fixture(name)
    points = points_of(fx, 10)
    rows = solitons.vector_soliton_checks_ab(fixtures.ZERO_FIELD, fx.einstein,
                                             points, TOL, c=0.0)
    rows += solitons.vector_soliton_checks_nav(fixtures.ZERO_FIELD, fx.einstein,
                                               points, TOL, mu=fx.einstein_h)
    assert all_passed(rows), [(r.name, r.max_abs) for r in rows if not r.passed]


def test_vector_bundles_pass_on_windless_data():
    # W = 0 and beta = 0: the vector rows are the Riemannian case of the same
    # identities, and on flat h with V = 0 each reads exactly zero
    fx = fixtures.get_fixture("gaussian-riemannian")
    points = points_of(fx, 4)
    rows = solitons.vector_soliton_checks_ab(fixtures.ZERO_FIELD, 0.0, points, TOL, c=0.0)
    rows += solitons.vector_soliton_checks_nav(fixtures.ZERO_FIELD, 0.0, points, TOL, mu=0.0)
    assert [r.name for r in rows] == ["conformal-v", "isotropic-s", "alpha-ricci-balance",
                                      "sigma-lie-balance", "einstein-h", "conformal-w",
                                      "lie-h2-balance", "lie-w0-balance"]
    assert all(r.verdict == "pass" and r.samples == 4 and r.max_abs == 0.0 for r in rows), [
        (r.name, r.max_abs) for r in rows]


@pytest.mark.parametrize("dim", (2, 3))
def test_vector_bundles_read_a_nonzero_field(dim):
    # Euclidean h, constant wind W = C and V = x: F is Minkowski, V is
    # homothetic with c = 1/2, so the vector form holds at kappa = 1 (mu = 0
    # for h); at kappa = 0.9 the rows whose V terms balance kappa fail
    C = (0.3, -0.2, 0.1)[:dim]
    nav = randers.NavigationData(euclidean_metric(dim),
                                 VectorField(lambda x: [v - v + c for v, c in zip(x, C)]))
    v = VectorField(lambda x: list(x))
    rng = np.random.default_rng(7)
    flags = [FlagPoint(rng.uniform(-1.0, 1.0, dim), unit_direction(rng, dim)) for _ in range(8)]
    _, points = solitons.sample_points(randers.from_navigation(nav), nav, 0.0, 0.0, flags, 8)

    def rows(kappa):
        out = solitons.vector_soliton_checks_ab(v, kappa, points, TOL, c=0.5)
        out += solitons.vector_soliton_checks_nav(v, kappa, points, TOL, mu=0.0)
        return {r.name: r for r in out}

    held = rows(1.0)
    assert all_passed(held.values()), [(r.name, r.max_abs) for r in held.values()]
    assert held["lie-h2-balance"].samples == 8
    off = rows(0.9)
    assert {name for name, r in off.items() if not r.passed} == {
        "alpha-ricci-balance", "lie-h2-balance", "lie-w0-balance"}
    assert off["alpha-ricci-balance"].max_abs > 0.1
    assert off["lie-h2-balance"].max_abs == pytest.approx(0.2)
    assert off["lie-w0-balance"].max_abs > 0.03


def test_constant_weight_reduces_to_einstein_check():
    # f constant: the measure is Busemann-Hausdorff and the gradient bundles
    # must hold with kappa equal to the Einstein scalar of F
    fx = fixtures.get_fixture("cigar")
    points = points_of(fx, 8, f=0.0)
    rows = solitons.gradient_soliton_checks_ab(fx.einstein, points, TOL)
    rows += solitons.gradient_soliton_checks_nav(fx.einstein, points, TOL, mu=fx.einstein_h)
    assert all_passed(rows), [(r.name, r.max_abs) for r in rows if not r.passed]
    m_bh = randers.bh_measure(fx.rd)
    for p in flags_of(fx, 4):
        ric_inf = finsler.evaluate_flags(fx.metric, m_bh, [p]).ric_inf[0]
        assert abs(ric_inf / p.F ** 2 - field_value(fx.einstein, p.x)) <= 1e-9


def test_third_balance_equation_consistency():
    # on a vector-form soliton the divergence identity
    #   s^i_{0;i} = (kappa - c) beta + (n-1)(sigma_0/2 + t_0 + 2 sigma s_0
    #               + sigma^2 beta) - L_V(beta)/2
    # follows from the other two; verified here with V = 0 on Einstein fixtures
    for name in ("cigar", "gaussian"):
        fx = fixtures.get_fixture(name)
        n = fx.dim
        for p in flags_of(fx, 6):
            T = randers.beta_tables(riemann.point_record(fx.rd.alpha, p.x, 2),
                                    fx.rd.beta.table(p.x, order=2))
            bd = randers.beta_derivatives(T, p.y)
            kap = float(riemann.scalar_value(fx.einstein(list(p.x))))
            want = kap * bd.beta + (n - 1) * bd.t0
            assert bd.si0i == pytest.approx(want, rel=1e-9, abs=1e-11)


# -- scalar fits ------------------------------------------------------------------------


def _bases(metric, measure, xs):
    return finsler.base_points(metric, measure, xs)


def test_fit_kappa_cigar(rng):
    fx = fixtures.get_fixture("cigar")
    xs = [fx.sample_x(rng) for _ in range(3)]
    kappas, anis = solitons.fit_kappa(fx.metric, fx.measure, _bases(fx.metric, fx.measure, xs))
    assert np.max(np.abs(kappas)) <= 1e-8
    assert anis <= 1e-8


def test_fit_kappa_shrinking(rng):
    fx = fixtures.get_fixture("shrinking")
    xs = [fx.sample_x(rng) for _ in range(2)]
    kappas, anis = solitons.fit_kappa(fx.metric, fx.measure, _bases(fx.metric, fx.measure, xs))
    np.testing.assert_allclose(kappas, 2.0, atol=1e-8)
    assert anis <= 1e-8


def test_fit_kappa_einstein_sphere_trivial_soliton(rng):
    # round sphere with its own volume: Ric_inf = Ric = (n-1) mu h^2
    mu = 1.0
    h = fixtures.sphere_metric(mu, 3)
    F = FinslerMetric.from_riemannian(h)
    m = Measure.riemannian(h)
    xs = [rng.uniform(-0.5, 0.5, size=3) for _ in range(2)]
    kappas, anis = solitons.fit_kappa(F, m, _bases(F, m, xs))
    np.testing.assert_allclose(kappas, 2.0 * mu, atol=1e-9)
    assert anis <= 1e-9


# The declared scalars c and mu satisfy their tensor identities: the
# bundles' conformal, Einstein and (h, f) soliton rows check these pointwise.


def test_fit_conformal_factor_flat_homothety():
    # V = 0.7 x on the flat plane is conformal with factor c = 0.35
    v = VectorField(lambda x: [0.7 * x[0], 0.7 * x[1]])
    rec = riemann.point_record(euclidean_metric(2), [0.2, 0.1], 1)
    v0, dv = v.table(rec.x, order=1)
    vcov = riemann.lowered_covariant_derivative(rec, v0, dv)
    assert np.max(np.abs(riemann.conformal_residual(rec, vcov, 0.35))) <= 1e-13


def test_fit_einstein_scalar_sphere(rng):
    # the unit 3-sphere is Einstein with Ric_h = 2 h
    h = fixtures.sphere_metric(1.0, 3)
    rec = riemann.point_record(h, rng.uniform(-0.4, 0.4, size=3), 2)
    assert np.max(np.abs(rec.ricci - 2.0 * rec.h0)) <= 1e-10


@pytest.mark.parametrize("name, mu", [("cigar", 0.0), ("shrinking", 2.0), ("expanding", -2.0)])
def test_fit_riemann_soliton_scalar_fixtures(name, mu):
    # (h, f) is a Riemannian gradient soliton at the declared mu
    fx = fixtures.get_fixture(name)
    for p in flags_of(fx, 3):
        rec = riemann.point_record(fx.nav.h, p.x, 2)
        soliton = rec.ricci + riemann.hessian_tensor(rec, fx.f.table(p.x, order=2))
        assert float(fx.mu(list(p.x))) == mu
        assert np.max(np.abs(soliton - mu * rec.h0)) <= 1e-12


# -- negative controls --------------------------------------------------------------------


@pytest.mark.parametrize("ingredient", ("f", "W", "kappa", "mu", "sigma"))
def test_negative_controls_cigar(ingredient):
    from finsler_solitons.suites import run_fixture_suite

    fx = fixtures.get_fixture("cigar", perturb=(ingredient, 1e-2))
    rows = run_fixture_suite(fx, samples=12, seed=5, tol=1e-6)
    worst = max(r.max_abs for r in rows)
    assert worst >= 1e-3, f"perturbing {ingredient} left all residuals below 1e-3"
    assert not all_passed(rows)


def test_fixture_suite_dispatches_each_bundle_to_its_checker(monkeypatch):
    # The table looks each checker up at call time, so a wrapper on
    # `solitons` sees every bundle call with that bundle's arguments.
    fx = fixtures.get_fixture("cigar")
    seen = []
    checkers = {"gradient-ab": "gradient_soliton_checks_ab",
                "gradient-nav": "gradient_soliton_checks_nav",
                "vector-ab": "vector_soliton_checks_ab",
                "vector-nav": "vector_soliton_checks_nav"}
    assert set(checkers) == set(suites.BUNDLES) == set(fx.bundles)
    for bundle, attr in checkers.items():
        def wrapped(*args, _fn=getattr(solitons, attr), _attr=attr, **kwargs):
            seen.append((_attr, args, sorted(kwargs.items())))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(solitons, attr, wrapped)
    reports = suites.run_fixture_suite(fx, samples=2, seed=3)
    assert [a for a, _, _ in seen] == [checkers[b] for b in fx.bundles]
    # the gradient bundles read kappa and mu; the vector bundles V = 0 with
    # the Einstein scalars and c = 0
    assert seen[0][1][0] is fx.kappa and seen[0][2] == []
    assert seen[1][1][0] is fx.kappa and ("mu", fx.mu) in seen[1][2]
    assert seen[2][1][:2] == (fixtures.ZERO_FIELD, fx.einstein)
    assert ("c", 0.0) in seen[2][2]
    assert seen[3][1][:2] == (fixtures.ZERO_FIELD, fx.einstein)
    assert ("mu", fx.einstein_h) in seen[3][2]
    # all four read one stack of the bundle flags' tables
    stack = seen[0][1][1]
    assert isinstance(stack, solitons.BundleStack)
    assert seen[1][1][1] is stack and seen[2][1][2] is stack and seen[3][1][2] is stack
    # and the fixture's sigma as the stack tables it
    for got, want in zip(stack.sigma, fx.sigma.table(stack.x, order=1), strict=True):
        assert np.array_equal(got, want)
    for bundle in fx.bundles:
        assert any(r.name.startswith(f"{bundle}/") for r in reports)


@pytest.mark.parametrize("name", ("cigar", "shrinking"))
def test_fixture_suite_makes_one_pass_per_metric_and_field_per_bundle_flag(name, monkeypatch):
    # h, W and f are evaluated at jet x once per run, laned over the flags' x
    # in flag order (the sample points), and the alpha and beta closures
    # never; the records of alpha and h, the beta and W tensors are one
    # stacked pass over the bundle flags' x from that evaluation, and so are
    # sigma's table, which every bundle reads, and the beta tensors'
    # contractions with the flags' y (beta_derivatives); the only other jet
    # passes of table functions are V's vector_table, one per vector bundle
    # over the same x; and no float evaluation of a metric or a field
    from finsler_solitons.jets import Jet

    fx = fixtures.get_fixture(name)
    counts = collections.Counter()
    lanes = collections.defaultdict(list)       # key -> the x of each laned call

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key(*args)] += 1
            return fn(*args, **kwargs)
        return wrapped

    def at_jet_x(key):
        def which(x):
            if not isinstance(x[0], Jet):
                return "float x"
            lanes[key].append(np.array([v.value for v in x]).T)
            return key
        return which

    def stacked_x(key, x_of):
        def which(*args):
            lanes[key].append(x_of(*args))
            return key
        return which

    for field, key in ((fx.nav.h, "h"), (fx.nav.W, "W"), (fx.f, "f"),
                       (fx.rd.alpha, "alpha"), (fx.rd.beta, "beta closure")):
        monkeypatch.setattr(field, "_fn", counting(at_jet_x(key), field._fn))
    for module, attr, x_of in ((riemann, "record_from_tables", lambda h, x, t: x),
                               (riemann, "scalar_table", lambda fn, x, order: x),
                               (riemann, "vector_table", lambda fn, x, order: x),
                               (randers, "beta_tables", lambda A, btab: A.x),
                               (randers, "beta_derivatives", lambda T, y: T.x),
                               (randers, "nav_tensors", lambda H, wtab: H.x)):
        monkeypatch.setattr(module, attr, counting(stacked_x(attr, x_of), getattr(module, attr)))
    monkeypatch.setattr(riemann, "matrix_table",
                        counting(lambda *a: "matrix_table", riemann.matrix_table))
    monkeypatch.setattr(riemann.RiemannMetric, "matrix_at",
                        counting(lambda *a: "matrix_at", riemann.RiemannMetric.matrix_at))
    monkeypatch.setattr(riemann.VectorField, "at",
                        counting(lambda *a: "at", riemann.VectorField.at))
    samples = 5
    suites.run_fixture_suite(fx, samples=samples, seed=3)
    del counts["float x"]       # the float F^2 normalisers and the sampler
    vector_bundles = sum(b.startswith("vector-") for b in fx.bundles)
    assert counts == collections.Counter(
        {"h": 1, "W": 1, "f": 1, "record_from_tables": 2, "beta_tables": 1, "nav_tensors": 1,
         "beta_derivatives": 1, "vector_table": vector_bundles,
         "scalar_table": 1})
    # with fewer than 32 samples every flag is a bundle flag
    xs = np.array([p.x for p in flags_of(fx, samples, seed=3)])
    assert set(lanes) == {"h", "W", "f", "record_from_tables", "beta_tables",
                          "beta_derivatives", "nav_tensors", "scalar_table"} | (
        {"vector_table"} if vector_bundles else set())
    for key, calls in lanes.items():
        assert all(np.array_equal(x, xs) for x in calls), key


def test_sigma_fit_detail_carries_the_fit_residual():
    fx = fixtures.get_fixture("cigar")
    rows = {r.name: r for r in suites.run_fixture_suite(fx, samples=2, seed=3)}
    _sigmas, fitres = solitons.fit_sigma(points_of(fx, n=2, seed=3).beta)
    assert rows["sigma-fit"].detail == f"isotropy fit residual {max(fitres):.2e}"


def test_perturbed_unknown_ingredient_raises():
    with pytest.raises(fixtures.ConstructionError):
        fixtures.get_fixture("cigar", perturb=("nonsense", 1e-2))


# -- equivalence chain ----------------------------------------------------------------------


def test_characterizations_consistent_on_fixtures():
    """Each fixture passes every characterization it supports at its declared
    scalars: the measure form, both gradient bundles, and (on the Einstein
    fixtures) the defining vector-field equation and both vector bundles."""
    for name in fixtures.FIXTURE_NAMES:
        fx = fixtures.get_fixture(name)
        flags = flags_of(fx, 8)
        _, points = solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags, len(flags))
        for p in flags[:4]:
            ric_inf = finsler.evaluate_flags(fx.metric, fx.measure, [p]).ric_inf[0]
            assert abs(ric_inf / p.F ** 2 - field_value(fx.kappa, p.x)) <= 1e-7
        rows = [r for b in fx.bundles for r in suites.BUNDLES[b](fx, points, 1e-7)]
        if fx.einstein is not None:
            assert np.all(np.abs(solitons.almost_soliton_residual(
                fx.metric, fixtures.ZERO_FIELD, fx.einstein, flags[:4])) <= 1e-7)
        assert all_passed(rows), (name, [(r.name, r.max_abs)
                                         for r in rows if not r.passed])
