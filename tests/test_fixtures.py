"""Fixture registry: domain guards, structural constraints, chart identities."""

import math
import typing
import zlib

import numpy as np
import pytest

from finsler_solitons import finsler, fixtures, jets, randers, riemann
from finsler_solitons.fixtures import (ConstructionError, expanding_cylinder,
                                       gaussian, get_fixture, shrinking_cylinder,
                                       sphere_metric)
from finsler_solitons.riemann import ScalarField, VectorField, euclidean_metric
from finsler_solitons.sampling import sample_flags, unit_direction


def test_registry_names():
    for name in ("gaussian", "cigar", "shrinking", "expanding"):
        assert name in fixtures.FIXTURE_NAMES
    with pytest.raises(KeyError):
        get_fixture("nosuch")


def test_fixture_annotations_resolve():
    hints = typing.get_type_hints(fixtures.Fixture)
    assert hints["metric"] is finsler.FinslerMetric
    assert hints["measure"] is finsler.Measure


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_domain_guards_hold_on_sample_domain(name):
    """1000 sampled points per fixture satisfy b < 1, lambda > 0, F > 0."""
    fx = get_fixture(name)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(1000):
        x = fx.sample_x(rng)
        lam = randers._lam(fx.nav.h.matrix(list(x)), fx.nav.W.components(list(x)))
        assert jets.scalar_value(lam) > 0.0
        b = fx.rd.beta.at(x)
        assert float(b @ np.linalg.solve(fx.rd.alpha.matrix_at(x), b)) < 1.0
        y = unit_direction(rng, fx.dim)
        assert fx.metric.value(x, y) > 1e-6


def test_sphere_chart_inverse_identity(rng):
    mu = 1.0
    sm = sphere_metric(mu, 3)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=3)
        H = sm.matrix_at(x)
        D = 1.0 + mu * float(x @ x)
        Hinv = D * (np.eye(3) + mu * np.outer(x, x))
        np.testing.assert_allclose(H @ Hinv, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("name", ("shrinking", "expanding"))
def test_cylinder_f_condition(name, rng):
    """f_k S^k_0 + f_{:0k} W^k = 0 at sampled flags."""
    fx = get_fixture(name)
    for p in sample_flags(fx, 12, rng):
        H = riemann.point_record(fx.nav.h, p.x, 1)
        T = randers.nav_tensors(H, fx.nav.W.table(p.x, order=1))
        ftab = fx.f.table(p.x, order=2)
        hess = riemann.hessian_tensor(H, ftab)
        df = ftab[1]
        val = float(df @ T.s_mixed @ p.y) + float(p.y @ hess @ T.w_up)
        assert abs(val) <= 1e-9


def test_cylinder_constraints_exact():
    fx = get_fixture("shrinking")
    assert fx.constraints["Q-antisymmetric"] == 0.0
    assert fx.constraints["QtQ-identity"] == 0.0
    assert fx.constraints["Qd-zero"] == 0.0


def test_shrinking_parameter_family(rng):
    # the 3-d family: Q from (p, q, l), d = (l, -q, p); exact constraints
    mu = 1.0
    p_, q_, l_ = 0.25, -0.125, 0.5
    Q = math.sqrt(mu) * np.array([[0.0, p_, q_], [-p_, 0.0, l_], [-q_, -l_, 0.0]])
    d = np.array([l_, -q_, p_])
    fx = shrinking_cylinder(m=2, mu=mu, Q=Q, d=d)
    assert fx.kappa([0.0] * 4) == 2.0
    p = sample_flags(fx, 2, rng)[0]
    T = randers.nav_tensors(riemann.point_record(fx.nav.h, p.x, 1), fx.nav.W.table(p.x, order=1))
    assert np.max(np.abs(T.wcov + T.wcov.T)) <= 1e-12


def test_cylinder_larger_m_parameterization():
    # m = 3 gives a 6-dimensional cylinder with soliton constant 2(m-1)mu
    from finsler_solitons.sampling import sample_flags as sf

    fx = shrinking_cylinder(m=3, mu=1.0)
    assert fx.dim == 6
    assert float(fx.kappa([0.0] * 6)) == 4.0
    assert max(fx.constraints.values()) == 0.0
    p = sf(fx, 1, np.random.default_rng(0))[0]
    ric_inf = finsler.evaluate_flags(fx.metric, fx.measure, [p])[0].ric_inf
    assert abs(ric_inf / p.F ** 2 - riemann.field_value(fx.kappa, p.x)) <= 1e-10


def test_shrinking_riemannian_reduction(rng):
    # Q = 0, d = 0: the wind vanishes and the product soliton is Riemannian
    k = 3
    fx = shrinking_cylinder(m=2, mu=1.0, Q=np.zeros((k, k)), d=np.zeros(k))
    x = fx.sample_x(rng)
    assert np.max(np.abs(fx.nav.W.components(list(x)))) == 0.0
    assert float(fx.kappa(list(x))) == 2.0


def test_cylinder_constraint_violations_raise():
    k = 3
    bad_q = np.zeros((k, k))
    bad_q[0, 1] = 1.0  # not antisymmetric
    with pytest.raises(ConstructionError):
        shrinking_cylinder(Q=bad_q, d=np.zeros(k))
    Q = np.zeros((k, k))
    Q[1, 2], Q[2, 1] = 0.5, -0.5
    with pytest.raises(ConstructionError):
        shrinking_cylinder(Q=Q, d=np.array([0.3, 0.0, 0.0]))  # QtQ identity fails
    Q0, d0 = np.zeros((k, k)), np.array([1.2, 0.0, 0.0])
    with pytest.raises(ConstructionError):
        shrinking_cylinder(Q=Q0, d=d0)  # |d| >= 1


def test_expanding_t_range_guard():
    with pytest.raises(ConstructionError):
        expanding_cylinder(t_range=(0.0, 0.9))
    with pytest.raises(ConstructionError):
        expanding_cylinder(t_range=(0.2, 1.1))


def test_expanding_lowered_wind_scales_with_t2(rng):
    fx = get_fixture("expanding")
    x = fx.sample_x(rng)
    t = x[0]
    T = randers.nav_tensors(riemann.point_record(fx.nav.h, x, 1), fx.nav.W.table(x, order=1))
    hat = sphere_metric(1.0, 3).matrix_at(x[1:])
    what = np.array(fx.nav.W.components(list(x)))[1:]
    np.testing.assert_allclose(T.w_low[1:], t * t * (hat @ what), atol=1e-12)
    assert T.w_low[0] == 0.0


def test_expanding_hessian_law(rng):
    fx = get_fixture("expanding")
    x = fx.sample_x(rng)
    y = rng.normal(size=4)
    h2 = float(y @ fx.nav.h.matrix_at(x) @ y)
    got = riemann.hessian(riemann.point_record(fx.nav.h, x, 1), fx.f.table(x, order=2), y)
    assert got == pytest.approx(-2.0 * h2, rel=1e-10)


def test_gaussian_variants():
    fx = get_fixture("gaussian")
    assert fx.name == "gaussian"
    assert np.max(np.abs(fx.nav.W.components([0.5, 0.2]))) > 0.0
    fxr = get_fixture("gaussian-riemannian")
    assert np.max(np.abs(fxr.nav.W.components([0.5, 0.2]))) == 0.0


def test_gaussian_construction_errors():
    with pytest.raises(ConstructionError):
        gaussian(rho=1.0, C=np.array([0.2, 0.0]), n=2)  # drift with rho != 0
    with pytest.raises(ConstructionError):
        gaussian(rho=1.0, Q=np.array([[0.0, 1.0], [0.0, 0.0]]), n=2)  # not antisym
    big_q = np.array([[0.0, 2.0], [-2.0, 0.0]])
    with pytest.raises(ConstructionError):
        gaussian(rho=1.0, Q=big_q, n=2)  # ||W|| reaches 1 on the ball


def test_gaussian_steady_with_drift_is_allowed(rng):
    fx = gaussian(rho=0.0, C=np.array([0.3, 0.0]), n=2)
    x = fx.sample_x(rng)
    assert float(fx.kappa(list(x))) == 0.0


def test_perturbed_rebuild_keeps_metadata(rng):
    base = get_fixture("cigar")
    fx = get_fixture("cigar", perturb=("kappa", 1e-2))
    assert (fx.name, fx.bundles, fx.dim) == (base.name, base.bundles, base.dim)
    x = fx.sample_x(rng)
    assert float(fx.kappa(list(x))) == float(base.kappa(list(x))) + 1e-2


# -- the navigation soliton declaration ---------------------------------------------------

DECLARED = ("kappa", "mu", "sigma", "einstein", "einstein_h", "flag_curvature")


def _declared(fx, x):
    """Each declared scalar of fx at x, None where it is not declared."""
    return {k: None if getattr(fx, k) is None else float(getattr(fx, k)(list(x)))
            for k in DECLARED}


def test_navigation_soliton_bundles_follow_the_declaration():
    h, f = euclidean_metric(2), ScalarField(lambda x: 0.5 * (x[0] * x[0] + x[1] * x[1]))
    wind = VectorField(lambda x: [-0.5 * x[1], 0.5 * x[0]])
    gradient = ("gradient-ab", "gradient-nav")
    for W, einstein, bundles in ((wind, 0.0, gradient + ("vector-ab", "vector-nav")),
                                 (wind, None, gradient), (None, 0.0, gradient),
                                 (None, None, gradient)):
        fx = fixtures.navigation_soliton("plane", h, W, f, 1.0, fixtures._ball_sampler(2, 0.5),
                                         einstein=einstein, flag_curvature=einstein)
        assert fx.bundles == bundles
        assert fx.dim == 2 and fx.metric.name == fx.nav.name == "plane"
        assert fx.nav.W is (fixtures.ZERO_FIELD if W is None else W)
        assert _declared(fx, [0.3, -0.2]) == {
            "kappa": 1.0, "mu": 1.0, "sigma": 0.0, "einstein": einstein,
            "einstein_h": einstein, "flag_curvature": einstein}
    assert [get_fixture(n).bundles == gradient for n in fixtures.FIXTURE_NAMES] == [
        False, True, False, True, True]


@pytest.mark.parametrize("name", ("cigar", "shrinking"))
@pytest.mark.parametrize("ingredient", ("f", "W", "kappa", "mu", "sigma"))
def test_each_perturbation_shifts_exactly_its_declared_scalars(name, ingredient):
    eps = 1e-2
    base, fx = get_fixture(name), get_fixture(name, perturb=(ingredient, eps))
    x = base.sample_x(np.random.default_rng(4))
    want = _declared(base, x)
    for key in {"kappa": ("kappa",), "mu": ("mu", "einstein_h"),
                "sigma": ("sigma",)}.get(ingredient, ()):
        if want[key] is not None:
            want[key] += eps
    assert _declared(fx, x) == want
    assert fx.bundles == base.bundles
    bump = eps * x[0] * x[0] if ingredient == "f" else 0.0
    assert float(fx.f(list(x))) == float(base.f(list(x))) + bump
    w, w0 = fx.nav.W.at(x), base.nav.W.at(x)
    w0[0] += eps * x[0] if ingredient == "W" else 0.0
    assert np.array_equal(w, w0)


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
@pytest.mark.parametrize("ingredient", ("f", "W", "kappa", "mu", "sigma"))
def test_a_perturbation_rederives_the_metric_measure_and_randers_data(name, ingredient):
    base = get_fixture(name)
    fx = fixtures.perturbed(base, ingredient, 1e-2)
    measure = finsler.Measure.riemannian(fx.nav.h).weighted(fx.f)
    metric, rd = randers.finsler_from_navigation(fx.nav), randers.from_navigation(fx.nav)
    for p in sample_flags(base, 3, np.random.default_rng(7)):
        x, y = list(p.x), list(p.y)
        assert fx.metric.value(x, y) == metric.value(x, y)
        assert fx.measure.density(x) == measure.density(x)
        assert np.array_equal(fx.rd.alpha.matrix_at(x), rd.alpha.matrix_at(x))
        assert np.array_equal(fx.rd.beta.at(x), rd.beta.at(x))
        if ingredient == "f":
            assert fx.measure.density(x) != base.measure.density(x)
        if ingredient == "W":
            assert fx.metric.value(x, y) != base.metric.value(x, y)
            assert not np.array_equal(fx.rd.beta.at(x), base.rd.beta.at(x))


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_stacked_h_rows_and_f_values_equal_the_per_point_ones(name):
    # the float readers at a stack of 4000 seed-0 sample points, one row per
    # point, each bit-equal to its per-point call (cigar's tanh^2 squares
    # each lane as a Python float, as the per-point call does)
    fx = get_fixture(name)
    rng = np.random.default_rng(0)
    X = np.array([fx.sample_x(rng) for _ in range(4000)])
    Y = np.array([unit_direction(rng, fx.dim) for _ in range(len(X))])
    H, F = fx.nav.h.matrix_at(X), fx.metric.value(X, Y)
    for x, y, h, f in zip(X, Y, H, F.tolist()):
        assert np.array_equal(h, fx.nav.h.matrix_at(x))
        assert f == fx.metric.value(x, y)
