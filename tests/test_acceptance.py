"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the per-criterion
residual lines).  Every tolerance is pinned here; sample counts follow the
stated criterion.
"""

import math

import numpy as np

import _poly_oracle as po
from finsler_solitons import finsler, fixtures, randers, riemann, solitons, suites
from finsler_solitons.jets import Jet
from finsler_solitons.reports import all_passed
from finsler_solitons.riemann import field_value
from finsler_solitons.sampling import sample_flags


def _line(num, label, value, tol, passed=None):
    ok = (value <= tol) if passed is None else passed
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: max residual {value:.3e} (tol {tol:.1e}): {status}")
    return ok


def test_criterion_01_cigar_ricci_law():
    fx = fixtures.get_fixture("cigar")
    flags = sample_flags(fx, 256, np.random.default_rng(101))
    worst = 0.0
    for p in flags:
        ratio = finsler.curvature_bundle(fx.metric, [p]).ricci[0] / fx.metric.value(p.x, p.y) ** 2
        worst = max(worst, abs(ratio - 2.0 / math.cosh(p.x[0]) ** 2))
    assert _line(1, "cigar Ricci / F^2 vs 2/cosh^2 t over 256 flags", worst, 1e-7)


def test_criterion_02_cigar_steady_soliton():
    fx = fixtures.get_fixture("cigar")
    rng = np.random.default_rng(102)
    flags = sample_flags(fx, 256, rng)
    worst = max(abs(finsler.evaluate_flags(fx.metric, fx.measure, [p]).ric_inf[0] / p.F ** 2
                    - field_value(fx.kappa, p.x))
                for p in flags)
    ok1 = _line(2, "cigar |Ric_inf / F^2| (steady, kappa = 0)", worst, 1e-7)
    sigmas, _ = solitons.fit_sigma(
        solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags[:8], 8)[1].beta)
    worst_sigma = float(np.max(np.abs(sigmas)))
    ok2 = _line(2, "cigar fitted isotropic-S sigma", worst_sigma, 1e-8)
    assert ok1 and ok2


def test_criterion_03_cigar_flag_curvature():
    fx = fixtures.get_fixture("cigar")
    flags = sample_flags(fx, 256, np.random.default_rng(103))
    worst_law, worst_fit = 0.0, 0.0
    for p in flags:
        ev = finsler.evaluate_flags(fx.metric, fx.measure, [p])
        fit = finsler.flag_curvature(ev.bundle)
        worst_law = max(worst_law, abs(fit.value[0] - 2.0 / math.cosh(p.x[0]) ** 2))
        worst_fit = max(worst_fit, fit.residual[0])
    ok1 = _line(3, "cigar fitted K vs 2/cosh^2 t", worst_law, 1e-6)
    ok2 = _line(3, "cigar flag-curvature anisotropy residual", worst_fit, 1e-6)
    assert ok1 and ok2


def test_criterion_04_shrinking_cylinder():
    fx = fixtures.get_fixture("shrinking")
    rng = np.random.default_rng(104)
    flags = sample_flags(fx, 256, rng)
    worst = max(abs(finsler.evaluate_flags(fx.metric, fx.measure, [p]).ric_inf[0] / p.F ** 2
                    - field_value(fx.kappa, p.x))
                for p in flags)
    ok1 = _line(4, "shrinking cylinder |Ric_inf / F^2 - 2| over 256 flags", worst, 1e-6)
    killing = 0.0
    for p in flags[:16]:
        T = randers.nav_tensors(riemann.point_record(fx.nav.h, p.x, 1),
                                fx.nav.W.table(p.x, order=1))
        killing = max(killing, float(np.max(np.abs(T.wcov + T.wcov.T)))
                      / max(1.0, float(np.max(np.abs(T.h)))))
    ok2 = _line(4, "shrinking cylinder Killing residual of W", killing, 1e-9)
    exact = max(fx.constraints.values())
    ok3 = _line(4, "shrinking cylinder constraint matrices", exact, 0.0, passed=exact == 0.0)
    assert ok1 and ok2 and ok3


def test_criterion_05_expanding_cylinder():
    fx = fixtures.get_fixture("expanding")
    rng = np.random.default_rng(105)
    flags = sample_flags(fx, 256, rng)
    worst = max(abs(finsler.evaluate_flags(fx.metric, fx.measure, [p]).ric_inf[0] / p.F ** 2
                    - field_value(fx.kappa, p.x))
                for p in flags)
    ok1 = _line(5, "expanding cylinder |Ric_inf / F^2 + 2| over 256 flags", worst, 1e-6)
    fcond = 0.0
    for p in flags[:32]:
        H = riemann.point_record(fx.nav.h, p.x, 1)
        T = randers.nav_tensors(H, fx.nav.W.table(p.x, order=1))
        ftab = fx.f.table(p.x, order=2)
        hess = riemann.hessian_tensor(H, ftab)
        df = ftab[1]
        val = float(df @ T.s_mixed @ p.y) + float(p.y @ hess @ T.w_up)
        fcond = max(fcond, abs(val) / math.sqrt(float(p.y @ T.h @ p.y)))
    ok2 = _line(5, "expanding cylinder f-compatibility residual", fcond, 1e-8)
    assert ok1 and ok2


def test_criterion_06_gaussian_fixtures():
    rng = np.random.default_rng(106)
    fx_r = fixtures.get_fixture("gaussian-riemannian")
    worst_r = max(abs(finsler.evaluate_flags(fx_r.metric, fx_r.measure, [p]).ric_inf[0] / p.F ** 2
                      - field_value(fx_r.kappa, p.x))
                  for p in sample_flags(fx_r, 256, rng))
    ok1 = _line(6, "Riemannian Gaussian |Ric_inf / F^2 - 1|", worst_r, 1e-8)
    fx = fixtures.get_fixture("gaussian")
    worst = max(abs(finsler.evaluate_flags(fx.metric, fx.measure, [p]).ric_inf[0] / p.F ** 2
                    - field_value(fx.kappa, p.x))
                for p in sample_flags(fx, 256, rng))
    ok2 = _line(6, "Randers Gaussian on the ||W|| < 1 ball |Ric_inf / F^2 - 1|",
                worst, 1e-7)
    assert ok1 and ok2


def test_criterion_07_closed_form_ricci_oracle():
    reports = suites.run_crosscheck_suite("randers-ricci", count=100, seed=107)
    worst = max(r.max_abs for r in reports)
    assert _line(7, "closed-form vs spray Ricci, 100 metrics x 16 flags", worst, 1e-8)


def test_criterion_08_navigation_identities():
    reports = {r.name: r for r in suites.run_crosscheck_suite("navigation",
                                                              count=1000, seed=108)}
    ok1 = _line(8, "navigation round trip over 1000 samples",
                reports["roundtrip"].max_abs, 1e-12)
    ok2 = _line(8, "h^2 - 2 F W_0 = lam F^2 over 1000 samples",
                reports["norm-identity"].max_abs, 1e-10)
    ok3 = _line(8, "h(x, y - F W) = F over 1000 samples",
                reports["unit-speed-transfer"].max_abs, 1e-10)
    assert ok1 and ok2 and ok3


def test_criterion_09_lie_derivative_identities():
    reports = {r.name: r for r in suites.run_crosscheck_suite("lie-identity",
                                                              count=200, seed=109)}
    ok1 = _line(9, "L_V(F^2) split identity over 200 samples",
                reports["randers-f2-split"].max_abs, 1e-9)
    ok2 = _line(9, "navigation lifted-h^2 identity over 200 samples",
                reports["navigation-h2-lift"].max_abs, 1e-9)
    assert ok1 and ok2


def test_criterion_10_characterization_bundles_and_negative_controls():
    tol = 1e-6
    all_ok = True
    for name in fixtures.FIXTURE_NAMES:
        fx = fixtures.get_fixture(name)
        flags = sample_flags(fx, 48, np.random.default_rng(110))
        _, stack = solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags, len(flags))
        rows = [r for b in fx.bundles for r in suites.BUNDLES[b](fx, stack, tol)]
        worst = max(r.max_abs for r in rows)
        all_ok &= _line(10, f"{name} characterization bundles at declared scalars",
                        worst, tol, passed=all_passed(rows))
    for name in fixtures.FIXTURE_NAMES:
        for ingredient in ("f", "W", "kappa", "mu", "sigma"):
            fx = fixtures.get_fixture(name, perturb=(ingredient, 1e-2))
            rows = suites.run_fixture_suite(fx, samples=12, seed=110, tol=tol)
            worst = max(r.max_abs for r in rows)
            ok = worst >= 1e-3
            all_ok &= _line(10, f"negative control {name}/{ingredient} trips a check",
                            worst, 1e-3, passed=ok)
    assert all_ok


def test_criterion_11_differentiation_backbone():
    reports = {r.name: r for r in suites.run_crosscheck_suite("jets-vs-fd",
                                                              count=50, seed=111)}
    ok = True
    for row in ("pipeline-ricci", "pipeline-s-dot", "pipeline-infinity-ricci",
                "plain-derivatives"):
        ok &= _line(11, f"jet vs finite-difference: {row}", reports[row].max_abs, 1e-4)

    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(50):
        nvars = int(rng.integers(1, 5))
        order = int(rng.integers(1, 4))
        p = po.random_poly(rng, nvars, 2)
        q = po.random_poly(rng, nvars, 2)
        comp = po.poly_add(po.poly_mul(p, q), po.poly_scale(p, 1.3))
        point = rng.uniform(-1.0, 1.0, size=nvars)
        got = po.poly_eval_jets(comp, Jet.variables(point, order))
        scale = max(1.0, float(np.max(np.abs(got.coeffs))))
        for idx, m in enumerate(got.space.multis):
            want = po.taylor_coefficient(comp, point, m)
            worst = max(worst, abs(got.coeffs[idx] - want) / scale)
    ok &= _line(11, "jet polynomial suite (exact to rounding)", worst, 1e-12)
    assert ok
