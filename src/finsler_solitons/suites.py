"""Check-suite orchestration: per-fixture verification and the global
cross-validation (oracle-equivalence) suites.

Fixture suites combine the pointwise soliton laws (Ricci law, infinity-Ricci,
flag curvature, sigma/kappa fits) with whichever characterization bundles the
fixture declares.  Crosscheck suites pit independent code paths against each
other on random seeded data: closed-form vs spray Ricci, jet vs finite
difference, Christoffel vs spray, both sides of the Lie-derivative and
curvature-transfer identities, and the navigation algebra.

Each fixture flag is evaluated once, and all of a suite's flags in one
`finsler.evaluate_flags` call (the one switch between the jet and fd
differentiation modes): one fourth-order expansion of F^2 laned over the
stack of flags, from the run's laned stage, with one spray and Riemann pass
over the stack (in fd mode one pass per expansion order laned over
(stencil point, flag), `finsler._fd_evaluation`), feeds the Ricci law,
infinity-Ricci and, where the fixture declares a flag curvature, the
flag-curvature rows (one stacked fit over the bundle's flags,
`finsler.flag_curvature`); each row is one array over the flags, and a
declared scalar that is a constant is read once for all of them
(`riemann.field_values`).  The flags' F normalisers are the F that
accepted them in `sampling.sample_flags`, one stacked F per batch of draws.
The kappa fit is one more `evaluate_flags` call, over the directions at its
points.  A run's x-only work runs once for all its flags, in
`solitons.sample_points` (one laned closure evaluation, which is also the
run's stage, and one stacked pass of the bundle flags' records):
the flag rows and the kappa fit (on the first 4 lanes) read the run's
`finsler.Bases`, and the bundles and the sigma fit the
`solitons.BundleStack` of the first (at most 32) flags, as it is.

A crosscheck suite that draws many flags of one random metric evaluates the
metric once over their stack (Taylor arithmetic vectorised over points,
Griewank-Walther): `randers-ricci` takes one
`randers.randers_ricci_closed_form`, one float F and one laned
`finsler.curvature_bundle` per metric's 16 flags.  `navigation`,
`lie-identity`, `riemann-reduction`, `isotropic-s` and the pipeline half of
`jets-vs-fd` draw everything
first, in the rng order of one draw (or block) at a time, run the draws of
one kind as one family (`generators.family`, coefficients laned
over the draws) and put the rows back in draw order (`_by_family`), since
`np.mean` sums in that order.  In `navigation` a draw is a block of (at
most 20) flags of one metric, and a family is the blocks of one kind and
size (Randers-first at dim 2, navigation-first at dim 3, a short last block
its own), laned (flags, blocks, n): one record of h, one table of W, one
`randers.nav_tensors`, one float evaluation of each round-trip side and one
float F per family.  `lie-identity`, `riemann-reduction` and `isotropic-s`
draw one random metric per flag, and their families are the draws of one
dimension.  Per family, `lie-identity` makes `finsler.lie_F2`, the float F,
the record of alpha, the one table of V that both Lie derivatives at a
stack take, the Lie terms and both navigation sides one pass each;
`riemann-reduction` one `finsler.curvature_bundle` and one order-2 record
of h; `isotropic-s` one `solitons.sample_points` whose every flag is a
bundle flag, one `solitons.fit_sigma`, one `finsler.evaluate_flags` on its
bases and one float F.  `jets-vs-fd` draws one random metric per flag too,
and its families are the draws of one metric kind (Randers at even draws,
Riemannian at odd ones): one float F and one `finsler.evaluate_flags` per
mode per family, the fd one laned (stencil point, flag), one flag per draw.
Only the plumbing is stacked: the oracle formulas are the one-point ones,
and each row is bit-equal to its flag's own evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from . import finsler, generators, jets, randers, riemann, solitons
from .finsler import FinslerMetric, ParameterError
from .fixtures import ZERO_FIELD
from .jets import FlagPoint, fd_derivative, lift
from .reports import ResidualReport, report_from_values
from .riemann import field_values
from .sampling import sample_flags, unit_direction

# -- per-flag rows -----------------------------------------------------------------


def _flag_rows(fixture, flags, bases, mode):
    """Pointwise law residuals at the flags (`sampling.SampledFlag`s, whose F
    normalises), read off one `finsler.evaluate_flags` call in `mode` on
    their `finsler.Bases`: ({row name: one residual per flag}, the number of
    flags whose fd R is flat only within the bundle's error estimate)."""
    ev = finsler.evaluate_flags(fixture.metric, fixture.measure, flags, bases, mode)
    F2 = jets.power(np.array([p.F for p in flags]), 2)
    rows = {"infinity-ricci": (ev.ric_inf - field_values(fixture.kappa, bases.x) * F2) / F2}
    if fixture.einstein is not None:
        rows["ricci-law"] = ev.bundle.ricci / F2 - field_values(fixture.einstein, bases.x)
    if fixture.flag_curvature is None:
        return rows, 0
    fit = finsler.flag_curvature(ev.bundle)
    rows["flag-curvature-law"] = fit.value - field_values(fixture.flag_curvature, bases.x)
    rows["flag-curvature-misfit"] = fit.residual
    return rows, int(np.count_nonzero(fit.within_error))


# -- fixture suite ------------------------------------------------------------------


def _check_run(what, size, seed, tol):
    """Refuse a run of fewer than one sample, a negative seed or a tol that is
    not finite and > 0 (a size or tol of None keeps a suite's default)."""
    if ((size is not None and size < 1) or seed < 0
            or (tol is not None and not 0 < tol < math.inf)):
        raise ParameterError(f"need {what} >= 1, seed >= 0 and a finite tol > 0")


def run_fixture_suite(fixture, samples, seed, tol=1e-6,
                      mode="jet") -> list[ResidualReport]:
    """Every applicable check of one fixture at the given sample count."""
    _check_run("samples", samples, seed, tol)
    rng = np.random.default_rng(seed)
    flags = sample_flags(fixture, samples, rng)
    reports: list[ResidualReport] = []

    for cname, value in sorted(fixture.constraints.items()):
        reports.append(report_from_values(f"constraint/{cname}", [value], tol=0.0,
                                          detail="structural identity, exact"))

    # the bases of the flags, all from one laned evaluation, and the stacked
    # tables of the first (at most 32) flags, the bundle flags
    bases, stack = solitons.sample_points(fixture.rd, fixture.nav, fixture.f, fixture.sigma,
                                          flags, 32)
    rows, flat = _flag_rows(fixture, flags, bases, mode)
    for name in sorted(rows):
        detail = (f"{flat} of {len(flags)} flags flat: |R| within the finite-difference "
                  "error estimate" if flat and name.startswith("flag-curvature") else "")
        reports.append(report_from_values(name, rows[name], tol, detail=detail))

    # the sigma fit reads the first 8 bundle flags, the kappa fit the first 4
    sigmas, fitres = solitons.fit_sigma(stack.beta)
    reports.append(report_from_values(
        "sigma-fit", np.abs(sigmas[:8] - field_values(fixture.sigma, bases.x[:8])), tol,
        detail=f"isotropy fit residual {max(0.0, *fitres[:8].tolist()):.2e}"))

    kappas, anis = solitons.fit_kappa(fixture.metric, fixture.measure,
                                      bases.lanes(np.arange(min(4, len(flags)))))
    reports.append(report_from_values(
        "kappa-fit", np.abs(kappas - field_values(fixture.kappa, bases.x[:4])), tol))
    reports.append(report_from_values("kappa-anisotropy", [anis], tol))

    for bundle in fixture.bundles:
        if bundle not in BUNDLES:
            raise ValueError(f"unknown bundle {bundle!r} on fixture {fixture.name!r}")
        for r in BUNDLES[bundle](fixture, stack, tol):
            r.name = f"{bundle}/{r.name}"
            reports.append(r)
    return reports


# Each characterization bundle a fixture can declare: its checker, called on
# the fixture's declared scalars and the bundle flags' stacked tables (which
# table the fixture's sigma).  The vector bundles run with V = 0, so kappa is
# the Einstein scalar and c = 0.
# The checker is looked up in `solitons` at call time, so a wrapper installed
# there (a tracer, a counter) sees every call.
BUNDLES = {
    "gradient-ab": lambda fx, stack, tol: solitons.gradient_soliton_checks_ab(
        fx.kappa, stack, tol),
    "gradient-nav": lambda fx, stack, tol: solitons.gradient_soliton_checks_nav(
        fx.kappa, stack, tol, mu=fx.mu),
    "vector-ab": lambda fx, stack, tol: solitons.vector_soliton_checks_ab(
        ZERO_FIELD, fx.einstein, stack, tol, c=0.0),
    "vector-nav": lambda fx, stack, tol: solitons.vector_soliton_checks_nav(
        ZERO_FIELD, fx.einstein, stack, tol, mu=fx.einstein_h),
}


# -- crosscheck suites ----------------------------------------------------------------


def _flag(rng, dim):
    """A random flag on the box: its x, then its y."""
    return FlagPoint(generators.sample_box_point(rng, dim), unit_direction(rng, dim))


def _by_family(rows, draws, key=lambda i, draw: i % 2):
    """The rows of the draws, one array per row name, in draw order.  The
    draws of one key(i, draw i) are one family (by default its dimension,
    2 + i % 2), and rows(*zip(*its draws)) gives that family's rows, each
    of shape (flags..., lanes), lane k its k-th draw's flags; a draw's
    flags stay in their order."""
    families = {}
    for i, draw in enumerate(draws):
        families.setdefault(key(i, draw), []).append(i)
    per_draw = [None] * len(draws)
    for members in families.values():
        part = np.asarray(rows(*zip(*(draws[i] for i in members))))
        for lane, i in enumerate(members):
            per_draw[i] = part[..., lane].reshape(len(part), -1)
    return np.concatenate(per_draw, axis=1)


def crosscheck_randers_ricci(seed, count=100, tol=1e-8):
    """Closed-form Randers Ricci against the generic spray-trace Ricci; each
    metric's flags are drawn first and share one `finsler.curvature_bundle`,
    and their stack one `randers.randers_ricci_closed_form` and one float F."""
    rng = np.random.default_rng(seed)
    rel = []
    flags_per, dim = 16, 3
    for _ in range(count):
        rd = generators.random_randers(rng, dim)
        metric = randers.finsler_from_randers(rd)
        flags = [_flag(rng, dim) for _ in range(flags_per)]
        X, Y = np.array([p.x for p in flags]), np.array([p.y for p in flags])
        closed = randers.randers_ricci_closed_form(rd, X, Y).tolist()
        F = metric.value(X, Y).tolist()
        ricci = finsler.curvature_bundle(metric, flags).ricci.tolist()
        for c, ric, f in zip(closed, ricci, F):
            rel.append((c - ric) / max(abs(ric), f ** 2))
    return [report_from_values("closed-form-vs-spray-ricci", rel, tol,
                               detail=f"{count} random metrics x {flags_per} flags, dim {dim}")]


def crosscheck_lie_identities(seed, count=200, tol=1e-9):
    """Both Lie-derivative identities on random data:

    split form   L_V(F^2) = (F/alpha) L_V(alpha^2) + 2 F L_V(beta)
    lifted form  L_V(htilde^2) via the navigation tensors (both sides).

    Draw i is a random Randers metric, a random field V and a flag for the
    split form, and random navigation data and a flag for the lifted form,
    all of dimension 2 + i % 2.  Every draw is drawn first, in that rng
    order; then each dimension's draws are one family (`generators.family`)
    and each quantity one laned pass over the family's flags (`_lie_rows`),
    and the rows are put back in draw order.
    """
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(count):
        dim = 2 + (i % 2)
        draws.append((generators.draw_calibrated(rng, dim), generators.draw_vector_field(rng, dim),
                      _flag(rng, dim), generators.draw_calibrated(rng, dim), _flag(rng, dim)))
    split, lifted = _by_family(_lie_rows, draws)
    return [report_from_values("randers-f2-split", split, tol),
            report_from_values("navigation-h2-lift", lifted, tol)]


def _lie_rows(rd_draws, v_draws, flags, nav_draws, nav_flags):
    """The split and lifted rows of a family of `crosscheck_lie_identities`
    draws of one dimension, one per draw: the family's Randers data, field
    and navigation data are each built once (`generators.family`), and
    `finsler.lie_F2`, the float F, the record of alpha, the tables of V and
    beta, both Lie terms and both navigation sides are each one pass laned
    over the family's flags, each row bit-equal to its draw alone; V's table
    at each stack of flags feeds both Lie derivatives there."""
    rd = generators.randers_data(generators.family(rd_draws))
    v = generators.vector_field(generators.family(v_draws))
    metric = randers.finsler_from_randers(rd)
    X, Y = np.array([p.x for p in flags]), np.array([p.y for p in flags])
    v0, dv = vtab = v.table(X, order=1)
    lhs = finsler.lie_F2(metric, vtab, X, Y)
    F = metric.value(X, Y)
    A = riemann.point_record(rd.alpha, X, 1)
    alpha = jets.sqrt(riemann.bilinear(Y, A.h0, Y))
    b0, db = rd.beta.table(X, order=1)
    vcov = riemann.lowered_covariant_derivative(A, v0, dv)
    la2 = riemann.lie_h2(vcov, Y)
    lb = riemann.lie_1form(v0, vcov, riemann.mat_vec(A.hinv, b0),
                           riemann.covariant_1form(A.gamma, b0, db), Y)
    rhs = F / alpha * la2 + 2.0 * F * lb
    split = (lhs - rhs) / (F * F)

    nav = generators.navigation_data(generators.family(nav_draws))
    X, Y = np.array([p.x for p in nav_flags]), np.array([p.y for p in nav_flags])
    Fn = randers.finsler_from_navigation(nav).value(X, Y)
    l2, r2 = randers.lie_nav_h2_sides(nav, v.table(X, order=1), X, Y, Fn)
    return split, (l2 - r2) / (Fn * Fn)


def crosscheck_navigation(seed, count=1000, tol=1e-10):
    """Navigation algebra at `count` random sample flags: round trips and

        h^2 - 2 F W_0 = lam F^2      and      h(x, y - F W) = F(x, y),

    with a fresh random metric every 20 samples, alternating between
    Randers-first (even blocks, dim 2) and navigation-first (odd blocks,
    dim 3) round trips.

    Every block is drawn first, in the rng order of one block at a time (the
    metric's coefficients, then x and y per flag); then the blocks of one
    kind and size are one family (`generators.family`, at most 3 per run:
    a short last block is its own), each quantity one pass laned over the
    family's flags (`_navigation_rows`), and the rows are put back in block
    order.
    """
    rng = np.random.default_rng(seed)
    points_per_metric = 20
    blocks = []
    for first in range(0, count, points_per_metric):
        dim = 2 + len(blocks) % 2
        blocks.append((generators.draw_calibrated(rng, dim),
                       [_flag(rng, dim) for _ in range(min(points_per_metric, count - first))]))
    rows = _by_family(_navigation_rows, blocks, key=lambda i, block: (i % 2, len(block[1])))
    return [report_from_values("roundtrip", rows[0], 1e-12),
            report_from_values("norm-identity", rows[1], tol),
            report_from_values("unit-speed-transfer", rows[2], tol)]


def _navigation_rows(coeffs, flags):
    """The three rows of a family of `crosscheck_navigation` blocks of one
    kind and size, each of shape (flags, blocks): the family's metric is
    built once, with its round trip, and the round-trip sides, the record of
    h, the table of W, `randers.nav_tensors` and the float F are each one
    pass over X and Y of shape (flags, blocks, n), lane k block k, each row
    bit-equal to its flag's own evaluation."""
    X = np.stack([[p.x for p in block] for block in flags], axis=1)
    Y = np.stack([[p.y for p in block] for block in flags], axis=1)
    if X.shape[-1] == 2:                                   # Randers-first
        rd = generators.randers_data(generators.family(coeffs))
        nav = randers.to_navigation(rd)
        rd2 = randers.from_navigation(nav)
        (m1, v1), (m2, v2) = (rd.alpha, rd.beta), (rd2.alpha, rd2.beta)
    else:
        nav = generators.navigation_data(generators.family(coeffs))
        nav2 = randers.to_navigation(randers.from_navigation(nav))
        (m1, v1), (m2, v2) = (nav.h, nav.W), (nav2.h, nav2.W)
    roundtrip = np.maximum(np.abs(m1.matrix_at(X) - m2.matrix_at(X)).max(axis=(-2, -1)),
                           np.abs(v1.at(X) - v2.at(X)).max(axis=-1))
    T = randers.nav_tensors(riemann.point_record(nav.h, X, 1), nav.W.table(X, order=1))
    F = randers.finsler_from_navigation(nav).value(X, Y)
    h2 = riemann.bilinear(Y, T.h, Y)
    w0 = riemann.dot(T.w_low, Y)
    xi = Y - F[..., None] * T.w_up
    return [roundtrip, (h2 - 2.0 * F * w0 - T.lam * F * F) / (F * F),
            (jets.sqrt(riemann.bilinear(xi, T.h, xi)) - F) / F]


def crosscheck_riemann_reduction(seed, count=60, tol=1e-9):
    """Spray-trace Ricci against Christoffel-path Ricci on Riemannian inputs.

    Draw i is a random metric h and a flag, of dimension 2 + i % 2.  Every
    draw is drawn first, in that rng order; then each dimension's draws are
    one family (`generators.family`) and each quantity one laned pass over
    the family's flags (`_reduction_rows`), and the rows are put back in
    draw order.
    """
    rng = np.random.default_rng(seed)
    draws = [(generators.draw_riemann_metric(rng, 2 + i % 2), _flag(rng, 2 + i % 2))
             for i in range(count)]
    rel, = _by_family(_reduction_rows, draws)
    return [report_from_values("spray-vs-christoffel-ricci", rel, tol)]


def _reduction_rows(h_draws, flags):
    """The rows of a family of `crosscheck_riemann_reduction` draws of one
    dimension, one per draw: the family's h is built once, and the spray
    Ricci (one `finsler.curvature_bundle`) and the order-2 record of h are
    each one pass laned over the family's flags; the Ricci contraction runs
    per lane, as the one-point code runs it (`riemann.riemann_ricci`), so
    each row is bit-equal to its draw alone."""
    h = generators.riemann_metric(generators.family(h_draws))
    b = finsler.curvature_bundle(FinslerMetric.from_riemannian(h), flags)
    rec = riemann.point_record(h, b.x, 2)
    chris_ric = riemann.riemann_ricci(rec, b.y)
    h2 = riemann.bilinear(b.y, rec.h0, b.y)
    return [(b.ricci - chris_ric) / np.maximum(np.abs(chris_ric), h2)]


def crosscheck_jets_vs_fd(seed, count=50, tol=1e-4):
    """Jet-mode curvature pipeline against the finite-difference mode, plus
    plain jet partials against fd_derivative on transcendental compositions.

    Pipeline draw i, after the plain half's points, is a random dim-2 metric
    (Randers with a weighted Busemann-Hausdorff measure for even i,
    Riemannian with a weighted volume for odd i), its weight and a flag.
    Every draw is drawn first, in that rng order; then each kind's draws are
    one family (`generators.family`), whose flags make one
    `finsler.evaluate_flags` per mode (Ric, S-dot and Ric_inf) and one float
    F (`_pipeline_rows`), and the rows are put back in draw order."""
    rng = np.random.default_rng(seed)
    plain = []
    compositions = [
        lambda a, b: jets.exp(0.3 * a) * jets.sin(b) + jets.tanh(a * b),
        lambda a, b: jets.sqrt(1.2 + a * a + b * b) + jets.cos(a - 2.0 * b),
        lambda a, b: jets.log(2.0 + jets.sinh(a) * 0.4 + b * b) - jets.arcsinh(a + 0.2 * b),
        lambda a, b: jets.power(1.5 + a * a, 1.7) + jets.tan(0.3 * b),
    ]
    steps = {1: 1e-5, 2: 1e-4, 3: 5e-3}
    multis = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 3)]
    for i in range(count):
        f = compositions[i % len(compositions)]
        pt = rng.uniform(-0.8, 0.8, size=2)
        jet = lift(f, pt, order=3)
        for m in multis:
            exact = jet.partial(m)
            est = fd_derivative(f, pt, m, step=steps[sum(m)])
            plain.append((est - exact) / max(1.0, abs(exact)))

    draws = []
    for i in range(count):
        coeffs = (generators.draw_calibrated(rng, 2) if i % 2 == 0
                  else generators.draw_riemann_metric(rng, 2))
        draws.append((i % 2, coeffs, generators.draw_scalar_field(rng, 2), _flag(rng, 2)))
    pipe_ric, pipe_sdot, pipe_winf = _by_family(_pipeline_rows, draws)
    return [report_from_values("plain-derivatives", plain, tol),
            report_from_values("pipeline-ricci", pipe_ric, tol),
            report_from_values("pipeline-s-dot", pipe_sdot, tol),
            report_from_values("pipeline-infinity-ricci", pipe_winf, tol)]


def _pipeline_rows(kinds, coeffs, f_draws, flags):
    """The three pipeline rows of a family of `crosscheck_jets_vs_fd` draws of
    one kind, one per draw: the family's metric (Randers with a weighted
    Busemann-Hausdorff measure for kind 0, Riemannian with a weighted volume
    for kind 1) and weight are built once, and the float F and one
    `finsler.evaluate_flags` per mode are each one pass laned over the
    family's flags, each row bit-equal to its draw alone."""
    if kinds[0] == 0:
        rd = generators.randers_data(generators.family(coeffs))
        metric, measure = randers.finsler_from_randers(rd), randers.bh_measure(rd)
    else:
        h = generators.riemann_metric(generators.family(coeffs))
        metric, measure = FinslerMetric.from_riemannian(h), finsler.Measure.riemannian(h)
    measure = measure.weighted(generators.scalar_field(generators.family(f_draws)))
    X, Y = np.array([p.x for p in flags]), np.array([p.y for p in flags])
    F2 = jets.power(metric.value(X, Y), 2)
    jet = finsler.evaluate_flags(metric, measure, flags)
    fd = finsler.evaluate_flags(metric, measure, flags, mode="fd")
    return [(j - d) / np.maximum(np.abs(j), F2)
            for j, d in ((jet.bundle.ricci, fd.bundle.ricci), (jet.s_dot, fd.s_dot),
                         (jet.ric_inf, fd.ric_inf))]


def crosscheck_isotropic_s(seed, count=40, tol=1e-8):
    """Exact-conformal Euclidean navigation data with nonconstant sigma:

    fitted sigma against the conformal factor, the curvature-transfer
    identity, the beta/navigation s-tensor transfers s_0 = S_0/lam and
    s^i_j = -S^i_j + S^i W_j / lam, and the closed form for S-dot.

    Draw i is conformal navigation data, a weight f, a flag and a test
    scalar mu, of dimension 2 + i % 2.  Every draw is drawn first, in that
    rng order; then each dimension's draws are one family
    (`generators.family`) and each quantity one laned pass over the
    family's flags (`_isotropic_rows`), and the rows are put back in draw
    order.
    """
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(count):
        dim = 2 + (i % 2)
        draws.append((generators.draw_conformal(rng, dim), generators.draw_scalar_field(rng, dim),
                      _flag(rng, dim), float(rng.uniform(-1.0, 1.0))))
    rows = _by_family(_isotropic_rows, draws)
    names = ("sigma-vs-conformal-factor", "curvature-transfer", "s-covector-transfer",
             "s-mixed-transfer", "s-dot-closed-form")
    return [report_from_values(name, row, tol) for name, row in zip(names, rows)]


def _isotropic_rows(conformal_draws, f_draws, flags, mus):
    """The five rows of a family of `crosscheck_isotropic_s` draws of one
    dimension, one per draw: the family's navigation data, sigma and f are
    built once, and every flag is a lane of one `solitons.sample_points`
    (the family's `finsler.Bases` and `solitons.BundleStack`), one
    `solitons.fit_sigma`, one `finsler.evaluate_flags` (Ric and S-dot) on
    those bases, one float evaluation of sigma and one of F; every row is
    a table formula over the stack, each row bit-equal to its draw alone."""
    nav, sigma, _c = generators.conformal_navigation(generators.family(conformal_draws))
    f = generators.scalar_field(generators.family(f_draws))
    metric = randers.finsler_from_navigation(nav)
    measure = finsler.Measure.riemannian(nav.h).weighted(f)
    bases, S = solitons.sample_points(randers.from_navigation(nav), nav, f, sigma, flags,
                                      len(flags))
    T, N, Y = S.beta, S.nav, S.y

    fitted, _res = solitons.fit_sigma(T)
    sig_fit = fitted - jets.scalar_value(sigma(riemann.coordinates(S.x)))

    ev = finsler.evaluate_flags(metric, measure, flags, bases)
    F = metric.value(S.x, Y)
    sig = randers.sigma_terms(S.sigma, Y, N.w_up)
    lhs, rhs = randers.ricci_transfer_sides(ev.bundle.ricci, F, S.h, N, sig, np.array(mus), Y)

    s0 = riemann.dot(T.s_low, Y) - riemann.dot(N.s_low, Y) / N.lam
    smix = -N.s_mixed + N.s_up[..., :, None] * N.w_low[..., None, :] / N.lam[..., None, None]
    smix_row = np.abs(T.s_mixed - smix).max(axis=(-2, -1))

    sd_closed = solitons.s_dot_closed_form_nav(S.h, N, F, sig, S.f, Y)
    return [sig_fit, (lhs - rhs) / jets.power(F, 2), s0, smix_row,
            (ev.s_dot - sd_closed) / np.maximum(1.0, np.abs(ev.s_dot))]


CROSSCHECK_SUITES = {
    "randers-ricci": crosscheck_randers_ricci,
    "lie-identity": crosscheck_lie_identities,
    "navigation": crosscheck_navigation,
    "riemann-reduction": crosscheck_riemann_reduction,
    "jets-vs-fd": crosscheck_jets_vs_fd,
    "isotropic-s": crosscheck_isotropic_s,
}


def run_crosscheck_suite(name, seed, count=None, tol=None) -> list[ResidualReport]:
    """One crosscheck suite; a `count` or `tol` of None keeps the suite's default."""
    _check_run("count", count, seed, tol)
    if name not in CROSSCHECK_SUITES:
        raise KeyError(f"unknown crosscheck suite {name!r}; "
                       f"available: {', '.join(sorted(CROSSCHECK_SUITES))}")
    given = {"count": count, "tol": tol}
    return CROSSCHECK_SUITES[name](seed=seed, **{k: v for k, v in given.items()
                                                 if v is not None})
