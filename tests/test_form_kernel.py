"""`jets.YForms`, the quadratic and linear forms of the metric stages, against
the jet loop it replaced, bit for bit (signs of zero included), and the jet
products one F^2 expansion runs now that the forms take none."""

import numpy as np
import pytest

from finsler_solitons import finsler, fixtures, generators, jets, randers
from finsler_solitons.jets import Jet
from finsler_solitons.sampling import sample_flags


def _loop_forms(y, quad, lin=None):
    """The earlier stage loop: each term added to 0.0 in loop order."""
    n = len(y)
    q = l = 0.0
    for i in range(n):
        for k in range(len(lin[i]) if lin is not None else 0):
            l = l + lin[i][k] * y[i]
        for j in range(n):
            q = q + quad[i][j] * y[i] * y[j]
    return q, l


def _entry(rng, xspace):
    """A random x-jet, a float, or a signed zero of either kind."""
    kind = rng.integers(5)
    if kind == 0:
        return float(rng.normal())
    if kind == 1:
        return float(rng.choice([0.0, -0.0]))
    coeffs = rng.normal(size=xspace.nterms)
    if kind == 2:
        coeffs[rng.random(xspace.nterms) < 0.5] = -0.0
    return Jet(xspace, coeffs)


def _flag_y(rng, n, order, zeros=True):
    """y as the variables n..2n-1 of `jets.flag_space(n, order)`, some values 0."""
    values = rng.normal(size=n)
    if zeros:
        values[rng.random(n) < 0.3] = 0.0
    space = jets.flag_space(n, order)
    return [Jet.variable(float(v), n + k, space) for k, v in enumerate(values)]


def _assert_bit_equal(got, want):
    assert type(got) is type(want)
    if isinstance(want, Jet):
        assert got.space is want.space
        got, want = got.coeffs, want.coeffs
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("order", (2, 3, 4))
def test_forms_of_flag_variables_equal_the_jet_loop(n, order):
    rng = np.random.default_rng(10 * n + order)
    xspace = jets.jet_space(n, 2)
    for _ in range(6):
        y = _flag_y(rng, n, order)
        quad = [[_entry(rng, xspace) for _ in range(n)] for _ in range(n)]
        for width in (None, 1, n):
            lin = None if width is None else [[_entry(rng, xspace) for _ in range(width)]
                                              for _ in range(n)]
            forms = jets.YForms(quad, lin)
            got, want = forms(y), _loop_forms(y, quad, lin)
            assert forms._rows                  # the scatter ran
            for g, w in zip(got, want, strict=True):
                _assert_bit_equal(g, w)


@pytest.mark.parametrize("n", (1, 2, 4))
def test_forms_of_floats_alone_equal_the_jet_loop(n):
    rng = np.random.default_rng(n)
    y = _flag_y(rng, n, 4)
    quad = [[float(rng.choice([rng.normal(), 0.0, -0.0])) for _ in range(n)] for _ in range(n)]
    lin = [[float(rng.normal())] for _ in range(n)]
    forms = jets.YForms(quad, lin)
    for g, w in zip(forms(y), _loop_forms(y, quad, lin), strict=True):
        _assert_bit_equal(g, w)
    assert forms._rows[0] is jets.jet_space(n, 0)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_other_y_run_the_loop_itself(n):
    rng = np.random.default_rng(20 + n)
    x, yv = rng.normal(size=n), rng.normal(size=n)
    quad_f = [[float(v) for v in row] for row in rng.normal(size=(n, n))]
    lin_f = [[float(v) for v in row] for row in rng.normal(size=(n, n))]
    # the value path: floats
    forms = jets.YForms(quad_f, lin_f)
    for g, w in zip(forms(list(yv)), _loop_forms(list(yv), quad_f, lin_f), strict=True):
        _assert_bit_equal(g, w)
    assert forms._rows is None              # y ruled the scatter out
    # `lie_scalar`: x and y as order-1 jets over all 2n variables, coefficients
    # functions of x there
    zs = Jet.variables(list(x) + list(yv), 1)
    xs, ys = zs[:n], zs[n:]
    quad = [[xs[(i + j) % n] * float(rng.normal()) + float(rng.normal()) for j in range(n)]
            for i in range(n)]
    lin = [[xs[i] * xs[i]] for i in range(n)]
    # the 2n-variable coefficients rule the scatter out
    lie = jets.YForms(quad, lin)
    for g, w in zip(lie(ys), _loop_forms(ys, quad, lin), strict=True):
        _assert_bit_equal(g, w)
    assert lie._rows is False
    # y that are not bare variables, and x-only forms
    scaled = [2.0 * v for v in ys]
    xjets = Jet.variables(x, 2)
    rows = [[xjets[i] * xjets[j] + 1.0 for j in range(n)] for i in range(n)]
    for y, coeffs in ((scaled, quad), (xjets, rows)):
        forms = jets.YForms(coeffs)
        _assert_bit_equal(forms(y)[0], _loop_forms(y, coeffs)[0])
        assert forms._rows is None


def test_form_plan_is_cached_read_only_and_checks_the_embedding():
    x2, flag = jets.jet_space(2, 2), jets.flag_space(2, 4)
    plan = jets._form_plan(x2, flag, 2)
    assert plan is jets._form_plan(x2, flag, 2)
    slots = 2 * 2 * 4 + 2 * 2 * 2
    assert [arr.size for arr in plan] == [slots * x2.nterms, slots, slots, slots]
    assert not any(arr.flags.writeable for arr in plan)
    bins, u, v, terms = plan
    assert list(np.bincount(terms)) == [4] * 4 + [2] * 4
    assert bins.max() <= 2 * flag.nterms + 1 and max(u.max(), v.max()) <= 2 + 1
    y = _flag_y(np.random.default_rng(0), 2, 2)
    rows = [[Jet.variables([0.1, 0.2], 3)[0]] * 2] * 2       # order 3 does not embed
    with pytest.raises(ValueError, match="cannot be combined"):
        jets.YForms(rows)(y)


def _fixture_flag(name, seed=5):
    fx = fixtures.get_fixture(name)
    return fx, sample_flags(fx, 1, np.random.default_rng(seed))[0]


@pytest.mark.parametrize("name", ("shrinking", "cigar", "gaussian"))
def test_f2_expansion_runs_eight_jet_products(name, monkeypatch):
    # With the n^2 stage loop a shrinking flag ran 56 jet multiplications (45
    # by a jet), cigar and gaussian 20; the forms take none, and the rest of
    # F^2 takes 8: lam h^2, W_0^2, the order-4 sqrt, the division by lam and
    # F * F.
    fx, p = _fixture_flag(name)
    stage = finsler._lane_stage(fx.metric, p.x)
    finsler._f2_jet(stage, p.y, 4)          # lam's reciprocal is composed and kept
    calls = []
    mul = Jet.__mul__

    def counting_mul(self, other):
        calls.append(type(other))
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting_mul)
    monkeypatch.setattr(Jet, "__rmul__", counting_mul)
    finsler._f2_jet(stage, p.y, 4)
    assert calls.count(Jet) <= 8
    assert len(calls) <= 8


def _loop_randers_stage(rd):
    def at(x):
        rows, b = rd.alpha.matrix(x), rd.beta.components(x)

        def F(y):
            quad, lin = _loop_forms(y, rows, [[v] for v in b])
            return jets.sqrt(quad) + lin

        return F

    return at


def _loop_riemannian_stage(h):
    def at(x):
        rows = h.matrix(x)
        return lambda y: jets.sqrt(_loop_forms(y, rows)[0])

    return at


@pytest.mark.parametrize("dim", (2, 3))
def test_randers_and_riemannian_stages_equal_their_loops(dim, monkeypatch):
    rng = np.random.default_rng(dim)
    rd = generators.random_randers(rng, dim)
    h = generators.random_riemann_metric(rng, dim)
    cases = ((randers.finsler_from_randers(rd), _loop_randers_stage(rd)),
             (finsler.FinslerMetric.from_riemannian(h), _loop_riemannian_stage(h)))
    for metric, loop_at in cases:
        x = generators.sample_box_point(rng, dim)
        y = rng.normal(size=dim)
        for order in (2, 3, 4):
            stage = finsler._lane_stage(metric, x)
            got = finsler._f2_jet(stage, y, order)
            want = finsler._f2_jet(loop_at(Jet.variables(list(x), min(order, 2))), y, order)
            _assert_bit_equal(got, want)
        calls = []
        mul = Jet.__mul__
        with monkeypatch.context() as m:
            m.setattr(Jet, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
            m.setattr(Jet, "__rmul__", lambda a, b: calls.append(1) or mul(a, b))
            finsler._f2_jet(stage, y, 4)
        assert len(calls) <= 5          # the order-4 sqrt and F * F
