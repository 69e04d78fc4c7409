"""Jet arithmetic against independent oracles: hand-expanded polynomials,
symbolic differentiation, and Richardson central differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _poly_oracle as po
from finsler_solitons import jets
from finsler_solitons.jets import (EvaluationError, FdStepWarning, FlagPoint,
                                   Jet, fd_derivative, jet_space, lift)


# -- lift: the three documented cases ------------------------------------------


def test_lift_bilinear():
    j = lift(lambda x, y: x * y, [2.0, 3.0], order=2)
    assert j.value == 6.0
    assert j.partial((1, 0)) == 3.0
    assert j.partial((0, 1)) == 2.0
    assert j.partial((1, 1)) == 1.0
    assert j.partial((2, 0)) == 0.0


def test_lift_tanh_squared():
    # oracle: symbolic differentiation of tanh(t)^2 at t = 1
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    expr = sympy.tanh(t) ** 2
    val = float(expr.subs(t, 1))
    der = float(sympy.diff(expr, t).subs(t, 1))
    j = lift(lambda u: jets.tanh(u) ** 2, [1.0], order=1)
    assert j.value == pytest.approx(val, rel=1e-14)
    assert j.partial((1,)) == pytest.approx(der, rel=1e-14)
    assert der == pytest.approx(2 * math.tanh(1) / math.cosh(1) ** 2, rel=1e-14)


def test_lift_constant():
    j = lift(lambda x, y: 5.0, [0.3, -0.7], order=3)
    assert j.value == 5.0
    assert np.all(j.coeffs[1:] == 0.0)


def test_lift_rejects_bad_order():
    with pytest.raises(ValueError):
        lift(lambda x: x, [1.0], order=4)
    with pytest.raises(ValueError):
        lift(lambda x: x, [1.0], order=0)


# -- polynomial exactness -------------------------------------------------------


def test_polynomial_compositions_exact():
    """200 random degree-<=5 compositions in up to 6 variables: every Jet
    coefficient equals the binomially re-expanded polynomial coefficient."""
    rng = np.random.default_rng(20240811)
    for trial in range(200):
        nvars = int(rng.integers(1, 7))
        order = int(rng.integers(1, 4))
        p = po.random_poly(rng, nvars, 2)
        q = po.random_poly(rng, nvars, 2)
        lin = po.random_poly(rng, nvars, 1)
        comp = po.poly_add(po.poly_mul(po.poly_mul(p, q), lin),
                           po.poly_add(p, po.poly_scale(q, -0.7)))
        point = rng.uniform(-1.0, 1.0, size=nvars)
        jvars = Jet.variables(point, order)
        got = po.poly_eval_jets(comp, jvars)
        assert isinstance(got, Jet)
        sp = got.space
        scale = max(1.0, float(np.max(np.abs(got.coeffs))))
        for idx, m in enumerate(sp.multis):
            want = po.taylor_coefficient(comp, point, m)
            assert got.coeffs[idx] == pytest.approx(want, abs=1e-12 * scale)


# -- transcendental compositions vs symbolic and fd oracles -----------------------


def _safe_compositions():
    return [
        lambda a, b: jets.exp(0.3 * a) * jets.sin(b) + jets.tanh(a * b),
        lambda a, b: jets.sqrt(1.5 + a * a + b * b) - jets.cos(a + b),
        lambda a, b: jets.log(2.0 + jets.sinh(a) * 0.5) + jets.cosh(0.4 * b),
        lambda a, b: jets.power(1.2 + a * a, 1.3) + jets.arcsinh(a - b),
        lambda a, b: jets.tan(0.4 * a) / (1.5 + b * b),
    ]


def test_transcendental_vs_symbolic():
    sympy = pytest.importorskip("sympy")
    a, b = sympy.symbols("a b")
    exprs = [
        sympy.exp(sympy.Rational(3, 10) * a) * sympy.sin(b) + sympy.tanh(a * b),
        sympy.sqrt(sympy.Rational(3, 2) + a ** 2 + b ** 2) - sympy.cos(a + b),
        sympy.log(2 + sympy.sinh(a) / 2) + sympy.cosh(sympy.Rational(2, 5) * b),
        (sympy.Rational(6, 5) + a ** 2) ** sympy.Rational(13, 10) + sympy.asinh(a - b),
        sympy.tan(sympy.Rational(2, 5) * a) / (sympy.Rational(3, 2) + b ** 2),
    ]
    pt = {a: sympy.Rational(2, 5), b: sympy.Rational(-3, 10)}
    for fn, expr in zip(_safe_compositions(), exprs):
        jet = lift(fn, [0.4, -0.3], order=3)
        for m in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 3)]:
            want = float(sympy.diff(expr, a, m[0], b, m[1]).subs(pt))
            assert jet.partial(m) == pytest.approx(want, rel=1e-11, abs=1e-11)


_PRIMITIVES = ("sqrt", "exp", "log", "sin", "cos", "tan", "sinh", "cosh", "tanh",
               "arcsinh", "power")


@pytest.mark.parametrize("name", _PRIMITIVES)
@pytest.mark.parametrize("order", range(1, 7))
def test_every_primitive_exact_to_its_order_vs_symbolic(name, order):
    # Each primitive composed with a quadratic inner map, so both the
    # primitive's own derivatives and the truncated composition are checked
    # at every degree up to the jet order; above MAX_ORDER no jet is built,
    # so no primitive can return a silent zero there.
    if order > jets.MAX_ORDER:
        with pytest.raises(ValueError, match="MAX_ORDER"):
            Jet.variables([0.25], order)
        return
    sympy = pytest.importorskip("sympy")
    v = sympy.Symbol("v")
    inner = sympy.Rational(7, 10) + sympy.Rational(3, 5) * v + sympy.Rational(1, 5) * v ** 2
    if name == "power":
        expr, fn = inner ** sympy.Rational(7, 3), lambda u: jets.power(u, 7 / 3)
    else:
        expr = getattr(sympy, "asinh" if name == "arcsinh" else name)(inner)
        fn = getattr(jets, name)
    v0 = sympy.Rational(1, 4)
    u = Jet.variables([0.25], order)[0]
    jet = fn(0.7 + 0.6 * u + 0.2 * u * u)
    for k in range(order + 1):
        want = float(sympy.diff(expr, v, k).subs(v, v0))
        assert jet.partial((k,)) == pytest.approx(want, rel=1e-11, abs=1e-11), (name, k)


def test_jet_orders_above_the_working_order_are_refused():
    assert jets.MAX_ORDER == 4
    for build in (lambda: jet_space(2, 5), lambda: jets.JetSpace(3, 5),
                  lambda: jets.flag_space(2, 5), lambda: jets.JetSpace(2, -1),
                  lambda: lift(lambda x: x, [0.1], order=5)):
        with pytest.raises(ValueError):
            build()
    with pytest.raises(ValueError, match="MAX_ORDER"):
        jets.JetSpace(3, 5)
    space = jet_space(8, 4)
    assert (space.nvars, space.order, space.nterms) == (8, 4, math.comb(12, 4))


def test_jets_vs_fd_on_random_compositions():
    """100 random transcendental compositions: jet partials and Richardson
    central differences agree within 1e-4 relative."""
    rng = np.random.default_rng(5)
    comps = _safe_compositions()
    steps = {1: 1e-5, 2: 1e-4, 3: 5e-3}
    for trial in range(100):
        fn = comps[trial % len(comps)]
        pt = rng.uniform(-0.8, 0.8, size=2)
        jet = lift(fn, pt, order=3)
        m = [(1, 0), (0, 1), (1, 1), (2, 0), (1, 2), (3, 0)][trial % 6]
        exact = jet.partial(m)
        est = fd_derivative(fn, pt, m, step=steps[sum(m)])
        assert est == pytest.approx(exact, rel=1e-4, abs=1e-4)


# -- prefix embedding: jets over the first k of m variables ------------------------


_ELEMENTARY = ("sqrt", "exp", "log", "sin", "cos", "tan", "sinh", "cosh", "tanh",
               "arcsinh")


def _x_field(xs):
    """A field of x alone, built the same way in either space."""
    return 0.9 + 0.3 * xs[0] - 0.2 * xs[0] * xs[1] + 0.1 * xs[1] * xs[1] * xs[0]


@pytest.mark.parametrize("order", [2, 4])
def test_prefix_embedded_arithmetic_equals_the_all_variable_arithmetic(order):
    # The same x-only field built over (2, order) and over (4, order); each
    # operation meeting a y-jet must give the bitwise same coefficients.
    x0, y0 = [0.3, -0.6], [0.8, 0.45]
    small = Jet.variables(x0, order)
    full = Jet.variables(x0 + y0, order)
    big_x, ys = full[:2], full[2:]
    a_small, a_big = _x_field(small), _x_field(big_x)
    assert a_small.dim == 2 and a_big.dim == 4
    np.testing.assert_array_equal(a_small.embedded(a_big.space).coeffs, a_big.coeffs)
    b = 1.1 + ys[0] * ys[1] - 0.4 * ys[1] + big_x[1] * ys[0]

    unary = {name: getattr(jets, name) for name in _ELEMENTARY}
    unary["identity"] = lambda u: u
    unary["power 3"] = lambda u: jets.power(u, 3)
    unary["power -2"] = lambda u: jets.power(u, -2)
    unary["power 2.5"] = lambda u: jets.power(u, 2.5)
    unary["** 1.5"] = lambda u: u ** 1.5
    binary = {"+": lambda u, v: u + v, "-": lambda u, v: u - v,
              "*": lambda u, v: u * v, "/": lambda u, v: u / v}
    for uname, fn in unary.items():
        f_small, f_big = fn(a_small), fn(a_big)
        assert f_small.dim == 2
        np.testing.assert_array_equal(f_small.embedded(f_big.space).coeffs, f_big.coeffs,
                                      err_msg=uname)
        for bname, op in binary.items():
            for left, right, want in ((f_small, b, op(f_big, b)), (b, f_small, op(b, f_big))):
                got = op(left, right)
                assert got.space is want.space, (uname, bname)
                np.testing.assert_array_equal(got.coeffs, want.coeffs,
                                              err_msg=f"{uname} {bname}")
    # Scalars keep a jet in its own space.
    assert (2.0 - a_small).space is a_small.space
    assert (a_small / 3.0 + 1).space is a_small.space

    # Random (n, 2n) jets with exact zeros of either sign, in both operand
    # orders: the cross-space product equals the padded product bit for bit.
    rng = np.random.default_rng(60 + order)
    for n in (2, 3, 4):
        small_sp, big_sp = jet_space(n, order), jet_space(2 * n, order)
        for _ in range(4):
            u, v = _signed_zero_jet(rng, small_sp), _signed_zero_jet(rng, big_sp)
            for left, right in ((u, v), (v, u)):
                got = left * right
                want = _padded_product(left, right)
                assert got.space is big_sp
                assert np.array_equal(got.coeffs, want), (n, order)
                assert np.array_equal(np.signbit(got.coeffs), np.signbit(want)), (n, order)


def _signed_zero_jet(rng, space):
    """A random jet whose coefficients are about one third 0.0, one third -0.0."""
    c = rng.normal(size=space.nterms)
    pick = rng.integers(0, 3, size=space.nterms)
    c[pick == 1] = 0.0
    c[pick == 2] = -0.0
    return Jet(space, c)


def _padded_product(a, b):
    """Coefficients of a * b the padded way: embed the jet over fewer
    variables into the larger space, then run that space's product table."""
    sp = a.space if a.dim >= b.dim else b.space
    a, b = a.embedded(sp), b.embedded(sp)
    prod = a.coeffs[sp.mul_ia] * b.coeffs[sp.mul_ib]
    return np.bincount(sp.mul_ic, weights=prod, minlength=sp.nterms)


def test_division_by_one_jet_composes_its_reciprocal_once(monkeypatch):
    x = Jet.variables([0.3, -0.6, 0.8, 0.45], 4)
    d = 1.3 + x[0] * x[1] - 0.5 * x[2] + x[3] * x[3]
    numerators = [x[k % 4] * (k + 1) + 0.1 * k for k in range(16)]
    want = [u / Jet(d.space, d.coeffs.copy()) for u in numerators]
    calls = []
    compose = Jet._compose

    def counting_compose(self, derivs):
        calls.append(1)
        return compose(self, derivs)

    monkeypatch.setattr(Jet, "_compose", counting_compose)
    got = [u / d for u in numerators]
    assert len(calls) == 1
    for g, w in zip(got, want):
        assert np.array_equal(g.coeffs, w.coeffs)
    assert np.array_equal((2.0 / d).coeffs, (d._reciprocal() * 2.0).coeffs)
    assert len(calls) == 1


def _horner(u, derivs):
    """Taylor composition with Horner's first step a jet product, as
    `Jet._compose` computed it before that step became a scalar multiply."""
    du = Jet(u.space, u.coeffs.copy())
    du.coeffs[..., 0] = 0.0
    order = u.space.order
    acc = Jet.constant(derivs[order] / math.factorial(order), u.space)
    for k in range(order - 1, -1, -1):
        acc = acc * du + Jet.constant(derivs[k] / math.factorial(k), u.space)
    return acc


@pytest.mark.parametrize("order", range(jets.MAX_ORDER + 1))
@pytest.mark.parametrize("lanes", [(), (5,), (2, 3)])
def test_compose_equals_the_horner_of_jet_products(order, lanes):
    # signed zeros everywhere: in the jet's coefficients, in the outer
    # derivatives and in their products, which the first step makes -0.0
    rng = np.random.default_rng(order)
    for space in (jet_space(3, order), jets.flag_space(2, order)):
        for _ in range(20):
            coeffs = rng.choice([-1.5, -0.25, -0.0, 0.0, 0.5, 2.0], size=lanes + (space.nterms,))
            coeffs = coeffs * rng.uniform(0.5, 1.5, size=coeffs.shape)
            shape = (order + 1,) + lanes
            derivs = list(rng.choice([-2.0, -0.75, -0.0, 0.0, 1.25, 3.0], size=shape)
                          * rng.uniform(0.5, 1.5, size=shape))
            if not lanes:
                derivs = [float(d) for d in derivs]
            u = Jet(space, coeffs)
            got, want = u._compose(derivs), _horner(u, derivs)
            assert got.space is want.space is space
            assert np.array_equal(got.coeffs, want.coeffs)
            assert np.array_equal(np.signbit(got.coeffs), np.signbit(want.coeffs))


def test_jets_of_different_orders_do_not_combine():
    low = Jet.variables([0.3, -0.6], 3)[0]
    high = Jet.variables([0.3, -0.6, 0.8, 0.45], 4)[2]
    for op in (lambda u, v: u + v, lambda u, v: u - v,
               lambda u, v: u * v, lambda u, v: u / v):
        with pytest.raises(ValueError, match="orders"):
            op(low, high)
        with pytest.raises(ValueError, match="orders"):
            op(high, low)
    with pytest.raises(ValueError):
        high.embedded(low.space)


# -- bigraded flag spaces: x-degree <= X_ORDER, total degree <= order ---------------


def _flag_pair(rng, n, value):
    """A random jet over flag_space(n, 4) with signed zeros, and the plain
    (2n, 4) jet that has its coefficients at the kept monomials and random
    ones at the monomials cut off (they reach no kept coefficient)."""
    flag, plain = jets.flag_space(n, 4), jet_space(2 * n, 4)
    small = _signed_zero_jet(rng, flag)
    small.coeffs[0] = value
    c = rng.normal(size=plain.nterms)
    c[_kept(flag, plain)] = small.coeffs
    return small, Jet(plain, c)


def _kept(flag, plain):
    return [plain.index[m] for m in flag.multis]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flag_space_arithmetic_equals_the_plain_arithmetic_at_the_kept_monomials(n):
    rng = np.random.default_rng(80 + n)
    flag, plain = jets.flag_space(n, 4), jet_space(2 * n, 4)
    assert flag.nvars == 2 * n and flag.order == 4
    assert all(sum(m[:n]) <= jets.X_ORDER for m in flag.multis)
    assert [m for m in plain.multis if sum(m[:n]) <= jets.X_ORDER] == list(flag.multis)
    ops = {"*": lambda u, v: u * v, "+": lambda u, v: u + v,
           "-": lambda u, v: u - v, "/": lambda u, v: u / v,
           "sqrt": lambda u, v: jets.sqrt(u), "exp": lambda u, v: jets.exp(u),
           "log": lambda u, v: jets.log(u), "tanh": lambda u, v: jets.tanh(u),
           "power 2.5": lambda u, v: jets.power(u, 2.5)}
    for _ in range(3):
        u_flag, u_plain = _flag_pair(rng, n, 1.3)
        v_flag, v_plain = _flag_pair(rng, n, -0.7)
        for name, op in ops.items():
            got, want = op(u_flag, v_flag), op(u_plain, v_plain)
            assert got.space is flag and want.space is plain
            want = want.coeffs[_kept(flag, plain)]
            assert np.array_equal(got.coeffs, want), (n, name)
            assert np.array_equal(np.signbit(got.coeffs), np.signbit(want)), (n, name)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_order_2_x_jets_embed_into_the_flag_space(n):
    rng = np.random.default_rng(90 + n)
    flag = jets.flag_space(n, 4)
    x_jet = _signed_zero_jet(rng, jet_space(n, 2))
    f = _signed_zero_jet(rng, flag)
    assert x_jet.embedded(flag).space is flag
    for left, right in ((x_jet, f), (f, x_jet)):
        got = left * right
        want = _padded_product(left, right)
        assert got.space is flag
        assert np.array_equal(got.coeffs, want)
        assert np.array_equal(np.signbit(got.coeffs), np.signbit(want))
        assert np.array_equal((left + right).coeffs,
                              left.embedded(flag).coeffs + right.embedded(flag).coeffs)
    for order in (3, 4):
        u = Jet.variables([0.3] * n, order)[0]
        for op in (lambda a, b: a + b, lambda a, b: a * b):
            with pytest.raises(ValueError, match="orders"):
                op(u, f)
            with pytest.raises(ValueError, match="orders"):
                op(f, u)
        with pytest.raises(ValueError, match="orders"):
            u.embedded(flag)


@pytest.mark.parametrize("n, flag_terms, flag_pairs, x_terms, x_pairs, cross_pairs", [
    (2, 53, 360, 6, 15, 115), (3, 155, 1302, 10, 28, 365), (4, 360, 3435, 15, 45, 890)])
def test_flag_and_x_space_table_sizes(n, flag_terms, flag_pairs, x_terms, x_pairs,
                                      cross_pairs):
    flag, x_space = jets.flag_space(n, 4), jet_space(n, 2)
    assert (flag.nterms, flag.mul_ia.size) == (flag_terms, flag_pairs)
    assert (x_space.nterms, x_space.mul_ia.size) == (x_terms, x_pairs)
    assert jets._mul_table(x_space, flag)[0].size == cross_pairs
    assert jets._mul_table(flag, x_space)[0].size == cross_pairs
    # Up to order 2 the x-degree bound cuts nothing: the flag space is plain.
    assert jets.flag_space(n, 2) is jet_space(2 * n, 2)


# -- product and chain rules (property tests) --------------------------------------


# -- lanes: a stack of points in one jet ------------------------------------


def _lane_ops(xs):
    """Every laned operation the lanes must keep bit-equal, on the variables xs."""
    u = xs[0] * xs[1] + 1.0 + xs[-1] * xs[-1]          # > 0 on the sample box
    v = xs[0] - 0.3 * xs[1] + 1.5
    return {"jet +": u + v, "jet -": u - v, "jet *": u * v, "jet /": u / v,
            "+ scalar": u + 2.5, "scalar -": 2.5 - u, "* scalar": u * -1.5,
            "/ scalar": u / 3.0, "scalar /": 1.0 / u, "neg": -u,
            "power 3": jets.power(u, 3), "power -2": jets.power(u, -2),
            "sqrt": jets.sqrt(u), "log": jets.log(u), "exp": jets.exp(u),
            "tanh": jets.tanh(u), "cosh": jets.cosh(u)}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("lanes", [1, 2, 17])
def test_each_lane_of_a_laned_jet_equals_its_unlaned_jet(n, lanes):
    X = np.random.default_rng(10 * n + lanes).uniform(-0.9, 0.9, size=(lanes, n))
    laned = _lane_ops(Jet.variables(list(X.T), 2))
    for k, x in enumerate(X):
        alone = _lane_ops(Jet.variables(list(x), 2))
        for name, got in laned.items():
            want = alone[name]
            assert got.coeffs.shape == (lanes, want.space.nterms) and got.space is want.space
            assert np.array_equal(got.coeffs[k], want.coeffs), (name, k)
            assert np.array_equal(np.signbit(got.coeffs[k]), np.signbit(want.coeffs)), (name, k)
            assert isinstance(got.value, np.ndarray) and got.value.shape == (lanes,)
            assert isinstance(want.value, float)


def test_a_laned_guard_names_the_lanes_it_refuses():
    u = Jet.variables([np.array([0.5, -0.5, 2.0, -1.0])], 2)[0]
    with pytest.raises(EvaluationError, match=r"^sqrt of a non-positive value \(-0\.5\) "
                                              r"at lanes 1, 3$"):
        jets.sqrt(u)
    with pytest.raises(EvaluationError, match=r"^division by a jet with zero value at lane 1$"):
        1.0 / (u + 0.5)
    with pytest.raises(EvaluationError, match=r"at lanes 1, 3$"):
        jets.power(u, 0.5)


def test_a_function_of_float_lane_values_maps_each_lane_as_its_float():
    # each lane has the bits of the float call: math at each lane, and `**`
    # by lane (1.8903560604397107 ** 2 is one ulp off its square u * u)
    u = np.array([0.5, 2.0, 1.8903560604397107, 7.25])
    for fn, f in ((jets.sqrt, math.sqrt), (jets.exp, math.exp), (jets.log, math.log),
                  (jets.tanh, math.tanh), (jets.cosh, math.cosh)):
        assert fn(u).tolist() == [f(v) for v in u.tolist()], fn.__name__
    for p in (2, -1, 1.7):
        assert jets.power(u, p).tolist() == [v ** p for v in u.tolist()], p
    assert jets.power(u, 2)[2] != u[2] * u[2]
    assert jets.scalar_value(u) is u and jets.scalar_value(np.float64(0.5)) == 0.5
    with pytest.raises(EvaluationError, match=r"^log evaluated outside its domain: .* "
                                              r"at lanes 1, 3$"):
        jets.log(np.array([1.0, -1.0, 2.0, 0.0]))
    with pytest.raises(EvaluationError, match=r"at lane 1$"):
        jets.power(np.array([1.0, -1.0]), 0.5)


def _truncate(jet, order):
    sp = jet_space(jet.dim, order)
    return Jet(sp, jet.coeffs[: sp.nterms])


def _partial_jet(jet, i):
    """The jet of d/dx_i, one order lower (graded storage makes this a slice)."""
    lo = jet_space(jet.dim, jet.order - 1)
    out = np.zeros(lo.nterms)
    for idx, m in enumerate(lo.multis):
        up = list(m)
        up[i] += 1
        out[idx] = jet.coeffs[jet.space.index[tuple(up)]] * (m[i] + 1)
    return Jet(lo, out)


coeff_lists = st.lists(st.floats(min_value=-2.0, max_value=2.0,
                                 allow_nan=False, allow_infinity=False),
                       min_size=10, max_size=10)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_product_rule(ca, cb):
    sp = jet_space(2, 3)
    A = Jet(sp, np.resize(np.array(ca), sp.nterms))
    B = Jet(sp, np.resize(np.array(cb), sp.nterms))
    for i in range(2):
        lhs = _partial_jet(A * B, i)
        rhs = _partial_jet(A, i) * _truncate(B, 2) + _truncate(A, 2) * _partial_jet(B, i)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_chain_rule(ca):
    sp = jet_space(2, 3)
    A = Jet(sp, 0.3 * np.resize(np.array(ca), sp.nterms))
    for i in range(2):
        lhs = _partial_jet(jets.exp(A), i)
        rhs = jets.exp(_truncate(A, 2)) * _partial_jet(A, i)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-11, atol=1e-12)
        lhs = _partial_jet(jets.sin(A), i)
        rhs = jets.cos(_truncate(A, 2)) * _partial_jet(A, i)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-11, atol=1e-12)


# -- domain errors ------------------------------------------------------------------


def test_sqrt_domain_error_names_primitive():
    with pytest.raises(EvaluationError, match="sqrt"):
        lift(lambda x: jets.sqrt(x), [-1.0], order=2)


def test_log_domain_error():
    with pytest.raises(EvaluationError, match="log"):
        lift(lambda x: jets.log(x - 2.0), [1.0], order=1)


def test_division_by_zero_jet():
    with pytest.raises(EvaluationError, match="zero"):
        lift(lambda x: 1.0 / x, [0.0], order=1)


def test_integer_power_allows_negative_base():
    j = lift(lambda x: jets.power(x, 3), [-2.0], order=2)
    assert j.value == -8.0
    assert j.partial((1,)) == 12.0
    with pytest.raises(EvaluationError):
        lift(lambda x: jets.power(x, 1.5), [-2.0], order=2)


# -- finite differences ---------------------------------------------------------------


def test_fd_quadratic_first_derivative():
    got = fd_derivative(lambda x: x * x, [1.0], (1,), step=1e-4)
    assert got == pytest.approx(2.0, abs=1e-8)


def test_fd_sin_third_derivative():
    got = fd_derivative(math.sin, [0.0], (3,), step=1e-2)
    assert got == pytest.approx(-1.0, abs=1e-4)


def test_fd_constant():
    got = fd_derivative(lambda x, y: 4.5, [0.2, 0.4], (1, 1), step=1e-3)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_fd_step_underflow_warns():
    with pytest.warns(FdStepWarning):
        fd_derivative(lambda x: x * x, [1e12], (1,), step=1e-6)


def test_fd_rejects_order_above_three():
    with pytest.raises(ValueError):
        fd_derivative(lambda x: x, [0.0], (4,), step=1e-3)


# -- FlagPoint ---------------------------------------------------------------------


def test_flag_point_rejects_zero_direction():
    with pytest.raises(ValueError):
        FlagPoint([0.0, 0.0], [0.0, 0.0])


def test_flag_point_scaling():
    p = FlagPoint([1.0, 2.0], [0.5, -0.5])
    q = FlagPoint(p.x, 3.0 * p.y)
    np.testing.assert_allclose(q.y, [1.5, -1.5])
    np.testing.assert_allclose(q.x, p.x)
