"""The per-flag F^2 path against the code it replaced: the split expansion
(x-only fields at order 2 in n variables, y in the bigraded flag space of
x-degree <= 2) against the all-2n expansion, and the product-rule spray
derivatives against the derivatives of g^-1 they replaced."""

import collections
import itertools

import numpy as np
import pytest

from finsler_solitons import finsler, fixtures, generators, jets, randers
from finsler_solitons.jets import FlagPoint, Jet
from finsler_solitons.sampling import sample_flags


def _flags(fx, count, seed=5):
    return sample_flags(fx, count, np.random.default_rng(seed))


def _f2_jet_all_2n(metric, x, y, order):
    """The earlier expansion: every variable, x included, over all 2n."""
    n = metric.dim
    zs = Jet.variables(list(map(float, x)) + list(map(float, y)), order)
    F = metric.F(zs[:n], zs[n:])
    return F * F


_F2_INDEX = finsler._f2_index.__wrapped__


def _f2_index_all_2n(n, order):
    """The Q-table positions in the all-2n space (x-degree unbounded)."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(jets, "flag_space", lambda n, order: jets.jet_space(2 * n, order))
        return _F2_INDEX(n, order)


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_split_f2_expansion_equals_the_all_2n_expansion(name, monkeypatch):
    fx = fixtures.get_fixture(name)
    for p in _flags(fx, count=2, seed=11):
        for order in (2, 3, 4):
            stage = finsler._lane_stage(fx.metric, p.x)
            split = finsler._f2_jet(stage, p.y, order)
            full = _f2_jet_all_2n(fx.metric, p.x, p.y, order)
            assert split.space is jets.flag_space(fx.metric.dim, order)
            # The all-2n coefficients at the kept monomials, bit for bit: no
            # sign bit moves, not even at a zero coefficient.
            want = full.coeffs[[full.space.index[m] for m in split.space.multis]]
            assert np.array_equal(split.coeffs, want), (name, order)
            moved = np.flatnonzero(np.signbit(split.coeffs) != np.signbit(want))
            assert moved.size == 0, [split.space.multis[i] for i in moved]
            tables = finsler._f2_tables(stage, p.y, order)
            with monkeypatch.context() as m:
                m.setattr(finsler, "_f2_jet", lambda _stage, y, order, p=p:
                          _f2_jet_all_2n(fx.metric, p.x, y, order))
                m.setattr(finsler, "_f2_index", _f2_index_all_2n)
                reference = finsler._f2_tables(stage, p.y, order)
            assert tables.keys() == reference.keys()
            for key, value in reference.items():
                np.testing.assert_array_equal(tables[key], value, err_msg=f"{name} {key}")


def test_shrinking_f2_expansion_runs_few_products_in_the_flag_space(monkeypatch):
    fx = fixtures.get_fixture("shrinking")
    p = _flags(fx, count=1)[0]
    counts = collections.Counter()
    mul = Jet.__mul__

    def counting_mul(self, other):
        out = mul(self, other)
        if isinstance(other, Jet):
            counts[out.space] += 1
        return out

    monkeypatch.setattr(Jet, "__mul__", counting_mul)
    finsler._f2_jet(finsler._lane_stage(fx.metric, p.x), p.y, 4)
    x_space, flag_space = jets.jet_space(4, 2), jets.flag_space(4, 4)
    assert set(counts) == {x_space, flag_space}
    assert counts[flag_space] <= 60
    assert counts[x_space] > counts[flag_space]


def test_shrinking_expansions_compose_each_divisor_once(monkeypatch):
    # Each jet's reciprocal is kept, so repeated division by lambda or by
    # D^2 composes once: 11 compositions per F^2 and 131 per log-density
    # table when every division composed again.
    fx = fixtures.get_fixture("shrinking")
    p = _flags(fx, count=1)[0]
    calls = []
    compose = Jet._compose

    def counting_compose(self, derivs):
        calls.append(1)
        return compose(self, derivs)

    monkeypatch.setattr(Jet, "_compose", counting_compose)
    finsler._f2_jet(finsler._lane_stage(fx.metric, p.x), p.y, 4)
    assert len(calls) <= 4
    calls.clear()
    fx.measure.log_density_table(p.x)
    assert len(calls) <= 19


def _d2_inverse_einsum(ginv, first, second, mixed):
    """d_p d_k of g^-1 from dg along the two directions and the mixed d2g,
    as a 5-operand einsum."""
    t0 = -np.einsum("ia,kpab,bj->kpij", ginv, mixed, ginv)
    t1 = np.einsum("ia,kab,bc,pcd,dj->kpij", ginv, first, ginv, second, ginv)
    t2 = np.einsum("ia,pab,bc,kcd,dj->kpij", ginv, second, ginv, first, ginv)
    return t0 + t1 + t2


def _spray_reference(T, y, order):
    """`finsler._spray_derivatives` as G = g^-1 N/4 differentiated through
    the derivatives of g^-1, the form the product rule replaced."""
    _, ginv = finsler._fundamental(T)
    N = np.einsum("m,ml->l", y, T["Q11"]) - T["Q10"]
    out = {"G": 0.25 * ginv @ N}
    if order < 3:
        return out
    dg_dx = 0.5 * T["Q12"]
    dg_dy = 0.5 * np.einsum("ijp->pij", T["Q03"])
    dginv_dx = -np.einsum("ia,kab,bj->kij", ginv, dg_dx, ginv)
    dginv_dy = -np.einsum("ia,pab,bj->pij", ginv, dg_dy, ginv)
    dN_dy = np.einsum("m,mlp->pl", y, T["Q12"]) + T["Q11"] - T["Q11"].T
    out["dG_dy"] = 0.25 * (np.einsum("pil,l->pi", dginv_dy, N)
                           + np.einsum("il,pl->pi", ginv, dN_dy))
    if order < 4:
        return out
    dN_dx = np.einsum("m,kml->kl", y, T["Q21"]) - T["Q20"]
    out["dG_dx"] = 0.25 * (np.einsum("kil,l->ki", dginv_dx, N)
                           + np.einsum("il,kl->ki", ginv, dN_dx))
    d2ginv_dxdy = _d2_inverse_einsum(ginv, dg_dx, dg_dy,
                                     0.5 * np.einsum("kijp->kpij", T["Q13"]))
    d2ginv_dydy = _d2_inverse_einsum(ginv, dg_dy, dg_dy,
                                     0.5 * np.einsum("ijpq->pqij", T["Q04"]))
    d2N_dxdy = (np.einsum("m,kmlp->kpl", y, T["Q22"]) + T["Q21"]
                - np.einsum("klp->kpl", T["Q21"]))
    d2N_dydy = (np.einsum("m,mlpq->pql", y, T["Q13"]) + np.einsum("plq->pql", T["Q12"])
                + np.einsum("qlp->pql", T["Q12"]) - np.einsum("lpq->pql", T["Q12"]))
    out["d2G_dxdy"] = 0.25 * (np.einsum("kpil,l->kpi", d2ginv_dxdy, N)
                              + np.einsum("kil,pl->kpi", dginv_dx, dN_dy)
                              + np.einsum("pil,kl->kpi", dginv_dy, dN_dx)
                              + np.einsum("il,kpl->kpi", ginv, d2N_dxdy))
    out["d2G_dydy"] = 0.25 * (np.einsum("pqil,l->pqi", d2ginv_dydy, N)
                              + np.einsum("pil,ql->pqi", dginv_dy, dN_dy)
                              + np.einsum("qil,pl->pqi", dginv_dy, dN_dy)
                              + np.einsum("il,pql->pqi", ginv, d2N_dydy))
    return out


def _symmetrized(a, xdeg):
    """a averaged over the permutations of its first xdeg axes and of the rest,
    the symmetry of a table of partial derivatives."""
    axes = range(a.ndim)
    perms = [p + q for p in itertools.permutations(axes[:xdeg])
             for q in itertools.permutations(axes[xdeg:])]
    return sum(np.transpose(a, perm) for perm in perms) / len(perms)


def _random_tables(rng, n):
    """Random Q tables with the symmetries of partial derivatives and a
    positive definite g = Q02 / 2."""
    T = {f"Q{a}{b}": _symmetrized(rng.normal(size=(n,) * (a + b)), a)
         for a, b in ((1, 0), (1, 1), (1, 2), (0, 3), (2, 0), (2, 1), (2, 2), (1, 3),
                      (0, 4))}
    m = rng.normal(size=(n, n))
    T["Q02"] = 2.0 * (m @ m.T + n * np.eye(n))
    return T


def _tables_at(n, rng):
    """(T, y) at order 4: random tables, then flags of the fixtures of dim n
    and of a random Randers metric of dim n."""
    cases = [(_random_tables(rng, n), rng.normal(size=n)) for _ in range(10)]
    fxs = [fixtures.get_fixture(name) for name in fixtures.FIXTURE_NAMES]
    metrics = [(fx.metric, _flags(fx, count=3)) for fx in fxs if fx.dim == n]
    metric = randers.finsler_from_randers(generators.random_randers(rng, n))
    metrics.append((metric, [FlagPoint(generators.sample_box_point(rng, n),
                                       rng.normal(size=n)) for _ in range(3)]))
    for metric, flags in metrics:
        for p in flags:
            y = np.asarray(p.y, float)
            cases.append((finsler._f2_tables(finsler._lane_stage(metric, p.x), y, 4), y))
    return cases


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spray_derivatives_match_the_inverse_derivative_reference(n):
    for T, y in _tables_at(n, np.random.default_rng(40 + n)):
        for order in (2, 3, 4):
            got = finsler._spray_derivatives(T, y, order)
            for key, want in _spray_reference(T, y, order).items():
                if key in ("G", "dG_dy"):       # the reference's formulas, bit for bit
                    assert np.array_equal(got[key], want), (order, key)
                else:
                    assert got[key].shape == want.shape
                    assert np.max(np.abs(got[key] - want)) <= 1e-12 * np.max(np.abs(want))


def test_order4_spray_derivatives_make_at_most_19_einsum_calls(monkeypatch):
    # 26 when the order-4 block differentiated g^-1 itself
    rng = np.random.default_rng(3)
    T, y = _random_tables(rng, 4), rng.normal(size=4)
    calls = []
    einsum = np.einsum

    def counting_einsum(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    finsler._spray_derivatives(T, y, order=4)
    assert len(calls) <= 19
