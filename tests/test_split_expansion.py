"""The per-flag F^2 path against the code it replaced: the split expansion
(x-only fields at order 2 in n variables, y in the bigraded flag space of
x-degree <= 2) against the all-2n expansion, and the matrix-product second
inverse-metric derivative against the 5-operand einsum."""

import collections

import numpy as np
import pytest

from finsler_solitons import finsler, fixtures, jets
from finsler_solitons.jets import Jet
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
            stage = finsler._stage(fx.metric, p.x, order)
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
    finsler._f2_jet(finsler._stage(fx.metric, p.x, 4), p.y, 4)
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
    finsler._f2_jet(finsler._stage(fx.metric, p.x, 4), p.y, 4)
    assert len(calls) <= 4
    calls.clear()
    fx.measure.log_density_table(p.x, order=2)
    assert len(calls) <= 19


def _d2_inverse_einsum(ginv, first, second, mixed):
    """The earlier 5-operand einsum form of `finsler._d2_inverse`."""
    t0 = -np.einsum("ia,kpab,bj->kpij", ginv, mixed, ginv)
    t1 = np.einsum("ia,kab,bc,pcd,dj->kpij", ginv, first, ginv, second, ginv)
    t2 = np.einsum("ia,pab,bc,kcd,dj->kpij", ginv, second, ginv, first, ginv)
    return t0 + t1 + t2


def _symmetric_in_last_two(rng, shape):
    a = rng.normal(size=shape)
    return a + np.swapaxes(a, -1, -2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_d2_inverse_matches_the_einsum(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(20):
        m = rng.normal(size=(n, n))
        g = m @ m.T + n * np.eye(n)
        ginv = np.linalg.inv(g)
        first = _symmetric_in_last_two(rng, (n, n, n))
        second = _symmetric_in_last_two(rng, (n, n, n))
        mixed = _symmetric_in_last_two(rng, (n, n, n, n))
        ref = _d2_inverse_einsum(ginv, first, second, mixed)
        got = finsler._d2_inverse(ginv, first, second, mixed)
        assert got.shape == ref.shape == (n, n, n, n)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
