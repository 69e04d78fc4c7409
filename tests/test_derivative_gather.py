"""Partial-derivative tables from one gather (`jets.derivative_tensors`)
against the per-entry `Jet.partial` loops they replaced, bit for bit: values,
sign bits (a float entry must still give +0.0 derivatives), shapes, strides
and C-contiguity."""

import itertools

import numpy as np
import pytest

from finsler_solitons import finsler, fixtures, generators, jets, riemann
from finsler_solitons.jets import Jet

# -- the reference: the table builders that read one partial per entry ----------------


def _entry_parts(v, space, order):
    """(value, grad, hess, third) of one scalar-or-Jet entry."""
    n = space.nvars
    if not isinstance(v, Jet):
        out = [float(v), np.zeros(n)]
        if order >= 2:
            out.append(np.zeros((n, n)))
        if order >= 3:
            out.append(np.zeros((n, n, n)))
        return out
    e = lambda *idx: tuple(sum(1 for i in idx if i == k) for k in range(n))
    out = [v.value, np.array([v.partial(e(i)) for i in range(n)])]
    if order >= 2:
        h = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                h[i, j] = h[j, i] = v.partial(e(i, j))
        out.append(h)
    if order >= 3:
        t = np.empty((n, n, n))
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    val = v.partial(e(i, j, k))
                    for perm in ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
                        t[perm] = val
        out.append(t)
    return out


def _ref_scalar_table(fn, x, order=2):
    xs = Jet.variables([float(v) for v in x], order)
    return tuple(_entry_parts(fn(xs), xs[0].space, order))


def _ref_vector_table(fn, x, order=1):
    xs = Jet.variables([float(v) for v in x], order)
    comps = list(fn(xs))
    parts = [_entry_parts(c, xs[0].space, order) for c in comps]
    out = [np.array([p[0] for p in parts])]
    for level in range(1, order + 1):
        out.append(np.stack([p[level] for p in parts]))
    return tuple(out)


def _ref_matrix_table(fn, x, n, order=2):
    xs = Jet.variables([float(v) for v in x], order)
    rows = fn(xs)
    parts = [[_entry_parts(rows[i][j], xs[0].space, order) for j in range(n)] for i in range(n)]
    value = np.array([[parts[i][j][0] for j in range(n)] for i in range(n)])
    out = [value]
    if order >= 1:
        dm = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                dm[:, i, j] = parts[i][j][1]
        out.append(dm)
    if order >= 2:
        d2m = np.empty((n, n, n, n))
        for i in range(n):
            for j in range(n):
                d2m[:, :, i, j] = parts[i][j][2]
        out.append(d2m)
    return tuple(out)


# -- inputs: every fixture's fields and random Riemannian data ---------------------------


def _log_density(measure):
    return lambda xs: jets.log(measure.density(xs))


def _fixture_inputs(name):
    fx = fixtures.get_fixture(name)
    rng = np.random.default_rng(7)
    points = [fx.sample_x(rng) for _ in range(2)]
    matrices = {"h": fx.nav.h, "alpha": fx.rd.alpha}
    vectors = {"W": fx.nav.W, "beta": fx.rd.beta}
    scalars = {"f": fx.f, "log-density": _log_density(fx.measure)}
    return fx.dim, points, matrices, vectors, scalars


def _random_inputs(n):
    rng = np.random.default_rng(100 + n)
    h = generators.random_riemann_metric(rng, n)
    v = generators.vector_field(generators.draw_vector_field(rng, n))
    points = [generators.sample_box_point(rng, n) for _ in range(2)]
    scalars = {"log-density": _log_density(finsler.Measure.riemannian(h))}
    return n, points, {"h": h}, {"V": v}, scalars


CASES = [(name, _fixture_inputs) for name in fixtures.FIXTURE_NAMES] + [
    (n, _random_inputs) for n in (2, 3, 4)]


def _assert_same(got, want, what):
    assert len(got) == len(want), what
    for level, (a, b) in enumerate(zip(got, want)):
        assert type(a) is type(b), (what, level)
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.strides == b.strides, (what, level)
        assert a.flags.c_contiguous, (what, level)
        assert np.array_equal(a, b), (what, level)
        assert np.array_equal(np.signbit(a), np.signbit(b)), (what, level)


@pytest.mark.parametrize("key,inputs", CASES, ids=[str(c[0]) for c in CASES])
def test_tables_equal_the_per_entry_partials(key, inputs):
    n, points, matrices, vectors, scalars = inputs(key)
    for x in points:
        for order in (1, 2):
            for name, h in matrices.items():
                _assert_same(riemann.matrix_table(h.matrix, x, order),
                             _ref_matrix_table(h.matrix, x, n, order), (name, order))
            for name, v in vectors.items():
                _assert_same(riemann.vector_table(v.components, x, order),
                             _ref_vector_table(v.components, x, order), (name, order))
        for order in (1, 2, 3):
            for name, fn in scalars.items():
                got = riemann.scalar_table(fn, x, order)
                assert type(got[0]) is float
                _assert_same(got, _ref_scalar_table(fn, x, order), (name, order))


def test_float_entries_give_positive_zero_derivatives():
    # the cigar's h has the constant entries 1.0 and 0.0, its W is [0.0, 1.0]
    fx = fixtures.get_fixture("cigar")
    x = [1.0, 0.3]
    h0, dh, d2h = riemann.matrix_table(fx.nav.h.matrix, x, order=2)
    for d in (dh, d2h):
        for i, j in ((0, 0), (0, 1), (1, 0)):
            entry = d[..., i, j]
            assert np.all(entry == 0.0) and not np.any(np.signbit(entry))
    w0, dw, d2w = riemann.vector_table(fx.nav.W.components, x, order=2)
    assert list(w0) == [0.0, 1.0]
    assert not np.any(dw) and not np.any(np.signbit(dw)) and not np.any(np.signbit(d2w))


@pytest.mark.parametrize("name", fixtures.FIXTURE_NAMES)
def test_gradient_equals_partials(name):
    fx = fixtures.get_fixture(name)
    rng = np.random.default_rng(3)
    x = fx.sample_x(rng)
    y = rng.normal(size=fx.dim)
    n2 = 2 * fx.dim
    for order in (2, 4):
        f2 = finsler._f2_jet(finsler._lane_stage(fx.metric, x), y, order)
        grad = f2.gradient()
        want = np.array([f2.partial(tuple(int(i == k) for i in range(n2))) for k in range(n2)])
        assert grad.shape == (n2,) and grad.flags.c_contiguous
        assert np.array_equal(grad, want) and np.array_equal(np.signbit(grad), np.signbit(want))


def test_tensor_index_is_cached_read_only_and_offset():
    n = 3
    space = jets.flag_space(n, 4)
    pos = jets.tensor_index(space, 3, n, (0, n, n))
    assert pos is jets.tensor_index(space, 3, n, (0, n, n))
    assert not pos.flags.writeable
    for k, i, j in itertools.product(range(n), repeat=3):
        m = [0] * (2 * n)
        m[k] += 1
        m[n + i] += 1
        m[n + j] += 1
        assert pos[k, i, j] == space.index[tuple(m)]
    plain = jets.tensor_index(space, 2)
    assert plain.shape == (2 * n,) * 2 and np.array_equal(plain, plain.T)
