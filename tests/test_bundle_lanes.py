"""Each lane of a run's bundle stack is its flag alone.

The four bundle checkers and the sigma fit compute every row as one array
over the lanes of a `solitons.BundleStack`.  Every row value and every
sigma-fit value over a run of P flags must equal, bit for bit, the same
value computed on the one-flag stack of each flag (which `sample_points`
builds from jets of one lane).  The vector checkers also run with a random
polynomial V and nonzero c, so the V terms are compared too.
"""

import functools

import numpy as np
import pytest

from finsler_solitons import fixtures, generators, solitons, suites
from finsler_solitons.sampling import sample_flags

CASES = ([(name, None) for name in fixtures.FIXTURE_NAMES]
         + [("gaussian", ("sigma", 1e-2)), ("cigar", ("W", 1e-2))])


def _bundle_rows(fx, flags, v, monkeypatch):
    """{(checker, row name): row values} of every bundle on the stack of
    `flags`, and the sigma fit's (sigmas, residuals)."""
    _, stack = solitons.sample_points(fx.rd, fx.nav, fx.f, fx.sigma, flags, len(flags))
    seen = []
    reports = solitons._bundle_reports
    monkeypatch.setattr(solitons, "_bundle_reports", lambda names, rows, tol: seen.append(
        (names, [np.asarray(r, float) for r in rows])) or reports(names, rows, tol))
    calls = [functools.partial(suites.BUNDLES[b], fx, stack, 1e-6) for b in fx.bundles]
    calls += [lambda: solitons.vector_soliton_checks_ab(v, fx.kappa, stack, 1e-6, c=0.3),
              lambda: solitons.vector_soliton_checks_nav(v, fx.kappa, stack, 1e-6, mu=fx.mu)]
    out = {}
    for k, call in enumerate(calls):
        call()
        names, rows = seen.pop()
        out.update({(k, name): row for name, row in zip(names, rows, strict=True)})
    monkeypatch.setattr(solitons, "_bundle_reports", reports)
    return out, solitons.fit_sigma(stack.beta)


@pytest.mark.parametrize("name,perturb", CASES)
def test_every_lane_of_a_run_equals_its_flag_alone(name, perturb, monkeypatch):
    fx = fixtures.get_fixture(name, perturb=perturb)
    flags = sample_flags(fx, 6, np.random.default_rng(41))
    v = generators.vector_field(generators.draw_vector_field(np.random.default_rng(43), fx.dim))
    run, (sigmas, residuals) = _bundle_rows(fx, flags, v, monkeypatch)
    assert {name for _, name in run} >= {"isotropic-s", "conformal-w", "lie-h2-balance"}
    for k, p in enumerate(flags):
        alone, (sigma, residual) = _bundle_rows(fx, [p], v, monkeypatch)
        assert run.keys() == alone.keys()
        for key, row in run.items():
            assert row.shape == (len(flags),) and alone[key].shape == (1,), key
            assert np.array_equal(row[k], alone[key][0]), (name, k, key)
        assert (sigmas[k], residuals[k]) == (sigma[0], residual[0]), (name, k)
    # the random V makes its terms live, and the sigma perturbation sigma's
    assert np.all(run[len(fx.bundles), "conformal-v"])
    assert np.all(run[len(fx.bundles) + 1, "lie-h2-balance"])
    if perturb == ("sigma", 1e-2):
        assert all(np.all(run[0, name]) for name in ("isotropic-s", "sigma-gradient-balance"))
