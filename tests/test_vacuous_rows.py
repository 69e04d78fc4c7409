"""Which characterization rows are vacuous on the registry fixtures.

A bundle row whose terms all multiply zero reads exactly 0.0 whatever its
coefficients are, so it checks nothing on that data.  This guard runs every
registry fixture and collects the bundle rows that read exactly 0.0 on every
fixture that has them; the set must equal `VACUOUS`, each entry with the
reason it is vacuous.  A change that makes a row vacuous, or data that makes
one live (ROADMAP items 2, 4, 5 and 11), fails here until the dict says so.
"""

from finsler_solitons import fixtures, suites

# bundle row -> why it reads exactly 0.0 on every registry fixture
VACUOUS = {
    "gradient-nav/scalar-compatibility":
        "sigma = 0 and mu = kappa on every fixture, so each term multiplies zero",
    "vector-ab/conformal-v": "the vector bundles run with V = 0 and c = 0",
    "vector-ab/sigma-lie-balance": "V = 0, c = 0 and sigma = 0",
    "vector-nav/lie-h2-balance": "V = 0, so L_V(h^2) = 0, and c = 0 and sigma = 0",
    "vector-nav/lie-w0-balance": "V = 0, so L_V(W_0) = 0, and c = 0 and sigma = 0",
}


def test_the_vacuous_bundle_rows_are_the_listed_ones():
    worst = {}
    for name in fixtures.FIXTURE_NAMES:
        for r in suites.run_fixture_suite(fixtures.get_fixture(name), samples=4, seed=0):
            if r.name.split("/")[0] in suites.BUNDLES:
                worst[r.name] = max(worst.get(r.name, 0.0), r.max_abs)
    assert len(worst) > len(VACUOUS)
    assert {row for row, value in worst.items() if value == 0.0} == set(VACUOUS)
