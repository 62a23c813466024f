from functools import cache

import pytest

from matchlattice import EnumerationBudget, Market, Matching, enumerate_quasi_stable, enumerate_stable
from matchlattice.cli import load_bundle

# Wide enough for both bundled examples (example2 has 7 firms and 10 workers).
EXAMPLE_BUDGET = EnumerationBudget(max_firms=7, max_workers=10)


def bundle_market(name):
    b = load_bundle(name)
    m = Market.from_json(b["market"])
    named = {k: Matching.from_json(v) for k, v in b["matchings"].items()}
    for mu in named.values():
        mu.validate_for(m)
    return m, named


@cache
def bundle_sets(name):
    """A bundled example's market with its stable, worker- and firm-quasi-stable sets, enumerated once per run."""
    m = bundle_market(name)[0]
    return (
        m,
        enumerate_stable(m, EXAMPLE_BUDGET),
        enumerate_quasi_stable(m, "workers", EXAMPLE_BUDGET),
        enumerate_quasi_stable(m, "firms", EXAMPLE_BUDGET),
    )


@pytest.fixture(scope="session")
def example1():
    return bundle_market("example1")


@pytest.fixture(scope="session")
def example2():
    return bundle_market("example2")
