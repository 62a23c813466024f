"""Joins and meets on markets whose stable lattice has more than one element.

The random markets of the other sweeps nearly always have a single stable
matching, where every join is ``join(a, a)``.  On the Latin-square cores
the join differs from its first argument on 3 to 10 pairs per market.
"""

import pytest

from matchlattice import EnumerationBudget, enumerate_stable, stable_join_firms, stable_meet_firms, verify_lattice

from latin_cores import latin_core

CASES = [
    (variant, n, quota, quota, count)
    for variant in ("many_to_one", "many_to_many_sub")
    for n, quota, count in ((4, 1, 4), (5, 1, 5), (6, 1, 6))
] + [(variant, 4, 2, 2, 7) for variant in ("many_to_many_responsive", "many_to_many_sub")]


@pytest.mark.parametrize(
    "variant,n,firm_quota,worker_quota,count", CASES, ids=[f"{c[0]}-{c[1]}x{c[1]}-q{c[2]}" for c in CASES]
)
def test_operators_equal_the_oracle_tables(variant, n, firm_quota, worker_quota, count):
    m = latin_core(variant, n, firm_quota, worker_quota)
    budget = EnumerationBudget(max_firms=n, max_workers=n)
    stable = enumerate_stable(m, budget)
    assert len(stable) == count
    report = verify_lattice(m, budget)
    for (i, j), k in report.join_table.items():
        a, b = stable[i], stable[j]
        join = stable_join_firms(m, a, b, check=True)
        meet = stable_meet_firms(m, a, b, check=True)
        assert join == stable[k]
        assert meet == stable[report.meet_table[(i, j)]]
        assert stable_join_firms(m, b, a, check=True) == join
        assert stable_join_firms(m, a, meet, check=True) == a
        assert stable_meet_firms(m, a, join, check=True) == a
    assert report.ok and report.stable_count == count
