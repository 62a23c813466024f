"""Joins and meets on markets whose stable lattice has more than one element.

The random markets of the other sweeps nearly always have a single stable
matching, where every join is ``join(a, a)``.  On the Latin-square cores
the join differs from its first argument on 3 to 10 pairs per market.
"""

import pytest

from matchlattice import EnumerationBudget, enumerate_stable, stable_join_firms, stable_meet_firms, verify_lattice

from latin_cores import CASE_IDS, CASES, latin_core


@pytest.mark.parametrize("variant,n,firm_quota,worker_quota,count", CASES, ids=CASE_IDS)
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
