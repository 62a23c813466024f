"""Every walk and every checked lattice operation against the enumeration oracle.

An isotone operator iterated from a start at or below its image reaches the
least fixed point above the start (Tarski 1955).  The operators' fixed
points are the stable matchings, so a walk from any quasi-stable start ends
on the least stable matching above it in its side's order, which
``brute_join(m, tag, start, start, stable)`` finds by enumeration.  A join
is that walk from the pooled candidate; a checked join whose candidate
equals an input returns that input without walking.
"""

from functools import cache

import pytest

from matchlattice import (
    EnumerationBudget,
    RandomMarketSpec,
    blair_geq_firms,
    brute_join,
    brute_meet,
    enumerate_quasi_stable,
    enumerate_stable,
    gamma_join,
    iterate_to_fixed_point,
    lambda_join,
    random_market,
    stable_join_firms,
    stable_meet_firms,
    tarski_firm_step,
    tarski_worker_step,
    worker_order_geq,
)
from matchlattice import tarski
from matchlattice.oracle import order_geq

from conftest import bundle_market, bundle_sets
from latin_cores import CASE_IDS, CASES, latin_core

VARIANTS = ("many_to_one", "many_to_many_responsive", "many_to_many_sub")
KINDS = ("quota_linear", "set_list", "mixed")
DRAWS = [f"{variant}-{kind}" for variant in VARIANTS for kind in KINDS]

# Per walking side: the quasi-stable set it walks (an index into a
# ``walk_sets`` row), the order it climbs as an oracle tag and as a
# predicate, its pooled candidate and its step.
WALKS = {
    "firms": (2, "blair_firms", blair_geq_firms, lambda_join, tarski_firm_step),
    "workers": (3, "worker", worker_order_geq, gamma_join, tarski_worker_step),
}

# The join-within-the-quasi-stable-set lemma asks every pair, so it runs on
# sets of at most this many matchings: all but example2's 6,280
# worker-quasi-stable matchings and the 4x4 quota-2 cores' 292.
PAIRWISE_CAP = 100


def desk_markets(case: str, seeds: int, n_firms: int, n_workers: int, **options):
    """``(markets, budget)`` of a Latin core's id, or of ``seeds`` draws for a ``variant-kind`` case.

    The draws are ``n_firms`` x ``n_workers`` with the other
    :class:`RandomMarketSpec` fields in ``options``.
    """
    if case in CASE_IDS:
        variant, n, firm_quota, worker_quota, _ = CASES[CASE_IDS.index(case)]
        return [latin_core(variant, n, firm_quota, worker_quota)], EnumerationBudget(max_firms=n, max_workers=n)
    variant, kind = case.split("-")
    spec = RandomMarketSpec(variant, n_firms, n_workers, firm_kind=kind, worker_kind=kind, **options)
    return [random_market(seed, spec) for seed in range(seeds)], None


@cache
def walk_sets(case: str):
    """``(market, stable, worker-quasi-stable, firm-quasi-stable)`` rows; draws are 3x4 at the default density."""
    if case.startswith("example"):
        return [bundle_sets(case)]
    markets, budget = desk_markets(case, 8, 3, 4)
    return [
        (
            m,
            enumerate_stable(m, budget),
            enumerate_quasi_stable(m, "workers", budget),
            enumerate_quasi_stable(m, "firms", budget),
        )
        for m in markets
    ]


@cache
def stable_sets(case: str):
    """``(market, stable)`` rows; draws are balanced 4x4 full lists, whose lattices are wider than the 3x4 draws'."""
    if case.startswith("example"):
        return [bundle_sets(case)[:2]]
    markets, budget = desk_markets(case, 12, 4, 4, density=1.0, firm_quota_max=1, worker_quota_max=1)
    return [(m, enumerate_stable(m, budget)) for m in markets]


def assert_pooled_joins(m, quasi, geq, pooled):
    """``pooled`` gives each pair of ``quasi`` its least upper bound within ``quasi``."""
    index = {mu: i for i, mu in enumerate(quasi)}
    # above[i]: the members at or above quasi[i], as a bit mask
    above = [sum(1 << j for j, t in enumerate(quasi) if geq(m, t, x)) for x in quasi]
    for i, a in enumerate(quasi):
        for j in range(i, len(quasi)):
            k = index[pooled(m, a, quasi[j], check=False)]
            uppers = above[i] & above[j]
            assert uppers >> k & 1 and not uppers & ~above[k]


SMALL_CORES = [case_id for case, case_id in zip(CASES, CASE_IDS) if case[1] <= 5]


@pytest.mark.parametrize("case", ["example1", "example2", *SMALL_CORES, *DRAWS])
def test_every_walk_ends_on_the_least_stable_matching_above_its_start(case):
    """From every quasi-stable start, each side's walk ends on the oracle's least stable matching above it.

    Along the way the paper's lemmas hold: each step maps its quasi-stable
    set into itself and climbs its side's order, the fixed points are
    exactly the stable set, and the pooled candidate is the join within the
    quasi-stable set.
    """
    moved = 0
    for row in walk_sets(case):
        m, stable = row[:2]
        for side, (at, tag, geq, pooled, step) in WALKS.items():
            quasi = row[at]
            members, fixed = set(quasi), set()
            for start in quasi:
                trace = iterate_to_fixed_point(m, start, side, check=False)
                assert trace.final == brute_join(m, tag, start, start, stable)
                moved += trace.steps > 0
                nxt = step(m, start, check=False)
                assert nxt in members and geq(m, nxt, start)
                if nxt == start:
                    fixed.add(start)
            assert fixed == set(stable)
            if len(quasi) <= PAIRWISE_CAP:
                assert_pooled_joins(m, quasi, geq, pooled)
    assert moved  # every case has a start below the stable set


LAW_CASES = ["example1", "example2", *CASE_IDS, *DRAWS]


@pytest.mark.parametrize("case", LAW_CASES)
def test_checked_lattice_laws(case):
    """On every ordered stable pair, checked joins and meets are the oracle's and obey the lattice laws."""
    for m, stable in stable_sets(case):
        for a in stable:
            assert stable_join_firms(m, a, a) == a and stable_meet_firms(m, a, a) == a
            for b in stable:
                join, meet = stable_join_firms(m, a, b), stable_meet_firms(m, a, b)
                assert join == brute_join(m, "blair_firms", a, b, stable)
                assert meet == brute_meet(m, "blair_firms", a, b, stable)
                assert stable_join_firms(m, b, a) == join and stable_meet_firms(m, b, a) == meet
                assert stable_join_firms(m, a, meet) == a and stable_meet_firms(m, a, join) == a


@pytest.fixture
def advances(monkeypatch):
    """The matchings each ``_Walk.advance`` call since the last clear was given."""
    calls = []
    advance = tarski._Walk.advance

    def counted(self, mu):
        calls.append(mu)
        return advance(self, mu)

    monkeypatch.setattr(tarski._Walk, "advance", counted)
    return calls


@pytest.mark.parametrize("case", LAW_CASES)
def test_checked_joins_of_comparable_inputs_skip_the_walk(case, advances):
    """A checked join gives the unchecked trace, and walks exactly when its inputs are incomparable.

    Comparable inputs pool into the larger one, which is their join, so no
    operator is applied.  Unchecked joins always walk.
    """
    for m, stable in stable_sets(case):
        for a in stable:
            for b in stable:
                named = (("first argument", a), ("second argument", b))
                for side, (_, tag, *_) in WALKS.items():
                    advances.clear()
                    checked = tarski._join_trace(m, named, side)
                    walked = bool(advances)
                    advances.clear()
                    assert checked.matchings == tarski._join_trace(m, named, side, check=False).matchings
                    assert advances
                    assert walked != (order_geq(m, tag, a, b) or order_geq(m, tag, b, a))


@pytest.mark.parametrize("name, side", [("example1", "firms"), ("example1", "workers"), ("example2", "firms")])
def test_checked_join_from_an_unstable_candidate_still_walks(name, side, advances):
    m, named = bundle_market(name)
    mu, mu2 = named["mu_under"], named["mu_over"]
    candidate = WALKS[side][3](m, mu, mu2)
    stable = bundle_sets(name)[1]
    assert candidate not in stable
    trace = tarski._join_trace(m, (("first argument", mu), ("second argument", mu2)), side)
    assert advances and trace.steps > 0
    assert trace.matchings[0] == candidate and trace.final == brute_join(m, WALKS[side][1], mu, mu2, stable)
