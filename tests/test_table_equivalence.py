"""The table-built sets, blocking scan, candidates, quasi-stability and
steps equal their per-pair forms.

``reference_operators`` keeps the per-pair definitions.  Inputs are the
oracle sweep's small markets under arbitrary edge sets (so matchings that
are not individually rational, or not even valid for the variant, are
included) and whole walks on 40x40 markets.
"""

import random

import pytest

from matchlattice import (
    B_set_of_firm,
    B_set_of_worker,
    F_set_of_worker,
    Matching,
    RandomMarketSpec,
    W_set_of_firm,
    blocking_pairs,
    build_related_market,
    enumerate_matchings,
    enumerate_stable,
    gamma_join,
    is_firm_quasi_stable,
    is_stable,
    is_worker_quasi_stable,
    iterate_to_fixed_point,
    lambda_join,
    random_market,
    tarski_firm_step,
    tarski_worker_step,
)
from matchlattice.matching import has_blocking_pair
from matchlattice.tarski import iteration_cap

import reference_operators as ref

VARIANTS = ("many_to_one", "many_to_many_responsive", "many_to_many_sub")
FIRM_KINDS = ("quota_linear", "set_list", "mixed")


def outcome(fn, *args):
    """The value, or the type of the exception raised, so raises compare too."""
    try:
        return fn(*args)
    except Exception as e:  # compared against the reference's raise
        return type(e)


def random_edge_sets(m, rng, count):
    pairs = [(f, w) for f in m.firm_ids for w in m.worker_ids]
    for _ in range(count):
        density = rng.choice((0.1, 0.25, 0.5))
        yield Matching(p for p in pairs if rng.random() < density)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kind", FIRM_KINDS)
def test_tables_match_per_pair_forms(variant, kind):
    rng = random.Random(f"{variant}/{kind}")
    spec = RandomMarketSpec(variant=variant, n_firms=3, n_workers=4, firm_kind=kind, worker_kind=kind)
    for seed in range(8):
        m = random_market(seed, spec)
        matchings = [*enumerate_stable(m), *random_edge_sets(m, rng, 25)]
        for mu, mu2 in zip(matchings, matchings[1:] + matchings[:1]):
            assert outcome(lambda_join, m, mu, mu2, False) == outcome(ref.lambda_join, m, mu, mu2)
            assert outcome(gamma_join, m, mu, mu2, False) == outcome(ref.gamma_join, m, mu, mu2)
        for mu in matchings:
            for w in m.worker_ids:
                assert outcome(F_set_of_worker, m, mu, w) == outcome(ref.F_set_of_worker, m, mu, w)
                assert outcome(B_set_of_worker, m, mu, w) == outcome(ref.B_set_of_worker, m, mu, w)
            for f in m.firm_ids:
                assert outcome(W_set_of_firm, m, mu, f) == outcome(ref.W_set_of_firm, m, mu, f)
                assert outcome(B_set_of_firm, m, mu, f) == outcome(ref.B_set_of_firm, m, mu, f)
            pairs = outcome(blocking_pairs, m, mu)
            if isinstance(pairs, list):
                pairs = [(p.firm, p.worker, p.reason) for p in pairs]
            assert pairs == outcome(ref.blocking_pairs, m, mu)
            assert outcome(has_blocking_pair, m, mu) == outcome(ref.has_blocking_pair, m, mu)
            assert outcome(is_stable, m, mu) == outcome(ref.is_stable, m, mu)
            assert outcome(is_worker_quasi_stable, m, mu) == outcome(ref.is_worker_quasi_stable, m, mu)
            assert outcome(is_firm_quasi_stable, m, mu) == outcome(ref.is_firm_quasi_stable, m, mu)
            assert outcome(tarski_firm_step, m, mu, False) == outcome(ref.firm_step, m, mu)
            assert outcome(tarski_worker_step, m, mu, False) == outcome(ref.worker_step, m, mu)


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_pass_stability_equals_the_definition(variant):
    """``is_stable`` on every edge set of small markets and of their related markets."""
    for kind in FIRM_KINDS:
        spec = RandomMarketSpec(variant=variant, n_firms=3, n_workers=4, firm_kind=kind, worker_kind=kind)
        for seed in range(3):
            m = random_market(seed, spec)
            markets = [m]
            if variant == "many_to_many_responsive":
                markets.append(build_related_market(m).market)
            for market in markets:
                for mu in enumerate_matchings(market):
                    assert outcome(is_stable, market, mu) == outcome(ref.is_stable, market, mu)


def walk_markets():
    for i, variant in enumerate(VARIANTS):
        spec = RandomMarketSpec(variant, 40, 40, density=0.5, firm_quota_max=3)
        m = random_market(100 + i, spec)
        yield variant, m
        if variant == "many_to_many_responsive":
            yield "replica", build_related_market(m).market


@pytest.mark.parametrize("name,m", list(walk_markets()), ids=lambda x: x if isinstance(x, str) else "")
def test_walks_give_identical_traces(name, m):
    for side in ("firms", "workers"):
        got = iterate_to_fixed_point(m, Matching.empty(), side, check=False)
        want = ref.iterate_to_fixed_point(m, Matching.empty(), side, iteration_cap(m))
        assert got.steps > 0
        assert got == want


@pytest.mark.parametrize("name,m", list(walk_markets()), ids=lambda x: x if isinstance(x, str) else "")
def test_one_pass_stability_along_walks(name, m):
    for side in ("firms", "workers"):
        for mu in iterate_to_fixed_point(m, Matching.empty(), side, check=False).matchings:
            assert is_stable(m, mu) == ref.is_stable(m, mu)


def test_many_to_one_worker_quasi_stability_at_scale():
    """The choice form at the default cap equals the blocking-pair form past the cap."""
    m = random_market(1, RandomMarketSpec("many_to_one", 40, 40))
    for side in ("firms", "workers"):
        trace = iterate_to_fixed_point(m, Matching.empty(), side, check=False)
        assert trace.steps > 0
        for mu in trace.matchings:
            assert is_worker_quasi_stable(m, mu) == ref.is_worker_quasi_stable(m, mu)
