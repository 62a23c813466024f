"""The table-built sets, blocking scan, candidates, quasi-stability and
steps equal their per-pair forms.

``reference_operators`` keeps the per-pair definitions.  Inputs are the
oracle sweep's small markets under arbitrary edge sets (so matchings that
are not individually rational, or not even valid for the variant, are
included), whole walks on 40x40 markets, walks from arbitrary starts that
may end in non-convergence, and walks on unions of example copies where a
step moves few agents.
"""

import random

import pytest

from matchlattice import (
    B_set_of_firm,
    B_set_of_worker,
    EnumerationBudget,
    F_set_of_worker,
    Market,
    Matching,
    NonConvergence,
    OperatorTrace,
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
    stable_join_firms,
    stable_meet_firms,
    tarski_firm_step,
    tarski_worker_step,
    verify_lattice,
)
from matchlattice.cli import load_bundle
from matchlattice.matching import has_blocking_pair
from matchlattice.tarski import _Walk, iteration_cap

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


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kind", FIRM_KINDS)
def test_walk_tables_follow_any_sequence_of_edge_sets(variant, kind):
    """One walk's steps over unrelated edge sets equal fresh per-pair steps.

    The tables are patched from each input to the next, whatever the two
    are; some inputs are not matchings of the market or name agents outside
    it.  A step whose agents all keep what they hold returns its input.
    """
    rng = random.Random(f"sequence/{variant}/{kind}")
    spec = RandomMarketSpec(variant=variant, n_firms=4, n_workers=5, firm_kind=kind, worker_kind=kind)
    for seed in range(4):
        m = random_market(seed, spec)
        stable = enumerate_stable(m)
        outside = (("f0", m.worker_ids[0]), (m.firm_ids[0], "w0"))
        strangers = [Matching(mu.edges | {edge}) for mu in stable[:1] for edge in outside]
        inputs = [*random_edge_sets(m, rng, 30), *stable, *strangers]
        rng.shuffle(inputs)
        for side, want in (("firms", ref.firm_step), ("workers", ref.worker_step)):
            walk = _Walk(m, side)
            for mu in inputs + inputs[::-1]:
                got = outcome(walk.advance, mu)
                assert got == outcome(want, m, mu)
                assert got is mu or got != mu


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kind", FIRM_KINDS)
def test_erratic_walks_match_the_reference(variant, kind):
    """Walks from arbitrary valid starts, which may end in NonConvergence, equal the per-pair walk."""
    rng = random.Random(f"erratic/{variant}/{kind}")
    ends = set()
    for seed, (n_firms, n_workers) in enumerate(((3, 4), (4, 5), (5, 5), (6, 6))):
        spec = RandomMarketSpec(variant, n_firms, n_workers, firm_kind=kind, worker_kind=kind)
        m = random_market(seed, spec)
        starts = [mu for mu in random_edge_sets(m, rng, 40) if outcome(mu.validate_for, m) is None]
        for mu in starts[:12]:
            for side in ("firms", "workers"):
                got = outcome(iterate_to_fixed_point, m, mu, side, False)
                assert got == outcome(ref.iterate_to_fixed_point, m, mu, side, iteration_cap(m))
                ends.add(got if got is NonConvergence else type(got))
    assert ends == {OperatorTrace, NonConvergence}


def relabel(a, block):
    return f"{a}.{block}"


def example_union(name, copies):
    """``(union, tables)``: ``copies`` relabelled copies of an example as one market.

    ``tables`` are the template's stable set and its firm-order join and
    meet tables from :func:`verify_lattice`, indexed in the order
    ``enumerate_stable`` lists the stable set.
    """
    market_json = load_bundle(name)["market"]
    template = Market.from_json(market_json)
    budget = EnumerationBudget(max_firms=len(template.firm_ids), max_workers=len(template.worker_ids))
    report = verify_lattice(template, budget)
    assert report.ok
    union = {"variant": market_json["variant"], "firms": {}, "workers": {}}
    for block in range(copies):
        for side in ("firms", "workers"):
            for agent, spec in market_json[side].items():
                spec = dict(spec)
                if "list" in spec:
                    spec["list"] = [[relabel(x, block) for x in entry] for entry in spec["list"]]
                if "order" in spec:
                    spec["order"] = [relabel(x, block) for x in spec["order"]]
                union[side][relabel(agent, block)] = spec
    tables = (enumerate_stable(template, budget), report.join_table, report.meet_table)
    return Market.from_json(union), tables


def block_matching(stable, indices):
    """The union matching whose block ``k`` is ``stable[indices[k]]``."""
    return Matching(
        (relabel(f, block), relabel(w, block))
        for block, i in enumerate(indices)
        for f, w in stable[i].edges
    )


@pytest.mark.parametrize("name", ("example1", "example2"))
def test_walks_where_few_agents_change(name):
    """Joins and meets on a union of copies equal the block-wise oracle, walk for walk."""
    m, (stable, join_table, meet_table) = example_union(name, 6)
    rng = random.Random(f"union/{name}")
    cap = iteration_cap(m)
    for _ in range(8):
        a = [rng.randrange(len(stable)) for _ in range(6)]
        b = [rng.randrange(len(stable)) for _ in range(6)]
        mu, mu2 = block_matching(stable, a), block_matching(stable, b)
        pairs = [(min(i, j), max(i, j)) for i, j in zip(a, b)]
        join = block_matching(stable, [join_table[p] for p in pairs])
        meet = block_matching(stable, [meet_table[p] for p in pairs])
        assert stable_join_firms(m, mu, mu2, check=True) == join
        assert stable_meet_firms(m, mu, mu2, check=True) == meet
        for side, candidate in (("firms", lambda_join(m, mu, mu2)), ("workers", gamma_join(m, mu, mu2))):
            trace = iterate_to_fixed_point(m, candidate, side)
            assert trace == ref.iterate_to_fixed_point(m, candidate, side, cap)
            assert trace.final == (join if side == "firms" else meet)
