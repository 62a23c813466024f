"""The table-built sets, blocking scan, candidates, quasi-stability and
steps equal their per-pair forms.

``reference_operators`` keeps the per-pair definitions.  Inputs are the
oracle sweep's small markets under arbitrary edge sets (so matchings that
are not individually rational, or not even valid for the variant, are
included), stable matchings with one edge at an outside agent, whole walks on 40x40 markets, walks from arbitrary starts that
may end in non-convergence, walks on markets of set lists that are not
substitutable, where the walks skip the claims of consistent choices, and
walks on unions of example copies where a step moves few agents.
"""

import inspect
import random

import pytest

from matchlattice import market, replica, tarski
from matchlattice import (
    B_set_of_firm,
    B_set_of_worker,
    EnumerationBudget,
    F_set_of_worker,
    Market,
    Matching,
    NonConvergence,
    OperatorTrace,
    QuotaLinearChoice,
    RandomMarketSpec,
    SetListChoice,
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
    validate_consistent,
    validate_substitutable,
    verify_lattice,
)
from matchlattice.cli import load_bundle
from matchlattice.market import ChoiceFunction
from matchlattice.matching import _stable_tables, has_blocking_pair
from matchlattice.tarski import _Walk, iteration_cap

import reference_operators as ref
from cli_transcripts import relabel, union_market

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


@pytest.mark.parametrize("variant", VARIANTS)
def test_stability_from_a_stable_base_equals_the_full_pass(variant):
    """Visiting only the agents whose holdings differ from a stable matching decides as one full pass.

    Every matching of small markets is checked from each stable base, also
    with one side's accepting table at the matching given, and the tables
    found must be the full pass's too.
    """
    for kind in FIRM_KINDS:
        spec = RandomMarketSpec(variant=variant, n_firms=3, n_workers=4, firm_kind=kind, worker_kind=kind)
        for seed in range(3):
            m = random_market(seed, spec)
            bases = [(mu, _stable_tables(m, mu)) for mu in enumerate_stable(m)]
            for mu in enumerate_matchings(m):
                full = _stable_tables(m, mu)
                assert (full is not None) == ref.is_stable(m, mu)
                own = (
                    {f: c.accepting(mu.of_firm(f)) for f, c in m._firm_choices.items()},
                    {w: c.accepting(mu.of_worker(w)) for w, c in m._worker_choices.items()},
                )
                for base in bases:
                    assert _stable_tables(m, mu, True, base) == full
                    assert _stable_tables(m, mu, True, base, (own[0], None)) == full
                    assert _stable_tables(m, mu, True, base, (None, own[1])) == full


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

    The walk serves only its own output: an input that is not the last
    step's output is re-evaluated in full, as a fresh walk would, and an
    input that is starts from the tables.  Some inputs are not matchings of
    the market or name agents outside it.  A step whose agents all keep
    what they hold returns its input.
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


def outsider_markets():
    """The bundled examples and seeded 3x4 markets of every variant and kind, with related markets."""
    for name in ("example1", "example2"):
        yield Market.from_json(load_bundle(name)["market"])
    for variant in VARIANTS:
        for kind in FIRM_KINDS:
            spec = RandomMarketSpec(variant=variant, n_firms=3, n_workers=4, firm_kind=kind, worker_kind=kind)
            for seed in range(3):
                m = random_market(seed, spec)
                yield m
                if variant == "many_to_many_responsive":
                    yield build_related_market(m).market


def test_public_operators_on_edge_sets_naming_outsiders():
    """Steps, candidates and per-agent sets on a stable matching plus one edge at an outside agent.

    Only matchings a walk validated or built reach the kernels directly;
    these edge sets take the public entry points and must raise or answer
    as the per-pair forms do.  ``is_stable`` and ``blocking_pairs`` raise
    ``UnknownAgent`` here by design, so they are left out.
    """
    budget = EnumerationBudget(max_firms=7, max_workers=12)
    compared = 0
    for m in outsider_markets():
        firms, workers = m.firm_ids, m.worker_ids
        edges = (("zf", workers[0]), (firms[0], "zw"), ("zf", "zw"), ("zf", workers[-1]), (firms[-1], "zw"))
        stable = enumerate_stable(m, budget)[:2]
        for mu in stable:
            for edge in edges:
                s = Matching(mu.edges | {edge})
                checks = [(tarski_firm_step, ref.firm_step, (s,)), (tarski_worker_step, ref.worker_step, (s,))]
                for nu in stable:
                    for pair in ((s, nu), (nu, s)):
                        checks += [(lambda_join, ref.lambda_join, pair), (gamma_join, ref.gamma_join, pair)]
                for got, want, args in checks:
                    assert outcome(got, m, *args, False) == outcome(want, m, *args)
                for w in workers:
                    assert outcome(B_set_of_worker, m, s, w) == outcome(ref.B_set_of_worker, m, s, w)
                    assert outcome(F_set_of_worker, m, s, w) == outcome(ref.F_set_of_worker, m, s, w)
                for f in firms:
                    assert outcome(B_set_of_firm, m, s, f) == outcome(ref.B_set_of_firm, m, s, f)
                    assert outcome(W_set_of_firm, m, s, f) == outcome(ref.W_set_of_firm, m, s, f)
                compared += len(checks) + 2 * (len(firms) + len(workers))
    assert compared == 4570


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


def example_union(name, copies):
    """``(union, tables)``: ``copies`` relabelled copies of an example as one market.

    ``tables`` are the template's stable set and its firm-order join and
    meet tables from :func:`verify_lattice`, indexed in the order
    ``enumerate_stable`` lists the stable set.
    """
    template = Market.from_json(load_bundle(name)["market"])
    budget = EnumerationBudget(max_firms=len(template.firm_ids), max_workers=len(template.worker_ids))
    report = verify_lattice(template, budget)
    assert report.ok
    tables = (enumerate_stable(template, budget), report.join_table, report.meet_table)
    return Market.from_json(union_market(name, copies)), tables


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
            # The CLI's path: the gate's tables feed the candidate and the walk.
            named = (("first", mu), ("second", mu2))
            assert tarski._join_trace(m, named, side) == trace
            assert tarski._join_trace(m, named, side, check=False) == trace


# -- consistent choices keep their claims ----------------------------------------------


def random_set_list(rng, ids):
    """A set list of up to five distinct entries of up to three ids; often not substitutable."""
    entries = []
    for _ in range(rng.randint(1, 5)):
        entry = frozenset(rng.sample(ids, rng.randint(1, min(3, len(ids)))))
        if entry not in entries:
            entries.append(entry)
    return SetListChoice(entries)


def set_list_market(rng, n_firms, n_workers, wrap=lambda c: c):
    firms = [f"f{i}" for i in range(1, n_firms + 1)]
    workers = [f"w{i}" for i in range(1, n_workers + 1)]
    return Market(
        "many_to_many_sub",
        {f: wrap(random_set_list(rng, workers)) for f in firms},
        worker_choices={w: wrap(random_set_list(rng, firms)) for w in workers},
    )


def test_choices_flagged_consistent_are_consistent():
    """Every built-in choice class that claims consistency has it, substitutable or not."""
    classes = {
        c for module in (market, replica) for _, c in inspect.getmembers(module, inspect.isclass)
        if issubclass(c, ChoiceFunction) and c._consistent
    }
    assert classes == {SetListChoice, QuotaLinearChoice}
    assert ChoiceFunction._consistent is False
    rng = random.Random("consistent")
    ids = [f"w{i}" for i in range(1, 7)]
    substitutable = set()
    for _ in range(150):
        set_list = random_set_list(rng, ids)
        linear = QuotaLinearChoice(rng.sample(ids, rng.randint(0, len(ids))), rng.randint(1, 3))
        assert validate_consistent(set_list).ok and validate_consistent(linear).ok
        substitutable.add(validate_substitutable(set_list).ok)
    assert substitutable == {True, False}


class Unflagged(ChoiceFunction):
    """A set list behind a class that does not claim consistency."""

    _contracts = True

    def __init__(self, inner, ground=None):
        super().__init__(inner.ground if ground is None else ground)
        self.inner = inner

    def _choose(self, s):
        return self.inner._choose(s)

    def _accepting(self, held):
        return self.inner._accepting(held)

    def rebased(self, ground):
        return Unflagged(self.inner.rebased(ground), ground)


def test_choices_not_flagged_consistent_are_asked_again(monkeypatch):
    """The same walks with and without the flag: equal traces, more choices without it."""
    calls = {SetListChoice: 0, Unflagged: 0}

    def counted(cls):
        choose = cls._choose

        def wrapper(self, s):
            calls[cls] += 1
            return choose(self, s)

        return wrapper

    rng = random.Random("unflagged")
    for seed in range(6):
        flagged = set_list_market(random.Random(seed), 6, 6)
        unflagged = set_list_market(random.Random(seed), 6, 6, Unflagged)
        for side in ("firms", "workers"):
            start = next(mu for mu in random_edge_sets(flagged, rng, 50) if outcome(mu.validate_for, flagged) is None)
            for mu in (Matching.empty(), start):
                traces = []
                for m, cls in ((flagged, SetListChoice), (unflagged, Unflagged)):
                    with monkeypatch.context() as patch:
                        patch.setattr(cls, "_choose", counted(cls))
                        traces.append(outcome(iterate_to_fixed_point, m, mu, side, False))
                assert traces[0] == traces[1]
    assert calls[Unflagged] > calls[SetListChoice] > 0


def test_walks_on_non_substitutable_set_lists_match_the_reference():
    """Unchecked walks where consistent claims are kept equal the per-pair walk, step for step."""
    rng = random.Random("non-substitutable")
    ends, moved = set(), 0
    for seed in range(24):
        m = set_list_market(random.Random(seed), 5, 6)
        starts = [Matching.empty()]
        starts += [mu for mu in random_edge_sets(m, rng, 20) if outcome(mu.validate_for, m) is None][:4]
        for mu in starts:
            for side in ("firms", "workers"):
                got = outcome(iterate_to_fixed_point, m, mu, side, False)
                assert got == outcome(ref.iterate_to_fixed_point, m, mu, side, iteration_cap(m))
                ends.add(got if got is NonConvergence else type(got))
                moved += isinstance(got, OperatorTrace) and got.steps > 1
    assert ends == {OperatorTrace, NonConvergence} and moved
