"""Stability proofs: a matching the library proved stable skips later stability gates in the same market.

A walk's fixed point and a checked join's result carry a weak reference to
the market they were proven stable in (``matching._prove``).  The join's
gate (``tarski._require``) and the lifted operations' source check
(``replica._lifted``) trust such an input and run no pass for it.  Every
answer must be the one an unproven copy of the same edge set gets, which
pays the full passes; a proof is never trusted in another market object,
never outlives its market, never changes a public predicate, and is never
copied or pickled.
"""

import copy
import gc
import json
import pickle
import weakref

import pytest

from matchlattice import (
    EnumerationBudget,
    Market,
    Matching,
    NotStable,
    RandomMarketSpec,
    blocking_pairs,
    build_related_market,
    enumerate_stable,
    extremal_stable,
    is_stable,
    iterate_to_fixed_point,
    lifted_join_firms,
    lifted_meet_firms,
    random_market,
    stable_join_firms,
    stable_meet_firms,
)
from matchlattice import cli, replica, tarski
from matchlattice.matching import _prove, _proven

from conftest import bundle_market, bundle_sets
from latin_cores import CASE_IDS, CASES, latin_core

VARIANTS = ("many_to_one", "many_to_many_responsive", "many_to_many_sub")
DRAW_SPEC = {"density": 0.5, "firm_quota_max": 3}  # as the benchmark's cold-walk draws
SMALL_CORES = [case for case, (_, n, *_) in zip(CASE_IDS, CASES) if n <= 5]
EXACT_CASES = ["example1", "example2", *SMALL_CORES, *(f"{v}-64" for v in VARIANTS)]
NAMED = ("first argument", "second argument")


def stable_pairs(case: str):
    """``(market, stable matchings)`` rows: the whole stable set at desk scale, the two extremes of 64x64 draws."""
    if case.startswith("example"):
        return [bundle_sets(case)[:2]]
    if case in CASE_IDS:
        variant, n, firm_quota, worker_quota, _ = CASES[CASE_IDS.index(case)]
        m = latin_core(variant, n, firm_quota, worker_quota)
        return [(m, enumerate_stable(m, EnumerationBudget(max_firms=n, max_workers=n)))]
    variant = case.rsplit("-", 1)[0]
    rows = []
    for seed in range(3):
        m = random_market(seed, RandomMarketSpec(variant, 64, 64, **DRAW_SPEC))
        rows.append((m, [extremal_stable(m, side, verify=False).matching for side in ("firms", "workers")]))
    return rows


def fresh(mu: Matching) -> Matching:
    return Matching(mu.edges)


def proven(m: Market, mu: Matching) -> Matching:
    out = fresh(mu)
    _prove(m, out)
    return out


@pytest.fixture
def passes(monkeypatch):
    """``(module, market, matching)`` of every stability pass ``tarski`` and ``replica`` run."""
    calls = []
    for module in (tarski, replica):
        run = module._stable_tables

        def counted(m, mu, *args, _module=module.__name__.rsplit(".", 1)[1], _run=run):
            calls.append((_module, m, mu))
            return _run(m, mu, *args)

        monkeypatch.setattr(module, "_stable_tables", counted)
    return calls


def passes_on(calls, module, m):
    return [mu for name, market, mu in calls if name == module and market is m]


def among(mu, matchings) -> bool:
    return any(mu is x for x in matchings)


# -- exactness ------------------------------------------------------------------


@pytest.mark.parametrize("case", EXACT_CASES)
def test_proven_inputs_give_the_same_joins_and_skip_their_passes(case, passes):
    """A proven input gets the fresh copy's trace and result, and no pass of its own.

    Two fresh inputs pay the parent's passes: one gate pass each, and one
    fixed-point pass when the candidate is not an input, so the join
    walks.  Each proven input takes one gate pass away and no other.
    """
    for m, stable in stable_pairs(case):
        for a in stable:
            for b in stable:
                for side in ("firms", "workers"):
                    passes.clear()
                    expected = tarski._join_trace(m, tuple(zip(NAMED, (fresh(a), fresh(b)))), side)
                    walks = expected.matchings[0] not in (a, b)
                    assert len(passes) == 2 + walks
                    for trusted in ((True, False), (False, True), (True, True)):
                        inputs = [proven(m, x) if t else fresh(x) for x, t in zip((a, b), trusted)]
                        passes.clear()
                        trace = tarski._join_trace(m, tuple(zip(NAMED, inputs)), side)
                        assert trace.matchings == expected.matchings and trace.side == side
                        assert len(passes) == 2 - sum(trusted) + walks
                        checked = [mu for _, _, mu in passes]
                        assert not any(among(x, checked) for x, t in zip(inputs, trusted) if t)
                        assert _proven(m, trace.final)


@pytest.mark.parametrize("case", [c for c in EXACT_CASES if "responsive" in c])
def test_proven_inputs_give_the_same_lifted_operations_and_skip_their_source_passes(case, passes):
    """A proven source input pays no source pass; the preimage gate and its walk are unchanged."""
    for m, stable in stable_pairs(case):
        rm = build_related_market(m)
        for a in stable:
            for b in stable:
                for op in (lifted_join_firms, lifted_meet_firms):
                    passes.clear()
                    expected = op(rm, fresh(a), fresh(b))
                    assert len(passes_on(passes, "replica", m)) == 2
                    replica_passes = len(passes_on(passes, "tarski", rm.market))
                    for trusted in ((True, False), (False, True), (True, True)):
                        inputs = [proven(m, x) if t else fresh(x) for x, t in zip((a, b), trusted)]
                        passes.clear()
                        assert op(rm, *inputs) == expected
                        source = passes_on(passes, "replica", m)
                        assert len(source) == 2 - sum(trusted)
                        assert not any(among(x, source) for x, t in zip(inputs, trusted) if t)
                        assert len(passes_on(passes, "tarski", rm.market)) == replica_passes


# -- scope ------------------------------------------------------------------------


def reversed_firm_orders(m: Market) -> Market:
    """``m`` with every firm's order reversed, over the same agents."""
    obj = m.to_json()
    for spec in obj["firms"].values():
        spec["order"].reverse()
    return Market.from_json(obj)


@pytest.mark.parametrize("variant", ["many_to_one", "many_to_many_responsive"])
def test_a_proof_holds_only_in_the_market_object_it_was_made_in(variant, passes):
    """The same agents, the same JSON, even: another market object pays the full pass."""
    m1 = latin_core(variant, 4, *((2, 2) if variant == "many_to_many_responsive" else (1, 1)))
    top, bottom = (extremal_stable(m1, side, verify=False).matching for side in ("firms", "workers"))
    assert _proven(m1, top) and _proven(m1, bottom) and top != bottom
    twin = Market.from_json(m1.to_json())
    assert not _proven(twin, top)
    passes.clear()
    assert stable_join_firms(twin, top, bottom) == top
    assert passes_on(passes, "tarski", twin) == [top, bottom]
    if variant == "many_to_many_responsive":
        rm = build_related_market(twin)
        passes.clear()
        assert lifted_meet_firms(rm, top, bottom) == bottom
        assert passes_on(passes, "replica", twin) == [top, bottom]

    other = reversed_firm_orders(m1)
    assert not is_stable(other, top)
    for join in (stable_join_firms, stable_meet_firms):
        for mu in (top, fresh(top)):
            with pytest.raises(NotStable, match="^first argument is not stable$"):
                join(other, mu, bottom)
    if variant == "many_to_many_responsive":
        rm = build_related_market(other)
        for mu in (top, fresh(top)):
            with pytest.raises(NotStable, match=f"^{replica._NOT_STABLE}$"):
                lifted_join_firms(rm, mu, bottom)


def test_a_proof_dies_with_its_market(passes):
    def proven_top():
        m = latin_core("many_to_one", 4)
        top = extremal_stable(m, "firms", verify=False).matching
        passes.clear()  # the recorded passes hold the market
        return weakref.ref(m), top

    gone, top = proven_top()
    gc.collect()
    assert gone() is None  # a proof keeps no market alive
    assert top._proof is not None and top._proof() is None
    m = latin_core("many_to_one", 4)
    assert not _proven(m, top)
    passes.clear()
    assert stable_join_firms(m, top, top) == top
    assert passes_on(passes, "tarski", m) == [top, top]


def test_a_forged_proof_changes_no_public_predicate(example1, capsys, monkeypatch, tmp_path):
    """``is_stable``, ``blocking_pairs`` and ``stable-check`` decide from the matching alone."""
    m, named = example1
    forged = proven(m, named["mu_boxed"])
    assert _proven(m, forged)
    assert not is_stable(m, forged)
    assert blocking_pairs(m, forged) == blocking_pairs(m, named["mu_boxed"])
    market, mu = tmp_path / "market.json", tmp_path / "mu.json"
    market.write_text(json.dumps(m.to_json()))
    mu.write_text(json.dumps(named["mu_boxed"].to_json()))
    outputs = []
    for forge in (False, True):
        if forge:
            load = cli.load_matching

            def load_forged(path, market):
                out = load(path, market)
                _prove(market, out)
                return out

            monkeypatch.setattr(cli, "load_matching", load_forged)
        for fmt in ("text", "json"):
            code = cli.main(["stable-check", str(market), str(mu), "--format", fmt])
            outputs.append((code, capsys.readouterr().out))
    assert outputs[:2] == outputs[2:]
    assert "stable: false" in outputs[0][1]


def test_queries_write_no_proof_on_what_they_are_given():
    """A 0-step walk returns its start unproven; a checked join returns a new proven matching."""
    m, stable = bundle_sets("example1")[:2]
    start = fresh(stable[0])
    trace = iterate_to_fixed_point(m, start, "firms")
    assert trace.steps == 0 and trace.final is start and start._proof is None
    top = extremal_stable(m, "firms", verify=False).matching
    assert _proven(m, top)
    a, b = fresh(top), fresh(stable[-1])
    for join in (stable_join_firms, stable_meet_firms):
        out = join(m, a, b)
        assert out is not a and out is not b and _proven(m, out)
    assert a._proof is None and b._proof is None


# -- copies ------------------------------------------------------------------------


def test_copies_and_pickles_carry_no_proof():
    m, named = bundle_market("example1")
    top = extremal_stable(m, "firms", verify=False).matching
    assert _proven(m, top)
    for dup in (pickle.loads(pickle.dumps(top)), copy.copy(top), copy.deepcopy(top)):
        assert dup == top and dup is not top and hash(dup) == hash(top)
        assert dup._proof is None and not _proven(m, dup)
        assert dup.to_json() == top.to_json()
        assert all(dup.of_firm(f) == top.of_firm(f) for f in m.firm_ids)
        assert all(dup.of_worker(w) == top.of_worker(w) for w in m.worker_ids)
    assert pickle.loads(pickle.dumps(named["mu_star"])) == named["mu_star"]
