"""Enumeration, brute-force lattice operations, random market generation."""

import hashlib
import json
import random
from dataclasses import fields
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlattice import (
    BudgetExceeded,
    EnumerationBudget,
    GenerationFailed,
    LinearPref,
    Market,
    Matching,
    OperatorTrace,
    QuotaLinearChoice,
    RandomMarketSpec,
    SchemaError,
    SetListChoice,
    blair_geq_firms,
    blair_geq_workers,
    brute_join,
    brute_meet,
    enumerate_matchings,
    enumerate_quasi_stable,
    enumerate_stable,
    extremal_stable,
    is_firm_quasi_stable,
    is_individually_rational,
    is_stable,
    is_worker_quasi_stable,
    lambda_join,
    random_market,
    stable_join_firms,
    unanimous_geq_workers,
    validate_market,
    validate_substitutable,
    verify_lattice,
    worker_order_geq,
)
from matchlattice import oracle, tarski
from matchlattice.market import SUBSET_CAP, ChoiceFunction
from matchlattice.oracle import count_matchings

from conftest import bundle_market, bundle_sets
from latin_cores import CASE_IDS, CASES, latin_core

VARIANTS = ("many_to_one", "many_to_many_responsive", "many_to_many_sub")
FIRM_KINDS = ("quota_linear", "set_list", "mixed")


def m2o(firm_lists, worker_orders):
    return Market(
        "many_to_one",
        {f: SetListChoice(v) for f, v in firm_lists.items()},
        worker_prefs={w: LinearPref(tuple(v)) for w, v in worker_orders.items()},
    )


def test_enumeration_counts_match_closed_form():
    m = m2o({"f1": [["w1"]]}, {"w1": ["f1"]})
    assert len(list(enumerate_matchings(m))) == 2  # matched or empty

    m = m2o({"f1": [["w1"]], "f2": [["w1"]]}, {"w1": ["f1", "f2"]})
    assert len(list(enumerate_matchings(m))) == 3

    # independent closed form for many-to-one: (|F|+1)^|W|
    m = m2o(
        {"f1": [["w1"], ["w2"]], "f2": [["w2"]]},
        {"w1": ["f1"], "w2": ["f2", "f1"]},
    )
    n_firms, n_workers = 2, 2
    assert count_matchings(m) == (n_firms + 1) ** n_workers == 9
    listed = list(enumerate_matchings(m))
    assert len(listed) == 9
    assert len(set(listed)) == 9  # exactly once each


def test_enumeration_deterministic_order():
    m = m2o({"f1": [["w1"]], "f2": [["w1"]]}, {"w1": ["f1", "f2"]})
    first = [mu.to_json() for mu in enumerate_matchings(m)]
    second = [mu.to_json() for mu in enumerate_matchings(m)]
    assert first == second
    assert first[0] == {"assignments": {}}


def test_budget_guards():
    m = random_market(0, RandomMarketSpec(variant="many_to_one", n_firms=3, n_workers=4))
    with pytest.raises(BudgetExceeded):
        list(enumerate_matchings(m, EnumerationBudget(max_matchings=10)))
    big = random_market(0, RandomMarketSpec(variant="many_to_one", n_firms=3, n_workers=8))
    with pytest.raises(BudgetExceeded):
        list(enumerate_matchings(big))


def raised(fn, *args):
    try:
        fn(*args)
    except BudgetExceeded:
        return True
    return False


def refusal(fn):
    """The message of the BudgetExceeded that ``fn()`` raises, or None."""
    try:
        fn()
    except BudgetExceeded as e:
        return str(e)
    return None


def test_budget_raised_on_same_inputs_at_call_time():
    m = random_market(3, RandomMarketSpec(variant="many_to_many_sub", n_firms=3, n_workers=4))
    ir_count = count_matchings(m, ir_workers_only=True)
    budgets = [
        EnumerationBudget(max_matchings=ir_count),
        EnumerationBudget(max_matchings=ir_count - 1),
        EnumerationBudget(max_firms=2),
        EnumerationBudget(max_workers=3),
    ]
    expected = [False, True, True, True]
    for budget, exceeded in zip(budgets, expected):
        assert raised(lambda: list(enumerate_matchings(m, budget, ir_workers_only=True))) == exceeded
        assert raised(enumerate_stable, m, budget) == exceeded
        assert raised(enumerate_quasi_stable, m, "workers", budget) == exceeded
        assert raised(enumerate_quasi_stable, m, "firms", budget) == exceeded
        assert raised(
            lambda: list(enumerate_matchings(m, budget, ir_workers_only=True, ir_firms_only=True))
        ) == exceeded
        assert raised(lambda: list(enumerate_matchings(m, budget, ir_firms_only=True))) == raised(
            lambda: list(enumerate_matchings(m, budget))
        )
        # The search that decides stability counts the worker-IR matchings.
        assert raised(lambda: list(enumerate_matchings(m, budget, stable_only=True))) == exceeded
        assert refusal(lambda: list(enumerate_matchings(m, budget, stable_only=True))) == refusal(
            lambda: enumerate_stable(m, budget)
        ) == refusal(lambda: list(enumerate_matchings(m, budget, ir_workers_only=True)))


def test_enumerate_stable_goldens(example1):
    m, named = example1
    stable = enumerate_stable(m)
    for name in ("mu_under", "mu_over", "mu_star", "mu_dagger"):
        assert named[name] in stable


def test_all_unacceptable_market_has_only_empty_stable():
    m = Market(
        "many_to_one",
        {"f1": SetListChoice([], ground={"w1"})},
        worker_prefs={"w1": LinearPref(())},
    )
    assert enumerate_stable(m) == [Matching.empty()]


def test_enumerate_quasi_stable_goldens(example1):
    m, named = example1
    qw = enumerate_quasi_stable(m, "workers")
    qf = enumerate_quasi_stable(m, "firms")
    assert Matching.empty() in qw and Matching.empty() in qf
    assert named["mu_boxed"] in qw
    assert named["mu_circled"] in qf
    stable = set(enumerate_stable(m))
    assert stable <= set(qw) and stable <= set(qf)


def test_brute_join_goldens(example1):
    m, named = example1
    stable = enumerate_stable(m)
    assert brute_join(m, "blair_firms", named["mu_under"], named["mu_over"], stable) == named["mu_star"]
    assert brute_meet(m, "blair_firms", named["mu_under"], named["mu_over"], stable) == named["mu_dagger"]
    for s in stable:
        assert brute_join(m, "blair_firms", s, s, stable) == s


def test_brute_join_matches_lambda_on_quasi_stable_universe():
    m = random_market(4, RandomMarketSpec(variant="many_to_one", n_firms=2, n_workers=2))
    qw = enumerate_quasi_stable(m, "workers")
    for a in qw:
        for b in qw:
            assert brute_join(m, "blair_firms", a, b, qw) == lambda_join(m, a, b)


def test_brute_join_returns_none_without_least_upper_bound():
    # two incomparable matchings in a universe with two incomparable uppers
    m = m2o(
        {"f1": [["w1"], ["w2"]], "f2": [["w2"], ["w1"]]},
        {"w1": ["f1", "f2"], "w2": ["f2", "f1"]},
    )
    a = Matching([("f1", "w1")])
    b = Matching([("f2", "w2")])
    universe = [a, b]  # no common upper bound inside the universe
    assert brute_join(m, "blair_firms", a, b, universe) is None

    # A bowtie in the firm order: two incomparable upper bounds and two
    # incomparable lower bounds, so neither the join nor the meet exists.
    m = Market(
        "many_to_many_sub",
        {f: QuotaLinearChoice(["w1", "w2", "w3"], 1) for f in ("f1", "f2")},
        worker_choices={w: QuotaLinearChoice(["f1", "f2"], 2) for w in ("w1", "w2", "w3")},
    )
    a = Matching([("f1", "w2"), ("f2", "w3")])
    b = Matching([("f1", "w3"), ("f2", "w2")])
    uppers = [Matching([("f1", "w1"), ("f2", "w2")]), Matching([("f1", "w2"), ("f2", "w1")])]
    lowers = [Matching([("f1", "w3")]), Matching([("f2", "w3")])]
    universe = [a, b, *uppers, *lowers]
    for t in uppers:
        assert blair_geq_firms(m, t, a) and blair_geq_firms(m, t, b)
    for t in lowers:
        assert blair_geq_firms(m, a, t) and blair_geq_firms(m, b, t)
    for x, y in (uppers, lowers):
        assert not blair_geq_firms(m, x, y) and not blair_geq_firms(m, y, x)
    assert brute_join(m, "blair_firms", a, b, universe) is None
    assert brute_meet(m, "blair_firms", a, b, universe) is None


# Each order tag and the predicate it names.
ORDERS = {
    "blair_firms": blair_geq_firms,
    "blair_workers": blair_geq_workers,
    "worker": worker_order_geq,
    "unanimous_workers": unanimous_geq_workers,
}


@cache
def desk_stable_set(variant):
    """``(market, stable set)``: example1 as itself and with quota-1 responsive workers, and example2."""
    if variant == "many_to_many_sub":
        m = bundle_market("example2")[0]
        return m, enumerate_stable(m, EnumerationBudget(max_firms=7, max_workers=10))
    m = bundle_market("example1")[0]
    if variant == "many_to_many_responsive":
        firms = {f: m.firm_choice(f) for f in m.firm_ids}
        m = Market(variant, firms, worker_prefs=m.worker_prefs, worker_quotas=dict.fromkeys(m.worker_ids, 1))
    return m, enumerate_stable(m)


def bound_by_definition(geq, a, b, universe):
    """The member of ``universe`` at or above ``a`` and ``b`` and at or below every other such member."""
    above = {t for t in universe if geq(t, a) and geq(t, b)}
    least = [u for u in above if all(geq(t, u) for t in above)]
    return least[0] if len(least) == 1 else None


@pytest.mark.parametrize(
    "variant, tag",
    [(v, t) for v in VARIANTS for t in ORDERS if t != "unanimous_workers" or v == "many_to_one"],
)
def test_brute_bounds_follow_each_order_tag(variant, tag):
    m, stable = desk_stable_set(variant)
    assert len(stable) > 1
    geq = ORDERS[tag]
    for a in stable:
        for b in stable:
            join = brute_join(m, tag, a, b, stable)
            meet = brute_meet(m, tag, a, b, stable)
            assert join == bound_by_definition(lambda x, y: geq(m, x, y), a, b, stable)
            assert meet == bound_by_definition(lambda x, y: geq(m, y, x), a, b, stable)
            assert join is not None and meet is not None  # the stable set is a lattice


def test_order_geq_refuses_an_unknown_tag(example1):
    m, named = example1
    with pytest.raises(ValueError) as caught:
        oracle.order_geq(m, "blair", named["mu_under"], named["mu_over"])
    assert str(caught.value) == "unknown order tag 'blair'"


def test_verify_lattice_example1(example1):
    m, _ = example1
    report = verify_lattice(m)
    assert report.ok, report.problems
    assert report.stable_count >= 4
    payload = report.to_json()
    assert payload["ok"] and payload["stable_count"] == report.stable_count
    # join/meet tables index into the enumerated stable set
    for i, j, k in payload["join_table"]:
        assert 0 <= k < report.stable_count


def test_lattice_checks_are_the_flag_fields_in_field_order():
    """``ok`` and the JSON flags read ``CHECKS``; it must name every flag field, in order."""
    names = [f.name for f in fields(oracle.LatticeReport)]
    checks = list(oracle.LatticeReport.CHECKS)
    assert names == ["stable_count", "pairs_checked", *checks, "join_table", "meet_table", "problems"]


def test_verify_lattice_single_stable_market():
    m = m2o({"f1": [["w1"]]}, {"w1": ["f1"]})
    report = verify_lattice(m)
    assert report.ok and report.stable_count == 1


def test_verify_lattice_example2(example2):
    m, named = example2
    budget = EnumerationBudget(max_matchings=10_000_000, max_firms=7, max_workers=10)
    report = verify_lattice(m, budget)
    assert report.ok, report.problems
    stable = enumerate_stable(m, budget)
    assert named["mu_star"] in stable
    assert named["mu_under"] in stable and named["mu_over"] in stable


# Example 1's stable set is a chain of four: pair (i, j) with i < j has
# join j and meet i.
EXAMPLE1_PAIRS = [(i, j) for i in range(4) for j in range(i, 4)]


@pytest.mark.parametrize("op,other", [("join", "meet"), ("meet", "join")])
def test_verify_lattice_reports_an_operator_that_returns_another_stable_matching(example1, monkeypatch, op, other):
    m, _ = example1
    monkeypatch.setattr(tarski, f"stable_{op}_firms", getattr(tarski, f"stable_{other}_firms"))
    report = verify_lattice(m)
    assert not report.ok
    assert [k for k, v in report.to_json()["flags"].items() if not v] == [f"tarski_{op}_agrees"]
    assert report.problems == [
        f"operator {op} differs from oracle for pair ({i},{j})" for i, j in EXAMPLE1_PAIRS if i != j
    ]


@pytest.mark.parametrize("op", ["join", "meet"])
def test_verify_lattice_reports_missing_bounds(example1, monkeypatch, op):
    """An oracle that finds no bound fails both orders' existence, the operator and duality."""
    m, _ = example1
    monkeypatch.setattr(oracle, f"brute_{op}", lambda *args: None)
    report = verify_lattice(m)
    assert not report.ok
    assert [k for k, v in report.to_json()["flags"].items() if not v] == [
        f"firm_{op}s_exist", f"worker_{op}s_exist", f"tarski_{op}_agrees", "duality_holds"
    ]
    assert report.problems == [
        problem
        for i, j in EXAMPLE1_PAIRS
        for problem in (
            f"no firm-order {op} for stable pair ({i},{j})",
            f"operator {op} differs from oracle for pair ({i},{j})",
            f"duality broken on pair ({i},{j})",
        )
    ]


@pytest.mark.parametrize("side", ["firms", "workers"])
def test_extremal_stable_without_verification(example1, side):
    """``verify=False`` returns the same fixed point and trace with no claim about optimality."""
    m, _ = example1
    checked, unchecked = extremal_stable(m, side), extremal_stable(m, side, verify=False)
    assert (unchecked.matching, unchecked.trace) == (checked.matching, checked.trace)
    assert (unchecked.verified_optimal, unchecked.note) == (None, "verification skipped")


def test_extremal_stable_reports_a_wrong_fixed_point(example1, monkeypatch):
    m, named = example1
    monkeypatch.setattr(
        tarski, "iterate_to_fixed_point", lambda m, mu, side, check=True: OperatorTrace(side, (mu, named["mu_under"]))
    )
    result = extremal_stable(m, "firms")
    assert result.matching == named["mu_under"] != named["mu_star"]
    assert (result.verified_optimal, result.note) == (False, "fixed point differs from the oracle's optimum")


@pytest.mark.parametrize(
    "name,stub,note",
    [
        ("enumerate_stable", lambda m, budget: [], "oracle found no stable matchings"),
        ("brute_join", lambda *args: None, "stable set has no pairwise join"),
    ],
)
def test_extremal_stable_reports_an_oracle_without_an_optimum(example1, monkeypatch, name, stub, note):
    m, named = example1
    monkeypatch.setattr(oracle, name, stub)
    result = extremal_stable(m, "firms")
    assert result.matching == named["mu_star"]
    assert (result.verified_optimal, result.note) == (False, note)


def test_example2_quasi_stable_counts(example2):
    named = example2[1]
    _, stable, qw, qf = bundle_sets("example2")
    assert (len(qw), len(qf)) == (6_280, 156)
    assert named["mu_boxed"] in qw and Matching.empty() in qf
    assert set(stable) <= set(qw) and set(stable) <= set(qf)


def test_random_market_deterministic():
    spec = RandomMarketSpec(variant="many_to_many_sub", n_firms=3, n_workers=3, firm_kind="mixed")
    assert random_market(42, spec).to_json() == random_market(42, spec).to_json()
    assert random_market(42, spec).to_json() != random_market(43, spec).to_json()


def test_random_market_zero_density_stable_set_is_empty_matching():
    spec = RandomMarketSpec(variant="many_to_one", n_firms=2, n_workers=2, density=0.0)
    m = random_market(1, spec)
    assert enumerate_stable(m) == [Matching.empty()]


def test_random_market_sweep_validates_200_seeds():
    spec = RandomMarketSpec(variant="many_to_one", n_firms=3, n_workers=4, firm_kind="mixed")
    for seed in range(200):
        m = random_market(seed, spec)
        assert validate_market(m).ok
        assert len(enumerate_stable(m)) >= 1


@pytest.mark.parametrize("variant", ["many_to_many_responsive", "many_to_many_sub"])
def test_random_markets_validate(variant):
    spec = RandomMarketSpec(variant=variant, n_firms=3, n_workers=3, firm_kind="mixed")
    for seed in range(50):
        m = random_market(seed, spec)
        assert validate_market(m).ok


def test_generation_failure_surfaces():
    # with a retry cap of zero the set-list sampler cannot succeed
    spec = RandomMarketSpec(variant="many_to_one", n_firms=2, n_workers=3,
                            firm_kind="set_list", retry_cap=0)
    with pytest.raises(GenerationFailed):
        random_market(0, spec)


def test_oracle_engine_agreement_spot_check():
    spec = RandomMarketSpec(variant="many_to_one", n_firms=3, n_workers=3, firm_kind="mixed")
    for seed in range(10):
        m = random_market(seed, spec)
        stable = enumerate_stable(m)
        for a in stable:
            for b in stable:
                assert stable_join_firms(m, a, b) == brute_join(m, "blair_firms", a, b, stable)


def test_set_list_generator_draws_the_same_markets():
    # sha256 of the JSON of these draws, pinned: checking the set-list
    # axioms over the listed ids must not change any market drawn.
    draws = [
        random_market(
            seed, RandomMarketSpec(variant, n, n + 1, density=density, firm_kind=kind, worker_kind=kind)
        ).to_json()
        for variant in VARIANTS
        for kind in FIRM_KINDS
        for n in (2, 4, 6)
        for density in (0.5, 0.9)
        for seed in range(4)
    ]
    digest = hashlib.sha256(json.dumps(draws, sort_keys=True).encode()).hexdigest()
    assert digest == "fba2e80f8559af3de88bb7981cab18db25eb2ab11f93a7317d5230b37b2935a8"


def test_generator_draws_the_same_markets_across_kinds_and_quotas():
    # sha256 of the JSON of these draws, pinned: firm and worker kinds that
    # differ and quota maxima off their defaults keep every market drawn.
    draws = [
        random_market(
            seed,
            RandomMarketSpec(variant, n, n + 1, density=0.7, firm_quota_max=3, worker_quota_max=4,
                             firm_kind=firm_kind, worker_kind=worker_kind),
        ).to_json()
        for variant in VARIANTS
        for firm_kind in FIRM_KINDS
        for worker_kind in FIRM_KINDS
        if firm_kind != worker_kind
        for n in (2, 4, 5)
        for seed in range(3)
    ]
    digest = hashlib.sha256(json.dumps(draws, sort_keys=True).encode()).hexdigest()
    assert digest == "34c1ec3c010b913d712d386793c5c441527eb4c3c7feafe10673d0c5bed204a8"


def test_unknown_variant_is_refused_before_drawing():
    # With no retries a set-list draw fails, so a draw made before the
    # variant check would raise GenerationFailed instead.
    spec = RandomMarketSpec("bogus", 2, 3, firm_kind="set_list", retry_cap=0)
    with pytest.raises(SchemaError, match=r"^unknown variant 'bogus'$"):
        random_market(0, spec)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("field", ["firm_kind", "worker_kind"])
def test_unknown_choice_kind_is_refused_before_drawing(variant, field):
    # As above, a set-list draw made before the check would raise
    # GenerationFailed instead of naming the kind.
    kinds = {"firm_kind": "set_list", "worker_kind": "set_list", field: "setlist"}
    spec = RandomMarketSpec(variant, 2, 3, retry_cap=0, **kinds)
    with pytest.raises(SchemaError, match=rf"^unknown {field} 'setlist'$"):
        random_market(0, spec)


@pytest.mark.parametrize("kind", ["set_list", "mixed"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_set_list_generator_past_the_validation_cap(variant, kind):
    spec = RandomMarketSpec(variant, 20, 20, density=0.5, firm_kind=kind, worker_kind=kind)
    for seed in range(3):
        m = random_market(seed, spec)
        assert len(m.firm_ids) == len(m.worker_ids) == 20
        for f in m.firm_ids:
            assert len(m.firm_choice(f).ground) == 20


# -- firm individual rationality inside the enumeration ---------------------


def firm_ir(m, mu):
    return all(m.firm_choice(f).choose(mu.of_firm(f)) == mu.of_firm(f) for f in m.firm_ids)


def assert_pruning_loses_nothing(m):
    """The firm-IR stream and every IR consumer equal the filtered full stream."""
    full = list(enumerate_matchings(m, ir_workers_only=True))
    pruned = list(enumerate_matchings(m, ir_workers_only=True, ir_firms_only=True))
    assert pruned == [mu for mu in full if firm_ir(m, mu)]
    everything = list(enumerate_matchings(m))
    assert list(enumerate_matchings(m, ir_firms_only=True)) == [
        mu for mu in everything if firm_ir(m, mu)
    ]
    assert_searches_equal_filtered(m, full)


def assert_searches_equal_filtered(m, full, budget=None):
    """The stable and quasi-stable searches equal the worker-IR stream ``full`` filtered by definition."""
    assert enumerate_stable(m, budget) == [mu for mu in full if is_stable(m, mu)]
    assert enumerate_quasi_stable(m, "workers", budget) == [mu for mu in full if is_worker_quasi_stable(m, mu)]
    assert enumerate_quasi_stable(m, "firms", budget) == [mu for mu in full if is_firm_quasi_stable(m, mu)]


@st.composite
def sweep_markets(draw):
    kind = draw(st.sampled_from(FIRM_KINDS))
    spec = RandomMarketSpec(
        draw(st.sampled_from(VARIANTS)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 4)),
        density=draw(st.sampled_from([0.5, 0.8, 1.0])),
        firm_kind=kind,
        worker_kind=kind,
    )
    return random_market(draw(st.integers(0, 2**16)), spec)


@settings(max_examples=150, deadline=None)
@given(sweep_markets())
def test_pruned_enumeration_equals_filtered(m):
    assert_pruning_loses_nothing(m)


def choice(entry):
    if entry[0] == "set_list":
        return SetListChoice(entry[1])
    return QuotaLinearChoice(entry[1], entry[2])


# Markets with one non-substitutable set list each (f1, w1, f1).
NON_SUBSTITUTABLE = (
    (
        "many_to_one",
        {"f1": ("set_list", [["w1", "w2"], ["w1"]]), "f2": ("quota_linear", ["w3", "w2", "w1"], 2)},
        {"w1": ["f1", "f2"], "w2": ["f2", "f1"], "w3": ["f2"]},
        None,
    ),
    (
        "many_to_many_sub",
        {"f1": ("quota_linear", ["w1", "w2"], 2), "f2": ("quota_linear", ["w2", "w1"], 1)},
        {"w1": ("set_list", [["f1", "f2"], ["f2"]]), "w2": ("quota_linear", ["f1", "f2"], 2)},
        None,
    ),
    (
        "many_to_many_responsive",
        {"f1": ("set_list", [["w2", "w3"], ["w1"]]), "f2": ("quota_linear", ["w1", "w3"], 1)},
        {"w1": ["f2", "f1"], "w2": ["f1"], "w3": ["f1", "f2"]},
        {"w1": 2, "w2": 1, "w3": 2},
    ),
)


def non_substitutable_market(variant, firms, workers, quotas):
    firm_choices = {f: choice(e) for f, e in firms.items()}
    if variant == "many_to_many_sub":
        return Market(variant, firm_choices, worker_choices={w: choice(e) for w, e in workers.items()})
    prefs = {w: LinearPref(order) for w, order in workers.items()}
    return Market(variant, firm_choices, worker_prefs=prefs, worker_quotas=quotas)


@pytest.mark.parametrize("spec", NON_SUBSTITUTABLE, ids=[s[0] for s in NON_SUBSTITUTABLE])
def test_non_substitutable_firms_are_checked_on_complete_matchings(spec):
    m = non_substitutable_market(*spec)
    assert_pruning_loses_nothing(m)


class Padded(ChoiceFunction):
    """Substitutable but not contracting: ``w3`` is chosen even when not offered."""

    def _choose(self, s):
        return s | {"w3"}

    def rebased(self, ground):
        return Padded(ground)


def test_non_contracting_choice_is_checked_on_complete_matchings():
    m = Market(
        "many_to_one",
        {"f1": Padded({"w1", "w2", "w3"}), "f2": SetListChoice([["w2", "w3"], ["w2"], ["w3"], ["w1"]])},
        worker_prefs={"w1": LinearPref(["f1", "f2"]), "w2": LinearPref(["f2", "f1"]), "w3": LinearPref(["f1"])},
    )
    assert validate_substitutable(m.firm_choice("f1")).ok
    assert Matching([("f1", "w1"), ("f1", "w3")]) in enumerate_matchings(m, ir_firms_only=True)
    assert_pruning_loses_nothing(m)


def test_stability_of_a_non_contracting_choice_is_individual_rationality_first():
    """``C_f1({w1}) = {w1,w3}``: f1 keeps what it holds but is not individually rational."""
    m = Market(
        "many_to_one",
        {"f1": Padded({"w1", "w3"})},
        worker_prefs={"w1": LinearPref(["f1"]), "w3": LinearPref([])},
    )
    mu = Matching([("f1", "w1")])
    assert not is_individually_rational(m, mu)
    assert not is_stable(m, mu)
    assert enumerate_stable(m) == []
    assert [mu for mu in enumerate_matchings(m) if is_stable(m, mu)] == []


class Uncopied(ChoiceFunction):
    """A choice without ``rebased``; it chooses like the set list it wraps."""

    def __init__(self, inner):
        super().__init__(inner.ground)
        self.inner = inner

    def _choose(self, s):
        return self.inner.choose(s)


@pytest.mark.parametrize("subsets", [[["w1", "w2"], ["w1"]], [["w1"], ["w2"]]], ids=["non-sub", "sub"])
def test_choice_without_rebased_is_checked_on_complete_matchings(subsets):
    """The checks run on the market's own choices, so ``rebased`` plays no part."""
    m = m2o(
        {"f1": subsets, "f2": [["w2", "w3"], ["w2"], ["w3"], ["w1"]]},
        {"w1": ["f1", "f2"], "w2": ["f2", "f1"], "w3": ["f1", "f2"]},
    )
    m._firm_choices["f1"] = Uncopied(m.firm_choice("f1"))
    assert_pruning_loses_nothing(m)


def test_firms_past_the_validation_cap_are_filtered_exactly():
    """Firms whose ground set exceeds ``SUBSET_CAP``, on a small worker-IR space.

    Only w1..w4 accept a firm, so the worker-IR stream stays small although
    each firm ranks all 16 workers; the unfiltered stream is out of reach.
    """
    workers = [f"w{i}" for i in range(1, 17)]
    assert len(workers) > SUBSET_CAP
    lists = [["w2", "w3"], ["w4"], ["w1"]]  # w2 is chosen from {w1, w2, w3} but not from {w1, w2}
    m = Market(
        "many_to_one",
        {
            "f1": QuotaLinearChoice(workers, 2),
            "f2": SetListChoice(lists, ground=workers),
            "f3": QuotaLinearChoice(workers[::-1], 1),
        },
        worker_prefs={
            w: LinearPref(order)
            for w, order in zip(workers, [["f2", "f1"], ["f1", "f2", "f3"], ["f2", "f3"], ["f3", "f1", "f2"]])
        }
        | {w: LinearPref(()) for w in workers[4:]},
    )
    assert not validate_substitutable(SetListChoice(lists)).ok
    budget = EnumerationBudget(max_matchings=1_000, max_workers=16)
    full = list(enumerate_matchings(m, budget, ir_workers_only=True))
    assert len(full) == count_matchings(m, ir_workers_only=True) == 3 * 4 * 3 * 4
    pruned = list(enumerate_matchings(m, budget, ir_workers_only=True, ir_firms_only=True))
    assert 0 < len(pruned) < len(full)
    assert pruned == [mu for mu in full if firm_ir(m, mu)]
    assert_searches_equal_filtered(m, full, budget)


# -- stability decided inside the search -------------------------------------
#
# ``enumerate_stable`` decides each blocking pair at the depth where both
# holdings are final, and both searches test each firm's set when it is final.
# These sweeps compare them with the worker-IR stream filtered leaf by leaf.


def assert_decided_as_filtered(m, budget=None):
    assert_searches_equal_filtered(m, list(enumerate_matchings(m, budget, ir_workers_only=True)), budget)


def first_small_markets(spec, count, cap=2_000):
    """The first ``count`` draws of ``spec``, by seed, with at most ``cap`` worker-IR matchings."""
    small = (random_market(seed, spec) for seed in range(200))
    out = [m for m in small if count_matchings(m, ir_workers_only=True) <= cap][:count]
    assert len(out) == count
    return out


@pytest.mark.parametrize("kind", FIRM_KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", [(4, 5, 0.8), (5, 6, 0.5)], ids=["4x5", "5x6"])
def test_stability_decided_in_search_on_random_markets(shape, variant, kind):
    n_firms, n_workers, density = shape
    spec = RandomMarketSpec(variant, n_firms, n_workers, density=density, firm_kind=kind, worker_kind=kind)
    for m in first_small_markets(spec, 3):
        assert_decided_as_filtered(m)


@pytest.mark.parametrize("variant,n,firm_quota,worker_quota,count", CASES, ids=CASE_IDS)
def test_stability_decided_in_search_on_latin_cores(variant, n, firm_quota, worker_quota, count):
    """Stable sets of 4 to 7 elements, where every pair of a full list reaches the leaf."""
    m = latin_core(variant, n, firm_quota, worker_quota)
    budget = EnumerationBudget(max_firms=n, max_workers=n)
    stable, worker_quasi, firm_quasi = [], [], []
    for mu in enumerate_matchings(m, budget, ir_workers_only=True):  # one pass: 117,649 leaves at 6x6
        if is_stable(m, mu):
            stable.append(mu)
        if is_worker_quasi_stable(m, mu):
            worker_quasi.append(mu)
        if is_firm_quasi_stable(m, mu):
            firm_quasi.append(mu)
    assert len(stable) == count
    assert enumerate_stable(m, budget) == stable
    assert enumerate_quasi_stable(m, "workers", budget) == worker_quasi
    assert enumerate_quasi_stable(m, "firms", budget) == firm_quasi


def unvalidated_set_list(rng, ids):
    """Up to four distinct entries drawn with no axiom check: most lists are not substitutable."""
    drawn = (frozenset(rng.sample(ids, rng.randint(1, min(3, len(ids))))) for _ in range(rng.randint(0, 4)))
    return SetListChoice(list(dict.fromkeys(drawn)), ground=ids)


def unvalidated_market(seed, variant):
    """A 3x4 market whose firms, and in ``many_to_many_sub`` its workers too, hold unvalidated set lists."""
    rng = random.Random(seed)
    firms, workers = ["f1", "f2", "f3"], ["w1", "w2", "w3", "w4"]
    firm_choices = {f: unvalidated_set_list(rng, workers) for f in firms}
    if variant == "many_to_many_sub":
        return Market(variant, firm_choices, worker_choices={w: unvalidated_set_list(rng, firms) for w in workers})
    prefs = {w: LinearPref(rng.sample(firms, rng.randint(0, 3))) for w in workers}
    if variant == "many_to_one":
        return Market(variant, firm_choices, worker_prefs=prefs)
    quotas = {w: rng.randint(1, 2) for w in workers}
    return Market(variant, firm_choices, worker_prefs=prefs, worker_quotas=quotas)


@pytest.mark.parametrize("variant", VARIANTS)
def test_stability_decided_in_search_without_the_axioms(variant):
    """Set lists that break substitutability: the finality cut assumes nothing of a choice."""
    markets = [unvalidated_market(seed, variant) for seed in range(100)]
    assert sum(not validate_market(m).ok for m in markets) >= 50
    for m in markets:
        assert_decided_as_filtered(m)
