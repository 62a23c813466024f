"""Enumeration, brute-force lattice operations, random market generation."""

import pytest

from matchlattice import (
    BudgetExceeded,
    EnumerationBudget,
    GenerationFailed,
    LinearPref,
    Market,
    Matching,
    RandomMarketSpec,
    SetListChoice,
    brute_join,
    brute_meet,
    enumerate_matchings,
    enumerate_quasi_stable,
    enumerate_stable,
    lambda_join,
    random_market,
    stable_join_firms,
    validate_market,
    verify_lattice,
)
from matchlattice.oracle import count_matchings


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
