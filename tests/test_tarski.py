"""Candidates, operators, fixed-point iteration, joins and meets."""

import pytest

from matchlattice import (
    B_set_of_firm,
    B_set_of_worker,
    LinearPref,
    Market,
    Matching,
    NonConvergence,
    NotFirmQuasiStable,
    NotStable,
    NotWorkerQuasiStable,
    SetListChoice,
    blair_geq_firms,
    enumerate_quasi_stable,
    enumerate_stable,
    extremal_stable,
    gamma_join,
    is_stable,
    is_worker_quasi_stable,
    iterate_to_fixed_point,
    lambda_join,
    random_market,
    RandomMarketSpec,
    stable_join_firms,
    stable_join_workers,
    stable_meet_firms,
    stable_meet_workers,
    tarski_firm_step,
    tarski_worker_step,
    worker_order_geq,
)


def tiny_market(firm_lists, worker_orders):
    firms = {f: SetListChoice(entries) for f, entries in firm_lists.items()}
    prefs = {w: LinearPref(tuple(order)) for w, order in worker_orders.items()}
    return Market("many_to_one", firms, worker_prefs=prefs)


# -- candidates -----------------------------------------------------------------


def test_lambda_join_goldens(example1, example2):
    m1, named1 = example1
    assert lambda_join(m1, named1["mu_under"], named1["mu_over"]) == named1["mu_boxed"]
    m2, named2 = example2
    assert lambda_join(m2, named2["mu_under"], named2["mu_over"]) == named2["mu_boxed"]


def test_lambda_join_idempotent_on_rational_input(example1):
    m, named = example1
    for name in ("mu_under", "mu_over", "mu_star"):
        assert lambda_join(m, named[name], named[name]) == named[name]
    # individually rational but not worker-quasi-stable: identity still holds
    # once checks are bypassed
    assert lambda_join(m, named["mu_circled"], named["mu_circled"], check=False) == named["mu_circled"]


def test_lambda_join_precondition(example1):
    m, named = example1
    with pytest.raises(NotWorkerQuasiStable):
        lambda_join(m, named["mu_circled"], named["mu_under"])


def test_gamma_join_goldens(example1):
    m, named = example1
    assert gamma_join(m, named["mu_under"], named["mu_over"]) == named["mu_circled"]
    assert gamma_join(m, named["mu_under"], named["mu_under"]) == named["mu_under"]


def test_gamma_join_precondition(example1):
    m, named = example1
    with pytest.raises(NotFirmQuasiStable):
        gamma_join(m, named["mu_boxed"], named["mu_under"])


def test_gamma_join_one_firm_one_worker():
    m = tiny_market({"f1": [["w1"]]}, {"w1": ["f1"]})
    matched = Matching([("f1", "w1")])
    assert gamma_join(m, matched, Matching.empty()) == matched
    assert lambda_join(m, matched, Matching.empty()) == matched


# -- operator pools ---------------------------------------------------------------


def test_B_set_of_firm_goldens(example1, example2):
    m1, named1 = example1
    assert B_set_of_firm(m1, named1["mu_boxed"], "f3") == {"w1", "w3"}
    for name in ("mu_under", "mu_over", "mu_star", "mu_dagger"):
        mu = named1[name]
        for f in m1.firm_ids:
            assert B_set_of_firm(m1, mu, f) == mu.of_firm(f)
    m2, named2 = example2
    assert B_set_of_firm(m2, named2["mu_boxed"], "f1") == {"w1", "w2", "w3", "w4"}
    for f in m2.firm_ids:
        assert B_set_of_firm(m2, named2["mu_star"], f) == named2["mu_star"].of_firm(f)


def test_B_set_of_worker_goldens(example1):
    m, named = example1
    assert "f1" in B_set_of_worker(m, named["mu_circled"], "w5")
    for name in ("mu_under", "mu_star", "mu_dagger"):
        mu = named[name]
        for w in m.worker_ids:
            assert B_set_of_worker(m, mu, w) == mu.of_worker(w)
    m11 = tiny_market({"f1": [["w1"]]}, {"w1": ["f1"]})
    assert B_set_of_worker(m11, Matching.empty(), "w1") == {"f1"}


# -- single steps --------------------------------------------------------------------


def test_firm_step_goldens(example1, example2):
    m1, named1 = example1
    assert tarski_firm_step(m1, named1["mu_boxed"]) == named1["mu_star"]
    assert tarski_firm_step(m1, named1["mu_star"]) == named1["mu_star"]
    m2, named2 = example2
    assert tarski_firm_step(m2, named2["mu_boxed"]) == named2["mu_circled"]
    assert tarski_firm_step(m2, named2["mu_star"]) == named2["mu_star"]


def test_firm_step_example2_second_application(example2):
    # The faithful operator needs a third round: at mu_circled worker w5
    # still chooses f2 out of her willing firms {f2,f5}, so f5 keeps w8 for
    # one more round and w5 joins f5 only after f2 lets her go.
    m, named = example2
    step2 = tarski_firm_step(m, named["mu_circled"])
    expected_step2 = Matching.from_firm_assignments(
        {"f1": ["w1"], "f2": ["w2"], "f3": ["w3"], "f4": ["w4"],
         "f5": ["w8"], "f6": ["w6"], "f7": ["w7"]}
    )
    assert step2 == expected_step2
    assert tarski_firm_step(m, step2) == named["mu_star"]


def test_worker_step_goldens(example1):
    m, named = example1
    assert tarski_worker_step(m, named["mu_circled"]) == named["mu_dagger"]
    assert tarski_worker_step(m, named["mu_dagger"]) == named["mu_dagger"]
    m11 = tiny_market({"f1": [["w1"]]}, {"w1": ["f1"]})
    assert tarski_worker_step(m11, Matching.empty()) == Matching([("f1", "w1")])


def test_step_preconditions(example1):
    m, named = example1
    with pytest.raises(NotWorkerQuasiStable):
        tarski_firm_step(m, named["mu_circled"])
    with pytest.raises(NotFirmQuasiStable):
        tarski_worker_step(m, named["mu_boxed"])


# -- iteration ---------------------------------------------------------------------


def test_iterate_goldens(example1, example2):
    m1, named1 = example1
    tf = iterate_to_fixed_point(m1, named1["mu_boxed"], "firms")
    assert tf.steps == 1 and tf.final == named1["mu_star"]
    tw = iterate_to_fixed_point(m1, named1["mu_circled"], "workers")
    assert tw.steps == 1 and tw.final == named1["mu_dagger"]
    t0 = iterate_to_fixed_point(m1, named1["mu_star"], "firms")
    assert t0.steps == 0 and t0.matchings == (named1["mu_star"],)
    m2, named2 = example2
    t2 = iterate_to_fixed_point(m2, named2["mu_boxed"], "firms")
    assert t2.final == named2["mu_star"]
    assert t2.matchings[1] == named2["mu_circled"]
    assert t2.steps == 3  # see the ledger: the displayed 2-step walk skips a round


def test_trace_improves_and_ends_stable(example1):
    m, named = example1
    tr = iterate_to_fixed_point(m, named["mu_boxed"], "firms")
    for prev, nxt in zip(tr.matchings, tr.matchings[1:]):
        assert blair_geq_firms(m, nxt, prev) and nxt != prev
    assert is_stable(m, tr.final)
    payload = tr.to_json(m)
    assert payload["steps"] == tr.steps
    assert payload["trace"][0]["blocking_pairs"] == 1
    assert all(e.get("improves", True) for e in payload["trace"])


def test_iterate_cap_raises(example2):
    m, named = example2
    with pytest.raises(NonConvergence):
        iterate_to_fixed_point(m, named["mu_boxed"], "firms", cap=1)


def test_non_substitutable_market_diagnosed():
    # f1 only accepts the pair, f2 prefers w1 alone over the pair; found by
    # search, frozen.  The worker-side walk from the empty matching parks w2
    # at f1, which would not keep her, and the fixed point is not stable.
    m = Market(
        "many_to_one",
        {
            "f1": SetListChoice([["w1", "w2"]]),
            "f2": SetListChoice([["w1"], ["w1", "w2"]]),
        },
        worker_prefs={"w1": LinearPref(("f2", "f1")), "w2": LinearPref(("f2", "f1"))},
    )
    with pytest.raises(NonConvergence):
        iterate_to_fixed_point(m, Matching.empty(), "workers", check=False)


# -- joins and meets -------------------------------------------------------------------


def test_stable_join_meet_goldens(example1, example2):
    m1, named1 = example1
    assert stable_join_firms(m1, named1["mu_under"], named1["mu_over"]) == named1["mu_star"]
    assert stable_meet_firms(m1, named1["mu_under"], named1["mu_over"]) == named1["mu_dagger"]
    assert stable_join_workers(m1, named1["mu_under"], named1["mu_over"]) == named1["mu_dagger"]
    assert stable_meet_workers(m1, named1["mu_under"], named1["mu_over"]) == named1["mu_star"]
    m2, named2 = example2
    assert stable_join_firms(m2, named2["mu_under"], named2["mu_over"]) == named2["mu_star"]


def test_join_meet_idempotent(example1):
    m, named = example1
    for name in ("mu_under", "mu_over", "mu_star", "mu_dagger"):
        mu = named[name]
        assert stable_join_firms(m, mu, mu) == mu
        assert stable_meet_firms(m, mu, mu) == mu


def test_join_requires_stable_inputs(example1):
    m, named = example1
    with pytest.raises(NotStable):
        stable_join_firms(m, named["mu_boxed"], named["mu_under"])
    with pytest.raises(NotStable):
        stable_meet_firms(m, named["mu_under"], named["mu_circled"])


def test_lattice_axioms_on_small_markets():
    """Idempotence, commutativity, associativity over enumerated stable sets."""
    for seed in (0, 3, 11):
        m = random_market(seed, RandomMarketSpec(variant="many_to_one", n_firms=3, n_workers=3))
        stable = enumerate_stable(m)
        for a in stable:
            for b in stable:
                jab = stable_join_firms(m, a, b)
                assert jab == stable_join_firms(m, b, a)
                assert stable_meet_firms(m, a, b) == stable_meet_firms(m, b, a)
                for c in stable:
                    assert stable_join_firms(m, jab, c) == stable_join_firms(
                        m, a, stable_join_firms(m, b, c)
                    )


def test_operator_properties_on_tiny_market():
    m = random_market(5, RandomMarketSpec(variant="many_to_one", n_firms=2, n_workers=3))
    qw = enumerate_quasi_stable(m, "workers")
    stable = set(enumerate_stable(m))
    fixed = set()
    for mu in qw:
        nxt = tarski_firm_step(m, mu)
        assert is_worker_quasi_stable(m, nxt)
        assert blair_geq_firms(m, nxt, mu)
        if nxt == mu:
            fixed.add(mu)
    assert fixed == stable


def test_lambda_is_join_within_quasi_stable_set():
    m = random_market(2, RandomMarketSpec(variant="many_to_one", n_firms=2, n_workers=2))
    qw = enumerate_quasi_stable(m, "workers")
    for a in qw:
        for b in qw:
            lam = lambda_join(m, a, b)
            assert blair_geq_firms(m, lam, a) and blair_geq_firms(m, lam, b)
            for nu in qw:
                if blair_geq_firms(m, nu, a) and blair_geq_firms(m, nu, b):
                    assert blair_geq_firms(m, nu, lam)


def test_gamma_is_join_within_firm_quasi_stable_set():
    m = random_market(2, RandomMarketSpec(variant="many_to_one", n_firms=2, n_workers=2))
    qf = enumerate_quasi_stable(m, "firms")
    for a in qf:
        for b in qf:
            gam = gamma_join(m, a, b)
            assert worker_order_geq(m, gam, a) and worker_order_geq(m, gam, b)
            for nu in qf:
                if worker_order_geq(m, nu, a) and worker_order_geq(m, nu, b):
                    assert worker_order_geq(m, nu, gam)


# -- extremal -----------------------------------------------------------------------


def test_extremal_goldens(example1, example2):
    m1, named1 = example1
    firm_opt = extremal_stable(m1, "firms")
    worker_opt = extremal_stable(m1, "workers")
    assert firm_opt.matching == named1["mu_star"] and firm_opt.verified_optimal is True
    assert worker_opt.matching == named1["mu_dagger"] and worker_opt.verified_optimal is True
    m2, named2 = example2
    res = extremal_stable(m2, "firms")
    assert res.matching == named2["mu_star"]
    # ten workers exceed the default enumeration budget: claim is downgraded
    assert res.verified_optimal is None


def test_extremal_is_optimal_over_sweep():
    spec = RandomMarketSpec(variant="many_to_one", n_firms=3, n_workers=3, firm_kind="mixed")
    for seed in range(15):
        m = random_market(seed, spec)
        stable = enumerate_stable(m)
        top = extremal_stable(m, "firms")
        bottom = extremal_stable(m, "workers")
        assert top.verified_optimal is True
        assert bottom.verified_optimal is True
        for s in stable:
            assert blair_geq_firms(m, top.matching, s)
            assert worker_order_geq(m, bottom.matching, s)


@pytest.mark.parametrize(
    "call",
    [
        lambda m: iterate_to_fixed_point(m, Matching.empty(), "agents"),
        lambda m: extremal_stable(m, "Firms"),
        lambda m: enumerate_quasi_stable(m, "both"),
    ],
    ids=["iterate_to_fixed_point", "extremal_stable", "enumerate_quasi_stable"],
)
def test_side_names_are_checked(example1, call):
    m, _ = example1
    with pytest.raises(ValueError, match="^side must be 'firms' or 'workers'$"):
        call(m)
