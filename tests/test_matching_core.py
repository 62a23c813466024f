"""Matching invariants, blocking, stability, quasi-stability, orders."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchlattice

from matchlattice import (
    BlockingPair,
    F_set_of_worker,
    LinearPref,
    Market,
    Matching,
    QuotaLinearChoice,
    SchemaError,
    UnknownAgent,
    W_set_of_firm,
    blair_geq_firms,
    blair_geq_workers,
    blocked_by_firm,
    blocked_by_worker,
    blocking_pairs,
    enumerate_matchings,
    is_firm_quasi_stable,
    is_individually_rational,
    is_stable,
    is_worker_quasi_stable,
    lambda_join,
    random_market,
    RandomMarketSpec,
    unanimous_geq_workers,
    worker_order_geq,
)


def test_matching_mutual_consistency():
    mu = Matching.from_firm_assignments({"f1": ["w1", "w2"], "f2": ["w3"]})
    for f in ("f1", "f2"):
        for w in mu.of_firm(f):
            assert f in mu.of_worker(w)
    for w in ("w1", "w2", "w3"):
        for f in mu.of_worker(w):
            assert w in mu.of_firm(f)


def test_matching_equality_is_per_agent_sets():
    a = Matching([("f1", "w1"), ("f1", "w2")])
    b = Matching.from_firm_assignments({"f1": ["w2", "w1"]})
    assert a == b and hash(a) == hash(b)
    assert a != Matching([("f1", "w1")])


def test_matching_json_round_trip():
    mu = Matching.from_firm_assignments({"f2": ["w10", "w2"], "f1": ["w1"]})
    assert Matching.from_json(mu.to_json()) == mu
    assert mu.to_json() == {"assignments": {"f1": ["w1"], "f2": ["w2", "w10"]}}
    assert Matching.from_json({"assignments": {}}) == Matching.empty()


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"f1": ["w1"]}, "matching must be an object with an 'assignments' map"),
        ({"assignments": [["f1", "w1"]]}, "matching must be an object with an 'assignments' map"),
        ({"assignments": {"f1": "w1"}}, "assignments for f1 must be a list of worker ids"),
        ({"assignments": {"f1": ["w1", "w1"]}}, "assignments for f1 repeat a worker"),
    ],
)
def test_matching_json_refusals(obj, message):
    with pytest.raises(SchemaError) as caught:
        Matching.from_json(obj)
    assert str(caught.value) == message


def test_matching_variant_constraints(example1):
    m, _ = example1
    two_jobs = Matching([("f1", "w1"), ("f2", "w1")])
    with pytest.raises(SchemaError):
        two_jobs.validate_for(m)
    with pytest.raises(SchemaError):
        Matching([("f1", "nope")]).validate_for(m)


def test_responsive_quota_constraint():
    m = Market(
        "many_to_many_responsive",
        {"f1": QuotaLinearChoice(["w1"], 1), "f2": QuotaLinearChoice(["w1"], 1)},
        worker_prefs={"w1": LinearPref(("f1", "f2"))},
        worker_quotas={"w1": 1},
    )
    with pytest.raises(SchemaError):
        Matching([("f1", "w1"), ("f2", "w1")]).validate_for(m)


_OFFENDERS = """
from matchlattice import Market, Matching, SchemaError
from matchlattice.cli import load_bundle

m = Market.from_json(load_bundle("example1")["market"])
for edges in (
    [("f1", "w1"), ("f2", "w1"), ("f1", "w2"), ("f2", "w2")],
    [("f1", "z1"), ("f2", "z2")],
    [("g1", "w1"), ("g2", "w2")],
):
    try:
        Matching(edges).validate_for(m)
    except SchemaError as e:
        print(e)
"""


@pytest.mark.parametrize("hash_seed", ["0", "2"])
def test_validate_for_names_the_first_offender_under_any_hash_seed(hash_seed):
    package_root = str(Path(matchlattice.__file__).parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": package_root}
    out = subprocess.run(
        [sys.executable, "-c", _OFFENDERS], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == [
        "worker w1 holds 2 firms in a many-to-one market",
        "matching references unknown worker 'z1'",
        "matching references unknown firm 'g1'",
    ]


# -- individual blocking -------------------------------------------------------


def test_blocked_by_firm_goldens(example1):
    m, named = example1
    for f in m.firm_ids:
        assert not blocked_by_firm(m, named["mu_under"], f)
        assert not blocked_by_firm(m, Matching.empty(), f)
    overfull = Matching.from_firm_assignments({"f1": ["w1", "w5"]})
    assert blocked_by_firm(m, overfull, "f1")  # C_f1({w1,w5}) = {w1}


def test_blocked_by_worker_goldens(example1, example2):
    m1, named1 = example1
    for w in m1.worker_ids:
        assert not blocked_by_worker(m1, named1["mu_over"], w)
    # w2 finds only f3, f2 acceptable
    assert blocked_by_worker(m1, Matching([("f5", "w2")]), "w2")
    with pytest.raises(UnknownAgent):
        blocked_by_worker(m1, Matching.empty(), "nope")

    m2, _ = example2
    assert not blocked_by_worker(m2, Matching([("f2", "w2")]), "w2")
    assert blocked_by_worker(m2, Matching([("f1", "w2"), ("f2", "w2")]), "w2")


def test_individually_rational_goldens(example1):
    m, named = example1
    assert is_individually_rational(m, named["mu_under"])
    assert is_individually_rational(m, Matching.empty())
    assert is_individually_rational(m, named["mu_boxed"])


def test_two_jobs_in_many_to_one_answer_false(example1):
    """Not a matching of the market, but the predicates answer from the choices."""
    m, _ = example1
    two_jobs = Matching([("f1", "w1"), ("f2", "w1")])
    assert blocked_by_worker(m, two_jobs, "w1")
    assert not is_individually_rational(m, two_jobs)
    assert not is_stable(m, two_jobs)
    assert not is_worker_quasi_stable(m, two_jobs)
    assert not is_firm_quasi_stable(m, two_jobs)


# -- pair blocking and stability -------------------------------------------------


def test_blocking_pairs_goldens(example1, example2):
    m1, named1 = example1
    assert [(p.firm, p.worker) for p in blocking_pairs(m1, named1["mu_boxed"])] == [("f3", "w1")]
    assert [(p.firm, p.worker) for p in blocking_pairs(m1, named1["mu_circled"])] == [("f1", "w5")]
    m2, named2 = example2
    pairs2 = {(p.firm, p.worker) for p in blocking_pairs(m2, named2["mu_circled"])}
    assert ("f2", "w2") in pairs2
    assert [(p.firm, p.worker) for p in blocking_pairs(m2, named2["mu_boxed"])] == [("f1", "w1")]


def test_blocking_pairs_sorted_and_duplicate_free(example1):
    m, named = example1
    pairs = blocking_pairs(m, Matching.empty())
    keys = [(p.firm, p.worker) for p in pairs]
    assert keys == sorted(set(keys), key=lambda t: (t[0], t[1]))


def test_is_stable_goldens(example1, example2):
    m1, named1 = example1
    assert is_stable(m1, named1["mu_star"])
    assert is_stable(m1, named1["mu_dagger"])
    assert not is_stable(m1, named1["mu_boxed"])
    m2, named2 = example2
    assert is_stable(m2, named2["mu_star"])
    assert is_stable(m2, named2["mu_under"]) and is_stable(m2, named2["mu_over"])


def test_is_stable_reads_outside_agents_only_through_held_sets(example1):
    """An agent outside the market raises once a market agent holds it, and is unseen otherwise."""
    m, named = example1
    star = named["mu_star"].edges
    for edge in (("f9", "w1"), ("f1", "w9")):
        with pytest.raises(UnknownAgent):
            is_stable(m, Matching(star | {edge}))
    assert is_stable(m, Matching(star | {("f9", "w9")}))


# -- willing-partner sets --------------------------------------------------------


def test_F_set_goldens(example1):
    m, named = example1
    assert F_set_of_worker(m, named["mu_boxed"], "w1") == {"f3"}
    # every stable matching keeps current employers in the F set
    for name in ("mu_under", "mu_over", "mu_star", "mu_dagger"):
        mu = named[name]
        for w in m.worker_ids:
            assert mu.of_worker(w) <= F_set_of_worker(m, mu, w)
    assert F_set_of_worker(m, Matching.empty(), "w4") == {"f1", "f4"}


def test_W_set_goldens(example1):
    m, named = example1
    for name in ("mu_under", "mu_star"):
        mu = named[name]
        for f in m.firm_ids:
            assert mu.of_firm(f) <= W_set_of_firm(m, mu, f)
    assert W_set_of_firm(m, named["mu_circled"], "f1") == {"w5"}
    # empty matching: all workers that find the firm acceptable
    assert W_set_of_firm(m, Matching.empty(), "f1") == {"w1", "w4", "w5"}


def test_W_set_forms_coincide_on_ir_matchings():
    spec = RandomMarketSpec(variant="many_to_one", n_firms=3, n_workers=3)
    for seed in range(25):
        m = random_market(seed, spec)
        sub = _as_substitutable(m)
        for mu in enumerate_matchings(m):
            if not is_individually_rational(m, mu):
                continue
            for f in m.firm_ids:
                assert W_set_of_firm(m, mu, f) == W_set_of_firm(sub, mu, f)


# -- quasi-stability ---------------------------------------------------------------


def test_quasi_stability_goldens(example1, example2):
    m1, named1 = example1
    assert is_worker_quasi_stable(m1, named1["mu_boxed"])
    assert is_worker_quasi_stable(m1, Matching.empty())
    assert is_firm_quasi_stable(m1, Matching.empty())
    assert is_firm_quasi_stable(m1, named1["mu_circled"])
    assert not is_firm_quasi_stable(m1, named1["mu_boxed"])
    assert not is_worker_quasi_stable(m1, named1["mu_circled"])
    m2, named2 = example2
    assert is_worker_quasi_stable(m2, named2["mu_boxed"])
    assert not is_stable(m2, named2["mu_boxed"])


def test_empty_holdings_survive_at_any_cap():
    spec = RandomMarketSpec("many_to_one", 40, 40, firm_kind="set_list", density=0.5)
    m = random_market(3, spec)
    for cap in (0, 14):
        assert is_firm_quasi_stable(m, Matching.empty(), cap=cap)
        assert is_worker_quasi_stable(m, Matching.empty(), cap=cap)


def test_stable_set_inside_both_quasi_stable_sets(example1):
    m, named = example1
    for name in ("mu_under", "mu_over", "mu_star", "mu_dagger"):
        assert is_worker_quasi_stable(m, named[name])
        assert is_firm_quasi_stable(m, named[name])


def test_quasi_stability_shortcut_agrees_with_exhaustive():
    for variant in ("many_to_many_sub", "many_to_many_responsive"):
        spec = RandomMarketSpec(variant=variant, n_firms=3, n_workers=3, firm_kind="mixed")
        for seed in range(15):
            m = random_market(seed, spec)
            for mu in enumerate_matchings(m, ir_workers_only=True):
                assert is_worker_quasi_stable(m, mu) == is_worker_quasi_stable(
                    m, mu, assume_substitutable=True
                )
                assert is_firm_quasi_stable(m, mu) == is_firm_quasi_stable(
                    m, mu, assume_substitutable=True
                )


def _as_substitutable(m: Market) -> Market:
    """The same many-to-one market expressed with explicit worker choices."""
    assert m.variant == "many_to_one"
    return Market(
        "many_to_many_sub",
        {f: m.firm_choice(f) for f in m.firm_ids},
        worker_choices={
            w: QuotaLinearChoice(m.worker_pref(w).order, 1, ground=m.firm_ids)
            for w in m.worker_ids
        },
    )


def test_many_to_one_dispatch_matches_general_engine():
    """The definitional many-to-one forms agree with the choice-based engine."""
    spec = RandomMarketSpec(variant="many_to_one", n_firms=3, n_workers=3, firm_kind="mixed")
    for seed in range(25):
        m = random_market(seed, spec)
        sub = _as_substitutable(m)
        for mu in enumerate_matchings(m):
            ir = is_individually_rational(m, mu)
            assert ir == is_individually_rational(sub, mu)
            if not ir:
                continue
            assert is_stable(m, mu) == is_stable(sub, mu)
            assert is_worker_quasi_stable(m, mu) == is_worker_quasi_stable(sub, mu)
            assert is_firm_quasi_stable(m, mu) == is_firm_quasi_stable(sub, mu)
            mine = {(p.firm, p.worker) for p in blocking_pairs(m, mu)}
            general = {(p.firm, p.worker) for p in blocking_pairs(sub, mu)}
            assert mine == general


def test_blocking_reasons_by_variant(example1):
    m1, named1 = example1
    assert BlockingPair("f3", "w1", "worker_prefers") in blocking_pairs(m1, named1["mu_boxed"])
    m = Market(
        "many_to_many_responsive",
        {"f1": QuotaLinearChoice(["w1"], 1), "f2": QuotaLinearChoice(["w1"], 1)},
        worker_prefs={"w1": LinearPref(("f1", "f2"))},
        worker_quotas={"w1": 2},
    )
    assert BlockingPair("f1", "w1", "vacancy") in blocking_pairs(m, Matching.empty())
    m_q1 = Market(
        "many_to_many_responsive",
        {"f1": QuotaLinearChoice(["w1"], 1), "f2": QuotaLinearChoice(["w1"], 1)},
        worker_prefs={"w1": LinearPref(("f1", "f2"))},
        worker_quotas={"w1": 1},
    )
    assert BlockingPair("f1", "w1", "swap") in blocking_pairs(m_q1, Matching([("f2", "w1")]))


# -- orders -------------------------------------------------------------------------


def test_blair_firm_order_goldens(example1):
    m, named = example1
    for name in ("mu_under", "mu_star"):
        assert blair_geq_firms(m, named[name], named[name])
    assert blair_geq_firms(m, named["mu_star"], named["mu_under"])
    assert not blair_geq_firms(m, named["mu_under"], named["mu_over"])
    assert not blair_geq_firms(m, named["mu_over"], named["mu_under"])


def test_unanimous_worker_order_goldens(example1):
    m, named = example1
    assert unanimous_geq_workers(m, named["mu_under"], named["mu_under"])
    assert unanimous_geq_workers(m, named["mu_dagger"], named["mu_under"])
    assert not unanimous_geq_workers(m, named["mu_under"], named["mu_over"])


def test_unanimous_rejected_outside_many_to_one(example2):
    m, _ = example2
    with pytest.raises(SchemaError):
        unanimous_geq_workers(m, Matching.empty(), Matching.empty())


def test_blair_workers_equals_unanimous_on_ir_matchings():
    spec = RandomMarketSpec(variant="many_to_one", n_firms=3, n_workers=3)
    for seed in range(25):
        m = random_market(seed, spec)
        matchings = [
            mu for mu in enumerate_matchings(m) if is_individually_rational(m, mu)
        ]
        for a in matchings:
            for b in matchings:
                assert blair_geq_workers(m, a, b) == unanimous_geq_workers(m, a, b)


def test_worker_order_is_blair_on_unacceptable_holdings(example1):
    m, _ = example1
    # w2 finds only f3, f2 acceptable: her choice drops f5 and f4
    for mu, mu2 in (
        (Matching([("f5", "w2")]), Matching([("f5", "w2")])),
        (Matching([("f4", "w2")]), Matching([("f5", "w2")])),
    ):
        assert unanimous_geq_workers(m, mu, mu2)
        assert not worker_order_geq(m, mu, mu2)
        assert worker_order_geq(m, mu, mu2) == blair_geq_workers(m, mu, mu2)


def test_order_axioms_on_stable_set(example1):
    from matchlattice import enumerate_stable

    m, _ = example1
    stable = enumerate_stable(m)
    for a in stable:
        assert blair_geq_firms(m, a, a)
        for b in stable:
            if blair_geq_firms(m, a, b) and blair_geq_firms(m, b, a):
                assert a == b
            # duality: firm order reverses the worker order
            assert blair_geq_firms(m, a, b) == worker_order_geq(m, b, a)
            for c in stable:
                if blair_geq_firms(m, a, b) and blair_geq_firms(m, b, c):
                    assert blair_geq_firms(m, a, c)


def test_lema_blair_invariants():
    """Willing-firm sets grow as assignments shrink, and contain current jobs."""
    spec = RandomMarketSpec(variant="many_to_many_sub", n_firms=3, n_workers=3, firm_kind="mixed")
    for seed in range(20):
        m = random_market(seed, spec)
        rationals = [
            mu
            for mu in enumerate_matchings(m, ir_workers_only=True)
            if not any(blocked_by_firm(m, mu, f) for f in m.firm_ids)
        ]
        for mu in rationals[:40]:
            for w in m.worker_ids:
                assert mu.of_worker(w) <= F_set_of_worker(m, mu, w)
        for mu in rationals[:12]:
            for nu in rationals[:12]:
                pooled = lambda_join(m, mu, nu, check=False)
                for w in m.worker_ids:
                    assert F_set_of_worker(m, pooled, w) <= F_set_of_worker(m, mu, w)
