"""Replica construction, the bundling morphism, and lifted lattice operations."""

import pytest

from matchlattice import (
    CapExceeded,
    LinearPref,
    Market,
    Matching,
    NotStable,
    PreimageNotStable,
    QuotaLinearChoice,
    SetListChoice,
    blair_geq_firms,
    blair_geq_firms_q,
    brute_join,
    brute_meet,
    build_related_market,
    enumerate_matchings,
    enumerate_stable,
    lifted_join_firms,
    lifted_join_workers,
    lifted_meet_firms,
    lifted_meet_workers,
    phi,
    phi_inverse_stable,
    phi_preimage,
    q_extended_choose,
    random_market,
    RandomMarketSpec,
    SchemaError,
    UnknownAgent,
    validate_market,
)
from matchlattice.market import ChoiceFunction
from matchlattice.replica import RelatedMarket, ReplicaMap, as_set_list, related_market_to_json


@pytest.fixture(scope="module")
def micro():
    """Two firms, one worker with quota 2 who wants both."""
    m = Market(
        "many_to_many_responsive",
        {
            "f1": QuotaLinearChoice(["w"], 1),
            "f2": QuotaLinearChoice(["w"], 1),
        },
        worker_prefs={"w": LinearPref(("f1", "f2"))},
        worker_quotas={"w": 2},
    )
    return build_related_market(m)


def test_micro_related_market(micro):
    assert micro.market.variant == "many_to_one"
    assert micro.market.worker_ids == ("w#1", "w#2")
    for r in micro.market.worker_ids:
        assert micro.market.worker_pref(r).order == ("f1", "f2")
    assert validate_market(micro.market).ok


def test_micro_phi_and_non_injectivity(micro):
    a = Matching([("f1", "w#1"), ("f2", "w#2")])
    b = Matching([("f1", "w#2"), ("f2", "w#1")])
    bundled = Matching([("f1", "w"), ("f2", "w")])
    assert phi(micro, a) == bundled
    assert phi(micro, b) == bundled  # phi is not injective off the stable set
    assert phi(micro, Matching.empty()) == Matching.empty()


def test_micro_phi_preimage_canonical(micro):
    bundled = Matching([("f1", "w"), ("f2", "w")])
    assert phi_preimage(micro, bundled) == Matching([("f1", "w#1"), ("f2", "w#2")])
    assert phi_preimage(micro, Matching.empty()) == Matching.empty()


def test_q_extension_lowest_index_rules(micro):
    c = micro.market.firm_choice("f1")
    assert c.choose({"w#1", "w#2"}) == {"w#1"}
    assert c.choose({"w#2"}) == {"w#2"}


def test_q_extension_per_worker_lowest_index():
    base = SetListChoice([["a", "b"], ["a"], ["b"]], ground=["a", "b"])
    rmap = ReplicaMap.build(["a", "b"], {"a": 2, "b": 3})
    chosen = q_extended_choose(base, rmap, {"a#2", "b#1", "b#3"})
    assert chosen == {"a#2", "b#1"}


def test_q_extension_projection_identity():
    """pi(Cq(S)) == C(pi(S)) on every replica subset."""
    from itertools import combinations

    base = SetListChoice([["a", "b"], ["a"], ["b"]], ground=["a", "b"])
    rmap = ReplicaMap.build(["a", "b"], {"a": 2, "b": 2})
    replicas = list(rmap.replicas)
    for r in range(len(replicas) + 1):
        for combo in combinations(replicas, r):
            s = frozenset(combo)
            chosen = q_extended_choose(base, rmap, s)
            assert rmap.project(chosen) == base.choose(rmap.project(s))
            assert chosen <= s


def test_quota_one_related_market_is_isomorphic():
    m = random_market(3, RandomMarketSpec(variant="many_to_many_responsive",
                                          n_firms=3, n_workers=3, worker_quota_max=1))
    rm = build_related_market(m)
    assert rm.market.worker_ids == tuple(f"{w}#1" for w in m.worker_ids)
    src_stable = enumerate_stable(m)
    rel_stable = enumerate_stable(rm.market)
    relabeled = {
        Matching([(f, w.split("#")[0]) for f, w in mu.edges] ) for mu in rel_stable
    }
    assert relabeled == set(src_stable)


def test_related_market_size_and_validation():
    m = Market(
        "many_to_many_responsive",
        {"f1": QuotaLinearChoice(["w1", "w2"], 2), "f2": QuotaLinearChoice(["w2", "w1"], 1)},
        worker_prefs={"w1": LinearPref(("f1", "f2")), "w2": LinearPref(("f2", "f1"))},
        worker_quotas={"w1": 2, "w2": 1},
    )
    rm = build_related_market(m)
    assert len(rm.market.worker_ids) == 3
    assert validate_market(rm.market).ok  # q-extensions stay substitutable


def test_rejects_non_responsive_market(example1):
    m, _ = example1
    from matchlattice import SchemaError

    with pytest.raises(SchemaError):
        build_related_market(m)


def seeded_responsive(seed):
    return random_market(
        seed,
        RandomMarketSpec(
            variant="many_to_many_responsive",
            n_firms=3,
            n_workers=3,
            worker_quota_max=2,
            firm_kind="mixed",
        ),
    )


def test_phi_surjective_via_preimage_round_trip():
    for seed in range(8):
        m = seeded_responsive(seed)
        rm = build_related_market(m)
        for nu in enumerate_matchings(m):
            assert phi(rm, phi_preimage(rm, nu)) == nu


def test_stable_sets_in_bijection():
    for seed in range(8):
        m = seeded_responsive(seed)
        rm = build_related_market(m)
        src = enumerate_stable(m)
        rel = enumerate_stable(rm.market)
        image = [phi(rm, mu) for mu in rel]
        assert len(rel) == len(src)
        assert len(set(image)) == len(image)  # injective on the stable set
        assert set(image) == set(src)


def test_phi_acts_as_projection_on_firms():
    for seed in range(5):
        m = seeded_responsive(seed)
        rm = build_related_market(m)
        for nu in enumerate_matchings(m):
            mu = phi_preimage(rm, nu)
            bundled = phi(rm, mu)
            for f in m.firm_ids:
                assert bundled.of_firm(f) == rm.rmap.project(mu.of_firm(f))
                assert (mu.of_firm(f) == frozenset()) == (bundled.of_firm(f) == frozenset())


def test_order_isomorphism_on_stable_pairs():
    for seed in range(8):
        m = seeded_responsive(seed)
        rm = build_related_market(m)
        rel = enumerate_stable(rm.market)
        for a in rel:
            for b in rel:
                assert blair_geq_firms(rm.market, a, b) == blair_geq_firms_q(
                    m, phi(rm, a), phi(rm, b)
                )


def test_phi_inverse_stable_round_trip_and_rejection():
    m = seeded_responsive(1)
    rm = build_related_market(m)
    stable = enumerate_stable(m)
    for nu in stable:
        mu = phi_inverse_stable(rm, nu)
        assert phi(rm, mu) == nu
    non_stable = next(
        nu for nu in enumerate_matchings(m) if nu not in stable
    )
    with pytest.raises(NotStable):
        phi_inverse_stable(rm, non_stable)


def test_phi_inverse_of_stable_empty_matching():
    m = Market(
        "many_to_many_responsive",
        {"f1": QuotaLinearChoice([], 1, ground=["w1"])},
        worker_prefs={"w1": LinearPref(())},
        worker_quotas={"w1": 2},
    )
    rm = build_related_market(m)
    assert enumerate_stable(m) == [Matching.empty()]
    assert phi_inverse_stable(rm, Matching.empty()) == Matching.empty()


def test_micro_market_unique_stable_and_lifted_join(micro):
    stable = enumerate_stable(micro.source)
    assert stable == [Matching([("f1", "w"), ("f2", "w")])]
    assert len(enumerate_stable(micro.market)) == 1
    only = stable[0]
    assert lifted_join_firms(micro, only, only) == only
    assert lifted_meet_firms(micro, only, only) == only


def test_lifted_operations_match_oracle():
    for seed in range(8):
        m = seeded_responsive(seed)
        rm = build_related_market(m)
        stable = enumerate_stable(m)
        for a in stable:
            for b in stable:
                join = lifted_join_firms(rm, a, b)
                meet = lifted_meet_firms(rm, a, b)
                assert join == brute_join(m, "blair_firms", a, b, stable)
                assert meet == brute_meet(m, "blair_firms", a, b, stable)
                assert lifted_join_workers(rm, a, b) == meet
                assert lifted_meet_workers(rm, a, b) == join
                assert join == lifted_join_firms(rm, b, a)
        for a in stable:
            assert lifted_join_firms(rm, a, a) == a


def test_lifted_agrees_with_direct_general_engine():
    """Responsive markets also run on the engine directly; both routes agree."""
    from matchlattice import stable_join_firms, stable_meet_firms

    for seed in range(6):
        m = seeded_responsive(seed)
        rm = build_related_market(m)
        stable = enumerate_stable(m)
        for a in stable:
            for b in stable:
                assert stable_join_firms(m, a, b) == lifted_join_firms(rm, a, b)
                assert stable_meet_firms(m, a, b) == lifted_meet_firms(rm, a, b)


def test_as_set_list_reproduces_lazy_choice():
    from itertools import combinations

    m = seeded_responsive(2)
    rm = build_related_market(m)
    for f in m.firm_ids:
        lazy = rm.market.firm_choice(f)
        materialised = as_set_list(lazy)
        replicas = list(lazy.ground)
        for r in range(len(replicas) + 1):
            for combo in combinations(replicas, r):
                s = frozenset(combo)
                assert materialised.choose(s) == lazy.choose(s)


class _Table(ChoiceFunction):
    """A choice read off an explicit table of the subsets of its ground set."""

    def __init__(self, table):
        super().__init__(frozenset().union(*table))
        self.table = {frozenset(s): frozenset(c) for s, c in table.items()}

    def _choose(self, s):
        return self.table[s]


@pytest.mark.parametrize(
    "choice, error, message",
    [
        (QuotaLinearChoice([f"w{i}" for i in range(15)]), CapExceeded, "cannot materialise over 15 elements (cap 14)"),
        # Each of x, y, z is chosen over the one before it: no set comes first.
        (
            _Table({"": "", "x": "x", "y": "y", "z": "z", "xy": "y", "yz": "z", "xz": "x", "xyz": "x"}),
            SchemaError,
            "choice function is not path independent; no set-list form",
        ),
        # x and y are each chosen alone but neither from both: first fit picks x.
        (
            _Table({"": "", "x": "x", "y": "y", "xy": ""}),
            SchemaError,
            "choice function is not path independent; no set-list form",
        ),
    ],
    ids=["cap", "no-first-set", "first-fit-differs"],
)
def test_as_set_list_refusals(choice, error, message):
    with pytest.raises(error) as caught:
        as_set_list(choice)
    assert str(caught.value) == message


def test_related_market_json_emission():
    m = seeded_responsive(0)
    rm = build_related_market(m)
    obj = related_market_to_json(rm)
    again = Market.from_json(obj)
    assert again.worker_ids == rm.market.worker_ids
    assert validate_market(again).ok
    # identical stable sets under the re-encoded choice functions
    assert set(enumerate_stable(again)) == set(enumerate_stable(rm.market))


# -- refusals of the lifted operations ------------------------------------------

_NOT_STABLE = "phi_inverse_stable requires a stable matching of the source market"
_LIFTED = [lifted_join_firms, lifted_meet_firms, lifted_join_workers, lifted_meet_workers]


@pytest.fixture(scope="module")
def golden_responsive():
    """The hand-built responsive market of the CLI goldens and its one stable matching."""
    import json
    from pathlib import Path

    golden = Path(__file__).parent / "golden"
    m = Market.from_json(json.loads((golden / "responsive_market.json").read_text()))
    nu = Matching.from_json(json.loads((golden / "responsive_stable.json").read_text()))
    assert enumerate_stable(m) == [nu]
    return build_related_market(m), nu


def _with(nu, *edges):
    return Matching([*nu.edges, *edges])


@pytest.mark.parametrize("op", _LIFTED, ids=lambda op: op.__name__)
@pytest.mark.parametrize("position", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize(
    "bad, error, message",
    [
        # A market firm holds a worker outside the market, and a market worker a firm.
        (lambda nu: _with(nu, ("f1", "w9")), UnknownAgent, "offered set contains unknown ids: ['w9']"),
        (lambda nu: _with(nu, ("f9", "w1")), UnknownAgent, "offered set contains unknown ids: ['f9']"),
        (lambda nu: Matching.empty(), NotStable, _NOT_STABLE),
        (lambda nu: Matching(e for e in nu.edges if e != ("f2", "w1")), NotStable, _NOT_STABLE),
        # w4 has quota 1 and would hold f3 and f1.
        (lambda nu: _with(nu, ("f1", "w4")), NotStable, _NOT_STABLE),
    ],
    ids=["foreign-worker", "foreign-firm", "empty", "unstable", "over-quota"],
)
def test_lifted_operations_refuse_bad_inputs(golden_responsive, op, position, bad, error, message):
    """Either input that is not a stable matching of the source market: its type and exact message."""
    rm, nu = golden_responsive
    args = [nu, nu]
    args[position] = bad(nu)
    with pytest.raises(error) as caught:
        op(rm, *args)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("op", _LIFTED, ids=lambda op: op.__name__)
def test_lifted_operations_refuse_an_unstable_preimage(micro, op):
    """A related market that is not its source's replica market: the preimage is not stable there."""
    only = Matching([("f1", "w"), ("f2", "w")])
    # f1 would also take w#2, who prefers f1 to her f2: a blocking pair.
    fake = Market(
        "many_to_one",
        {"f1": QuotaLinearChoice(["w#1", "w#2"], 2), "f2": QuotaLinearChoice(["w#2"], 1)},
        worker_prefs={r: LinearPref(("f1", "f2")) for r in ("w#1", "w#2")},
    )
    rm = RelatedMarket(micro.source, fake, micro.rmap)
    assert op(micro, only, only) == only
    with pytest.raises(PreimageNotStable) as caught:
        op(rm, only, only)
    assert str(caught.value) == (
        "canonical preimage is not stable in the related market; "
        "this indicates a stability bug in the source market"
    )


def test_lifted_operations_equal_direct_ones_at_mid_scale():
    """On 32x32 responsive markets drawn like the benchmark's, both routes agree on the extremes.

    Most such draws have one stable matching; seed 8's extremes differ.
    """
    from matchlattice import extremal_stable, stable_join_firms, stable_meet_firms

    distinct = 0
    for seed in (0, 1, 8):
        spec = RandomMarketSpec("many_to_many_responsive", 32, 32, density=0.5, firm_quota_max=3)
        m = random_market(seed, spec)
        rm = build_related_market(m)
        top = extremal_stable(m, "firms", verify=False).matching
        bottom = extremal_stable(m, "workers", verify=False).matching
        for a, b in [(top, bottom), (bottom, top), (top, top), (bottom, bottom)]:
            assert lifted_join_firms(rm, a, b) == stable_join_firms(m, a, b)
            assert lifted_meet_firms(rm, a, b) == stable_meet_firms(m, a, b)
        distinct += top != bottom
    assert distinct == 1
