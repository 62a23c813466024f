"""Choice function semantics, axiom validators, market schema."""

import copy
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlattice import (
    CapExceeded,
    EnumerationBudget,
    LinearPref,
    Market,
    QuotaLinearChoice,
    RandomMarketSpec,
    ReferentialIntegrity,
    SchemaError,
    SetListChoice,
    UnknownAgent,
    build_related_market,
    enumerate_stable,
    extremal_stable,
    is_firm_quasi_stable,
    is_worker_quasi_stable,
    lifted_join_firms,
    random_market,
    stable_join_firms,
    stable_meet_firms,
    validate_consistent,
    validate_market,
    validate_path_independent,
    validate_substitutable,
    verify_lattice,
)
from matchlattice.market import ChoiceFunction, _path_independence_search, agent_key, sort_agents
from matchlattice.replica import QExtensionChoice, ReplicaMap

from axiom_oracles import (
    brute_consistent,
    brute_path_independent,
    brute_substitutable,
    first_consistency_violation,
    first_path_independence_pair,
    first_substitutable_violation,
    powerset,
)
from conftest import bundle_market


# -- choose ------------------------------------------------------------------


def test_choose_table_footnote_values(example1):
    m, _ = example1
    everyone = frozenset(m.worker_ids)
    assert m.firm_choice("f1").choose(everyone) == {"w4"}
    assert m.firm_choice("f4").choose({"w1", "w2", "w3", "w4", "w6"}) == {"w4", "w6"}


def test_choose_empty_offer_is_empty(example1):
    m, _ = example1
    for f in m.firm_ids:
        assert m.firm_choice(f).choose(frozenset()) == frozenset()


def test_choose_unknown_agent():
    c = SetListChoice([["a"]], ground={"a", "b"})
    with pytest.raises(UnknownAgent):
        c.choose({"a", "zzz"})


def test_set_list_rejects_duplicates_and_empty_entries():
    with pytest.raises(SchemaError):
        SetListChoice([["a"], ["a"]])
    with pytest.raises(SchemaError):
        SetListChoice([[]])


small_ids = st.lists(st.sampled_from(["a", "b", "c", "d"]), unique=True)


@st.composite
def set_list_choices(draw):
    ground = ["a", "b", "c", "d"]
    n = draw(st.integers(0, 5))
    seen, entries = set(), []
    for _ in range(n):
        entry = frozenset(draw(st.sets(st.sampled_from(ground), min_size=1, max_size=4)))
        if entry not in seen:
            seen.add(entry)
            entries.append(entry)
    return SetListChoice(entries, ground=ground)


@given(set_list_choices(), st.sets(st.sampled_from(["a", "b", "c", "d"])))
@settings(deadline=None)
def test_choice_axioms_hold_for_any_set_list(c, offered):
    chosen = c.choose(offered)
    assert chosen <= frozenset(offered)
    assert c.choose(chosen) == chosen  # idempotent


@given(small_ids, st.integers(1, 3), st.sets(st.sampled_from(["a", "b", "c", "d"])))
@settings(deadline=None)
def test_quota_linear_respects_quota(order, quota, offered):
    c = QuotaLinearChoice(order, quota, ground=["a", "b", "c", "d"])
    chosen = c.choose(offered)
    assert len(chosen) <= quota
    assert chosen <= frozenset(order) & frozenset(offered)


@given(small_ids, st.integers(1, 3))
@settings(deadline=None, max_examples=40)
def test_quota_linear_passes_all_validators(order, quota):
    c = QuotaLinearChoice(order, quota, ground=["a", "b", "c", "d"])
    assert validate_substitutable(c).ok
    assert validate_consistent(c).ok
    assert validate_path_independent(c).ok


@given(set_list_choices())
@settings(deadline=None, max_examples=150)
def test_validators_agree_with_brute_force(c):
    assert validate_substitutable(c).ok == brute_substitutable(c)
    assert validate_consistent(c).ok == brute_consistent(c)
    assert validate_path_independent(c).ok == brute_path_independent(c)


@given(set_list_choices())
@settings(deadline=None, max_examples=150)
def test_path_independence_iff_substitutable_and_consistent(c):
    assert validate_path_independent(c).ok == (
        validate_substitutable(c).ok and validate_consistent(c).ok
    )


# The public verdict is decided from the contraction and single-removal
# checks; the direct search over all pairs is the independent reference, so
# the two must agree report for report, witness included.


class TableChoice(ChoiceFunction):
    """A choice read off an explicit table; it need not pick from the offer."""

    def __init__(self, ground, table):
        super().__init__(ground)
        self.table = table

    def _choose(self, s):
        return self.table[s]

    @property
    def list_length(self):
        return 1


def outcome(fn, *args):
    """The report as JSON, or the type of the exception raised."""
    try:
        return fn(*args).to_json()
    except Exception as e:  # compared against the reference's raise
        return type(e)


def assert_pi_matches_direct_search(c):
    assert outcome(validate_path_independent, c) == outcome(_path_independence_search, c)


@st.composite
def table_choices(draw):
    """Arbitrary tables: contracting ones, or ones that may pick anything.

    Non-contracting tables may name ``z``, which is outside the ground set.
    """
    ground = ["a", "b", "c"]
    contracting = draw(st.booleans())
    table = {}
    for s in powerset(ground):
        pool = sorted(s) if contracting else ground + ["z"]
        table[s] = frozenset(draw(st.sets(st.sampled_from(pool)))) if pool else frozenset()
    return TableChoice(ground, table)


@st.composite
def q_extension_choices(draw):
    workers = ["a", "b", "c"]
    if draw(st.booleans()):
        order = draw(st.permutations(workers))
        base = QuotaLinearChoice(order[: draw(st.integers(0, 3))], draw(st.integers(1, 2)), ground=workers)
    else:
        entries = draw(
            st.lists(st.frozensets(st.sampled_from(workers), min_size=1), unique=True, max_size=4)
        )
        base = SetListChoice(entries, ground=workers)
    quotas = {w: draw(st.integers(1, 2)) for w in workers}
    return QExtensionChoice(base, ReplicaMap.build(workers, quotas))


@given(set_list_choices())
@settings(deadline=None, max_examples=150)
def test_path_independence_equals_direct_search_on_set_lists(c):
    assert_pi_matches_direct_search(c)


@given(small_ids, st.integers(1, 3))
@settings(deadline=None, max_examples=40)
def test_path_independence_equals_direct_search_on_quota_linear(order, quota):
    assert_pi_matches_direct_search(QuotaLinearChoice(order, quota, ground=["a", "b", "c", "d"]))


@given(q_extension_choices())
@settings(deadline=None, max_examples=40)
def test_path_independence_equals_direct_search_on_q_extensions(c):
    assert_pi_matches_direct_search(c)


@given(table_choices())
@settings(deadline=None, max_examples=200)
def test_path_independence_equals_direct_search_on_tables(c):
    assert_pi_matches_direct_search(c)


def test_path_independence_needs_the_contraction_check():
    # substitutable and consistent, but C({b}) = {a,b} reaches outside {b}
    ground = ["a", "b"]
    table = {
        frozenset(): frozenset(),
        frozenset("a"): frozenset("a"),
        frozenset("b"): frozenset("ab"),
        frozenset("ab"): frozenset("a"),
    }
    c = TableChoice(ground, table)
    assert validate_substitutable(c).ok and validate_consistent(c).ok
    assert not brute_path_independent(c)
    assert_pi_matches_direct_search(c)
    # choosing the whole ground set every time is path independent all the same
    everything = TableChoice(ground, {s: frozenset(ground) for s in table})
    assert brute_path_independent(everything)
    assert validate_path_independent(everything).ok


def test_path_independence_witnesses_on_violator_battery():
    expected = [
        (["a"], ["b"], "C(S u S') = {a,b} but C(C(S) u S') = {}"),
        (["b"], ["a"], "C(S u S') = {a,b} but C(C(S) u S') = {a}"),
        (["c"], ["b"], "C(S u S') = {b,c} but C(C(S) u S') = {b}"),
    ]
    violators = [
        SetListChoice([["a", "b"], ["c"]], ground=["a", "b", "c"]),
        SetListChoice([["a", "b"], ["a"]], ground=["a", "b"]),
        SetListChoice([["a", "b"], ["b", "c"], ["a"], ["b"]], ground=["a", "b", "c"]),
    ]
    for v, (s, s_prime, detail) in zip(violators, expected):
        report = validate_path_independent(v).to_json()
        assert report == {
            "axiom": "path_independent",
            "ok": False,
            "violation": {
                "axiom": "path_independent",
                "S": s,
                "S_prime": s_prime,
                "agent": None,
                "detail": detail,
            },
        }
        assert report == _path_independence_search(v).to_json()


def test_path_independence_cap_is_the_only_cap():
    # 15 elements exceed SUBSET_CAP; the checks behind the verdict must not
    # raise where the direct search, given this cap, would not
    c = QuotaLinearChoice([f"x{i}" for i in range(15)], 2)
    assert validate_path_independent(c, cap=15).ok


def test_nested_pair_list_verdict_matches_brute_force():
    # C({a,b}) = {a,b} yet C({b}) drops b, so the pair-then-singleton list
    # fails substitutability; alongside the full singleton decomposition it
    # passes.
    c = SetListChoice([["a", "b"], ["a"]], ground=["a", "b"])
    assert not brute_substitutable(c)
    report = validate_substitutable(c)
    assert not report.ok
    v = report.violation
    assert not c.choose(v.offered) & v.suboffer <= c.choose(v.suboffer)
    completed = SetListChoice([["a", "b"], ["a"], ["b"]], ground=["a", "b"])
    assert brute_substitutable(completed)
    assert validate_substitutable(completed).ok


def test_disjoint_pair_list_verdict_matches_brute_force():
    c = SetListChoice([["a", "b"], ["c"]], ground=["a", "b", "c"])
    assert not brute_substitutable(c)
    report = validate_substitutable(c)
    assert not report.ok
    # the reported witness is a genuine violation of the definition
    v = report.violation
    assert v.suboffer <= v.offered
    assert not c.choose(v.offered) & v.suboffer <= c.choose(v.suboffer)
    assert v.agent in c.choose(v.offered) - c.choose(v.suboffer)


@given(set_list_choices())
@settings(deadline=None, max_examples=100)
def test_first_fit_set_lists_are_consistent_by_construction(c):
    # entries fitting a subset also fit the superset, and the chosen entry
    # stays inside every in-between offer, so first-fit cannot flip
    assert brute_consistent(c)


def test_consistency_violation_witness():
    from matchlattice.market import ChoiceFunction

    class FlipChoice(ChoiceFunction):
        # keeps a out of {a,b} but refuses a alone: inconsistent
        def _choose(self, s):
            return frozenset({"a"}) if s == {"a", "b"} else frozenset()

        @property
        def list_length(self):
            return 1

    c = FlipChoice({"a", "b"})
    assert not brute_consistent(c)
    report = validate_consistent(c)
    assert not report.ok
    v = report.violation
    assert c.choose(v.offered) <= v.suboffer <= v.offered
    assert c.choose(v.suboffer) != c.choose(v.offered)


def test_validation_cap():
    big = [f"x{i}" for i in range(15)]
    c = QuotaLinearChoice(big, 2)
    with pytest.raises(CapExceeded):
        validate_substitutable(c)
    with pytest.raises(CapExceeded):
        validate_path_independent(QuotaLinearChoice([f"x{i}" for i in range(11)], 1))


def test_example_markets_pass_all_validators(example1, example2):
    for m in (example1[0], example2[0]):
        report = validate_market(m)
        assert report.ok, report.to_json()
        for agent, reports in report.agents.items():
            assert all(r.ok for r in reports), agent
        assert not report.notes


def test_example_choice_functions_brute_checked(example1, example2):
    for m in (example1[0], example2[0]):
        for f in m.firm_ids:
            assert brute_substitutable(m.firm_choice(f)), f
            assert brute_consistent(m.firm_choice(f)), f


# -- supports -----------------------------------------------------------------
#
# The validators search the subsets of a choice's support.  A wrapper that
# chooses the same way but names no support makes them search the whole
# ground set, which must give the same reports, witnesses included.

WIDE = ["a", "b", "c", "d", "e", "f"]
NONSUBSTITUTABLE = Path(__file__).parent / "golden" / "nonsubstitutable_market.json"


class FullSearch(ChoiceFunction):
    """Chooses like ``inner``, with the default support: the ground set."""

    def __init__(self, inner):
        super().__init__(inner.ground)
        self.inner = inner

    def _choose(self, s):
        return self.inner.choose(s)


@st.composite
def narrow_choices(draw):
    """Set lists (any entries, empty lists too) and quota-1..3 orders over part of WIDE."""
    pool = draw(st.lists(st.sampled_from(WIDE), unique=True, max_size=5))
    if pool and draw(st.booleans()):
        entry = st.frozensets(st.sampled_from(pool), min_size=1)
        return SetListChoice(draw(st.lists(entry, unique=True, max_size=5)), ground=WIDE)
    return QuotaLinearChoice(pool, draw(st.integers(1, 3)), ground=WIDE)


@given(narrow_choices(), st.sets(st.sampled_from(WIDE)))
@settings(deadline=None, max_examples=300)
def test_choice_picks_through_its_support(c, offered):
    offered = frozenset(offered)
    assert c.support <= c.ground
    assert c.choose(offered) == c.choose(offered & c.support)
    assert c.choose(offered) <= c.support


@given(narrow_choices())
@settings(deadline=None, max_examples=200)
def test_validators_over_the_support_equal_the_full_search(c):
    full = FullSearch(c)
    assert full.support == c.ground
    for validate in (validate_substitutable, validate_consistent, validate_path_independent):
        assert validate(c).to_json() == validate(full).to_json()


@pytest.mark.parametrize(
    "entries",
    [[["b", "d"], ["e"]], [["f", "b"], ["b"]], [["e", "c"], ["c", "a"], ["e"], ["c"]], [], [["d"], ["f"]]],
)
def test_set_list_witnesses_over_a_wide_ground(entries):
    c = SetListChoice(entries, ground=WIDE)
    validators = (validate_substitutable, validate_consistent, validate_path_independent)
    reports = [validate(c) for validate in validators]
    assert [r.to_json() for r in reports] == [validate(FullSearch(c)).to_json() for validate in validators]
    assert reports[0].ok == brute_substitutable(c)
    if not reports[0].ok:
        assert reports[0].violation.offered <= c.support


def test_choices_without_a_list_search_their_ground_set():
    table = TableChoice(["a", "b"], {s: s for s in powerset(["a", "b"])})
    assert table.support == table.ground
    base = SetListChoice([["a"]], ground=["a", "b", "c"])
    lifted = QExtensionChoice(base, ReplicaMap.build(["a", "b", "c"], {"a": 2, "b": 1, "c": 1}))
    assert lifted.support == lifted.ground


def test_market_choices_keep_their_support(example1):
    m = Market.from_json(json.loads(NONSUBSTITUTABLE.read_text()))
    assert m.firm_choice("f1").support == {"w2", "w4", "w5"} < m.firm_choice("f1").ground
    assert m.firm_choice("f2").support == {"w2", "w4"}
    assert m.firm_choice("f3").support == frozenset()
    assert m.worker_choice("w1").support == {"f1", "f2", "f3"} == m.worker_choice("w1").ground
    m1, _ = example1
    for w in m1.worker_ids:
        assert m1.worker_choice(w).support == set(m1.worker_pref(w).order)


def test_max_list_length_is_the_longest_list(example1, example2):
    for m in (example1[0], example2[0]):
        choices = [*map(m.firm_choice, m.firm_ids), *map(m.worker_choice, m.worker_ids)]
        assert m.max_list_length == max(c.list_length for c in choices)
    assert FullSearch(SetListChoice([["a"]], ground=WIDE)).list_length == len(WIDE)


# -- one pass, three axioms ----------------------------------------------------
#
# One walk over the support decides substitutability, consistency and the
# contraction check behind path independence.  Each report must equal the
# first witness of a separate loop per axiom over the whole ground set.


def _random_axiom_choice(rng: random.Random, kind: int) -> ChoiceFunction:
    """A set list, quota-linear choice or table; tables need not contract."""
    ground = ["a", "b", "c", "d"] if kind < 2 else ["a", "b", "c"]
    if kind == 0:  # a set list over part of the ground
        pool = rng.sample(ground, rng.randint(1, 3))
        subsets = powerset(pool)[1:]
        return SetListChoice(rng.sample(subsets, rng.randint(0, min(4, len(subsets)))), ground=ground)
    if kind == 1:
        order = rng.sample(ground, rng.randint(0, len(ground)))
        return QuotaLinearChoice(order, rng.randint(1, 3), ground=ground)
    if kind == 2:  # any contracting table
        return TableChoice(ground, {s: frozenset(x for x in s if rng.random() < 0.5) for s in powerset(ground)})
    if kind == 3:  # any table, naming z outside the ground too
        outside = [*ground, "z"]
        return TableChoice(ground, {s: frozenset(x for x in outside if rng.random() < 0.4) for s in powerset(ground)})
    # substitutable and consistent, reaching outside the offer at one subset only
    table = {s: s for s in powerset(ground)}
    padded = rng.choice(list(table))
    table[padded] = padded | {rng.choice([x for x in [*ground, "z"] if x not in padded])}
    return TableChoice(ground, table)


def _parity_choice(n: int) -> TableChoice:
    """Keeps the ids whose number has the parity of the offer's size."""
    ground = [f"a{i}" for i in range(1, n + 1)]
    return TableChoice(
        ground, {s: frozenset(a for a in s if int(a[1:]) % 2 == len(s) % 2) for s in powerset(ground)}
    )


def test_one_pass_reports_equal_the_per_axiom_searches():
    rng = random.Random(18)
    choices = [_random_axiom_choice(rng, i % 5) for i in range(1200)]
    choices += [_parity_choice(n) for n in range(6)]
    verdicts = Counter()
    for c in choices:
        row = []
        for validate, reference in (
            (validate_substitutable, first_substitutable_violation),
            (validate_consistent, first_consistency_violation),
            (validate_path_independent, first_path_independence_pair),
        ):
            got = outcome(validate, c)
            assert got == outcome(reference, c), c
            row.append(got is not UnknownAgent and got["ok"])
        verdicts[tuple(row)] += 1
    # Both kinds of witness a shared pass could miss turn up often: a
    # consistency violation after a substitutability one, and substitutable,
    # consistent choices that fail path independence by not contracting.
    assert verdicts[False, False, False] > 100 and verdicts[True, True, False] > 100


# -- LinearPref ---------------------------------------------------------------


def test_linear_pref_basics():
    p = LinearPref(("f2", "f1", "f3"))
    assert p.prefers("f2", "f1") and p.prefers("f1", "f3")
    assert p.prefers("f3", None)  # acceptable beats unmatched
    assert p.prefers(None, "f9")  # unmatched beats unacceptable
    assert p.weakly_prefers("f1", "f1")
    assert p.best(["f1", "f3"]) == "f1"
    assert p.best(["f9"]) is None
    assert p.best([]) is None
    assert p.is_acceptable("f2") and not p.is_acceptable("f9")


def test_agent_natural_sort():
    assert sort_agents(["w10", "w2", "w1"]) == ["w1", "w2", "w10"]
    assert sort_agents(["w1#2", "w1#10", "w1#1"]) == ["w1#1", "w1#2", "w1#10"]
    assert agent_key("w2") < agent_key("w10")


# -- market construction and schema --------------------------------------------


def test_market_referential_integrity():
    with pytest.raises(ReferentialIntegrity):
        Market(
            "many_to_one",
            {"f1": SetListChoice([["ghost"]])},
            worker_prefs={"w1": LinearPref(("f1",))},
        )
    with pytest.raises(ReferentialIntegrity):
        Market(
            "many_to_one",
            {"f1": SetListChoice([["w1"]])},
            worker_prefs={"w1": LinearPref(("f1", "f9"))},
        )


def test_validate_market_reports_referential_failure():
    raw = {
        "variant": "many_to_one",
        "firms": {"f1": {"kind": "set_list", "list": [["ghost"]]}},
        "workers": {"w1": {"kind": "linear", "order": ["f1"]}},
    }
    report = validate_market(raw)
    assert not report.ok
    assert report.referential


@pytest.mark.parametrize(
    "raw, message",
    [
        (
            {"variant": "nope", "firms": {}, "workers": {}},
            "variant must be one of ('many_to_one', 'many_to_many_responsive', 'many_to_many_sub'), got 'nope'",
        ),
        ({"variant": "many_to_one", "firms": {}, "workers": 3}, "'firms' and 'workers' must be objects"),
    ],
    ids=["unknown_variant", "workers_not_an_object"],
)
def test_validate_market_raises_schema_errors_on_raw_json(raw, message):
    """Only referential problems become report entries; a malformed schema raises as ``from_json`` does."""
    with pytest.raises(SchemaError) as caught:
        validate_market(raw)
    assert type(caught.value) is SchemaError
    assert str(caught.value) == message


def test_market_json_round_trip(example1, example2):
    for m in (example1[0], example2[0]):
        again = Market.from_json(m.to_json())
        assert again.to_json() == m.to_json()
        assert again.firm_ids == m.firm_ids and again.worker_ids == m.worker_ids


def test_schema_rejections():
    with pytest.raises(SchemaError):
        Market.from_json({"variant": "nope", "firms": {}, "workers": {}})
    with pytest.raises(SchemaError):
        Market.from_json({"variant": "many_to_one", "firms": {}, "workers": 3})
    with pytest.raises(SchemaError):
        Market.from_json(
            {
                "variant": "many_to_one",
                "firms": {"f1": {"kind": "set_list", "list": [["w1"]]}},
                "workers": {"w1": {"kind": "set_list", "list": [["f1"]]}},
            }
        )


@pytest.mark.parametrize("variant", ["many_to_one", "many_to_many_responsive"])
def test_linear_worker_rejects_a_quota(variant):
    """A quota on a 'linear' worker is a misspelt 'linear_quota', not a quota of 1."""
    spec = {
        "variant": variant,
        "firms": {"f1": {"kind": "quota_linear", "order": ["w1"]}},
        "workers": {"w1": {"kind": "linear", "order": ["f1"], "quota": 2}},
    }
    with pytest.raises(SchemaError, match="kind 'linear' takes no 'quota'; use 'linear_quota'"):
        Market.from_json(spec)


_FIRMS = {"f1": QuotaLinearChoice(["w1"])}
_PREFS = {"w1": LinearPref(["f1"])}
_CHOICES = {"w1": QuotaLinearChoice(["f1"])}
_SUB = Market("many_to_many_sub", _FIRMS, worker_choices=_CHOICES)
_ONE = Market("many_to_one", _FIRMS, worker_prefs=_PREFS)
_WORKER_KINDS = "kind must be 'linear', 'linear_quota', 'set_list' or 'quota_linear'"


def _from_json(variant="many_to_one", firm=None, worker=None):
    firm = firm or {"kind": "quota_linear", "order": ["w1"]}
    worker = worker or {"kind": "linear", "order": ["f1"]}
    return lambda: Market.from_json({"variant": variant, "firms": {"f1": firm}, "workers": {"w1": worker}})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SetListChoice([["w1", "w9"]], ground=["w1"]), ReferentialIntegrity,
         "set-list references ids outside the ground set: ['w9']"),
        (lambda: QuotaLinearChoice(["w9", "w1"], ground=["w1"]), ReferentialIntegrity,
         "order references ids outside the ground set: ['w9']"),
        (lambda: QuotaLinearChoice(["w1", "w1"]), SchemaError, "order must not repeat ids"),
        (lambda: LinearPref(["f1", "f1"]), SchemaError, "preference order must not repeat ids"),
        (lambda: QuotaLinearChoice(["w1"], 0), SchemaError, "quota must be >= 1"),
        (lambda: Market("one_to_one", _FIRMS, worker_prefs=_PREFS), SchemaError,
         "unknown market variant 'one_to_one'"),
        (lambda: Market("many_to_one", _FIRMS), SchemaError, "many_to_one markets take worker_prefs only"),
        (lambda: Market("many_to_one", _FIRMS, worker_prefs=_PREFS, worker_choices=_CHOICES), SchemaError,
         "many_to_one markets take worker_prefs only"),
        (lambda: Market("many_to_many_responsive", _FIRMS, worker_prefs=_PREFS), SchemaError,
         "responsive markets take worker_prefs and worker_quotas"),
        (lambda: Market("many_to_many_responsive", _FIRMS, worker_prefs=_PREFS, worker_quotas={"w2": 1}),
         SchemaError, "worker_prefs and worker_quotas must cover the same workers"),
        (lambda: Market("many_to_many_responsive", _FIRMS, worker_prefs=_PREFS, worker_quotas={"w1": 0}),
         SchemaError, "worker w1: quota must be >= 1"),
        (lambda: Market("many_to_many_sub", _FIRMS), SchemaError, "substitutable markets take worker_choices only"),
        (lambda: Market("many_to_many_sub", _FIRMS, worker_prefs=_PREFS, worker_choices=_CHOICES), SchemaError,
         "substitutable markets take worker_choices only"),
        (lambda: Market("many_to_one", {"w1": QuotaLinearChoice([])}, worker_prefs={"w1": LinearPref([])}),
         SchemaError, "firm and worker ids must be disjoint"),
        (lambda: Market("many_to_one", {"f1": SetListChoice([["w1"], ["w9", "w8"]])}, worker_prefs=_PREFS),
         ReferentialIntegrity, "firm f1 references unknown workers: ['w8', 'w9']"),
        (lambda: Market("many_to_many_sub", _FIRMS, worker_choices={"w1": SetListChoice([["f9"]])}),
         ReferentialIntegrity, "worker w1 references unknown firms: ['f9']"),
        (lambda: Market("many_to_one", _FIRMS, worker_prefs={"w1": LinearPref(["f9", "f1", "f10"])}),
         ReferentialIntegrity, "worker w1 references unknown firms: ['f9', 'f10']"),
        (lambda: Market("many_to_many_responsive", _FIRMS, worker_prefs={"w1": LinearPref(["f1", "f9"])},
                        worker_quotas={"w1": 2}),
         ReferentialIntegrity, "worker w1 references unknown firms: ['f9']"),
        (lambda: _SUB.worker_pref("w1"), SchemaError, "substitutable markets have no worker linear orders"),
        (lambda: _ONE.worker_pref("w9"), UnknownAgent, "no worker 'w9' in market"),
        (lambda: _SUB.worker_quota("w1"), SchemaError, "substitutable markets have no worker quotas"),
        (lambda: _SUB.worker_quota("w9"), SchemaError, "substitutable markets have no worker quotas"),
        (lambda: _ONE.worker_quota("w9"), UnknownAgent, "no worker 'w9' in market"),
        (lambda: Market.from_json([]), SchemaError, "market must be a JSON object"),
        (_from_json("one_to_one"), SchemaError,
         "variant must be one of ('many_to_one', 'many_to_many_responsive', 'many_to_many_sub'), got 'one_to_one'"),
        (lambda: Market.from_json({"variant": "many_to_one", "firms": [], "workers": {}}), SchemaError,
         "'firms' and 'workers' must be objects"),
        (_from_json(firm={"kind": "linear"}), SchemaError, "firm f1: kind must be 'set_list' or 'quota_linear'"),
        (_from_json(firm={"kind": "set_list", "list": ["w1"]}), SchemaError,
         "firm f1: 'list' must be a list of id lists"),
        (_from_json(worker=["f1"]), SchemaError, f"worker w1: {_WORKER_KINDS}"),
        (_from_json(worker={"kind": "quota_linear", "order": ["f1"]}), SchemaError,
         "many_to_one workers must all have kind 'linear'"),
        (_from_json("many_to_many_responsive", worker={"kind": "set_list", "list": [["f1"]]}), SchemaError,
         "responsive workers must have kind 'linear_quota' (or 'linear')"),
        (_from_json("many_to_many_sub"), SchemaError,
         "substitutable workers must have kind 'set_list' or 'quota_linear'"),
        (lambda: build_related_market(random_market(1, RandomMarketSpec("many_to_many_responsive"))).market.to_json(),
         SchemaError, "cannot encode a QExtensionChoice in the market schema"),
    ],
)
def test_market_refusals(build, error, message):
    """Each refusal that only outside input reaches: its type and its exact message."""
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize(
    "variant, workers",
    [("many_to_one", {"worker_prefs": _PREFS}), ("many_to_many_sub", {"worker_choices": _CHOICES})],
)
def test_quotas_are_refused_where_the_variant_has_none(variant, workers):
    """A quota would be dropped silently, so it is refused with the variant's message."""
    message = "many_to_one markets take worker_prefs only" if variant == "many_to_one" else (
        "substitutable markets take worker_choices only"
    )
    with pytest.raises(SchemaError, match=f"^{message}$"):
        Market(variant, _FIRMS, worker_quotas={"w1": 3}, **workers)


def test_worker_choice_is_top_quota_of_order(example1):
    m, _ = example1
    c = m.worker_choice("w5")  # order f1 > f5 > f4, quota 1
    assert c.choose({"f4", "f5"}) == {"f5"}
    assert c.choose({"f4", "f5", "f1"}) == {"f1"}
    assert c.choose(frozenset()) == frozenset()
    assert c.choose({"f2", "f3"}) == frozenset()  # unacceptable only


# -- shared state -----------------------------------------------------------------


def _snapshots(markets):
    """Deep copies of ``vars()`` of each market and of every choice function in it.

    Each choice function is copied on its own; inside the other copies it is
    kept by identity, so a swapped choice shows as well as a written one.
    """
    choices = [c for m in markets for c in (*m._firm_choices.values(), *m._worker_choices.values())]
    kept = {id(c): c for c in choices}
    return [copy.deepcopy(vars(x), dict(kept)) for x in (*markets, *choices)]


def test_no_query_writes_to_a_market():
    markets = [bundle_market(name)[0] for name in ("example1", "example2")]
    markets.append(random_market(3, RandomMarketSpec("many_to_many_responsive", 4, 5)))
    rm = build_related_market(markets[-1])
    before = _snapshots([*markets, rm.market])
    budget = EnumerationBudget(max_firms=7, max_workers=10)
    for m in markets:
        assert validate_market(m).ok
        assert enumerate_stable(m, budget)
        assert verify_lattice(m, budget).ok
        top, bottom = (extremal_stable(m, side, budget=budget).matching for side in ("firms", "workers"))
        stable_join_firms(m, top, bottom)
        stable_meet_firms(m, top, bottom)
        assert is_worker_quasi_stable(m, top) and is_firm_quasi_stable(m, bottom)
    assert lifted_join_firms(rm, top, bottom) == top
    assert _snapshots([*markets, rm.market]) == before
