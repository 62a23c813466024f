"""Matchings built from one side's rows equal matchings built from their edges,
and the side tables the hot paths iterate are in id order.

The operators build each result from the rows they chose, and a matching
built from edges groups them into firm rows first, so the two views may
iterate in different orders; nothing observable may tell the two apart.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlattice import (
    LinearPref,
    Market,
    Matching,
    QuotaLinearChoice,
    RandomMarketSpec,
    SchemaError,
    SetListChoice,
    build_related_market,
    random_market,
)
from matchlattice.cli import load_bundle
from matchlattice.matching import _agents
from matchlattice.tarski import _from_rows

from conftest import bundle_market
from test_table_equivalence import example_union

MARKETS = {
    "many_to_one": bundle_market("example1")[0],
    "many_to_many_responsive": random_market(3, RandomMarketSpec("many_to_many_responsive", 4, 5)),
    "many_to_many_sub": bundle_market("example2")[0],
}
OUTSIDERS = {"firms": ["g1", "f99"], "workers": ["z1", "w99"]}
OTHER = {"firms": "workers", "workers": "firms"}


def ids(m, side):
    return list(m.firm_ids if side == "firms" else m.worker_ids)


@st.composite
def rows_case(draw):
    """A market, a side and rows over its ids and outsiders.

    Rows may be empty, and a firm side's rows can put a worker over quota.
    """
    variant = draw(st.sampled_from(sorted(MARKETS)))
    m = MARKETS[variant]
    side = draw(st.sampled_from(["firms", "workers"]))
    return m, side, list(draw(side_rows(m, side)).items())


def side_rows(m, side):
    """``{agent: frozenset}`` over ``side``'s ids and outsiders, rows possibly empty."""
    agents = ids(m, side) + OUTSIDERS[side]
    partners = ids(m, OTHER[side]) + OUTSIDERS[OTHER[side]]
    return st.dictionaries(st.sampled_from(agents), st.frozensets(st.sampled_from(partners), max_size=4))


def edges_of(side, rows):
    return [(a, b) if side == "firms" else (b, a) for a, bs in rows for b in bs]


def schema_error(mu, m):
    try:
        mu.validate_for(m)
    except SchemaError as e:
        return str(e)
    return None


def observed(mu, m):
    """Everything a caller can read off a matching, in a comparable form."""
    firms = ids(m, "firms") + OUTSIDERS["firms"]
    workers = ids(m, "workers") + OUTSIDERS["workers"]
    return (
        mu.edges,
        hash(mu),
        repr(mu),
        mu.to_json(),
        len(mu),
        [mu.of_firm(f) for f in firms],
        [mu.of_worker(w) for w in workers],
    )


@settings(max_examples=200, deadline=None)
@given(rows_case())
def test_rows_build_the_matching_their_edges_build(case):
    m, side, rows = case
    by_rows = Matching._from_view(rows, side)
    by_edges = Matching(edges_of(side, rows))
    assert by_rows == by_edges and by_edges == by_rows
    assert observed(by_rows, m) == observed(by_edges, m)
    assert schema_error(by_rows, m) == schema_error(by_edges, m)
    try:
        assert _from_rows(m, side, rows) == by_edges
    except SchemaError as e:
        assert str(e) == schema_error(by_edges, m)


@st.composite
def patch_case(draw):
    """A matching from :func:`rows_case` rows, and rows for either side to patch in.

    A patch row may be empty, may empty an agent's row and may name an
    agent the matching does not hold.
    """
    m, side, rows = draw(rows_case())
    mu = Matching._from_view(rows, side)
    side = draw(st.sampled_from(["firms", "workers"]))
    return m, mu, side, draw(side_rows(m, side))


@settings(max_examples=200, deadline=None)
@given(patch_case())
def test_patched_rows_build_the_matching_their_edges_build(case):
    m, mu, side, patch = case
    before = Matching(mu.edges)
    patched = mu._patched(side, patch)
    kept = [e for e in mu.edges if (e[0] if side == "firms" else e[1]) not in patch]
    by_edges = Matching(kept + edges_of(side, patch.items()))
    assert patched == by_edges and by_edges == patched
    assert observed(patched, m) == observed(by_edges, m)
    assert len(patched) == len(patched.edges)
    for twin in (pickle.loads(pickle.dumps(patched)), copy.copy(patched), copy.deepcopy(patched)):
        assert twin == patched and observed(twin, m) == observed(patched, m)
    assert mu == before and observed(mu, m) == observed(before, m)


def test_rows_name_the_over_quota_worker():
    m = MARKETS["many_to_one"]
    rows = [("f1", frozenset({"w1"})), ("f2", frozenset({"w1"})), ("f3", frozenset())]
    with pytest.raises(SchemaError, match="^worker w1 holds 2 firms in a many-to-one market$"):
        _from_rows(m, "firms", rows)


# -- the side tables ------------------------------------------------------------


def constructed():
    """A market whose input dicts list ids out of natural order."""
    firms = {
        "f10": QuotaLinearChoice(["w2", "w10"], 2),
        "f2": SetListChoice([["w1", "w2"], ["w10"]]),
        "f1": QuotaLinearChoice(["w10", "w1"]),
    }
    prefs = {"w10": LinearPref(["f1", "f2"]), "w2": LinearPref(["f10"]), "w1": LinearPref(["f2", "f1"])}
    return Market("many_to_one", firms, worker_prefs=prefs)


def related_market():
    return build_related_market(random_market(5, RandomMarketSpec("many_to_many_responsive", 4, 11))).market


TABLE_MARKETS = {
    "constructed": constructed,
    "from_json": lambda: Market.from_json(load_bundle("example2")["market"]),
    "union_of_copies": lambda: example_union("example1", 12)[0],
    "related_market": related_market,
}


@pytest.mark.parametrize("name", sorted(TABLE_MARKETS))
def test_side_tables_iterate_in_id_order(name):
    m = TABLE_MARKETS[name]()
    mu = Matching()
    assert tuple(_agents(m, mu, "firms")[0]) == m.firm_ids
    assert tuple(_agents(m, mu, "workers")[0]) == m.worker_ids
