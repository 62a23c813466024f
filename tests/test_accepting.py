"""Each ``accepting`` kernel equals its definition through ``choose``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlattice import (
    B_set_of_firm,
    B_set_of_worker,
    F_set_of_worker,
    QExtensionChoice,
    QuotaLinearChoice,
    ReplicaMap,
    SetListChoice,
    UnknownAgent,
    W_set_of_firm,
)
from matchlattice.market import ChoiceFunction

IDS = [f"a{i}" for i in range(1, 7)]


class ParityChoice(ChoiceFunction):
    """Not substitutable: keeps the ids whose number has the parity of |S|."""

    def _choose(self, s):
        return frozenset(a for a in s if int(a[1:]) % 2 == len(s) % 2)


def definitional(c, held):
    return frozenset(x for x in c.ground if x in c.choose(held | {x}))


grounds = st.sets(st.sampled_from(IDS))


@st.composite
def quota_linear(draw, ground):
    order = draw(st.permutations(sorted(ground)))
    order = order[: draw(st.integers(0, len(order)))]
    return QuotaLinearChoice(order, draw(st.integers(1, 4)), ground=ground)


@st.composite
def set_list(draw, ground):
    # No axiom filter: the kernel must match on non-substitutable lists too.
    entries = draw(
        st.lists(st.frozensets(st.sampled_from(sorted(ground)), min_size=1), max_size=6, unique=True)
        if ground
        else st.just([])
    )
    return SetListChoice(entries, ground=ground)


@st.composite
def choice_and_held(draw):
    ground = frozenset(draw(grounds))
    kind = draw(st.sampled_from(["quota_linear", "set_list", "q_extension", "fallback"]))
    if kind == "quota_linear":
        c = draw(quota_linear(ground))
    elif kind == "set_list":
        c = draw(set_list(ground))
    elif kind == "fallback":
        c = ParityChoice(ground)
    else:
        workers = sorted(ground)
        quotas = {w: draw(st.integers(1, 3)) for w in workers}
        base = draw(st.one_of(quota_linear(ground), set_list(ground)))
        c = QExtensionChoice(base, ReplicaMap.build(workers, quotas))
    held = frozenset(draw(st.sets(st.sampled_from(sorted(c.ground))) if c.ground else st.just(set())))
    return c, held


@settings(max_examples=400, deadline=None)
@given(choice_and_held())
def test_accepting_matches_definition(case):
    c, held = case
    got = c.accepting(held)
    if not isinstance(c, ParityChoice):
        assert c._memo == {}, "kernels write nothing into the choice memo"
    assert got == definitional(c, held)


@settings(max_examples=100, deadline=None)
@given(choice_and_held(), st.sets(st.sampled_from(["z1", "z2"]), min_size=1))
def test_accepting_raises_where_choose_raises(case, unknown):
    c, held = case
    with pytest.raises(UnknownAgent):
        c.choose(held | unknown)
    with pytest.raises(UnknownAgent):
        c.accepting(held | unknown)


@pytest.mark.parametrize(
    "query,agent",
    [(q, a) for q in (F_set_of_worker, B_set_of_worker) for a in ("z1", "f1")]
    + [(q, a) for q in (W_set_of_firm, B_set_of_firm) for a in ("z1", "w1")],
)
def test_per_agent_sets_raise_for_ids_outside_their_side(example1, query, agent):
    m, named = example1
    with pytest.raises(UnknownAgent):
        query(m, named["mu_star"], agent)


def test_empty_set_list_accepts_nobody():
    c = SetListChoice([], ground=["w1", "w2"])
    assert c.accepting(set()) == frozenset()
    assert c.accepting({"w1"}) == frozenset()
