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
    validate_substitutable,
)
from matchlattice.market import ChoiceFunction, _subsets

IDS = [f"a{i}" for i in range(1, 7)]


class ParityChoice(ChoiceFunction):
    """Not substitutable: keeps the ids whose number has the parity of |S|."""

    def _choose(self, s):
        return frozenset(a for a in s if int(a[1:]) % 2 == len(s) % 2)


def definitional(c, held):
    return frozenset(x for x in c.ground if x in c.choose(held | {x}))


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
def choice(draw, ids=IDS, max_quota=3):
    ground = frozenset(draw(st.sets(st.sampled_from(ids))))
    kind = draw(st.sampled_from(["quota_linear", "set_list", "q_extension", "fallback"]))
    if kind == "quota_linear":
        c = draw(quota_linear(ground))
    elif kind == "set_list":
        c = draw(set_list(ground))
    elif kind == "fallback":
        c = ParityChoice(ground)
    else:
        workers = sorted(ground)
        quotas = {w: draw(st.integers(1, max_quota)) for w in workers}
        base = draw(st.one_of(quota_linear(ground), set_list(ground)))
        c = QExtensionChoice(base, ReplicaMap.build(workers, quotas))
    return c


@st.composite
def choice_and_held(draw):
    c = draw(choice())
    held = frozenset(draw(st.sets(st.sampled_from(sorted(c.ground))) if c.ground else st.just(set())))
    return c, held


@settings(max_examples=400, deadline=None)
@given(choice_and_held())
def test_accepting_matches_definition(case):
    c, held = case
    assert c.accepting(held) == definitional(c, held)


@settings(max_examples=100, deadline=None)
@given(choice(IDS[:4], max_quota=2))
def test_held_inside_accepting_iff_chosen_whole(c):
    """``held <= accepting(held)`` iff ``choose(held) == held``, on every subset.

    ``is_stable`` reads individual rationality off the accepting set by this.
    """
    for held in _subsets(tuple(sorted(c.ground))):
        assert (held <= c.accepting(held)) == (c.choose(held) == held)


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


# -- the kernels' fast paths ----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.permutations(IDS), st.integers(0, len(IDS)), st.integers(1, 4), st.sets(st.sampled_from(IDS)))
def test_quota_linear_choose_is_the_best_quota_by_rank(order, length, quota, offered):
    order = order[:length]
    c = QuotaLinearChoice(order, quota, ground=IDS)
    assert c.choose(offered) == frozenset(sorted(offered & set(order), key=order.index)[:quota])


@settings(max_examples=100, deadline=None)
@given(choice_and_held())
def test_every_iterable_gives_the_same_answer(case):
    c, held = case
    for form in (list, tuple, set, frozenset):
        assert c.choose(form(sorted(held))) == c.choose(held)
        assert c.accepting(form(sorted(held))) == c.accepting(held)


@settings(max_examples=100, deadline=None)
@given(choice_and_held(), st.sets(st.sampled_from(["z1", "z2", "z10"]), min_size=1))
def test_unknown_ids_are_named_in_natural_order(case, unknown):
    c, held = case
    message = f"offered set contains unknown ids: {sorted(unknown, key=lambda a: int(a[1:]))}"
    for form in (list, tuple, set, frozenset):
        offered = form(sorted(held | unknown))
        for query in (c.choose, c.accepting):
            with pytest.raises(UnknownAgent) as e:
                query(offered)
            assert str(e.value) == message


@st.composite
def mixed_set_list(draw):
    """Set lists with at least one singleton and one larger entry."""
    single = st.builds(lambda a: frozenset([a]), st.sampled_from(IDS))
    larger = st.frozensets(st.sampled_from(IDS), min_size=2, max_size=4)
    entries = draw(st.lists(st.one_of(single, larger), max_size=6, unique=True))
    entries += [draw(single.filter(lambda x: x not in entries)), draw(larger.filter(lambda x: x not in entries))]
    return SetListChoice(draw(st.permutations(entries)), ground=IDS)


@settings(max_examples=100, deadline=None)
@given(mixed_set_list(), st.sets(st.sampled_from(IDS)))
def test_set_list_accepting_mixes_singletons_and_larger_entries(c, held):
    assert c.accepting(held) == definitional(c, frozenset(held))


@pytest.mark.parametrize(
    "entries",
    [
        [["a1", "a2"], ["a1"]],
        [["a1"], ["a2", "a3"], ["a3"]],
        [["a2", "a3"], ["a1"], ["a3"], ["a1", "a2"]],
    ],
)
def test_set_list_kernel_on_non_substitutable_lists(entries):
    c = SetListChoice(entries, ground=IDS[:4])
    assert not validate_substitutable(c).ok
    for held in _subsets(tuple(IDS[:4])):
        assert c.accepting(held) == definitional(c, held)
