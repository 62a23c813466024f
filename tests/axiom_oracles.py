"""Brute-force axiom checks straight from the quantified definitions.

Kept independent of the package's single-removal validators on purpose:
agreement between the two is itself under test.  The ``first_*`` searches
name the package's witnesses the slow way: one loop per axiom over every
subset of the ground set, in size-then-id order, each asking ``choose``
afresh.
"""

from itertools import chain, combinations

from matchlattice.market import ChoiceReport, Violation, sort_agents


def powerset(items):
    items = list(items)
    return [
        frozenset(c)
        for c in chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))
    ]


def brute_substitutable(c):
    for s in powerset(c.ground):
        for s2 in powerset(s):
            if not c.choose(s) & s2 <= c.choose(s2):
                return False
    return True


def brute_consistent(c):
    for s in powerset(c.ground):
        chosen = c.choose(s)
        for s2 in powerset(s):
            if chosen <= s2 and c.choose(s2) != chosen:
                return False
    return True


def brute_path_independent(c):
    subsets = powerset(c.ground)
    return all(
        c.choose(s | s2) == c.choose(c.choose(s) | s2) for s in subsets for s2 in subsets
    )


def _shown(s):
    return "{" + ",".join(sort_agents(s)) + "}"


def _failed(axiom, s, s2, agent, detail):
    return ChoiceReport(axiom, False, Violation(axiom, s, s2, agent, detail))


def first_substitutable_violation(c):
    """The first ``(S, x)`` with a partner chosen from ``S`` but not from ``S - {x}``."""
    for s in powerset(sort_agents(c.ground)):
        for x in sort_agents(s):
            smaller = s - {x}
            lost = (c.choose(s) & smaller) - c.choose(smaller)
            if lost:
                a = sort_agents(lost)[0]
                detail = f"{a} chosen from {_shown(s)} but dropped from {_shown(smaller)}"
                return _failed("substitutable", s, smaller, a, detail)
    return ChoiceReport("substitutable", True)


def first_consistency_violation(c):
    """The first ``(S, x)``, ``x`` rejected from ``S``, whose removal changes the choice."""
    for s in powerset(sort_agents(c.ground)):
        for x in sort_agents(s - c.choose(s)):
            before, after = c.choose(s), c.choose(s - {x})
            if after != before:
                detail = f"dropping rejected {x} changes the choice from {_shown(before)} to {_shown(after)}"
                return _failed("consistent", s, s - {x}, x, detail)
    return ChoiceReport("consistent", True)


def first_path_independence_pair(c):
    """The first ``(S, S')`` with ``C(S u S') != C(C(S) u S')``."""
    subsets = powerset(sort_agents(c.ground))
    for s in subsets:
        for s2 in subsets:
            whole, stepwise = c.choose(s | s2), c.choose(c.choose(s) | s2)
            if whole != stepwise:
                detail = f"C(S u S') = {_shown(whole)} but C(C(S) u S') = {_shown(stepwise)}"
                return _failed("path_independent", s, s2, None, detail)
    return ChoiceReport("path_independent", True)
