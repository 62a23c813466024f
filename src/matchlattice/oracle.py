"""Ground truth by exhaustive enumeration, plus a seeded market generator.

Everything here is deliberately independent of the operator machinery: joins
and meets are found by scanning an enumerated universe against the order
predicates, so agreement between this module and :mod:`matchlattice.tarski`
is a real check rather than a tautology.  The enumeration asks the market
for nothing but ``choose`` and the workers' quotas.  The stability and
quasi-stability tests do not: they call the choices' ``accepting`` kernels,
the stable set's directly and the quasi-stable sets' through the holdings
check of :mod:`matchlattice.matching`.

The stable and quasi-stable sets are searched among individually rational
matchings only, which every one of their predicates requires.  One rule
lists the sets an agent keeps whole, asking ``choose`` once on each
candidate: every worker's options, up to its quota, and every firm's kept
sets among the workers that could join it.  A partial matching is extended
only while every firm's set is a prefix, in worker order, of one of its
kept sets, and a firm's set is tested against them once it is final.  That
filter is exact by definition, so it holds whatever a firm's choice does.

Workers are placed in id order, so a worker's holding is final once the
worker is placed, and a firm's once the last worker whose options name it
is placed.
The stable set is decided inside the search, pair by pair: ``(f, w)`` is
tested at the later of the two depths, with one ``accepting`` call per
final firm and per worker option, and a blocking pair cuts the subtree
below it.  Stability is pairwise, so this too holds whatever the choices
do; a ``Matching`` is built only for the stable leaves.  The quasi-stable
sets are still tested at the leaves, since a willing set depends on every
holding of the other side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import prod
from typing import ClassVar, Iterator, Sequence

from .errors import BudgetExceeded, GenerationFailed, SchemaError
from .market import (
    VARIANTS,
    AgentId,
    ChoiceFunction,
    LinearPref,
    Market,
    QuotaLinearChoice,
    SetListChoice,
    _axiom_search,
)
from .matching import (
    EMPTY,
    Matching,
    _holdings_survive,
    _require_side,
    blair_geq_firms,
    blair_geq_workers,
    unanimous_geq_workers,
)
from . import tarski


@dataclass(frozen=True)
class EnumerationBudget:
    max_matchings: int = 10_000_000
    max_firms: int = 6
    max_workers: int = 7


DEFAULT_BUDGET = EnumerationBudget()


def _kept(choice: ChoiceFunction, items: Sequence[AgentId], size: int, filtered: bool) -> list[tuple]:
    """The sets of at most ``size`` of ``items``, in (size, id) order, as ``combinations`` tuples.

    With ``filtered``, only the sets the choice keeps whole, ``C(S) == S``.
    """
    return [
        s
        for r in range(min(size, len(items)) + 1)
        for s in combinations(items, r)
        if not filtered or choice.choose(s) == frozenset(s)
    ]


def _worker_options(m: Market, w: AgentId, ir_only: bool) -> list[tuple[AgentId, ...]]:
    """Firm sets a worker may hold: up to its quota (substitutable workers have none)."""
    firms = m.firm_ids
    return _kept(m.worker_choice(w), firms, m.worker_quotas.get(w, len(firms)), ir_only)


def count_matchings(m: Market, ir_workers_only: bool = False) -> int:
    return prod(len(_worker_options(m, w, ir_workers_only)) for w in m.worker_ids)


def enumerate_matchings(
    m: Market,
    budget: EnumerationBudget | None = None,
    ir_workers_only: bool = False,
    ir_firms_only: bool = False,
    *,
    stable_only: bool = False,
) -> Iterator[Matching]:
    """Every variant-valid matching exactly once, deterministically ordered.

    Workers are processed in id order and each takes a firm set in
    (size, id) order.  With ``ir_workers_only`` the per-worker options are
    restricted to sets the worker would keep, which drops nothing when the
    consumer filters on individual rationality anyway.  ``ir_firms_only``
    likewise keeps only matchings where every firm keeps its whole
    assignment, ``C_f(mu(f)) == mu(f)``, in the same order.  Each firm asks
    ``choose`` once on every set of the workers whose options name it, and
    a worker joins it only if the firm's set stays a prefix, in worker
    order, of one it keeps.  A firm's set is final once the last worker
    whose options name it is placed (before the search, if none does); it
    is tested there against the sets the firm keeps.

    ``stable_only`` implies both filters and yields the stable matchings
    alone, in the same order.  Every pair ``(f, w)`` is decided at the
    depth where both holdings are final: it blocks when ``w`` is not in
    f's set, ``w`` is in f's ``accepting`` set and ``f`` is in the
    ``accepting`` set of w's option.  A blocking pair cuts the subtree
    below it.

    The budget counts the matchings before any filter; it refuses as soon
    as the workers listed so far allow more.
    """
    if stable_only:
        ir_workers_only = ir_firms_only = True
    budget = budget or DEFAULT_BUDGET
    if len(m.firm_ids) > budget.max_firms or len(m.worker_ids) > budget.max_workers:
        raise BudgetExceeded(
            f"market is {len(m.firm_ids)}x{len(m.worker_ids)}, budget allows "
            f"{budget.max_firms}x{budget.max_workers}"
        )
    workers = m.worker_ids
    options, total = [], 1
    for i, w in enumerate(workers):
        options.append(_worker_options(m, w, ir_workers_only))
        total *= len(options[-1])
        # Every later worker has an option (the empty set, if it keeps it),
        # so the product only grows and the refusal is exact.
        if total > budget.max_matchings and all(
            not ir_workers_only or not m.worker_choice(v).choose(()) for v in workers[i + 1 :]
        ):
            raise BudgetExceeded(
                f"at least {total} matchings (options of {i + 1} of {len(workers)} workers) "
                f"exceed budget {budget.max_matchings}"
            )

    held = dict.fromkeys(m.firm_ids, EMPTY)
    position = m._worker_index
    # The firms whose sets become final as worker i is placed; key -1 holds
    # those whose reach is empty, final before the search starts.
    closing: dict[int, list[AgentId]] = {i: [] for i in range(-1, len(workers))}
    kept, prefixes, last = {}, {}, {}
    if ir_firms_only:
        named = [frozenset().union(*opts) for opts in options]  # the firms each worker's options name
        for f in m.firm_ids:
            reach = tuple(w for w, fs in zip(workers, named) if f in fs)
            sets = _kept(m.firm_choice(f), reach, len(reach), True)
            kept[f] = {frozenset(s) for s in sets}
            prefixes[f] = {frozenset(s[:k]) for s in sets for k in range(1, len(s) + 1)}
            last[f] = position[reach[-1]] if reach else -1
            closing[last[f]].append(f)
        if any(EMPTY not in kept[f] for f in closing[-1]):
            return
    # With stable_only: the accepting set of every worker option, of every
    # final firm's set, and of the option each placed worker holds (path).
    firm_choices = m._firm_choices
    accepts, firm_accepts, path = [], {}, [EMPTY] * len(workers)
    if stable_only:
        accepts = [[m._worker_choices[w].accepting(fs) for fs in opts] for w, opts in zip(workers, options)]
        firm_accepts = {f: firm_choices[f].accepting(EMPTY) for f in closing[-1]}

    def final(i: int) -> bool:
        """The sets final once worker ``i`` is placed are kept, and no pair decided there blocks."""
        for f in closing[i]:
            if held[f] not in kept[f]:
                return False
        if not stable_only:
            return True
        w = workers[i]
        for f in path[i]:  # pairs of w with the firms final before w
            if last[f] < i and w in firm_accepts[f]:
                return False
        for f in closing[i]:  # pairs of each firm final now with the workers placed
            s = held[f]
            firm_accepts[f] = taken = firm_choices[f].accepting(s)
            for v in taken - s:
                if position[v] <= i and f in path[position[v]]:
                    return False
        return True

    def rec(i: int) -> Iterator[Matching]:
        if i == len(workers):
            yield Matching._from_view(held.items(), "firms")
            return
        w = workers[i]
        for k, fs in enumerate(options[i]):
            if stable_only:
                path[i] = accepts[i][k]
            if not fs:  # no firm's set grows
                if not ir_firms_only or final(i):
                    yield from rec(i + 1)
                continue
            before = [(f, held[f]) for f in fs]
            grown = [(f, s | {w}) for f, s in before]
            if ir_firms_only and any(s not in prefixes[f] for f, s in grown):
                continue
            held.update(grown)
            if not ir_firms_only or final(i):
                yield from rec(i + 1)
            held.update(before)

    yield from rec(0)


def enumerate_stable(m: Market, budget: EnumerationBudget | None = None) -> list[Matching]:
    """The stable set, decided inside the search of :func:`enumerate_matchings`.

    Stability implies individual rationality on both sides, so neither the
    worker-IR options nor the firm-IR pruning drops a stable matching or
    changes their order.  On those matchings stability is the absence of a
    blocking pair, and the worker side of a pair is the plain ``accepting``
    set of the worker's option (see :func:`matchlattice.matching.is_stable`).
    Each pair is decided with the ``accepting`` kernels as soon as both of
    its holdings are final, so one blocking pair cuts every matching below
    it, and a ``Matching`` is built only for the stable leaves.
    """
    return list(
        enumerate_matchings(m, budget, ir_workers_only=True, ir_firms_only=True, stable_only=True)
    )


def enumerate_quasi_stable(
    m: Market, side: str, budget: EnumerationBudget | None = None
) -> list[Matching]:
    """All worker- (side='workers') or firm- (side='firms') quasi-stable matchings.

    Both predicates require individual rationality, so the search is pruned
    as in :func:`enumerate_stable`; its leaves are individually rational,
    so each is tested on the ``side`` agents' holdings alone.
    """
    _require_side(side)
    return [
        mu
        for mu in enumerate_matchings(m, budget, ir_workers_only=True, ir_firms_only=True)
        if _holdings_survive(m, mu, side)
    ]


def order_geq(m: Market, tag: str, a: Matching, b: Matching) -> bool:
    """``a`` at or above ``b`` in the order ``tag`` names; ``"worker"`` is the workers' Blair order."""
    if tag == "blair_firms":
        return blair_geq_firms(m, a, b)
    if tag in ("blair_workers", "worker"):
        return blair_geq_workers(m, a, b)
    if tag == "unanimous_workers":
        return unanimous_geq_workers(m, a, b)
    raise ValueError(f"unknown order tag {tag!r}")


def _least_upper_bound(geq, mu: Matching, mu2: Matching, universe: Sequence[Matching]) -> Matching | None:
    uppers = [t for t in universe if geq(t, mu) and geq(t, mu2)]
    least = [u for u in uppers if all(geq(t, u) for t in uppers)]
    return least[0] if len(least) == 1 else None


def brute_join(
    m: Market,
    tag: str,
    mu: Matching,
    mu2: Matching,
    universe: Sequence[Matching],
) -> Matching | None:
    """Least upper bound of the pair within ``universe``, or None.

    Returns None rather than raising so that non-lattice universes can be
    probed diagnostically.
    """
    return _least_upper_bound(lambda a, b: order_geq(m, tag, a, b), mu, mu2, universe)


def brute_meet(
    m: Market,
    tag: str,
    mu: Matching,
    mu2: Matching,
    universe: Sequence[Matching],
) -> Matching | None:
    """Greatest lower bound of the pair within ``universe``, or None: the reversed order's join."""
    return _least_upper_bound(lambda a, b: order_geq(m, tag, b, a), mu, mu2, universe)


@dataclass
class LatticeReport:
    """Everything the exhaustive lattice verification looked at.

    A pair that fails a check clears its flag; ``ok`` and the JSON ``flags``
    read the flags :attr:`CHECKS` names, in field order.
    """

    CHECKS: ClassVar[tuple[str, ...]] = (
        "firm_joins_exist", "firm_meets_exist", "worker_joins_exist", "worker_meets_exist",
        "tarski_join_agrees", "tarski_meet_agrees", "duality_holds",
    )

    stable_count: int
    pairs_checked: int = 0
    firm_joins_exist: bool = True
    firm_meets_exist: bool = True
    worker_joins_exist: bool = True
    worker_meets_exist: bool = True
    tarski_join_agrees: bool = True
    tarski_meet_agrees: bool = True
    duality_holds: bool = True
    join_table: dict[tuple[int, int], int] = field(default_factory=dict)
    meet_table: dict[tuple[int, int], int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(getattr(self, name) for name in self.CHECKS)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "stable_count": self.stable_count,
            "pairs_checked": self.pairs_checked,
            "flags": {name: getattr(self, name) for name in self.CHECKS},
            "join_table": [[i, j, k] for (i, j), k in sorted(self.join_table.items())],
            "meet_table": [[i, j, k] for (i, j), k in sorted(self.meet_table.items())],
            "problems": self.problems,
        }


def verify_lattice(m: Market, budget: EnumerationBudget | None = None) -> LatticeReport:
    """Exhaustively check the stable set's lattice structure and the operators.

    For every stable pair: joins and meets exist in both orders, the
    operator-computed join/meet match the brute-force ones, and the firm
    order is the reverse of the worker order (duality).
    """
    stable = enumerate_stable(m, budget)
    report = LatticeReport(stable_count=len(stable))
    index = {mu: i for i, mu in enumerate(stable)}
    for i, a in enumerate(stable):
        for j in range(i, len(stable)):
            b = stable[j]
            report.pairs_checked += 1
            jn = brute_join(m, "blair_firms", a, b, stable)
            mt = brute_meet(m, "blair_firms", a, b, stable)
            wj = brute_join(m, "worker", a, b, stable)
            wm = brute_meet(m, "worker", a, b, stable)
            if jn is None:
                report.firm_joins_exist = False
                report.problems.append(f"no firm-order join for stable pair ({i},{j})")
            else:
                report.join_table[(i, j)] = index[jn]
            if mt is None:
                report.firm_meets_exist = False
                report.problems.append(f"no firm-order meet for stable pair ({i},{j})")
            else:
                report.meet_table[(i, j)] = index[mt]
            if wj is None:
                report.worker_joins_exist = False
            if wm is None:
                report.worker_meets_exist = False
            tj = tarski.stable_join_firms(m, a, b, check=False)
            tm = tarski.stable_meet_firms(m, a, b, check=False)
            if tj != jn:
                report.tarski_join_agrees = False
                report.problems.append(f"operator join differs from oracle for pair ({i},{j})")
            if tm != mt:
                report.tarski_meet_agrees = False
                report.problems.append(f"operator meet differs from oracle for pair ({i},{j})")
            if wj != mt or wm != jn:
                report.duality_holds = False
                report.problems.append(f"duality broken on pair ({i},{j})")
            if order_geq(m, "blair_firms", a, b) != order_geq(m, "worker", b, a):
                report.duality_holds = False
                report.problems.append(f"order reversal broken on pair ({i},{j})")
    return report


# -- seeded random markets ----------------------------------------------------


@dataclass(frozen=True)
class RandomMarketSpec:
    """Shape of a generated market; generation is deterministic in the seed."""

    variant: str = "many_to_one"
    n_firms: int = 3
    n_workers: int = 4
    density: float = 0.8
    firm_quota_max: int = 2
    worker_quota_max: int = 2
    firm_kind: str = "quota_linear"  # quota_linear | set_list | mixed
    worker_kind: str = "quota_linear"  # substitutable markets only
    max_list_len: int = 4
    retry_cap: int = 200


def _random_pool(rng: random.Random, ids: Sequence[AgentId], density: float) -> list[AgentId]:
    pool = [a for a in ids if rng.random() < density]
    rng.shuffle(pool)
    return pool


def _random_quota_linear(rng, ids, density, quota_max) -> QuotaLinearChoice:
    pool = _random_pool(rng, ids, density)
    return QuotaLinearChoice(pool, rng.randint(1, quota_max), ground=ids)


def _random_set_list(rng, ids, density, max_list_len, retry_cap) -> SetListChoice:
    """Rejection-sample an order of subsets until the axioms hold."""
    for _ in range(retry_cap):
        pool = _random_pool(rng, ids, density)
        if not pool:
            return SetListChoice([], ground=ids)
        entries: list[frozenset] = []
        seen = set()
        for _ in range(rng.randint(1, max_list_len)):
            size = rng.randint(1, min(3, len(pool)))
            entry = frozenset(rng.sample(pool, size))
            if entry not in seen:
                seen.add(entry)
                entries.append(entry)
        choice = SetListChoice(entries, ground=ids)
        substitutable, consistent, _ = _axiom_search(choice)
        if substitutable.ok and consistent.ok:
            return choice
    raise GenerationFailed(f"no substitutable set list after {retry_cap} attempts")


def random_market(seed: int, spec: RandomMarketSpec) -> Market:
    """A market drawn deterministically from the seed, valid by construction."""
    if spec.variant not in VARIANTS:
        raise SchemaError(f"unknown variant {spec.variant!r}")
    for field in ("firm_kind", "worker_kind"):
        if getattr(spec, field) not in ("quota_linear", "set_list", "mixed"):
            raise SchemaError(f"unknown {field} {getattr(spec, field)!r}")
    rng = random.Random(seed)
    firm_ids = [f"f{i + 1}" for i in range(spec.n_firms)]
    worker_ids = [f"w{i + 1}" for i in range(spec.n_workers)]

    def choice(ids: list[AgentId], kind: str, quota_max: int):
        if kind == "mixed":
            kind = "set_list" if rng.random() < 0.5 else "quota_linear"
        if kind == "set_list":
            return _random_set_list(rng, ids, spec.density, spec.max_list_len, spec.retry_cap)
        return _random_quota_linear(rng, ids, spec.density, quota_max)

    firms = {f: choice(worker_ids, spec.firm_kind, spec.firm_quota_max) for f in firm_ids}
    if spec.variant == "many_to_many_sub":
        choices = {w: choice(firm_ids, spec.worker_kind, spec.worker_quota_max) for w in worker_ids}
        return Market("many_to_many_sub", firms, worker_choices=choices)
    prefs = {w: LinearPref(_random_pool(rng, firm_ids, spec.density)) for w in worker_ids}
    if spec.variant == "many_to_one":
        return Market("many_to_one", firms, worker_prefs=prefs)
    quotas = {w: rng.randint(1, spec.worker_quota_max) for w in worker_ids}
    return Market("many_to_many_responsive", firms, worker_prefs=prefs, worker_quotas=quotas)
