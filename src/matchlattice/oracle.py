"""Ground truth by exhaustive enumeration, plus a seeded market generator.

Everything here is deliberately independent of the operator machinery: joins
and meets are found by scanning an enumerated universe against the order
predicates, so agreement between this module and :mod:`matchlattice.tarski`
is a real check rather than a tautology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence

from .errors import BudgetExceeded, GenerationFailed, SchemaError
from .market import (
    AgentId,
    LinearPref,
    Market,
    QuotaLinearChoice,
    SetListChoice,
    validate_consistent,
    validate_substitutable,
)
from .matching import (
    Matching,
    _require_side,
    blair_geq_firms,
    blair_geq_workers,
    is_firm_quasi_stable,
    is_stable,
    is_worker_quasi_stable,
    unanimous_geq_workers,
    worker_order_geq,
)
from . import tarski


@dataclass(frozen=True)
class EnumerationBudget:
    max_matchings: int = 10_000_000
    max_firms: int = 6
    max_workers: int = 7


DEFAULT_BUDGET = EnumerationBudget()


def _worker_options(m: Market, w: AgentId, ir_only: bool) -> list[frozenset[AgentId]]:
    """Firm sets a worker may hold, in deterministic (size, id) order."""
    firms = m.firm_ids
    if m.variant == "many_to_one":
        singles = [f for f in firms if not ir_only or m.worker_pref(w).is_acceptable(f)]
        return [frozenset()] + [frozenset([f]) for f in singles]
    if m.variant == "many_to_many_responsive":
        pool = [f for f in firms if not ir_only or m.worker_pref(w).is_acceptable(f)]
        q = m.worker_quota(w)
        out = []
        for r in range(0, min(q, len(pool)) + 1):
            out.extend(frozenset(c) for c in combinations(pool, r))
        return out
    out = []
    choice = m.worker_choice(w)
    for r in range(len(firms) + 1):
        for c in combinations(firms, r):
            s = frozenset(c)
            if not ir_only or choice.choose(s) == s:
                out.append(s)
    return out


def count_matchings(m: Market, ir_workers_only: bool = False) -> int:
    total = 1
    for w in m.worker_ids:
        total *= len(_worker_options(m, w, ir_workers_only))
    return total


def enumerate_matchings(
    m: Market,
    budget: EnumerationBudget | None = None,
    ir_workers_only: bool = False,
) -> Iterator[Matching]:
    """Every variant-valid matching exactly once, deterministically ordered.

    Workers are processed in id order and each takes a firm set in
    (size, id) order.  With ``ir_workers_only`` the per-worker options are
    restricted to sets the worker would keep, which drops nothing when the
    consumer filters on individual rationality anyway.
    """
    budget = budget or DEFAULT_BUDGET
    if len(m.firm_ids) > budget.max_firms or len(m.worker_ids) > budget.max_workers:
        raise BudgetExceeded(
            f"market is {len(m.firm_ids)}x{len(m.worker_ids)}, budget allows "
            f"{budget.max_firms}x{budget.max_workers}"
        )
    total = count_matchings(m, ir_workers_only)
    if total > budget.max_matchings:
        raise BudgetExceeded(f"{total} matchings exceed budget {budget.max_matchings}")

    workers = m.worker_ids
    options = [_worker_options(m, w, ir_workers_only) for w in workers]

    def rec(i: int, edges: list[tuple[AgentId, AgentId]]) -> Iterator[Matching]:
        if i == len(workers):
            yield Matching(edges)
            return
        w = workers[i]
        for fs in options[i]:
            added = [(f, w) for f in fs]
            yield from rec(i + 1, edges + added)

    yield from rec(0, [])


def enumerate_stable(m: Market, budget: EnumerationBudget | None = None) -> list[Matching]:
    """The stable set (worker-IR pruning is sound: stability implies it)."""
    return [
        mu
        for mu in enumerate_matchings(m, budget, ir_workers_only=True)
        if is_stable(m, mu)
    ]


def enumerate_quasi_stable(
    m: Market, side: str, budget: EnumerationBudget | None = None
) -> list[Matching]:
    """All worker- (side='workers') or firm- (side='firms') quasi-stable matchings."""
    _require_side(side)
    pred = is_worker_quasi_stable if side == "workers" else is_firm_quasi_stable
    return [
        mu for mu in enumerate_matchings(m, budget, ir_workers_only=True) if pred(m, mu)
    ]


ORDER_TAGS = ("blair_firms", "blair_workers", "unanimous_workers", "worker")


def order_geq(m: Market, tag: str, a: Matching, b: Matching) -> bool:
    if tag == "blair_firms":
        return blair_geq_firms(m, a, b)
    if tag == "blair_workers":
        return blair_geq_workers(m, a, b)
    if tag == "unanimous_workers":
        return unanimous_geq_workers(m, a, b)
    if tag == "worker":
        return worker_order_geq(m, a, b)
    raise ValueError(f"unknown order tag {tag!r}")


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
    uppers = [t for t in universe if order_geq(m, tag, t, mu) and order_geq(m, tag, t, mu2)]
    least = [u for u in uppers if all(order_geq(m, tag, t, u) for t in uppers)]
    if len(least) == 1:
        return least[0]
    return None


def brute_meet(
    m: Market,
    tag: str,
    mu: Matching,
    mu2: Matching,
    universe: Sequence[Matching],
) -> Matching | None:
    lowers = [t for t in universe if order_geq(m, tag, mu, t) and order_geq(m, tag, mu2, t)]
    greatest = [u for u in lowers if all(order_geq(m, tag, u, t) for t in lowers)]
    if len(greatest) == 1:
        return greatest[0]
    return None


@dataclass
class LatticeReport:
    """Everything the exhaustive lattice verification looked at."""

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
        return (
            self.firm_joins_exist
            and self.firm_meets_exist
            and self.worker_joins_exist
            and self.worker_meets_exist
            and self.tarski_join_agrees
            and self.tarski_meet_agrees
            and self.duality_holds
        )

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "stable_count": self.stable_count,
            "pairs_checked": self.pairs_checked,
            "flags": {
                "firm_joins_exist": self.firm_joins_exist,
                "firm_meets_exist": self.firm_meets_exist,
                "worker_joins_exist": self.worker_joins_exist,
                "worker_meets_exist": self.worker_meets_exist,
                "tarski_join_agrees": self.tarski_join_agrees,
                "tarski_meet_agrees": self.tarski_meet_agrees,
                "duality_holds": self.duality_holds,
            },
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
        candidate = SetListChoice(entries, ground=ids)
        if validate_substitutable(candidate).ok and validate_consistent(candidate).ok:
            return candidate
    raise GenerationFailed(f"no substitutable set list after {retry_cap} attempts")


def random_market(seed: int, spec: RandomMarketSpec) -> Market:
    """A market drawn deterministically from the seed, valid by construction."""
    rng = random.Random(seed)
    firm_ids = [f"f{i + 1}" for i in range(spec.n_firms)]
    worker_ids = [f"w{i + 1}" for i in range(spec.n_workers)]

    def firm_choice(i: int):
        kind = spec.firm_kind
        if kind == "mixed":
            kind = "set_list" if rng.random() < 0.5 else "quota_linear"
        if kind == "set_list":
            return _random_set_list(rng, worker_ids, spec.density, spec.max_list_len, spec.retry_cap)
        return _random_quota_linear(rng, worker_ids, spec.density, spec.firm_quota_max)

    firms = {f: firm_choice(i) for i, f in enumerate(firm_ids)}

    if spec.variant == "many_to_one":
        prefs = {w: LinearPref(_random_pool(rng, firm_ids, spec.density)) for w in worker_ids}
        return Market("many_to_one", firms, worker_prefs=prefs)
    if spec.variant == "many_to_many_responsive":
        prefs = {w: LinearPref(_random_pool(rng, firm_ids, spec.density)) for w in worker_ids}
        quotas = {w: rng.randint(1, spec.worker_quota_max) for w in worker_ids}
        return Market("many_to_many_responsive", firms, worker_prefs=prefs, worker_quotas=quotas)
    if spec.variant == "many_to_many_sub":
        def worker_choice(i: int):
            kind = spec.worker_kind
            if kind == "mixed":
                kind = "set_list" if rng.random() < 0.5 else "quota_linear"
            if kind == "set_list":
                return _random_set_list(rng, firm_ids, spec.density, spec.max_list_len, spec.retry_cap)
            return _random_quota_linear(rng, firm_ids, spec.density, spec.worker_quota_max)

        choices = {w: worker_choice(i) for i, w in enumerate(worker_ids)}
        return Market("many_to_many_sub", firms, worker_choices=choices)
    raise SchemaError(f"unknown variant {spec.variant!r}")
