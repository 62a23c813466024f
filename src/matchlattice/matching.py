"""Matchings and the predicates defined on them.

A matching is a mutually consistent bipartite assignment: ``w in mu(f)``
exactly when ``f in mu(w)``.  It is stored as an immutable edge set with
both per-side views derived once, so the invariant holds by construction.

The predicates treat every market through its per-agent choice functions.
Where a variant has its own textbook formulation (a worker's linear order,
the responsive blocking clauses) the dispatch applies that formulation; the
general substitutable form coincides with it on individually rational
matchings and tests pin that down.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Mapping

from .errors import CapExceeded, SchemaError
from .market import AgentId, Market, _subsets, agent_key, sort_agents


class Matching:
    """Immutable firm-worker assignment with both views kept consistent."""

    __slots__ = ("_edges", "_by_firm", "_by_worker", "_hash")

    def __init__(self, edges: Iterable[tuple[AgentId, AgentId]] = ()):
        edge_set = frozenset(edges)
        by_firm: dict[AgentId, set[AgentId]] = {}
        by_worker: dict[AgentId, set[AgentId]] = {}
        for f, w in edge_set:
            by_firm.setdefault(f, set()).add(w)
            by_worker.setdefault(w, set()).add(f)
        self._edges = edge_set
        self._by_firm = {f: frozenset(ws) for f, ws in by_firm.items()}
        self._by_worker = {w: frozenset(fs) for w, fs in by_worker.items()}
        self._hash = hash(edge_set)

    @staticmethod
    def empty() -> "Matching":
        return Matching()

    @staticmethod
    def from_firm_assignments(assignments: Mapping[AgentId, Iterable[AgentId]]) -> "Matching":
        return Matching((f, w) for f, ws in assignments.items() for w in ws)

    @property
    def edges(self) -> frozenset[tuple[AgentId, AgentId]]:
        return self._edges

    def of_firm(self, f: AgentId) -> frozenset[AgentId]:
        return self._by_firm.get(f, frozenset())

    def of_worker(self, w: AgentId) -> frozenset[AgentId]:
        return self._by_worker.get(w, frozenset())

    def firm_of(self, w: AgentId) -> AgentId | None:
        """The single employer in a many-to-one matching (None when unmatched)."""
        fs = self._by_worker.get(w)
        if fs is None:
            return None
        if len(fs) > 1:
            raise SchemaError(f"worker {w} holds {len(fs)} jobs in a many-to-one context")
        return next(iter(fs))

    @property
    def matched_firms(self) -> frozenset[AgentId]:
        return frozenset(self._by_firm)

    @property
    def matched_workers(self) -> frozenset[AgentId]:
        return frozenset(self._by_worker)

    def __eq__(self, other):
        return isinstance(other, Matching) and self._edges == other._edges

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self._edges)

    def __repr__(self):
        pairs = ", ".join(f"{f}-{w}" for f, w in sorted(self._edges, key=lambda e: (agent_key(e[0]), agent_key(e[1]))))
        return f"Matching({pairs})"

    def validate_for(self, m: Market) -> None:
        """Raise SchemaError if this assignment is not a matching of ``m``."""
        firms = set(m.firm_ids)
        workers = set(m.worker_ids)
        for f, w in self._edges:
            if f not in firms:
                raise SchemaError(f"matching references unknown firm {f!r}")
            if w not in workers:
                raise SchemaError(f"matching references unknown worker {w!r}")
        if m.variant == "many_to_one":
            for w, fs in self._by_worker.items():
                if len(fs) > 1:
                    raise SchemaError(f"worker {w} holds {len(fs)} firms in a many-to-one market")
        elif m.variant == "many_to_many_responsive":
            for w, fs in self._by_worker.items():
                if len(fs) > m.worker_quota(w):
                    raise SchemaError(
                        f"worker {w} holds {len(fs)} firms but has quota {m.worker_quota(w)}"
                    )

    # -- JSON encoding ------------------------------------------------------

    @staticmethod
    def from_json(obj) -> "Matching":
        if not isinstance(obj, dict) or not isinstance(obj.get("assignments"), dict):
            raise SchemaError("matching must be an object with an 'assignments' map")
        edges = []
        for f, ws in obj["assignments"].items():
            if not isinstance(ws, list):
                raise SchemaError(f"assignments for {f} must be a list of worker ids")
            if len(set(ws)) != len(ws):
                raise SchemaError(f"assignments for {f} repeat a worker")
            edges.extend((f, w) for w in ws)
        return Matching(edges)

    def to_json(self) -> dict:
        assignments = {
            f: sort_agents(self._by_firm[f]) for f in sort_agents(self._by_firm)
        }
        return {"assignments": assignments}

    def render(self, m: Market) -> str:
        """Two-row text table: firms on top, their worker sets below."""
        cols: list[tuple[str, str]] = []
        for f in m.firm_ids:
            ws = self.of_firm(f)
            cols.append((f, "{" + ",".join(sort_agents(ws)) + "}" if ws else "{}"))
        unmatched = [w for w in m.worker_ids if not self.of_worker(w)]
        if unmatched:
            cols.append(("(unmatched)", "{" + ",".join(unmatched) + "}"))
        widths = [max(len(a), len(b)) for a, b in cols]
        top = "  ".join(a.ljust(w) for (a, _), w in zip(cols, widths))
        bottom = "  ".join(b.ljust(w) for (_, b), w in zip(cols, widths))
        return top.rstrip() + "\n" + bottom.rstrip()


@dataclass(frozen=True, order=True)
class BlockingPair:
    firm: AgentId
    worker: AgentId
    reason: str = ""

    def to_json(self) -> dict:
        return {"firm": self.firm, "worker": self.worker, "reason": self.reason}


# -- individual blocking ----------------------------------------------------


def blocked_by_firm(m: Market, mu: Matching, f: AgentId) -> bool:
    """True when the firm would fire someone: mu(f) != C_f(mu(f))."""
    assigned = mu.of_firm(f)
    return m.firm_choice(f).choose(assigned) != assigned


def blocked_by_worker(m: Market, mu: Matching, w: AgentId) -> bool:
    held = mu.of_worker(w)
    if m.variant == "many_to_one":
        f = mu.firm_of(w)
        return f is not None and not m.worker_pref(w).is_acceptable(f)
    if m.variant == "many_to_many_responsive":
        if len(held) > m.worker_quota(w):
            return True
        return any(not m.worker_pref(w).is_acceptable(f) for f in held)
    return m.worker_choice(w).choose(held) != held


def is_individually_rational(m: Market, mu: Matching) -> bool:
    return not any(blocked_by_firm(m, mu, f) for f in m.firm_ids) and not any(
        blocked_by_worker(m, mu, w) for w in m.worker_ids
    )


# -- pair blocking ----------------------------------------------------------


def _worker_side_block_reason(m: Market, mu: Matching, f: AgentId, w: AgentId) -> str | None:
    """Why ``w`` would take ``f`` on, or None if she would not."""
    held = mu.of_worker(w)
    if m.variant == "many_to_one":
        current = mu.firm_of(w)
        if m.worker_pref(w).prefers(f, current):
            return "worker_prefers"
        return None
    if m.variant == "many_to_many_responsive":
        pref = m.worker_pref(w)
        if not pref.is_acceptable(f):
            return None
        if len(held) == m.worker_quota(w):
            if any(pref.prefers(f, g) for g in held):
                return "swap"
            return None
        if len(held) < m.worker_quota(w):
            return "vacancy"
        return None
    if f in m.worker_choice(w).choose(held | {f}):
        return "worker_chooses"
    return None


def blocking_pair_reason(m: Market, mu: Matching, f: AgentId, w: AgentId) -> str | None:
    if f in mu.of_worker(w):
        return None
    if w not in m.firm_choice(f).choose(mu.of_firm(f) | {w}):
        return None
    return _worker_side_block_reason(m, mu, f, w)


def _worker_takes_on(m: Market, mu: Matching, w: AgentId) -> frozenset[AgentId]:
    """Firms ``f`` whose W-set holds ``w``: ``f in C_w(mu(w) | {f})``.

    A many-to-one worker holding an unacceptable firm keeps the linear
    order's natural-id tie-break below the empty option.
    """
    if m.variant == "many_to_one":
        current = mu.firm_of(w)
        pref = m.worker_pref(w)
        if current is not None and not pref.is_acceptable(current):
            return frozenset(f for f in m.firm_ids if pref.weakly_prefers(f, current))
    return m.worker_choice(w).accepting(mu.of_worker(w))


def _worker_block_clause(m: Market, mu: Matching, w: AgentId):
    """``(firms, reason)``: the firms ``w`` would block with and why.

    None when a responsive worker is over quota or holds an unacceptable
    firm; :func:`_worker_side_block_reason` then answers pair by pair.
    """
    if m.variant == "many_to_one":
        return _worker_takes_on(m, mu, w), "worker_prefers"
    held = mu.of_worker(w)
    if m.variant == "many_to_many_responsive":
        pref = m.worker_pref(w)
        quota = m.worker_quota(w)
        if len(held) > quota or not all(pref.is_acceptable(g) for g in held):
            return None
        return m.worker_choice(w).accepting(held), "swap" if len(held) == quota else "vacancy"
    return m.worker_choice(w).accepting(held), "worker_chooses"


def _blocking_pairs(m: Market, mu: Matching) -> Iterator[BlockingPair]:
    """Blocking pairs in (firm, worker) id order, found lazily.

    One ``accepting`` call per firm gives the workers it would add; each
    worker's side is computed the first time a firm reaches it.
    """
    position = {w: i for i, w in enumerate(m.worker_ids)}.__getitem__
    clauses: dict[AgentId, tuple | None] = {}
    for f in m.firm_ids:
        held = mu.of_firm(f)
        for w in sorted(m.firm_choice(f).accepting(held) - held, key=position):
            if w not in clauses:
                clauses[w] = _worker_block_clause(m, mu, w)
            clause = clauses[w]
            if clause is None:
                reason = _worker_side_block_reason(m, mu, f, w)
            else:
                reason = clause[1] if f in clause[0] else None
            if reason is not None:
                yield BlockingPair(f, w, reason)


def blocking_pairs(m: Market, mu: Matching) -> list[BlockingPair]:
    """All blocking pairs, sorted by (firm, worker) natural id order."""
    return list(_blocking_pairs(m, mu))


def has_blocking_pair(m: Market, mu: Matching) -> bool:
    return next(_blocking_pairs(m, mu), None) is not None


def is_stable(m: Market, mu: Matching) -> bool:
    return is_individually_rational(m, mu) and not has_blocking_pair(m, mu)


# -- willing-partner sets ----------------------------------------------------


def _transpose(rows: Iterable[tuple[AgentId, Iterable[AgentId]]], keys: Iterable[AgentId]) -> dict:
    """Turn ``(a, bs)`` rows into ``{b: frozenset of a with b in bs}`` over ``keys``."""
    cols: dict[AgentId, list[AgentId]] = {k: [] for k in keys}
    for a, bs in rows:
        for b in bs:
            cols[b].append(a)
    return {k: frozenset(v) for k, v in cols.items()}


def _require_side(side: str) -> None:
    if side not in ("firms", "workers"):
        raise ValueError("side must be 'firms' or 'workers'")


def _other(side: str) -> str:
    return "workers" if side == "firms" else "firms"


def _agents(m: Market, mu: Matching, side: str):
    """``(ids, choice, held, takes_on)`` of one side under ``mu``.

    The side-generic bodies read both sides through this; ``takes_on(a)`` is
    every partner ``a`` would keep or add.
    """
    if side == "firms":
        choice, held = m.firm_choice, mu.of_firm
        return m.firm_ids, choice, held, lambda f: choice(f).accepting(held(f))
    return m.worker_ids, m.worker_choice, mu.of_worker, partial(_worker_takes_on, m, mu)


def _willing(m: Market, mu: Matching, side: str) -> dict[AgentId, frozenset[AgentId]]:
    """Every :func:`F_set_of_worker` (firms) or :func:`W_set_of_firm` (workers), one query per agent."""
    ids, _, _, takes_on = _agents(m, mu, side)
    return _transpose(((a, takes_on(a)) for a in ids), _agents(m, mu, _other(side))[0])


def F_set_of_worker(m: Market, mu: Matching, w: AgentId) -> frozenset[AgentId]:
    """Firms that would keep or add ``w`` given their current assignment.

    On an individually rational matching this is w's current employers plus
    every firm willing to block with her.
    """
    m.worker_choice(w)  # raises UnknownAgent
    return _willing(m, mu, "firms")[w]


def W_set_of_firm(m: Market, mu: Matching, f: AgentId) -> frozenset[AgentId]:
    """Workers that weakly want ``f``: current employees plus would-be blockers."""
    m.firm_choice(f)  # raises UnknownAgent
    return _willing(m, mu, "workers")[f]


# -- quasi-stability ----------------------------------------------------------


def _held_survives_all_offers(
    held: frozenset[AgentId],
    willing: frozenset[AgentId],
    choice,
    cap: int,
    assume_substitutable: bool,
    what: str,
) -> bool:
    """Check held <= C(held u T) for every T inside ``willing``.

    Under substitutability the largest T dominates, so opting in to that
    assumption reduces the check to the full set and the singletons.
    """
    if assume_substitutable:
        candidates = [willing - held] + [frozenset([x]) for x in sort_agents(willing - held)]
        return all(held <= choice.choose(held | t) for t in candidates)
    if len(willing) > cap:
        raise CapExceeded(
            f"{what}: quantifier over {len(willing)} willing partners exceeds cap {cap}; "
            "raise the cap or pass assume_substitutable=True"
        )
    items = tuple(sort_agents(willing))
    return all(held <= choice.choose(held | t) for t in _subsets(items))


def _holdings_survive(m: Market, mu: Matching, side: str, cap: int, assume_substitutable: bool) -> bool:
    """Every ``side`` agent keeps what it holds against any offers from its willing partners."""
    ids, choice, held, _ = _agents(m, mu, side)
    willing = _willing(m, mu, _other(side))
    what = f"{side[:-1]}-quasi-stability"
    return all(
        _held_survives_all_offers(held(a), willing[a], choice(a), cap, assume_substitutable, what)
        for a in ids
    )


def is_worker_quasi_stable(
    m: Market,
    mu: Matching,
    cap: int = 14,
    assume_substitutable: bool = False,
) -> bool:
    """Blocking may only involve workers whose current jobs all survive.

    Many-to-one: individually rational and every blocking pair involves an
    unemployed worker.  Many-to-many: individually rational and each worker's
    assignment survives any offer subset from her willing firms.
    """
    if not is_individually_rational(m, mu):
        return False
    if m.variant == "many_to_one":
        return all(mu.firm_of(p.worker) is None for p in blocking_pairs(m, mu))
    return _holdings_survive(m, mu, "workers", cap, assume_substitutable)


def is_firm_quasi_stable(
    m: Market,
    mu: Matching,
    cap: int = 14,
    assume_substitutable: bool = False,
) -> bool:
    """Blocking may never force a firm to displace current employees."""
    return is_individually_rational(m, mu) and _holdings_survive(
        m, mu, "firms", cap, assume_substitutable
    )


# -- partial orders -----------------------------------------------------------


def blair_geq_firms(m: Market, mu: Matching, mu2: Matching) -> bool:
    """Each firm chooses its mu-partners out of the pooled assignments."""
    return all(
        m.firm_choice(f).choose(mu.of_firm(f) | mu2.of_firm(f)) == mu.of_firm(f)
        for f in m.firm_ids
    )


def blair_geq_workers(m: Market, mu: Matching, mu2: Matching) -> bool:
    """Each worker chooses her mu-partners out of the pooled assignments."""
    return all(
        m.worker_choice(w).choose(mu.of_worker(w) | mu2.of_worker(w)) == mu.of_worker(w)
        for w in m.worker_ids
    )


def unanimous_geq_workers(m: Market, mu: Matching, mu2: Matching) -> bool:
    """Every worker weakly prefers her mu-firm (many-to-one only)."""
    if m.variant != "many_to_one":
        raise SchemaError("the unanimous worker order is defined for many-to-one markets")
    return all(
        m.worker_pref(w).weakly_prefers(mu.firm_of(w), mu2.firm_of(w)) for w in m.worker_ids
    )


def worker_order_geq(m: Market, mu: Matching, mu2: Matching) -> bool:
    """The worker-side improvement order: unanimous in many-to-one, Blair otherwise."""
    if m.variant == "many_to_one":
        return unanimous_geq_workers(m, mu, mu2)
    return blair_geq_workers(m, mu, mu2)
