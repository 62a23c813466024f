"""Matchings and the predicates defined on them.

A matching is a mutually consistent bipartite assignment: ``w in mu(f)``
exactly when ``f in mu(w)``.  It is stored as its two row views, ``mu(f)``
per firm and ``mu(w)`` per worker, one derived from the other, so the
invariant holds by construction.

Individual rationality, blocking, quasi-stability and the orders are read
off each agent's choice function, as the paper defines them; a worker's
linear order (with its quota) is just the choice function it induces.  The
variant still decides three things here: which edge sets are matchings of
the market (:meth:`Matching.validate_for`), the label a blocking pair
carries, and how a many-to-one worker holding an unacceptable firm ranks
the others (the linear order's natural-id tie-break, which only the willing
sets of non-individually-rational matchings can see).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, Mapping

from .errors import CapExceeded, SchemaError
from .market import SUBSET_CAP, AgentId, Market, QuotaLinearChoice, _fmt_set, _subsets, sort_agents

EMPTY: frozenset[AgentId] = frozenset()
SIDES = ("firms", "workers")


class Matching:
    """Immutable firm-worker assignment, stored as its two row views.

    No row is empty, so the firm view is the value: equality, hashing and
    ``edges`` read it.

    ``_proof`` is None or a weak reference to the market the library proved
    this matching stable in (:func:`_prove`), written only on a matching it
    built, before returning it.  It is not part of the value: equality,
    hashing, copies and pickles ignore it, and a copy carries none.
    """

    __slots__ = ("_by_firm", "_by_worker", "_proof")

    def __init__(self, edges: Iterable[tuple[AgentId, AgentId]] = ()):
        rows: dict[AgentId, set[AgentId]] = {}
        for f, w in edges:
            rows.setdefault(f, set()).add(w)
        self._set_views([(f, frozenset(ws)) for f, ws in rows.items()], "firms")

    @classmethod
    def _from_view(cls, rows: Iterable[tuple[AgentId, frozenset[AgentId]]], side: str) -> "Matching":
        """The matching whose ``side`` view is the ``(agent, frozenset)`` rows, one per agent.

        Empty rows are dropped, so the result equals the one built from its
        edges.
        """
        out = cls.__new__(cls)
        out._set_views(rows, side)
        return out

    def _set_views(self, rows: Iterable[tuple[AgentId, frozenset[AgentId]]], side: str) -> None:
        """Take the ``side`` view from the rows and derive the other view."""
        view: dict[AgentId, frozenset[AgentId]] = {}
        cols: dict[AgentId, list[AgentId]] = {}
        for a, bs in rows:
            if bs:
                view[a] = bs
                for b in bs:
                    col = cols.get(b)
                    if col is None:
                        cols[b] = [a]
                    else:
                        col.append(a)
        other = {b: frozenset(v) for b, v in cols.items()}
        self._by_firm, self._by_worker = (view, other) if side == "firms" else (other, view)
        self._proof = None

    def _patched(self, side: str, rows: Mapping[AgentId, frozenset[AgentId]]) -> "Matching":
        """This matching with each ``side`` agent of ``rows`` holding its row instead.

        Only the changed rows and the partners they gain or lose are visited.
        """
        firms = side == "firms"
        view, other = (self._by_firm, self._by_worker) if firms else (self._by_worker, self._by_firm)
        view, other = dict(view), dict(other)
        for a, bs in rows.items():
            old = view.pop(a, EMPTY)
            if bs:
                view[a] = bs
            for b in old - bs:
                rest = other[b] - {a}
                if rest:
                    other[b] = rest
                else:
                    del other[b]
            for b in bs - old:
                other[b] = other.get(b, EMPTY) | {a}
        out = Matching.__new__(Matching)
        out._by_firm, out._by_worker = (view, other) if firms else (other, view)
        out._proof = None
        return out

    @staticmethod
    def empty() -> "Matching":
        return Matching()

    @staticmethod
    def from_firm_assignments(assignments: Mapping[AgentId, Iterable[AgentId]]) -> "Matching":
        return Matching((f, w) for f, ws in assignments.items() for w in ws)

    @property
    def edges(self) -> frozenset[tuple[AgentId, AgentId]]:
        return frozenset([(f, w) for f, ws in self._by_firm.items() for w in ws])

    def of_firm(self, f: AgentId) -> frozenset[AgentId]:
        return self._by_firm.get(f, EMPTY)

    def of_worker(self, w: AgentId) -> frozenset[AgentId]:
        return self._by_worker.get(w, EMPTY)

    def firm_of(self, w: AgentId) -> AgentId | None:
        """The single employer in a many-to-one matching (None when unmatched)."""
        fs = self._by_worker.get(w)
        if fs is None:
            return None
        if len(fs) > 1:
            raise SchemaError(f"worker {w} holds {len(fs)} jobs in a many-to-one context")
        return next(iter(fs))

    def __eq__(self, other):
        return self is other or isinstance(other, Matching) and self._by_firm == other._by_firm

    def __hash__(self):
        return hash(frozenset(self._by_firm.items()))

    def __len__(self):
        return sum(map(len, self._by_firm.values()))

    def __reduce__(self):
        return Matching, (self.edges,)

    def __repr__(self):
        pairs = ", ".join(f"{f}-{w}" for f in sort_agents(self._by_firm) for w in sort_agents(self._by_firm[f]))
        return f"Matching({pairs})"

    def validate_for(self, m: Market) -> None:
        """Raise SchemaError if this assignment is not a matching of ``m``.

        Of several offenders the message names the first in natural id
        order, so it does not depend on hash order.
        """
        unknown = self._by_firm.keys() - m.firm_ids
        if unknown:
            raise SchemaError(f"matching references unknown firm {sort_agents(unknown)[0]!r}")
        unknown = self._by_worker.keys() - m.worker_ids
        if unknown:
            raise SchemaError(f"matching references unknown worker {sort_agents(unknown)[0]!r}")
        if m.variant == "many_to_many_sub" or len(self._by_worker) == len(self):
            return  # quotas are at least 1, so one job each fits every worker
        quota = m.worker_quotas
        over = [w for w, fs in self._by_worker.items() if len(fs) > quota[w]]
        if over:
            w = sort_agents(over)[0]
            n = len(self._by_worker[w])
            if m.variant == "many_to_one":
                raise SchemaError(f"worker {w} holds {n} firms in a many-to-one market")
            raise SchemaError(f"worker {w} holds {n} firms but has quota {quota[w]}")

    # -- JSON encoding ------------------------------------------------------

    @staticmethod
    def from_json(obj) -> "Matching":
        if not isinstance(obj, dict) or not isinstance(obj.get("assignments"), dict):
            raise SchemaError("matching must be an object with an 'assignments' map")
        edges = []
        for f, ws in obj["assignments"].items():
            if not isinstance(ws, list) or not all(isinstance(w, str) for w in ws):
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
        cols = [(f, _fmt_set(self.of_firm(f))) for f in m.firm_ids]
        unmatched = [w for w in m.worker_ids if not self.of_worker(w)]
        if unmatched:
            cols.append(("(unmatched)", _fmt_set(unmatched)))
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
    """True when the worker would quit a job: mu(w) != C_w(mu(w))."""
    held = mu.of_worker(w)
    return m.worker_choice(w).choose(held) != held


def is_individually_rational(m: Market, mu: Matching) -> bool:
    return not any(blocked_by_firm(m, mu, f) for f in m.firm_ids) and not any(
        blocked_by_worker(m, mu, w) for w in m.worker_ids
    )


# -- pair blocking ----------------------------------------------------------


def _worker_takes_on(m: Market, mu: Matching, w: AgentId) -> frozenset[AgentId]:
    """Firms ``f`` whose W-set holds the many-to-one worker ``w``: ``f in C_w(mu(w) | {f})``.

    A worker holding a firm outside her choice's support, one she finds
    unacceptable or one outside the market, keeps the linear order's
    natural-id tie-break below the empty option; one holding two firms
    raises :class:`SchemaError`.  Any other holding of hers is inside her
    choice's ground set, so its kernel is called directly.
    """
    c = m._worker_choices[w]
    held = mu._by_worker.get(w, EMPTY)
    if held and (len(held) > 1 or not held <= c.support):
        current = mu.firm_of(w)
        pref = m.worker_pref(w)
        return frozenset(f for f in m.firm_ids if pref.weakly_prefers(f, current))
    return c._accepting(held)


def _worker_block_reason(m: Market, mu: Matching, w: AgentId) -> str | None:
    """The label of the variant's textbook clause ``w`` blocks under.

    It is None for a responsive worker over quota, who blocks with nobody.
    """
    if m.variant == "many_to_one":
        reason = "worker_prefers"
    elif m.variant == "many_to_many_responsive":
        held, quota = len(mu.of_worker(w)), m.worker_quota(w)
        reason = "swap" if held == quota else "vacancy" if held < quota else None
    else:
        reason = "worker_chooses"
    return reason


def _blocking_pairs(m: Market, mu: Matching) -> Iterator[BlockingPair]:
    """Blocking pairs in (firm, worker) id order, found lazily.

    One ``accepting`` call per firm gives the workers it would add; each
    worker's side is computed the first time a firm reaches it.
    """
    position = m._worker_index.__getitem__
    clauses: dict[AgentId, tuple] = {}
    choices, view, _ = _agents(m, mu, "firms")
    worker_takes_on = _agents(m, mu, "workers")[2]
    for f, c in choices.items():
        held = view.get(f, EMPTY)
        for w in sorted(c.accepting(held) - held, key=position):
            if w not in clauses:
                clauses[w] = worker_takes_on(w), _worker_block_reason(m, mu, w)
            takes_on, reason = clauses[w]
            if reason is not None and f in takes_on:
                yield BlockingPair(f, w, reason)


def blocking_pairs(m: Market, mu: Matching) -> list[BlockingPair]:
    """All blocking pairs, sorted by (firm, worker) natural id order."""
    return list(_blocking_pairs(m, mu))


def has_blocking_pair(m: Market, mu: Matching) -> bool:
    return next(_blocking_pairs(m, mu), None) is not None


def is_stable(m: Market, mu: Matching) -> bool:
    """Individually rational with no blocking pair, from one ``accepting`` call per agent."""
    return _stable_tables(m, mu, False) is not None


def _stable_tables(m: Market, mu: Matching, direct: bool = True, base=None, known=(None, None)):
    """``(firms, workers)``, each agent's ``accepting(held)``, if ``mu`` is stable; else None.

    For ``x`` in ``held``, ``x in accepting(held)`` exactly when
    ``x in C(held)``; so ``held <= accepting(held)`` is ``held <= C(held)``,
    which is individual rationality, ``C(held) == held``, for a choice that
    contracts.  Set-list, quota-linear and replica choices contract by
    construction; any other choice is asked ``C(held)`` once more.  A
    blocking pair is then a firm ``f`` and a worker ``w`` it would add with
    ``f`` in w's accepting set.  The worker side needs no variant branch: on
    an individually rational matching no many-to-one worker holds an
    unacceptable firm and no responsive worker is over quota, so
    :func:`_worker_takes_on` is the plain ``accepting`` set and every
    blocking pair carries a label.

    ``direct`` calls the kernels themselves, for a ``mu`` already validated
    as a matching of ``m``.  ``base`` is ``(mu0, tables0)``: a stable
    matching of ``m`` and its tables.  An agent holding what it holds in
    ``mu0`` keeps its set and its rationality from there, and a pair of two
    such agents blocks ``mu0`` if it blocks ``mu``, so only the market
    agents whose rows differ from ``mu0``'s are visited, in id order, and
    only their pairs scanned.  No id outside the market is visited; a
    market agent whose row names one has a row that differs, and its public
    ``accepting`` refuses the id.  ``known`` holds, per side,
    None or that side's accepting table at ``mu``, which a visited agent
    reads its set from.
    """
    if base is None:
        tables, moved = ({}, {}), (m.firm_ids, m.worker_ids)
    else:
        mu0, (firms0, workers0) = base
        tables = (dict(firms0), dict(workers0))
        moved = (
            [f for f in m.firm_ids if mu._by_firm.get(f) != mu0._by_firm.get(f)],
            [w for w in m.worker_ids if mu._by_worker.get(w) != mu0._by_worker.get(w)],
        )
    for side, out, agents, table in zip(SIDES, tables, moved, known):
        choices, view, _ = _agents(m, mu, side)
        for a in agents:
            c, held = choices[a], view.get(a, EMPTY)
            if table is not None:
                taken = table[a]
            else:
                taken = c._accepting(held) if direct else c.accepting(held)
            if not held <= taken or not (c._contracts or c._choose(held) <= held):
                return None
            out[a] = taken
    firms, workers = tables
    for f in moved[0]:
        for w in firms[f] - mu._by_firm.get(f, EMPTY):
            if f in workers[w]:
                return None
    if base is not None:
        for w in moved[1]:
            for f in workers[w] - mu._by_worker.get(w, EMPTY):
                if w in firms[f]:
                    return None
    return tables


def _proven(m: Market, mu: Matching) -> bool:
    """Whether the library proved ``mu`` stable in this very market object.

    A gate may then skip validation and :func:`_stable_tables`.  The public
    predicates never ask: they decide from the matching alone.
    """
    proof = mu._proof
    return proof is not None and proof() is m


def _prove(m: Market, mu: Matching) -> None:
    """Record that ``mu``, a matching the library built, is stable in ``m``.

    The market is held weakly: a proof never keeps it alive, and one whose
    market is gone is never trusted again.  Only a matching not yet handed
    to a caller is written, so no query writes to anything it was given.
    """
    mu._proof = weakref.ref(m)


# -- willing-partner sets ----------------------------------------------------


def _transpose(rows: Iterable[tuple[AgentId, Iterable[AgentId]]], keys: Iterable[AgentId]) -> dict:
    """Turn ``(a, bs)`` rows into ``{b: frozenset of a with b in bs}`` over ``keys``."""
    cols: dict[AgentId, list[AgentId]] = {k: [] for k in keys}
    for a, bs in rows:
        for b in bs:
            cols[b].append(a)
    return {k: frozenset(v) for k, v in cols.items()}


def _require_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError("side must be 'firms' or 'workers'")


def _other(side: str) -> str:
    return "workers" if side == "firms" else "firms"


def _agents(m: Market, mu: Matching, side: str, direct: bool = False):
    """``(choices, view, takes_on)`` of one side under ``mu``.

    ``choices`` is the market's ``{agent: choice function}`` table, in id
    order, and ``view`` the matching's ``{agent: partners}`` table, which
    leaves out unmatched agents: read it with ``view.get(a, EMPTY)``.  The
    side-generic bodies read both sides through this; outside :mod:`market`
    only :func:`_worker_takes_on` reads a choice table otherwise.
    ``takes_on(a)`` is every partner ``a`` would keep or add, from the
    kernel itself when ``direct``, for a ``mu`` already validated as a
    matching of ``m``.
    """
    if side == "firms":
        choices, view = m._firm_choices, mu._by_firm
    else:
        choices, view = m._worker_choices, mu._by_worker
        if m.variant == "many_to_one":
            return choices, view, partial(_worker_takes_on, m, mu)

    if direct:
        def takes_on(a: AgentId) -> frozenset[AgentId]:
            return choices[a]._accepting(view.get(a, EMPTY))
    else:
        def takes_on(a: AgentId) -> frozenset[AgentId]:
            return choices[a].accepting(view.get(a, EMPTY))

    return choices, view, takes_on


def _willing(m: Market, mu: Matching, side: str) -> dict[AgentId, frozenset[AgentId]]:
    """Every :func:`F_set_of_worker` (firms) or :func:`W_set_of_firm` (workers), one query per agent."""
    choices, _, takes_on = _agents(m, mu, side)
    return _transpose(((a, takes_on(a)) for a in choices), _agents(m, mu, _other(side))[0])


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


def _holdings_survive(
    m: Market, mu: Matching, side: str, cap: int = SUBSET_CAP, assume_substitutable: bool = False
) -> bool:
    """Every ``side`` agent keeps what it holds against any offer from its willing partners.

    That is ``held <= C(held | T)`` for every ``T`` inside ``willing - held``;
    individual rationality is not checked here.  Empty holdings always
    survive.  Under substitutability the full offer decides: a held partner
    chosen from ``held | willing`` stays chosen from every smaller offer.
    That holds for every :class:`QuotaLinearChoice`, which is substitutable
    by construction, and for any choice when the caller assumes it.  Every
    other choice is checked on each ``T``, and more than ``cap`` willing
    partners raise :class:`CapExceeded`.
    """
    choices, view, _ = _agents(m, mu, side)
    partners = _agents(m, mu, _other(side))[0]
    willing = _willing(m, mu, _other(side))
    for a, c in choices.items():
        held = view.get(a)
        if not held:
            continue
        if assume_substitutable or isinstance(c, QuotaLinearChoice):
            offers = [willing[a]]
        elif len(willing[a]) > cap:
            raise CapExceeded(
                f"{side[:-1]}-quasi-stability: quantifier over {len(willing[a])} willing partners "
                f"exceeds cap {cap}; raise the cap or pass assume_substitutable=True"
            )
        else:
            offers = _subsets(tuple(x for x in partners if x in willing[a] and x not in held))
        if not all(held <= c.choose(held | t) for t in offers):
            return False
    return True


def is_worker_quasi_stable(
    m: Market,
    mu: Matching,
    cap: int = SUBSET_CAP,
    assume_substitutable: bool = False,
) -> bool:
    """Blocking may only involve workers whose current jobs all survive.

    Individually rational, and each worker's assignment survives any offer
    subset from her willing firms.  For a many-to-one worker with a linear
    order this is the textbook form on individually rational matchings:
    every blocking pair involves an unemployed worker.
    """
    return is_individually_rational(m, mu) and _holdings_survive(
        m, mu, "workers", cap, assume_substitutable
    )


def is_firm_quasi_stable(
    m: Market,
    mu: Matching,
    cap: int = SUBSET_CAP,
    assume_substitutable: bool = False,
) -> bool:
    """Blocking may never force a firm to displace current employees."""
    return is_individually_rational(m, mu) and _holdings_survive(
        m, mu, "firms", cap, assume_substitutable
    )


# -- partial orders -----------------------------------------------------------


def _blair_geq(m: Market, mu: Matching, mu2: Matching, side: str) -> bool:
    """Each ``side`` agent chooses its mu-partners out of the pooled assignments."""
    choices, view, _ = _agents(m, mu, side)
    view2 = _agents(m, mu2, side)[1]
    for a, c in choices.items():
        held = view.get(a, EMPTY)
        if c.choose(held | view2.get(a, EMPTY)) != held:
            return False
    return True


def blair_geq_firms(m: Market, mu: Matching, mu2: Matching) -> bool:
    """Each firm chooses its mu-partners out of the pooled assignments."""
    return _blair_geq(m, mu, mu2, "firms")


def blair_geq_workers(m: Market, mu: Matching, mu2: Matching) -> bool:
    """Each worker chooses her mu-partners out of the pooled assignments."""
    return _blair_geq(m, mu, mu2, "workers")


def unanimous_geq_workers(m: Market, mu: Matching, mu2: Matching) -> bool:
    """Every worker weakly prefers her mu-firm (many-to-one only)."""
    if m.variant != "many_to_one":
        raise SchemaError("the unanimous worker order is defined for many-to-one markets")
    return all(
        m.worker_pref(w).weakly_prefers(mu.firm_of(w), mu2.firm_of(w)) for w in m.worker_ids
    )


def worker_order_geq(m: Market, mu: Matching, mu2: Matching) -> bool:
    """The worker-side improvement order: the workers' Blair order in every variant.

    For many-to-one workers it agrees with :func:`unanimous_geq_workers`
    unless some worker holds an unacceptable firm in both matchings: her
    choice drops it, so the Blair order does not rank ``mu`` at or above
    ``mu2``, while the unanimous order falls back on the linear order's
    natural-id tie-break.
    """
    return blair_geq_workers(m, mu, mu2)
