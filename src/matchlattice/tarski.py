"""Re-equilibration dynamics on the quasi-stable lattices.

Two stable matchings pool their assignments into a candidate that is only
quasi-stable in general: ``lambda_join`` lets every firm choose from the
union (worker-quasi-stable), ``gamma_join`` lets every worker choose from
the union (firm-quasi-stable).  An isotone operator then walks the candidate
up its lattice until it hits a fixed point, and the fixed points are exactly
the stable matchings, so the walk lands on the join:

* firm side:   each firm hires from its current workers plus everyone who
  names it their best willing match (lay-off chains; improves the firm
  order),
* worker side: each worker takes the best firms that would pick her out of
  their willing pools (vacancy chains; improves the worker order).

Firm-order meet equals worker-order join by duality on the stable set, so
both lattice operations for both orders come out of the same two walks.

The two sides are exact duals: the candidate, pools and step are defined
once here, parameterised by ``side`` (read through ``matching._agents``),
and the public firm and worker names delegate to them.
"""

from __future__ import annotations

from collections import defaultdict
from contextvars import ContextVar
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    NonConvergence,
    NotFirmQuasiStable,
    NotStable,
    NotWorkerQuasiStable,
    SchemaError,
)
from .market import AgentId, Market
from .matching import (
    EMPTY,
    SIDES,
    Matching,
    _agents,
    _other,
    _prove,
    _proven,
    _require_side,
    _stable_tables,
    blair_geq_firms,
    blocking_pairs,
    is_firm_quasi_stable,
    is_worker_quasi_stable,
    worker_order_geq,
)


def _require(m: Market, on: str, named, message: str = "{} is not {}"):
    """Raise unless each ``(what, mu)`` is a matching of ``m`` in the set ``on`` names.

    ``on`` is ``"stable"``, or the side whose operator walks the lattice:
    ``"firms"`` the worker-quasi-stable set, ``"workers"`` the
    firm-quasi-stable set.  An edge set that is not a matching of ``m``
    raises :class:`SchemaError`; one outside the set raises with
    ``message`` filled in with ``what`` and the set's name.  The
    quasi-stability predicates are looked up per call, so a wrapper
    installed on the module sees them.  For ``"stable"`` it returns each
    matching's accepting tables; a later matching visits only the agents
    whose holdings differ from the one before it.  A matching the library
    proved stable in this market object (``matching._proven``) is trusted
    without validation or a pass, and its entry is None.
    """
    if on == "stable":
        tables, base = [], None
        for what, mu in named:
            if _proven(m, mu):
                tables.append(None)
                continue
            mu.validate_for(m)
            found = _stable_tables(m, mu, True, base)
            if found is None:
                raise NotStable(message.format(what, "stable"))
            tables.append(found)
            base = (mu, found)
        return tables
    if on == "firms":
        holds, error, label = is_worker_quasi_stable, NotWorkerQuasiStable, "worker-quasi-stable"
    else:
        holds, error, label = is_firm_quasi_stable, NotFirmQuasiStable, "firm-quasi-stable"
    for what, mu in named:
        mu.validate_for(m)
        if not holds(m, mu):
            raise error(message.format(what, label))


def _from_rows(m: Market, side: str, rows) -> Matching:
    """The matching in which each ``side`` agent of the ``(agent, frozenset)`` rows holds them."""
    out = Matching._from_view(rows, side)
    out.validate_for(m)
    return out


def _pooled_join(m: Market, mu: Matching, mu2: Matching, side: str, check: bool) -> Matching:
    if check:
        _require(m, side, (("first argument", mu), ("second argument", mu2)))
    walk = _current_walk.get()
    joining = walk is not None and walk.join == (m, mu, mu2, side)
    if joining and walk.tables:
        out = walk.candidate()
    else:
        choices, view, _ = _agents(m, mu, side)
        view2 = _agents(m, mu2, side)[1]
        out = _from_rows(
            m, side, [(a, c.choose(view.get(a, EMPTY) | view2.get(a, EMPTY))) for a, c in choices.items()]
        )
    if joining:
        walk.out = out
    return out


def lambda_join(m: Market, mu: Matching, mu2: Matching, check: bool = True) -> Matching:
    """Pool both assignments and let every firm choose.

    The result is the firm-order join of the inputs within the
    worker-quasi-stable set.  Inputs must be worker-quasi-stable unless
    ``check=False``, which drops every guarantee.
    """
    return _pooled_join(m, mu, mu2, "firms", check)


def gamma_join(m: Market, mu: Matching, mu2: Matching, check: bool = True) -> Matching:
    """Pool both assignments and let every worker choose.

    Dual of :func:`lambda_join`: the worker-order join within the
    firm-quasi-stable set.  With linear worker orders this is the pointwise
    best employer.
    """
    return _pooled_join(m, mu, mu2, "workers", check)


def _toggle(table: dict, toggled: dict) -> None:
    """Toggle each agent of ``toggled[b]`` in the frozenset ``table[b]``."""
    for b, agents in toggled.items():
        table[b] = table[b].symmetric_difference(agents)


class _Walk:
    """One side's operator tables, serving only ``out``: the last matching the walk validated or built.

    ``out`` is a step's output, the start :func:`iterate_to_fixed_point`
    validated, or a join's candidate.  A step needs, for each ``side``
    agent, who it would take on; for each other-side agent, the side agents
    willing to take it on and its claim (its choice among them); and for
    each ``side`` agent, its choice from its pool, the claims naming it plus
    what it holds.  Once the tables are at ``out``, a step from ``out``
    re-evaluates just what the last step's moves reach: the agents that
    moved, the other-side agents whose willing sets they change, and the
    owners of the claims that change in turn.  A consistent choice whose
    willing set lost only agents outside its claim keeps the claim.  On
    ``out`` the kernels are called directly and the next matching patches
    its changed rows.  Any other edge set gets the full evaluation, through
    the public ``choose``/``accepting``, and is rebuilt from its rows.
    Agents are visited in id order, so the calls made and any exception
    raised do not depend on hash order.

    A walk made for a join holds its inputs ``join`` and, when the stability
    gate ran, its list ``tables``: each input's accepting tables, or None
    for an input the gate trusted on its proof.  When both are there, the
    candidate and the first evaluation read them wherever a holding equals
    an input's.
    """

    def __init__(self, m: Market, side: str, pair=(None, None), tables=None):
        self.m, self.side = m, side
        self.out: Matching | None = None
        self.takes: dict[AgentId, frozenset[AgentId]] | None = None  # set once the tables are built
        self.join, self.tables = (m, *pair, side), tables
        self.k = SIDES.index(side)
        self.seed: dict | None = None  # the candidate's takes-on sets read off the tables
        firms, workers = m._firm_index, m._worker_index
        self.position, self.other_position = (firms, workers) if side == "firms" else (workers, firms)

    def _refresh(self, mu: Matching, direct: bool):
        """Bring the takes-on, willing and claim tables to ``mu``; return the agents to re-choose.

        Only a ``direct`` call, on ``out``, starts from the tables.  ``out``
        stays unset until :meth:`advance` completes, so after a raise the
        next call is a full evaluation.
        """
        choice_of, _, takes_on = _agents(self.m, mu, self.side, direct)
        other_choice_of = _agents(self.m, mu, _other(self.side))[0]
        full = not direct or self.takes is None
        self.out = None
        seed, self.seed = self.seed or {}, None  # only the first evaluation is at the candidate
        if full:
            self.takes, self.claimants = dict.fromkeys(choice_of, EMPTY), dict.fromkeys(choice_of, EMPTY)
            self.willing, self.claims = dict.fromkeys(other_choice_of, EMPTY), dict.fromkeys(other_choice_of, EMPTY)
            self.choices: dict[AgentId, frozenset[AgentId]] = {}
            self.movers: set[AgentId] = set()
            # The choices the improvement check asks, in id order.
            self.unsure = [a for a, c in choice_of.items() if not (c._consistent and c._contracts)]
            dirty = choice_of
        else:
            touched = self.movers  # the rows the last step changed
            dirty = sorted(touched, key=self.position.__getitem__)
        # Tables start empty, so a fresh walk toggles in whole sets.
        takes, toggled = self.takes, defaultdict(list)
        for a in dirty:
            old = takes[a]
            new = seed.get(a)
            if new is None:
                new = takes_on(a)
            takes[a] = new
            for b in old ^ new if old else new:
                toggled[b].append(a)
        _toggle(self.willing, toggled)
        reclaim = other_choice_of if full else sorted(toggled, key=self.other_position.__getitem__)
        claims, willing, changed = self.claims, self.willing, defaultdict(list)
        # Willing sets hold market agents only, so the kernels answer directly.
        for b in reclaim:
            c, old, now = other_choice_of[b], claims[b], willing[b]
            if not full and c._consistent and not any(a in now or a in old for a in toggled[b]):
                continue
            claims[b] = new = c._choose(now)
            for a in old ^ new if old else new:
                changed[a].append(b)
        _toggle(self.claimants, changed)
        return choice_of if full else sorted(changed.keys() | touched, key=self.position.__getitem__)

    def pool(self, mu: Matching, a: AgentId) -> frozenset[AgentId]:
        """``a``'s operator pool under ``mu``: what it holds plus the claims naming it."""
        self._refresh(mu, False)
        return _agents(self.m, mu, self.side)[1].get(a, EMPTY) | self.claimants[a]

    def candidate(self) -> Matching:
        """The pooled candidate of the two stable inputs the gate passed.

        The gate found, or trusted a proof, that ``C(h) == h`` for every
        holding ``h``, so an agent that both inputs give ``h`` keeps it
        without a choice; the others choose from both holdings.  The
        candidate patches the first input's rows.  When the gate has both
        inputs' tables, an agent holding an input's row takes on the set in
        its table; otherwise the first evaluation has no seed.
        """
        _, mu, mu2, side = self.join
        choices, view, _ = _agents(self.m, mu, side)
        view2 = _agents(self.m, mu2, side)[1]
        first, second = self.tables
        seed = None if first is None or second is None else dict(first[self.k])
        rows = {}
        for a, c in choices.items():
            h, h2 = view.get(a, EMPTY), view2.get(a, EMPTY)
            if h != h2:
                row = c._choose(h | h2)
                if row != h:
                    rows[a] = row
                    if seed is not None:
                        if row == h2:
                            seed[a] = second[self.k][a]
                        else:
                            del seed[a]
        self.seed = seed
        out = mu._patched(side, rows)
        out.validate_for(self.m)
        return out

    def advance(self, mu: Matching) -> Matching:
        """One operator application to ``mu``; ``mu`` itself when nobody moves.

        Any edge set but ``out`` is rebuilt from its ``side`` agents' rows,
        and ``mu`` stands in for a rebuild equal to it.
        """
        direct = mu is self.out
        choice_of, view, _ = _agents(self.m, mu, self.side)
        rechoose = self._refresh(mu, direct)
        claimants, choices, movers = self.claimants, self.choices, self.movers
        for a in rechoose:
            h, c = view.get(a, EMPTY), choice_of[a]
            choices[a] = chosen = c._choose(h | claimants[a]) if direct else c.choose(h | claimants[a])
            if chosen == h:
                movers.discard(a)
            else:
                movers.add(a)
        if not direct:
            out = _from_rows(self.m, self.side, choices.items())
            if out == mu:
                out = mu
        elif movers:
            out = mu._patched(self.side, {a: choices[a] for a in movers})
            out.validate_for(self.m)
        else:
            out = mu
        self.out = out
        return out

    def climbed(self, mu: Matching) -> bool:
        """Whether the last output is at or above its input ``mu`` in the side's Blair order.

        Each agent must choose what it now holds out of both holdings
        (Blair 1988).  What an agent holds now is ``C(pool)``, its choice
        out of its pool under ``mu``, which holds both holdings.  A choice
        that is consistent and contracts therefore picks it out of their
        union too, so only the other choices are asked.
        """
        choice_of, view, _ = _agents(self.m, self.out, self.side)
        before = _agents(self.m, mu, self.side)[1]
        for a in self.unsure:
            held = view.get(a, EMPTY)
            if choice_of[a]._choose(held | before.get(a, EMPTY)) != held:
                return False
        return True

    def stable(self, mu: Matching) -> bool:
        """Whether ``mu``, the matching the tables are at, is stable.

        The walking side's accepting sets are its ``takes``.  At a fixed
        point every agent of that side holds ``C(pool)``; for a many-to-one
        worker that is at most one acceptable firm, so her takes-on set is
        her plain accepting set.  After a checked join's gate only the
        agents whose holdings differ from the first input's are visited,
        unless the gate trusted that input's proof and has no tables for it.
        """
        first = self.tables[0] if self.tables else None
        base = None if first is None else (self.join[1], first)
        known = [None, None]
        known[self.k] = self.takes
        return _stable_tables(self.m, mu, True, base, known) is not None


# The walk an ``iterate_to_fixed_point`` call carries across its steps.
_current_walk: ContextVar[_Walk | None] = ContextVar("_current_walk", default=None)


def B_set_of_firm(m: Market, mu: Matching, f: AgentId) -> frozenset[AgentId]:
    """The firm's operator pool: current workers plus best-match claimants.

    A worker claims ``f`` when ``f`` is among her chosen firms out of all
    firms willing to take her on.  Assumes ``mu`` is worker-quasi-stable.
    """
    m.firm_choice(f)  # raises UnknownAgent
    return _Walk(m, "firms").pool(mu, f)


def B_set_of_worker(m: Market, mu: Matching, w: AgentId) -> frozenset[AgentId]:
    """The worker's operator pool: current firms plus firms that would pick her.

    A firm qualifies when it chooses ``w`` out of all workers that weakly
    want it.  Staying unmatched is implicitly available to the worker's
    choice.  Assumes ``mu`` is firm-quasi-stable.
    """
    m.worker_choice(w)  # raises UnknownAgent
    return _Walk(m, "workers").pool(mu, w)


def _walk_for(m: Market, mu: Matching, side: str) -> _Walk:
    """The walk in progress if ``mu`` is its ``out`` on ``m`` and ``side``; else a fresh walk."""
    walk = _current_walk.get()
    if walk is not None and walk.out is mu and walk.m is m and walk.side == side:
        return walk
    return _Walk(m, side)


def _step(m: Market, mu: Matching, side: str, check: bool) -> Matching:
    if check:
        _require(m, side, [("operator input", mu)])
    return _walk_for(m, mu, side).advance(mu)


def tarski_firm_step(m: Market, mu: Matching, check: bool = True) -> Matching:
    """One lay-off-chain round: every firm chooses from its operator pool."""
    return _step(m, mu, "firms", check)


def tarski_worker_step(m: Market, mu: Matching, check: bool = True) -> Matching:
    """One vacancy-chain round: every worker chooses from her operator pool."""
    return _step(m, mu, "workers", check)


@dataclass(frozen=True)
class OperatorTrace:
    """The matchings visited on the way to a fixed point."""

    side: str
    matchings: tuple[Matching, ...]

    @property
    def steps(self) -> int:
        return len(self.matchings) - 1

    @property
    def final(self) -> Matching:
        return self.matchings[-1]

    def to_json(self, m: Market) -> dict:
        entries = []
        for i, mu in enumerate(self.matchings):
            entry = {
                "step": i,
                "matching": mu.to_json(),
                "blocking_pairs": len(blocking_pairs(m, mu)),
            }
            if i > 0:
                # The order this side climbs, looked up per call so a
                # wrapper installed on the module sees it.
                improves = blair_geq_firms if self.side == "firms" else worker_order_geq
                entry["improves"] = improves(m, mu, self.matchings[i - 1])
            entries.append(entry)
        return {"side": self.side, "steps": self.steps, "trace": entries}


def iteration_cap(m: Market) -> int:
    """Generous bound on any strictly improving chain: 2 |F| |W| L + 1."""
    return 2 * max(1, len(m.firm_ids)) * max(1, len(m.worker_ids)) * m.max_list_length + 1


def iterate_to_fixed_point(
    m: Market,
    mu: Matching,
    side: str,
    check: bool = True,
    cap: int | None = None,
) -> OperatorTrace:
    """Apply one side's operator until it stops moving.

    ``side`` names the operator: ``"firms"`` walks worker-quasi-stable
    matchings up the firm order, ``"workers"`` walks firm-quasi-stable
    matchings up the worker order.  The end of the trace is stable.  A cap
    on steps (the application that confirms the fixed point is not one)
    and a per-step improvement check turn axiom violations in the market
    into :class:`NonConvergence` instead of a hang or a silently wrong
    answer.  So does a step that builds an edge set that is not a
    matching of ``m``, as one from a start that is not quasi-stable can; a
    start that is not a matching of ``m`` raises :class:`SchemaError`.

    A fixed point the walk built proves itself stable (``matching._prove``),
    so a later checked join, meet or lifted operation in ``m`` trusts it.
    A 0-step walk returns its start as it was given, unproven.
    """
    _require_side(side)
    step = tarski_firm_step if side == "firms" else tarski_worker_step
    walk = _walk_for(m, mu, side)
    if check:
        _require(m, side, [("iteration start", mu)])
    elif walk.out is not mu:
        mu.validate_for(m)
    walk.out = mu
    if cap is None:
        cap = iteration_cap(m)
    visited = [mu]
    current = mu
    token = _current_walk.set(walk)
    try:
        for i in range(1, cap + 2):  # cap steps, then the confirming application
            try:
                nxt = step(m, current, check=False)
            except SchemaError as e:
                raise NonConvergence(
                    f"operator step {i} built no matching ({e}); the start is not "
                    "quasi-stable or the market violates substitutability"
                ) from e
            if nxt == current:
                if not walk.stable(current):
                    raise NonConvergence(
                        "operator reached a fixed point that is not stable; "
                        "the market violates substitutability"
                    )
                if current is not mu:
                    _prove(m, current)
                return OperatorTrace(side, tuple(visited))
            if i > cap:
                break
            if not walk.climbed(current):
                raise NonConvergence(
                    "operator step failed to improve its side's order; "
                    "the market violates substitutability"
                )
            visited.append(nxt)
            current = nxt
    finally:
        _current_walk.reset(token)
    raise NonConvergence(f"no fixed point within {cap} steps")


def _join_trace(m: Market, named, side: str, check: bool = True, message: str = "{} is not {}") -> OperatorTrace:
    """``side``'s operator walk from the pooled candidate of two stable matchings.

    ``named`` is ``((what, mu), (what2, mu2))``.  The walk ends on their
    join in ``side``'s order: the firm order for ``"firms"``, the worker
    order (the firm-order meet) for ``"workers"``.  With ``check`` the
    inputs pass the stability gate (:func:`_require`, which fills
    ``message`` in), and the candidate and the walk reuse the gate's
    accepting tables.  The walk is made here and carried into the candidate
    and the iteration, so the candidate is validated once.

    A checked join whose candidate equals an input returns that input
    without walking, as the 0-step trace the walk would give.  The
    candidate's row for each ``side`` agent ``a`` is
    ``C_a(mu(a) | mu2(a))``.  If that is ``mu(a)`` for every ``a``, then
    ``mu >= mu2`` in ``side``'s Blair order (``matching._blair_geq``).  The
    gate found ``C_a(mu(a)) == mu(a)``, so ``mu >= mu`` too.  So ``mu`` is a
    stable upper bound of both inputs, and every upper bound of both is at
    or above ``mu``: ``mu`` is their join.  The same holds for ``mu2``.
    Substitutability is not used, so on a market that violates it the
    result is still the Blair-order join.  Unchecked joins always walk.

    The result is proven stable in ``m`` (``matching._prove``): it is the
    candidate or a step's output, built here, and either equals a stable
    input or passed the walk's fixed-point check.
    """
    tables = _require(m, "stable", named, message) if check else None
    (_, mu), (_, mu2) = named
    token = _current_walk.set(_Walk(m, side, (mu, mu2), tables))
    try:
        candidate = (lambda_join if side == "firms" else gamma_join)(m, mu, mu2, check=False)
        if check and (candidate == mu or candidate == mu2):
            trace = OperatorTrace(side, (candidate,))
        else:
            trace = iterate_to_fixed_point(m, candidate, side, check=False)
    finally:
        _current_walk.reset(token)
    _prove(m, trace.final)
    return trace


def stable_join_firms(m: Market, mu: Matching, mu2: Matching, check: bool = True) -> Matching:
    """Least upper bound of two stable matchings in the firm order."""
    return _join_trace(m, (("first argument", mu), ("second argument", mu2)), "firms", check).final


def stable_meet_firms(m: Market, mu: Matching, mu2: Matching, check: bool = True) -> Matching:
    """Greatest lower bound in the firm order (= the worker-order join)."""
    return _join_trace(m, (("first argument", mu), ("second argument", mu2)), "workers", check).final


def stable_join_workers(m: Market, mu: Matching, mu2: Matching, check: bool = True) -> Matching:
    """Worker-order join; by duality the same matching as the firm-order meet."""
    return stable_meet_firms(m, mu, mu2, check=check)


def stable_meet_workers(m: Market, mu: Matching, mu2: Matching, check: bool = True) -> Matching:
    """Worker-order meet; by duality the same matching as the firm-order join."""
    return stable_join_firms(m, mu, mu2, check=check)


@dataclass(frozen=True)
class ExtremalResult:
    matching: Matching
    trace: OperatorTrace
    verified_optimal: bool | None
    note: str


def extremal_stable(m: Market, side: str, verify: bool = True, budget=None) -> ExtremalResult:
    """A stable matching reached from the empty matching, best for ``side``.

    The empty matching is the minimum of both quasi-stable lattices, and an
    isotone operator started at the minimum lands on its least fixed point.
    The least stable matching in one side's order is the other side's
    optimum, so the firm-optimal matching comes out of the worker-side walk
    and vice versa.

    At desk scale the result is checked against the enumeration oracle's
    fold of pairwise joins over the whole stable set; when enumeration is
    over budget the claim downgrades to "a stable matching reached from the
    empty matching" with ``verified_optimal=None``.
    """
    _require_side(side)
    operator_side = _other(side)
    trace = iterate_to_fixed_point(m, Matching.empty(), operator_side, check=False)
    result = trace.final
    if not verify:
        return ExtremalResult(result, trace, None, "verification skipped")

    from . import oracle  # deferred: oracle depends on this module

    try:
        stable = oracle.enumerate_stable(m, budget)
    except BudgetExceeded as e:
        return ExtremalResult(
            result, trace, None, f"a stable matching reached from the empty matching ({e})"
        )
    if not stable:
        return ExtremalResult(result, trace, False, "oracle found no stable matchings")
    order = "blair_firms" if side == "firms" else "worker"
    top = stable[0]
    for s in stable[1:]:
        joined = oracle.brute_join(m, order, top, s, stable)
        if joined is None:
            return ExtremalResult(result, trace, False, "stable set has no pairwise join")
        top = joined
    label = "firm" if side == "firms" else "worker"
    if top == result:
        return ExtremalResult(
            result, trace, True, f"verified {label}-optimal over {len(stable)} stable matchings"
        )
    return ExtremalResult(result, trace, False, "fixed point differs from the oracle's optimum")
