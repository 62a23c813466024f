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

from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    NonConvergence,
    NotFirmQuasiStable,
    NotStable,
    NotWorkerQuasiStable,
)
from .market import AgentId, Market
from .matching import (
    Matching,
    _agents,
    _other,
    _require_side,
    _transpose,
    _willing,
    blair_geq_firms,
    blocking_pairs,
    is_firm_quasi_stable,
    is_stable,
    is_worker_quasi_stable,
    worker_order_geq,
)


def _require_quasi_stable(m: Market, side: str, named) -> None:
    """Raise unless each ``(what, mu)`` lies on the lattice ``side``'s operator walks.

    The predicate is looked up per call, so a wrapper installed on the module sees it.
    """
    if side == "firms":
        holds, error, label = is_worker_quasi_stable, NotWorkerQuasiStable, "worker"
    else:
        holds, error, label = is_firm_quasi_stable, NotFirmQuasiStable, "firm"
    for what, mu in named:
        if not holds(m, mu):
            raise error(f"{what} is not {label}-quasi-stable")


def _everyone_chooses(m: Market, mu: Matching, side: str, offers) -> Matching:
    """The matching in which each ``side`` agent of the ``(agent, offer)`` rows holds its choice."""
    choice = _agents(m, mu, side)[1]
    if side == "firms":
        out = Matching((a, b) for a, offer in offers for b in choice(a).choose(offer))
    else:
        out = Matching((b, a) for a, offer in offers for b in choice(a).choose(offer))
    out.validate_for(m)
    return out


def _pooled_join(m: Market, mu: Matching, mu2: Matching, side: str, check: bool) -> Matching:
    if check:
        _require_quasi_stable(m, side, (("first argument", mu), ("second argument", mu2)))
    ids, _, held, _ = _agents(m, mu, side)
    held2 = _agents(m, mu2, side)[2]
    return _everyone_chooses(m, mu, side, [(a, held(a) | held2(a)) for a in ids])


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


def _pools(m: Market, mu: Matching, side: str) -> dict[AgentId, frozenset[AgentId]]:
    """Every agent's :func:`B_set_of_firm` or :func:`B_set_of_worker`, one choice per agent."""
    ids, _, held, _ = _agents(m, mu, side)
    other_ids, other_choice, _, _ = _agents(m, mu, _other(side))
    willing = _willing(m, mu, side)
    claims = _transpose(((b, other_choice(b).choose(willing[b])) for b in other_ids), ids)
    return {a: claims[a] | held(a) for a in ids}


def B_set_of_firm(m: Market, mu: Matching, f: AgentId) -> frozenset[AgentId]:
    """The firm's operator pool: current workers plus best-match claimants.

    A worker claims ``f`` when ``f`` is among her chosen firms out of all
    firms willing to take her on.  Assumes ``mu`` is worker-quasi-stable.
    """
    m.firm_choice(f)  # raises UnknownAgent
    return _pools(m, mu, "firms")[f]


def B_set_of_worker(m: Market, mu: Matching, w: AgentId) -> frozenset[AgentId]:
    """The worker's operator pool: current firms plus firms that would pick her.

    A firm qualifies when it chooses ``w`` out of all workers that weakly
    want it.  Staying unmatched is implicitly available to the worker's
    choice.  Assumes ``mu`` is firm-quasi-stable.
    """
    m.worker_choice(w)  # raises UnknownAgent
    return _pools(m, mu, "workers")[w]


def _step(m: Market, mu: Matching, side: str, check: bool) -> Matching:
    if check:
        _require_quasi_stable(m, side, [("operator input", mu)])
    return _everyone_chooses(m, mu, side, _pools(m, mu, side).items())


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
                prev = self.matchings[i - 1]
                entry["improves"] = (
                    blair_geq_firms(m, mu, prev)
                    if self.side == "firms"
                    else worker_order_geq(m, mu, prev)
                )
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
    on steps (and a per-step improvement check) turns axiom violations in
    the market into :class:`NonConvergence` instead of a hang or a silently
    wrong answer.
    """
    _require_side(side)
    step = tarski_firm_step if side == "firms" else tarski_worker_step
    improves = blair_geq_firms if side == "firms" else worker_order_geq
    if check:
        _require_quasi_stable(m, side, [("iteration start", mu)])
    if cap is None:
        cap = iteration_cap(m)
    visited = [mu]
    current = mu
    for _ in range(cap):
        nxt = step(m, current, check=False)
        if nxt == current:
            if not is_stable(m, current):
                raise NonConvergence(
                    "operator reached a fixed point that is not stable; "
                    "the market violates substitutability"
                )
            return OperatorTrace(side, tuple(visited))
        if not improves(m, nxt, current):
            raise NonConvergence(
                "operator step failed to improve its side's order; "
                "the market violates substitutability"
            )
        visited.append(nxt)
        current = nxt
    raise NonConvergence(f"no fixed point within {cap} steps")


def _require_stable(m: Market, mu: Matching, mu2: Matching) -> None:
    if not is_stable(m, mu):
        raise NotStable("first argument is not stable")
    if not is_stable(m, mu2):
        raise NotStable("second argument is not stable")


def stable_join_firms(m: Market, mu: Matching, mu2: Matching, check: bool = True) -> Matching:
    """Least upper bound of two stable matchings in the firm order."""
    if check:
        _require_stable(m, mu, mu2)
    candidate = lambda_join(m, mu, mu2, check=False)
    return iterate_to_fixed_point(m, candidate, "firms", check=False).final


def stable_meet_firms(m: Market, mu: Matching, mu2: Matching, check: bool = True) -> Matching:
    """Greatest lower bound in the firm order (= the worker-order join)."""
    if check:
        _require_stable(m, mu, mu2)
    candidate = gamma_join(m, mu, mu2, check=False)
    return iterate_to_fixed_point(m, candidate, "workers", check=False).final


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

    def to_json(self, m: Market) -> dict:
        return {
            "matching": self.matching.to_json(),
            "steps": self.trace.steps,
            "verified_optimal": self.verified_optimal,
            "note": self.note,
        }


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
