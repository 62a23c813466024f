"""Agents, choice functions, preferences and markets.

Three market variants share one engine:

* ``many_to_one``        -- firms choose worker sets, workers hold a strict
  linear order over individual firms (at most one job each).
* ``many_to_many_responsive`` -- workers hold a linear order plus a quota
  ``q_w`` and may hold up to ``q_w`` jobs.
* ``many_to_many_sub``   -- both sides have set-valued choice functions.

Linear orders induce choice functions (take the best ``quota`` acceptable
partners offered), so every variant exposes a choice function per agent and
:mod:`matchlattice.tarski` does not branch on the variant.
:mod:`matchlattice.matching` does, wherever a variant has a textbook form of
its own: validity of a matching, individual rationality, the worker side of
a blocking pair, the many-to-one willing sets and worker order, and
many-to-one worker-quasi-stability.

Beyond those forms the two sides are duals: willing sets, quasi-stability,
candidates, pools and steps each have one side-generic body in
``matching``/``tarski``, and the public firm and worker names delegate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

from .errors import CapExceeded, ReferentialIntegrity, SchemaError, UnknownAgent

AgentId = str

VARIANTS = ("many_to_one", "many_to_many_responsive", "many_to_many_sub")

_NATURAL_SPLIT = re.compile(r"(\d+)")


def agent_key(a: AgentId):
    """Natural sort key: ``w2`` before ``w10``, ``w1#1`` before ``w1#2``."""
    return tuple(int(p) if p.isdigit() else p for p in _NATURAL_SPLIT.split(a))


def sort_agents(agents: Iterable[AgentId]) -> list[AgentId]:
    return sorted(agents, key=agent_key)


def _fmt_set(s: Iterable[AgentId]) -> str:
    inner = ",".join(sort_agents(s))
    return "{" + inner + "}"


class ChoiceFunction:
    """A rule selecting a subset from any offered subset of the ground set.

    Subclasses implement ``_choose``; results are memoised because the
    operators and validators re-evaluate the same offers heavily.  Subclasses
    may also override ``_accepting`` with a kernel that answers
    :meth:`accepting` without one ``choose`` per ground element.
    """

    ground: frozenset[AgentId]

    def __init__(self, ground: Iterable[AgentId]):
        self.ground = frozenset(ground)
        self._memo: dict[frozenset, frozenset] = {}

    def _known(self, offered: Iterable[AgentId]) -> frozenset[AgentId]:
        s = frozenset(offered)
        extra = s - self.ground
        if extra:
            raise UnknownAgent(f"offered set contains unknown ids: {sort_agents(extra)}")
        return s

    def choose(self, offered: Iterable[AgentId]) -> frozenset[AgentId]:
        s = frozenset(offered)
        hit = self._memo.get(s)
        if hit is not None:
            return hit
        result = self._choose(self._known(s))
        self._memo[s] = result
        return result

    def accepting(self, held: Iterable[AgentId]) -> frozenset[AgentId]:
        """Every ``x`` in the ground set with ``x in C(held | {x})``.

        These are the partners the agent would keep or take on next to what
        it holds: one call answers, for the whole opposite side, the
        question the operators and the blocking-pair scan ask pair by pair.
        Raises :class:`UnknownAgent` where ``choose(held)`` would.
        """
        return self._accepting(self._known(held))

    def _accepting(self, held: frozenset[AgentId]) -> frozenset[AgentId]:
        # Definitional fallback, one memoised choice per ground element.
        return frozenset(x for x in self.ground if x in self.choose(held | {x}))

    def _choose(self, s: frozenset[AgentId]) -> frozenset[AgentId]:
        raise NotImplementedError

    @property
    def list_length(self) -> int:
        """Rough size of the underlying preference list (iteration cap input)."""
        raise NotImplementedError

    def rebased(self, ground: Iterable[AgentId]) -> "ChoiceFunction":
        """Same rule over a (weakly larger) ground set."""
        raise NotImplementedError


class SetListChoice(ChoiceFunction):
    """Choice induced by an ordered list of acceptable subsets.

    ``choose(S)`` returns the first listed subset contained in ``S`` and the
    empty set when none fits.  This is the general representation; nothing
    about it guarantees substitutability, so run the validators.
    """

    def __init__(self, subsets: Iterable[Iterable[AgentId]], ground: Iterable[AgentId] | None = None):
        subsets = tuple(frozenset(x) for x in subsets)
        for x in subsets:
            if not x:
                raise SchemaError("set-list entries must be nonempty")
        if len(set(subsets)) != len(subsets):
            raise SchemaError("set-list entries must be distinct")
        listed = frozenset().union(*subsets) if subsets else frozenset()
        if ground is None:
            ground = listed
        else:
            ground = frozenset(ground)
            if not listed <= ground:
                raise ReferentialIntegrity(
                    f"set-list references ids outside the ground set: {sort_agents(listed - ground)}"
                )
        super().__init__(ground)
        self.subsets = subsets

    def _choose(self, s: frozenset[AgentId]) -> frozenset[AgentId]:
        for x in self.subsets:
            if x <= s:
                return x
        return frozenset()

    def _accepting(self, held: frozenset[AgentId]) -> frozenset[AgentId]:
        # C(held | {x}) is the first entry inside held | {x}.  Up to the first
        # entry inside held itself, that can only be an entry whose sole
        # element outside held is x; past it, x is accepted iff it is in it.
        out = set()
        for x in self.subsets:
            missing = x - held
            if not missing:
                out.update(x)
                break
            if len(missing) == 1:
                out.update(missing)
        return frozenset(out)

    @property
    def list_length(self) -> int:
        return max(1, len(self.subsets))

    def rebased(self, ground: Iterable[AgentId]) -> "SetListChoice":
        return SetListChoice(self.subsets, ground)

    def __repr__(self):
        return f"SetListChoice([{', '.join(_fmt_set(x) for x in self.subsets)}])"


class QuotaLinearChoice(ChoiceFunction):
    """Take the best ``quota`` acceptable partners offered.

    Derived from a strict order over individual partners, so it is
    substitutable, consistent and path-independent by construction (the
    validators confirm this exhaustively at desk scale).
    """

    def __init__(self, order: Iterable[AgentId], quota: int = 1, ground: Iterable[AgentId] | None = None):
        order = tuple(order)
        if len(set(order)) != len(order):
            raise SchemaError("order must not repeat ids")
        if quota < 1:
            raise SchemaError("quota must be >= 1")
        if ground is None:
            ground = frozenset(order)
        else:
            ground = frozenset(ground)
            if not set(order) <= ground:
                raise ReferentialIntegrity(
                    f"order references ids outside the ground set: {sort_agents(set(order) - ground)}"
                )
        super().__init__(ground)
        self.order = order
        self.quota = quota
        self._rank = {a: i for i, a in enumerate(order)}
        self._acceptable = frozenset(order)

    def _choose(self, s: frozenset[AgentId]) -> frozenset[AgentId]:
        acceptable = sorted((a for a in s if a in self._rank), key=self._rank.__getitem__)
        return frozenset(acceptable[: self.quota])

    def _accepting(self, held: frozenset[AgentId]) -> frozenset[AgentId]:
        # x is accepted iff it ranks at or above the quota-th best acceptable
        # element held; with fewer than quota of those, every acceptable x is.
        ranks = sorted(self._rank[a] for a in held if a in self._rank)
        if len(ranks) < self.quota:
            return self._acceptable
        return frozenset(self.order[: ranks[self.quota - 1] + 1])

    @property
    def list_length(self) -> int:
        return max(1, len(self.order))

    def rebased(self, ground: Iterable[AgentId]) -> "QuotaLinearChoice":
        return QuotaLinearChoice(self.order, self.quota, ground)

    def __repr__(self):
        return f"QuotaLinearChoice(order={list(self.order)}, quota={self.quota})"


class LinearPref:
    """Strict order over individual firms; anything unlisted is unacceptable.

    The empty option sits right after the last listed firm.  Unacceptable
    firms are totally ordered below the empty option by natural id order so
    that comparisons are always defined; no predicate that matters (individual
    rationality, blocking, quasi-stability) can see that tie-break.
    """

    __slots__ = ("order", "_index")

    def __init__(self, order: Iterable[AgentId]):
        self.order = tuple(order)
        if len(set(self.order)) != len(self.order):
            raise SchemaError("preference order must not repeat ids")
        self._index = {f: i for i, f in enumerate(self.order)}

    def is_acceptable(self, f: AgentId) -> bool:
        return f in self._index

    def rank(self, f: AgentId | None):
        """Lower is better; ``None`` stands for being unmatched."""
        if f is None:
            return (len(self.order), ())
        i = self._index.get(f)
        if i is not None:
            return (i, ())
        return (len(self.order) + 1, agent_key(f))

    def prefers(self, a: AgentId | None, b: AgentId | None) -> bool:
        return self.rank(a) < self.rank(b)

    def weakly_prefers(self, a: AgentId | None, b: AgentId | None) -> bool:
        return self.rank(a) <= self.rank(b)

    def best(self, options: Iterable[AgentId | None]) -> AgentId | None:
        """Best element of ``options`` with the unmatched option always available."""
        top: AgentId | None = None
        for f in options:
            if self.prefers(f, top):
                top = f
        return top

    def __eq__(self, other):
        return isinstance(other, LinearPref) and self.order == other.order

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        return f"LinearPref({list(self.order)})"


def _set_list_from_json(obj, what: str) -> SetListChoice:
    lst = obj.get("list")
    if not isinstance(lst, list) or not all(isinstance(x, list) for x in lst):
        raise SchemaError(f"{what}: 'list' must be a list of id lists")
    return SetListChoice(lst)


class Market:
    """A two-sided market, fixed after construction.

    ``firms`` maps firm ids to choice functions over workers; the worker side
    depends on the variant.  Construction widens every choice function's
    ground set to the full opposite side and rejects unknown references.
    Queries still write to the choice functions' memos.
    """

    def __init__(
        self,
        variant: str,
        firms: Mapping[AgentId, ChoiceFunction],
        worker_prefs: Mapping[AgentId, LinearPref] | None = None,
        worker_quotas: Mapping[AgentId, int] | None = None,
        worker_choices: Mapping[AgentId, ChoiceFunction] | None = None,
    ):
        if variant not in VARIANTS:
            raise SchemaError(f"unknown market variant {variant!r}")
        self.variant = variant
        self.firm_ids: tuple[AgentId, ...] = tuple(sort_agents(firms))
        if variant == "many_to_one":
            if worker_prefs is None or worker_choices is not None:
                raise SchemaError("many_to_one markets take worker_prefs only")
            worker_quotas = {w: 1 for w in worker_prefs}
        elif variant == "many_to_many_responsive":
            if worker_prefs is None or worker_quotas is None or worker_choices is not None:
                raise SchemaError("responsive markets take worker_prefs and worker_quotas")
            if set(worker_prefs) != set(worker_quotas):
                raise SchemaError("worker_prefs and worker_quotas must cover the same workers")
            for w, q in worker_quotas.items():
                if q < 1:
                    raise SchemaError(f"worker {w}: quota must be >= 1")
        else:
            if worker_choices is None or worker_prefs is not None:
                raise SchemaError("substitutable markets take worker_choices only")
        self.worker_ids: tuple[AgentId, ...] = tuple(
            sort_agents(worker_prefs if worker_prefs is not None else worker_choices)
        )
        if set(self.firm_ids) & set(self.worker_ids):
            raise SchemaError("firm and worker ids must be disjoint")

        fset = frozenset(self.firm_ids)
        wset = frozenset(self.worker_ids)
        self._firm_choices: dict[AgentId, ChoiceFunction] = {}
        for f in self.firm_ids:
            c = firms[f]
            if not c.ground <= wset:
                raise ReferentialIntegrity(
                    f"firm {f} references unknown workers: {sort_agents(c.ground - wset)}"
                )
            self._firm_choices[f] = c.rebased(wset)

        self.worker_prefs: dict[AgentId, LinearPref] = {}
        self.worker_quotas: dict[AgentId, int] = {}
        self._worker_choices: dict[AgentId, ChoiceFunction] = {}
        if variant == "many_to_many_sub":
            for w in self.worker_ids:
                c = worker_choices[w]
                if not c.ground <= fset:
                    raise ReferentialIntegrity(
                        f"worker {w} references unknown firms: {sort_agents(c.ground - fset)}"
                    )
                self._worker_choices[w] = c.rebased(fset)
        else:
            for w in self.worker_ids:
                pref = worker_prefs[w]
                unknown = set(pref.order) - fset
                if unknown:
                    raise ReferentialIntegrity(
                        f"worker {w} references unknown firms: {sort_agents(unknown)}"
                    )
                q = worker_quotas[w]
                self.worker_prefs[w] = pref
                self.worker_quotas[w] = q
                self._worker_choices[w] = QuotaLinearChoice(pref.order, q, fset)

    def firm_choice(self, f: AgentId) -> ChoiceFunction:
        try:
            return self._firm_choices[f]
        except KeyError:
            raise UnknownAgent(f"no firm {f!r} in market") from None

    def worker_choice(self, w: AgentId) -> ChoiceFunction:
        """The worker's choice over firm sets (derived from the order when linear)."""
        try:
            return self._worker_choices[w]
        except KeyError:
            raise UnknownAgent(f"no worker {w!r} in market") from None

    def worker_pref(self, w: AgentId) -> LinearPref:
        if self.variant == "many_to_many_sub":
            raise SchemaError("substitutable markets have no worker linear orders")
        try:
            return self.worker_prefs[w]
        except KeyError:
            raise UnknownAgent(f"no worker {w!r} in market") from None

    def worker_quota(self, w: AgentId) -> int:
        if self.variant == "many_to_many_sub":
            raise SchemaError("substitutable markets have no worker quotas")
        return self.worker_quotas[w]

    @property
    def max_list_length(self) -> int:
        lengths = [c.list_length for c in self._firm_choices.values()]
        lengths += [c.list_length for c in self._worker_choices.values()]
        return max(lengths, default=1)

    def __repr__(self):
        return (
            f"Market({self.variant}, {len(self.firm_ids)} firms, {len(self.worker_ids)} workers)"
        )

    # -- JSON schema ------------------------------------------------------

    @staticmethod
    def from_json(obj) -> "Market":
        if not isinstance(obj, dict):
            raise SchemaError("market must be a JSON object")
        variant = obj.get("variant")
        if variant not in VARIANTS:
            raise SchemaError(f"variant must be one of {VARIANTS}, got {variant!r}")
        firms_obj = obj.get("firms")
        workers_obj = obj.get("workers")
        if not isinstance(firms_obj, dict) or not isinstance(workers_obj, dict):
            raise SchemaError("'firms' and 'workers' must be objects")

        firms: dict[AgentId, ChoiceFunction] = {}
        for f, spec in firms_obj.items():
            kind = isinstance(spec, dict) and spec.get("kind")
            if kind == "set_list":
                firms[f] = _set_list_from_json(spec, f"firm {f}")
            elif kind == "quota_linear":
                firms[f] = QuotaLinearChoice(spec.get("order", ()), spec.get("quota", 1))
            else:
                raise SchemaError(f"firm {f}: kind must be 'set_list' or 'quota_linear'")

        prefs: dict[AgentId, LinearPref] = {}
        quotas: dict[AgentId, int] = {}
        choices: dict[AgentId, ChoiceFunction] = {}
        for w, spec in workers_obj.items():
            kind = isinstance(spec, dict) and spec.get("kind")
            if kind == "linear":
                prefs[w] = LinearPref(tuple(spec.get("order", ())))
                quotas[w] = 1
            elif kind == "linear_quota":
                prefs[w] = LinearPref(tuple(spec.get("order", ())))
                quotas[w] = spec.get("quota", 1)
            elif kind == "set_list":
                choices[w] = _set_list_from_json(spec, f"worker {w}")
            elif kind == "quota_linear":
                choices[w] = QuotaLinearChoice(spec.get("order", ()), spec.get("quota", 1))
            else:
                raise SchemaError(
                    f"worker {w}: kind must be 'linear', 'linear_quota', 'set_list' or 'quota_linear'"
                )

        if variant == "many_to_one":
            if choices or any(q != 1 for q in quotas.values()):
                raise SchemaError("many_to_one workers must all have kind 'linear'")
            return Market(variant, firms, worker_prefs=prefs)
        if variant == "many_to_many_responsive":
            if choices:
                raise SchemaError("responsive workers must have kind 'linear_quota' (or 'linear')")
            return Market(variant, firms, worker_prefs=prefs, worker_quotas=quotas)
        if prefs:
            raise SchemaError("substitutable workers must have kind 'set_list' or 'quota_linear'")
        return Market(variant, firms, worker_choices=choices)

    def to_json(self) -> dict:
        firms = {}
        for f in self.firm_ids:
            c = self._firm_choices[f]
            firms[f] = _choice_to_json(c)
        workers = {}
        for w in self.worker_ids:
            if self.variant == "many_to_one":
                workers[w] = {"kind": "linear", "order": list(self.worker_prefs[w].order)}
            elif self.variant == "many_to_many_responsive":
                workers[w] = {
                    "kind": "linear_quota",
                    "order": list(self.worker_prefs[w].order),
                    "quota": self.worker_quotas[w],
                }
            else:
                workers[w] = _choice_to_json(self._worker_choices[w])
        return {"variant": self.variant, "firms": firms, "workers": workers}


def _choice_to_json(c: ChoiceFunction) -> dict:
    if isinstance(c, SetListChoice):
        return {"kind": "set_list", "list": [sort_agents(x) for x in c.subsets]}
    if isinstance(c, QuotaLinearChoice):
        return {"kind": "quota_linear", "order": list(c.order), "quota": c.quota}
    raise SchemaError(f"cannot encode a {type(c).__name__} in the market schema")


# -- axiom validation ------------------------------------------------------
#
# Substitutability and consistency are checked through their single-removal
# forms, which are equivalent to the quantified definitions:
#
#   substitutable  <=>  for all S and x in S:  C(S) & (S - {x})  <=  C(S - {x})
#   consistent     <=>  for all S and x in S - C(S):  C(S - {x}) == C(S)
#
# (chain any S' inside S by removing one element at a time).  This costs
# n * 2^n evaluations instead of 3^n.
#
# Path independence, C(S u S') == C(C(S) u S') for all S and S', is decided
# from the same two checks plus the contraction check C(S) <= S: Aizerman and
# Malishevski (1981) show that a contracting choice is path independent iff
# it is substitutable and consistent.  The direct search over all pairs costs
# 4^n and runs only when one of the three checks fails, to find the witness
# (or, for a choice that does not contract, to decide at all), hence the
# lower default cap on path independence.

SUBSET_CAP = 14
PI_CAP = 10


@dataclass(frozen=True)
class Violation:
    axiom: str
    offered: frozenset[AgentId]
    suboffer: frozenset[AgentId]
    agent: AgentId | None
    detail: str

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "S": sort_agents(self.offered),
            "S_prime": sort_agents(self.suboffer),
            "agent": self.agent,
            "detail": self.detail,
        }


@dataclass
class ChoiceReport:
    axiom: str
    ok: bool
    violation: Violation | None = None

    def to_json(self) -> dict:
        out = {"axiom": self.axiom, "ok": self.ok}
        if self.violation is not None:
            out["violation"] = self.violation.to_json()
        return out


def _subsets(items: tuple) -> Iterable[frozenset]:
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def _check_cap(c: ChoiceFunction, cap: int, axiom: str):
    if len(c.ground) > cap:
        raise CapExceeded(
            f"{axiom}: ground set has {len(c.ground)} elements, cap is {cap}; "
            "pass a larger cap or assume substitutability explicitly"
        )


def validate_substitutable(c: ChoiceFunction, cap: int = SUBSET_CAP) -> ChoiceReport:
    """Chosen partners must stay chosen when the offered set shrinks."""
    _check_cap(c, cap, "substitutable")
    return _substitutable_report(c)


def _substitutable_report(c: ChoiceFunction) -> ChoiceReport:
    items = tuple(sort_agents(c.ground))
    for s in _subsets(items):
        chosen = c.choose(s)
        for x in sort_agents(s):
            smaller = s - {x}
            kept = chosen & smaller
            sub_chosen = c.choose(smaller)
            if not kept <= sub_chosen:
                lost = sort_agents(kept - sub_chosen)[0]
                return ChoiceReport(
                    "substitutable",
                    False,
                    Violation(
                        "substitutable",
                        s,
                        smaller,
                        lost,
                        f"{lost} chosen from {_fmt_set(s)} but dropped from {_fmt_set(smaller)}",
                    ),
                )
    return ChoiceReport("substitutable", True)


def validate_consistent(c: ChoiceFunction, cap: int = SUBSET_CAP) -> ChoiceReport:
    """Removing rejected partners must not change the choice."""
    _check_cap(c, cap, "consistent")
    return _consistent_report(c)


def _consistent_report(c: ChoiceFunction) -> ChoiceReport:
    items = tuple(sort_agents(c.ground))
    for s in _subsets(items):
        chosen = c.choose(s)
        for x in sort_agents(s - chosen):
            smaller = s - {x}
            if c.choose(smaller) != chosen:
                return ChoiceReport(
                    "consistent",
                    False,
                    Violation(
                        "consistent",
                        s,
                        smaller,
                        x,
                        f"dropping rejected {x} changes the choice from {_fmt_set(chosen)} "
                        f"to {_fmt_set(c.choose(smaller))}",
                    ),
                )
    return ChoiceReport("consistent", True)


def validate_path_independent(c: ChoiceFunction, cap: int = PI_CAP) -> ChoiceReport:
    """C(S u S') must equal C(C(S) u S') for all pairs of offers.

    Decided in n * 2^n evaluations for a contracting, substitutable and
    consistent choice; otherwise the direct search over all pairs decides
    and names the witness.
    """
    _check_cap(c, cap, "path_independent")
    return _path_independent_report(c)


def _path_independent_report(
    c: ChoiceFunction,
    substitutable: ChoiceReport | None = None,
    consistent: ChoiceReport | None = None,
) -> ChoiceReport:
    """The path-independence verdict, reusing axiom reports already made.

    The checks run uncapped: the caller has applied the path-independence
    cap, which is what the direct search would have been held to.
    """
    if (
        all(c.choose(s) <= s for s in _subsets(tuple(sort_agents(c.ground))))
        and (substitutable or _substitutable_report(c)).ok
        and (consistent or _consistent_report(c)).ok
    ):
        return ChoiceReport("path_independent", True)
    return _path_independence_search(c)


def _path_independence_search(c: ChoiceFunction) -> ChoiceReport:
    """The direct check over all pairs of offers, stopping at the first witness."""
    items = tuple(sort_agents(c.ground))
    all_subsets = list(_subsets(items))
    for s in all_subsets:
        cs = c.choose(s)
        for s2 in all_subsets:
            if c.choose(s | s2) != c.choose(cs | s2):
                return ChoiceReport(
                    "path_independent",
                    False,
                    Violation(
                        "path_independent",
                        s,
                        s2,
                        None,
                        f"C(S u S') = {_fmt_set(c.choose(s | s2))} but "
                        f"C(C(S) u S') = {_fmt_set(c.choose(cs | s2))}",
                    ),
                )
    return ChoiceReport("path_independent", True)


@dataclass
class MarketReport:
    ok: bool
    referential: list[str] = field(default_factory=list)
    agents: dict[AgentId, list[ChoiceReport]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "referential": self.referential,
            "agents": {a: [r.to_json() for r in rs] for a, rs in self.agents.items()},
            "notes": self.notes,
        }


def validate_market(
    source,
    cap: int = SUBSET_CAP,
    pi_cap: int = PI_CAP,
    assume_substitutable: bool = False,
) -> MarketReport:
    """Aggregate per-agent axiom reports plus referential integrity.

    ``source`` may be a built :class:`Market` or a raw JSON object; the raw
    form lets referential problems surface as report entries instead of
    construction errors.  Substitutability and consistency always run, and
    path independence is decided from their reports plus the contraction
    check.  It runs only on ground sets within ``pi_cap``, because a failing
    verdict falls back on the 4^n direct search for its witness, and a note
    records any skip.  Ground sets beyond ``cap`` raise :class:`CapExceeded`
    unless ``assume_substitutable`` is set, in which case the axioms are
    skipped with a note.
    """
    report = MarketReport(ok=True)
    if not isinstance(source, Market):
        try:
            source = Market.from_json(source)
        except (ReferentialIntegrity, SchemaError) as e:
            report.ok = False
            report.referential.append(str(e))
            return report

    def run(agent: AgentId, c: ChoiceFunction):
        if len(c.ground) > cap and assume_substitutable:
            report.notes.append(
                f"{agent}: axiom checks skipped on assumption (ground set {len(c.ground)} > cap {cap})"
            )
            report.agents[agent] = []
            return
        reports = [validate_substitutable(c, cap), validate_consistent(c, cap)]
        if len(c.ground) <= pi_cap:
            reports.append(_path_independent_report(c, *reports))
        else:
            report.notes.append(
                f"{agent}: path independence skipped (ground set {len(c.ground)} > cap {pi_cap})"
            )
        report.agents[agent] = reports
        if not all(r.ok for r in reports):
            report.ok = False

    for f in source.firm_ids:
        run(f, source.firm_choice(f))
    for w in source.worker_ids:
        run(w, source.worker_choice(w))
    return report
