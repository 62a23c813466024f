"""Transport between responsive many-to-many markets and many-to-one markets.

A worker with quota ``q`` becomes ``q`` replicas (``w#1`` ... ``w#q``), each
carrying the worker's linear order over firms.  Firm choice functions extend
to replicas lazily: project the offered replicas down to base workers, apply
the base choice, then take the lowest-index replica present of each chosen
worker.  Substitutability survives this extension, the stable sets of the
two markets are in order-preserving bijection through the bundling map
``phi``, and the lattice operations lift along it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapExceeded, NotStable, PreimageNotStable, SchemaError
from .market import (
    AgentId,
    ChoiceFunction,
    SUBSET_CAP,
    Market,
    SetListChoice,
    _subsets,
    sort_agents,
)
from .matching import Matching, _proven, _stable_tables, blair_geq_firms, is_stable
from . import tarski


def replica_id(w: AgentId, t: int) -> AgentId:
    return f"{w}#{t}"


@dataclass(frozen=True)
class ReplicaMap:
    """Bookkeeping between base workers and their replicas."""

    base_workers: tuple[AgentId, ...]
    replicas: tuple[AgentId, ...]
    base_of: dict[AgentId, AgentId]
    index_of: dict[AgentId, int]
    replicas_of: dict[AgentId, tuple[AgentId, ...]]
    # Each replica's (worker, index), read once per replica by the choice kernels.
    _split: dict[AgentId, tuple[AgentId, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_split", {r: (w, self.index_of[r]) for r, w in self.base_of.items()})

    @staticmethod
    def build(workers, quotas) -> "ReplicaMap":
        base = tuple(sort_agents(workers))
        replicas: list[AgentId] = []
        base_of: dict[AgentId, AgentId] = {}
        index_of: dict[AgentId, int] = {}
        replicas_of: dict[AgentId, tuple[AgentId, ...]] = {}
        for w in base:
            mine = tuple(replica_id(w, t) for t in range(1, quotas[w] + 1))
            replicas_of[w] = mine
            replicas.extend(mine)
            for t, r in enumerate(mine, start=1):
                base_of[r] = w
                index_of[r] = t
        return ReplicaMap(base, tuple(replicas), base_of, index_of, replicas_of)

    def project(self, replicas) -> frozenset[AgentId]:
        return frozenset(self.base_of[r] for r in replicas)


class QExtensionChoice(ChoiceFunction):
    """A base choice over workers, lifted to their replicas.

    Evaluated per query, never materialised: the chosen workers are
    ``base.choose(project(S))`` and each is represented by its lowest-index
    replica present in ``S``.  An offer inside the ground set projects into
    the base's, so the kernels call the base's kernels directly.
    """

    _contracts = True

    def __init__(self, base: ChoiceFunction, rmap: ReplicaMap, ground=None):
        super().__init__(rmap.replicas if ground is None else ground)
        self.base = base
        self.rmap = rmap

    def _choose(self, s: frozenset[AgentId]) -> frozenset[AgentId]:
        split = self.rmap._split
        lowest: dict[AgentId, tuple[int, AgentId]] = {}
        for r in s:
            w, t = split[r]
            best = lowest.get(w)
            if best is None or t < best[0]:
                lowest[w] = (t, r)
        chosen = self.base._choose(frozenset(lowest))
        return frozenset([lowest[w][1] for w in chosen])

    def _accepting(self, held: frozenset[AgentId]) -> frozenset[AgentId]:
        # Replica w#t joins held iff the base choice accepts w next to the
        # held workers and no lower-index replica of w is held to outrank it.
        split, replicas_of = self.rmap._split, self.rmap.replicas_of
        lowest: dict[AgentId, int] = {}
        for r in held:
            w, t = split[r]
            if t < lowest.get(w, t + 1):
                lowest[w] = t
        out = []
        for w in self.base._accepting(frozenset(lowest)):
            mine = replicas_of[w]
            out.extend(mine[: lowest.get(w, len(mine))])
        return frozenset(out)

    @property
    def list_length(self) -> int:
        return self.base.list_length

    def rebased(self, ground) -> "QExtensionChoice":
        return QExtensionChoice(self.base, self.rmap, frozenset(ground))

    def __repr__(self):
        return f"QExtensionChoice({self.base!r})"


def q_extended_choose(base: ChoiceFunction, rmap: ReplicaMap, offered) -> frozenset[AgentId]:
    """One-shot evaluation of the replica extension of ``base``."""
    return QExtensionChoice(base, rmap).choose(offered)


@dataclass(frozen=True)
class RelatedMarket:
    """A responsive market together with its derived many-to-one market."""

    source: Market
    market: Market
    rmap: ReplicaMap


def build_related_market(m: Market) -> RelatedMarket:
    """Replicate workers by quota and extend firm choices to replicas."""
    if m.variant != "many_to_many_responsive":
        raise SchemaError("related markets are built from responsive many-to-many markets")
    rmap = ReplicaMap.build(m.worker_ids, m.worker_quotas)
    replicas = frozenset(rmap.replicas)
    firms = {f: QExtensionChoice(m.firm_choice(f), rmap, replicas) for f in m.firm_ids}
    # A replica carries its worker's order: each shares the worker's LinearPref.
    prefs = {r: m.worker_prefs[w] for w in rmap.base_workers for r in rmap.replicas_of[w]}
    derived = Market("many_to_one", firms, worker_prefs=prefs)
    return RelatedMarket(m, derived, rmap)


def phi(rm: RelatedMarket, mu: Matching) -> Matching:
    """Bundle replica assignments back into a many-to-many matching."""
    mu.validate_for(rm.market)
    project = rm.rmap.project
    out = Matching._from_view([(f, project(rs)) for f, rs in mu._by_firm.items()], "firms")
    out.validate_for(rm.source)
    return out


def phi_preimage(rm: RelatedMarket, nu: Matching) -> Matching:
    """The canonical replica assignment mapping to ``nu`` under phi.

    Each worker's firms are handed to her replicas best-first: the most
    preferred firm goes to replica 1, and so on.  ``phi`` of the result is
    ``nu`` again, which witnesses surjectivity.
    """
    nu.validate_for(rm.source)
    rows = []
    for w, held in nu._by_worker.items():
        best_first = sorted(held, key=rm.source.worker_pref(w).rank)
        rows.extend((r, frozenset((f,))) for r, f in zip(rm.rmap.replicas_of[w], best_first))
    out = Matching._from_view(rows, "workers")
    out.validate_for(rm.market)
    return out


_NOT_STABLE = "phi_inverse_stable requires a stable matching of the source market"
_PREIMAGE_NOT_STABLE = (
    "canonical preimage is not stable in the related market; "
    "this indicates a stability bug in the source market"
)


def phi_inverse_stable(rm: RelatedMarket, nu: Matching) -> Matching:
    """The unique stable preimage of a stable many-to-many matching."""
    if not is_stable(rm.source, nu):
        raise NotStable(_NOT_STABLE)
    mu = phi_preimage(rm, nu)
    if not is_stable(rm.market, mu):
        raise PreimageNotStable(_PREIMAGE_NOT_STABLE)
    return mu


def blair_geq_firms_q(m: Market, nu: Matching, nu2: Matching) -> bool:
    """Firm order on many-to-many matchings, via the source choice functions."""
    return blair_geq_firms(m, nu, nu2)


def _lifted(rm: RelatedMarket, nu: Matching, nu2: Matching, op) -> Matching:
    """``phi`` of ``op`` on the replica market, applied to both inputs' stable preimages.

    Each input must be a stable matching of the source, as
    :func:`phi_inverse_stable` requires, and is refused with its error.  An
    input the library proved stable in the source (``matching._proven``)
    is trusted.  Otherwise one stability pass, through the public
    ``accepting``, checks ``nu``; the one for ``nu2`` visits only the
    market agents whose holdings differ from ``nu``'s, unless ``nu`` was
    trusted.  ``op``'s own gate then checks the preimages, which raises
    :class:`PreimageNotStable`, and its walk reuses the gate's tables; no
    proof reaches that gate, as each preimage is built here.
    """
    source = rm.source
    base = None
    if not _proven(source, nu):
        tables = _stable_tables(source, nu, False)
        if tables is None:
            raise NotStable(_NOT_STABLE)
        base = (nu, tables)
    a = phi_preimage(rm, nu)  # validates nu, so it can serve as the base
    if not _proven(source, nu2) and _stable_tables(source, nu2, False, base) is None:
        raise NotStable(_NOT_STABLE)
    b = phi_preimage(rm, nu2)
    try:
        joined = op(rm.market, a, b)
    except NotStable:
        raise PreimageNotStable(_PREIMAGE_NOT_STABLE) from None
    return phi(rm, joined)


def lifted_join_firms(rm: RelatedMarket, nu: Matching, nu2: Matching) -> Matching:
    """Firm-order join of two stable responsive matchings, via the replica market."""
    return _lifted(rm, nu, nu2, tarski.stable_join_firms)


def lifted_meet_firms(rm: RelatedMarket, nu: Matching, nu2: Matching) -> Matching:
    return _lifted(rm, nu, nu2, tarski.stable_meet_firms)


def lifted_join_workers(rm: RelatedMarket, nu: Matching, nu2: Matching) -> Matching:
    """Worker-order join; equals the firm-order meet by duality."""
    return lifted_meet_firms(rm, nu, nu2)


def lifted_meet_workers(rm: RelatedMarket, nu: Matching, nu2: Matching) -> Matching:
    return lifted_join_firms(rm, nu, nu2)


def as_set_list(c: ChoiceFunction) -> SetListChoice:
    """Materialise any path-independent choice function as a set list.

    Collects the image of the choice function and orders it so that a set
    beats everything it would be chosen over; first-fit evaluation then
    reproduces the original on every input, which is asserted.  Exists so
    lazily evaluated choices can be emitted in the market JSON schema.
    """
    items = tuple(sort_agents(c.ground))
    if len(items) > SUBSET_CAP:
        raise CapExceeded(f"cannot materialise over {len(items)} elements (cap {SUBSET_CAP})")
    image = set()
    subsets = list(_subsets(items))
    for s in subsets:
        chosen = c.choose(s)
        if chosen:
            image.add(chosen)
    remaining = sorted(image, key=lambda x: (len(x), sort_agents(x)))
    ordered: list[frozenset] = []
    while remaining:
        maximal = [
            a
            for a in remaining
            if all(b == a or c.choose(a | b) != b for b in remaining)
        ]
        if not maximal:
            raise SchemaError("choice function is not path independent; no set-list form")
        maximal.sort(key=lambda x: (-len(x), sort_agents(x)))
        head = maximal[0]
        ordered.append(head)
        remaining.remove(head)
    out = SetListChoice(ordered, ground=c.ground)
    for s in subsets:
        if out.choose(s) != c.choose(s):
            raise SchemaError("choice function is not path independent; no set-list form")
    return out


def related_market_to_json(rm: RelatedMarket) -> dict:
    """The related market in the standard schema (set lists for firm choices)."""
    firms = {f: as_set_list(rm.market.firm_choice(f)) for f in rm.market.firm_ids}
    return Market("many_to_one", firms, worker_prefs=rm.market.worker_prefs).to_json()
