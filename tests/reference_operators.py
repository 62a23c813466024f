"""Per-pair forms of the willing sets, blocking pairs, pools, candidates,
quasi-stability and operator steps, with per-agent forms of the orders the
walks climb.

The package builds these from one ``accepting`` table per side, with one
side-generic body per firm/worker pair.  The forms here ask every
(firm, worker) pair through ``choose`` instead, write each side out, follow
the definitions, and stay as the reference the package is tested against.
"""

from itertools import combinations

from matchlattice import Matching, NonConvergence, OperatorTrace, SchemaError
from matchlattice.market import agent_key


def F_set_of_worker(m, mu, w):
    return frozenset(
        f for f in m.firm_ids if w in m.firm_choice(f).choose(mu.of_firm(f) | {w})
    )


def W_set_of_firm(m, mu, f):
    if m.variant == "many_to_one":
        return frozenset(
            w for w in m.worker_ids if m.worker_pref(w).weakly_prefers(f, mu.firm_of(w))
        )
    return frozenset(
        w for w in m.worker_ids if f in m.worker_choice(w).choose(mu.of_worker(w) | {f})
    )


def worker_side_block_reason(m, mu, f, w):
    held = mu.of_worker(w)
    if m.variant == "many_to_one":
        if m.worker_pref(w).prefers(f, mu.firm_of(w)):
            return "worker_prefers"
        return None
    if m.variant == "many_to_many_responsive":
        pref = m.worker_pref(w)
        if not pref.is_acceptable(f):
            return None
        if len(held) == m.worker_quota(w):
            return "swap" if any(pref.prefers(f, g) for g in held) else None
        if len(held) < m.worker_quota(w):
            return "vacancy"
        return None
    if f in m.worker_choice(w).choose(held | {f}):
        return "worker_chooses"
    return None


def blocking_pair_reason(m, mu, f, w):
    if f in mu.of_worker(w):
        return None
    if w not in m.firm_choice(f).choose(mu.of_firm(f) | {w}):
        return None
    return worker_side_block_reason(m, mu, f, w)


def blocking_pairs(m, mu):
    """(firm, worker, reason) triples in (firm, worker) natural id order."""
    pairs = []
    for f in m.firm_ids:
        for w in m.worker_ids:
            reason = blocking_pair_reason(m, mu, f, w)
            if reason is not None:
                pairs.append((f, w, reason))
    pairs.sort(key=lambda p: (agent_key(p[0]), agent_key(p[1])))
    return pairs


def has_blocking_pair(m, mu):
    return any(
        blocking_pair_reason(m, mu, f, w) is not None for f in m.firm_ids for w in m.worker_ids
    )


def blocked_by_worker(m, mu, w):
    """Linear workers: over quota or holding an unacceptable firm; else C_w(mu(w)) != mu(w)."""
    held = mu.of_worker(w)
    if m.variant == "many_to_many_sub":
        return m.worker_choice(w).choose(held) != held
    pref = m.worker_pref(w)
    return len(held) > m.worker_quota(w) or not all(pref.is_acceptable(f) for f in held)


def blocked_by_firm(m, mu, f):
    return m.firm_choice(f).choose(mu.of_firm(f)) != mu.of_firm(f)


def is_individually_rational(m, mu):
    return not any(blocked_by_firm(m, mu, f) for f in m.firm_ids) and not any(
        blocked_by_worker(m, mu, w) for w in m.worker_ids
    )


def is_stable(m, mu):
    return is_individually_rational(m, mu) and not has_blocking_pair(m, mu)


def held_survives_all_offers(held, willing, choice):
    """held <= C(held | T) for every subset T of ``willing``."""
    items = sorted(willing)
    return all(
        held <= choice.choose(held | frozenset(t))
        for r in range(len(items) + 1)
        for t in combinations(items, r)
    )


def is_worker_quasi_stable(m, mu):
    if not is_individually_rational(m, mu):
        return False
    if m.variant == "many_to_one":
        return all(mu.firm_of(w) is None for _, w, _ in blocking_pairs(m, mu))
    return all(
        held_survives_all_offers(mu.of_worker(w), F_set_of_worker(m, mu, w), m.worker_choice(w))
        for w in m.worker_ids
    )


def is_firm_quasi_stable(m, mu):
    return is_individually_rational(m, mu) and all(
        held_survives_all_offers(mu.of_firm(f), W_set_of_firm(m, mu, f), m.firm_choice(f))
        for f in m.firm_ids
    )


def lambda_join(m, mu, mu2):
    edges = []
    for f in m.firm_ids:
        edges.extend((f, w) for w in m.firm_choice(f).choose(mu.of_firm(f) | mu2.of_firm(f)))
    out = Matching(edges)
    out.validate_for(m)
    return out


def gamma_join(m, mu, mu2):
    edges = []
    for w in m.worker_ids:
        edges.extend((f, w) for f in m.worker_choice(w).choose(mu.of_worker(w) | mu2.of_worker(w)))
    out = Matching(edges)
    out.validate_for(m)
    return out


def B_set_of_firm(m, mu, f):
    claimants = {
        w for w in m.worker_ids if f in m.worker_choice(w).choose(F_set_of_worker(m, mu, w))
    }
    return frozenset(claimants) | mu.of_firm(f)


def B_set_of_worker(m, mu, w):
    offers = {
        f for f in m.firm_ids if w in m.firm_choice(f).choose(W_set_of_firm(m, mu, f))
    }
    return frozenset(offers) | mu.of_worker(w)


def firm_step(m, mu):
    best = {w: m.worker_choice(w).choose(F_set_of_worker(m, mu, w)) for w in m.worker_ids}
    edges = []
    for f in m.firm_ids:
        pool = frozenset(w for w in m.worker_ids if f in best[w]) | mu.of_firm(f)
        edges.extend((f, w) for w in m.firm_choice(f).choose(pool))
    out = Matching(edges)
    out.validate_for(m)
    return out


def worker_step(m, mu):
    picked = {f: m.firm_choice(f).choose(W_set_of_firm(m, mu, f)) for f in m.firm_ids}
    edges = []
    for w in m.worker_ids:
        offers = frozenset(f for f in m.firm_ids if w in picked[f]) | mu.of_worker(w)
        edges.extend((f, w) for f in m.worker_choice(w).choose(offers))
    out = Matching(edges)
    out.validate_for(m)
    return out


def firm_blair_geq(m, mu, mu2):
    """Every firm chooses its mu-workers out of both assignments: C_f(mu(f) | mu2(f)) == mu(f)."""
    return all(
        m.firm_choice(f).choose(mu.of_firm(f) | mu2.of_firm(f)) == mu.of_firm(f) for f in m.firm_ids
    )


def worker_blair_geq(m, mu, mu2):
    """Every worker chooses her mu-firms out of both assignments: C_w(mu(w) | mu2(w)) == mu(w)."""
    return all(
        m.worker_choice(w).choose(mu.of_worker(w) | mu2.of_worker(w)) == mu.of_worker(w)
        for w in m.worker_ids
    )


def iterate_to_fixed_point(m, mu, side, cap):
    """The package's walk with the per-pair steps, orders and stability check.

    As in the package, a step that builds no matching of ``m`` is non-convergence.
    """
    step = firm_step if side == "firms" else worker_step
    improves = firm_blair_geq if side == "firms" else worker_blair_geq
    visited = [mu]
    for i in range(cap + 1):  # cap steps, then the confirming application
        try:
            nxt = step(m, visited[-1])
        except SchemaError as e:
            raise NonConvergence("step built no matching") from e
        if nxt == visited[-1]:
            if not is_stable(m, nxt):
                raise NonConvergence("fixed point is not stable")
            return OperatorTrace(side, tuple(visited))
        if i == cap:
            break
        if not improves(m, nxt, visited[-1]):
            raise NonConvergence("step failed to improve")
        visited.append(nxt)
    raise NonConvergence(f"no fixed point within {cap} steps")
