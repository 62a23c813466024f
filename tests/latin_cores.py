"""Latin-square cores: small markets whose stable lattice is not a point.

Firm ``i`` lists ``w_i, w_{i+1}, ...`` and worker ``j`` lists
``f_{j+1}, ..., f_j`` (indices mod n), so every cyclic shift of the
diagonal is stable (Knuth 1976; Gusfield & Irving 1989).  With quotas of 1
the n x n core has exactly n stable matchings; the 4 x 4 core with quotas
2/2 has 7.  ``CASES`` lists the cores the tests build, each as
``(variant, n, firm_quota, worker_quota, stable count)``.
"""

from matchlattice import LinearPref, Market, QuotaLinearChoice


def latin_core(variant: str, n: int, firm_quota: int = 1, worker_quota: int = 1) -> Market:
    firms = [f"f{i}" for i in range(1, n + 1)]
    workers = [f"w{j}" for j in range(1, n + 1)]
    firm_choices = {
        f: QuotaLinearChoice([workers[(i + k) % n] for k in range(n)], firm_quota) for i, f in enumerate(firms)
    }
    orders = {w: [firms[(j + 1 + k) % n] for k in range(n)] for j, w in enumerate(workers)}
    if variant == "many_to_many_sub":
        choices = {w: QuotaLinearChoice(order, worker_quota) for w, order in orders.items()}
        return Market(variant, firm_choices, worker_choices=choices)
    prefs = {w: LinearPref(order) for w, order in orders.items()}
    if variant == "many_to_one":
        assert worker_quota == 1, "many-to-one workers hold one job"
        return Market(variant, firm_choices, worker_prefs=prefs)
    return Market(variant, firm_choices, worker_prefs=prefs, worker_quotas=dict.fromkeys(workers, worker_quota))


CASES = [
    (variant, n, quota, quota, count)
    for variant in ("many_to_one", "many_to_many_sub")
    for n, quota, count in ((4, 1, 4), (5, 1, 5), (6, 1, 6))
] + [(variant, 4, 2, 2, 7) for variant in ("many_to_many_responsive", "many_to_many_sub")]
CASE_IDS = [f"{c[0]}-{c[1]}x{c[1]}-q{c[2]}" for c in CASES]
