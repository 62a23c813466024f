"""Command-line front end.

Exit codes: 0 success, 1 domain error (reported as a machine-readable
object under --format json), 2 usage error.  All output is deterministic
for a fixed (input, flags, seed) triple.

Market path arguments also accept ``random:<variant>:<F>x<W>`` together
with ``--seed`` to generate a market on the fly.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from importlib import resources

from . import oracle, replica, tarski
from .errors import MatchLatticeError, NotStable, ParseError, SchemaError
from .market import Market, validate_market
from .matching import (
    Matching,
    _other,
    blocking_pairs,
    is_firm_quasi_stable,
    is_individually_rational,
    is_stable,
    is_worker_quasi_stable,
)

_RANDOM_REF = re.compile(r"^random:(\w+):(\d+)x(\d+)$")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e


def load_bundle(name: str) -> dict:
    """A bundled example by name, or any {market, matchings} JSON file."""
    if name in ("example1", "example2"):
        text = resources.files("matchlattice.assets").joinpath(f"{name}.json").read_text()
        return json.loads(text)
    obj = _read_json(name)
    if not isinstance(obj, dict) or "market" not in obj:
        raise SchemaError(f"{name} is not a bundle with a 'market' entry")
    return obj


def load_market(path: str, seed: int = 0) -> Market:
    """A market from a JSON file, a bundle, a bundled example name, or a random ref."""
    m = _RANDOM_REF.match(path)
    if m:
        spec = oracle.RandomMarketSpec(
            variant=m.group(1), n_firms=int(m.group(2)), n_workers=int(m.group(3))
        )
        return oracle.random_market(seed, spec)
    if path in ("example1", "example2"):
        return Market.from_json(load_bundle(path)["market"])
    obj = _read_json(path)
    if isinstance(obj, dict) and "market" in obj:
        obj = obj["market"]
    return Market.from_json(obj)


def load_matching(path: str, market: Market) -> Matching:
    mu = Matching.from_json(_read_json(path))
    mu.validate_for(market)
    return mu


def _emit(args, result: dict, text: str) -> int:
    if args.format == "json":
        print(json.dumps({"ok": True, "result": result, "error": None}, indent=2))
    else:
        print(text)
    return 0


def _predicates(m: Market, mu: Matching) -> dict:
    return {
        "individually_rational": is_individually_rational(m, mu),
        "stable": is_stable(m, mu),
        "worker_quasi_stable": is_worker_quasi_stable(m, mu),
        "firm_quasi_stable": is_firm_quasi_stable(m, mu),
    }


# -- subcommands -------------------------------------------------------------


def _cmd_validate(args) -> int:
    report = validate_market(
        load_market(args.market, args.seed),
        cap=args.cap,
        pi_cap=args.pi_cap,
        assume_substitutable=args.assume_substitutable,
    )
    lines = ["validation: " + ("pass" if report.ok else "FAIL")]
    for msg in report.referential:
        lines.append(f"  referential: {msg}")
    for agent, reports in report.agents.items():
        bad = [r for r in reports if not r.ok]
        for r in bad:
            lines.append(f"  {agent}: {r.axiom} violated ({r.violation.detail})")
    for note in report.notes:
        lines.append(f"  note: {note}")
    code = _emit(args, report.to_json(), "\n".join(lines))
    return code if report.ok else 1


def _cmd_stable_check(args) -> int:
    m = load_market(args.market, args.seed)
    mu = load_matching(args.matching, m)
    pairs = blocking_pairs(m, mu)
    result = {
        "individually_rational": is_individually_rational(m, mu),
        "stable": is_stable(m, mu),
        "blocking_pairs": [p.to_json() for p in pairs],
    }
    lines = [
        f"individually rational: {str(result['individually_rational']).lower()}",
        f"stable: {str(result['stable']).lower()}",
    ]
    if pairs:
        lines.append("blocking pairs: " + ", ".join(f"({p.firm},{p.worker})" for p in pairs))
    return _emit(args, result, "\n".join(lines))


def _cmd_quasi_check(args) -> int:
    m = load_market(args.market, args.seed)
    mu = load_matching(args.matching, m)
    holds = is_firm_quasi_stable if args.side == "firms" else is_worker_quasi_stable
    value = holds(m, mu, cap=args.cap, assume_substitutable=args.assume_substitutable)
    label = f"{args.side[:-1]}-quasi-stable"
    return _emit(args, {label.replace("-", "_"): value}, f"{label}: {str(value).lower()}")


def _cmd_join_meet(args) -> int:
    m = load_market(args.market, args.seed)
    a = load_matching(args.mu1, m)
    b = load_matching(args.mu2, m)
    if not args.no_check:
        if not is_stable(m, a):
            raise NotStable(f"{args.mu1} is not stable in this market")
        if not is_stable(m, b):
            raise NotStable(f"{args.mu2} is not stable in this market")
    # The side's join is its own operator's walk; its meet is the other side's join.
    op_side = args.side if args.command == "join" else _other(args.side)
    builder = tarski.lambda_join if op_side == "firms" else tarski.gamma_join
    candidate = builder(m, a, b, check=False)
    trace = tarski.iterate_to_fixed_point(m, candidate, op_side, check=False)
    result = {
        "operation": args.command,
        "side": args.side,
        "result": trace.final.to_json(),
    }
    lines = [trace.final.render(m)]
    if args.trace:
        result["trace"] = trace.to_json(m)
        lines.append(f"candidate re-equilibrated in {trace.steps} step(s)")
    return _emit(args, result, "\n".join(lines))


def _cmd_iterate(args) -> int:
    m = load_market(args.market, args.seed)
    mu = load_matching(args.matching, m)
    trace = tarski.iterate_to_fixed_point(m, mu, args.side, check=not args.no_check)
    result = {"fixed_point": trace.final.to_json(), "steps": trace.steps}
    if args.trace:
        result["trace"] = trace.to_json(m)
    text = trace.final.render(m) + f"\nfixed point after {trace.steps} step(s)"
    return _emit(args, result, text)


def _cmd_enumerate(args) -> int:
    m = load_market(args.market, args.seed)
    budget = oracle.EnumerationBudget(
        max_matchings=args.budget,
        max_firms=max(oracle.DEFAULT_BUDGET.max_firms, len(m.firm_ids)),
        max_workers=max(oracle.DEFAULT_BUDGET.max_workers, len(m.worker_ids)),
    )
    count = 0
    for mu in oracle.enumerate_matchings(m, budget, ir_workers_only=args.ir_workers_only):
        row = dict(mu.to_json())
        row.update(_predicates(m, mu))
        print(json.dumps(row, separators=(",", ":")))
        count += 1
    if args.format == "json":
        # stream already emitted; finish with a summary object
        print(json.dumps({"ok": True, "result": {"count": count}, "error": None}))
    return 0


def _cmd_verify_lattice(args) -> int:
    m = load_market(args.market, args.seed)
    budget = oracle.EnumerationBudget(
        max_matchings=args.budget,
        max_firms=max(oracle.DEFAULT_BUDGET.max_firms, len(m.firm_ids)),
        max_workers=max(oracle.DEFAULT_BUDGET.max_workers, len(m.worker_ids)),
    )
    report = oracle.verify_lattice(m, budget)
    lines = [
        f"stable matchings: {report.stable_count}",
        f"pairs checked: {report.pairs_checked}",
        f"lattice verified: {str(report.ok).lower()}",
    ]
    lines += [f"  problem: {p}" for p in report.problems]
    code = _emit(args, report.to_json(), "\n".join(lines))
    return code if report.ok else 1


def _cmd_replica(args) -> int:
    m = load_market(args.market, args.seed)
    rm = replica.build_related_market(m)
    if args.action == "build":
        obj = replica.related_market_to_json(rm)
        return _emit(args, obj, json.dumps(obj, indent=2))
    mu = Matching.from_json(_read_json(args.matching))
    if args.action == "phi":
        out = replica.phi(rm, mu)
        target = rm.source
    else:
        out = replica.phi_inverse_stable(rm, mu)
        target = rm.market
    return _emit(args, out.to_json(), out.render(target))


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _demo_example1(bundle) -> tuple[dict, str]:
    m = Market.from_json(bundle["market"])
    named = {k: Matching.from_json(v) for k, v in bundle["matchings"].items()}
    for mu in named.values():
        mu.validate_for(m)
    under, over = named["mu_under"], named["mu_over"]
    report = validate_market(m)
    lines = [
        "== example1 ==",
        f"market: {m.variant} with {len(m.firm_ids)} firms, {len(m.worker_ids)} workers",
        f"validation: {'pass' if report.ok else 'FAIL'}",
        "",
        f"mu_under (stable: {_flag(is_stable(m, under))})",
        under.render(m),
        f"mu_over (stable: {_flag(is_stable(m, over))})",
        over.render(m),
        "",
        "pooled firm choice (join candidate, firm order):",
    ]
    lam = tarski.lambda_join(m, under, over)
    lines += [
        lam.render(m),
        f"equals mu_boxed: {_flag(lam == named['mu_boxed'])}",
        f"worker-quasi-stable: {_flag(is_worker_quasi_stable(m, lam))}"
        f" | firm-quasi-stable: {_flag(is_firm_quasi_stable(m, lam))}"
        f" | stable: {_flag(is_stable(m, lam))}",
        "blocking pairs: " + ", ".join(f"({p.firm},{p.worker})" for p in blocking_pairs(m, lam)),
        "",
        "pooled worker choice (join candidate, worker order):",
    ]
    gam = tarski.gamma_join(m, under, over)
    lines += [
        gam.render(m),
        f"equals mu_circled: {_flag(gam == named['mu_circled'])}",
        f"firm-quasi-stable: {_flag(is_firm_quasi_stable(m, gam))}"
        f" | worker-quasi-stable: {_flag(is_worker_quasi_stable(m, gam))}"
        f" | stable: {_flag(is_stable(m, gam))}",
        "blocking pairs: " + ", ".join(f"({p.firm},{p.worker})" for p in blocking_pairs(m, gam)),
        "",
    ]
    ftrace = tarski.iterate_to_fixed_point(m, lam, "firms")
    wtrace = tarski.iterate_to_fixed_point(m, gam, "workers")
    join = tarski.stable_join_firms(m, under, over)
    meet = tarski.stable_meet_firms(m, under, over)
    firm_opt = tarski.extremal_stable(m, "firms")
    worker_opt = tarski.extremal_stable(m, "workers")
    lines += [
        f"firm-side re-equilibration of the candidate: fixed point in {ftrace.steps} step(s)",
        ftrace.final.render(m),
        f"equals mu_star: {_flag(ftrace.final == named['mu_star'])}"
        f" | stable: {_flag(is_stable(m, ftrace.final))}",
        "",
        f"worker-side re-equilibration of the candidate: fixed point in {wtrace.steps} step(s)",
        wtrace.final.render(m),
        f"equals mu_dagger: {_flag(wtrace.final == named['mu_dagger'])}"
        f" | stable: {_flag(is_stable(m, wtrace.final))}",
        "",
        f"join (firm order) of mu_under, mu_over equals mu_star: {_flag(join == named['mu_star'])}",
        f"meet (firm order) of mu_under, mu_over equals mu_dagger: {_flag(meet == named['mu_dagger'])}",
        f"firm-optimal from empty equals mu_star: {_flag(firm_opt.matching == named['mu_star'])}"
        f" ({firm_opt.note})",
        f"worker-optimal from empty equals mu_dagger: {_flag(worker_opt.matching == named['mu_dagger'])}"
        f" ({worker_opt.note})",
    ]
    result = {
        "lambda": lam.to_json(),
        "gamma": gam.to_json(),
        "firm_fixed_point": ftrace.final.to_json(),
        "worker_fixed_point": wtrace.final.to_json(),
        "join_firms": join.to_json(),
        "meet_firms": meet.to_json(),
    }
    return result, "\n".join(lines)


def _demo_example2(bundle) -> tuple[dict, str]:
    m = Market.from_json(bundle["market"])
    named = {k: Matching.from_json(v) for k, v in bundle["matchings"].items()}
    for mu in named.values():
        mu.validate_for(m)
    under, over = named["mu_under"], named["mu_over"]
    report = validate_market(m)
    lam = tarski.lambda_join(m, under, over)
    step1 = tarski.tarski_firm_step(m, lam)
    step2 = tarski.tarski_firm_step(m, step1)
    step3 = tarski.tarski_firm_step(m, step2)
    join = tarski.stable_join_firms(m, under, over)
    firm_opt = tarski.extremal_stable(m, "firms")
    lines = [
        "== example2 ==",
        f"market: {m.variant} with {len(m.firm_ids)} firms, {len(m.worker_ids)} workers",
        f"validation: {'pass' if report.ok else 'FAIL'}",
        "",
        f"mu_under (stable: {_flag(is_stable(m, under))})",
        under.render(m),
        f"mu_over (stable: {_flag(is_stable(m, over))})",
        over.render(m),
        "",
        "pooled firm choice (join candidate, firm order):",
        lam.render(m),
        f"equals mu_boxed: {_flag(lam == named['mu_boxed'])}",
        f"worker-quasi-stable: {_flag(is_worker_quasi_stable(m, lam))}"
        f" | stable: {_flag(is_stable(m, lam))}",
        "blocking pairs: " + ", ".join(f"({p.firm},{p.worker})" for p in blocking_pairs(m, lam)),
        "",
        "first firm-side operator application:",
        step1.render(m),
        f"equals mu_circled: {_flag(step1 == named['mu_circled'])}"
        f" | stable: {_flag(is_stable(m, step1))}",
        "blocking pairs: " + ", ".join(f"({p.firm},{p.worker})" for p in blocking_pairs(m, step1)),
        "",
        "second firm-side operator application:",
        step2.render(m),
        f"equals mu_star: {_flag(step2 == named['mu_star'])}"
        f" | stable: {_flag(is_stable(m, step2))}",
        "blocking pairs: " + ", ".join(f"({p.firm},{p.worker})" for p in blocking_pairs(m, step2)),
        "",
        "third firm-side operator application:",
        step3.render(m),
        f"equals mu_star: {_flag(step3 == named['mu_star'])}"
        f" | stable: {_flag(is_stable(m, step3))}",
        "",
        f"join (firm order) of mu_under, mu_over equals mu_star: {_flag(join == named['mu_star'])}",
        f"firm-optimal from empty equals mu_star: {_flag(firm_opt.matching == named['mu_star'])}"
        f" ({firm_opt.note})",
    ]
    result = {
        "lambda": lam.to_json(),
        "first_step": step1.to_json(),
        "second_step": step2.to_json(),
        "third_step": step3.to_json(),
        "join_firms": join.to_json(),
    }
    return result, "\n".join(lines)


def _cmd_demo(args) -> int:
    bundle = load_bundle(args.name)
    if args.name == "example2":
        result, text = _demo_example2(bundle)
    else:
        result, text = _demo_example1(bundle)
    return _emit(args, result, text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="matchlattice", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "text"), default="text")
        sp.add_argument("--seed", type=int, default=0, help="seed for random: market refs")

    sp = sub.add_parser("validate", help="check the structural axioms of a market")
    sp.add_argument("market")
    sp.add_argument("--cap", type=int, default=14)
    sp.add_argument("--pi-cap", type=int, default=10, dest="pi_cap")
    sp.add_argument("--assume-substitutable", action="store_true", dest="assume_substitutable",
                    help="skip axiom checks on ground sets beyond the cap")
    common(sp)

    sp = sub.add_parser("stable-check", help="individual rationality, stability, blocking pairs")
    sp.add_argument("market")
    sp.add_argument("matching")
    common(sp)

    sp = sub.add_parser("quasi-check", help="worker- or firm-quasi-stability")
    sp.add_argument("market")
    sp.add_argument("matching")
    sp.add_argument("--side", choices=("firms", "workers"), required=True)
    sp.add_argument("--cap", type=int, default=14)
    sp.add_argument("--assume-substitutable", action="store_true", dest="assume_substitutable")
    common(sp)

    for which in ("join", "meet"):
        sp = sub.add_parser(which, help=f"{which} of two stable matchings")
        sp.add_argument("market")
        sp.add_argument("mu1")
        sp.add_argument("mu2")
        sp.add_argument("--side", choices=("firms", "workers"), default="firms")
        sp.add_argument("--trace", action="store_true")
        sp.add_argument("--no-check", action="store_true", dest="no_check")
        common(sp)

    sp = sub.add_parser("iterate", help="run one side's operator to its fixed point")
    sp.add_argument("market")
    sp.add_argument("matching")
    sp.add_argument("--side", choices=("firms", "workers"), required=True)
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--no-check", action="store_true", dest="no_check")
    common(sp)

    sp = sub.add_parser("enumerate", help="emit every matching as JSON lines with predicate flags")
    sp.add_argument("market")
    sp.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET.max_matchings)
    sp.add_argument("--ir-workers-only", action="store_true", dest="ir_workers_only")
    common(sp)

    sp = sub.add_parser("verify-lattice", help="exhaustively verify the stable lattice")
    sp.add_argument("market")
    sp.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET.max_matchings)
    common(sp)

    sp = sub.add_parser("replica", help="related-market pipeline for responsive markets")
    sp.add_argument("action", choices=("build", "phi", "phi-inverse"))
    sp.add_argument("market")
    sp.add_argument("matching", nargs="?")
    common(sp)

    sp = sub.add_parser("demo", help="replay a bundled example end to end")
    sp.add_argument("name", choices=("example1", "example2"))
    common(sp)

    return p


_HANDLERS = {
    "validate": _cmd_validate,
    "stable-check": _cmd_stable_check,
    "quasi-check": _cmd_quasi_check,
    "join": _cmd_join_meet,
    "meet": _cmd_join_meet,
    "iterate": _cmd_iterate,
    "enumerate": _cmd_enumerate,
    "verify-lattice": _cmd_verify_lattice,
    "replica": _cmd_replica,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "replica" and args.action in ("phi", "phi-inverse") and not args.matching:
            parser.error(f"replica {args.action} needs a matching file")
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except MatchLatticeError as e:
        err = {"type": type(e).__name__, "message": str(e)}
        if getattr(args, "format", "text") == "json":
            print(json.dumps({"ok": False, "result": None, "error": err}, indent=2))
        else:
            print(f"error ({err['type']}): {err['message']}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
