"""The benchmark's three workloads.

Each workload is built from a seed.  Building it is the set-up: it imports
the library, makes the inputs and warms up.  ``tasks()`` then yields an
endless, seed-determined stream of tasks; a task's inputs are made before it
is yielded, so only ``Task.run`` is timed.  ``Task.check`` compares the
result with an answer that does not come from the code path under test and
raises ``CheckFailed`` on a mismatch.  See README.md for why each workload
exists.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import sys
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DEMO = ROOT / "tests" / "golden" / "demo_example1.txt"

MODULES = ("cli", "market", "matching", "tarski", "oracle", "replica")
VARIANTS = ("many_to_one", "many_to_many_responsive", "many_to_many_sub")
FIRM_KINDS = ("quota_linear", "set_list", "mixed")


class CheckFailed(Exception):
    """A task's result disagrees with its independent answer."""


def expect(condition: bool, message: str) -> int:
    if not condition:
        raise CheckFailed(message)
    return 1


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], int]  # number of checks passed


def import_library() -> SimpleNamespace:
    """Import matchlattice afresh, so that each set-up pays the import."""
    for name in [n for n in sys.modules if n == "matchlattice" or n.startswith("matchlattice.")]:
        del sys.modules[name]
    lib = SimpleNamespace(ml=importlib.import_module("matchlattice"), MODULES=MODULES)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"matchlattice.{name}"))
    return lib


def enumeration_budget(lib, m):
    """The budget the CLI gives a market larger than the default 6x7."""
    default = lib.oracle.DEFAULT_BUDGET
    return lib.oracle.EnumerationBudget(
        max_matchings=default.max_matchings,
        max_firms=max(default.max_firms, len(m.firm_ids)),
        max_workers=max(default.max_workers, len(m.worker_ids)),
    )


class Workload:
    name = ""
    setup_repeats = 5  # set-ups per timed run; setup_s is their median
    trace_tasks = 0  # length of the fixed task list of a traced run
    memory_tasks = 0  # tasks run under tracemalloc for market.retained_mb

    def __init__(self, lib, seed: int, rec=None):
        self.lib = lib
        self.seed = seed
        self.rec = rec
        self.golden = GOLDEN_DEMO.read_bytes()
        self.smoke()

    def tasks(self) -> Iterator[Task]:
        raise NotImplementedError

    def task_count(self, seconds: float) -> int | None:
        """Tasks in a timed run, or None to run for ``seconds`` of wall time."""
        return None

    def fresh_tasks(self, n: int) -> list[Task]:
        """The first ``n`` tasks on inputs no earlier task has touched."""
        return list(islice(self.tasks(), n))

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(argv)
        out = buf.getvalue()
        if self.rec is not None and not self.rec.paused:
            self.rec.counts["cli.output_bytes"] += len(out.encode())
        return code, out

    def smoke(self) -> None:
        """One call into every module on example-sized inputs.

        It checks the install and pays first-call costs (lazy imports, the
        bundled-asset reader) in set-up rather than in the first task.
        """
        lib = self.lib
        code, out = self.run_cli(["demo", "example1"])
        expect(code == 0 and out.encode() == self.golden, "smoke: demo example1 differs from golden")
        code, out = self.run_cli(["verify-lattice", "example1"])
        expect(code == 0 and "lattice verified: true" in out, "smoke: verify-lattice example1 failed")
        m = lib.oracle.random_market(0, lib.oracle.RandomMarketSpec("many_to_many_responsive", 3, 4))
        firm_opt = lib.tarski.extremal_stable(m, "firms", verify=False).matching
        worker_opt = lib.tarski.extremal_stable(m, "workers", verify=False).matching
        rm = lib.replica.build_related_market(m)
        join = lib.tarski.stable_join_firms(m, firm_opt, worker_opt)
        meet = lib.tarski.stable_meet_firms(m, firm_opt, worker_opt)
        expect(lib.replica.lifted_join_firms(rm, firm_opt, worker_opt) == join, "smoke: lifted join")
        expect(lib.replica.lifted_meet_firms(rm, firm_opt, worker_opt) == meet, "smoke: lifted meet")


# -- cold-walk -----------------------------------------------------------------


class ColdWalk(Workload):
    """Extremal walks from the empty matching on fresh 64x64 markets."""

    name = "cold-walk"
    trace_tasks = 45
    memory_tasks = 3
    SIZE = 64

    def __init__(self, lib, seed, rec=None):
        super().__init__(lib, seed, rec)
        warm = random.Random(f"{seed}:warm-up")
        for variant in VARIANTS:
            task = self.task(variant, warm.getrandbits(32), size=16)
            task.check(task.run())

    def task(self, variant: str, market_seed: int, size: int = SIZE) -> Task:
        lib = self.lib
        spec = lib.oracle.RandomMarketSpec(variant, size, size, density=0.5, firm_quota_max=3)
        m = lib.oracle.random_market(market_seed, spec)
        responsive = variant == "many_to_many_responsive"

        def run():
            t = lib.tarski
            firm_opt = t.extremal_stable(m, "firms", verify=False).matching
            worker_opt = t.extremal_stable(m, "workers", verify=False).matching
            join = t.stable_join_firms(m, firm_opt, worker_opt, check=True)
            meet = t.stable_meet_firms(m, firm_opt, worker_opt, check=True)
            lifted = None
            if responsive:
                rm = lib.replica.build_related_market(m)
                lifted = (
                    lib.replica.lifted_join_firms(rm, firm_opt, worker_opt),
                    lib.replica.lifted_meet_firms(rm, firm_opt, worker_opt),
                )
            return firm_opt, worker_opt, join, meet, lifted

        def check(result):
            firm_opt, worker_opt, join, meet, lifted = result
            mt = lib.matching
            n = expect(mt.is_stable(m, firm_opt), f"{variant}: firm optimum not stable")
            n += expect(mt.is_stable(m, worker_opt), f"{variant}: worker optimum not stable")
            n += expect(
                mt.blair_geq_firms(m, firm_opt, worker_opt),
                f"{variant}: firm optimum below worker optimum in the firm order",
            )
            n += expect(join == firm_opt, f"{variant}: join of the extremes is not the firm optimum")
            n += expect(meet == worker_opt, f"{variant}: meet of the extremes is not the worker optimum")
            if responsive:
                n += expect(lifted[0] == join, "responsive: replica-lifted join differs")
                n += expect(lifted[1] == meet, "responsive: replica-lifted meet differs")
            return n

        return Task(variant, run, check)

    def tasks(self):
        rng = random.Random(self.seed)
        for i in range(sys.maxsize):
            yield self.task(VARIANTS[i % len(VARIANTS)], rng.getrandbits(32))


# -- lattice-queries -----------------------------------------------------------


def _relabel(a: str, block: int) -> str:
    return f"{a}.{block}"


def union_market_json(market_json: dict, copies: int) -> dict:
    """``copies`` disjoint, relabelled copies of one market, as one market."""
    out = {"variant": market_json["variant"], "firms": {}, "workers": {}}
    for block in range(copies):
        for side in ("firms", "workers"):
            for agent, spec in market_json[side].items():
                spec = dict(spec)
                if "list" in spec:
                    spec["list"] = [[_relabel(x, block) for x in entry] for entry in spec["list"]]
                if "order" in spec:
                    spec["order"] = [_relabel(x, block) for x in spec["order"]]
                out[side][_relabel(agent, block)] = spec
    return out


@dataclass
class Block:
    """One template market: its oracle tables and its union of copies."""

    name: str
    copies: int
    market_json: dict
    stable: list  # the template's stable matchings, in oracle order
    join_table: dict
    meet_table: dict
    union: object = None

    def matching(self, lib, indices: list[int]):
        edges = [
            (_relabel(f, block), _relabel(w, block))
            for block, i in enumerate(indices)
            for f, w in self.stable[i].edges
        ]
        return lib.matching.Matching(edges)


class LatticeQueries(Workload):
    """Join and meet queries on unions of relabelled example copies."""

    name = "lattice-queries"
    setup_repeats = 3  # each set-up enumerates example2's stable set twice
    trace_tasks = 120
    memory_tasks = 20
    TEMPLATES = (("example1", 24), ("example2", 12))
    WARM_UP = 4

    def __init__(self, lib, seed, rec=None):
        super().__init__(lib, seed, rec)
        self.blocks = []
        for name, copies in self.TEMPLATES:
            market_json = lib.cli.load_bundle(name)["market"]
            template = lib.market.Market.from_json(market_json)
            budget = enumeration_budget(lib, template)
            stable = lib.oracle.enumerate_stable(template, budget)
            report = lib.oracle.verify_lattice(template, budget)
            expect(report.ok and report.stable_count == len(stable), f"{name}: oracle tables failed")
            self.blocks.append(
                Block(name, copies, market_json, stable, report.join_table, report.meet_table)
            )
        self.build_markets()
        for task in self.query_stream(random.Random(f"{seed}:warm-up"), self.WARM_UP):
            task.check(task.run())

    def build_markets(self) -> None:
        for block in self.blocks:
            block.union = self.lib.market.Market.from_json(
                union_market_json(block.market_json, block.copies)
            )

    def query_stream(self, rng: random.Random, n: int) -> Iterator[Task]:
        """Join, meet, on each union market in turn."""
        for i in range(n):
            block = self.blocks[(i // 2) % len(self.blocks)]
            yield self.query(block, ("join", "meet")[i % 2], rng)

    def query(self, block: Block, label: str, rng: random.Random) -> Task:
        lib = self.lib
        k = len(block.stable)
        a = [rng.randrange(k) for _ in range(block.copies)]
        b = [rng.randrange(k) for _ in range(block.copies)]
        mu, mu2 = block.matching(lib, a), block.matching(lib, b)
        table = block.join_table if label == "join" else block.meet_table
        expected = block.matching(lib, [table[(min(i, j), max(i, j))] for i, j in zip(a, b)])
        m = block.union

        def run():
            op = lib.tarski.stable_join_firms if label == "join" else lib.tarski.stable_meet_firms
            return op(m, mu, mu2, check=True)

        def check(result):
            return expect(result == expected, f"{block.name}: {label} differs from the block-wise oracle")

        return Task(f"{block.name}-{label}", run, check)

    def tasks(self):
        return self.query_stream(random.Random(self.seed), sys.maxsize)

    def fresh_tasks(self, n):
        self.build_markets()
        return super().fresh_tasks(n)


# -- desk-verify -----------------------------------------------------------------

# Non-substitutable set lists, each with the witnesses worked out by hand
# from the validators' definitions and their subset order.  Set lists are
# always consistent, so consistency takes its full-search path here while
# substitutability and path independence stop at the first violation.
INVALID_MARKETS = (
    (
        "many_to_one",
        {"f1": ("set_list", [["w1", "w2"], ["w1"]]), "f2": ("quota_linear", ["w3", "w2", "w1"], 2)},
        {"w1": ["f1", "f2"], "w2": ["f2", "f1"], "w3": ["f2"]},
        None,
        {"f1": {"substitutable": (["w1", "w2"], ["w2"], "w2"), "path_independent": (["w2"], ["w1"], None)}},
    ),
    (
        "many_to_many_sub",
        {"f1": ("quota_linear", ["w1", "w2"], 2), "f2": ("quota_linear", ["w2", "w1"], 1)},
        {"w1": ("set_list", [["f1", "f2"], ["f2"]]), "w2": ("quota_linear", ["f1", "f2"], 2)},
        None,
        {"w1": {"substitutable": (["f1", "f2"], ["f1"], "f1"), "path_independent": (["f1"], ["f2"], None)}},
    ),
    (
        "many_to_many_responsive",
        {"f1": ("set_list", [["w2", "w3"], ["w1"]]), "f2": ("quota_linear", ["w1", "w3"], 1)},
        {"w1": ["f2", "f1"], "w2": ["f1"], "w3": ["f1", "f2"]},
        {"w1": 2, "w2": 1, "w3": 2},
        {"f1": {"substitutable": (["w2", "w3"], ["w3"], "w3"), "path_independent": (["w2"], ["w3"], None)}},
    ),
)

EXAMPLE_STABLE_COUNTS = {"example1": 4, "example2": 5}


class DeskVerify(Workload):
    """Exhaustive checks at desk scale, through the CLI and the library."""

    name = "desk-verify"
    trace_tasks = 80
    memory_tasks = 15
    SIZE = (4, 5)
    DENSITY = 0.5
    # Desk scale: markets whose worker-IR enumeration exceeds this are
    # redrawn (about one draw in ten).  Enumeration cost grows with it, and
    # without a cap the few heaviest draws of a run set its 90th percentile.
    MAX_MATCHINGS = 1000
    FIRST_MARKETS = 9
    MARKETS_PER_SECOND = 30

    def task_count(self, seconds):
        """A fixed amount of work: the fixed tasks plus random markets.

        One ``validate example2`` is about a third of a 30 s run.  Were the
        run cut at a wall-clock deadline, a slower machine would leave less
        time for the random markets after it, so the task count would fall
        faster than the machine slowed.  Fixing the work per ``--seconds``
        keeps tasks_per_s proportional to speed.
        """
        markets = max(self.FIRST_MARKETS, round(self.MARKETS_PER_SECOND * seconds))
        return 3 + len(INVALID_MARKETS) + 2 + markets

    def cli_task(self, argv: list[str]) -> Task:
        def run():
            return self.run_cli(argv)

        def check(result):
            code, out = result
            what = " ".join(argv)
            n = expect(code == 0, f"{what}: exit code {code}")
            if argv[0] == "demo":
                return n + expect(out.encode() == self.golden, f"{what}: differs from golden")
            if argv[0] == "validate":
                return n + expect(out.splitlines()[0] == "validation: pass", f"{what}: verdict")
            count = EXAMPLE_STABLE_COUNTS[argv[1]]
            n += expect(f"stable matchings: {count}\n" in out, f"{what}: stable count")
            return n + expect("lattice verified: true" in out, f"{what}: lattice verdict")

        return Task(f"cli-{argv[0]}-{argv[1]}", run, check)

    def invalid_task(self, spec) -> Task:
        lib = self.lib
        mk = lib.market
        variant, firms, workers, quotas, expected = spec

        def choice(entry):
            if entry[0] == "set_list":
                return mk.SetListChoice(entry[1])
            return mk.QuotaLinearChoice(entry[1], entry[2])

        firm_choices = {f: choice(e) for f, e in firms.items()}
        if variant == "many_to_many_sub":
            m = mk.Market(variant, firm_choices, worker_choices={w: choice(e) for w, e in workers.items()})
        else:
            prefs = {w: mk.LinearPref(order) for w, order in workers.items()}
            m = mk.Market(variant, firm_choices, worker_prefs=prefs, worker_quotas=quotas)

        def run():
            return lib.market.validate_market(m)

        def check(report):
            n = expect(not report.ok and not report.referential, f"{variant}: invalid market passed")
            for agent, reports in report.agents.items():
                got = {
                    r.axiom: (sorted(r.violation.offered), sorted(r.violation.suboffer), r.violation.agent)
                    for r in reports
                    if not r.ok
                }
                n += expect(
                    got == expected.get(agent, {}), f"{variant}: {agent} violations {got}"
                )
            return n

        return Task(f"invalid-{variant}", run, check)

    def market_task(self, rng: random.Random, i: int) -> Task:
        """Validate one market, verify its lattice and verify both optima."""
        lib = self.lib
        variant = VARIANTS[i % len(VARIANTS)]
        kind = FIRM_KINDS[(i // len(VARIANTS)) % len(FIRM_KINDS)]
        spec = lib.oracle.RandomMarketSpec(
            variant, *self.SIZE, density=self.DENSITY, firm_kind=kind, worker_kind=kind
        )
        while True:
            m = lib.oracle.random_market(rng.getrandbits(32), spec)
            if lib.oracle.count_matchings(m, ir_workers_only=True) <= self.MAX_MATCHINGS:
                break
        label = f"{variant}-{kind}"

        def run():
            return (
                lib.market.validate_market(m),
                lib.oracle.verify_lattice(m),
                lib.tarski.extremal_stable(m, "firms", verify=True),
                lib.tarski.extremal_stable(m, "workers", verify=True),
            )

        def check(result):
            validation, lattice, firm_opt, worker_opt = result
            n = expect(validation.ok, f"{label}: validation failed")
            n += expect(lattice.ok, f"{label}: lattice verification failed: {lattice.problems}")
            n += expect(firm_opt.verified_optimal is True, f"{label}: firms: {firm_opt.note}")
            return n + expect(worker_opt.verified_optimal is True, f"{label}: workers: {worker_opt.note}")

        return Task(label, run, check)

    def tasks(self):
        """One pass of the fixed desk tasks, then random markets to the end.

        The two example2 commands come after the first random markets, so a
        short self-test run reaches every other task kind first.
        """
        rng = random.Random(self.seed)
        for name in ("demo", "validate", "verify-lattice"):
            yield self.cli_task([name, "example1"])
        for spec in INVALID_MARKETS:
            yield self.invalid_task(spec)
        for i in range(self.FIRST_MARKETS):
            yield self.market_task(rng, i)
        yield self.cli_task(["verify-lattice", "example2"])
        yield self.cli_task(["validate", "example2"])
        for i in range(self.FIRST_MARKETS, sys.maxsize):
            yield self.market_task(rng, i)


WORKLOADS = {w.name: w for w in (ColdWalk, LatticeQueries, DeskVerify)}
