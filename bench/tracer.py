"""Per-layer tracing, installed from outside the library.

The traced run replaces public functions of ``matchlattice`` with wrappers
that record a span per call (name, start, end, parent span, task id) and
count work at the same boundary.  Nothing under ``src/`` knows about it:
every module attribute that refers to a wrapped function is swapped, so
calls between modules (``tarski`` calling ``matching.is_stable``) are seen
as well as the benchmark's own calls.  ``uninstall`` restores the originals.

A *group* is what one per-layer metric sums.  Inclusive time counts only
the outermost span of a group, so a group that nests in itself is not
counted twice; self time is a span's duration minus its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, group).  Groups without a metric below still give the
# span tree its structure and are subtracted from their parent's self time.
SPANS = (
    ("tarski", "iterate_to_fixed_point", "tarski.walk"),
    ("tarski", "tarski_firm_step", "tarski.step"),
    ("tarski", "tarski_worker_step", "tarski.step"),
    ("tarski", "lambda_join", "tarski.candidate"),
    ("tarski", "gamma_join", "tarski.candidate"),
    ("tarski", "stable_join_firms", "tarski.join_meet"),
    ("tarski", "stable_meet_firms", "tarski.join_meet"),
    ("tarski", "extremal_stable", "tarski.extremal"),
    ("matching", "is_stable", "matching.is_stable"),
    ("matching", "blocking_pairs", "matching.blocking_pairs"),
    ("matching", "has_blocking_pair", "matching.blocking_pairs"),
    ("matching", "is_worker_quasi_stable", "matching.quasi_check"),
    ("matching", "is_firm_quasi_stable", "matching.quasi_check"),
    ("matching", "blair_geq_firms", "matching.order_check"),
    ("matching", "blair_geq_workers", "matching.order_check"),
    ("matching", "unanimous_geq_workers", "matching.order_check"),
    ("matching", "worker_order_geq", "matching.order_check"),
    ("market", "validate_market", "market.validate"),
    ("market", "validate_substitutable", "market.validate"),
    ("market", "validate_consistent", "market.validate"),
    ("market", "validate_path_independent", "market.validate"),
    ("oracle", "random_market", "oracle.generate"),
    ("oracle", "enumerate_stable", "oracle.enumerate"),
    ("oracle", "enumerate_quasi_stable", "oracle.enumerate"),
    ("oracle", "brute_join", "oracle.brute"),
    ("oracle", "brute_meet", "oracle.brute"),
    ("oracle", "verify_lattice", "oracle.verify_lattice"),
    ("replica", "build_related_market", "replica.build"),
    ("replica", "phi_inverse_stable", "replica.phi_inverse"),
    ("replica", "lifted_join_firms", "replica.lifted"),
    ("replica", "lifted_meet_firms", "replica.lifted"),
    ("replica", "lifted_join_workers", "replica.lifted"),
    ("replica", "lifted_meet_workers", "replica.lifted"),
    ("cli", "main", "cli.main"),
)

# Called |F| or |W| times per operator step: counted, not spanned.
COUNTED = (
    ("matching", "F_set_of_worker", "matching.willing_set_calls"),
    ("matching", "W_set_of_firm", "matching.willing_set_calls"),
)

# An operator application that changes at most this share of the agents
# counts as a "few agents change" step, where an incremental operator gains.
FEW_CHANGED = 0.10

# Spans kept for the written trace, per task and function name (enumeration
# calls is_stable once per matching), and in all; past these only the
# aggregates grow.
MAX_SPANS_PER_NAME = 200
MAX_SPANS = 200_000


class Recorder:
    def __init__(self):
        self.task = None
        self.paused = False
        self.spans: list[tuple] = []
        self.dropped = 0
        self._kept: Counter = Counter()
        self.counts: Counter = Counter()
        # group -> [calls, outermost inclusive seconds, self seconds]
        self.groups = defaultdict(lambda: [0, 0.0, 0.0])
        self.step_seconds: list[float] = []
        self.applications = 0
        self.agents_evaluated = 0
        self.agents_changed = 0
        self.few_changed_applications = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._validate_depth = 0
        self._restore: list[tuple] = []
        self._t0 = perf_counter()

    # -- spans ---------------------------------------------------------------

    def open(self, group: str, name: str) -> list:
        stack = self._stack
        outer = all(f[0] != group for f in stack)
        parent = stack[-1][1] if stack else None
        frame = [group, self._next_id, parent, name, outer, 0.0, perf_counter()]
        self._next_id += 1
        stack.append(frame)
        if group == "market.validate":
            self._validate_depth += 1
        return frame

    def close(self, frame: list) -> float:
        end = perf_counter()
        group, sid, parent, name, outer, child, start = frame
        self._stack.pop()
        if group == "market.validate":
            self._validate_depth -= 1
        dur = end - start
        if self._stack:
            self._stack[-1][5] += dur
        agg = self.groups[group]
        agg[0] += 1
        if outer:
            agg[1] += dur
        agg[2] += dur - child
        key = (self.task, name)
        if self._kept[key] < MAX_SPANS_PER_NAME and len(self.spans) < MAX_SPANS:
            self._kept[key] += 1
            self.spans.append((sid, parent, self.task, name, start - self._t0, end - self._t0))
        else:
            self.dropped += 1
        return dur

    def begin_task(self, task_id) -> list:
        self.task = task_id
        return self.open("task", "task" if task_id != "setup" else "setup")

    def end_task(self, frame: list) -> None:
        self.close(frame)
        self.task = None

    # -- installation ---------------------------------------------------------

    def install(self, lib) -> None:
        modules = [lib.ml] + [getattr(lib, name) for name in lib.MODULES]
        for mod, attr, group in SPANS:
            after = None
            if group == "tarski.walk":
                after = self._walk_done
            elif group == "tarski.step":
                after = self._step_done
            fn = getattr(getattr(lib, mod), attr)
            self._swap(modules, fn, self._span_wrapper(fn, group, after))
        for mod, attr, counter in COUNTED:
            fn = getattr(getattr(lib, mod), attr)
            self._swap(modules, fn, self._count_wrapper(fn, counter))
        enum = lib.oracle.enumerate_matchings
        self._swap(modules, enum, self._enumerate_wrapper(enum))

        market = lib.market
        self._patch(market.ChoiceFunction, "choose", self._choose_wrapper(market.ChoiceFunction.choose))
        for cls in (market.SetListChoice, market.QuotaLinearChoice, lib.replica.QExtensionChoice):
            self._patch(cls, "_choose", self._count_wrapper(cls._choose, "market.choose_misses"))
        parse = self._span_wrapper(market.Market.from_json, "market.parse", None)
        self._patch(market.Market, "from_json", staticmethod(parse))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _swap(self, modules, fn, wrapper) -> None:
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def _patch(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def _span_wrapper(self, fn, group: str, after):
        rec = self
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            frame = rec.open(group, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = rec.close(frame)
            if after is not None:
                after(args, result, dur)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter: str):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.paused:
                rec.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _choose_wrapper(self, fn):
        rec = self

        @functools.wraps(fn)
        def choose(self, offered):
            if not rec.paused:
                rec.counts["market.choose_calls"] += 1
                if rec._validate_depth:
                    rec.counts["market.validate_choose_calls"] += 1
            return fn(self, offered)

        return choose

    def _enumerate_wrapper(self, fn):
        rec = self

        @functools.wraps(fn)
        def enumerate_matchings(*args, **kwargs):
            for mu in fn(*args, **kwargs):
                if not rec.paused:
                    rec.counts["oracle.matchings_enumerated"] += 1
                yield mu

        return enumerate_matchings

    def _step_done(self, args, result, dur: float) -> None:
        self.step_seconds.append(dur)

    def _walk_done(self, args, trace, dur: float) -> None:
        """Count agents whose assignment moved on each operator application.

        The walk applies the operator ``steps + 1`` times: the last
        application confirms the fixed point and changes nobody, but still
        re-evaluates every agent.
        """
        m = args[0]
        agents = len(m.firm_ids) + len(m.worker_ids)
        ms = trace.matchings
        for a, b in zip(ms, ms[1:]):
            changed = sum(a.of_firm(f) != b.of_firm(f) for f in m.firm_ids)
            changed += sum(a.of_worker(w) != b.of_worker(w) for w in m.worker_ids)
            self.agents_changed += changed
            if changed <= FEW_CHANGED * agents:
                self.few_changed_applications += 1
        applications = len(ms)
        self.applications += applications
        self.few_changed_applications += 1  # the confirming application
        self.agents_evaluated += applications * agents

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        def seconds(group):
            return self.groups[group][1] if group in self.groups else 0.0

        def calls(group):
            return self.groups[group][0] if group in self.groups else 0

        choose = self.counts["market.choose_calls"]
        misses = self.counts["market.choose_misses"]
        steps = self.step_seconds
        return {
            "tarski.steps": (calls("tarski.step"), "count"),
            "tarski.step_p50_ms": (statistics.median(steps) * 1000 if steps else 0.0, "ms"),
            "tarski.walk_s": (seconds("tarski.walk"), "s"),
            "tarski.candidate_s": (seconds("tarski.candidate"), "s"),
            "tarski.changed_agent_ratio": (
                self.agents_changed / self.agents_evaluated if self.agents_evaluated else 0.0,
                "ratio",
            ),
            "tarski.few_changed_step_share": (
                self.few_changed_applications / self.applications if self.applications else 0.0,
                "ratio",
            ),
            "market.choose_calls": (choose, "count"),
            "market.choose_misses": (misses, "count"),
            "market.memo_hit_ratio": ((choose - misses) / choose if choose else 0.0, "ratio"),
            "market.validate_s": (seconds("market.validate"), "s"),
            "market.validate_choose_calls": (self.counts["market.validate_choose_calls"], "count"),
            "market.parse_s": (seconds("market.parse"), "s"),
            "matching.is_stable_s": (seconds("matching.is_stable"), "s"),
            "matching.is_stable_calls": (calls("matching.is_stable"), "count"),
            "matching.willing_set_calls": (self.counts["matching.willing_set_calls"], "count"),
            "matching.order_check_s": (seconds("matching.order_check"), "s"),
            "matching.quasi_check_s": (seconds("matching.quasi_check"), "s"),
            "matching.blocking_pairs_s": (seconds("matching.blocking_pairs"), "s"),
            "oracle.generate_s": (seconds("oracle.generate"), "s"),
            "oracle.enumerate_s": (seconds("oracle.enumerate"), "s"),
            "oracle.matchings_enumerated": (self.counts["oracle.matchings_enumerated"], "count"),
            "oracle.brute_s": (seconds("oracle.brute"), "s"),
            "oracle.verify_lattice_s": (seconds("oracle.verify_lattice"), "s"),
            "replica.build_s": (seconds("replica.build"), "s"),
            "replica.phi_inverse_s": (seconds("replica.phi_inverse"), "s"),
            "replica.lifted_s": (seconds("replica.lifted"), "s"),
            "cli.main_s": (seconds("cli.main"), "s"),
            "cli.self_s": (self.groups["cli.main"][2] if "cli.main" in self.groups else 0.0, "s"),
            "cli.output_bytes": (self.counts["cli.output_bytes"], "bytes"),
        }

    def write(self, path) -> None:
        """Write every kept span as one JSON line: id, parent, task, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            header = {"spans": len(self.spans), "dropped": self.dropped, "clock": "seconds since recorder start"}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
