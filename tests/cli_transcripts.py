"""CLI transcripts and outputs on the bundled examples and the hand-built markets.

For every named matching of an example, a transcript runs ``stable-check``,
``quasi-check`` (default cap, ``--cap 1``, ``--assume-substitutable``) and
``iterate --trace`` (plain and ``--no-check``) on both sides, in text and
JSON, and records each command line with its exit code, stdout and stderr.
``tests/test_cli.py`` diffs them against ``tests/golden/predicates_<name>.txt``.
A second transcript runs ``join`` and ``meet`` on ``mu_under`` and
``mu_over`` on both sides with ``--trace --format json``; it is kept in
``tests/golden/join_meet_<name>.txt``.  A third runs the same commands on
UNION_COPIES relabelled copies of example2 as one market, with inputs that
differ block by block so that the walks move; it is kept in
``tests/golden/join_meet_union.txt``.

The stdout of single commands is kept as it is printed, in
``tests/golden/<command>_<name>.txt`` and ``.json``, so that the output of
an installed console script can be diffed against it directly:

* ``demo`` and ``verify-lattice`` (the oracle's join and meet tables) on
  each example;
* ``verify-lattice`` on ``tests/golden/latin6_market.json``, the 6 x 6
  many-to-one Latin core of ``tests/latin_cores.py``, whose stable set has
  six elements;
* ``enumerate`` of the worker-IR matchings of one random substitutable
  market, and of every matching of one random many-to-one market (the
  README's example), each with its predicate flags;
* ``validate`` on each example and on the hand-built markets
  ``tests/golden/nonsubstitutable_market.json`` and
  ``tests/golden/wide_ground_market.json``, whose violations name their
  witnesses (the second lists 3 of its 10 workers in a set list whose
  path-independence witness is the ninth subset of the ground set);
* ``replica build`` on ``tests/golden/responsive_market.json``, drawn once
  as ``random_market(2, RandomMarketSpec("many_to_many_responsive", 3, 4))``,
  and ``replica phi-inverse`` on that market and its one stable matching,
  ``tests/golden/responsive_stable.json``.

Regenerate the goldens (only when an output change is intended) with

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/cli_transcripts.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from matchlattice.cli import load_bundle, main

GOLDEN = Path(__file__).parent / "golden"
EXAMPLES = ("example1", "example2")
FORMATS = ("text", "json")
# Markets whose ``validate`` output is kept; those outside EXAMPLES are read
# from ``tests/golden/<name>_market.json`` and fail validation.
VALIDATED = (*EXAMPLES, "nonsubstitutable", "wide_ground")
# Markets whose ``verify-lattice`` output is kept, read the same way.
LATTICES = (*EXAMPLES, "latin6")
# The ``enumerate`` commands whose streams are kept, by golden file name.
ENUMERATE = {
    "random_sub_3x4": ["enumerate", "random:many_to_many_sub:3x4", "--seed", "7", "--ir-workers-only"],
    "many_to_one_3x3": ["enumerate", "random:many_to_one:3x3", "--seed", "7"],
}


def golden_path(name: str) -> Path:
    return GOLDEN / f"predicates_{name}.txt"


def join_meet_path(name: str) -> Path:
    return GOLDEN / f"join_meet_{name}.txt"


def output_path(command: str, name: str, fmt: str) -> Path:
    """Where the stdout of ``command`` on ``name`` in format ``fmt`` is kept."""
    return GOLDEN / f"{command.replace('-', '_')}_{name}.{'json' if fmt == 'json' else 'txt'}"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _stdout(argv: list[str], code: int = 0) -> str:
    """The stdout of a command that must exit with ``code`` and print no error."""
    got, out, err = _run(argv)
    assert got == code and not err, (argv, got, err)
    return out


def _commands(name: str, matching: Path):
    yield ["stable-check", name, matching]
    for side in ("firms", "workers"):
        for extra in ([], ["--cap", "1"], ["--assume-substitutable"]):
            yield ["quasi-check", name, matching, "--side", side, *extra]
        for extra in ([], ["--no-check"]):
            yield ["iterate", name, matching, "--side", side, "--trace", *extra]


def _transcribe(files: dict, commands) -> str:
    """Run ``commands(paths)`` with each JSON object of ``files`` written to ``<label>.json``.

    ``paths`` maps each label to its file; a command line is shown with
    file names in place of paths.
    """
    chunks = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for label, obj in files.items():
            paths[label] = Path(tmp) / f"{label}.json"
            paths[label].write_text(json.dumps(obj))
        for argv in commands(paths):
            code, out, err = _run([str(a) for a in argv])
            shown = " ".join(a.name if isinstance(a, Path) else a for a in argv)
            chunks.append(
                f"$ matchlattice {shown}\n[exit {code}]\n{out}" + (f"[stderr]\n{err}" if err else "")
            )
    return "\n".join(chunks)


def transcript(name: str) -> str:
    def commands(paths):
        for path in paths.values():
            for argv in _commands(name, path):
                for fmt in FORMATS:
                    yield [*argv, "--format", fmt]

    return _transcribe(load_bundle(name)["matchings"], commands)


def _join_meet_commands(market, mu1: Path, mu2: Path):
    for op in ("join", "meet"):
        for side in ("firms", "workers"):
            yield [op, market, mu1, mu2, "--side", side, "--trace", "--format", "json"]


def join_meet(name: str) -> str:
    def commands(paths):
        return _join_meet_commands(name, paths["mu_under"], paths["mu_over"])

    return _transcribe(load_bundle(name)["matchings"], commands)


UNION_COPIES = 4
# The example2 matching each input holds in each block of the union.
UNION_BLOCKS = (
    ("mu_under", "mu_over", "mu_star", "mu_under"),
    ("mu_over", "mu_under", "mu_under", "mu_star"),
)


def relabel(a: str, block: int) -> str:
    return f"{a}.{block}"


def union_market(name: str, copies: int) -> dict:
    """``copies`` relabelled copies of a bundled example's market, as one market's JSON."""
    market = load_bundle(name)["market"]
    out = {"variant": market["variant"], "firms": {}, "workers": {}}
    for block in range(copies):
        for side in ("firms", "workers"):
            for agent, spec in market[side].items():
                spec = dict(spec)
                if "list" in spec:
                    spec["list"] = [[relabel(x, block) for x in entry] for entry in spec["list"]]
                if "order" in spec:
                    spec["order"] = [relabel(x, block) for x in spec["order"]]
                out[side][relabel(agent, block)] = spec
    return out


def join_meet_union() -> str:
    """``join`` and ``meet`` on the union market, its inputs named by UNION_BLOCKS."""
    named = load_bundle("example2")["matchings"]
    files = {"example2_union": union_market("example2", UNION_COPIES)}
    for i, labels in enumerate(UNION_BLOCKS, start=1):
        assignments = {
            relabel(f, block): [relabel(w, block) for w in ws]
            for block, label in enumerate(labels)
            for f, ws in named[label]["assignments"].items()
        }
        files[f"mu_{i}"] = {"assignments": assignments}

    def commands(paths):
        return _join_meet_commands(paths["example2_union"], paths["mu_1"], paths["mu_2"])

    return _transcribe(files, commands)


def join_meet_union_path() -> Path:
    return GOLDEN / "join_meet_union.txt"


def market_arg(name: str) -> str:
    """A bundled example's name, or the path of ``tests/golden/<name>_market.json``."""
    return name if name in EXAMPLES else str(GOLDEN / f"{name}_market.json")


def verify_lattice(name: str, fmt: str) -> str:
    """The stdout of ``verify-lattice``, which must exit 0 on every market in LATTICES."""
    return _stdout(["verify-lattice", market_arg(name), "--format", fmt])


def validate(name: str, fmt: str) -> str:
    """The stdout of ``validate``: exit 0 on an example, 1 on a hand-built market."""
    return _stdout(["validate", market_arg(name), "--format", fmt], 0 if name in EXAMPLES else 1)


def enumerate_stream(name: str) -> str:
    """The stdout of the ENUMERATE command ``name``: one JSON line per matching."""
    return _stdout(ENUMERATE[name])


def enumerate_path(name: str) -> Path:
    return GOLDEN / f"enumerate_{name}.txt"


def latin6_market() -> str:
    """The 6 x 6 many-to-one Latin core as ``tests/golden/latin6_market.json`` keeps it."""
    from latin_cores import latin_core

    return json.dumps(latin_core("many_to_one", 6).to_json(), indent=2) + "\n"


def demo(name: str, fmt: str) -> str:
    return _stdout(["demo", name, "--format", fmt])


def replica_build(fmt: str) -> str:
    """The stdout of ``replica build`` on the hand-built responsive market."""
    return _stdout(["replica", "build", str(GOLDEN / "responsive_market.json"), "--format", fmt])


def replica_phi_inverse(fmt: str) -> str:
    """The stdout of ``replica phi-inverse`` on the same market and its stable matching."""
    market, matching = GOLDEN / "responsive_market.json", GOLDEN / "responsive_stable.json"
    return _stdout(["replica", "phi-inverse", str(market), str(matching), "--format", fmt])


if __name__ == "__main__":
    for name in sys.argv[1:] or (*VALIDATED, "latin6", "responsive", "enumerate", "union"):
        if name == "union":
            join_meet_union_path().write_text(join_meet_union())
        if name == "latin6":
            (GOLDEN / "latin6_market.json").write_text(latin6_market())
        if name == "enumerate":
            for stream in ENUMERATE:
                enumerate_path(stream).write_text(enumerate_stream(stream))
        for fmt in FORMATS:
            if name in LATTICES:
                output_path("verify-lattice", name, fmt).write_text(verify_lattice(name, fmt))
            if name in EXAMPLES:
                output_path("demo", name, fmt).write_text(demo(name, fmt))
            if name in VALIDATED:
                output_path("validate", name, fmt).write_text(validate(name, fmt))
            if name == "responsive":
                output_path("replica-build", name, fmt).write_text(replica_build(fmt))
                output_path("replica-phi-inverse", name, fmt).write_text(replica_phi_inverse(fmt))
        if name in EXAMPLES:
            golden_path(name).write_text(transcript(name))
            join_meet_path(name).write_text(join_meet(name))
