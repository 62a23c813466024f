"""CLI transcripts of the predicate, walk and lattice commands on the bundled examples.

For every named matching of an example, a transcript runs ``stable-check``,
``quasi-check`` (default cap, ``--cap 1``, ``--assume-substitutable``) and
``iterate --trace`` (plain and ``--no-check``) on both sides, in text and
JSON, and records each command line with its exit code, stdout and stderr.
``tests/test_cli.py`` diffs them against ``tests/golden/predicates_<name>.txt``.
The stdout of ``verify-lattice <name>`` in text and JSON, which holds the
oracle's join and meet tables, is kept as it is printed in
``tests/golden/verify_lattice_<name>.txt`` and ``.json``, so that the output
of an installed console script can be diffed against it directly.  So is the
stdout of ``validate`` on each example and on the hand-built market
``tests/golden/nonsubstitutable_market.json``, whose violations name their
witnesses, in ``tests/golden/validate_<name>.txt`` and ``.json``.

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
# Markets whose ``validate`` output is kept; those outside EXAMPLES are read
# from ``tests/golden/<name>_market.json`` and fail validation.
VALIDATED = (*EXAMPLES, "nonsubstitutable")


def golden_path(name: str) -> Path:
    return GOLDEN / f"predicates_{name}.txt"


def verify_lattice_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"verify_lattice_{name}.{'json' if fmt == 'json' else 'txt'}"


def validate_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"validate_{name}.{'json' if fmt == 'json' else 'txt'}"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _commands(name: str, matching: str):
    yield ["stable-check", name, matching]
    for side in ("firms", "workers"):
        for extra in ([], ["--cap", "1"], ["--assume-substitutable"]):
            yield ["quasi-check", name, matching, "--side", side, *extra]
        for extra in ([], ["--no-check"]):
            yield ["iterate", name, matching, "--side", side, "--trace", *extra]


def transcript(name: str) -> str:
    chunks = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, mu in load_bundle(name)["matchings"].items():
            path = Path(tmp) / f"{label}.json"
            path.write_text(json.dumps(mu))
            for argv in _commands(name, str(path)):
                for fmt in ("text", "json"):
                    code, out, err = _run([*argv, "--format", fmt])
                    shown = " ".join([*argv, "--format", fmt]).replace(str(path), path.name)
                    chunks.append(
                        f"$ matchlattice {shown}\n[exit {code}]\n{out}"
                        + (f"[stderr]\n{err}" if err else "")
                    )
    return "\n".join(chunks)


def verify_lattice(name: str, fmt: str) -> str:
    """The stdout of ``verify-lattice``, which must exit 0 on a bundled example."""
    code, out, err = _run(["verify-lattice", name, "--format", fmt])
    assert code == 0 and not err, (code, err)
    return out


def validate(name: str, fmt: str) -> str:
    """The stdout of ``validate``: exit 0 on an example, 1 on a hand-built market."""
    market = name if name in EXAMPLES else str(GOLDEN / f"{name}_market.json")
    code, out, err = _run(["validate", market, "--format", fmt])
    assert code == (0 if name in EXAMPLES else 1) and not err, (code, err)
    return out


if __name__ == "__main__":
    for name in sys.argv[1:] or VALIDATED:
        if name in EXAMPLES:
            golden_path(name).write_text(transcript(name))
            for fmt in ("text", "json"):
                verify_lattice_path(name, fmt).write_text(verify_lattice(name, fmt))
        for fmt in ("text", "json"):
            validate_path(name, fmt).write_text(validate(name, fmt))
