"""CLI behaviour: subcommands, exit codes, JSON wrapping, golden transcripts."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchlattice
from matchlattice.cli import load_bundle, main

import cli_transcripts

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def asset_files(tmp_path):
    """Example 1 written out as separate market/matching files."""
    bundle = load_bundle("example1")
    market = tmp_path / "market.json"
    market.write_text(json.dumps(bundle["market"]))
    paths = {"market": market}
    for name, mu in bundle["matchings"].items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(mu))
        paths[name] = p
    return paths


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_pass(capsys, asset_files):
    code, out, _ = run(capsys, "validate", asset_files["market"])
    assert code == 0
    assert "validation: pass" in out


def test_market_argument_accepts_bundle_file(capsys, tmp_path):
    bundle = load_bundle("example1")
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and "validation: pass" in out


def test_market_argument_accepts_example_names(capsys):
    for name in ("example1", "example2"):
        code, out, _ = run(capsys, "validate", name)
        assert code == 0 and "validation: pass" in out


def test_validate_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "variant": "many_to_one",
                "firms": {"f1": {"kind": "set_list", "list": [["w1", "w2"]]}},
                "workers": {
                    "w1": {"kind": "linear", "order": ["f1"]},
                    "w2": {"kind": "linear", "order": ["f1"]},
                },
            }
        )
    )
    code, out, _ = run(capsys, "validate", bad)
    assert code == 1
    assert "substitutable violated" in out


def test_stable_check(capsys, asset_files):
    code, out, _ = run(capsys, "stable-check", asset_files["market"], asset_files["mu_boxed"])
    assert code == 0
    assert "stable: false" in out and "(f3,w1)" in out
    code, out, _ = run(capsys, "stable-check", asset_files["market"], asset_files["mu_star"])
    assert "stable: true" in out


def test_quasi_check(capsys, asset_files):
    code, out, _ = run(
        capsys, "quasi-check", asset_files["market"], asset_files["mu_boxed"], "--side", "workers"
    )
    assert code == 0 and "worker-quasi-stable: true" in out
    code, out, _ = run(
        capsys, "quasi-check", asset_files["market"], asset_files["mu_boxed"], "--side", "firms"
    )
    assert "firm-quasi-stable: false" in out


def test_join_meet_commands(capsys, asset_files):
    code, out, _ = run(
        capsys, "join", asset_files["market"], asset_files["mu_under"], asset_files["mu_over"],
        "--side", "firms", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    expected = json.loads(asset_files["mu_star"].read_text())
    assert payload["result"]["result"] == expected

    code, out, _ = run(
        capsys, "meet", asset_files["market"], asset_files["mu_under"], asset_files["mu_over"],
        "--format", "json", "--trace",
    )
    payload = json.loads(out)
    expected = json.loads(asset_files["mu_dagger"].read_text())
    assert payload["result"]["result"] == expected
    assert payload["result"]["trace"]["steps"] == 1


def test_join_rejects_unstable_input(capsys, asset_files):
    code, out, err = run(
        capsys, "join", asset_files["market"], asset_files["mu_boxed"], asset_files["mu_over"]
    )
    assert code == 1
    assert "NotStable" in err
    code, out, _ = run(
        capsys, "join", asset_files["market"], asset_files["mu_boxed"], asset_files["mu_over"],
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["ok"] is False and payload["error"]["type"] == "NotStable"


def error_bytes(fmt, kind, message):
    """What ``main`` prints for a domain error: ``(stdout, stderr)``."""
    if fmt == "json":
        err = {"type": kind, "message": message}
        return json.dumps({"ok": False, "result": None, "error": err}, indent=2) + "\n", ""
    return "", f"error ({kind}): {message}\n"


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("op", ("join", "meet"))
def test_join_meet_gate_error_bytes(capsys, asset_files, op, fmt):
    """The gate names the unstable file, first or second, in the CLI's own words."""
    boxed = asset_files["mu_boxed"]
    for pair in ((boxed, asset_files["mu_over"]), (asset_files["mu_under"], boxed)):
        code, out, err = run(capsys, op, asset_files["market"], *pair, "--format", fmt)
        assert code == 1
        assert (out, err) == error_bytes(fmt, "NotStable", f"{boxed} is not stable in this market")


@pytest.mark.parametrize("check", ((), ("--no-check",)))
def test_matching_files_are_validated_before_the_gate(capsys, asset_files, tmp_path, check):
    """A second file naming an outside firm fails on its schema, checked or not."""
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"assignments": {"f9": ["w1"]}}))
    code, out, err = run(capsys, "join", asset_files["market"], asset_files["mu_boxed"], foreign, *check)
    assert (code, out, err) == (1, *error_bytes("text", "SchemaError", "matching references unknown firm 'f9'"))


@pytest.mark.parametrize("check", ((), ("--no-check",)))
@pytest.mark.parametrize(
    "assignments, message",
    [
        ({"f9": ["w1"]}, "matching references unknown firm 'f9'"),
        ({"f1": ["w1"], "f2": ["w1"]}, "worker w1 holds 2 firms in a many-to-one market"),
    ],
    ids=["unknown-firm", "two-firms"],
)
def test_iterate_start_error_bytes(capsys, asset_files, tmp_path, assignments, message, check):
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"assignments": assignments}))
    for fmt in ("text", "json"):
        code, out, err = run(
            capsys, "iterate", asset_files["market"], start, "--side", "firms", "--format", fmt, *check
        )
        assert (code, out, err) == (1, *error_bytes(fmt, "SchemaError", message))


def test_iterate_command(capsys, asset_files):
    code, out, _ = run(
        capsys, "iterate", asset_files["market"], asset_files["mu_boxed"],
        "--side", "firms", "--format", "json", "--trace",
    )
    payload = json.loads(out)
    assert payload["result"]["steps"] == 1
    expected = json.loads(asset_files["mu_star"].read_text())
    assert payload["result"]["fixed_point"] == expected


def test_iterate_precondition_and_bypass(capsys, asset_files):
    code, _, err = run(
        capsys, "iterate", asset_files["market"], asset_files["mu_circled"], "--side", "firms"
    )
    assert code == 1 and "NotWorkerQuasiStable" in err
    code, out, _ = run(
        capsys, "iterate", asset_files["market"], asset_files["mu_circled"],
        "--side", "workers", "--format", "json",
    )
    assert code == 0


def test_enumerate_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "random:many_to_one:2x2", "--seed", "7")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 9
    for row in lines:
        assert set(row) == {
            "assignments", "individually_rational", "stable",
            "worker_quasi_stable", "firm_quasi_stable",
        }
    assert any(row["stable"] for row in lines)


def test_enumerate_json_ends_with_a_count(capsys):
    """Under ``--format json`` the stream of rows ends with one summary object that counts them."""
    code, out, _ = run(capsys, "enumerate", "random:many_to_one:3x3", "--seed", "7", "--format", "json")
    *rows, summary = out.splitlines()
    assert code == 0 and rows == cli_transcripts.enumerate_path("many_to_one_3x3").read_text().splitlines()
    assert summary == '{"ok": true, "result": {"count": %d}, "error": null}' % len(rows)


def test_verify_lattice_command(capsys, asset_files):
    code, out, _ = run(capsys, "verify-lattice", asset_files["market"], "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["ok"] is True


def test_replica_pipeline(capsys, tmp_path):
    market = {
        "variant": "many_to_many_responsive",
        "firms": {
            "f1": {"kind": "quota_linear", "order": ["w1"], "quota": 1},
            "f2": {"kind": "quota_linear", "order": ["w1"], "quota": 1},
        },
        "workers": {"w1": {"kind": "linear_quota", "order": ["f1", "f2"], "quota": 2}},
    }
    mpath = tmp_path / "resp.json"
    mpath.write_text(json.dumps(market))

    code, out, _ = run(capsys, "replica", "build", mpath, "--format", "json")
    assert code == 0
    built = json.loads(out)["result"]
    assert built["variant"] == "many_to_one"
    assert set(built["workers"]) == {"w1#1", "w1#2"}

    rel_matching = tmp_path / "rel.json"
    rel_matching.write_text(json.dumps({"assignments": {"f1": ["w1#1"], "f2": ["w1#2"]}}))
    code, out, _ = run(capsys, "replica", "phi", mpath, rel_matching, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"assignments": {"f1": ["w1"], "f2": ["w1"]}}

    src_matching = tmp_path / "src.json"
    src_matching.write_text(json.dumps({"assignments": {"f1": ["w1"], "f2": ["w1"]}}))
    code, out, _ = run(capsys, "replica", "phi-inverse", mpath, src_matching, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == {"assignments": {"f1": ["w1#1"], "f2": ["w1#2"]}}


def test_replica_usage_error(capsys, tmp_path):
    code = main(["replica", "phi", str(tmp_path / "nope.json")])
    assert code == 2


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", bad)
    assert code == 1 and "ParseError" in err


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"\xff\xfe{", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
    ],
    ids=["not-utf8", "nested-200000-deep"],
)
def test_undecodable_json_is_a_parse_error(capsys, tmp_path, content, reason):
    """A file the JSON reader cannot decode exits 1 with one error line, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, "validate", bad)
    assert (code, out) == (1, "")
    assert err.startswith(f"error (ParseError): {bad} is not valid JSON: {reason}")
    assert len(err.splitlines()) == 1


def test_unreadable_path_is_a_parse_error(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "validate", missing)
    assert (code, out) == (1, "")
    assert err == f"error (ParseError): cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"


def test_matching_schema_error(capsys, asset_files, tmp_path):
    two_jobs = tmp_path / "two.json"
    two_jobs.write_text(json.dumps({"assignments": {"f1": ["w1"], "f2": ["w1"]}}))
    code, _, err = run(capsys, "stable-check", asset_files["market"], two_jobs)
    assert code == 1 and "SchemaError" in err


MARKET_1X1 = {
    "variant": "many_to_one",
    "firms": {"f1": {"kind": "set_list", "list": [["w1"]]}},
    "workers": {"w1": {"kind": "linear", "order": ["f1"]}},
}


@pytest.mark.parametrize(
    "market_patch, matching",
    [
        ({}, {"assignments": {"f1": [1]}}),
        ({}, {"assignments": {"f1": [["w1"]]}}),
        ({"firms": {"f1": {"kind": "set_list", "list": [[1]]}}}, {"assignments": {}}),
        ({"firms": {"f1": {"kind": "quota_linear", "order": ["w1"], "quota": "2"}}}, {"assignments": {}}),
        ({"workers": {"w1": {"kind": "linear", "order": "f1"}}}, {"assignments": {}}),
    ],
    ids=["int-worker-id", "list-worker-id", "int-set-list-id", "string-quota", "string-order"],
)
def test_malformed_ids_and_fields_are_schema_errors(capsys, tmp_path, market_patch, matching):
    market, mu = tmp_path / "market.json", tmp_path / "mu.json"
    market.write_text(json.dumps(MARKET_1X1 | market_patch))
    mu.write_text(json.dumps(matching))
    code, out, _ = run(capsys, "stable-check", market, mu, "--format", "json")
    assert code == 1 and json.loads(out)["error"]["type"] == "SchemaError"


def test_unknown_random_variant_is_a_schema_error(capsys):
    code, out, _ = run(capsys, "validate", "random:bogus:5x5", "--format", "json")
    assert code == 1
    assert json.loads(out)["error"] == {"type": "SchemaError", "message": "unknown variant 'bogus'"}


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_demo_golden_transcripts(capsys):
    for name in ("example1", "example2"):
        code, out, _ = run(capsys, "demo", name)
        assert code == 0
        golden = (GOLDEN / f"demo_{name}.txt").read_text()
        assert out == golden


@pytest.mark.parametrize("name", cli_transcripts.EXAMPLES)
def test_predicate_golden_transcripts(name):
    """stable-check, quasi-check and iterate --trace on every named matching."""
    assert cli_transcripts.transcript(name) == cli_transcripts.golden_path(name).read_text()


@pytest.mark.parametrize("name", cli_transcripts.EXAMPLES)
def test_demo_json_golden_transcripts(name):
    """Every matching the demo computes, as JSON."""
    golden = cli_transcripts.output_path("demo", name, "json").read_text()
    assert cli_transcripts.demo(name, "json") == golden


@pytest.mark.parametrize("name", cli_transcripts.EXAMPLES)
def test_join_meet_golden_transcripts(name):
    """join and meet of mu_under and mu_over on both sides, with their traces."""
    assert cli_transcripts.join_meet(name) == cli_transcripts.join_meet_path(name).read_text()


def test_join_meet_union_golden_transcript():
    """join and meet on four copies of example2 whose inputs differ block by block, with their traces."""
    assert cli_transcripts.join_meet_union() == cli_transcripts.join_meet_union_path().read_text()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_replica_build_golden_transcripts(fmt):
    """The related market of a responsive market, in the market schema."""
    golden = cli_transcripts.output_path("replica-build", "responsive", fmt).read_text()
    assert cli_transcripts.replica_build(fmt) == golden


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_replica_phi_inverse_golden_transcripts(fmt):
    """The stable replica preimage of the responsive market's stable matching."""
    golden = cli_transcripts.output_path("replica-phi-inverse", "responsive", fmt).read_text()
    assert cli_transcripts.replica_phi_inverse(fmt) == golden


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", cli_transcripts.LATTICES)
def test_verify_lattice_golden_transcripts(name, fmt):
    """The oracle's stable counts and join/meet tables, byte for byte."""
    golden = cli_transcripts.output_path("verify-lattice", name, fmt).read_text()
    assert cli_transcripts.verify_lattice(name, fmt) == golden


def test_latin6_market_file_is_the_latin_core():
    """The market file ``verify-lattice`` reads is the 6 x 6 core of ``latin_cores``."""
    assert (GOLDEN / "latin6_market.json").read_text() == cli_transcripts.latin6_market()


def test_enumerate_stream_golden():
    """Each kept stream: every matching, or every worker-IR one, in order, with its flags."""
    for name in cli_transcripts.ENUMERATE:
        assert cli_transcripts.enumerate_stream(name) == cli_transcripts.enumerate_path(name).read_text(), name


def test_closed_pipe_exits_1_without_traceback():
    """A reader that stops after one of 4,096 lines leaves stderr empty."""
    env = {**os.environ, "PYTHONPATH": str(Path(matchlattice.__file__).parents[1])}
    argv = [sys.executable, "-m", "matchlattice", "enumerate", "random:many_to_many_sub:3x4", "--seed", "7"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b'{"assignments":')
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b""


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", cli_transcripts.VALIDATED)
def test_validate_golden_transcripts(name, fmt):
    """Verdicts and witnesses of ``validate``, byte for byte."""
    golden = cli_transcripts.output_path("validate", name, fmt).read_text()
    assert cli_transcripts.validate(name, fmt) == golden


def test_validate_caps_count_the_ground_set(capsys):
    """f1 lists 3 of the 5 workers and f3 none; the caps still count all 5."""
    market = GOLDEN / "nonsubstitutable_market.json"
    code, out, _ = run(capsys, "validate", market, "--pi-cap", "3")
    assert code == 1
    assert out == (
        "validation: FAIL\n"
        "  f1: substitutable violated (w4 chosen from {w2,w4} but dropped from {w4})\n"
        "  w1: substitutable violated (f3 chosen from {f1,f3} but dropped from {f3})\n"
        "  w1: path_independent violated (C(S u S') = {f2,f3} but C(C(S) u S') = {})\n"
        "  note: f1: path independence skipped (ground set 5 > cap 3)\n"
        "  note: f2: path independence skipped (ground set 5 > cap 3)\n"
        "  note: f3: path independence skipped (ground set 5 > cap 3)\n"
    )
    code, out, _ = run(capsys, "validate", market, "--cap", "2", "--assume-substitutable")
    assert code == 0
    assert "  note: f3: axiom checks skipped on assumption (ground set 5 > cap 2)\n" in out
    code, _, err = run(capsys, "validate", market, "--cap", "4")
    assert code == 1
    assert "substitutable: ground set has 5 elements, cap is 4" in err


@pytest.mark.parametrize("variant", ["many_to_one", "many_to_many_responsive", "many_to_many_sub"])
def test_empty_matching_walks_and_checks_at_40x40(capsys, tmp_path, variant):
    """Walks and quasi-checks from the empty matching answer past the default cap."""
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"assignments": {}}))
    for command in ("iterate", "quasi-check"):
        for side in ("firms", "workers"):
            code, out, err = run(
                capsys, command, f"random:{variant}:40x40", empty, "--side", side, "--seed", 1
            )
            assert code == 0, err
            assert command == "iterate" or out.endswith("quasi-stable: true\n")


# SHA-256 of the 40x40 outputs the CI job compares across hash seeds, per
# variant: the traced worker walk from the empty matching (seed 3), the walk
# to each side's extreme (seed 1), and the traced join and meet of the two
# extremes, checked or not.
WALK_DIGESTS = {
    "many_to_one": {
        "iterate": "a0f9d80588001791a8638cf16782b3d0ecea1755c1fb674c3806db7c9fa42313",
        "firms": "be301013c9ad2a67badb32f4334b43b145165fff37f14c371f6e5c4f122f3e76",
        "workers": "fe27b2e8669d77a84d0f3cf8871331a6555afb9e2d1efff8b34f6066a82ea096",
        "join": "a579048c668f565d8a993d59dc9d599502d87220dbb463fcc5c5d5413eb61932",
        "meet": "4228debcb31432671ae303ecac2a10268c1150da3f33f89f0b632079b885e689",
    },
    "many_to_many_responsive": {
        "iterate": "629aae2facf7ae34f5785b14000ba6a0e5c22d9f65efabfca0b780e24d27b0aa",
        "firms": "3a91ce2e3d558b036b6b69a51c942d9183550fe3684fc7ec7f33cd530eb623fd",
        "workers": "4064742e11c441564f67659cd79c048a0a5baf36cecf894177fcdb8399f02483",
        "join": "e8c948baf1a12c77edc3b3df33468b3af5c6afce644707bcf994104bd6ffbb80",
        "meet": "5cd25fb6158027633bdc78914c2941bb84ec1a4f6640df11c49f1f0ba82094d4",
    },
    "many_to_many_sub": {
        "iterate": "dc12d9918739cbd73b223b89826f4818c87d5bc594884171c62c6d17e622d1ee",
        "firms": "db5a5e271a04a4c4a9cafee9a93188f41566f163d31384408700998a0a62b5d7",
        "workers": "abd4f262355907e1f0a1aa9be8a1c4e17ac74f7f7a6153c177e41c30cc4fa40b",
        "join": "7102ce6f3325610d0255ffde6a193bc8171390c9c8635508516369af33c2d3f2",
        "meet": "7ed7d7dc57410b2a08e848448dd05c365703cdce5f5731d79dc4eab82871e487",
    },
}


@pytest.mark.parametrize("variant", list(WALK_DIGESTS))
def test_40x40_walks_print_the_pinned_bytes(capsys, tmp_path, variant):
    market = f"random:{variant}:40x40"
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"assignments": {}}))

    def output(*argv):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        return out

    def digest(out):
        return hashlib.sha256(out.encode()).hexdigest()

    traced = output("iterate", market, empty, "--side", "workers", "--trace", "--format", "json", "--seed", 3)
    got = {"iterate": digest(traced)}
    extremes = []
    for side in ("firms", "workers"):
        out = output("iterate", market, empty, "--side", side, "--format", "json", "--seed", 1)
        got[side] = digest(out)
        extremes.append(tmp_path / f"extreme_{side}.json")
        extremes[-1].write_text(json.dumps(json.loads(out)["result"]["fixed_point"]))
    for op in ("join", "meet"):
        argv = (op, market, *extremes, "--trace", "--format", "json", "--seed", 1)
        got[op] = digest(output(*argv))
        assert digest(output(*argv, "--no-check")) == got[op]
    assert got == WALK_DIGESTS[variant]


def test_demo_json_shape(capsys):
    code, out, _ = run(capsys, "demo", "example1", "--format", "json")
    payload = json.loads(out)
    assert payload["ok"] is True
    assert "join_firms" in payload["result"]


def test_byte_identical_reruns(capsys, asset_files):
    outputs = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "join", asset_files["market"], asset_files["mu_under"],
            asset_files["mu_over"], "--format", "json", "--trace",
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]
    seeds = []
    for _ in range(2):
        _, out, _ = run(capsys, "enumerate", "random:many_to_many_sub:2x2", "--seed", "3")
        seeds.append(out)
    assert seeds[0] == seeds[1]
