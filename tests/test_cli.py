"""CLI subcommands, exit codes, and file round-trips (all in-process)."""

import argparse
import contextlib
import functools
import io
import json
import os
import re
import reprlib
import subprocess
import sys
import tempfile
import time
from collections import Counter
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle import cli, resources, simulator, verify
from qshuffle.cli import main
from qshuffle.verify import verify_spec
from qshuffle.builders import VARIANTS, BuildSpec, build, build_with_checkpoints
from qshuffle.circuit import Circuit, Gate
from qshuffle.prep import ENCODINGS
from qshuffle.serialize import circuit_from_json, circuit_to_json
from oracles import branch_table, run, sample_fisher_yates
from qshuffle.simulator import SimulationCapExceeded


def run_cli(*argv):
    return main(list(argv))


def test_build_json_roundtrip(tmp_path, capsys):
    out = tmp_path / "a3.json"
    assert run_cli("build", "--variant", "A", "--n", "3", "--out", str(out)) == 0
    circuit = circuit_from_json(out.read_text())
    assert circuit.metadata["variant"] == "A"
    assert len(circuit.gates) == 27


def test_build_fully_lowered_circuit(tmp_path, capsys):
    plain = tmp_path / "plain.json"
    lowered = tmp_path / "lowered.json"
    run_cli("build", "--variant", "B", "--n", "2", "--m", "1", "--out", str(plain))
    assert run_cli("build", "--variant", "B", "--n", "2", "--m", "1",
                   "--lower", "full", "--mcx", "borrowed", "--out", str(lowered)) == 0
    a = circuit_from_json(plain.read_text())
    b = circuit_from_json(lowered.read_text())
    assert b.metadata["lowering"] == "full"
    assert all(len(g.controls) <= 1 for g in b.gates)
    from oracles import states_equal_up_to_phase

    assert states_equal_up_to_phase(run(a), run(b), 1e-10)


def test_build_qasm_parses_as_subset(capsys):
    assert run_cli("build", "--variant", "A", "--n", "3", "--format", "qasm") == 0
    text = capsys.readouterr().out
    assert text.startswith("OPENQASM 3.0;")
    body = [l for l in text.strip().split("\n")[3:]]
    for line in body:
        op = line.split()[0]
        assert op.split("(")[0] in {"x", "h", "ry", "rz", "cx", "ctrl", "negctrl"}


def test_simulate_matches_in_process(tmp_path, capsys):
    out = tmp_path / "c.json"
    run_cli("build", "--variant", "C", "--n", "3", "--m", "1", "--out", str(out))
    assert run_cli("simulate", "--circuit", str(out), "--shots", "50", "--seed", "3") == 0
    payload = json.loads(capsys.readouterr().out)
    circuit = circuit_from_json(out.read_text())
    rows = branch_table(run(circuit), circuit)
    assert len(payload["branches"]) == len(rows)
    got = {json.dumps(b["registers"], sort_keys=True): b["re"] + 1j * b["im"]
           for b in payload["branches"]}
    for regs, amp in rows:
        key = json.dumps(regs, sort_keys=True)
        assert got[key] == amp  # bit-identical through the file round trip
    assert sum(payload["histogram"].values()) == 50
    assert payload["seed"] == 3


def test_verify_pass_and_report(tmp_path, capsys, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(verify, "build_with_checkpoints",
                        counted("builds", verify.build_with_checkpoints))
    monkeypatch.setattr(resources, "build", counted("builds", resources.build))
    real_evolve, steps = simulator.evolve, []

    def evolve(*args):
        for k, state in real_evolve(*args):
            steps.append(k)
            yield k, state

    monkeypatch.setattr(simulator, "evolve", counted("passes", evolve))
    assert run_cli("verify", "--variant", "A", "--n", "4") == 0
    # one build and one simulation pass whose steps end after the last gate
    assert calls == {"builds": 1, "passes": 1}
    assert steps[0] == 0 and steps[-1] == len(build(BuildSpec("A", 4)))
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] is True
    names = [c["name"] for c in report["checks"]]
    assert "branch_count" in names and "iteration_states" in names
    branch_check = next(c for c in report["checks"] if c["name"] == "branch_count")
    assert branch_check["metric"] == 24.0


def test_verify_bt_replay(capsys):
    assert run_cli("verify", "--variant", "Bt", "--n", "3", "--m", "1") == 0
    report = json.loads(capsys.readouterr().out)
    assert any(c["name"] == "replay_consistent" and c["passed"] for c in report["checks"])


@pytest.mark.parametrize("argv,drop", [
    (("--variant", "B", "--n", "3", "--m", "2"), 30),  # X perm[2].1 controlled on perm[0].1
    (("--variant", "A", "--n", "4"), 52),  # the last ancilla uncompute X
    (("--variant", "At", "--n", "4"), 35),  # the controlled X of a swap of perm[1] and perm[3]
], ids=["B-n3-m2-gate30", "A-n4-uncompute", "At-n4-swap"])
def test_verify_reports_a_broken_build(capsys, monkeypatch, argv, drop):
    # a build missing one gate is a failed verification (exit 1), not a crash
    def broken(spec):
        circuit, checkpoints = build_with_checkpoints(spec)
        del circuit.gates[drop]
        return circuit, tuple(c - (c > drop) for c in checkpoints)

    monkeypatch.setattr(verify, "build_with_checkpoints", broken)
    assert run_cli("verify", *argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] is False
    replay = next(c for c in report["checks"] if c["name"] == "replay_consistent")
    assert replay["passed"] is False


def test_verify_cap_exit_code(capsys):
    assert run_cli("verify", "--variant", "A", "--n", "12") == 2


@pytest.mark.parametrize("argv", [
    ("--variant", "At", "--n", "6"),  # 29 qubits
    ("--variant", "B", "--n", "5", "--m", "2"),  # 28 qubits
    ("--variant", "A", "--n", "8"),  # 27 qubits, 40,320 branches
    ("--variant", "At", "--n", "8"),
    ("--variant", "B", "--n", "8", "--m", "1"),
    ("--variant", "Bt", "--n", "8", "--m", "1", "--encoding", "onehot"),
    ("--variant", "C", "--n", "8", "--m", "1"),
], ids=["At-n6", "B-n5-m2", "A-n8", "At-n8", "B-n8-m1", "Bt-n8-m1-onehot", "C-n8-m1"])
def test_verify_beyond_a_dense_statevector(capsys, argv):
    assert run_cli("verify", *argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] is True
    assert "iteration_states" in [c["name"] for c in report["checks"]]


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_verify_rejects_a_bad_tolerance(capsys, tolerance):
    # nan and -1 failed every build and inf passed every build
    with pytest.raises(SystemExit) as err:
        run_cli("verify", "--variant", "A", "--n", "3", "--tolerance", tolerance)
    assert err.value.code == 64
    message = capsys.readouterr().err
    assert message.count("\n") == 1 and "--tolerance must be a finite number > 0" in message


def test_verify_onehot(capsys):
    assert run_cli("verify", "--variant", "C", "--n", "3", "--m", "1",
                   "--encoding", "onehot") == 0


def test_count_consistency(capsys):
    assert run_cli("count", "--variant", "C", "--n", "3", "--m", "1") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gates_formula"] == report["gates_measured"] == 13
    assert report["gates_consistent"] is True


def test_count_with_profile(tmp_path, capsys):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({"CX": 39, "mcx_rule": "derived"}))
    assert run_cli("count", "--variant", "A", "--n", "3", "--profile", str(profile)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gates_formula"] == report["gates_measured"] > 1000


def test_table_csv(capsys):
    assert run_cli("table", "--variant", "A", "--n-max", "8") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,qubits,gates,cycles"
    assert len(lines) == 8  # header + n = 2..8
    assert lines[1] == "2,3,6,6"


def test_sample_words(capsys):
    assert run_cli("sample", "--n", "4", "--shots", "2000", "--seed", "7") == 0
    words = {tuple(json.loads(line)) for line in capsys.readouterr().out.strip().split("\n")}
    assert len(words) == 24  # every S_4 word shows up


def test_sample_deterministic(capsys):
    run_cli("sample", "--n", "5", "--shots", "10", "--seed", "9")
    first = capsys.readouterr().out
    run_cli("sample", "--n", "5", "--shots", "10", "--seed", "9")
    assert capsys.readouterr().out == first


def test_sample_zero_shots_writes_nothing(tmp_path, capsys):
    # 0 shots pass the n x shots cap at any n, so no step range of n entries may be built
    for n in (3, 10**20):
        assert run_cli("sample", "--n", str(n), "--shots", "0") == 0
        assert capsys.readouterr() == ("", "")
    out = tmp_path / "words.txt"
    assert run_cli("sample", "--n", "3", "--shots", "0", "--out", str(out)) == 0
    assert out.read_text() == ""


@pytest.mark.parametrize("argv", [
    ("table", "--variant", "A", "--n-max", "3"), ("sample", "--n", "4", "--shots", "3"),
    ("build", "--variant", "A", "--n", "3", "--format", "qasm"), ("count", "--variant", "C", "--n", "3", "--m", "1"),
], ids=["table", "sample", "build", "count"])
def test_out_dash_writes_to_stdout(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 0
    expected = capsys.readouterr().out
    assert run_cli(*argv, "--out", "-") == 0
    assert capsys.readouterr() == (expected, "")
    assert expected and list(tmp_path.iterdir()) == []  # no file named "-"


# SHA-256 of `sample` stdout, taken when each word was drawn with one scalar
# draw per step
@pytest.mark.parametrize("argv,digest", [
    (("--n", "5", "--shots", "10", "--seed", "9"),
     "a49fc8a5af509bc8c7f1e193bd166d1c098a7793748938893d0b5f3b0f638eef"),
    (("--n", "5", "--shots", "10", "--seed", "9", "--direction", "forward"),
     "1f4a1df05d1d315bca726d1c5c9efb3187b4212b81dc9ffb8ac333250cb7d2b4"),
    (("--n", "1", "--shots", "3"), "6f2816cd102f36167a589aadfcbeb1236830477851138b26ecdc12d19c137cf0"),
    (("--n", "300", "--shots", "7", "--seed", str(2**40)),
     "a4739f541de745b9e95b27a6582efa23c1a5c0061df4d4ee264160d4ec1bb996"),
], ids=["n5-reversed", "n5-forward", "n1", "n300-big-seed"])
def test_sample_prints_pinned_bytes(capsys, argv, digest):
    assert run_cli("sample", *argv) == 0
    assert sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@given(st.integers(1, 40), st.integers(0, 50), st.integers(0, 2**64), st.sampled_from(("forward", "reversed")))
@settings(max_examples=100, deadline=None)
def test_sample_matches_the_scalar_shuffle(n, shots, seed, direction):
    code, out, err = _captured("sample", "--n", str(n), "--shots", str(shots), "--seed", str(seed),
                               "--direction", direction)
    rng = np.random.default_rng(seed)
    words = [list(sample_fisher_yates(n, rng, direction)) for _ in range(shots)]
    assert (code, err) == (0, "")
    assert out == "".join(json.dumps(w) + "\n" for w in words)


def test_sample_rejects_negative_shots(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("sample", "--n", "4", "--shots", "-5")
    assert err.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: qshuffle sample ")  # the subcommand's usage, not the root's
    assert lines[-1] == "qshuffle sample: error: argument --shots: must be an integer >= 0, got '-5'"


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "4", "--shots", "-5"), ("sample", "--n", "0"),
    ("simulate", "--circuit", "c.json", "--shots", "-5"), ("prep", "--i", "0"),
    ("build", "--variant", "A", "--n", "0"), ("table", "--variant", "A", "--n-max", "1"),
    ("simulate", "--circuit", "c.json", "--shots", "5", "--seed", "-1"),
    ("sample", "--n", "3", "--shots", "2", "--seed", "-1"),
    ("verify", "--variant", "A", "--n", "3", "--seed", "-7"),
], ids=["sample-shots", "sample-n", "simulate-shots", "prep-i", "build-n", "table-n-max",
        "simulate-seed", "sample-seed", "verify-seed"])
def test_usage_errors_name_the_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 64
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: qshuffle {argv[0]} ")
    assert lines[-1].startswith(f"qshuffle {argv[0]}: error: ")


# spellings of an integer that int() reads but an integer option refuses: it takes only str(k)
_ODD_INTS = ("1_0", "+3", " 3", "03", "\u0663")


@pytest.mark.parametrize("argv", [
    *[(*command, text) for command in (("sample", "--n"), ("build", "--variant", "A", "--n"),
                                       ("simulate", "--circuit", "c.json", "--shots"))
      for text in _ODD_INTS],
    *[("sample", "--n", "3", "--seed", text) for text in ("03", "\u0663")],  # the rest were refused already
], ids=lambda argv: f"{argv[0]} {argv[-2]} {argv[-1]!r}")
def test_integer_options_refuse_odd_spellings(capsys, argv):
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 64
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and lines[0].startswith(f"usage: qshuffle {argv[0]} ")
    least = 0 if argv[-2] in ("--shots", "--seed") else 1
    assert lines[-1] == (f"qshuffle {argv[0]}: error: argument {argv[-2]}: "
                         f"must be an integer >= {least}, got {argv[-1]!r}")


def test_build_over_the_size_cap_exits_2_before_building(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        run_cli("build", "--variant", "A", "--n", "100000")
    assert err.value.code == 2
    assert time.perf_counter() - start < 1  # the lower bound is O(1); a build would not end
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("qshuffle: A n=100000 has at least 14999850000 gates, "
                            "over the size cap of 1000000\n")


@pytest.mark.parametrize("command", ["build", "count", "verify"])
def test_size_cap_refuses_a_huge_n_at_once(capsys, command):
    # the O(n) formula would sweep 10^8 iterations: the 3-gates-per-swap-pair
    # bound refuses first
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        run_cli(command, "--variant", "C", "--n", str(10**8), "--m", "1", "--encoding", "onehot")
    assert err.value.code == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == ("qshuffle: C n=100000000 has at least 14999999850000000 gates, "
                                       "over the size cap of 1000000\n")


@pytest.mark.parametrize("command", ["build", "count", "verify"])
def test_size_cap_boundary(capsys, monkeypatch, command):
    cap = resources.gate_count_formula("A", 4)
    monkeypatch.setattr(cli, "MAX_GATES", cap)
    assert run_cli(command, "--variant", "A", "--n", "4") == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        run_cli(command, "--variant", "A", "--n", "5")
    assert err.value.code == 2
    over = resources.gate_count_formula("A", 5)
    assert capsys.readouterr().err == f"qshuffle: A n=5 has {over} gates, over the size cap of {cap}\n"


def test_prep_cap_refuses_before_building(capsys, monkeypatch):
    # a one-hot prep over 0..i has 2i-1 gates: i = 10^8 would build 2 * 10^8
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        run_cli("prep", "--i", str(10**8), "--encoding", "onehot")
    assert err.value.code == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qshuffle: prep --i 100000000 has 199999999 gates, over the size cap of 1000000\n"
    monkeypatch.setattr(cli, "MAX_GATES", 7)  # the boundary: 2*4-1 gates pass, 2*5-1 do not
    assert run_cli("prep", "--i", "4", "--encoding", "onehot") == 0
    assert run_cli("prep", "--i", "127") == 0  # binary: 7 Hadamards
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        run_cli("prep", "--i", "5", "--encoding", "onehot")
    assert err.value.code == 2
    assert capsys.readouterr().err == "qshuffle: prep --i 5 has 9 gates, over the size cap of 7\n"


def test_table_row_cap_refuses_before_sweeping(capsys, monkeypatch):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        run_cli("table", "--variant", "A", "--n-max", str(10**8))
    assert err.value.code == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qshuffle: table to n=100000000 has 99999999 rows, over the row cap of 100000\n"
    monkeypatch.setattr(cli, "MAX_ROWS", 3)  # rows n = 2..4 pass, 2..5 do not
    assert run_cli("table", "--variant", "A", "--n-max", "4") == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3
    with pytest.raises(SystemExit) as err:
        run_cli("table", "--variant", "A", "--n-max", "5")
    assert err.value.code == 2
    assert capsys.readouterr().err == "qshuffle: table to n=5 has 4 rows, over the row cap of 3\n"


def test_simulate_shot_cap_refuses_before_reading(tmp_path, capsys, monkeypatch):
    # 10^13 shots once died in numpy's allocation of the draws; the cap refuses
    # before the circuit file is opened (this one does not exist)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        run_cli("simulate", "--circuit", str(tmp_path / "missing.json"), "--shots", str(10**13))
    assert err.value.code == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qshuffle: simulate --shots 10000000000000 is over the shot cap of 1000000\n"
    path = tmp_path / "c.json"
    path.write_text(_ONE_QUBIT % ("1", _X % (0, 0)))
    monkeypatch.setattr(cli, "MAX_SHOTS", 12)  # the boundary: 12 shots pass, 13 do not
    assert run_cli("simulate", "--circuit", str(path), "--shots", "12") == 0
    assert json.loads(capsys.readouterr().out)["histogram"] == {"q=1": 12}
    with pytest.raises(SystemExit) as err:
        run_cli("simulate", "--circuit", str(path), "--shots", "13")
    assert err.value.code == 2
    assert capsys.readouterr().err == "qshuffle: simulate --shots 13 is over the shot cap of 12\n"


def test_sample_cap_refuses_before_drawing(capsys, monkeypatch):
    # one word of n = 10^8 would fill a list of 10^8 entries in a Python loop
    start = time.perf_counter()
    with pytest.raises(SystemExit) as err:
        run_cli("sample", "--n", str(10**8))
    assert err.value.code == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("qshuffle: sample --n 100000000 --shots 1 draws 100000000 entries, "
                            "over the shot cap of 1000000\n")
    monkeypatch.setattr(cli, "MAX_SHOTS", 12)  # the boundary: 4 x 3 entries pass, 4 x 4 do not
    assert run_cli("sample", "--n", "4", "--shots", "3") == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    with pytest.raises(SystemExit) as err:
        run_cli("sample", "--n", "4", "--shots", "4")
    assert err.value.code == 2
    assert capsys.readouterr().err == ("qshuffle: sample --n 4 --shots 4 draws 16 entries, "
                                       "over the shot cap of 12\n")


def test_prep_commands(capsys):
    assert run_cli("prep", "--i", "4") == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["gates"]) == 4
    assert run_cli("prep", "--i", "3", "--encoding", "onehot", "--format", "qasm") == 0
    assert "ry(" in capsys.readouterr().out


# SHA-256 of the file ``prep`` writes, per i, encoding and format, as it wrote
# them while each encoding had a builder of its own.  Rewrite them only for a
# deliberate change of the output.
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_prep_output_matches_the_golden_digests(encoding, tmp_path):
    golden = json.loads(Path(__file__).with_name("golden_digests.json").read_text())
    want = {k: v for k, v in golden.items() if k.startswith("prep ") and f" {encoding} " in k}
    got = {}
    for i in (1, 2, 3, 4, 5, 7, 12, 64, 1000):
        for fmt in ("json", "qasm"):
            out = tmp_path / f"{i}.{fmt}"
            assert run_cli("prep", "--i", str(i), "--encoding", encoding, "--format", fmt, "--out", str(out)) == 0
            got[f"prep i{i} {encoding} {fmt}"] = sha256(out.read_bytes()).hexdigest()
    assert want == got


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("build", "--variant", "Q", "--n", "3")
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err:
        run_cli("build", "--variant", "B", "--n", "3")  # missing m
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err:
        run_cli("nonsense")
    assert err.value.code == 64


_LONG_KEY = "1" * 5000


@pytest.mark.parametrize("command", [("count", "--variant", "A", "--n", "3"),
                                     ("table", "--variant", "A", "--n-max", "4")])
@pytest.mark.parametrize("profile", [{"CNOT": 39}, {"mcx": {"3": -1}}, {"mcx": {"3": 2.5}},
                                     {"mcx": {"3": "7"}}, [1, 2], {"mcx": {"1": 3}},
                                     {"mcx": {"-3": 3}}, {"mcx": {"0": 3}},
                                     {"mcx": {"3": 1, "03": 2}},
                                     # one spelling per arity: str(m)
                                     {"mcx": {"3_0": 5}}, {"mcx": {" 3": 5}}, {"mcx": {"+3": 5}},
                                     {"mcx": {"\u0663": 5}}, {"mcx": {"03": 5}},
                                     # bytes: the file as is
                                     pytest.param(b"[" * 100000, id="deep-nesting"),
                                     pytest.param(b'{"X": "\xff"}', id="not-utf-8"),
                                     # more digits than int() reads: named, shortened
                                     pytest.param({"mcx": {_LONG_KEY: 3}}, id="5000-digit-key")])
def test_bad_profile_exits_64(tmp_path, capsys, command, profile):
    path = tmp_path / "p.json"
    path.write_bytes(profile if isinstance(profile, bytes) else json.dumps(profile).encode())
    with pytest.raises(SystemExit) as err:
        run_cli(*command, "--profile", str(path))
    assert err.value.code == 64
    message = capsys.readouterr().err
    assert message.count("\n") == 1 and "bad cost profile" in message
    if isinstance(profile, dict) and _LONG_KEY in profile.get("mcx", ()):
        assert reprlib.repr(_LONG_KEY) in message and len(message) < 200


def _captured(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


_json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.just(2 ** 70), st.floats(),
                         st.text(max_size=3))
_json_any = st.recursive(_json_leaves, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
_arities = st.sampled_from(("2", "3", "03", "12", "1", "0", "-3", "+4", " 5", "2.0", "x", ""))
_profile_fields = st.one_of(st.integers(0, 9), st.just("derived"),
                            st.dictionaries(_arities, st.one_of(st.integers(-1, 40), _json_any),
                                            max_size=4),
                            _json_any)
_profiles = st.one_of(_json_any, st.dictionaries(
    st.sampled_from(("X", "H", "RY", "RZ", "CX", "CH", "CRY", "mcx", "mcx_rule", "CNOT", "x")),
    _profile_fields, max_size=5))


@given(_profiles)
@settings(max_examples=150, deadline=None)
def test_fuzzed_profile_exit_codes(profile):
    # any JSON value as --profile: count and table run (0) or refuse it with one line (64)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(profile, handle)
        for command in (("count", "--variant", "A", "--n", "3"),
                        ("table", "--variant", "C", "--n-max", "4", "--m", "2")):
            code, _, err = _captured(*command, "--profile", path)
            assert (code, err) == (0, "") or (
                code == 64 and err.count("\n") == 1 and err.startswith("qshuffle: bad cost profile"))


_ONE_QUBIT = '{"registers": [{"name": "q", "count": %s, "width": 1}], "gates": [%s]}'
_RY = '{"primitive": "RY", "angle": %s, "targets": [{"reg": "q", "sub": 0, "bit": 0}]}'
_X = '{"primitive": "X", "angle": null, "targets": [{"reg": "q", "sub": %s, "bit": %s}]}'
_CX = ('{"registers": [{"name": "q", "count": 1, "width": 2}], "gates": [{"primitive": "X", '
       '"angle": null, "targets": [{"reg": "q", "sub": 0, "bit": 0}], '
       '"controls": [{"reg": "q", "sub": 0, "bit": 1, "value": %s}]}]}')
_PAIR = '{"registers": [{"name": "q", "count": 2, "width": 2}], "gates": [%s, %s]}'
_CX_AT = ('{"primitive": "X", "angle": null, "targets": [{"reg": "q", "sub": %s, "bit": %s}], '
          '"controls": [{"reg": "q", "sub": 0, "bit": 0, "value": %s}]}')
_TARGETS = '{"primitive": "%s", "angle": %s, "targets": [%s]}'
_Q = '{"reg": "q", "sub": %d, "bit": 0}'
_INT_NAME = ('{"registers": [{"name": 1, "count": 1, "width": 1}, '
             '{"name": "1", "count": 1, "width": 1}], "gates": []}')


@pytest.mark.parametrize("text,shots,code", [
    (_ONE_QUBIT % ('"1"', ""), "0", 74),
    (_ONE_QUBIT % ("1", _RY % '"0.5"'), "0", 74),
    ("[]", "0", 74),
    (_ONE_QUBIT % ("1", _RY % "NaN"), "0", 74),
    (_ONE_QUBIT % ("1", _X % ('0', '0.5')), "0", 74),
    (_ONE_QUBIT % ("1", _X % ('0.0', '0')), "0", 74),
    (_CX % "1.0", "0", 74),
    (_ONE_QUBIT % ("1", _RY % ("1" + "0" * 400)), "0", 74),
    (_ONE_QUBIT % ("1", _RY % "true"), "0", 74),
    (_INT_NAME, "1", 74),
    (_ONE_QUBIT % ("1", _RY % "0.5"), "-5", 64),  # the file itself is valid
    # True == 1 == 1.0: none of them may address subregister or bit 1
    (_ONE_QUBIT % ("2", _X % ("true", "0")), "0", 74),
    (_ONE_QUBIT % ("2", _X % ("1.0", "0")), "0", 74),
    (_ONE_QUBIT % ("2", _X % ("0.5", "0")), "0", 74),
    (_CX.replace('"bit": 1', '"bit": true') % "1", "0", 74),
    (_CX.replace('"bit": 1', '"bit": 1.0') % "1", "0", 74),
    # a valid CX, then a copy with one int written as an equal bool or float: the
    # reader shares one Gate per distinct record, but must not hand the copy that one
    (_PAIR % (_CX_AT % (1, 1, 1), _CX_AT % ("true", 1, 1)), "0", 74),
    (_PAIR % (_CX_AT % (1, 1, 1), _CX_AT % (1, "1.0", 1)), "0", 74),
    (_PAIR % (_CX_AT % (1, 1, 1), _CX_AT % (1, 1, "true")), "0", 74),
    ((_ONE_QUBIT % ("1", _X % (0, 0))).encode("utf-16"), "0", 74),  # not UTF-8
    ("[" * 100000, "0", 74),  # nested past the parser's recursion limit
    # a record holds one gate on exactly one target, and SWAP is no primitive
    (_ONE_QUBIT % ("3", _TARGETS % ("SWAP", "null", _Q % 0)), "0", 74),
    (_ONE_QUBIT % ("3", _TARGETS % ("SWAP", "null", ", ".join(_Q % k for k in range(3)))), "0", 74),
    (_ONE_QUBIT % ("3", _TARGETS % ("SWAP", "0.5", f"{_Q % 0}, {_Q % 1}")), "0", 74),
    (_ONE_QUBIT % ("3", _TARGETS % ("SWAP", "null", f"{_Q % 0}, {_Q % 1}")), "0", 74),
    (_ONE_QUBIT % ("3", _TARGETS % ("X", "null", f"{_Q % 0}, {_Q % 1}")), "0", 74),
    (_ONE_QUBIT % ("3", _TARGETS % ("X", "null", "")), "0", 74),
    # a subregister is an int: null does not stand for 0
    (_ONE_QUBIT % ("1", _X % ("null", "0")), "0", 74),
    # metadata is an object or absent: no other value is read as {} or turned into one
    *[(_ONE_QUBIT[:-1] % ("1", "") + f', "metadata": {value}}}', "0", 74)
      for value in ("0", "false", '""', "[]", '[["a", 1]]', "5", "null")],
], ids=["string-count", "string-angle", "top-level-list", "nan-angle", "float-bit", "float-sub",
        "float-control-value", "huge-int-angle", "bool-angle", "int-register-name",
        "negative-shots", "bool-sub", "float-one-sub", "half-sub", "bool-control-bit",
        "float-one-control-bit", "bool-sub-copy", "float-one-bit-copy", "bool-value-copy",
        "not-utf-8", "deep-nesting", "swap-one-target", "swap-three-targets", "swap-angle",
        "swap-two-targets", "x-two-targets", "x-no-target", "null-sub", "metadata-zero", "metadata-false",
        "metadata-empty-string", "metadata-empty-list", "metadata-pair-list", "metadata-int", "metadata-null"])
def test_simulate_bad_input_exit_codes(tmp_path, capsys, text, shots, code):
    path = tmp_path / "c.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    try:
        got = run_cli("simulate", "--circuit", str(path), "--shots", shots)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    message = capsys.readouterr().err
    if code == 74:
        assert message.count("\n") == 1 and message.startswith("cannot read circuit")
    else:
        assert "argument --shots: must be an integer >= 0, got '-5'" in message


def test_io_error_exit_74(capsys):
    assert run_cli("simulate", "--circuit", "/nonexistent/file.json") == 74


@pytest.mark.parametrize("qubits,hadamards,message", [
    (64, 0, "64 qubits exceeds"),  # basis indices are int64
    (21, 21, "branches exceed"),  # 2^21 branches: the guard stops it after the 20th H
])
def test_simulate_cap_exit_code(tmp_path, capsys, qubits, hadamards, message):
    from qshuffle.serialize import circuit_to_json

    c = Circuit([("q", 1, qubits)])
    c.extend(Gate("H", None, c.qubit("q", 0, k)) for k in range(hadamards))
    path = tmp_path / "wide.json"
    path.write_text(circuit_to_json(c))
    assert run_cli("simulate", "--circuit", str(path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_simulate_refuses_a_wide_file_before_building_a_gate(tmp_path, capsys, monkeypatch):
    # the register table alone exceeds the qubit cap: no gate record is read,
    # so a malformed one (an unknown register) exits 2 too, not 74
    from qshuffle.circuit import Circuit

    def extend(self, gates):
        raise AssertionError("a gate was built")

    monkeypatch.setattr(Circuit, "extend", extend)
    gates = [_gate("H", [_ref("q", 0, k)]) for k in range(64)] + [_gate("X", [_ref("nowhere", 0, 0)])]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"registers": [{"name": "q", "count": 1, "width": 64}], "gates": gates}))
    assert run_cli("simulate", "--circuit", str(path)) == 2
    assert capsys.readouterr().err == "64 qubits exceeds the simulation cap of 63\n"


def test_verify_spec_cap_raises():
    with pytest.raises(SimulationCapExceeded):
        verify_spec(BuildSpec("A", 12))


def _ref(reg, sub, bit, **value):
    return {"reg": reg, "sub": sub, "bit": bit, **value}


def _fuzz_base():
    return {
        "registers": [{"name": "a", "count": 2, "width": 1}, {"name": "b", "count": 1, "width": 2},
                      {"name": "c", "count": 1, "width": 1}],
        "gates": [
            {"primitive": "H", "angle": None, "targets": [_ref("a", 0, 0)], "controls": []},
            {"primitive": "RY", "angle": 0.5, "targets": [_ref("b", 0, 1)],
             "controls": [_ref("a", 0, 0, value=1)]},
            *_swap(_ref("a", 1, 0), _ref("b", 0, 0), _ref("a", 0, 0, value=0)),
        ],
        "metadata": {"variant": "A"},
    }


def _gate(primitive, targets, *controls, angle=None):
    return {"primitive": primitive, "angle": angle, "targets": targets, "controls": list(controls)}


def _swap(a, b, *controls):
    """The three X records of a swap of qubits a and b under ``controls``, as
    ``lowering.swap_gates`` writes it: CX(a->b), X on a under the controls and b, CX(a->b)."""
    return [_gate("X", [b], {**a, "value": 1}), _gate("X", [a], *controls, {**b, "value": 1}),
            _gate("X", [b], {**a, "value": 1})]


def _swaps():
    """A file of four swaps, three with mixed-polarity controls, that move bits
    in some branches of a superposition."""
    return {
        "registers": [{"name": "a", "count": 2, "width": 2}, {"name": "b", "count": 1, "width": 3},
                      {"name": "c", "count": 1, "width": 1}],
        "gates": [
            _gate("X", [_ref("b", 0, 0)]),
            _gate("X", [_ref("c", 0, 0)]),
            _gate("H", [_ref("a", 0, 0)]),
            _gate("H", [_ref("a", 0, 1)]),
            _gate("RY", [_ref("b", 0, 2)], _ref("a", 0, 0, value=1), angle=0.7),
            *_swap(_ref("a", 1, 0), _ref("b", 0, 0), _ref("a", 0, 0, value=0), _ref("a", 0, 1, value=1)),
            *_swap(_ref("b", 0, 1), _ref("b", 0, 2), _ref("a", 0, 0, value=1)),
            _gate("RZ", [_ref("a", 1, 0)], _ref("c", 0, 0, value=0), angle=0.3),
            *_swap(_ref("a", 1, 1), _ref("c", 0, 0)),
            *_swap(_ref("a", 0, 1), _ref("a", 1, 0), _ref("b", 0, 2, value=1), _ref("c", 0, 0, value=0)),
            _gate("H", [_ref("b", 0, 1)], _ref("a", 1, 0, value=1)),
        ],
        "metadata": {"note": "controlled swaps"},
    }


# SHA-256 of `simulate --shots 500 --seed 5` stdout, taken when the simulator
# still had a SWAP primitive; the files now spell each swap as its three X records
@pytest.mark.parametrize("data,digest", [
    (_swaps(), "9affe0b640857f443f9f0509e44e2c02cf8f244b0c284ab7f98ef12c16ceeaa3"),
    (_fuzz_base(), "264c3f917745b3983b7066d18c119d15dda995a6b4546f7bc2b04211681e6317"),
], ids=["swaps", "fuzz-base"])
def test_simulate_swap_records_prints_pinned_bytes(tmp_path, capsys, data, digest):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert run_cli("simulate", "--circuit", str(path), "--shots", "500", "--seed", "5") == 0
    assert sha256(capsys.readouterr().out.encode()).hexdigest() == digest


_FUZZ_FIELDS = (
    [("registers", r, key) for r in range(3) for key in ("name", "count", "width")]
    + [("gates", g, key) for g in range(3) for key in ("primitive", "angle")]
    + [("gates", g, "targets", 0, key) for g in range(3) for key in ("reg", "sub", "bit")]
    + [("gates", 1, "controls", 0, key) for key in ("reg", "sub", "bit", "value")]
    + [("metadata",)]
)
# ints stay <= 8 or reach 2**40, which exits 2 before allocating: no count or
# width set from them allocates a large state
_json_values = st.one_of(st.none(), st.booleans(), st.integers(-2, 8), st.just(2 ** 40),
                         st.sampled_from((0.5, 1.0)), st.text(max_size=4),
                         st.lists(st.integers(0, 3), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


@given(st.sampled_from(_FUZZ_FIELDS), _json_values)
@settings(max_examples=200, deadline=None)
def test_simulate_fuzzed_file_exit_codes(field, value):
    # one field of a valid circuit file replaced by a random JSON value: the
    # file simulates (0), is too wide (2) or is rejected with one line (74)
    data = _fuzz_base()
    owner = data
    for key in field[:-1]:
        owner = owner[key]
    owner[field[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        code, _, err = _captured("simulate", "--circuit", path, "--shots", "3")
    assert code in (0, 2, 74)
    if code == 74:
        assert err.count("\n") == 1


def test_readme_synopsis_names_every_option_of_each_subcommand():
    # the README's CLI block: one "qshuffle <command>" line per subcommand, with
    # continuation lines; its --options must be the subparser's, --help aside,
    # and those outside [...] exactly the subparser's required ones
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    synopsis: dict[str, set[str]] = {}
    unbracketed: dict[str, set[str]] = {}
    for line in block.strip().splitlines():
        if line.startswith("qshuffle "):
            name = line.split()[1]
            command, needed = synopsis.setdefault(name, set()), unbracketed.setdefault(name, set())
        command.update(re.findall(r"--[\w-]+", line))
        needed.update(re.findall(r"--[\w-]+", re.sub(r"\[[^]]*\]", "", line)))
    parsed = {name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
              for name, p in _SUBCOMMANDS.items()}
    required = {name: {o for a in p._actions if a.required for o in a.option_strings}
                for name, p in _SUBCOMMANDS.items()}
    assert synopsis == parsed
    assert unbracketed == required


# the exit-code contract over the whole grammar: argv drawn from build_parser()'s
# own subcommands, choices and types; sizes are small enough to run at once or
# just past a cap, which is refused before any work

_SUBCOMMANDS = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
_EXIT_CODES = {cli.EX_OK, cli.EX_FAIL, cli.EX_CAP, cli.EX_USAGE, cli.EX_IOERR}
_DATA_VARIANTS = ("B", "Bt", "C")  # the variants that need --m


@functools.cache
def _first_n_over_cap(variant, m, encoding):
    """The least spec n whose counting-level build is over ``cli.MAX_GATES``."""
    lo, hi = 1, 2
    while resources.gate_count_formula(variant, hi, m, encoding) <= cli.MAX_GATES:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        over = resources.gate_count_formula(variant, mid, m, encoding) > cli.MAX_GATES
        lo, hi = (lo, mid) if over else (mid, hi)
    return hi


def _spec_sizes(drawn):
    """--n is drawn before --m and --encoding: past the cap means past it for each of them."""
    variant = drawn.get("variant")
    if variant in VARIANTS:
        widths = (1, 2, 3) if variant in _DATA_VARIANTS else (None,)
        over = max(_first_n_over_cap(variant, m, e) for m in widths for e in ENCODINGS)
    else:  # past the O(1) refusal of every variant
        over = 817
    return (1, 2, 3, 4, 5), (over, 10 ** 20), (0, -1)


# (subcommand, option dest) -> (values that run, values past a cap, values refused
# as usage errors), a function of the values drawn before it
_SIZES = {
    **{(command, "n"): _spec_sizes for command in ("build", "verify", "count")},
    **{(command, "m"): lambda drawn: ((1, 2, 3), (), (0, -1))
       for command in ("build", "verify", "count", "table")},
    ("prep", "i"): lambda drawn: ((1, 2, 5, 12, 10 ** 20), ((cli.MAX_GATES + 3) // 2,), (0, -1)),
    ("table", "n_max"): lambda drawn: ((2, 3, 9), (cli.MAX_ROWS + 2,), (1,)),
    ("simulate", "shots"): lambda drawn: ((0, 1, 3), (cli.MAX_SHOTS + 1,), (-1,)),
    ("sample", "n"): lambda drawn: ((1, 2, 6), (cli.MAX_SHOTS + 1,), (0, -1)),
    ("sample", "shots"): lambda drawn: ((0, 1, 3), (cli.MAX_SHOTS + 1,), (-1,)),
}


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """Circuit files, profile files and --out targets by kind."""
    root = tmp_path_factory.mktemp("contract")
    wide = Circuit([("q", 1, 64)])
    files = {"good.json": circuit_to_json(build(BuildSpec("A", 3))),
             "malformed.json": '{"registers": [{"name": "q", "count": "1", "width": 1}], "gates": []}',
             "wide.json": circuit_to_json(wide.extend([Gate("H", None, 0)])),
             "profile.json": json.dumps({"CX": 3, "mcx": {"3": 7}, "mcx_rule": "derived"}),
             "bad_profile.json": json.dumps({"mcx": {"03": 7}})}
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    return {"circuit": [str(root / k) for k in ("good.json", "malformed.json", "wide.json",
                                                "missing.json")] + [str(root)],
            "profile": [str(root / k) for k in ("profile.json", "bad_profile.json", "missing.json")]
                       + [str(root)],
            "out": ["-", str(root / "out.txt"), str(root / "missing" / "out.txt")]}


def _one_in(k: int):
    """True one time in ``k``: hypothesis draws the ends of an integer range far more often."""
    return st.sampled_from((False,) * (k - 1) + (True,))


def _value(data, command, action, drawn, files):
    if action.choices is not None:
        pools = tuple(action.choices), (), ("bogus",)
    elif (command, action.dest) in _SIZES:
        pools = _SIZES[command, action.dest](drawn)
        pools = (*pools[:2], (*pools[2], *_ODD_INTS))
    elif action.type is float:
        pools = ("1e-10", "0.5"), (), ("0", "-1", "nan", "inf", "x")
    elif action.dest == "seed":
        pools = ("0", "7"), (), ("-1", "1.5", *_ODD_INTS)
    else:
        return data.draw(st.sampled_from(files[action.dest]))
    pool = data.draw(st.sampled_from([p for p in (*pools[:1] * 6, *pools[1:]) if p]))
    value = str(data.draw(st.sampled_from(pool)))
    return "x" if data.draw(_one_in(50)) else value  # now and then a value of no type at all


def _left_out(action, drawn):
    """Leave out a required option, or --m of a variant with data, one time in ten;
    --m of a variant without data nine times in ten; any other option one time in two."""
    if action.dest == "m" and drawn.get("variant") not in _DATA_VARIANTS:
        return _one_in(10).map(lambda x: not x)
    if action.required or action.dest == "m":
        return _one_in(10)
    return st.booleans()


def _draw_argv(data, files):
    command = data.draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv, drawn = [command], {}
    for action in _SUBCOMMANDS[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if data.draw(_left_out(action, drawn)):
            continue
        value = _value(data, command, action, drawn, files)
        drawn[action.dest] = value
        argv += [action.option_strings[-1], value]
    return argv, drawn


@given(st.data())
@settings(max_examples=300, deadline=1000)
def test_cli_exit_code_contract(contract_files, data):
    argv, drawn = _draw_argv(data, contract_files)
    out = drawn.get("out", "-")
    if out != "-" and os.path.exists(out):
        os.remove(out)
    code, stdout, stderr = _captured(*argv)
    assert code in _EXIT_CODES, (argv, code, stderr)
    lines = stderr.splitlines()
    if code in (cli.EX_CAP, cli.EX_IOERR):
        assert len(lines) == 1 and stderr.endswith("\n"), (argv, stderr)
        return
    if code == cli.EX_USAGE:  # one error line, after argparse's usage when argparse refuses
        assert lines and lines[-1].startswith("qshuffle"), (argv, stderr)
        if len(lines) > 1:
            assert lines[0].startswith("usage: ") and ": error: " in lines[-1], (argv, stderr)
            assert all(line.startswith(" ") for line in lines[1:-1]), (argv, stderr)
        return
    assert stderr == "", (argv, stderr)
    if out != "-":
        assert stdout == "", (argv, stdout)
        with open(out, encoding="utf-8") as handle:
            stdout = handle.read()
    if _writes_json(argv[0], drawn):
        json.loads(stdout)
    elif argv[0] in ("build", "prep"):
        assert stdout.startswith("OPENQASM 3.0;"), argv
    elif argv[0] == "table":
        assert stdout.startswith("n,qubits,gates,cycles\n"), argv
    else:
        assert all(isinstance(json.loads(line), list) for line in stdout.splitlines()), argv
        assert len(stdout.splitlines()) == int(drawn.get("shots", 1)), argv


def _writes_json(command, drawn):
    return command in ("simulate", "verify", "count") or (
        command in ("build", "prep") and drawn.get("format", "json") == "json")


# main's parser: built on the first call in a process, never at import, then shared

_SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's ``src``; COLUMNS keeps argparse's usage on one line."""
    env = {**os.environ, "COLUMNS": "1000",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(_SRC), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_import_builds_no_parser():
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
             "import qshuffle.cli\n"
             "print(len(built))\n"
             "qshuffle.cli.main(['table', '--variant', 'A', '--n-max', '2'])\n"
             "print(len(built))\n")
    result = _python("-c", probe)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("0", "8")  # the first main call builds the root parser and 7 subparsers


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    build_parser = cli.build_parser
    assert build_parser() is not build_parser()
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._main_parser.cache_clear()
    try:
        assert run_cli("count", "--variant", "A", "--n", "3") == 0
        assert run_cli("table", "--variant", "A", "--n-max", "4") == 0
        assert run_cli("sample", "--n", "3") == 0
        assert len(built) == 1
    finally:
        cli._main_parser.cache_clear()


def test_shared_parser_leaks_no_state(tmp_path, monkeypatch):
    circuit, profile = tmp_path / "c.json", tmp_path / "p.json"
    assert run_cli("build", "--variant", "A", "--n", "3", "--out", str(circuit)) == 0
    profile.write_text(json.dumps({"CX": 39, "mcx_rule": "derived"}))
    spec = ("--variant", "A", "--n", "3")
    sequence = [
        ("verify", *spec, "--seed", "5"), ("verify", *spec),
        ("count", *spec, "--profile", str(profile)), ("count", *spec),
        ("build", "--variant", "Z"),
        ("simulate", "--circuit", str(circuit), "--shots", "4", "--seed", "3"),
        ("simulate", "--circuit", str(circuit), "--shots", "-5"),
        ("--help",), ("--help",),
    ]
    shared = [_captured(*argv) for argv in sequence]
    monkeypatch.setattr(cli, "_main_parser", cli.build_parser)  # a new parser for every call
    assert shared == [_captured(*argv) for argv in sequence]

    (_, seeded, _), (_, unseeded, _) = shared[:2]
    assert (json.loads(seeded)["seed"], json.loads(unseeded)["seed"]) == (5, 0)
    assert shared[2][1] != shared[3][1]  # the profile's costs, then unit costs
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 64, 0, 64, 0, 0]
    assert shared[4][2].splitlines()[-1].startswith("qshuffle build: error: ")
    assert shared[6][2].splitlines()[-1] == ("qshuffle simulate: error: "
                                             "argument --shots: must be an integer >= 0, got '-5'")
    assert shared[7] == shared[8] and shared[7][1].startswith("usage: qshuffle ")


def test_python_m_qshuffle(monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # the in-process usage line wraps as the subprocess's does
    result = _python("-m", "qshuffle", "count", "--variant", "A", "--n", "3")
    assert (result.returncode, result.stdout, result.stderr) == _captured("count", "--variant", "A", "--n", "3")
    assert json.loads(result.stdout)["gates_consistent"] is True

    result = _python("-m", "qshuffle", "build", "--variant", "Z")
    assert (result.returncode, result.stdout) == (64, "")
    usage, error = result.stderr.splitlines()
    assert usage.startswith("usage: qshuffle build ")
    assert error.startswith("qshuffle build: error: argument --variant: invalid choice: 'Z'")
    assert result.stderr == _captured("build", "--variant", "Z")[2]
