"""CLI subcommands, exit codes, and file round-trips (all in-process)."""

import contextlib
import io
import json
import os
import tempfile
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle import cli, resources, simulator, verify
from qshuffle.cli import main
from qshuffle.verify import verify_spec
from qshuffle.builders import BuildSpec, build, build_with_checkpoints
from qshuffle.serialize import circuit_from_json
from oracles import branch_table, run
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
        assert op.split("(")[0] in {"x", "h", "ry", "rz", "cx", "swap", "ctrl", "negctrl"}


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
    monkeypatch.setattr(simulator, "_apply", counted("gates", simulator._apply))
    assert run_cli("verify", "--variant", "A", "--n", "4") == 0
    # one build and one simulation pass that applies each gate once
    assert calls == {"builds": 1, "gates": len(build(BuildSpec("A", 4)))}
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


def test_sample_rejects_negative_shots(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("sample", "--n", "4", "--shots", "-5")
    assert err.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith("usage: qshuffle sample ")  # the subcommand's usage, not the root's
    assert lines[-1] == "qshuffle sample: error: --shots must be >= 0"


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "4", "--shots", "-5"), ("sample", "--n", "0"),
    ("simulate", "--circuit", "c.json", "--shots", "-5"), ("prep", "--i", "0"),
    ("build", "--variant", "A", "--n", "0"), ("table", "--variant", "A", "--n-max", "1"),
], ids=["sample-shots", "sample-n", "simulate-shots", "prep-i", "build-n", "table-n-max"])
def test_usage_errors_name_the_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 64
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: qshuffle {argv[0]} ")
    assert lines[-1].startswith(f"qshuffle {argv[0]}: error: ")


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


def test_prep_commands(capsys):
    assert run_cli("prep", "--i", "4") == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["gates"]) == 4
    assert run_cli("prep", "--i", "3", "--encoding", "onehot", "--format", "qasm") == 0
    assert "ry(" in capsys.readouterr().out


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


@pytest.mark.parametrize("command", [("count", "--variant", "A", "--n", "3"),
                                     ("table", "--variant", "A", "--n-max", "4")])
@pytest.mark.parametrize("profile", [{"CNOT": 39}, {"mcx": {"3": -1}}, {"mcx": {"3": 2.5}},
                                     {"mcx": {"3": "7"}}, [1, 2]])
def test_bad_profile_exits_64(tmp_path, capsys, command, profile):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(profile))
    with pytest.raises(SystemExit) as err:
        run_cli(*command, "--profile", str(path))
    assert err.value.code == 64
    message = capsys.readouterr().err
    assert message.count("\n") == 1 and "bad cost profile" in message


_ONE_QUBIT = '{"registers": [{"name": "q", "count": %s, "width": 1}], "gates": [%s]}'
_RY = '{"primitive": "RY", "angle": %s, "targets": [{"reg": "q", "sub": 0, "bit": 0}]}'
_X = '{"primitive": "X", "angle": null, "targets": [{"reg": "q", "sub": %s, "bit": %s}]}'
_CX = ('{"registers": [{"name": "q", "count": 1, "width": 2}], "gates": [{"primitive": "X", '
       '"angle": null, "targets": [{"reg": "q", "sub": 0, "bit": 0}], '
       '"controls": [{"reg": "q", "sub": 0, "bit": 1, "value": %s}]}]}')
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
], ids=["string-count", "string-angle", "top-level-list", "nan-angle", "float-bit", "float-sub",
        "float-control-value", "huge-int-angle", "bool-angle", "int-register-name",
        "negative-shots", "bool-sub", "float-one-sub", "half-sub", "bool-control-bit",
        "float-one-control-bit"])
def test_simulate_bad_input_exit_codes(tmp_path, capsys, text, shots, code):
    path = tmp_path / "c.json"
    path.write_text(text)
    try:
        got = run_cli("simulate", "--circuit", str(path), "--shots", shots)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    message = capsys.readouterr().err
    if code == 74:
        assert message.count("\n") == 1 and message.startswith("cannot read circuit")
    else:
        assert "--shots must be >= 0" in message


def test_io_error_exit_74(capsys):
    assert run_cli("simulate", "--circuit", "/nonexistent/file.json") == 74


@pytest.mark.parametrize("qubits,hadamards,message", [
    (64, 0, "64 qubits exceeds"),  # basis indices are int64
    (21, 21, "branches exceed"),  # 2^21 branches: the guard stops it after the 20th H
])
def test_simulate_cap_exit_code(tmp_path, capsys, qubits, hadamards, message):
    from qshuffle.circuit import Circuit, gate_h
    from qshuffle.serialize import circuit_to_json

    c = Circuit([("q", 1, qubits)])
    for k in range(hadamards):
        c.append(gate_h(c.qubit("q", 0, k)))
    path = tmp_path / "wide.json"
    path.write_text(circuit_to_json(c))
    assert run_cli("simulate", "--circuit", str(path)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


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
            {"primitive": "RY", "angle": 0.5, "targets": [_ref("b", None, 1)],
             "controls": [_ref("a", 0, 0, value=1)]},
            {"primitive": "SWAP", "angle": None, "targets": [_ref("a", 1, 0), _ref("b", 0, 0)],
             "controls": [_ref("a", 0, 0, value=0)]},
        ],
        "metadata": {"variant": "A"},
    }


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
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_cli("simulate", "--circuit", path, "--shots", "3")
    assert code in (0, 2, 74)
    if code == 74:
        assert stderr.getvalue().count("\n") == 1
