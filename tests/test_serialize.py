"""JSON round-trips, the OpenQASM subset emitter, and the emitters' output
against the reference encoders in ``oracles``."""

import json
import tracemalloc
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from qshuffle import simulator
from qshuffle.builders import VARIANTS, BuildSpec, build
from qshuffle.circuit import Circuit, Control, Gate, Register
from qshuffle.lowering import lower_circuit
from qshuffle.prep import ENCODINGS
from qshuffle.serialize import circuit_from_json, circuit_to_json, circuit_to_qasm
from oracles import circuit_from_qasm, circuit_to_dict, run

from test_circuit import random_circuits


def test_json_field_order():
    c = build(BuildSpec("A", 2))
    data = json.loads(circuit_to_json(c))
    assert list(data) == ["registers", "gates", "metadata"]
    assert list(data["registers"][0]) == ["name", "count", "width"]
    assert list(data["gates"][0]) == ["primitive", "angle", "targets", "controls"]
    assert list(data["gates"][0]["targets"][0]) == ["reg", "sub", "bit"]


def test_json_roundtrip_preserves_structure():
    c = build(BuildSpec("Bt", 3, 2))
    back = circuit_from_json(circuit_to_json(c))
    assert back.registers == c.registers
    assert back.gates == c.gates
    assert back.metadata == c.metadata


def test_json_roundtrip_bit_identical_simulation():
    c = build(BuildSpec("At", 3))
    back = circuit_from_json(circuit_to_json(c))
    a, b = run(c), run(back)
    assert np.array_equal(a, b)


@given(random_circuits())
@settings(max_examples=25, deadline=None)
def test_json_roundtrip_random(c):
    assert circuit_from_json(circuit_to_json(c)).gates == c.gates


def test_reader_shares_one_gate_per_distinct_record():
    # full A n=12 repeats 965 distinct gate records 51,126 times
    text = circuit_to_json(lower_circuit(build(BuildSpec("A", 12)), "full", "borrowed"))
    back = circuit_from_json(text)
    assert len(back.gates) == 51126 and len({id(g) for g in back.gates}) == 965
    assert circuit_to_json(back) == text


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_reloaded_circuit_simulates_bit_identically(variant, encoding):
    for spec in _specs(variant, encoding, range(1, 6)):
        for c in _lowerings(spec):
            (wi, wa), (gi, ga) = simulator.run(c), simulator.run(circuit_from_json(circuit_to_json(c)))
            assert np.array_equal(wi, gi) and np.array_equal(wa, ga), (spec, c.metadata)


def test_json_rejects_invalid_gate():
    data = circuit_to_dict(build(BuildSpec("A", 2)))
    data["gates"][0]["targets"][0]["bit"] = 99
    with pytest.raises(ValueError):
        circuit_from_json(json.dumps(data))


def test_angle_roundtrip_is_exact():
    c = Circuit([("q", 1, 1)])
    c.extend([Gate("RY", 2.0 * np.arccos(np.sqrt(1 / 3)), 0)])
    back = circuit_from_json(circuit_to_json(c))
    assert back.gates[0].angle == c.gates[0].angle


def test_qasm_basic_shape():
    text = circuit_to_qasm(build(BuildSpec("A", 2)))
    lines = text.strip().split("\n")
    assert lines[0] == "OPENQASM 3.0;"
    assert lines[1].startswith("// registers: perm=q[0..1], anc=q[2..2]")
    assert lines[2] == "qubit[3] q;"
    assert "x q[1];" in lines
    assert "h q[2];" in lines
    # middle of the controlled swap: negative ancilla control, positive partner
    assert "negctrl @ ctrl @ x q[2], q[1], q[0];" in lines
    assert "cx q[0], q[1];" in lines


def test_qasm_rotation_and_controls():
    c = Circuit([("q", 1, 3)])
    c.extend([Gate("RY", 0.5, 0), Gate("RZ", -1.5, 1, (Control(2, 1), Control(0, 0)))])
    text = circuit_to_qasm(c)
    assert "ry(0.5) q[0];" in text
    assert "ctrl @ negctrl @ rz(-1.5) q[2], q[0], q[1];" in text


def test_qasm_every_line_terminated():
    text = circuit_to_qasm(build(BuildSpec("C", 3, 1)))
    for line in text.strip().split("\n")[2:]:
        assert line.endswith(";") or line.startswith("//")


def _lowerings(spec):
    """The counting-level build of a spec, then its full lowering in both MCX modes."""
    circuit = build(spec)
    yield circuit
    for mcx in ("borrowed", "clean"):
        yield lower_circuit(circuit, "full", mcx)


def _specs(variant, encoding, n_values):
    for n in n_values:
        for m in ((1, 2) if variant in ("B", "Bt", "C") else (None,)):
            yield BuildSpec(variant, n, m, encoding)


@given(random_circuits())
@settings(max_examples=50, deadline=None)
def test_json_text_equals_the_reference_encoder_random(c):
    assert circuit_to_json(c) == json.dumps(circuit_to_dict(c))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_json_text_equals_the_reference_encoder(variant, encoding):
    for spec in _specs(variant, encoding, range(1, 6)):
        for c in _lowerings(spec):
            assert circuit_to_json(c) == json.dumps(circuit_to_dict(c)), (spec, c.metadata)


def test_json_text_of_edge_values():
    c = Circuit([("r\u00e9g \"q\"", 2, 2)], {"note": "\u2192", "nested": {"k": [1, 2.5, None]}})
    name = "r\u00e9g \"q\""
    q, r, s = c.qubit(name, 0, 1), c.qubit(name, 1, 0), c.qubit(name, 1, 1)
    c.extend([
        Gate("RY", -0.0, q),
        Gate("RZ", 3, r, (Control(q, 0),)),
        Gate("X", None, s, (Control(q, 1), Control(r, 1))),
    ])
    assert circuit_to_json(c) == json.dumps(circuit_to_dict(c))
    assert json.loads(circuit_to_json(c))["gates"][0]["targets"] == [{"reg": name, "sub": 0, "bit": 1}]


def test_angle_texts_keep_negative_zero_apart():
    # the emitters encode each angle once per call, and the reader makes one
    # Gate per distinct record; -0.0 == 0.0 and 1 == 1.0, so a cache that found
    # angles by value would hand one the other's text or gate
    c = Circuit([("q", 1, 2)])
    a, b = c.qubit("q", 0, 0), c.qubit("q", 0, 1)
    neg, zero = -0.0, 0.0
    c.extend([Gate("RZ", neg, a), Gate("RZ", zero, a), Gate("RZ", neg, b), Gate("RZ", 1, a),
              Gate("RZ", 1.0, a), Gate("RZ", zero, b)])
    text = circuit_to_json(c)
    assert text == json.dumps(circuit_to_dict(c))
    assert circuit_to_qasm(c).splitlines()[3:] == [
        "rz(-0.0) q[0];", "rz(0.0) q[0];", "rz(-0.0) q[1];", "rz(1) q[0];", "rz(1.0) q[0];",
        "rz(0.0) q[1];"]
    back = circuit_from_json(text)
    assert circuit_to_json(back) == text
    assert [repr(g.angle) for g in back.gates] == ["-0.0", "0.0", "-0.0", "1", "1.0", "0.0"]


# SHA-256 of the JSON and QASM text of every variant and encoding at n <= 6,
# m in {1, 2}, at the counting level and fully lowered in both MCX modes, as
# the emitters wrote them before gates were shared.  Rewrite the file only
# for a deliberate change of the output.
GOLDEN = Path(__file__).with_name("golden_digests.json")


def _digests(variant, encoding):
    out = {}
    for spec in _specs(variant, encoding, range(1, 7)):
        for c in _lowerings(spec):
            level = " ".join(str(c.metadata[k]) for k in ("lowering", "mcx_mode") if k in c.metadata)
            name = f"{variant} n{spec.n}" + (f" m{spec.m}" if spec.m else "") + f" {encoding} {level}"
            out[f"{name} json"] = sha256(circuit_to_json(c).encode()).hexdigest()
            out[f"{name} qasm"] = sha256(circuit_to_qasm(c).encode()).hexdigest()
    return out


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_output_matches_the_golden_digests(variant, encoding):
    golden = json.loads(GOLDEN.read_text())
    want = {k: v for k, v in golden.items() if k.startswith(f"{variant} ") and f" {encoding} " in k}
    got = _digests(variant, encoding)
    assert len(want) == len(got) > 0
    assert [k for k in want if got.get(k) != want[k]] == []


def _resolved(c):
    """Each gate by global qubit index: primitive, angle, qubits (controls,
    then the target) and control values; the same for any register naming."""
    return [(g.primitive, g.angle, c.gate_qubits(g), [k.value for k in g.controls]) for g in c.gates]


@given(random_circuits())
@settings(max_examples=50, deadline=None)
def test_qasm_round_trip_random(c):
    assert _resolved(circuit_from_qasm(circuit_to_qasm(c))) == _resolved(c)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("encoding", ENCODINGS)
def test_qasm_round_trip_simulates_like_json(variant, encoding):
    for spec in _specs(variant, encoding, [4]):
        for c in _lowerings(spec):
            from_json = circuit_from_json(circuit_to_json(c))
            from_qasm = circuit_from_qasm(circuit_to_qasm(c))
            assert from_qasm.num_qubits == c.num_qubits
            assert _resolved(from_qasm) == _resolved(from_json)
            (qi, qa), (ji, ja) = simulator.run(from_qasm), simulator.run(from_json)
            assert np.array_equal(qi, ji) and np.array_equal(qa, ja), (spec, c.metadata)


def test_qasm_reader_rejects_text_outside_the_subset():
    text = circuit_to_qasm(build(BuildSpec("A", 2)))
    with pytest.raises(ValueError, match="not in the QASM subset"):
        circuit_from_qasm(text + "ccx q[0], q[1], q[2];\n")


def test_ir_objects_carry_no_instance_dict():
    for obj in (Register("a", 1, 1), Control(0, 1), Gate("RY", 0.5, 0)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__


def test_build_and_json_peak_memory():
    """A n=32 (8,770 gates) built and written as JSON: about 7 MB traced at
    the peak with slotted gates and memoised qubit text, 17 MB with a
    ``__dict__`` per object and one dict per qubit reference."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        text = circuit_to_json(build(BuildSpec("A", 32)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2_000_000
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"
