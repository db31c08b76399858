"""JSON round-trips and the OpenQASM subset emitter."""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from qshuffle.builders import BuildSpec, build
from qshuffle.circuit import Circuit, QubitRef, ctrl, gate_ry, gate_swap
from qshuffle.serialize import circuit_from_json, circuit_to_dict, circuit_to_json, circuit_to_qasm
from oracles import run

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


def test_json_rejects_invalid_gate():
    data = circuit_to_dict(build(BuildSpec("A", 2)))
    data["gates"][0]["targets"][0]["bit"] = 99
    with pytest.raises(ValueError):
        circuit_from_json(json.dumps(data))


def test_angle_roundtrip_is_exact():
    c = Circuit([("q", 1, 1)])
    c.append(gate_ry(2.0 * np.arccos(np.sqrt(1 / 3)), QubitRef("q", 0, 0)))
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


def test_qasm_rotation_and_swap():
    c = Circuit([("q", 1, 3)])
    c.append(gate_ry(0.5, QubitRef("q", 0, 0)))
    c.append(gate_swap(QubitRef("q", 0, 0), QubitRef("q", 0, 1), (ctrl(QubitRef("q", 0, 2)),)))
    text = circuit_to_qasm(c)
    assert "ry(0.5) q[0];" in text
    assert "ctrl @ swap q[2], q[0], q[1];" in text


def test_qasm_every_line_terminated():
    text = circuit_to_qasm(build(BuildSpec("C", 3, 1)))
    for line in text.strip().split("\n")[2:]:
        assert line.endswith(";") or line.startswith("//")
