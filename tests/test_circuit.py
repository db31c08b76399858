"""Circuit IR: numbering, validation, value controls, depth, counting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle.circuit import (
    Circuit,
    Control,
    Gate,
    QubitRef,
    count_primitives,
    ctrl,
    gate_h,
    gate_swap,
    gate_x,
    primitive_class,
    primitive_multiset,
    value_controls,
)
from qshuffle.resources import CostProfile, measure_circuit
from oracles import emit_value_controlled


def test_global_numbering_order():
    c = Circuit([("p", 2, 1), ("a", 1, 1)])
    assert c.num_qubits == 3
    assert c.qubit_index(QubitRef("p", 0, 0)) == 0
    assert c.qubit_index(QubitRef("p", 1, 0)) == 1
    assert c.qubit_index(QubitRef("a", 0, 0)) == 2


def test_numbering_counts_qubits():
    assert Circuit([("p", 4, 2)]).num_qubits == 8


def test_zero_width_register_rejected():
    with pytest.raises(ValueError):
        Circuit([("p", 1, 0)])


def test_duplicate_register_name_rejected():
    with pytest.raises(ValueError):
        Circuit([("p", 1, 1), ("p", 2, 1)])


def test_numbering_is_pure_function_of_table():
    table = [("d", 2, 2), ("p", 3, 1)]
    a, b = Circuit(table), Circuit(table)
    refs = [QubitRef(r.name, s, k) for r in a.registers for s in range(r.count) for k in range(r.width)]
    assert [a.qubit_index(q) for q in refs] == [b.qubit_index(q) for q in refs]


def test_ref_of_inverts_qubit_index():
    c = Circuit([("d", 2, 3), ("a", 1, 2)])
    for q in range(c.num_qubits):
        assert c.qubit_index(c.ref_of(q)) == q


def test_append_x():
    c = Circuit([("p", 2, 1)])
    c.append(gate_x(QubitRef("p", 1, 0)))
    assert len(c.gates) == 1


def test_append_duplicate_swap_target_rejected():
    c = Circuit([("p", 1, 2)])
    with pytest.raises(ValueError, match="overlap"):
        c.append(gate_swap(QubitRef("p", 0, 0), QubitRef("p", 0, 0)))


def test_append_target_control_overlap_rejected():
    c = Circuit([("a", 1, 1)])
    with pytest.raises(ValueError, match="overlap"):
        c.append(gate_x(QubitRef("a", 0, 0), (ctrl(QubitRef("a", 0, 0)),)))


def test_append_unresolvable_ref_rejected():
    c = Circuit([("a", 1, 1)])
    with pytest.raises(ValueError):
        c.append(gate_x(QubitRef("b", 0, 0)))
    with pytest.raises(ValueError):
        c.append(gate_x(QubitRef("a", 0, 5)))


def test_angle_presence_enforced():
    c = Circuit([("a", 1, 1)])
    with pytest.raises(ValueError):
        c.append(Gate("X", 0.5, (QubitRef("a", 0, 0),)))
    with pytest.raises(ValueError):
        c.append(Gate("RY", None, (QubitRef("a", 0, 0),)))


def test_none_subregister_means_zero():
    c = Circuit([("a", 2, 1)])
    assert c.qubit_index(QubitRef("a", None, 0)) == 0


def test_emit_value_controlled_single_positive():
    c = Circuit([("p", 2, 1), ("a", 1, 1)])
    emit_value_controlled(c, gate_x(QubitRef("a", 0, 0)), "p", 1, 1, 1)
    (gate,) = c.gates
    assert gate.controls == (Control(QubitRef("p", 1, 0), 1),)


def test_emit_value_controlled_binary_of_two():
    c = Circuit([("d", 2, 1), ("a", 1, 2)])
    emit_value_controlled(c, gate_swap(QubitRef("d", 0, 0), QubitRef("d", 1, 0)), "a", 0, 2, 2)
    (gate,) = c.gates
    assert gate.controls == (
        Control(QubitRef("a", 0, 0), 0),
        Control(QubitRef("a", 0, 1), 1),
    )


def test_emit_value_controlled_value_too_large():
    c = Circuit([("d", 1, 1), ("a", 1, 2)])
    with pytest.raises(ValueError):
        emit_value_controlled(c, gate_x(QubitRef("d", 0, 0)), "a", 0, 4, 2)


def test_value_controls_lsb_first():
    assert value_controls("a", 0, 5, 3) == (
        Control(QubitRef("a", 0, 0), 1),
        Control(QubitRef("a", 0, 1), 0),
        Control(QubitRef("a", 0, 2), 1),
    )


def test_schedule_parallel_x_layer():
    c = Circuit([("p", 5, 1)])
    for k in range(1, 5):
        c.append(gate_x(QubitRef("p", k, 0)))
    assert measure_circuit(c).depth == 1


def test_schedule_serial_on_shared_qubit():
    c = Circuit([("q", 1, 1)])
    c.append(gate_x(QubitRef("q", 0, 0)))
    c.append(gate_h(QubitRef("q", 0, 0)))
    assert measure_circuit(c).depth == 2


def test_schedule_empty_circuit():
    assert measure_circuit(Circuit([("q", 1, 1)])).depth == 0


@st.composite
def random_circuits(draw):
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    c = Circuit([(f"r{k}", 1, w) for k, w in enumerate(widths)])
    n = c.num_qubits
    num_gates = draw(st.integers(0, 12))
    for _ in range(num_gates):
        arity = draw(st.integers(1, min(3, n)))
        qubits = draw(
            st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity, unique=True)
        )
        refs = [c.ref_of(q) for q in qubits]
        if draw(st.booleans()) and len(refs) >= 2:
            controls = tuple(Control(r, draw(st.integers(0, 1))) for r in refs[1:])
            c.append(gate_x(refs[0], controls))
        else:
            c.append(gate_h(refs[0]))
    return c


@given(random_circuits())
@settings(max_examples=30, deadline=None)
def test_schedule_depth_bounded_by_gate_count(c):
    assert measure_circuit(c).depth <= len(c.gates)


def test_depth_equals_gate_count_when_sharing_one_qubit():
    c = Circuit([("q", 1, 4)])
    shared = QubitRef("q", 0, 0)
    c.append(gate_h(shared))
    c.append(gate_x(QubitRef("q", 0, 1), (ctrl(shared),)))
    c.append(gate_x(shared, (ctrl(QubitRef("q", 0, 2)),)))
    assert measure_circuit(c).depth == len(c.gates) == 3


def test_count_primitives_unit():
    c = Circuit([("q", 1, 3)])
    c.append(gate_x(QubitRef("q", 0, 0)))
    c.append(gate_h(QubitRef("q", 0, 1)))
    c.append(gate_x(QubitRef("q", 0, 2), (ctrl(QubitRef("q", 0, 0)),)))
    assert count_primitives(c, CostProfile.unit()) == 3


def test_count_primitives_weighted_cx():
    c = Circuit([("q", 1, 3)])
    c.append(gate_x(QubitRef("q", 0, 0)))
    c.append(gate_h(QubitRef("q", 0, 1)))
    c.append(gate_x(QubitRef("q", 0, 2), (ctrl(QubitRef("q", 0, 0)),)))
    assert count_primitives(c, CostProfile(cx=39)) == 41


def test_count_primitives_rejects_controlled_swap():
    c = Circuit([("q", 1, 3)])
    c.append(gate_swap(QubitRef("q", 0, 0), QubitRef("q", 0, 1), (ctrl(QubitRef("q", 0, 2)),)))
    with pytest.raises(ValueError):
        count_primitives(c, CostProfile.unit())


def test_primitive_classes():
    t, c1, c2 = QubitRef("q", 0, 0), ctrl(QubitRef("q", 0, 1)), ctrl(QubitRef("q", 0, 2), 0)
    assert primitive_class(gate_x(t)) == "X"
    assert primitive_class(gate_x(t, (c1,))) == "CX"
    assert primitive_class(gate_x(t, (c1, c2))) == "C2X"
    assert primitive_class(gate_h(t, (c1,))) == "CH"
    with pytest.raises(ValueError):
        primitive_class(gate_h(t, (c1, c2)))


def test_primitive_multiset():
    c = Circuit([("q", 1, 3)])
    c.append(gate_x(QubitRef("q", 0, 0)))
    c.append(gate_x(QubitRef("q", 0, 0)))
    c.append(gate_h(QubitRef("q", 0, 1)))
    assert primitive_multiset(c) == {"X": 2, "H": 1}
