"""Circuit IR: numbering, validation, value controls, depth, counting."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle.circuit import (
    Circuit,
    Control,
    Gate,
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
    assert c.qubit("p", 0, 0) == 0
    assert c.qubit("p", 1, 0) == 1
    assert c.qubit("a", 0, 0) == 2


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
    addresses = [(r.name, s, k) for r in a.registers for s in range(r.count) for k in range(r.width)]
    assert [a.qubit(*x) for x in addresses] == [b.qubit(*x) for x in addresses] == list(range(7))


def test_ref_of_inverts_qubit_index():
    c = Circuit([("d", 2, 3), ("a", 1, 2)])
    for q in range(c.num_qubits):
        assert c.qubit(*c.ref_of(q)) == q


def test_append_x():
    c = Circuit([("p", 2, 1)])
    c.append(gate_x(c.qubit("p", 1, 0)))
    assert c.gates == [gate_x(1)]


def test_append_duplicate_swap_target_rejected():
    c = Circuit([("p", 1, 2)])
    with pytest.raises(ValueError, match="overlap"):
        c.append(gate_swap(0, 0))


def test_append_target_control_overlap_rejected():
    c = Circuit([("a", 1, 1)])
    with pytest.raises(ValueError, match="overlap"):
        c.append(gate_x(0, (ctrl(0),)))


def test_append_unresolvable_ref_rejected():
    c = Circuit([("a", 1, 1)])
    with pytest.raises(ValueError, match="unknown register"):
        c.qubit("b", 0, 0)
    with pytest.raises(ValueError, match="bit 5 not an int in range"):
        c.qubit("a", 0, 5)
    with pytest.raises(ValueError, match=r"qubit 1 is not an int in range\(1\)"):
        c.append(gate_x(1))
    assert c.gates == []


def test_angle_presence_enforced():
    c = Circuit([("a", 1, 1)])
    with pytest.raises(ValueError):
        c.append(Gate("X", 0.5, (0,)))
    with pytest.raises(ValueError):
        c.append(Gate("RY", None, (0,)))


def test_none_subregister_means_zero():
    c = Circuit([("a", 2, 1)])
    assert c.qubit("a", None, 0) == c.qubit("a", 0, 0) == 0


def test_emit_value_controlled_single_positive():
    c = Circuit([("p", 2, 1), ("a", 1, 1)])
    emit_value_controlled(c, gate_x(c.qubit("a", 0, 0)), "p", 1, 1, 1)
    (gate,) = c.gates
    assert gate.controls == (Control(c.qubit("p", 1, 0), 1),)


def test_emit_value_controlled_binary_of_two():
    c = Circuit([("d", 2, 1), ("a", 1, 2)])
    emit_value_controlled(c, gate_swap(c.qubit("d", 0, 0), c.qubit("d", 1, 0)), "a", 0, 2, 2)
    (gate,) = c.gates
    assert gate.controls == (Control(c.qubit("a", 0, 0), 0), Control(c.qubit("a", 0, 1), 1))


def test_emit_value_controlled_value_too_large():
    c = Circuit([("d", 1, 1), ("a", 1, 2)])
    with pytest.raises(ValueError):
        emit_value_controlled(c, gate_x(c.qubit("d", 0, 0)), "a", 0, 4, 2)


def test_value_controls_lsb_first():
    assert value_controls([4, 7, 9], 5) == (Control(4, 1), Control(7, 0), Control(9, 1))
    with pytest.raises(ValueError, match="does not fit in 3 bits"):
        value_controls([4, 7, 9], 8)


def test_schedule_parallel_x_layer():
    c = Circuit([("p", 5, 1)])
    for k in range(1, 5):
        c.append(gate_x(c.qubit("p", k, 0)))
    assert measure_circuit(c).depth == 1


def test_schedule_serial_on_shared_qubit():
    c = Circuit([("q", 1, 1)])
    c.append(gate_x(0))
    c.append(gate_h(0))
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
        if draw(st.booleans()) and len(qubits) >= 2:
            controls = tuple(Control(q, draw(st.integers(0, 1))) for q in qubits[1:])
            c.append(gate_x(qubits[0], controls))
        else:
            c.append(gate_h(qubits[0]))
    return c


@given(random_circuits())
@settings(max_examples=30, deadline=None)
def test_schedule_depth_bounded_by_gate_count(c):
    assert measure_circuit(c).depth <= len(c.gates)


def test_depth_equals_gate_count_when_sharing_one_qubit():
    c = Circuit([("q", 1, 4)])
    shared = 0
    c.append(gate_h(shared))
    c.append(gate_x(1, (ctrl(shared),)))
    c.append(gate_x(shared, (ctrl(2),)))
    assert measure_circuit(c).depth == len(c.gates) == 3


def test_count_primitives_unit():
    c = Circuit([("q", 1, 3)])
    c.append(gate_x(0))
    c.append(gate_h(1))
    c.append(gate_x(2, (ctrl(0),)))
    assert count_primitives(c, CostProfile.unit()) == 3


def test_count_primitives_weighted_cx():
    c = Circuit([("q", 1, 3)])
    c.append(gate_x(0))
    c.append(gate_h(1))
    c.append(gate_x(2, (ctrl(0),)))
    assert count_primitives(c, CostProfile(cx=39)) == 41


def test_count_primitives_rejects_controlled_swap():
    c = Circuit([("q", 1, 3)])
    c.append(gate_swap(0, 1, (ctrl(2),)))
    with pytest.raises(ValueError):
        count_primitives(c, CostProfile.unit())


def test_primitive_classes():
    t, c1, c2 = 0, ctrl(1), ctrl(2, 0)
    assert primitive_class(gate_x(t)) == "X"
    assert primitive_class(gate_x(t, (c1,))) == "CX"
    assert primitive_class(gate_x(t, (c1, c2))) == "C2X"
    assert primitive_class(gate_h(t, (c1,))) == "CH"
    with pytest.raises(ValueError):
        primitive_class(gate_h(t, (c1, c2)))


def test_primitive_multiset():
    c = Circuit([("q", 1, 3)])
    c.append(gate_x(0))
    c.append(gate_x(0))
    c.append(gate_h(1))
    assert primitive_multiset(c) == {"X": 2, "H": 1}


def test_qubit_checks_each_address():
    c = Circuit([("d", 2, 3), ("a", 1, 2)])
    assert c.qubit("d", 1, 2) == 5 and c.qubit("a", None, 1) == 7
    assert [c.ref_of(q) for q in range(c.num_qubits)] == [
        ("d", 0, 0), ("d", 0, 1), ("d", 0, 2), ("d", 1, 0), ("d", 1, 1), ("d", 1, 2), ("a", 0, 0), ("a", 0, 1)]
    # True == 1 == 1.0 and they hash alike: none of them may stand for subregister or bit 1
    for bad in (("d", 2, 0), ("b", 0, 0), ("d", [1], 0), ("d", 0, {"bit": 1}), ("d", True, 0),
                ("d", 1.0, 0), ("d", 0.5, 0), ("d", 0, True), ("d", 0, 1.0), ("d", 0, 0.5)):
        with pytest.raises(ValueError):
            c.qubit(*bad)


def test_huge_registers_are_resolved_without_tables():
    # fuzzed circuit files declare registers of 2**40 qubits: resolving and
    # checking an index must not allocate anything per qubit
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        c = Circuit([("q", 2**40, 1), ("a", 1, 2)])
        last = c.qubit("q", 2**40 - 1, 0)
        c.append(gate_x(c.qubit("a", 0, 1), (ctrl(last),)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last == 2**40 - 1 and c.gates == [gate_x(2**40 + 1, (ctrl(2**40 - 1),))]
    assert peak < 2**16, f"peak {peak} B"


@pytest.mark.parametrize("bad", [True, 1.0, -1, 4, 2**64, "1", None],
                         ids=["bool", "float", "negative", "out-of-range", "huge", "str", "none"])
def test_append_rejects_an_operand_that_is_not_a_qubit_index(bad):
    # True == 1 == 1.0 and they hash alike, so a lookup by value would admit them
    c = Circuit([("perm", 2, 2)])
    for gate in (gate_x(bad), gate_x(0, (ctrl(bad),)), gate_swap(0, bad), gate_swap(bad, 1, (ctrl(2),))):
        with pytest.raises(ValueError, match="is not an int in range"):
            c.append(gate)
        with pytest.raises(ValueError, match="is not an int in range"):
            c.extend([gate_x(1), gate])
    assert c.gates == [gate_x(1)] * 4


def test_a_rejected_gate_is_rejected_again():
    c = Circuit([("a", 1, 2)])
    good = gate_x(0)
    overlap = gate_x(0, (ctrl(0),))
    nan = Gate("RZ", float("nan"), (0,))
    outside = gate_x(1, (ctrl(2),))
    for bad in (overlap, nan, outside):
        for _ in range(2):
            with pytest.raises(ValueError):
                c.append(bad)
            with pytest.raises(ValueError):
                c.extend([good, bad, good])
    assert c.gates == [good] * 6  # each extend stopped at the bad gate


def test_extend_checks_each_distinct_gate_object_once(monkeypatch):
    c = Circuit([("a", 1, 2)])
    x, h = gate_x(0), gate_h(1)
    checked = []
    append = Circuit.append
    monkeypatch.setattr(Circuit, "append", lambda self, g: checked.append(g) or append(self, g))
    c.extend([x, h, x, x, h, gate_x(0)])
    assert len(c.gates) == 6 and len(checked) == 3
    c.extend([x])  # a new call checks again
    assert len(checked) == 4
