"""Circuit IR: numbering, validation, value controls, depth, counting."""

import tracemalloc

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


def test_canonical_refs_are_shared_and_resolve_like_any_ref():
    c = Circuit([("d", 2, 3), ("a", 1, 2)])
    r = c.ref("d", 1, 2)
    assert r is c.ref("d", 1, 2) and r == QubitRef("d", 1, 2)
    assert c.qubit_index(r) == c.qubit_index(QubitRef("d", 1, 2)) == 5
    assert c.ref("a", None, 0) is not c.ref("a", 0, 0)  # sub=None stays None in the output
    assert [c.ref_of(q) for q in range(c.num_qubits)] == [c.ref_of(q) for q in range(c.num_qubits)]
    assert all(c.ref_of(q) is c.ref_of(q) for q in range(c.num_qubits))
    assert c.copy_empty().ref("d", 1, 2) is r  # same registers, same table
    for bad in (("d", 2, 0), ("b", 0, 0), ("d", [1], 0), ("d", 0, {"bit": 1})):
        with pytest.raises(ValueError):
            c.ref(*bad)


def test_canonical_refs_are_made_lazily():
    # an eager table of every qubit would not fit: fuzzed circuit files
    # declare registers of 2**40 qubits
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        c = Circuit([("q", 2**40, 1), ("a", 1, 2)])
        last = c.ref("q", 2**40 - 1, 0)
        index = c.qubit_index(c.ref("a", 0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.qubit_index(last) == 2**40 - 1 and index == 2**40 + 1
    assert peak < 2**16, f"peak {peak} B"


@pytest.mark.parametrize("sub", [True, 1.0], ids=["bool", "float"])
def test_a_canonical_ref_never_admits_an_equal_ref_of_another_type(sub):
    # QubitRef("perm", True, 0) == QubitRef("perm", 1, 0) and they hash alike;
    # neither it nor 1.0 may resolve through the canonical perm[1].0
    c = Circuit([("perm", 2, 2)])
    c.append(gate_x(c.ref("perm", 1, 0)))
    c.append(gate_x(QubitRef("perm", 1, 0)))
    alias = QubitRef("perm", sub, 0)
    assert alias == c.ref("perm", 1, 0)
    for bad in (lambda: c.append(gate_x(alias)), lambda: c.qubit_index(alias),
                lambda: c.ref("perm", sub, 0), lambda: c.ref("perm", 1, sub),
                lambda: c.append(gate_x(c.ref("perm", 0, 0), (ctrl(alias),)))):
        with pytest.raises(ValueError):
            bad()
    assert len(c.gates) == 2


def test_a_rejected_gate_is_rejected_again():
    c = Circuit([("a", 1, 2)])
    t = c.ref("a", 0, 0)
    good = gate_x(t)
    overlap = gate_x(t, (ctrl(t),))
    nan = Gate("RZ", float("nan"), (t,))
    for bad in (overlap, nan):
        for _ in range(2):
            with pytest.raises(ValueError):
                c.append(bad)
            with pytest.raises(ValueError):
                c.extend([good, bad, good])
    assert c.gates == [good] * 4  # each extend stopped at the bad gate


def test_extend_checks_each_distinct_gate_object_once(monkeypatch):
    c = Circuit([("a", 1, 2)])
    x, h = gate_x(c.ref("a", 0, 0)), gate_h(c.ref("a", 0, 1))
    checked = []
    append = Circuit.append
    monkeypatch.setattr(Circuit, "append", lambda self, g: checked.append(g) or append(self, g))
    c.extend([x, h, x, x, h, gate_x(c.ref("a", 0, 0))])
    assert len(c.gates) == 6 and len(checked) == 3
    c.extend([x])  # a new call checks again
    assert len(checked) == 4
