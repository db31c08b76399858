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
    plain_int,
    value_controls,
)
from qshuffle.lowering import swap_gates
from qshuffle.resources import CostProfile, weighted_depth
from oracles import emit_value_controlled, primitive_class, primitive_multiset, ref_of


def test_global_numbering_order():
    c = Circuit([("p", 2, 1), ("a", 1, 1)])
    assert c.num_qubits == 3
    assert c.qubit("p", 0, 0) == 0
    assert c.qubit("p", 1, 0) == 1
    assert c.qubit("a", 0, 0) == 2


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


@given(st.integers())
def test_plain_int_reads_exactly_str_of_an_int(k):
    text = str(k)
    sign, digits = text[:k < 0], text[k < 0:]
    assert plain_int(text) == k
    odd = ["+" + text, " " + text, text + " ", f"{sign}0{digits}", f"{sign}{digits[0]}_{digits[1:]}",
           text[:-1] + text[-1].translate(_ARABIC_INDIC)]  # one non-ASCII digit
    assert [plain_int(t) for t in odd] == [None] * len(odd)
    assert plain_int("-0") is plain_int("1" * 5000) is plain_int("") is None  # 5000 digits: over int()'s limit


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
        assert c.qubit(*ref_of(c, q)) == q
    for q in (-1, c.num_qubits):
        with pytest.raises(ValueError, match="out of range"):
            ref_of(c, q)


def test_append_x():
    c = Circuit([("p", 2, 1)])
    c.extend([Gate("X", None, c.qubit("p", 1, 0))])
    assert c.gates == [Gate("X", None, 1)]


def test_append_duplicate_swap_target_rejected():
    # the IR has no SWAP; a swap of one qubit with itself, or under a control on
    # one of its qubits, is X gates that name a qubit twice
    with pytest.raises(ValueError, match="overlap"):
        Circuit([("q", 1, 3)]).extend(swap_gates(Control(0, 1), Control(0, 1), ()))
    with pytest.raises(ValueError, match="overlap"):
        Circuit([("q", 1, 3)]).extend(swap_gates(Control(0, 1), Control(1, 1), (Control(1, 1),)))


def test_append_target_control_overlap_rejected():
    c = Circuit([("a", 1, 1)])
    with pytest.raises(ValueError, match="overlap"):
        c.extend([Gate("X", None, 0, (Control(0, 1),))])


def test_append_unresolvable_ref_rejected():
    c = Circuit([("a", 1, 1)])
    with pytest.raises(ValueError, match="unknown register"):
        c.qubit("b", 0, 0)
    with pytest.raises(ValueError, match="bit 5 not an int in range"):
        c.qubit("a", 0, 5)
    with pytest.raises(ValueError, match=r"qubit 1 is not an int in range\(1\)"):
        c.extend([Gate("X", None, 1)])
    assert c.gates == []


def test_angle_presence_enforced():
    c = Circuit([("a", 1, 1)])
    with pytest.raises(ValueError):
        c.extend([Gate("X", 0.5, 0)])
    with pytest.raises(ValueError):
        c.extend([Gate("RY", None, 0)])


def test_none_subregister_is_refused():
    # an address names its subregister by int; None does not stand for 0
    c = Circuit([("a", 2, 1)])
    with pytest.raises(ValueError, match=r"subregister a:None not an int in range \(count 2\)"):
        c.qubit("a", None, 0)


def test_emit_value_controlled_single_positive():
    c = Circuit([("p", 2, 1), ("a", 1, 1)])
    emit_value_controlled(c, Gate("X", None, c.qubit("a", 0, 0)), "p", 1, 1, 1)
    (gate,) = c.gates
    assert gate.controls == (Control(c.qubit("p", 1, 0), 1),)


def test_emit_value_controlled_binary_of_two():
    c = Circuit([("d", 2, 1), ("a", 1, 2)])
    emit_value_controlled(c, Gate("X", None, c.qubit("d", 0, 0)), "a", 0, 2, 2)
    (gate,) = c.gates
    assert gate.controls == (Control(c.qubit("a", 0, 0), 0), Control(c.qubit("a", 0, 1), 1))


def test_emit_value_controlled_value_too_large():
    c = Circuit([("d", 1, 1), ("a", 1, 2)])
    with pytest.raises(ValueError):
        emit_value_controlled(c, Gate("X", None, c.qubit("d", 0, 0)), "a", 0, 4, 2)


def test_value_controls_lsb_first():
    assert value_controls([4, 7, 9], 5) == (Control(4, 1), Control(7, 0), Control(9, 1))
    with pytest.raises(ValueError, match="does not fit in 3 bits"):
        value_controls([4, 7, 9], 8)


def test_schedule_parallel_x_layer():
    c = Circuit([("p", 5, 1)])
    c.extend(Gate("X", None, c.qubit("p", k, 0)) for k in range(1, 5))
    assert weighted_depth(c, CostProfile()) == 1


def test_schedule_serial_on_shared_qubit():
    c = Circuit([("q", 1, 1)])
    c.extend([Gate("X", None, 0), Gate("H", None, 0)])
    assert weighted_depth(c, CostProfile()) == 2


def test_schedule_empty_circuit():
    assert weighted_depth(Circuit([("q", 1, 1)]), CostProfile()) == 0


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
            c.extend([Gate("X", None, qubits[0], controls)])
        else:
            c.extend([Gate("H", None, qubits[0])])
    return c


@given(random_circuits())
@settings(max_examples=30, deadline=None)
def test_schedule_depth_bounded_by_gate_count(c):
    assert weighted_depth(c, CostProfile()) <= len(c.gates)


def test_depth_equals_gate_count_when_sharing_one_qubit():
    c = Circuit([("q", 1, 4)])
    shared = 0
    c.extend([Gate("H", None, shared), Gate("X", None, 1, (Control(shared, 1),)),
              Gate("X", None, shared, (Control(2, 1),))])
    assert weighted_depth(c, CostProfile()) == len(c.gates) == 3


def test_count_primitives_unit():
    c = Circuit([("q", 1, 3)])
    c.extend([Gate("X", None, 0), Gate("H", None, 1), Gate("X", None, 2, (Control(0, 1),))])
    assert count_primitives(c, CostProfile()) == 3


def test_count_primitives_weighted_cx():
    c = Circuit([("q", 1, 3)])
    c.extend([Gate("X", None, 0), Gate("H", None, 1), Gate("X", None, 2, (Control(0, 1),))])
    assert count_primitives(c, CostProfile(cx=39)) == 41


def test_count_primitives_rejects_controlled_swap():
    # SWAP has no cost class, as no circuit holds one: a controlled swap is
    # its X triple, counted as CX, C2X, CX
    with pytest.raises(ValueError, match="unknown primitive 'SWAP'"):
        Circuit([("q", 1, 3)]).extend([Gate("SWAP", None, 0, (Control(2, 1),))])
    c = Circuit([("q", 1, 3)]).extend(swap_gates(Control(0, 1), Control(1, 1), (Control(2, 1),)))
    assert count_primitives(c, CostProfile(cx=39)) == 2 * 39 + 1


def test_primitive_classes():
    t, c1, c2 = 0, Control(1, 1), Control(2, 0)
    assert primitive_class(Gate("X", None, t)) == "X"
    assert primitive_class(Gate("X", None, t, (c1,))) == "CX"
    assert primitive_class(Gate("X", None, t, (c1, c2))) == "C2X"
    assert primitive_class(Gate("H", None, t, (c1,))) == "CH"
    with pytest.raises(ValueError):
        primitive_class(Gate("H", None, t, (c1, c2)))


def test_primitive_multiset():
    c = Circuit([("q", 1, 3)])
    c.extend([Gate("X", None, 0), Gate("X", None, 0), Gate("H", None, 1)])
    assert primitive_multiset(c) == {"X": 2, "H": 1}


def test_qubit_checks_each_address():
    c = Circuit([("d", 2, 3), ("a", 1, 2)])
    assert c.qubit("d", 1, 2) == 5 and c.qubit("a", 0, 1) == 7
    assert [ref_of(c, q) for q in range(c.num_qubits)] == [
        ("d", 0, 0), ("d", 0, 1), ("d", 0, 2), ("d", 1, 0), ("d", 1, 1), ("d", 1, 2), ("a", 0, 0), ("a", 0, 1)]
    # True == 1 == 1.0 and they hash alike: none of them may stand for subregister or bit 1,
    # nor None for subregister 0
    for bad in (("d", 2, 0), ("b", 0, 0), ("d", [1], 0), ("d", 0, {"bit": 1}), ("d", True, 0),
                ("d", 1.0, 0), ("d", 0.5, 0), ("d", 0, True), ("d", 0, 1.0), ("d", 0, 0.5), ("a", None, 0),
                ("d", 0, None)):
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
        c.extend([Gate("X", None, c.qubit("a", 0, 1), (Control(last, 1),))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last == 2**40 - 1 and c.gates == [Gate("X", None, 2**40 + 1, (Control(2**40 - 1, 1),))]
    assert peak < 2**16, f"peak {peak} B"


@pytest.mark.parametrize("bad", [True, 1.0, -1, 4, 2**64, "1", None, [1]],
                         ids=["bool", "float", "negative", "out-of-range", "huge", "str", "none", "list"])
def test_append_rejects_an_operand_that_is_not_a_qubit_index(bad):
    # True == 1 == 1.0 and they hash alike, so a lookup by value would admit them;
    # a list cannot be hashed, so an operand hashed before its type check raises TypeError
    c = Circuit([("perm", 2, 2)]).extend([Gate("H", None, 3)])
    for gate in (Gate("X", None, bad), Gate("X", None, 0, (Control(bad, 1),)),
                 Gate("H", None, bad, (Control(2, 1),)), Gate("X", None, 0, (Control(2, 1), Control(bad, 1)))):
        with pytest.raises(ValueError, match="is not an int in range"):
            c.extend([gate])
        with pytest.raises(ValueError, match="is not an int in range"):
            c.extend([Gate("X", None, 1), gate])
    assert c.gates == [Gate("H", None, 3)]  # a failed extend appends nothing, not even the gates before it


def test_a_rejected_gate_is_rejected_again():
    good = Gate("X", None, 0)
    c = Circuit([("a", 1, 2)]).extend([good])
    overlap = Gate("X", None, 0, (Control(0, 1),))
    nan = Gate("RZ", float("nan"), 0)
    outside = Gate("X", None, 1, (Control(2, 1),))
    for bad in (overlap, nan, outside):
        for _ in range(2):
            with pytest.raises(ValueError):
                c.extend([bad])
            with pytest.raises(ValueError):
                c.extend([good, bad, good])
    assert c.gates == [good]  # each extend appended nothing, not even the good gates before the bad one


def test_extend_checks_each_distinct_gate_object_once(monkeypatch):
    c = Circuit([("a", 1, 2)])
    x, h = Gate("X", None, 0), Gate("H", None, 1)
    checked = []
    check = Circuit.check
    monkeypatch.setattr(Circuit, "check", lambda self, g: checked.append(g) or check(self, g))
    c.extend([x, h, x, x, h, Gate("X", None, 0)])
    assert len(c.gates) == 6 and len(checked) == 3
    c.extend([x])  # a new call checks again
    assert len(checked) == 4


def test_check_reports_the_first_fault_in_a_fixed_order():
    # primitive, angle, control values, control qubits, target, overlap: each
    # gate below mends the fault its predecessor was refused for
    c = Circuit([("a", 1, 2)])
    for gate, message in [
        (Gate("SWAP", 0.5, 9, (Control(8, 2),)), "unknown primitive 'SWAP'"),
        (Gate("X", 0.5, 9, (Control(8, 2),)), "angle must be present iff"),
        (Gate("X", None, 9, (Control(8, True),)), "control value must be the int 0 or 1, got True"),
        (Gate("X", None, 9, (Control(8, 1),)), r"qubit 8 is not an int in range\(2\)"),
        (Gate("X", None, 9, (Control(0, 1),)), r"qubit 9 is not an int in range\(2\)"),
        (Gate("X", None, 0, (Control(0, 1),)), "overlap"),
    ]:
        with pytest.raises(ValueError, match=message):
            c.extend([gate])
    assert c.gates == []


def test_check_refuses_what_is_not_a_gate_of_controls():
    # each equals a well-formed gate field for field, so only a type check tells them apart
    c = Circuit([("a", 1, 2)]).extend([Gate("H", None, 1)])
    for bad, message in [(("X", None, 0, ()), "not a Gate"),
                         (Gate("X", None, 0, ((1, 1),)), "is not a Control"),
                         (Gate("X", None, 0, [Control(1, 1)]), "not a Gate with a tuple of controls")]:
        with pytest.raises(ValueError, match=message):
            c.extend([bad])
        with pytest.raises(ValueError, match=message):
            c.extend([Gate("X", None, 0), bad])
    assert c.gates == [Gate("H", None, 1)]


def test_ir_values_are_immutable_named_tuples():
    gate, control = Gate("X", None, 0, (Control(1, 1),)), Control(1, 1)
    with pytest.raises(AttributeError):
        gate.target = 1
    with pytest.raises(AttributeError):
        control.value = 0
    primitive, angle, target, controls = gate
    assert (primitive, angle, target, controls) == ("X", None, 0, ((1, 1),))
    assert gate._replace(target=2) == Gate("X", None, 2, (Control(1, 1),)) and gate.target == 0
