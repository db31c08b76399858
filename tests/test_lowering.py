"""Gate lowering: the controlled-swap triple, polarity elimination, Toffoli and MCX ladders."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle.builders import VARIANTS, BuildSpec, build
from qshuffle.circuit import Circuit, Control, Gate
from qshuffle.lowering import (
    TOFFOLI_PHASE,
    eliminate_negative_controls,
    lower_circuit,
    lower_mcx,
    lower_toffoli,
    swap_gates,
)
from qshuffle.prep import ENCODINGS
from oracles import dense_run, primitive_class, primitive_multiset, run, states_equal_up_to_phase


def q(bit):  # one register "q": bit b is global qubit b
    return bit


def mcx_gate(m, target_bit, control_bits, values=None):
    values = values or [1] * m
    return Gate("X", None, q(target_bit), tuple(Control(q(b), v) for b, v in zip(control_bits, values)))


def apply_to_all_basis(circuit, num_qubits):
    """Basis-state -> basis-state map of a permutation circuit (exact)."""
    mapping = []
    for k in range(1 << num_qubits):
        state = run(circuit, k)
        out = int(np.argmax(np.abs(state)))
        assert abs(abs(state[out]) - 1.0) < 1e-12
        mapping.append(out)
    return mapping


def cmx_truth(num_qubits, m, target_bit):
    mask = (1 << m) - 1
    return [k ^ (1 << target_bit) if (k & mask) == mask else k for k in range(1 << num_qubits)]


def test_uncontrolled_swap_is_three_cx():
    seq = swap_gates(Control(q(0), 1), Control(q(1), 1), ())
    assert [primitive_class(g) for g in seq] == ["CX", "CX", "CX"]


def test_single_controlled_swap():
    seq = swap_gates(Control(q(0), 1), Control(q(1), 1), (Control(q(2), 1),))
    assert [primitive_class(g) for g in seq] == ["CX", "C2X", "CX"]
    # only the middle gate carries the original control
    assert seq[0].controls == (Control(q(0), 1),)
    assert set(c.qubit for c in seq[1].controls) == {1, 2}


def test_swap_with_many_controls_keeps_outer_cx():
    controls = tuple(Control(q(b), 1) for b in (2, 3, 4))
    seq = swap_gates(Control(q(0), 1), Control(q(1), 1), controls)
    assert [primitive_class(g) for g in seq] == ["CX", "C4X", "CX"]


def test_swap_lowering_preserves_semantics():
    # the triple exchanges qubits 0 and 1 of every basis state where qubit 2 is 1
    c = Circuit([("q", 1, 3)]).extend(swap_gates(Control(q(0), 1), Control(q(1), 1), (Control(q(2), 1),)))
    for k in range(8):
        swapped = k ^ 0b011 if k >> 2 and (k ^ (k >> 1)) & 1 else k
        assert abs(run(c, k)[swapped] - 1.0) < 1e-12


def test_eliminate_negative_single():
    seq = eliminate_negative_controls(Gate("X", None, q(0), (Control(q(1), 0),)))
    assert [g.primitive for g in seq] == ["X", "X", "X"]
    assert seq[1].controls == (Control(q(1), 1),)


def test_eliminate_all_positive_unchanged():
    gate = Gate("X", None, q(0), (Control(q(1), 1),))
    assert eliminate_negative_controls(gate) == [gate]


def test_eliminate_pattern_two_bits():
    # required value 10b on qubits (1, 2): X pair only on the 0-valued bit 1
    gate = Gate("X", None, q(0), (Control(q(1), 0), Control(q(2), 1)))
    seq = eliminate_negative_controls(gate)
    assert len(seq) == 3
    assert seq[0].target == seq[2].target == 1
    assert all(c.value == 1 for c in seq[1].controls)


def test_eliminate_length_accounting():
    gate = Gate("X", None, q(0), (Control(q(1), 0), Control(q(2), 0), Control(q(3), 1)))
    assert len(eliminate_negative_controls(gate)) == 1 + 2 * 2


def test_toffoli_truth_table():
    c = Circuit([("q", 1, 3)])
    c.extend(lower_toffoli(mcx_gate(2, 2, [0, 1])))
    # |110> (bits 0,1 set) flips the target; |100> does not
    state = run(c, 0b011)
    assert abs(abs(state[0b111]) - 1.0) < 1e-12
    state = run(c, 0b001)
    assert abs(abs(state[0b001]) - 1.0) < 1e-12


def test_toffoli_matrix_up_to_global_phase():
    # the dense oracle applies the network gate by gate, so the phase it reads
    # does not come from TOFFOLI_PHASE; run applies the network as one Toffoli
    c = Circuit([("q", 1, 3)])
    c.extend(lower_toffoli(mcx_gate(2, 2, [0, 1])))
    want = np.zeros((8, 8))
    for k, out in enumerate(cmx_truth(3, 2, 2)):
        want[out, k] = 1.0
    for simulate in (dense_run, run):
        got = np.column_stack([simulate(c, k) for k in range(8)])
        phase = got[np.nonzero(want)][0]
        assert abs(phase - TOFFOLI_PHASE) < 1e-12
        assert np.max(np.abs(got / phase - want)) < 1e-12


def test_toffoli_phase_is_bitwise_exp_of_minus_i_pi_over_8():
    # TOFFOLI_PHASE is written with math's cos and sin; a platform whose
    # parts differ from cmath.exp's in the last bit must fail here
    want = cmath.exp(-1j * math.pi / 8)
    assert (TOFFOLI_PHASE.real.hex(), TOFFOLI_PHASE.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_toffoli_gate_budget():
    seq = lower_toffoli(mcx_gate(2, 2, [0, 1]))
    counts = primitive_multiset(Circuit([("q", 1, 3)]).extend(seq))
    assert counts == {"CX": 6, "H": 2, "RZ": 7}


def test_toffoli_rejects_negative_controls():
    with pytest.raises(ValueError):
        lower_toffoli(mcx_gate(2, 2, [0, 1], [1, 0]))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_borrowed_mcx_exhaustive(m):
    nq = 2 * m - 1
    gate = mcx_gate(m, m, range(m))
    idle = [q(b) for b in range(m + 1, nq)]
    seq = lower_mcx(gate, "borrowed", idle)
    assert len(seq) == 4 * (m - 2)
    c = Circuit([("q", 1, nq)]).extend(seq)
    # all borrowed-qubit basis values restored, target flipped iff controls set
    assert apply_to_all_basis(c, nq) == cmx_truth(nq, m, m)


def test_borrowed_m3_single_cases():
    gate = mcx_gate(3, 3, [0, 1, 2])
    c = Circuit([("q", 1, 5)]).extend(lower_mcx(gate, "borrowed", [q(4)]))
    # all controls set, borrowed qubit initially 1: target flips, borrow kept
    state = run(c, 0b10111)
    assert abs(abs(state[0b11111]) - 1.0) < 1e-12
    # one control 0: identity
    state = run(c, 0b10011)
    assert abs(abs(state[0b10011]) - 1.0) < 1e-12


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_clean_mcx_exhaustive(m):
    nq = 2 * m - 1
    gate = mcx_gate(m, m, range(m))
    idle = [q(b) for b in range(m + 1, nq)]
    seq = lower_mcx(gate, "clean", idle)
    assert len(seq) == 2 * (m - 1)
    c = Circuit([("q", 1, nq)]).extend(seq)
    mask = (1 << m) - 1
    for k in range(1 << (m + 1)):  # ancillas start and must end at zero
        state = run(c, k)
        out = int(np.argmax(np.abs(state)))
        assert abs(abs(state[out]) - 1.0) < 1e-12
        assert out == (k ^ (1 << m) if (k & mask) == mask else k)


def test_mcx_insufficient_idle_qubits():
    gate = mcx_gate(3, 3, [0, 1, 2])
    with pytest.raises(ValueError, match="idle"):
        lower_mcx(gate, "borrowed", [])


def test_mcx_rejects_small_arity_and_bad_mode():
    with pytest.raises(ValueError):
        lower_mcx(mcx_gate(2, 2, [0, 1]), "borrowed", [q(3)])
    with pytest.raises(ValueError):
        lower_mcx(mcx_gate(3, 3, [0, 1, 2]), "abstract", [q(4)])


def test_lower_circuit_counting_is_identity_on_primitives():
    c = Circuit([("q", 1, 2)])
    c.extend([Gate("H", None, q(0)), Gate("X", None, q(1), (Control(q(0), 1),))])
    lowered = lower_circuit(c, "counting")
    assert lowered.gates == c.gates


def test_lower_circuit_full_needs_enough_qubits():
    c = Circuit([("q", 1, 4)])
    c.extend([mcx_gate(3, 3, [0, 1, 2])])
    with pytest.raises(ValueError, match="idle"):
        lower_circuit(c, "full", "borrowed")


def test_lower_circuit_full_equivalence_with_negatives():
    # value-controlled gate with a 0 bit: full lowering inserts the X pairs
    c = Circuit([("q", 1, 5)])
    c.extend([*(Gate("H", None, q(b)) for b in range(3)), mcx_gate(3, 3, [0, 1, 2], [1, 0, 1])])
    # the CH fills of the uniform prep carry single negative controls
    shuffle = build(BuildSpec("A", 4))
    for circuit in (c, shuffle):
        for mode in ("borrowed", "clean"):
            lowered = lower_circuit(circuit, "full", mode)
            assert all(primitive_class(g) in ("X", "CX", "H", "CH", "RY", "CRY", "RZ")
                       for g in lowered.gates)
            assert all(ctl.value == 1 for g in lowered.gates for ctl in g.controls)
            assert states_equal_up_to_phase(run(circuit), run(lowered), 1e-10)


@pytest.mark.parametrize("m,mode", [
    (3, "borrowed"), (3, "clean"), (4, "borrowed"),
    pytest.param(4, "clean", marks=pytest.mark.xfail(
        strict=True, reason="clean-mode MCX lowering borrows idle qubits that are not |0>")),
])
def test_lower_circuit_full_with_an_idle_qubit_in_one(m, mode):
    # q0 is the first idle qubit, and an X leaves it in |1>; a clean C^mX
    # helper must start in |0> once m >= 4 (for m = 3 its one toggle block
    # works from any helper state)
    c = Circuit([("q", 1, 7)])
    controls = range(6 - m, 6)
    c.extend([Gate("X", None, q(0)), *(Gate("H", None, q(b)) for b in controls), mcx_gate(m, 6, controls)])
    assert states_equal_up_to_phase(run(c), run(lower_circuit(c, "full", mode)), 1e-10)



def _reference_full(circuit, mode):
    """Full lowering that offers every idle qubit of the circuit to each MCX."""
    out = Circuit(circuit.registers, circuit.metadata)
    for gate in circuit.gates:
        for h in eliminate_negative_controls(gate):
            if h.primitive != "X" or len(h.controls) < 2:
                out.extend([h])
            elif len(h.controls) == 2:
                out.extend(lower_toffoli(h))
            else:
                support = set(out.gate_qubits(h))
                idle = [b for b in range(out.num_qubits) if b not in support]
                for toffoli in lower_mcx(h, mode, idle):
                    out.extend(lower_toffoli(toffoli))
    return out


@pytest.mark.parametrize("spec", [BuildSpec("A", 5), BuildSpec("Bt", 3, 2, "onehot"),
                                  BuildSpec("C", 5, 1)], ids=["A-n5", "Bt-n3-m2-onehot", "C-n5-m1"])
@pytest.mark.parametrize("mode", ["borrowed", "clean"])
def test_full_lowering_helpers_are_the_first_idle_qubits(spec, mode):
    # the helpers of each C^mX are the first m-2 qubits it does not touch, in
    # ascending order: the lowered circuit is gate for gate the same
    circuit = build(spec)
    assert lower_circuit(circuit, "full", mode).gates == _reference_full(circuit, mode).gates


@given(st.sampled_from(VARIANTS), st.sampled_from(ENCODINGS), st.integers(1, 6),
       st.integers(1, 2), st.sampled_from(["borrowed", "clean"]))
@settings(max_examples=40, deadline=None)
def test_memoised_full_lowering_equals_the_reference_random(variant, encoding, n, m, mode):
    spec = BuildSpec(variant, n, m if variant in ("B", "Bt", "C") else None, encoding)
    circuit = build(spec)
    assert lower_circuit(circuit, "full", mode).gates == _reference_full(circuit, mode).gates


@pytest.mark.parametrize("mode", ["borrowed", "clean"])
def test_equal_lowered_gates_are_one_object(monkeypatch, mode):
    # repeated Toffoli networks, flips and pass-through gates are shared, and
    # each shared object is checked once
    circuit = build(BuildSpec("A", 8))
    checked = []
    check = Circuit.check
    monkeypatch.setattr(Circuit, "check", lambda self, g: checked.append(g) or check(self, g))
    gates = lower_circuit(circuit, "full", mode).gates
    objects = {id(g): g for g in gates}
    assert len(objects) == len(set(gates)) < len(gates) // 20
    assert len(checked) == len(objects)


@pytest.mark.parametrize("level", ["counting", "full"])
def test_hash_consing_keeps_equal_angles_of_another_repr_apart(level):
    # -0.0 == 0.0 and 1 == 1.0: sharing by angle value would write one's text for the other
    c = Circuit([("q", 1, 1)]).extend([Gate("RZ", a, q(0)) for a in (-0.0, 0.0, 1, 1.0, -0.0)])
    assert [repr(g.angle) for g in lower_circuit(c, level).gates] == ["-0.0", "0.0", "1", "1.0", "-0.0"]


def test_lower_circuit_rejects_unknown_level():
    with pytest.raises(ValueError):
        lower_circuit(Circuit([("q", 1, 1)]), "half")


@pytest.mark.parametrize("level", ["counting", "full"])
def test_lower_circuit_rejects_unknown_mcx_mode_without_a_multi_controlled_x(level):
    # A n=2 has no X with 3 controls, so lower_mcx never sees the mode
    with pytest.raises(ValueError, match="unknown mcx mode 'bogus'"):
        lower_circuit(build(BuildSpec("A", 2)), level, "bogus")
