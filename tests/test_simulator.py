"""Sparse branch simulator and its dense oracle: gate action, caps, determinism,
decoding, sampling."""

import cmath
import tracemalloc
from math import sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    assert_register_disentangled,
    branch_table,
    dense_evolve,
    dense_run,
    evolve,
    initial_state,
    norm_squared,
    run,
    sample,
    states_equal_up_to_phase,
)
from qshuffle import simulator
from qshuffle.builders import BuildSpec, build
from qshuffle.circuit import Circuit, Control, Gate, gate_h, gate_ry, gate_rz, gate_swap, gate_x
from qshuffle.simulator import SimulationCapExceeded

TOL = 1e-10


def q(bit):  # one register "q": bit b is global qubit b
    return bit


def test_apply_h_on_zero():
    state = run(Circuit([("q", 1, 1)]).append(gate_h(q(0))))
    assert np.allclose(state, [1 / sqrt(2), 1 / sqrt(2)])


def test_apply_negative_control_fires_on_zero():
    # control q1 required 0, target q0: |00> -> |01>
    state = run(Circuit([("q", 1, 2)]).append(gate_x(q(0), (Control(q(1), 0),))))
    assert abs(state[0b01] - 1.0) < TOL


def test_apply_positive_control_idle_on_zero():
    state = run(Circuit([("q", 1, 2)]).append(gate_x(q(0), (Control(q(1), 1),))))
    assert abs(state[0] - 1.0) < TOL


def test_apply_ry_pi():
    state = run(Circuit([("q", 1, 1)]).append(gate_ry(np.pi, q(0))))
    assert abs(abs(state[1]) - 1.0) < TOL


def test_apply_swap():
    state = run(Circuit([("q", 1, 2)]).append(gate_swap(q(0), q(1))), 0b01)
    assert abs(state[0b10] - 1.0) < TOL


def test_apply_is_pure():
    c = Circuit([("q", 1, 1)]).append(gate_x(q(0)))
    state = initial_state(c)
    run(c, state)
    assert state[0] == 1.0


def test_run_empty_circuit():
    c = Circuit([("q", 1, 2)])
    assert np.array_equal(run(c), [1, 0, 0, 0])


def test_run_a2_branches():
    c = build(BuildSpec("A", 2))
    state = run(c)
    rows = branch_table(state, c)
    got = {(tuple(regs["perm"]), tuple(regs["anc"])): amp for regs, amp in rows}
    assert set(got) == {((0, 1), (0,)), ((1, 0), (0,))}
    assert all(abs(amp - 1 / sqrt(2)) < TOL for amp in got.values())


def test_run_a3_uniform():
    c = build(BuildSpec("A", 3))
    rows = branch_table(run(c), c)
    assert len(rows) == 6
    assert max(abs(abs(a) - 1 / sqrt(6)) for _, a in rows) < TOL


def test_initial_state_register_values():
    c = Circuit([("d", 2, 2), ("a", 1, 1)])
    state = initial_state(c, {"d": [2, 1]})
    assert abs(state[0b0110] - 1.0) < TOL  # d0=2 (bits 1), d1=1 (bit 2)


def test_disentangled_plus_zero():
    c = Circuit([("a", 1, 1), ("b", 1, 1)])
    c.append(gate_h(c.qubit("a", 0, 0)))
    state = run(c)
    ok, leak = assert_register_disentangled(state, c, "b")
    assert ok and leak == 0.0


def test_entangled_register_reports_leakage():
    c = build(BuildSpec("At", 3))
    state = run(c)
    ok, leak = assert_register_disentangled(state, c, "anc2")
    assert not ok
    assert leak > 0.3  # most of the mass sits on nonzero draws


def test_branch_table_zero_state():
    c = Circuit([("q", 1, 2)])
    rows = branch_table(initial_state(c), c)
    assert rows == [({"q": [0]}, 1 + 0j)]


def test_branch_table_c_n2():
    c = build(BuildSpec("C", 2, 1))
    state = run(c, {"data": [0, 1]})
    rows = branch_table(state, c)
    data = sorted(tuple(regs["data"]) for regs, _ in rows)
    assert data == [(0, 1), (1, 0)]
    assert all(abs(abs(a) - 1 / sqrt(2)) < TOL for _, a in rows)


def test_sample_deterministic_and_pure():
    c = Circuit([("q", 1, 2)])
    c.append(gate_x(q(1)))
    state = run(c)
    hist = sample(state, 250, seed=5, circuit=c)
    assert hist == {(2,): 250}
    state2 = run(build(BuildSpec("A", 3)))
    c2 = build(BuildSpec("A", 3))
    assert sample(state2, 1000, 11, c2, "perm") == sample(state2, 1000, 11, c2, "perm")


def test_norm_preserved_through_builds():
    for spec in (BuildSpec("A", 3), BuildSpec("Bt", 2, 2), BuildSpec("C", 3, 1)):
        for state in evolve(build(spec)):  # the start state and the state after every gate
            assert abs(norm_squared(state) - 1.0) < TOL


def test_simulation_cap():
    c = Circuit([("q", 1, 64)])  # basis indices are int64
    with pytest.raises(SimulationCapExceeded):
        run(c)
    top = Circuit([("q", 1, 63)]).append(gate_x(q(62)))
    indices, amplitudes = simulator.run(top)
    assert indices.tolist() == [1 << 62] and amplitudes.tolist() == [1.0]


def test_branch_cap_stops_a_wide_superposition():
    # H on each of 21 qubits would make 2^21 > MAX_BRANCHES branches: the
    # guard trips after the 20th H, with no more than a few branch-sized arrays
    c = Circuit([("q", 1, 21)])
    for k in range(21):
        c.append(gate_h(q(k)))
    tracemalloc.start()
    try:
        with pytest.raises(SimulationCapExceeded, match="branches exceed"):
            simulator.run(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * simulator.MAX_BRANCHES * 24  # 24 bytes a branch: int64 index + complex128


def test_states_equal_up_to_phase():
    a = np.array([1, 1], dtype=complex) / sqrt(2)
    assert states_equal_up_to_phase(a, a * np.exp(0.7j))
    assert not states_equal_up_to_phase(a, np.array([1, 0], dtype=complex))


def test_sampling_matches_classical_shuffle_n3():
    from collections import Counter

    from scipy.stats import chi2

    from qshuffle.permutations import sample_fisher_yates

    shots = 100000
    circuit = build(BuildSpec("A", 3))
    quantum = sample(run(circuit), shots, seed=13, circuit=circuit, register="perm")
    rng = np.random.default_rng(14)
    classical = Counter(sample_fisher_yates(3, rng) for _ in range(shots))
    keys = sorted(set(quantum) | set(classical))
    o1 = np.array([quantum.get(k, 0) for k in keys], dtype=float)
    o2 = np.array([classical.get(k, 0) for k in keys], dtype=float)
    totals = o1 + o2
    stat = float(
        (((o1 - totals / 2) ** 2) / (totals / 2)).sum()
        + (((o2 - totals / 2) ** 2) / (totals / 2)).sum()
    )
    assert chi2.sf(stat, len(keys) - 1) > 1e-3


@given(st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=64, deadline=None)
def test_value_controlled_gate_fires_iff_register_matches(stored, required):
    # an X value-controlled on a 3-bit register flips its target exactly on
    # the matching basis value
    from qshuffle.circuit import gate_x as gx, value_controls

    c = Circuit([("a", 1, 3), ("t", 1, 1)])
    c.append(gx(c.qubit("t", 0, 0), value_controls(c.register_qubits("a"), required)))
    state = run(c, {"a": [stored]})
    rows = branch_table(state, c)
    assert len(rows) == 1
    (regs, amp) = rows[0]
    assert regs["t"] == [1 if stored == required else 0]
    assert abs(abs(amp) - 1.0) < TOL


@given(st.integers(0, 2 ** 6 - 1), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_exact_multicontrol_matches_lowered_swap(basis, control_pattern):
    # SWAP with exact value controls vs its 3-gate lowering, random basis states
    from qshuffle.lowering import lower_controlled_swap

    c1 = Circuit([("q", 1, 6)])
    controls = (Control(q(4), control_pattern & 1), Control(q(5), (control_pattern >> 1) & 1))
    c1.append(gate_swap(q(0), q(1), controls))
    c2 = Circuit([("q", 1, 6)])
    c2.extend(lower_controlled_swap(gate_swap(q(0), q(1), controls)))
    assert states_equal_up_to_phase(run(c1, basis), run(c2, basis))


def _reference_matrix(primitive, angle):
    if primitive in ("X", "SWAP"):
        return ((0, 1), (1, 0))
    if primitive == "H":
        return ((1 / sqrt(2), 1 / sqrt(2)), (1 / sqrt(2), -1 / sqrt(2)))
    if primitive == "RY":
        return ((cmath.cos(angle / 2), -cmath.sin(angle / 2)), (cmath.sin(angle / 2), cmath.cos(angle / 2)))
    return ((cmath.exp(-0.5j * angle), 0), (0, cmath.exp(0.5j * angle)))  # RZ


def _reference_apply(amps, primitive, angle, targets, controls):
    """Per basis index: where every control holds its value, the index pairs
    with the one its gate flips (target bit, or both SWAP bits when they
    differ) and takes that row of the gate's 2x2 matrix."""
    m = _reference_matrix(primitive, angle)
    out = list(amps)
    for i in range(len(amps)):
        if any((i >> q) & 1 != v for q, v in controls):
            continue
        if primitive == "SWAP":
            t0, t1 = targets
            if (i >> t0) & 1 == (i >> t1) & 1:
                continue
            bit, partner = (i >> t0) & 1, i ^ (1 << t0) ^ (1 << t1)
        else:
            bit, partner = (i >> targets[0]) & 1, i ^ (1 << targets[0])
        out[i] = m[bit][bit] * amps[i] + m[bit][1 - bit] * amps[partner]
    return out


@st.composite
def one_gate_cases(draw):
    n = draw(st.integers(1, 5))
    primitive = draw(st.sampled_from(("X", "H", "RY", "RZ", "SWAP") if n >= 2 else ("X", "H", "RY", "RZ")))
    width = 2 if primitive == "SWAP" else 1
    qubits = draw(st.permutations(range(n)))
    targets = tuple(qubits[:width])
    num_controls = draw(st.integers(0, min(2, n - width)))
    controls = tuple((q, draw(st.integers(0, 1))) for q in qubits[width:width + num_controls])
    angle = draw(st.floats(-2 * np.pi, 2 * np.pi)) if primitive in ("RY", "RZ") else None
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 << n, max_size=2 << n))
    amps = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
    norm = sqrt(sum(abs(a) ** 2 for a in amps))
    assume(norm > 1e-3)
    return n, primitive, angle, targets, controls, [a / norm for a in amps]


@given(one_gate_cases())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_per_index_reference(case):
    n, primitive, angle, targets, controls, amps = case
    c = Circuit([("q", 1, n)])
    refs = tuple(q(t) for t in targets)
    c.append(Gate(primitive, angle, refs, tuple(Control(q(k), v) for k, v in controls)))
    got = dense_run(c, np.array(amps))
    want = _reference_apply(amps, primitive, angle, targets, controls)
    assert np.max(np.abs(got - np.array(want))) < 1e-12


@pytest.mark.parametrize("block_bits", [1, 3, oracles.BLOCK_BITS])
def test_kernel_reuses_scratch_across_gate_sizes(monkeypatch, block_bits):
    # every primitive with 0-2 controls in turn, so each gate's temporaries
    # reuse scratch that a larger or smaller gate wrote just before; small
    # blocks split the 8-qubit state the way 2^14-amplitude ones split a wide one
    monkeypatch.setattr(oracles, "BLOCK_BITS", block_bits)
    n = 8
    rng = np.random.default_rng(5)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    cases = [("H", None, (3,), ()), ("X", None, (0,), ((7, 1), (2, 0))), ("RY", 0.7, (7,), ((1, 1),)),
             ("SWAP", None, (1, 6), ()), ("RZ", -1.3, (2,), ((0, 0),)), ("H", None, (5,), ((4, 1), (3, 1))),
             ("X", None, (4,), ()), ("RY", 2.1, (0,), ()), ("SWAP", None, (2, 5), ((7, 0),))]
    c = Circuit([("q", 1, n)])
    for primitive, angle, targets, controls in cases:
        c.append(Gate(primitive, angle, tuple(q(t) for t in targets),
                      tuple(Control(q(k), v) for k, v in controls)))
    states = dense_evolve(c, amps)
    want = list(next(states))
    for (primitive, angle, targets, controls), got in zip(cases, states):
        want = _reference_apply(want, primitive, angle, targets, controls)
        assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_gate_loop_allocates_no_state_sized_memory():
    # the scratch array exists before the first yield; what the gates still
    # allocate is numpy's fixed-size ufunc buffers, far below a quarter state
    c = Circuit([("q", 1, 18)])
    c.append(gate_h(q(1))).append(gate_x(q(7), (Control(q(9), 1),))).append(gate_ry(0.4, q(12)))
    c.append(gate_rz(0.9, q(4))).append(gate_swap(q(2), q(3))).append(gate_x(q(0)))
    states = dense_evolve(c)
    state = next(states)
    tracemalloc.start()
    try:
        for _ in states:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < state.nbytes // 4


@st.composite
def random_circuits(draw):
    n = draw(st.integers(1, 8))
    primitives = ("X", "H", "RY", "RZ", "SWAP") if n >= 2 else ("X", "H", "RY", "RZ")
    c = Circuit([("q", 1, n)])
    for _ in range(draw(st.integers(0, 30))):
        primitive = draw(st.sampled_from(primitives))
        width = 2 if primitive == "SWAP" else 1
        qubits = draw(st.permutations(range(n)))
        num_controls = draw(st.integers(0, min(2, n - width)))
        controls = tuple(Control(q(k), draw(st.integers(0, 1))) for k in qubits[width:width + num_controls])
        angle = draw(st.floats(-2 * np.pi, 2 * np.pi)) if primitive in ("RY", "RZ") else None
        c.append(Gate(primitive, angle, tuple(q(t) for t in qubits[:width]), controls))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps[rng.random(1 << n) < draw(st.sampled_from((0.0, 0.5, 0.9)))] = 0.0  # some sparse starts
    assume(np.any(amps))
    return c, amps / np.linalg.norm(amps)


@given(random_circuits())
@settings(max_examples=200, deadline=None)
def test_sparse_matches_dense_oracle(case):
    # gate by gate from the same state: the sparse backend may differ from the
    # dense kernel only by an amplitude of at most BRANCH_TOL that it drops
    # (over a whole circuit, dropped amplitudes that later mix can add up past 1e-12)
    c, amps = case
    states = evolve(c, amps)  # the sparse simulator, densified
    before = next(states)
    assert np.array_equal(before, amps)
    for gate, after in zip(c.gates, states):
        want = dense_run(Circuit([("q", 1, c.num_qubits)]).append(gate), before)
        assert np.max(np.abs(after - want)) <= 1e-12
        before = after


def test_norm_squared_builds_no_list_of_the_state():
    # two half-sized temporaries at most; a Python list of the magnitudes
    # peaked at 2.5 times the state
    state = initial_state(Circuit([("q", 1, 18)]))
    tracemalloc.start()
    try:
        assert norm_squared(state) == 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * state.nbytes // 2
