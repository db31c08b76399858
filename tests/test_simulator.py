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
    sample_fisher_yates,
    states_equal_up_to_phase,
)
from qshuffle import simulator
from qshuffle.builders import BuildSpec, build
from qshuffle.circuit import Circuit, Control, Gate
from qshuffle.lowering import (
    TOFFOLI_PHASE,
    eliminate_negative_controls,
    lower_circuit,
    lower_toffoli,
    swap_at,
    swap_gates,
    toffoli_at,
)
from qshuffle.simulator import SimulationCapExceeded

TOL = 1e-10


def q(bit):  # one register "q": bit b is global qubit b
    return bit


def test_apply_h_on_zero():
    state = run(Circuit([("q", 1, 1)]).extend([Gate("H", None, q(0))]))
    assert np.allclose(state, [1 / sqrt(2), 1 / sqrt(2)])


def test_apply_negative_control_fires_on_zero():
    # control q1 required 0, target q0: |00> -> |01>
    state = run(Circuit([("q", 1, 2)]).extend([Gate("X", None, q(0), (Control(q(1), 0),))]))
    assert abs(state[0b01] - 1.0) < TOL


def test_apply_positive_control_idle_on_zero():
    state = run(Circuit([("q", 1, 2)]).extend([Gate("X", None, q(0), (Control(q(1), 1),))]))
    assert abs(state[0] - 1.0) < TOL


def test_apply_ry_pi():
    state = run(Circuit([("q", 1, 1)]).extend([Gate("RY", np.pi, q(0))]))
    assert abs(abs(state[1]) - 1.0) < TOL


def test_apply_swap():
    state = run(Circuit([("q", 1, 2)]).extend(swap_gates(Control(q(0), 1), Control(q(1), 1), ())), 0b01)
    assert abs(state[0b10] - 1.0) < TOL


def test_apply_is_pure():
    c = Circuit([("q", 1, 1)]).extend([Gate("X", None, q(0))])
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


@pytest.mark.parametrize("start, message", [
    (2.0, "start 2.0 is not a basis index"), ([1, 2], r"start \[1, 2\] is not a basis index"),
    ("3", "start '3' is not a basis index"),
    ({"data": [0.5, 0, 0]}, "value 0.5 does not fit register 'data'"),
    ({"data": [1.0, 0, 0]}, "value 1.0 does not fit register 'data'"),
    ({"data": 5}, "register 'data' needs a list of 3 values, got 5"),
    (([0.5], [1.0]), r"basis indices \[0.5\] are not integers"),
    (True, "start True is not a basis index"),
    ({"data": [True, 0, 0]}, "value True does not fit register 'data'"),
    (([0], [float("nan")]), r"start \(\[0\], \[nan\]\) is not 1-d indices and finite amplitudes"),
    (([0], [float("inf")]), r"start \(\[0\], \[inf\]\) is not 1-d indices and finite amplitudes"),
    (([1, [2]], [1.0, 1.0]), r"start \(\[1, \[2\]\], \[1.0, 1.0\]\) is not 1-d indices"),
    (([0], ["1"]), r"start \(\[0\], \['1'\]\) is not 1-d indices and finite amplitudes"),
    (([0], [True]), r"start \(\[0\], \[True\]\) is not 1-d indices and finite amplitudes"),
    (([0], [b"1"]), r"start \(\[0\], \[b'1'\]\) is not 1-d indices and finite amplitudes"),
])
def test_bad_start_raises_value_error_naming_it(start, message):
    c = build(BuildSpec("B", 3, 1))
    with pytest.raises(ValueError, match=message):
        simulator.run(c, start)


@pytest.mark.parametrize("start, indices", [
    (([], []), []), ((np.zeros(0, dtype=np.int64), np.zeros(0)), []), (np.int64(5), [5]),
    ((np.array([5, 1], dtype=np.uint8), [0.6, 0.8]), [5, 1]), ({"data": [np.int8(1), 0, np.int64(1)]}, [5]),
])
def test_empty_and_numpy_integer_starts_are_taken(start, indices):
    assert simulator.initial_state(build(BuildSpec("B", 3, 1)), start)[0].tolist() == indices


def test_disentangled_plus_zero():
    c = Circuit([("a", 1, 1), ("b", 1, 1)])
    c.extend([Gate("H", None, c.qubit("a", 0, 0))])
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
    c.extend([Gate("X", None, q(1))])
    state = run(c)
    hist = sample(state, 250, seed=5, circuit=c)
    assert hist == {(2,): 250}
    assert simulator.sample(simulator.run(c), 250, 5) == {0b10: 250}  # keyed by basis index
    state2 = run(build(BuildSpec("A", 3)))
    c2 = build(BuildSpec("A", 3))
    assert sample(state2, 1000, 11, c2, "perm") == sample(state2, 1000, 11, c2, "perm")


def test_norm_preserved_through_builds():
    for spec in (BuildSpec("A", 3), BuildSpec("Bt", 2, 2), BuildSpec("C", 3, 1)):
        for _, state in evolve(build(spec)):  # the start state and the state after every step
            assert abs(norm_squared(state) - 1.0) < TOL


def test_simulation_cap():
    c = Circuit([("q", 1, 64)])  # basis indices are int64
    with pytest.raises(SimulationCapExceeded):
        run(c)
    top = Circuit([("q", 1, 63)]).extend([Gate("X", None, q(62))])
    indices, amplitudes = simulator.run(top)
    assert indices.tolist() == [1 << 62] and amplitudes.tolist() == [1.0]


def test_branch_cap_stops_a_wide_superposition():
    # H on each of 21 qubits would make 2^21 > MAX_BRANCHES branches: the
    # guard trips after the 20th H, with no more than a few branch-sized arrays;
    # with X flips after each H too, since an H that starts no Toffoli network
    # goes through the per-gate kernel and its guard
    for flips in (0, 4):
        c = Circuit([("q", 1, 21)])
        c.extend(g for k in range(21) for g in [Gate("H", None, q(k))] + [Gate("X", None, q(k))] * flips)
        tracemalloc.start()
        try:
            with pytest.raises(SimulationCapExceeded, match="branches exceed"):
                simulator.run(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * simulator.MAX_BRANCHES * 24  # 24 bytes a branch: int64 index + complex128


def test_run_gives_the_gate_by_gate_branch_table_on_full_a5_clean():
    # the fully lowered A n=5 in clean mode is a wrong build whose exact branch
    # set a benchmark pins; applying its Toffoli networks as Toffolis must keep
    # every branch of a run that applies its gates one at a time (a one-gate
    # circuit holds no network)
    c = lower_circuit(build(BuildSpec("A", 5)), "full", "clean")
    whole = simulator.branch_table(simulator.run(c), c)
    state = None
    for gate in c.gates:
        state = simulator.run(Circuit(c.registers).extend([gate]), state)
    per_gate = simulator.branch_table(state, c)
    assert [regs for regs, _ in whole] == [regs for regs, _ in per_gate] and len(whole) == 120
    assert max(abs(a - b) for (_, a), (_, b) in zip(whole, per_gate)) < 1e-12


_TOFFOLI = Gate("X", None, q(2), (Control(q(0), 1), Control(q(1), 1)))
_NETWORK = lower_toffoli(_TOFFOLI)


def _near_networks():
    """(name, gates): the network of _TOFFOLI with one gate changed (a negated
    angle, its target moved to the idle qubit 3, a flipped control value),
    or cut short at the circuit's end.  None of them is a Toffoli network."""
    for k, g in enumerate(_NETWORK):
        changed = [("qubit", g._replace(target=q(3)))]
        if g.angle is not None:
            changed.append(("angle", g._replace(angle=-g.angle)))
        if g.controls:
            changed.append(("control", g._replace(controls=(g.controls[0]._replace(value=0),))))
        for kind, h in changed:
            yield f"{k}-{kind}", _NETWORK[:k] + [h] + _NETWORK[k + 1:]
    yield "cut", [Gate("X", None, q(3))] + _NETWORK[:-1]


def _run_against_dense(gates):
    c = Circuit([("q", 1, 4)]).extend(gates)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    assert np.max(np.abs(run(c, amps) - dense_run(c, amps))) <= 1e-12 * len(c.gates)
    return c


@pytest.mark.parametrize("gates", [pytest.param(gates, id=name) for name, gates in _near_networks()])
def test_run_applies_only_exact_toffoli_networks_as_toffolis(gates):
    c = _run_against_dense(gates)
    assert [toffoli_at(c.gates, i) for i in range(len(c.gates))] == [None] * len(c.gates)


def test_run_applies_an_exact_toffoli_network_as_its_toffoli_and_phase():
    c = _run_against_dense(_NETWORK)
    assert toffoli_at(c.gates, 0) == _TOFFOLI
    assert np.allclose(run(c, 0b011), TOFFOLI_PHASE * np.eye(16)[0b111], rtol=0, atol=1e-15)


_SWAP = list(swap_gates(Control(q(0), 1), Control(q(1), 1), (Control(q(2), 0),)))


def _near_swaps():
    """(name, gates): the swap triple of qubits 0 and 1 under q2 = 0 with one
    gate changed (its target moved to the idle qubit 3, or the value of its
    control on qubit 0 or 1 flipped), or cut short at the circuit's end.  None
    of them is a swap triple."""
    for k, g in enumerate(_SWAP):
        flipped = tuple(c._replace(value=1 - c.value) if c.qubit in (q(0), q(1)) else c for c in g.controls)
        for kind, h in (("qubit", g._replace(target=q(3))), ("control", g._replace(controls=flipped))):
            yield f"{k}-{kind}", _SWAP[:k] + [h] + _SWAP[k + 1:]
    yield "cut", [Gate("X", None, q(3))] + _SWAP[:-1]


@pytest.mark.parametrize("gates", [pytest.param(gates, id=name) for name, gates in _near_swaps()])
def test_run_applies_only_exact_swap_triples_as_swaps(gates):
    c = _run_against_dense(gates)
    assert [swap_at(c.gates, i) for i in range(len(c.gates))] == [None] * len(c.gates)


def test_run_applies_an_exact_swap_triple_as_one_swap():
    c = _run_against_dense(_SWAP)
    assert swap_at(c.gates, 0) == (q(0), q(1), (Control(q(2), 0),))
    assert [k for k, _ in simulator.evolve(c)] == [0, 3]


def test_states_equal_up_to_phase():
    a = np.array([1, 1], dtype=complex) / sqrt(2)
    assert states_equal_up_to_phase(a, a * np.exp(0.7j))
    assert not states_equal_up_to_phase(a, np.array([1, 0], dtype=complex))


def test_sampling_matches_classical_shuffle_n3():
    from collections import Counter

    from scipy.stats import chi2

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
    from qshuffle.circuit import value_controls

    c = Circuit([("a", 1, 3), ("t", 1, 1)])
    c.extend([Gate("X", None, c.qubit("t", 0, 0), value_controls(c.register_qubits("a"), required))])
    state = run(c, {"a": [stored]})
    rows = branch_table(state, c)
    assert len(rows) == 1
    (regs, amp) = rows[0]
    assert regs["t"] == [1 if stored == required else 0]
    assert abs(abs(amp) - 1.0) < TOL


@given(st.integers(0, 2 ** 6 - 1), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_exact_multicontrol_matches_lowered_swap(basis, control_pattern):
    # a SWAP with exact value controls as its gate triple vs that triple
    # lowered to elementary gates (q2, q3 idle), random basis states
    c1 = Circuit([("q", 1, 6)])
    controls = (Control(q(4), control_pattern & 1), Control(q(5), (control_pattern >> 1) & 1))
    c1.extend(swap_gates(Control(q(0), 1), Control(q(1), 1), controls))
    c2 = lower_circuit(c1, "full", "borrowed")
    assert max(len(g.controls) for g in c2.gates) == 1
    assert states_equal_up_to_phase(run(c1, basis), run(c2, basis))


@st.composite
def swap_records(draw):
    n = draw(st.integers(2, 6))
    qubits = draw(st.permutations(range(n)))
    controls = [(k, draw(st.integers(0, 1))) for k in qubits[2:2 + draw(st.integers(0, n - 2))]]
    return n, qubits[0], qubits[1], controls, draw(st.integers(0, (1 << n) - 1))


@given(swap_records())
@settings(max_examples=200, deadline=None)
def test_swap_record_exchanges_bits_where_controls_hold(case):
    # a swap_gates triple under mixed-polarity controls exchanges bits a and b
    # of a basis index exactly where every control holds its value
    n, a, b, controls, basis = case
    triple = swap_gates(Control(a, 1), Control(b, 1), tuple(Control(k, v) for k, v in controls))
    want = basis
    if all((basis >> k) & 1 == v for k, v in controls) and (basis >> a) & 1 != (basis >> b) & 1:
        want = basis ^ (1 << a) ^ (1 << b)
    indices, amplitudes = simulator.run(Circuit([("q", 1, n)]).extend(triple), basis)
    assert indices.tolist() == [want] and amplitudes.tolist() == [1.0]


def _reference_matrix(primitive, angle):
    if primitive == "X":
        return ((0, 1), (1, 0))
    if primitive == "H":
        return ((1 / sqrt(2), 1 / sqrt(2)), (1 / sqrt(2), -1 / sqrt(2)))
    if primitive == "RY":
        return ((cmath.cos(angle / 2), -cmath.sin(angle / 2)), (cmath.sin(angle / 2), cmath.cos(angle / 2)))
    return ((cmath.exp(-0.5j * angle), 0), (0, cmath.exp(0.5j * angle)))  # RZ


def _reference_apply(amps, primitive, angle, target, controls):
    """Per basis index: where every control holds its value, the index pairs
    with the one its gate flips (the target bit) and takes that row of the
    gate's 2x2 matrix."""
    m = _reference_matrix(primitive, angle)
    out = list(amps)
    for i in range(len(amps)):
        if any((i >> q) & 1 != v for q, v in controls):
            continue
        bit, partner = (i >> target) & 1, i ^ (1 << target)
        out[i] = m[bit][bit] * amps[i] + m[bit][1 - bit] * amps[partner]
    return out


@st.composite
def one_gate_cases(draw):
    n = draw(st.integers(1, 5))
    primitive = draw(st.sampled_from(("X", "H", "RY", "RZ")))
    target, *others = draw(st.permutations(range(n)))
    num_controls = draw(st.integers(0, min(2, n - 1)))
    controls = tuple((q, draw(st.integers(0, 1))) for q in others[:num_controls])
    angle = draw(st.floats(-2 * np.pi, 2 * np.pi)) if primitive in ("RY", "RZ") else None
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 << n, max_size=2 << n))
    amps = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
    norm = sqrt(sum(abs(a) ** 2 for a in amps))
    assume(norm > 1e-3)
    return n, primitive, angle, target, controls, [a / norm for a in amps]


@given(one_gate_cases())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_per_index_reference(case):
    n, primitive, angle, target, controls, amps = case
    c = Circuit([("q", 1, n)])
    c.extend([Gate(primitive, angle, q(target), tuple(Control(q(k), v) for k, v in controls))])
    got = dense_run(c, np.array(amps))
    want = _reference_apply(amps, primitive, angle, target, controls)
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
    cases = [("H", None, 3, ()), ("X", None, 0, ((7, 1), (2, 0))), ("RY", 0.7, 7, ((1, 1),)),
             ("X", None, 6, ((1, 1),)), ("RZ", -1.3, 2, ((0, 0),)), ("H", None, 5, ((4, 1), (3, 1))),
             ("X", None, 4, ()), ("RY", 2.1, 0, ()), ("X", None, 5, ((7, 0), (2, 1)))]
    c = Circuit([("q", 1, n)])
    c.extend(Gate(primitive, angle, q(target), tuple(Control(q(k), v) for k, v in controls))
             for primitive, angle, target, controls in cases)
    states = dense_evolve(c, amps)
    want = list(next(states))
    for (primitive, angle, target, controls), got in zip(cases, states):
        want = _reference_apply(want, primitive, angle, target, controls)
        assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_gate_loop_allocates_no_state_sized_memory():
    # the scratch array exists before the first yield; what the gates still
    # allocate is numpy's fixed-size ufunc buffers, far below a quarter state
    c = Circuit([("q", 1, 18)])
    c.extend([Gate("H", None, q(1)), Gate("X", None, q(7), (Control(q(9), 1),)), Gate("RY", 0.4, q(12))])
    c.extend([Gate("RZ", 0.9, q(4)), Gate("X", None, q(3), (Control(q(2), 0),)), Gate("X", None, q(0))])
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
    c = Circuit([("q", 1, n)])

    def controls(others):  # up to 2 of them, each required 0 or 1
        return tuple(Control(q(k), draw(st.integers(0, 1)))
                     for k in others[:draw(st.integers(0, min(2, len(others))))])

    def gate(qubits, primitives=("X", "H", "RY", "RZ")):
        primitive = draw(st.sampled_from(primitives))
        target, *others = qubits
        angle = draw(st.floats(-2 * np.pi, 2 * np.pi)) if primitive in ("RY", "RZ") else None
        return Gate(primitive, angle, q(target), controls(others))

    def piece():
        # one gate; a run of gates on at most 3 qubits; two H/RY gates on one
        # target, so the second acts on a qubit in superposition; a swap triple
        # under positive, negative or no controls; or Toffoli networks with
        # mixed-polarity controls on one or two random triples: run applies
        # each network as one Toffoli and its phase, each triple as one swap,
        # and every other gate (the X conjugations of negative controls too)
        # on its own
        kind = draw(st.sampled_from(("gate", "run", "branch", "swap", "network")[:3 + (n >= 2) + (n >= 3)]))
        qubits = draw(st.permutations(range(n)))
        if kind == "gate":
            return [gate(qubits)]
        if kind == "run":
            return [gate(draw(st.permutations(qubits[:3]))) for _ in range(draw(st.integers(2, 6)))]
        if kind == "branch":
            return [gate(qubits, ("H", "RY")), gate(qubits, ("H", "RY"))]
        if kind == "swap":
            return list(swap_gates(Control(q(qubits[0]), 1), Control(q(qubits[1]), 1), controls(qubits[2:])))
        values = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        triples = [draw(st.permutations(range(n)))[:3] for _ in range(draw(st.integers(1, 2)))]
        toffolis = [Gate("X", None, q(t), (Control(q(a), values[0]), Control(q(b), values[1])))
                    for a, b, t in triples]
        return [h for toffoli in toffolis for g in eliminate_negative_controls(toffoli)
                for h in (lower_toffoli(g) if len(g.controls) == 2 else [g])]

    # half the circuits draw every piece from a pool of shared pieces, so one
    # object recurs on changed states, as in a lowered circuit: the simulator
    # resolves each object once per call
    pool = [piece() for _ in range(draw(st.integers(1, 3)))] if draw(st.booleans()) else None
    for _ in range(draw(st.integers(0, 20))):
        c.extend(draw(st.sampled_from(pool)) if pool else piece())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    # dense, sparse and basis starts: H/RY on a qubit that no branch has set
    # take the simulator's split without a merge
    keep = rng.random(1 << n) >= draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)))
    keep[rng.integers(1 << n)] = True
    amps[~keep] = 0.0
    return c, amps / np.linalg.norm(amps)


@given(random_circuits())
@settings(max_examples=200, deadline=None)
def test_sparse_matches_dense_oracle(case):
    # step by step from the same state: a step is one gate, 15 where
    # toffoli_at finds a Toffoli network, or 3 where swap_at finds a swap
    # triple, and the sparse backend may differ from the dense kernel on that
    # step's gates only by rounding and by an amplitude of at most BRANCH_TOL
    # that it drops (over a whole circuit, dropped amplitudes that later mix can
    # add up past 1e-12)
    c, amps = case
    steps = evolve(c, amps)  # the sparse simulator, densified
    done, before = next(steps)
    assert done == 0 and np.array_equal(before, amps)
    for k, after in steps:
        step = 15 if toffoli_at(c.gates, done) is not None else 3 if swap_at(c.gates, done) is not None else 1
        assert k == done + step
        want = dense_run(Circuit(c.registers).extend(c.gates[done:k]), before)
        assert np.max(np.abs(after - want)) <= 1e-12
        done, before = k, after
    assert done == len(c.gates)
    # run, evolve's last state, against the whole dense circuit: the same bound
    # once per gate, as the drops add up (a gate-by-gate run drifts up to
    # 1.8e-12 from dense_run over 1,000 of these circuits)
    assert np.max(np.abs(run(c, amps) - dense_run(c, amps))) <= 1e-12 * max(1, len(c.gates))


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
