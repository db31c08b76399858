"""Uniform superposition preparations, checked against an independent sparse oracle."""

from math import sqrt

import numpy as np
import pytest

from qshuffle.circuit import primitive_multiset
from qshuffle.prep import binary_width, build_u, build_v, u_gates, v_gates
from qshuffle.resources import measure_circuit, u_cycle_count_formula, u_gate_count_formula
from oracles import run

TOL = 1e-10


def sparse_apply(state: dict, gate, width: int) -> dict:
    """Dict-based simulator, independent of qshuffle.simulator."""
    out = {}
    for index, amp in state.items():
        fire = all(((index >> c.qubit) & 1) == c.value for c in gate.controls)
        if not fire:
            out[index] = out.get(index, 0) + amp
            continue
        (bit,) = gate.targets
        if gate.primitive == "X":
            out[index ^ (1 << bit)] = out.get(index ^ (1 << bit), 0) + amp
        elif gate.primitive == "H":
            r = 1 / sqrt(2)
            lo, hi = index & ~(1 << bit), index | (1 << bit)
            sign = -1 if (index >> bit) & 1 else 1
            out[lo] = out.get(lo, 0) + r * amp
            out[hi] = out.get(hi, 0) + sign * r * amp
        elif gate.primitive == "RY":
            c, s = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
            lo, hi = index & ~(1 << bit), index | (1 << bit)
            if (index >> bit) & 1:
                out[lo] = out.get(lo, 0) - s * amp
                out[hi] = out.get(hi, 0) + c * amp
            else:
                out[lo] = out.get(lo, 0) + c * amp
                out[hi] = out.get(hi, 0) + s * amp
        else:
            raise AssertionError(gate.primitive)
    return {k: v for k, v in out.items() if abs(v) > 1e-14}


def sparse_state(gates, width: int) -> dict:
    state = {0: 1.0}
    for g in gates:
        state = sparse_apply(state, g, width)
    return state


@pytest.mark.parametrize("i", range(1, 32))
def test_u_state_is_uniform_over_first_states(i):
    state = run(build_u(i))
    want = np.zeros(len(state))
    want[: i + 1] = 1 / sqrt(i + 1)
    assert np.max(np.abs(state - want)) < TOL
    assert np.max(np.abs(state.imag)) < TOL
    assert state.real.min() > -TOL  # amplitudes real nonnegative


def test_u_i1_is_single_h():
    c = build_u(1)
    assert [g.primitive for g in c.gates] == ["H"]
    state = run(c)
    assert np.allclose(state, [1 / sqrt(2), 1 / sqrt(2)])


def test_u_i3_is_two_h():
    c = build_u(3)
    assert primitive_multiset(c) == {"H": 2}
    assert np.allclose(run(c), np.full(4, 0.5))


def test_u_i4_multiset():
    # i + 1 = 5 = 101b: no H prefix, one RY, one CRY, two CH
    assert primitive_multiset(build_u(4)) == {"RY": 1, "CRY": 1, "CH": 2}
    state = run(build_u(4))
    assert np.max(np.abs(state[:5] - 1 / sqrt(5))) < TOL
    assert np.max(np.abs(state[5:])) < TOL


@pytest.mark.parametrize("i", range(1, 65))
def test_u_multiset_matches_closed_form(i):
    # rebuild the expected multiset from the bit positions of i+1
    m = i + 1
    ms = primitive_multiset(build_u(i))
    if m & (m - 1) == 0:
        assert ms == {"H": binary_width(i)}
        assert measure_circuit(build_u(i)).depth == 1
        return
    s = [b for b in range(m.bit_length()) if (m >> b) & 1]
    expected = {"RY": 1, "CRY": len(s) - 1, "CH": s[-1] - s[0]}
    if s[0]:
        expected["H"] = s[0]
    assert ms == {k: v for k, v in expected.items() if v}
    assert sum(ms.values()) == u_gate_count_formula(i)
    assert measure_circuit(build_u(i)).depth <= u_cycle_count_formula(i)


def test_u_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_u(0)


def test_v_i1_single_ry_acts_like_h():
    c = build_v(1)
    assert [g.primitive for g in c.gates] == ["RY"]
    assert np.allclose(run(c), [1 / sqrt(2), 1 / sqrt(2)])


def test_v_i2_support():
    state = run(build_v(2))
    want = np.array([1, 1, 1, 0]) / sqrt(3)
    assert np.max(np.abs(state - want)) < TOL


def test_v_i4_support_on_low_weight_strings():
    state = run(build_v(4))
    want = np.zeros(16)
    want[0] = 1 / sqrt(5)
    for k in range(4):
        want[1 << k] = 1 / sqrt(5)
    assert np.max(np.abs(state - want)) < TOL


@pytest.mark.parametrize("i", range(1, 13))
def test_v_state_dense(i):
    state = run(build_v(i))
    want = np.zeros(1 << i)
    want[0] = 1 / sqrt(i + 1)
    for k in range(i):
        want[1 << k] = 1 / sqrt(i + 1)
    assert np.max(np.abs(state - want)) < TOL


@pytest.mark.parametrize("i", range(1, 32))
def test_v_state_sparse_oracle(i):
    # the chain only ever populates i+1 basis states, so a dict simulator
    # verifies sizes a dense statevector cannot reach
    state = sparse_state(v_gates(i, range(i)), i)
    assert set(state) == {0} | {1 << k for k in range(i)}
    assert max(abs(a - 1 / sqrt(i + 1)) for a in state.values()) < TOL


@pytest.mark.parametrize("i", range(1, 32))
def test_v_linear_size_and_depth(i):
    # 2i - 1 gates in a serial chain: both counts stay below 2i
    c = build_v(i)
    assert len(c.gates) == 2 * i - 1 <= 2 * i
    assert measure_circuit(c).depth == 2 * i - 1


def test_v_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_v(0)


@pytest.mark.parametrize("i", range(1, 16))
def test_u_sparse_oracle_agrees_with_dense(i):
    dense = run(build_u(i))
    sparse = sparse_state(u_gates(i, range(binary_width(i))), binary_width(i))
    rebuilt = np.zeros(len(dense), dtype=complex)
    for k, v in sparse.items():
        rebuilt[k] = v
    assert np.max(np.abs(dense - rebuilt)) < TOL
