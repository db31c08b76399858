"""Uniform superposition preparations, checked against an independent sparse oracle."""

from math import sqrt

import numpy as np
import pytest

from qshuffle.circuit import count_primitives
from qshuffle.prep import ENCODINGS, build_prep, u_gates, v_gates
from qshuffle.resources import CostProfile, prep_counts, weighted_depth
from oracles import primitive_multiset, run

TOL = 1e-10


def sparse_apply(state: dict, gate, width: int) -> dict:
    """Dict-based simulator, independent of qshuffle.simulator."""
    out = {}
    for index, amp in state.items():
        fire = all(((index >> c.qubit) & 1) == c.value for c in gate.controls)
        if not fire:
            out[index] = out.get(index, 0) + amp
            continue
        bit = gate.target
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
    state = run(build_prep(i))
    want = np.zeros(len(state))
    want[: i + 1] = 1 / sqrt(i + 1)
    assert np.max(np.abs(state - want)) < TOL
    assert np.max(np.abs(state.imag)) < TOL
    assert state.real.min() > -TOL  # amplitudes real nonnegative


def test_u_i1_is_single_h():
    c = build_prep(1)
    assert [g.primitive for g in c.gates] == ["H"]
    state = run(c)
    assert np.allclose(state, [1 / sqrt(2), 1 / sqrt(2)])


def test_u_i3_is_two_h():
    c = build_prep(3)
    assert primitive_multiset(c) == {"H": 2}
    assert np.allclose(run(c), np.full(4, 0.5))


def test_u_i4_multiset():
    # i + 1 = 5 = 101b: no H prefix, one RY, one CRY, two CH
    assert primitive_multiset(build_prep(4)) == {"RY": 1, "CRY": 1, "CH": 2}
    state = run(build_prep(4))
    assert np.max(np.abs(state[:5] - 1 / sqrt(5))) < TOL
    assert np.max(np.abs(state[5:])) < TOL


@pytest.mark.parametrize("i", range(1, 65))
def test_u_multiset_matches_closed_form(i):
    # rebuild the expected multiset from the bit positions of i+1
    m = i + 1
    ms = primitive_multiset(build_prep(i))
    if m & (m - 1) == 0:
        assert ms == {"H": i.bit_length()}
        assert weighted_depth(build_prep(i), CostProfile()) == 1
        return
    s = [b for b in range(m.bit_length()) if (m >> b) & 1]
    expected = {"RY": 1, "CRY": len(s) - 1, "CH": s[-1] - s[0]}
    if s[0]:
        expected["H"] = s[0]
    assert ms == {k: v for k, v in expected.items() if v}
    assert sum(ms.values()) == prep_counts(i)[0]
    assert weighted_depth(build_prep(i), CostProfile()) <= prep_counts(i)[1]


def test_u_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_prep(0)


def test_v_i1_single_ry_acts_like_h():
    c = build_prep(1, "onehot")
    assert [g.primitive for g in c.gates] == ["RY"]
    assert np.allclose(run(c), [1 / sqrt(2), 1 / sqrt(2)])


def test_v_i2_support():
    state = run(build_prep(2, "onehot"))
    want = np.array([1, 1, 1, 0]) / sqrt(3)
    assert np.max(np.abs(state - want)) < TOL


def test_v_i4_support_on_low_weight_strings():
    state = run(build_prep(4, "onehot"))
    want = np.zeros(16)
    want[0] = 1 / sqrt(5)
    for k in range(4):
        want[1 << k] = 1 / sqrt(5)
    assert np.max(np.abs(state - want)) < TOL


@pytest.mark.parametrize("i", range(1, 13))
def test_v_state_dense(i):
    state = run(build_prep(i, "onehot"))
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
    c = build_prep(i, "onehot")
    assert len(c.gates) == 2 * i - 1 <= 2 * i
    assert weighted_depth(c, CostProfile()) == 2 * i - 1


def test_v_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_prep(0, "onehot")


# keyed by the paper's fragment: U is the binary prep, V the one-hot one
_PREP_CALLS = {"u_gates": lambda i: u_gates(i, range(8)), "v_gates": lambda i: v_gates(i, range(8)),
               "build_u": build_prep, "build_v": lambda i: build_prep(i, "onehot"),
               "u_counts": prep_counts, "v_gate_count_formula": lambda i: prep_counts(i, "onehot")}


@pytest.mark.parametrize("name", _PREP_CALLS)
@pytest.mark.parametrize("i, message", [(0, "i must be >= 1"), (-1, "i must be >= 1"), (-5, "i must be >= 1"),
                                        (True, "i must be an integer, got True"),
                                        (2.5, "i must be an integer, got 2.5"),
                                        ("3", "i must be an integer, got '3'")])
def test_every_prep_refuses_nonsense_i(name, i, message):
    with pytest.raises(ValueError, match=message):
        _PREP_CALLS[name](i)


def test_prep_takes_any_integer_type():
    for encoding in ENCODINGS:
        assert prep_counts(np.int64(5), encoding) == prep_counts(5, encoding)
        assert build_prep(np.int64(5), encoding).gates == build_prep(5, encoding).gates


@pytest.mark.parametrize("call", [build_prep, prep_counts])
@pytest.mark.parametrize("encoding", ["unary", "Binary", None])
def test_prep_entries_refuse_an_unknown_encoding(call, encoding):
    with pytest.raises(ValueError, match="unknown encoding"):
        call(3, encoding)


@pytest.mark.parametrize("encoding", ENCODINGS)
def test_prep_counts_match_the_built_prep(encoding):
    profile = CostProfile(h=2, ry=3, cx=5, ch=7, cry=11)
    for i in range(1, 65):
        c = build_prep(i, encoding)
        assert c.metadata == {"prep": "u" if encoding == "binary" else "v", "i": i, "encoding": encoding}
        gates, cycles = prep_counts(i, encoding, profile)
        assert count_primitives(c, profile) == gates
        assert weighted_depth(c, profile) <= cycles


@pytest.mark.parametrize("i", range(1, 16))
def test_u_sparse_oracle_agrees_with_dense(i):
    dense = run(build_prep(i))
    sparse = sparse_state(u_gates(i, range(i.bit_length())), i.bit_length())
    rebuilt = np.zeros(len(dense), dtype=complex)
    for k, v in sparse.items():
        rebuilt[k] = v
    assert np.max(np.abs(dense - rebuilt)) < TOL
