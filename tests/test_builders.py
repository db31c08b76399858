"""Builder structure and the defining state equations for small sizes."""

from itertools import permutations
from math import factorial, sqrt

import numpy as np
import pytest

from qshuffle.builders import (VARIANTS, BuildSpec, build, build_with_checkpoints, init_identity_word,
                               register_layout)
from qshuffle.circuit import Circuit
from qshuffle.prep import ENCODINGS
from qshuffle.resources import CostProfile, weighted_depth
from oracles import (assert_register_disentangled, branch_table, build_via_swap_gates, decode_draws,
                     evolve, marginal_probabilities, primitive_multiset, replay_reversed_fisher_yates, run)

TOL = 1e-10


def words_of(branches):
    return sorted(tuple(regs["perm"]) for regs, _ in branches)


def test_spec_validation():
    with pytest.raises(ValueError):
        BuildSpec("Q", 2)
    with pytest.raises(ValueError):
        BuildSpec("B", 2)  # m missing
    with pytest.raises(ValueError):
        BuildSpec("A", 2, m=1)  # no data register
    with pytest.raises(ValueError):
        BuildSpec("A", 0)
    with pytest.raises(ValueError):
        BuildSpec("A", 2, encoding="gray")


@pytest.mark.parametrize("n, m", [(2.9, None), ("3", None), (True, None), (3.0, None),
                                  (3, 2.5), (3, "2"), (3, True)])
def test_spec_numbers_must_be_integers(n, m):
    # 2.9 once passed and then failed in build on int.bit_length; "3" raised TypeError
    variant = "A" if m is None else "B"
    with pytest.raises(ValueError, match="must be an integer"):
        BuildSpec(variant, n, m)


def test_spec_takes_any_index_integer_as_an_int():
    spec = BuildSpec("B", np.int64(3), np.int8(2))
    assert (type(spec.n), type(spec.m)) == (int, int) and spec == BuildSpec("B", 3, 2)
    assert build(spec).gates == build(BuildSpec("B", 3, 2)).gates


def test_spec_replace_validates_as_the_constructor_does():
    assert BuildSpec("B", 3, 1)._replace(n=np.int64(4)) == BuildSpec("B", 4, 1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        BuildSpec("A", 3)._replace(n=0)
    with pytest.raises(ValueError, match="has no data register"):
        BuildSpec("A", 3)._replace(m=2)


def test_init_identity_word_counts():
    c = Circuit([("perm", 2, 1)])
    init_identity_word(c, 2)
    assert primitive_multiset(c) == {"X": 1}
    c = Circuit([("perm", 4, 2)])
    init_identity_word(c, 4)
    assert primitive_multiset(c) == {"X": 4}  # hamming(1)+hamming(2)+hamming(3)
    assert weighted_depth(c, CostProfile()) == 1  # all on distinct qubits


def test_init_identity_word_state():
    c = Circuit([("perm", 4, 2)])
    init_identity_word(c, 4)
    state = run(c)
    (branch,) = branch_table(state, c)
    assert branch[0]["perm"] == [0, 1, 2, 3]


def test_a_n2_gate_list_matches_trace():
    c, checkpoints = build_with_checkpoints(BuildSpec("A", 2))
    assert checkpoints == (1, 6)
    kinds = [(g.primitive, len(g.controls)) for g in c.gates]
    assert kinds == [("X", 0), ("H", 0), ("X", 1), ("X", 2), ("X", 1), ("X", 1)]
    assert sum(v for v in primitive_multiset(c).values()) == 6


def test_a_n1_is_empty():
    c, checkpoints = build_with_checkpoints(BuildSpec("A", 1))
    assert len(c.gates) == 0
    assert checkpoints == (0,)


def test_checkpoint_count_is_n():
    for variant, m in (("A", None), ("At", None), ("B", 1), ("C", 1)):
        for n in range(1, 6):
            assert len(build_with_checkpoints(BuildSpec(variant, n, m))[1]) == n


def test_c_n3_structure():
    spec = BuildSpec("C", 3, 1)
    c = build(spec)
    assert [(r.name, r.count, r.width) for r in c.registers] == [
        ("data", 3, 1), ("anc1", 1, 1), ("anc2", 1, 2)]
    # U_1 (1 gate), 1 swap triple, U_2 (3 gates), 2 swap triples
    kinds = [g.primitive for g in c.gates]
    assert len(kinds) == 1 + 3 + 3 + 6
    assert "SWAP" not in kinds  # swaps pre-lowered


def test_register_layout_onehot():
    assert [(r.name, r.width) for r in register_layout(BuildSpec("A", 5, encoding="onehot"))] == [
        ("perm", 3), ("anc", 4)]
    assert [(r.name, r.width) for r in register_layout(BuildSpec("At", 4, encoding="onehot"))] == [
        ("perm", 2), ("anc1", 1), ("anc2", 2), ("anc3", 3)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_prepares_uniform_superposition_of_words(n):
    c = build(BuildSpec("A", n))
    state = run(c)
    branches = branch_table(state, c)
    assert len(branches) == factorial(n)
    assert max(abs(abs(a) - 1 / sqrt(factorial(n))) for _, a in branches) < TOL
    assert words_of(branches) == list(permutations(range(n)))
    ok, leak = assert_register_disentangled(state, c, "anc")
    assert ok and leak < TOL


@pytest.mark.parametrize("n", [2, 3, 4])
def test_at_branches_are_replay_records(n):
    spec = BuildSpec("At", n)
    c = build(spec)
    branches = branch_table(run(c), c)
    assert len(branches) == factorial(n)
    for regs, amp in branches:
        assert abs(abs(amp) - 1 / sqrt(factorial(n))) < TOL
        draws = decode_draws(spec, regs)
        assert tuple(regs["perm"]) == replay_reversed_fisher_yates(n, draws)
    # the ancilla is entangled by design: leakage is far from zero
    ok, leak = assert_register_disentangled(run(c), c, "anc1")
    assert not ok and leak > 0.1


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_b_shuffles_and_records(n, m):
    spec = BuildSpec("B", n, m)
    c = build(spec)
    inputs = [k % (1 << m) for k in range(n)]
    state = run(c, {"data": inputs})
    ok, leak = assert_register_disentangled(state, c, "anc")
    assert ok
    branches = branch_table(state, c)
    assert len(branches) == factorial(n)
    for regs, _ in branches:
        word = regs["perm"]
        assert regs["data"] == [inputs[w] for w in word]


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 1)])
def test_bt_and_c_replay_consistent(n, m):
    for variant in ("Bt", "C"):
        spec = BuildSpec(variant, n, m)
        c = build(spec)
        inputs = [k % (1 << m) for k in range(n)]
        state = run(c, {"data": inputs})
        branches = branch_table(state, c)
        assert len(branches) == factorial(n)
        for regs, amp in branches:
            assert abs(abs(amp) - 1 / sqrt(factorial(n))) < TOL
            word = replay_reversed_fisher_yates(n, decode_draws(spec, regs))
            if variant == "Bt":
                assert tuple(regs["perm"]) == word
            assert regs["data"] == [inputs[word[k]] for k in range(n)]


@pytest.mark.parametrize("variant,n,m", [("A", 3, None), ("A", 4, None), ("B", 3, 2)])
def test_xi_invariant_at_checkpoints(variant, n, m):
    spec = BuildSpec(variant, n, m)
    c, checkpoints = build_with_checkpoints(spec)
    inputs = [k % (1 << m) for k in range(n)] if m else None
    initial = {"data": inputs} if m else None
    tables = {}
    for k, state in evolve(c, initial):
        if k in checkpoints:
            tables[k] = branch_table(state, c)
    for i in range(1, n):
        branches = tables[checkpoints[i - 1]]
        assert len(branches) == factorial(i)
        seen = set()
        for regs, amp in branches:
            assert abs(abs(amp) - 1 / sqrt(factorial(i))) < TOL
            assert all(v == 0 for v in regs["anc"])
            word = tuple(regs["perm"][:i])
            assert regs["perm"][i:] == list(range(i, n))  # untouched tail
            if m:
                assert regs["data"] == [inputs[w] for w in regs["perm"]]
            seen.add(word)
        assert sorted(seen) == list(permutations(range(i)))


def test_b_preserves_inner_products():
    # basis inputs map to orthonormal outputs; repeated input gives unit overlap
    spec = BuildSpec("B", 3, 2)
    c = build(spec)
    s1 = run(c, {"data": [0, 1, 2]})
    s2 = run(c, {"data": [0, 2, 1]})
    assert abs(np.vdot(s1, s2)) < TOL
    assert abs(np.vdot(s1, run(c, {"data": [0, 1, 2]})) - 1) < TOL


@pytest.mark.parametrize("variant,n,m", [
    ("A", 3, None), ("A", 4, None), ("At", 4, None),
    ("B", 3, 1), ("Bt", 3, 1), ("C", 4, 1), ("C", 3, 2),
])
def test_onehot_binary_marginals_agree(variant, n, m):
    reg = "data" if variant == "C" else "perm"
    margins = []
    for encoding in ("binary", "onehot"):
        spec = BuildSpec(variant, n, m, encoding)
        c = build(spec)
        initial = {"data": [k % (1 << m) for k in range(n)]} if m else None
        margins.append(marginal_probabilities(run(c, initial), c, reg))
    assert np.max(np.abs(margins[0] - margins[1])) < TOL


def test_onehot_swaps_have_two_controls():
    # one-hot draw encoding: every swap middle is controlled on a single
    # ancilla qubit plus the partner, never on a full value pattern
    c = build(BuildSpec("A", 4, encoding="onehot"))
    anc, perm = set(c.register_qubits("anc")), set(c.register_qubits("perm"))
    swap_middles = [g for g in c.gates if g.primitive == "X"
                    and any(x.qubit in anc for x in g.controls)
                    and any(x.qubit in perm for x in g.controls)]
    assert swap_middles and all(len(g.controls) == 2 for g in swap_middles)


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_builders_equal_the_emit_swap_then_lower_path(variant, encoding):
    # the builders write each swap triple directly; it must be, gate for gate,
    # what emitting a SWAP and lowering it gave
    for n in range(1, 7):
        for m in (1, 2) if variant in ("B", "Bt", "C") else (None,):
            spec = BuildSpec(variant, n, m, encoding)
            circuit, checkpoints = build_with_checkpoints(spec)
            want, want_checkpoints = build_via_swap_gates(spec)
            assert circuit.gates == want.gates, spec
            assert [repr(g.angle) for g in circuit.gates] == [repr(g.angle) for g in want.gates], spec
            assert checkpoints == want_checkpoints, spec
            assert (circuit.registers, circuit.metadata) == (want.registers, want.metadata), spec


def test_every_distinct_gate_object_of_a_build_is_checked(monkeypatch):
    checked = []
    check = Circuit.check
    monkeypatch.setattr(Circuit, "check", lambda self, g: checked.append(g) or check(self, g))
    for spec in (BuildSpec("A", 6), BuildSpec("Bt", 4, 2), BuildSpec("C", 5, 2, "onehot")):
        checked.clear()
        gates = build(spec).gates
        assert {id(g) for g in checked} == {id(g) for g in gates}, spec
