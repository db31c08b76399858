"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here: amplitude checks at 1e-10, matrix
equivalence at 1e-12, statistical tests at significance 1e-3.
"""

from collections import Counter
from math import factorial, sqrt

import numpy as np
import pytest
from scipy.stats import chi2

from qshuffle.builders import BuildSpec, build, build_with_checkpoints
from qshuffle.circuit import Circuit, Control, Gate, primitive_multiset
from qshuffle.lowering import lower_circuit, lower_mcx, lower_toffoli
from qshuffle.permutations import (
    enumerate_sn,
    lemma1_extend,
    replay_reversed_fisher_yates,
    sample_fisher_yates,
)
from qshuffle.prep import build_u
from qshuffle.resources import measure_circuit, resource_report, u_gate_count_formula
from oracles import (
    assert_register_disentangled,
    branch_table,
    decode_draws,
    evolve,
    marginal_probabilities,
    run,
    sample,
    states_equal_up_to_phase,
)

AMP_TOL = 1e-10
MATRIX_TOL = 1e-12
ALPHA = 1e-3
QUANTUM_SEED = 20240801
CLASSICAL_SEED = 911


def report(number, name, passed):
    print(f"criterion {number:02d} [{name}]: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_01_disentangling_state_preparation():
    ok = True
    for n in (2, 3, 4, 5):
        circuit = build(BuildSpec("A", n))
        state = run(circuit)
        branches = branch_table(state, circuit)
        ok &= len(branches) == factorial(n)
        ok &= max(abs(abs(a) - 1 / sqrt(factorial(n))) for _, a in branches) < AMP_TOL
        disentangled, leak = assert_register_disentangled(state, circuit, "anc", AMP_TOL)
        ok &= disentangled and leak < AMP_TOL
        ok &= sorted(tuple(r["perm"]) for r, _ in branches) == enumerate_sn(n)
    report(1, "uniform superposition over all words, ancilla clean", ok)


def test_criterion_02_entangling_variants_replay():
    ok = True
    cases = [("At", n, None) for n in (2, 3, 4)]
    cases += [(v, n, m) for v in ("Bt", "C") for n in (2, 3, 4) for m in (1, 2)]
    for variant, n, m in cases:
        spec = BuildSpec(variant, n, m)
        circuit = build(spec)
        inputs = [k % (1 << m) for k in range(n)] if m else None
        state = run(circuit, {"data": inputs} if m else None)
        branches = branch_table(state, circuit)
        ok &= len(branches) == factorial(n)
        for regs, amp in branches:
            ok &= abs(abs(amp) - 1 / sqrt(factorial(n))) < AMP_TOL
            word = replay_reversed_fisher_yates(n, decode_draws(spec, regs))
            if spec.has_perm:
                ok &= tuple(regs["perm"]) == word
            if spec.has_data:
                ok &= regs["data"] == [inputs[word[k]] for k in range(n)]
                if m >= spec.word_width:  # injective inputs: read the word off the data
                    ok &= tuple(regs["data"]) == word
    report(2, "branch = (word, draw record) with word = replay(draws)", ok)


def test_criterion_03_shuffle_theorem_and_checkpoints():
    ok = True
    for n in (2, 3, 4):
        m = max((n - 1).bit_length(), 1)
        spec = BuildSpec("B", n, m)
        circuit, checkpoints = build_with_checkpoints(spec)
        inputs = list(range(n))
        initial = {"data": inputs}
        tables = {}
        for k, state in enumerate(evolve(circuit, initial)):
            if k in checkpoints:
                tables[k] = branch_table(state, circuit)
        disentangled, leak = assert_register_disentangled(state, circuit, "anc", AMP_TOL)
        ok &= disentangled and leak < AMP_TOL
        for regs, _ in branch_table(state, circuit):
            ok &= regs["data"] == regs["perm"]  # data:k carries word[k]
        for i in range(1, n):
            table = tables[checkpoints[i - 1]]
            ok &= len(table) == factorial(i)
            words = set()
            for regs, amp in table:
                ok &= abs(abs(amp) - 1 / sqrt(factorial(i))) < AMP_TOL
                ok &= all(v == 0 for v in regs["anc"])
                ok &= regs["perm"][i:] == list(range(i, n))
                ok &= regs["data"] == regs["perm"]
                words.add(tuple(regs["perm"][:i]))
            ok &= sorted(words) == enumerate_sn(i)
    report(3, "shuffle correctness and per-iteration invariant", ok)


def test_criterion_04_exact_formula_equality():
    ok = True
    for variant in ("A", "At", "B", "Bt", "C"):
        ms = (1, 2) if variant in ("B", "Bt", "C") else (None,)
        for m in ms:
            for n in range(1, 9):
                r = resource_report(BuildSpec(variant, n, m, "binary"))
                ok &= r.gates_measured == r.gates_formula
                ok &= r.qubits_measured == r.qubits_formula
                ok &= r.depth_measured <= r.cycles_formula
    report(4, "gate/qubit formulas exact, depth within cycle bound", ok)


def test_criterion_05_uniform_prep_counts_and_states():
    ok = True
    for i in range(1, 65):
        circuit = build_u(i)
        ok &= sum(primitive_multiset(circuit).values()) == u_gate_count_formula(i)
        if (i + 1) & i == 0:
            ok &= primitive_multiset(circuit) == {"H": (i + 1).bit_length() - 1}
            ok &= measure_circuit(circuit).depth == 1
    for i in range(1, 32):
        state = run(build_u(i))
        want = np.zeros(len(state))
        want[: i + 1] = 1 / sqrt(i + 1)
        ok &= np.max(np.abs(state - want)) < AMP_TOL
    report(5, "uniform prep: closed-form counts and exact support", ok)


def test_criterion_06_mcx_decompositions():
    def q(b):  # one register "q": bit b is global qubit b
        return b

    def mcx(m, target, controls):
        return Gate("X", None, (q(target),), tuple(Control(q(b), 1) for b in controls))

    ok = True
    # Toffoli: full 8x8 action equals the permutation matrix up to global phase
    circuit = Circuit([("q", 1, 3)]).extend(lower_toffoli(mcx(2, 2, [0, 1])))
    got = np.column_stack([run(circuit, k) for k in range(8)])
    want = np.zeros((8, 8))
    for k in range(8):
        want[k ^ (4 if k & 3 == 3 else 0), k] = 1.0
    phase = got[np.nonzero(want)][0]
    ok &= abs(abs(phase) - 1.0) < MATRIX_TOL
    ok &= np.max(np.abs(got / phase - want)) < MATRIX_TOL
    # ladders: exact basis action and helper restoration, all basis inputs
    for m in range(3, 7):
        nq = 2 * m - 1
        gate = mcx(m, m, range(m))
        idle = [q(b) for b in range(m + 1, nq)]
        borrowed = lower_mcx(gate, "borrowed", idle)
        clean = lower_mcx(gate, "clean", idle)
        ok &= len(borrowed) == 4 * (m - 2)
        ok &= len(clean) == 2 * (m - 1)
        circuit = Circuit([("q", 1, nq)]).extend(borrowed)
        mask = (1 << m) - 1
        for k in range(1 << nq):
            state = run(circuit, k)
            out = int(np.argmax(np.abs(state)))
            ok &= abs(abs(state[out]) - 1.0) < MATRIX_TOL
            ok &= out == (k ^ (1 << m) if k & mask == mask else k)
        circuit = Circuit([("q", 1, nq)]).extend(clean)
        for k in range(1 << (m + 1)):  # helpers start at zero in clean mode
            state = run(circuit, k)
            out = int(np.argmax(np.abs(state)))
            ok &= abs(abs(state[out]) - 1.0) < MATRIX_TOL
            ok &= out == (k ^ (1 << m) if k & mask == mask else k)
    report(6, "Toffoli network and clean/borrowed multi-control ladders", ok)


def test_criterion_07_recursive_group_generation():
    ok = True
    words = [(0,)]
    for i in range(1, 6):
        words = lemma1_extend(words)
        n = i + 1
        ok &= len(words) == factorial(n)
        ok &= len(set(words)) == factorial(n)
        ok &= sorted(set(words)) == enumerate_sn(n)
    ok &= len(words) == 720
    report(7, "recursive extension enumerates S_n exactly", ok)


def test_criterion_08_sampling_indistinguishable_from_classical():
    shots = 100000
    circuit = build(BuildSpec("A", 4))
    state = run(circuit)
    quantum = sample(state, shots, QUANTUM_SEED, circuit, "perm")
    rng = np.random.default_rng(CLASSICAL_SEED)
    classical = Counter(sample_fisher_yates(4, rng, "reversed") for _ in range(shots))
    keys = sorted(set(quantum) | set(classical))
    o1 = np.array([quantum.get(k, 0) for k in keys], dtype=float)
    o2 = np.array([classical.get(k, 0) for k in keys], dtype=float)
    totals = o1 + o2
    e1 = totals * o1.sum() / totals.sum()
    e2 = totals * o2.sum() / totals.sum()
    stat = float((((o1 - e1) ** 2) / e1).sum() + (((o2 - e2) ** 2) / e2).sum())
    pvalue = float(chi2.sf(stat, len(keys) - 1))
    print(f"  two-sample chi-square: stat={stat:.2f} bins={len(keys)} p={pvalue:.4f}")
    report(8, "quantum samples pass two-sample chi-square vs classical", pvalue >= ALPHA)


def test_criterion_09_onehot_parity_and_qubit_accounting():
    ok = True
    for variant in ("A", "At", "B", "Bt", "C"):
        m = 1 if variant in ("B", "Bt", "C") else None
        for n in (2, 3, 4):
            margins = []
            for encoding in ("binary", "onehot"):
                spec = BuildSpec(variant, n, m, encoding)
                circuit = build(spec)
                initial = {"data": [k % 2 for k in range(n)]} if m else None
                state = run(circuit, initial)
                reg = "data" if variant == "C" else "perm"
                margins.append(marginal_probabilities(state, circuit, reg))
            ok &= float(np.max(np.abs(margins[0] - margins[1]))) < AMP_TOL
            # one-hot ancilla accounting: n-1 qubits reused, or 1+2+..+(n-1) fresh
            spec = BuildSpec(variant, n, m, "onehot")
            circuit = build(spec)
            anc_total = sum(r.count * r.width for r in circuit.registers
                            if r.name.startswith("anc"))
            expected = (n - 1) if spec.disentangling else n * (n - 1) // 2
            ok &= anc_total == expected
    report(9, "one-hot and binary builds agree; ancilla totals match", ok)


def test_criterion_10_lowering_equivalence():
    ok = True
    cases = [("A", n, None) for n in (2, 3)] + [("At", n, None) for n in (2, 3)]
    cases += [("B", 2, 1), ("B", 2, 2), ("B", 3, 1), ("Bt", 2, 1), ("Bt", 2, 2), ("Bt", 3, 1)]
    cases += [("C", 2, 1), ("C", 3, 1), ("C", 3, 2), ("C", 4, 1)]
    checked = 0
    for variant, n, m in cases:
        for encoding in ("binary", "onehot"):
            spec = BuildSpec(variant, n, m, encoding)
            circuit = build(spec)
            if circuit.num_qubits > 12:
                continue
            lowered = lower_circuit(circuit, "full", "borrowed")
            ok &= states_equal_up_to_phase(run(circuit), run(lowered), AMP_TOL)
            checked += 1
    ok &= checked >= 20
    report(10, "full lowering preserves every builder state", ok)
