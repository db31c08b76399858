"""Invariant suite of one build: simulate it and compare it with the classical
Fisher-Yates replay model.

Each draw j_i in 0..i of the classical shuffle becomes a uniform superposition,
so before iteration i (i = n: the final state) a correct build holds one branch
of amplitude +1/sqrt(i!) per draw sequence: the word the reversed Fisher-Yates
shuffle replays from those draws (then the untouched tail i..n-1), the inputs
moved by that word, and a zero ancilla (A, B) or ancilla k holding draw k for
k < i (At, Bt, C).  The model is kept as the sorted basis indices of those
branches, so a state is compared with it in one ``np.searchsorted`` and no
branch is decoded.  Checks: branch_count, the live branches of the final
state; replay_consistent, the final state's deviation from the model;
iteration_states, the worst deviation at the iteration starts, from the same
simulation pass; the three resource checks.  A failed model check names the
first failing iteration and its worst basis index, decoded per register.
"""

from __future__ import annotations

from math import factorial, sqrt
from typing import NamedTuple

import numpy as np

from . import simulator
from .builders import ANC, DATA, PERM, BuildSpec, build_with_checkpoints
from .circuit import Circuit
from .resources import resource_report

DEFAULT_SEED = 0
DEFAULT_TOL = 1e-10


class Check(NamedTuple):
    name: str
    passed: bool
    metric: float
    tolerance: float
    detail: dict | None = None


class VerifyReport(NamedTuple):
    spec: dict
    seed: int
    checks: tuple[Check, ...]
    overall: bool

    def to_dict(self) -> dict:
        return self._asdict() | {"checks": tuple(c._asdict() for c in self.checks)}


def replay_models(spec: BuildSpec, circuit: Circuit, inputs: list[int] | None):
    """Yield (i, model) for i = 1..n: the sorted basis indices of a correct
    build before iteration i (i = n: the final state), one per draw sequence.

    The words grow as an (i!, n) array and, for At/Bt/C, the ancilla record
    as an (i!, n-1) array: iteration k repeats each row k+1 times, writes
    draw j in 0..k to the record (j in binary; bit j in one-hot, where draw k
    is all zeros) and swaps word entries j and k.  Distinct draw sequences
    give distinct words (the paper's Lemma 1: extending each word of S_k by k
    and exchanging entries j and k, j = 0..k, lists S_{k+1} once each), so
    the indices are distinct.
    """
    n = spec.n
    words = np.arange(n, dtype=np.int64)[None, :]
    record = np.zeros((1, n - 1), dtype=np.int64)
    data = np.asarray(inputs, dtype=np.int64) if spec.has_data else None
    for i in range(1, n + 1):
        if i > 1:
            k = i - 1
            words = np.repeat(words, k + 1, axis=0)
            rows = np.arange(len(words))
            draws = rows % (k + 1)
            drawn = words[rows, draws]
            words[rows, draws] = words[:, k]
            words[:, k] = drawn
            if not spec.disentangling:
                record = np.repeat(record, k + 1, axis=0)
                if spec.encoding == "binary":
                    record[:, k - 1] = draws
                else:
                    record[:, k - 1] = np.where(draws == k, 0, 1 << draws)
        index = np.zeros(len(words), dtype=np.int64)
        for k in range(n):
            if spec.has_data:
                index |= data[words[:, k]] << circuit.qubit(DATA, k, 0)
            if spec.has_perm:
                index |= words[:, k] << circuit.qubit(PERM, k, 0)
        if not spec.disentangling:
            for k in range(1, n):
                index |= record[:, k - 1] << circuit.qubit(f"{ANC}{k}", 0, 0)
        yield i, np.sort(index)


def _compare(state, model: np.ndarray, amplitude: float) -> tuple[float, int, complex, float]:
    """Largest |amplitude - model amplitude| over both index sets: a live
    branch the model lacks counts its own amplitude, a model index with no
    live branch counts ``amplitude``.  Returns it with the smallest basis index
    where it occurs (a live branch's before a missing one's), the state's
    amplitude there and the model's."""
    indices, amplitudes = state
    live = np.abs(amplitudes) > simulator.BRANCH_TOL
    indices, amplitudes = indices[live], amplitudes[live]
    pos = np.minimum(np.searchsorted(model, indices), len(model) - 1)
    hit = model[pos] == indices
    errors = np.abs(amplitudes - np.where(hit, amplitude, 0.0))
    missing = np.ones(len(model), dtype=bool)
    missing[pos[hit]] = False
    if missing.any() and (not len(errors) or amplitude > errors.max()):
        return amplitude, int(model[np.argmax(missing)]), 0j, amplitude
    tied = np.flatnonzero(errors == errors.max())  # the state's branch order must not choose
    worst = int(tied[np.argmin(indices[tied])])
    expected = amplitude if hit[worst] else 0.0
    return float(errors[worst]), int(indices[worst]), complex(amplitudes[worst]), expected


def _model_check(name: str, results: dict, tol: float, circuit: Circuit) -> Check:
    """One check over the comparisons of ``results`` (iteration -> _compare);
    a failure names the first failing iteration and its worst basis index."""
    worst = max((r[0] for r in results.values()), default=0.0)
    failing = [i for i, r in results.items() if not r[0] < tol]
    detail = None
    if failing:
        i = failing[0]
        _, index, amp, expected = results[i]
        detail = {"iteration": i, "index": index,
                  "registers": simulator.decoder(circuit)(index),
                  "re": amp.real, "im": amp.imag, "expected": expected}
    return Check(name, not failing, worst, tol, detail)


def verify_spec(spec: BuildSpec, tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run the full invariant suite for one build and collect pass/fail checks."""
    circuit, checkpoints = build_with_checkpoints(spec)
    n = spec.n
    inputs = [k % (1 << spec.m) for k in range(n)] if spec.has_data else None
    initial = {"data": inputs} if spec.has_data else None
    # one pass keeps the state before each iteration i, after checkpoints[i-1]
    # gates (i = n: the final state); the comparisons start only after the
    # whole circuit has simulated, so a build past the branch cap stops before
    # any of them
    states = {k: s for k, s in simulator.evolve(circuit, initial) if k in checkpoints}

    results = {i: _compare(states[checkpoints[i - 1]], model, 1.0 / sqrt(factorial(i)))
               for i, model in replay_models(spec, circuit, inputs)}
    final = states[checkpoints[-1]][1]
    live = int(np.count_nonzero(np.abs(final) > simulator.BRANCH_TOL))
    checks = [Check("branch_count", live == factorial(n), float(live), float(factorial(n))),
              _model_check("replay_consistent", {n: results.pop(n)}, tol, circuit),
              _model_check("iteration_states", results, tol, circuit)]

    report = resource_report(spec, circuit=circuit)
    checks.append(Check("gate_count_formula", report.gates_consistent,
                        float(report.gates_measured), float(report.gates_formula)))
    checks.append(Check("qubit_count_formula", report.qubits_measured == report.qubits_formula,
                        float(report.qubits_measured), float(report.qubits_formula)))
    checks.append(Check("depth_within_cycle_bound", report.depth_bounded,
                        float(report.depth_measured), float(report.cycles_formula)))

    return VerifyReport(spec._asdict(), seed, tuple(checks), all(c.passed for c in checks))
