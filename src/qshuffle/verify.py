"""Invariant suite of one build: simulate it and compare it with the classical
Fisher-Yates replay model.

Each draw j_i in 0..i of the classical shuffle becomes a uniform superposition,
so before iteration i (i = n: the final state) a correct build holds one branch
of amplitude +1/sqrt(i!) per draw sequence: the word the reversed Fisher-Yates
shuffle replays from those draws (then the untouched tail i..n-1), the inputs
moved by that word, and a zero ancilla (A, B) or ancilla k holding draw k for
k < i (At, Bt, C).  Checks: branch_count; replay_consistent, the final state's
deviation from the model; iteration_states (A, B), the worst deviation at the
iteration starts, from the same simulation pass; the three resource checks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import factorial, sqrt

from . import simulator
from .builders import BuildSpec, build_with_checkpoints
from .permutations import draw_sequences, replay_reversed_fisher_yates
from .resources import resource_report

DEFAULT_SEED = 0
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    metric: float
    tolerance: float


@dataclass(frozen=True)
class VerifyReport:
    spec: dict
    seed: int
    checks: tuple[Check, ...]
    overall: bool

    def to_dict(self) -> dict:
        return asdict(self)


def decode_draws(spec: BuildSpec, registers: dict) -> list[int]:
    """Read the draw record of an entangling variant's branch from its ancilla."""
    draws = []
    for i in range(1, spec.n):
        value = registers[f"anc{i}"][0]
        if spec.encoding == "binary":
            draws.append(value)
        elif value == 0:
            draws.append(i)
        else:
            if value & (value - 1):
                raise ValueError(f"one-hot ancilla {i} holds non-one-hot value {value}")
            draws.append(value.bit_length() - 1)
    return draws


def _draw_value(spec: BuildSpec, i: int, j: int) -> int:
    """Ancilla value of draw j in iteration i: j in binary; bit j in one-hot,
    where draw i (no swap) is all zeros."""
    if spec.encoding == "binary":
        return j
    return 0 if j == i else 1 << j


def expected_branches(spec: BuildSpec, i: int, inputs: list[int] | None) -> dict:
    """Branch table of a correct build before iteration i (i = n: the final
    state): register values in register order -> amplitude."""
    n = spec.n
    amplitude = 1.0 / sqrt(factorial(i))
    expected = {}
    for draws in draw_sequences(i):
        word = replay_reversed_fisher_yates(i, draws) + tuple(range(i, n))
        key = [tuple(inputs[w] for w in word)] if spec.has_data else []
        if spec.has_perm:
            key.append(word)
        if spec.disentangling:
            key.append((0,))
        else:
            key += [(_draw_value(spec, k, draws[k - 1]) if k < i else 0,) for k in range(1, n)]
        expected[tuple(key)] = amplitude
    return expected


def _deviation(branches, expected: dict) -> float:
    """Largest |amplitude - expected| over both key sets: a missing branch
    counts its expected amplitude, an extra branch its own."""
    actual = {tuple(map(tuple, registers.values())): amp for registers, amp in branches}
    return max(abs(actual.get(key, 0.0) - expected.get(key, 0.0))
               for key in actual.keys() | expected.keys())


def verify_spec(spec: BuildSpec, tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run the full invariant suite for one build and collect pass/fail checks."""
    circuit, checkpoints = build_with_checkpoints(spec)
    n = spec.n
    inputs = [k % (1 << spec.m) for k in range(n)] if spec.has_data else None
    initial = {"data": inputs} if spec.has_data else None
    # one pass: the states before iterations 1..n-1 of a disentangling build
    # are kept on the way to the final state and decoded only after the whole
    # circuit has simulated, so a build past the branch cap stops undecoded
    marks = set(checkpoints[:-1]) if spec.disentangling else set()
    prefix_states = {}
    for k, state in enumerate(simulator.evolve(circuit, initial)):
        if k in marks:
            prefix_states[k] = state
    branches = simulator.branch_table(state, circuit)

    final = _deviation(branches, expected_branches(spec, n, inputs))
    checks = [Check("branch_count", len(branches) == factorial(n), float(len(branches)),
                    float(factorial(n))),
              Check("replay_consistent", final < tol, final, tol)]
    if spec.disentangling:
        worst = max((_deviation(simulator.branch_table(prefix_states[checkpoints[i - 1]], circuit),
                                expected_branches(spec, i, inputs))
                     for i in range(1, n)), default=0.0)
        checks.append(Check("iteration_states", worst < tol, worst, tol))

    report = resource_report(spec, circuit=circuit)
    checks.append(Check("gate_count_formula", report.gates_consistent,
                        float(report.gates_measured), float(report.gates_formula)))
    if n > 1:
        # n = 1 is degenerate: the closed forms give 0 qubits while the
        # builder pads registers to width 1 to avoid zero-width registers
        checks.append(Check("qubit_count_formula", report.qubits_measured == report.qubits_formula,
                            float(report.qubits_measured), float(report.qubits_formula)))
    checks.append(Check("depth_within_cycle_bound", report.depth_bounded,
                        float(report.depth_measured), float(report.cycles_formula)))

    spec_dict = {"variant": spec.variant, "n": spec.n, "m": spec.m, "encoding": spec.encoding}
    return VerifyReport(spec_dict, seed, tuple(checks), all(c.passed for c in checks))
