"""Invariant suite of one build: simulate it and check every defining equation."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import factorial, sqrt

from . import simulator
from .builders import BuildSpec, build_with_checkpoints
from .permutations import enumerate_sn, replay_reversed_fisher_yates
from .resources import resource_report

DEFAULT_SEED = 0
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    metric: float
    tolerance: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerifyReport:
    spec: dict
    seed: int
    checks: tuple[Check, ...]
    overall: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _data_inputs(spec: BuildSpec) -> list[int]:
    return [k % (1 << spec.m) for k in range(spec.n)]


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


def _expected_xi_branches(spec: BuildSpec, i: int, inputs: list[int] | None):
    """Branch table before iteration i of a disentangling build: the first i
    subregisters carry a uniform superposition over S_i, the rest are untouched."""
    n = spec.n
    expected = {}
    for word in enumerate_sn(i):
        perm = list(word) + list(range(i, n))
        key = ["perm"] + perm
        if spec.has_data:
            data = [inputs[word[k]] for k in range(i)] + [inputs[k] for k in range(i, n)]
            key += ["data"] + data
        expected[tuple(key)] = 1.0 / sqrt(factorial(i))
    return expected


def _xi_branch_key(spec: BuildSpec, registers: dict):
    key = ["perm"] + list(registers["perm"])
    if spec.has_data:
        key += ["data"] + list(registers["data"])
    return tuple(key)


def verify_spec(spec: BuildSpec, tol: float = DEFAULT_TOL, seed: int = DEFAULT_SEED) -> VerifyReport:
    """Run the full invariant suite for one build and collect pass/fail checks."""
    circuit, checkpoints = build_with_checkpoints(spec)
    n = spec.n
    inputs = _data_inputs(spec) if spec.has_data else None
    initial = {"data": inputs} if spec.has_data else None
    # one pass: branch tables of the states before iterations 1..n-1 of a
    # disentangling build are taken on the way to the final state
    marks = set(checkpoints[:-1]) if spec.disentangling else set()
    prefix_tables = {}
    for k, state in enumerate(simulator.evolve(circuit, initial)):
        if k in marks:
            prefix_tables[k] = simulator.branch_table(state, circuit)
    branches = simulator.branch_table(state, circuit)
    checks: list[Check] = []

    checks.append(Check("branch_count", len(branches) == factorial(n), float(len(branches)),
                        float(factorial(n))))
    target = 1.0 / sqrt(factorial(n))
    amp_dev = max(abs(abs(a) - target) for _, a in branches) if branches else 1.0
    checks.append(Check("amplitude_uniformity", amp_dev < tol, amp_dev, tol))

    if spec.disentangling:
        leak = 0.0
        ok = True
        for name in (r.name for r in circuit.registers if r.name.startswith("anc")):
            good, amount = simulator.assert_register_disentangled(state, circuit, name, tol)
            ok = ok and good
            leak = max(leak, amount)
        checks.append(Check("ancilla_disentangled", ok, leak, tol))
    else:
        ok = True
        for registers, _ in branches:
            try:
                word = replay_reversed_fisher_yates(n, decode_draws(spec, registers))
            except ValueError:
                ok = False
                break
            if spec.has_perm and tuple(registers["perm"]) != word:
                ok = False
            if spec.has_data and registers["data"] != [inputs[word[k]] for k in range(n)]:
                ok = False
        checks.append(Check("replay_consistent", ok, 0.0 if ok else 1.0, 0.0))

    if spec.has_perm:
        words = {tuple(registers["perm"]) for registers, _ in branches}
        complete = words == set(enumerate_sn(n))
        checks.append(Check("words_complete", complete, float(len(words)), float(factorial(n))))

    if spec.variant == "B":
        ok = all(registers["data"] == [inputs[w] for w in registers["perm"]]
                 for registers, _ in branches)
        checks.append(Check("data_matches_word", ok, 0.0 if ok else 1.0, 0.0))

    if spec.disentangling:
        worst = 0.0
        for i in range(1, n):
            expected = _expected_xi_branches(spec, i, inputs)
            table = prefix_tables[checkpoints[i - 1]]
            if len(table) != len(expected):
                worst = 1.0
                break
            for registers, amp in table:
                if any(v != 0 for v in registers["anc"]):
                    worst = 1.0
                    break
                want = expected.get(_xi_branch_key(spec, registers))
                if want is None:
                    worst = 1.0
                    break
                worst = max(worst, abs(amp - want))
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
