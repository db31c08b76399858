"""The verify suite: the index-domain replay model and failure reports."""

from math import sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle import simulator, verify
from qshuffle.builders import ENCODINGS, VARIANTS, BuildSpec, build_with_checkpoints
from qshuffle.permutations import replay_reversed_fisher_yates
from oracles import draw_sequences


def _scalar_model(spec, circuit, i, inputs):
    """Sorted basis indices of the branches before iteration i, one draw
    sequence at a time with the scalar replay."""
    n = spec.n
    indices = []
    for draws in draw_sequences(i):
        word = replay_reversed_fisher_yates(i, draws) + tuple(range(i, n))
        index = 0
        for k, w in enumerate(word):
            if spec.has_data:
                index |= inputs[w] << circuit.qubit("data", k, 0)
            if spec.has_perm:
                index |= w << circuit.qubit("perm", k, 0)
        if not spec.disentangling:
            for k in range(1, i):
                j = draws[k - 1]
                value = j if spec.encoding == "binary" else (0 if j == k else 1 << j)
                index |= value << circuit.qubit(f"anc{k}", 0, 0)
        indices.append(index)
    return sorted(indices)


@given(st.sampled_from(VARIANTS), st.sampled_from(ENCODINGS), st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_replay_models_match_the_scalar_replay(variant, encoding, n, m):
    spec = BuildSpec(variant, n, m if variant in ("B", "Bt", "C") else None, encoding)
    circuit, _ = build_with_checkpoints(spec)
    inputs = [k % (1 << m) for k in range(n)] if spec.has_data else None
    models = list(verify.replay_models(spec, circuit, inputs))
    assert [i for i, _ in models] == list(range(1, n + 1))
    for i, model in models:
        assert model.tolist() == _scalar_model(spec, circuit, i, inputs)


@pytest.mark.parametrize("spec", [BuildSpec(v, 4, 1 if v in ("B", "Bt", "C") else None, e)
                                  for v in VARIANTS for e in ENCODINGS],
                         ids=lambda spec: f"{spec.variant}-{spec.encoding}")
def test_passing_verify_decodes_no_branch(monkeypatch, spec):
    def refuse(*args, **kwargs):
        raise AssertionError("a passing verify decoded a branch")

    monkeypatch.setattr(simulator, "branch_table", refuse)
    monkeypatch.setattr(simulator, "decode_registers", refuse)
    report = verify.verify_spec(spec)
    assert report.overall is True
    assert all(c.detail is None for c in report.checks)


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_verify_checks_the_qubit_formula_at_n1(variant, encoding):
    report = verify.verify_spec(BuildSpec(variant, 1, 2 if variant in ("B", "Bt", "C") else None, encoding))
    checks = {c.name: c for c in report.checks}
    assert report.overall is True
    assert checks["qubit_count_formula"].passed
    assert checks["qubit_count_formula"].metric == checks["qubit_count_formula"].tolerance > 0


@pytest.mark.parametrize("spec,registers", [
    (BuildSpec("At", 4), {"perm": [0, 1, 2, 3], "anc1": [1], "anc2": [0], "anc3": [0]}),
    (BuildSpec("C", 4, 1), {"data": [0, 1, 0, 1], "anc1": [1], "anc2": [0], "anc3": [0]}),
], ids=["At-n4", "C-n4-m1"])
def test_entangling_gate_drop_fails_iteration_states(monkeypatch, spec, registers):
    # dropping the H that prepares draw 1 leaves one branch before iteration 2
    # where the model has two: the model branch of draw 1 is missing
    def broken(spec):
        circuit, checkpoints = build_with_checkpoints(spec)
        drop = checkpoints[0]
        assert circuit.gates[drop].primitive == "H"
        del circuit.gates[drop]
        return circuit, tuple(c - (c > drop) for c in checkpoints)

    decoded = []
    decode = simulator.decode_registers
    monkeypatch.setattr(verify, "build_with_checkpoints", broken)
    monkeypatch.setattr(simulator, "decode_registers", lambda *a: decoded.append(a) or decode(*a))
    report = verify.verify_spec(spec)
    checks = {c.name: c for c in report.checks}
    assert report.overall is False
    assert checks["iteration_states"].passed is False
    assert checks["replay_consistent"].passed is False
    assert len(decoded) == 2  # one decode per failed model check
    detail = checks["iteration_states"].detail
    assert detail["iteration"] == 2
    assert detail["registers"] == registers
    assert (detail["re"], detail["im"]) == (0.0, 0.0)
    assert detail["expected"] == pytest.approx(1 / sqrt(2))
    assert checks["replay_consistent"].detail["iteration"] == spec.n


def test_failure_detail_names_an_extra_branch(monkeypatch):
    # an extra X leaves every branch off the model: the worst index is a live
    # branch of the wrong state, with the model's amplitude 0 there
    def broken(spec):
        circuit, checkpoints = build_with_checkpoints(spec)
        circuit.gates.insert(0, circuit.gates[0])  # X perm[1].0 twice: perm[1] = 0
        return circuit, tuple(c + 1 for c in checkpoints)

    monkeypatch.setattr(verify, "build_with_checkpoints", broken)
    report = verify.verify_spec(BuildSpec("A", 3))
    detail = next(c for c in report.checks if c.name == "iteration_states").detail
    assert detail["iteration"] == 1
    assert detail["registers"] == {"perm": [0, 0, 2], "anc": [0]}
    assert (detail["re"], detail["im"], detail["expected"]) == (1.0, 0.0, 0.0)
