"""The public names of ``qshuffle/__init__.py``, pinned: narrowing or widening
the package API must show up as an edit to this list."""

import types

import qshuffle

PUBLIC = [
    "BuildSpec", "Circuit", "Control", "CostProfile", "Gate", "Register",
    "ResourceReport", "SimulationCapExceeded", "branch_table", "build", "build_prep",
    "build_with_checkpoints", "circuit_from_json", "circuit_to_json", "circuit_to_qasm",
    "count_primitives", "cycle_count_formula", "eliminate_negative_controls",
    "gate_count_formula", "init_identity_word", "lower_circuit", "lower_mcx",
    "lower_toffoli", "prep_counts", "qubit_count_formula",
    "resource_report", "run", "sample", "scaling_table",
    "u_gates", "v_gates",
    "value_controls",
]


def test_public_names_are_pinned():
    # submodules become package attributes as other code imports them, so they are not counted
    names = [n for n, v in vars(qshuffle).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert sorted(names) == PUBLIC
    assert qshuffle.__version__ == "0.1.0"
