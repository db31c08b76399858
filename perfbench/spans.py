"""Spans around the public functions of each qshuffle module.

The tracer replaces each function in TARGETS, at every name the package's
modules bind it to, with a wrapper that records one span: name, start, end
and the index of the enclosing span.  The benchmark opens the root span
(``cli.main``) around each CLI call; calls made outside a root span, such as
the benchmark's own checks, are not recorded.  Spans stay in memory, in
typed arrays, until ``save`` writes them when the run ends.

A layer's self time is the duration of its spans minus the part covered by
their direct child spans.  Every ``*_s`` metric below is a self time, so the
layer times of a pass add up to the time spent inside ``cli.main``.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import update_wrapper
from time import perf_counter

import numpy as np

AMPLITUDE_BYTES = 16  # complex128
ROOT = "cli.main"

# Per-layer metric -> (unit, the end-to-end metric it should move, and where).
_SIM = "verify_s and peak_rss_mb on verify-mix; simulate_s on lowered-sim; zero on compile-large"
_BUILD = "build_s and count_s on compile-large; a little on the others"
_LOWER = ("build_s on compile-large and lowered-sim; lowered_gates and lowered_depth "
          "if a rewrite changes")
_COUNT = "count_s on compile-large; a little verify_s on verify-mix"
LAYER_METRICS = {
    "simulator.run_s": ("s", _SIM),
    "simulator.run_calls": ("count", _SIM + "; on verify-mix it counts the prefix re-runs"),
    "simulator.gates_applied": ("count", _SIM),
    "simulator.bytes_moved_computed": ("B", _SIM),
    "simulator.nonzero_frac": ("ratio", _SIM),
    "simulator.branch_table_s": ("s", "verify_s on verify-mix; zero on compile-large"),
    "simulator.disentangle_s": ("s", "verify_s on verify-mix; zero on the others"),
    "simulator.sample_s": ("s", "simulate_s on lowered-sim; zero on the others"),
    "simulator.branches": ("count", "verify_s on verify-mix; zero on compile-large"),
    "cli.verify_self_s": ("s", "verify_s on verify-mix; zero on the others"),
    "cli.main_self_s": ("s", "every command a little: argument parsing, report printing"),
    "permutations.s": ("s", "verify_s on verify-mix"),
    "serialize.to_json_s": ("s", "build_s on compile-large; a little on lowered-sim"),
    "serialize.to_qasm_s": ("s", "build_s on compile-large; zero on the others"),
    "serialize.bytes_out": ("B", "build_s on compile-large; a little on lowered-sim"),
    "serialize.from_json_s": ("s", "simulate_s on lowered-sim; zero on the others"),
    "serialize.bytes_in": ("B", "simulate_s on lowered-sim; zero on the others"),
    "circuit.append_s": ("s", _BUILD),
    "circuit.appends": ("count", _BUILD),
    "builders.build_s": ("s", _BUILD),
    "builders.gates": ("count", _BUILD),
    "lowering.lower_s": ("s", _LOWER),
    "lowering.gates_in": ("count", _LOWER),
    "lowering.gates_out": ("count", _LOWER),
    "lowering.mcx_rewritten": ("count", _LOWER),
    "circuit.schedule_s": ("s", _COUNT),
    "circuit.layers": ("count", _COUNT),
    "resources.measure_s": ("s", _COUNT),
    "resources.report_s": ("s", _COUNT),
    "resources.formula_s": ("s", "count_s and table_s (per-row formulas) on compile-large; "
                                 "a little verify_s on verify-mix"),
    "resources.table_s": ("s", "table_s on compile-large; zero on the others, where "
                               "table_s is absent"),
    "resources.table_rows": ("count", "table_s on compile-large; zero on the others"),
    "trace.overhead_frac": ("ratio", "nothing: traced over untraced pass time, minus 1"),
}


def _arg(args, kwargs, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _count_run(tracer, args, kwargs, state) -> None:
    circuit = _arg(args, kwargs, 0, "circuit")
    upto = _arg(args, kwargs, 2, "upto")
    gates = len(circuit.gates) if upto is None else min(upto, len(circuit.gates))
    counts = tracer.counts
    counts["simulator.gates_applied"] += gates
    counts["simulator.bytes_moved_computed"] += gates * (1 << circuit.num_qubits) * AMPLITUDE_BYTES
    tracer.last_full_run = id(state) if upto is None else None


def _count_branches(tracer, args, kwargs, table) -> None:
    tracer.counts["simulator.branches"] += len(table)
    state = _arg(args, kwargs, 0, "state")
    if id(state) == tracer.last_full_run:  # the table of a full-length run
        tracer.counts["simulator.final_branches"] += len(table)
        tracer.counts["simulator.final_amplitudes"] += len(state)


def _count_bytes_out(tracer, args, kwargs, text) -> None:
    tracer.counts["serialize.bytes_out"] += len(text)


def _count_bytes_in(tracer, args, kwargs, circuit) -> None:
    tracer.counts["serialize.bytes_in"] += len(_arg(args, kwargs, 0, "text"))


def _count_layers(tracer, args, kwargs, layered) -> None:
    tracer.counts["circuit.layers"] += layered.depth


def _count_built(tracer, args, kwargs, built) -> None:
    tracer.counts["builders.gates"] += len(built[0])


def _count_lowered(tracer, args, kwargs, out) -> None:
    circuit = _arg(args, kwargs, 0, "circuit")
    tracer.counts["lowering.gates_in"] += len(circuit.gates)
    tracer.counts["lowering.gates_out"] += len(out.gates)
    if _arg(args, kwargs, 1, "level", "counting") == "full":
        # every X with >= 2 controls, counting the middle X of a controlled SWAP;
        # the only hook that is not O(1): one pass over the input gates
        tracer.counts["lowering.mcx_rewritten"] += sum(
            1 for g in circuit.gates
            if (g.primitive == "X" and len(g.controls) >= 2)
            or (g.primitive == "SWAP" and len(g.controls) >= 1))


def _count_rows(tracer, args, kwargs, rows) -> None:
    tracer.counts["resources.table_rows"] += len(rows)


# (module, function, self-time metric, counter hook)
TARGETS = (
    ("cli", "verify_spec", "cli.verify_self_s", None),
    ("simulator", "run", "simulator.run_s", _count_run),
    ("simulator", "branch_table", "simulator.branch_table_s", _count_branches),
    ("simulator", "assert_register_disentangled", "simulator.disentangle_s", None),
    ("simulator", "sample", "simulator.sample_s", None),
    ("permutations", "enumerate_sn", "permutations.s", None),
    ("permutations", "replay_reversed_fisher_yates", "permutations.s", None),
    ("permutations", "sample_fisher_yates", "permutations.s", None),
    ("permutations", "lemma1_extend", "permutations.s", None),
    ("permutations", "word_of_permutation", "permutations.s", None),
    ("serialize", "circuit_to_json", "serialize.to_json_s", _count_bytes_out),
    ("serialize", "circuit_to_qasm", "serialize.to_qasm_s", _count_bytes_out),
    ("serialize", "circuit_from_json", "serialize.from_json_s", _count_bytes_in),
    ("circuit", "Circuit.append", "circuit.append_s", None),
    ("circuit", "schedule_asap", "circuit.schedule_s", _count_layers),
    ("builders", "build", "builders.build_s", None),
    ("builders", "build_with_checkpoints", "builders.build_s", _count_built),
    ("lowering", "lower_circuit", "lowering.lower_s", _count_lowered),
    ("resources", "measure_circuit", "resources.measure_s", None),
    ("resources", "weighted_depth", "resources.measure_s", None),
    ("resources", "resource_report", "resources.report_s", None),
    ("resources", "qubit_count_formula", "resources.formula_s", None),
    ("resources", "gate_count_formula", "resources.formula_s", None),
    ("resources", "cycle_count_formula", "resources.formula_s", None),
    ("resources", "scaling_table", "resources.table_s", _count_rows),
)
# per-layer counts that are the number of spans of one function
SPAN_COUNTS = {"simulator.run_calls": "simulator.run", "circuit.appends": "circuit.Circuit.append"}


class Tracer:
    """In-memory span recorder.  ``entry`` is the traced form of the
    benchmark's entry call; ``install``/``uninstall`` put the wrappers of
    TARGETS in place and take them out again."""

    def __init__(self, entry):
        self.names: list[str] = []          # span name per name id
        self.metric_of: list[str] = []      # self-time metric per name id
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")           # -1 for a root span
        self.counts: Counter = Counter()
        self.last_full_run: int | None = None  # id of the last full-length run's state
        self.missing: list[str] = []        # TARGETS not found in the package
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self.entry = self._wrap(ROOT, "cli.main_self_s", entry, root=True)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qshuffle" or name.startswith("qshuffle.")]
        for module_name, attr, metric, hook in TARGETS:
            module = sys.modules.get(f"qshuffle.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", metric, original, hook)
            if owner_name:  # a method: callers look it up on the class
                targets = [(owner, fn_name)]
            else:           # a function: every module-level name bound to it
                targets = [(m, name) for m in modules
                           for name, value in vars(m).items() if value is original]
            self._bindings += [(target, name, original, wrapper) for target, name in targets]

    def _wrap(self, name: str, metric: str, fn, hook=None, root: bool = False):
        name_id = len(self.names)
        self.names.append(name)
        self.metric_of.append(metric)
        stack = self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents

        def traced(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                starts[index] = start
                stack.pop()
            if hook is not None:  # after the span ends: its time is the caller's
                hook(self, args, kwargs, result)
            return result

        return update_wrapper(traced, fn)

    def install(self) -> None:
        for target, name, _, wrapper in self._bindings:
            setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original, _ in self._bindings:
            setattr(target, name, original)

    def mark(self) -> tuple[int, Counter]:
        return len(self.starts), Counter(self.counts)

    def layer_values(self, begin: tuple[int, Counter], end: tuple[int, Counter]) -> dict:
        """Per-layer metrics of the spans recorded between two marks."""
        lo, hi = begin[0], end[0]
        starts = np.asarray(self.starts)
        durations = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=durations[nested], minlength=len(starts))
        ids = np.asarray(self.name_ids)[lo:hi]
        self_time = np.bincount(ids, weights=(durations - child)[lo:hi], minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        values = dict.fromkeys(LAYER_METRICS, 0)
        for name_id, metric in enumerate(self.metric_of):
            values[metric] += float(self_time[name_id])
        for metric, span_name in SPAN_COUNTS.items():
            if span_name in self.names:
                values[metric] = int(calls[self.names.index(span_name)])
        counts = end[1] - begin[1]
        for metric in LAYER_METRICS:
            if metric in counts:
                values[metric] = counts[metric]
        amplitudes = counts["simulator.final_amplitudes"]
        values["simulator.nonzero_frac"] = (
            counts["simulator.final_branches"] / amplitudes if amplitudes else 0.0)
        return values

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_ids),
                 start=np.asarray(self.starts), end=np.asarray(self.ends),
                 parent=np.asarray(self.parents))
