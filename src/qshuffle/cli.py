"""Command-line interface.

Subcommands: build, simulate, verify, count, table, sample, prep.
Exit codes: 0 success, 1 verification failure, 2 size cap (a simulation of
more than 63 qubits or more than simulator.MAX_BRANCHES live branches, or a
build, count or verify of more than MAX_GATES counting-level gates), 64 usage
error, 74 I/O error or malformed circuit file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import islice

import numpy as np

from . import simulator
from .builders import ENCODINGS, VARIANTS, BuildSpec, build
from .lowering import lower_circuit
from .permutations import sample_fisher_yates
from .prep import build_u, build_v
from .resources import CostProfile, gate_count_formula, resource_report, scaling_table
from .serialize import circuit_from_json, circuit_to_json, circuit_to_qasm
from .simulator import SimulationCapExceeded
from .verify import DEFAULT_SEED, DEFAULT_TOL, verify_spec

EX_OK, EX_FAIL, EX_CAP = 0, 1, 2
EX_USAGE, EX_IOERR = 64, 74
MAX_GATES = 10**6  # counting-level gates a build, count or verify may have
PROG = "qshuffle"  # prefix of the refusals that are not argparse usage errors


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def _add_spec_arguments(parser):
    parser.add_argument("--variant", required=True, choices=VARIANTS)
    parser.add_argument("--n", required=True, type=int)
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--encoding", choices=ENCODINGS, default="binary")


def _make_spec(parser, args) -> BuildSpec:
    try:
        spec = BuildSpec(args.variant, args.n, args.m, args.encoding)
    except ValueError as exc:
        parser.error(str(exc))
    # every variant spends at least 3 gates per swap pair j < i: refuse in O(1)
    least = 3 * spec.n * (spec.n - 1) // 2
    if least > MAX_GATES:
        parser.exit(EX_CAP, f"{PROG}: {spec.variant} n={spec.n} has at least {least} gates, "
                            f"over the size cap of {MAX_GATES}\n")
    gates = gate_count_formula(spec.variant, spec.n, spec.m, spec.encoding)
    if gates > MAX_GATES:
        parser.exit(EX_CAP, f"{PROG}: {spec.variant} n={spec.n} has {gates} gates, "
                            f"over the size cap of {MAX_GATES}\n")
    return spec


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_profile(parser, path: str | None) -> CostProfile:
    if path is None:
        return CostProfile.unit()
    with open(path, encoding="utf-8") as handle:
        try:
            return CostProfile.from_dict(json.load(handle))
        except ValueError as exc:
            parser.exit(EX_USAGE, f"{PROG}: bad cost profile {path}: {exc}\n")


def _emit_circuit(circuit, fmt: str, out: str | None):
    text = circuit_to_json(circuit) if fmt == "json" else circuit_to_qasm(circuit)
    _write_output(text, out)


def cmd_build(parser, args) -> int:
    spec = _make_spec(parser, args)
    circuit = build(spec)
    if args.lower == "full":
        circuit = lower_circuit(circuit, "full", args.mcx)
    _emit_circuit(circuit, args.format, args.out)
    return EX_OK


def cmd_prep(parser, args) -> int:
    if args.i < 1:
        parser.error("--i must be >= 1")
    circuit = build_u(args.i) if args.encoding == "binary" else build_v(args.i)
    _emit_circuit(circuit, args.format, args.out)
    return EX_OK


def cmd_simulate(parser, args) -> int:
    if args.shots < 0:
        parser.error("--shots must be >= 0")
    with open(args.circuit, encoding="utf-8") as handle:
        text = handle.read()
    try:
        circuit = circuit_from_json(text)
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        sys.stderr.write(f"cannot read circuit {args.circuit}: {exc}\n")
        return EX_IOERR
    state = simulator.run(circuit)
    branches = simulator.branch_table(state, circuit)
    payload = {
        "seed": args.seed,
        "branches": [
            {"registers": registers, "re": amp.real, "im": amp.imag}
            for registers, amp in branches
        ],
    }
    if args.shots:
        histogram = simulator.sample(state, args.shots, args.seed, circuit)
        counts = {}
        for key, count in sorted(histogram.items()):
            values = iter(key)  # the subregister values of every register, in order
            counts["|".join(f"{r.name}=" + ",".join(map(str, islice(values, r.count)))
                            for r in circuit.registers)] = count
        payload["histogram"] = counts
    _write_output(json.dumps(payload, indent=2), args.out)
    return EX_OK


def cmd_verify(parser, args) -> int:
    spec = _make_spec(parser, args)
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        parser.exit(EX_USAGE, f"{PROG}: --tolerance must be a finite number > 0, "
                              f"got {args.tolerance}\n")
    report = verify_spec(spec, tol=args.tolerance, seed=args.seed)
    _write_output(json.dumps(report.to_dict(), indent=2), args.out)
    return EX_OK if report.overall else EX_FAIL


def cmd_count(parser, args) -> int:
    spec = _make_spec(parser, args)
    profile = _load_profile(parser, args.profile)
    report = resource_report(spec, profile)
    _write_output(json.dumps(report.to_dict(), indent=2), args.out)
    return EX_OK


def cmd_table(parser, args) -> int:
    profile = _load_profile(parser, args.profile)
    if args.n_max < 2:
        parser.error("--n-max must be >= 2")
    try:
        rows = scaling_table(args.variant, range(2, args.n_max + 1), args.encoding,
                             args.m, profile)
    except ValueError as exc:
        parser.error(str(exc))
    lines = ["n,qubits,gates,cycles"]
    lines += [f"{n},{q},{g},{c}" for n, q, g, c in rows]
    _write_output("\n".join(lines) + "\n", args.out)
    return EX_OK


def cmd_sample(parser, args) -> int:
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.shots < 0:
        parser.error("--shots must be >= 0")
    rng = np.random.default_rng(args.seed)
    out = []
    for _ in range(args.shots):
        word = sample_fisher_yates(args.n, rng, args.direction)
        out.append(json.dumps(list(word)))
    _write_output("\n".join(out) + "\n", args.out)
    return EX_OK


def _command(sub, name: str, func, help: str) -> _Parser:
    """A subcommand parser; ``main`` hands it to ``func``, so its usage errors name it."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func, parser=p)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = _command(sub, "build", cmd_build, "emit a shuffle circuit as JSON or OpenQASM")
    _add_spec_arguments(p)
    p.add_argument("--format", choices=("json", "qasm"), default="json")
    p.add_argument("--lower", choices=("counting", "full"), default="counting")
    p.add_argument("--mcx", choices=("clean", "borrowed"), default="borrowed")
    p.add_argument("--out", default=None)

    p = _command(sub, "prep", cmd_prep, "emit a uniform superposition prep fragment")
    p.add_argument("--i", required=True, type=int)
    p.add_argument("--encoding", choices=ENCODINGS, default="binary")
    p.add_argument("--format", choices=("json", "qasm"), default="json")
    p.add_argument("--out", default=None)

    p = _command(sub, "simulate", cmd_simulate, "simulate a circuit file, list branches")
    p.add_argument("--circuit", required=True)
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)

    p = _command(sub, "verify", cmd_verify, "simulate a build and check every invariant")
    _add_spec_arguments(p)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None)

    p = _command(sub, "count", cmd_count, "formula vs measured resource report")
    _add_spec_arguments(p)
    p.add_argument("--profile", default=None)
    p.add_argument("--out", default=None)

    p = _command(sub, "table", cmd_table, "formula scaling table as CSV")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--n-max", required=True, type=int)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--encoding", choices=ENCODINGS, default="binary")
    p.add_argument("--profile", default=None)
    p.add_argument("--out", default=None)

    p = _command(sub, "sample", cmd_sample, "classical Fisher-Yates word samples, one JSON array per line")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--shots", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--direction", choices=("forward", "reversed"), default="reversed")
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args.parser, args)
    except SimulationCapExceeded as exc:
        sys.stderr.write(f"{exc}\n")
        return EX_CAP
    except OSError as exc:
        sys.stderr.write(f"{exc}\n")
        return EX_IOERR


if __name__ == "__main__":
    sys.exit(main())
