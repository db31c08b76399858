"""Command-line interface.

Subcommands: build, simulate, verify, count, table, sample, prep.
Exit codes: 0 success, 1 verification failure, 2 size cap (a simulation of
more than 63 qubits, which ``simulate`` refuses once a file's register table
is read and before any gate is built, or of more than simulator.MAX_BRANCHES
live branches, a build, count or verify of more than MAX_GATES counting-level
gates, a prep of more than MAX_GATES gates, a table of more than MAX_ROWS
rows, a simulate of more than MAX_SHOTS shots, or a sample of more than
MAX_SHOTS word entries),
64 usage error (a bad cost profile too), 74 I/O error or malformed circuit
file.  ``--out FILE`` writes a command's output to FILE; ``--out -`` or no
``--out`` writes it to stdout.

``main(argv)`` may be called repeatedly in one process: it builds its parser on
its first call and reuses it for every later call.  The parser keeps no state
between calls, and nothing else a call makes outlives it; ``build_parser()``
returns a new parser each time.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import simulator
from .builders import VARIANTS, BuildSpec, build
from .circuit import plain_int
from .lowering import lower_circuit
from .prep import ENCODINGS, build_prep
from .resources import CostProfile, gate_count_formula, prep_counts, resource_report, scaling_table
from .serialize import circuit_to_json, circuit_to_qasm, read_gates, read_registers
from .simulator import SimulationCapExceeded
from .verify import DEFAULT_SEED, DEFAULT_TOL, verify_spec

EX_OK, EX_FAIL, EX_CAP = 0, 1, 2
EX_USAGE, EX_IOERR = 64, 74
MAX_GATES = 10**6  # counting-level gates a build, count or verify may have, and gates of a prep
MAX_ROWS = 10**5  # rows a table may have
MAX_SHOTS = 10**6  # shots a simulate may sample, and word entries (n x shots) a sample may draw
PROG = "qshuffle"  # prefix of the refusals that are not argparse usage errors


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def _at_least(least: int):
    """The type of an integer option: a plain decimal (``circuit.plain_int``)
    of at least ``least``."""
    def read(text: str) -> int:
        value = plain_int(text)
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}")
        return value
    return read


def _add_spec_arguments(parser):
    parser.add_argument("--variant", required=True, choices=VARIANTS)
    parser.add_argument("--n", required=True, type=_at_least(1))
    parser.add_argument("--m", type=_at_least(1), default=None)
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
    if path is None or path == "-":
        sys.stdout.write(text)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_profile(parser, path: str | None) -> CostProfile:
    if path is None:
        return CostProfile()
    with open(path, encoding="utf-8") as handle:
        try:
            return CostProfile.from_dict(json.load(handle))
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
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
    gates = prep_counts(args.i, args.encoding)[0]
    if gates > MAX_GATES:
        parser.exit(EX_CAP, f"{PROG}: prep --i {args.i} has {gates} gates, "
                            f"over the size cap of {MAX_GATES}\n")
    circuit = build_prep(args.i, args.encoding)
    _emit_circuit(circuit, args.format, args.out)
    return EX_OK


def cmd_simulate(parser, args) -> int:
    if args.shots > MAX_SHOTS:
        parser.exit(EX_CAP, f"{PROG}: simulate --shots {args.shots} is over the shot cap of {MAX_SHOTS}\n")
    with open(args.circuit, encoding="utf-8") as handle:
        try:
            circuit, records = read_registers(handle.read())
            simulator.check_width(circuit)  # before any gate is built
            circuit = read_gates(circuit, records)
        except SimulationCapExceeded:
            raise
        except (KeyError, TypeError, ValueError, RecursionError) as exc:  # Unicode/JSONDecodeError too
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
        decode = simulator.decoder(circuit)
        rows = sorted((list(decode(index).values()), count)
                      for index, count in simulator.sample(state, args.shots, args.seed).items())
        payload["histogram"] = {"|".join(f"{r.name}=" + ",".join(map(str, subs))
                                         for r, subs in zip(circuit.registers, values)): count
                                for values, count in rows}
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
    if args.n_max - 1 > MAX_ROWS:
        parser.exit(EX_CAP, f"{PROG}: table to n={args.n_max} has {args.n_max - 1} rows, "
                            f"over the row cap of {MAX_ROWS}\n")
    try:
        rows = scaling_table(args.variant, range(2, args.n_max + 1), args.m, args.encoding, profile)
    except ValueError as exc:
        parser.error(str(exc))
    lines = ["n,qubits,gates,cycles"]
    lines += [f"{n},{q},{g},{c}" for n, q, g, c in rows]
    _write_output("\n".join(lines) + "\n", args.out)
    return EX_OK


def cmd_sample(parser, args) -> int:
    if args.n * args.shots > MAX_SHOTS:
        parser.exit(EX_CAP, f"{PROG}: sample --n {args.n} --shots {args.shots} draws "
                            f"{args.n * args.shots} entries, over the shot cap of {MAX_SHOTS}\n")
    if not args.shots:  # n x 0 passes the cap at any n: build no step range of n entries
        _write_output("", args.out)
        return EX_OK
    # the Fisher-Yates shuffle of the identity word: step i exchanges entries i
    # and j, j uniform in 0..i; forward walks i = n-1 .. 1 (Durstenfeld),
    # reversed i = 1 .. n-1.  One call draws every j, word after word; with
    # every bound below 2^32 (the cap sees to it) numpy gives the same stream
    # as one scalar draw per step
    steps = range(args.n - 1, 0, -1) if args.direction == "forward" else range(1, args.n)
    highs = np.tile(np.add(steps, 1), args.shots)
    draws = iter(np.random.default_rng(args.seed).integers(0, highs).tolist())
    identity, lines = [str(k) for k in range(args.n)], []  # a word is shuffled as its entries' text
    for _ in range(args.shots):
        word = identity[:]
        for i, j in zip(steps, draws):
            word[j], word[i] = word[i], word[j]
        lines.append("[" + ", ".join(word) + "]\n")
    _write_output("".join(lines), args.out)
    return EX_OK


def _command(sub, name: str, func, help: str) -> _Parser:
    """A subcommand parser; ``main`` hands it to ``func``, so its usage errors name it."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func, parser=p)
    return p


def build_parser() -> _Parser:
    # --help describes the command line; the docstring's last paragraph is about main
    parser = _Parser(prog=PROG, description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = _command(sub, "build", cmd_build, "emit a shuffle circuit as JSON or OpenQASM")
    _add_spec_arguments(p)
    p.add_argument("--format", choices=("json", "qasm"), default="json")
    p.add_argument("--lower", choices=("counting", "full"), default="counting")
    p.add_argument("--mcx", choices=("clean", "borrowed"), default="borrowed")

    p = _command(sub, "prep", cmd_prep, "emit a uniform superposition prep fragment")
    p.add_argument("--i", required=True, type=_at_least(1))
    p.add_argument("--encoding", choices=ENCODINGS, default="binary")
    p.add_argument("--format", choices=("json", "qasm"), default="json")

    p = _command(sub, "simulate", cmd_simulate, "simulate a circuit file, list branches")
    p.add_argument("--circuit", required=True)
    p.add_argument("--shots", type=_at_least(0), default=0)
    p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)

    p = _command(sub, "verify", cmd_verify, "simulate a build and check every invariant")
    _add_spec_arguments(p)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)

    p = _command(sub, "count", cmd_count, "formula vs measured resource report")
    _add_spec_arguments(p)
    p.add_argument("--profile", default=None)

    p = _command(sub, "table", cmd_table, "formula scaling table as CSV")
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--n-max", required=True, type=_at_least(2))
    p.add_argument("--m", type=_at_least(1), default=None)
    p.add_argument("--encoding", choices=ENCODINGS, default="binary")
    p.add_argument("--profile", default=None)

    p = _command(sub, "sample", cmd_sample, "classical Fisher-Yates word samples, one JSON array per line")
    p.add_argument("--n", required=True, type=_at_least(1))
    p.add_argument("--shots", type=_at_least(0), default=1)
    p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    p.add_argument("--direction", choices=("forward", "reversed"), default="reversed")

    for p in sub.choices.values():  # every subcommand's last option
        p.add_argument("--out", default=None)
    return parser


@functools.cache
def _main_parser() -> _Parser:
    """``main``'s parser, built on its first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _main_parser().parse_args(argv)
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
