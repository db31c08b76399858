"""The benchmark's workloads: one pass of CLI calls each, built from a seed.

Each workload is one closed-loop client that runs ``qshuffle.cli.main(argv)``
in-process, one call after the other.  A pass is the workload's whole
command list.  The seed sets the order of the calls in each pass, the
``--seed`` of every ``simulate`` and the random nonnegative cost profiles of
the calls marked ``seeded`` below.  Costs change only the arithmetic, never
how much work a pass does.

Why these workloads:

* ``verify-mix`` spends its time in ``simulator`` and in the checks of
  ``cli.verify_spec``.  It covers every variant and both encodings, from
  many-branch/narrow inputs (C n=7: 5,040 branches, 21 qubits) to
  few-branch/wide ones (Bt n=4 m=2 onehot: 24 branches, 22 qubits).  The
  dense state runs from 128 KiB, inside L2, to 64 MiB, far past it.
* ``lowered-sim`` simulates fully lowered circuits: narrow, with thousands
  of gates whose H/RZ Toffoli networks branch and re-merge the state.  It is
  the only workload that loads circuit JSON and samples shots.  It keeps A
  n=5 ``--mcx clean``, whose lowering is wrong today (KNOWN_DEFECTS).
* ``compile-large`` runs no simulation.  It loads ``builders``, ``circuit``,
  ``lowering``, ``resources`` and ``serialize`` at sizes the simulator cannot
  reach; JSON encoding and the quadratic C table are both visible here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
from checks import Spec

SHOTS = 1000


@dataclass(frozen=True)
class Op:
    """One CLI call and the check of its output."""

    command: str
    label: str
    argv: list[str]
    check: Callable[[int, str], checks.Outcome]


# Output failures the benchmark expects today: call label -> (reason, the
# exact error its check reports).  They still count as failed operations;
# they leave the run correct only while the error text is exactly this one.
# Of the 120 branches, 112 distinct ``perm`` values appear, 84 of them words
# of S_5; the other 36 branches hold no permutation at all.
KNOWN_DEFECTS = {
    "simulate A n=5 binary full clean": (
        "clean-mode MCX lowering borrows idle qubits that are not |0>",
        "84 of 120 words of S_5 (112 distinct); 42 branches with nonzero ancilla; "
        "36 branches inconsistent with their word"),
}

VERIFY_SPECS = (
    Spec("A", 6), Spec("A", 5, encoding="onehot"), Spec("At", 4), Spec("B", 4, 2),
    Spec("Bt", 4, 2, "onehot"), Spec("C", 7, 1), Spec("C", 5, 2, "onehot"),
)

LOWERED_SPECS = (  # (spec, --mcx)
    (Spec("A", 5), "borrowed"), (Spec("A", 5), "clean"), (Spec("At", 4), "borrowed"),
    (Spec("B", 4, 1), "clean"), (Spec("Bt", 3, 2, "onehot"), "borrowed"),
    (Spec("C", 5, 1), "borrowed"), (Spec("C", 4, 2, "onehot"), "clean"),
)

COMPILE_BUILDS = (  # (spec, --lower, --mcx, --format)
    (Spec("A", 48), "counting", None, "json"),
    (Spec("B", 24, 8), "counting", None, "qasm"),
    (Spec("At", 32, encoding="onehot"), "counting", None, "json"),
    (Spec("A", 12), "full", "borrowed", "json"),
    (Spec("Bt", 12, 4), "full", "clean", "qasm"),
)
COMPILE_COUNTS = ((Spec("A", 64), "unit"), (Spec("C", 48, 8), "seeded"))
COMPILE_TABLES = (  # Spec.n is --n-max
    (Spec("A", 10_000), "unit"), (Spec("At", 5_000, encoding="onehot"), "seeded"),
    (Spec("C", 5_000, 4), "unit"),
)


def random_profile(rng: random.Random) -> dict:
    """A nonnegative cost profile in the CLI's ``--profile`` format."""
    profile = {key: rng.randint(0, 9) for key in ("X", "H", "RY", "RZ", "CX", "CH", "CRY")}
    profile["mcx_rule"] = rng.choice(("unit", "derived"))
    profile["mcx"] = {str(arity): rng.randint(0, 40) for arity in (2, 3, 4) if rng.random() < 0.5}
    return profile


def _profile_argv(kind: str, rng: random.Random, path: Path) -> tuple[list[str], dict | None]:
    if kind == "unit":
        return [], None
    profile = random_profile(rng)
    path.write_text(json.dumps(profile), encoding="utf-8")
    return ["--profile", str(path)], profile


def verify_mix(rng: random.Random, workdir: Path) -> list[Op]:
    ops = [Op("verify", f"verify {spec}", ["verify", *spec.argv()],
              partial(checks.verified, spec=spec))
           for spec in VERIFY_SPECS]
    rng.shuffle(ops)
    return ops


def lowered_sim(rng: random.Random, workdir: Path) -> list[Op]:
    pairs = list(LOWERED_SPECS)
    rng.shuffle(pairs)
    ops = []
    for k, (spec, mcx) in enumerate(pairs):
        path = workdir / f"lowered-{k}.json"
        ops.append(Op("build", f"build {spec} full {mcx}",
                      ["build", *spec.argv(), "--lower", "full", "--mcx", mcx, "--out", str(path)],
                      partial(checks.built, path=path, spec=spec, level="full", fmt="json")))
        ops.append(Op("simulate", f"simulate {spec} full {mcx}",
                      ["simulate", "--circuit", str(path), "--shots", str(SHOTS),
                       "--seed", str(rng.randrange(2 ** 31))],
                      partial(checks.simulated, spec=spec, shots=SHOTS)))
    return ops


def compile_large(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for k, (spec, level, mcx, fmt) in enumerate(COMPILE_BUILDS):
        path = workdir / f"compile-{k}.{fmt}"
        argv = ["build", *spec.argv(), "--lower", level, "--format", fmt, "--out", str(path)]
        if mcx is not None:
            argv += ["--mcx", mcx]
        label = f"build {spec} {level}" + (f" {mcx}" if mcx else "") + f" {fmt}"
        ops.append(Op("build", label, argv,
                      partial(checks.built, path=path, spec=spec, level=level, fmt=fmt)))
    for k, (spec, kind) in enumerate(COMPILE_COUNTS):
        extra, _ = _profile_argv(kind, rng, workdir / f"count-profile-{k}.json")
        ops.append(Op("count", f"count {spec} {kind}", ["count", *spec.argv(), *extra],
                      partial(checks.counted, spec=spec)))
    for k, (spec, kind) in enumerate(COMPILE_TABLES):
        extra, profile = _profile_argv(kind, rng, workdir / f"table-profile-{k}.json")
        argv = ["table", "--variant", spec.variant, "--n-max", str(spec.n),
                "--encoding", spec.encoding, *extra]
        if spec.m is not None:
            argv += ["--m", str(spec.m)]
        m = f" m={spec.m}" if spec.m else ""
        label = f"table {spec.variant} to n={spec.n}{m} {spec.encoding} {kind}"
        ops.append(Op("table", label, argv,
                      partial(checks.tabled, spec=spec, profile=profile)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"verify-mix": verify_mix, "lowered-sim": lowered_sim, "compile-large": compile_large}
