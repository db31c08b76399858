"""Run one workload in this interpreter and print its raw measurements.

run.py starts this file in a fresh interpreter for every run, so that the
import time and the peak memory it reports belong to one workload alone.
It runs passes of the workload until ``--seconds`` have been spent (at least
one pass), times every CLI call, checks every output, and prints one JSON
object as the last line of stdout.  Before every pass it times the set-up,
the import of qshuffle.cli, in fresh interpreters.  With
``--trace 1`` passes alternate between untraced and traced, starting
untraced; the untraced ones after the first are the base of the tracing
overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
MAX_SECONDS = 150  # never start another pass past this, whatever --seconds says
# Set-up is the import of qshuffle.cli in a fresh interpreter, timed a few
# times before every pass rather than all at once, so that a slow spell of
# the host sways only some of the samples.  The worker's own import has
# already written the bytecode.  Each sample times numpy's import and the
# package's own import after it apart: numpy's alone takes 0.10 s or
# 0.15-0.18 s on a 2-vCPU Xeon VM, switching with the host's load for
# minutes at a time as its BLAS thread starts fast or slow, which would hide
# any change in the package's own 0.02 s.
SETUP_SAMPLES = 3
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
              "import numpy; t1 = time.perf_counter(); import qshuffle.cli; "
              "t2 = time.perf_counter(); print(t2 - t1, t2 - t0)")

# Between calls the heap is trimmed (glibc only), so that memory an earlier
# call freed but the allocator kept does not count in a later call's peak,
# as it would not when every CLI call is its own process.
malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
if malloc_trim is not None:
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int


def known_defect(known_defects, label: str, error: str | None) -> str | None:
    """The known defect that explains this failure: same call, same error text."""
    if error is None or label not in known_defects:
        return None
    reason, signature = known_defects[label]
    return reason if error == signature else None


def run_pass(main, ops, known_defects) -> list[dict]:
    """Run one pass; one record per CLI call, in call order."""
    records = []
    for op in ops:
        out = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = main(op.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crashing call is one failed operation
            traceback.print_exc()
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        outcome = None
        if error is None:
            try:
                outcome = op.check(rc, out.getvalue())
                error = outcome.error
            except (ValueError, KeyError, TypeError, IndexError, StopIteration, OSError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if malloc_trim is not None:
            malloc_trim(0)
        records.append({
            "command": op.command, "label": op.label, "seconds": seconds, "error": error,
            "known_defect": known_defect(known_defects, op.label, error),
            "lowered_gates": outcome.lowered_gates if outcome else 0,
            "lowered_depth": outcome.lowered_depth if outcome else 0,
            "lowered_negctrl": outcome.lowered_negctrl if outcome else 0,
        })
    return records


def time_setup(src: Path) -> tuple[float, float]:
    """Import time of qshuffle.cli in a fresh interpreter: the package's own
    part, with numpy already imported, and the whole."""
    done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(src)],
                          stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    own, whole = map(float, done.stdout.split())
    return own, whole


def pass_seconds(one_pass: dict) -> float:
    return sum(call["seconds"] for call in one_pass["calls"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path[:0] = [str(src), str(HERE)]
    import qshuffle.cli
    if not Path(qshuffle.cli.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"qshuffle was imported from {qshuffle.cli.__file__}, not from {src}\n")
        return 3
    import numpy as np
    import workloads
    from spans import Tracer

    rng = random.Random(args.seed)
    make_ops = workloads.WORKLOADS[args.workload]
    workdir = args.root / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer(qshuffle.cli.main) if args.trace else None
    passes, layers = [], []
    try:
        begin = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            ops = make_ops(rng, workdir)
            setup = [time_setup(src) for _ in range(SETUP_SAMPLES)]
            if traced:
                tracer.install()
                mark = tracer.mark()
            try:
                calls = run_pass(tracer.entry if traced else qshuffle.cli.main, ops,
                                 workloads.KNOWN_DEFECTS)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append({"traced": traced, "calls": calls, "setup_s": [s for s, _ in setup],
                           "import_s": [i for _, i in setup]})
            if traced:
                layers.append(tracer.layer_values(mark, tracer.mark()))
            elapsed = time.perf_counter() - begin
            if elapsed >= min(args.seconds, MAX_SECONDS) and (tracer is None or layers):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": args.workload, "seed": args.seed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__, "passes": passes,
    }
    if tracer is not None:
        spans_path = args.root / ".perfbench" / f"spans-{args.workload}.npz"
        tracer.save(spans_path)
        # the first pass pays cold-start costs; it is the base only when alone
        untraced = [pass_seconds(p) for p in passes[1:] if not p["traced"]] \
            or [pass_seconds(passes[0])]
        traced = statistics.median(pass_seconds(p) for p in passes if p["traced"])
        result["trace"] = {
            "layers": {metric: statistics.median(values[metric] for values in layers)
                       for metric in layers[0]} | {"trace.overhead_frac": traced / statistics.median(untraced) - 1},
            "spans": len(tracer.starts), "spans_file": str(spans_path),
            "missing": tracer.missing,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
