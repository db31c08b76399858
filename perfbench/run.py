"""Benchmark of the qshuffle CLI: run one workload, check it, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {verify-mix,lowered-sim,compile-large} \\
        --seed N --seconds S --trace {0,1}

The workload runs in a fresh interpreter (worker.py) against ``src/`` of the
checkout, with BLAS/OpenMP threads capped at ``nproc``.  Every CLI output is
checked by the benchmark's own code (checks.py).  The lines printed before
the last one name every metric with its unit; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A full record of the run, with the machine it
ran on, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from spans import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT = 175  # seconds a whole run may take
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
COMMANDS = ("verify", "simulate", "build", "count", "table")


def machine(numpy_version: str) -> dict:
    """Python and numpy versions, nproc, CPU model and L2 size."""
    info = {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": "unknown", "l2": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in handle
                               if line.startswith("model name"))
        for cache in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (cache / "level").read_text().strip() == "2":
                info["l2"] = (cache / "size").read_text().strip() + " per core"
    except (OSError, StopIteration):
        pass
    return info


def thread_capped_env(nproc: int) -> dict:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        current = env.get(name, "")
        env[name] = str(min(int(current), nproc) if current.isdigit() else nproc)
    return env


def spread(samples: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g} over {n} samples"
    if n > 10:
        k = n - 10  # the k-th smallest has n - k = 10 samples above it
        text += f", p{100 * k // n} {ordered[k - 1]:.6g}"
    else:
        text += ", no percentile has ten samples beyond it"
    return text


def summarize(result: dict) -> dict:
    """End-to-end metrics and the reports printed around them."""
    passes = [p["calls"] for p in result["passes"] if not p["traced"]]
    calls = [c for p in result["passes"] for c in p["calls"]]
    times: dict[tuple[str, str], list[float]] = {}
    for p in passes:
        for c in p:
            times.setdefault((c["command"], c["label"]), []).append(c["seconds"])
    # One pass is timed from each call's median over the run's passes, so a
    # slow spell in one call of one pass does not move it.
    medians = {key: statistics.median(t) for key, t in times.items()}
    failed = [c for c in calls if c["error"]]
    setup = [t for p in result["passes"] for t in p["setup_s"]]
    imports = [t for p in result["passes"] for t in p["import_s"]]
    metrics = {
        "pass_s": sum(medians.values()),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }
    pass_times = [sum(c["seconds"] for c in p) for p in passes]
    samples = {"pass_s": "passes as run: " + spread(pass_times),
               "setup_s": "numpy already imported: " + spread(setup)}
    commands = {
        f"{command}_s": (sum(m for (cmd, _), m in medians.items() if cmd == command),
                         [c["seconds"] for p in passes for c in p if c["command"] == command])
        for command in COMMANDS}
    lowered = {key: statistics.median(sum(c[key] for c in p) for p in passes)
               for key in ("lowered_gates", "lowered_depth", "lowered_negctrl")}
    return {
        "metrics": metrics, "samples": samples, "commands": commands,
        "import_s": (statistics.median(imports), spread(imports)), "lowered": lowered,
        "error_rate": len(failed) / len(calls), "attempted": len(calls), "failed": len(failed),
        "unexpected": [c for c in failed if not c["known_defect"]],
        "failures": sorted({(c["label"], c["error"], c["known_defect"]) for c in failed}),
        "ops": {label: m for (_, label), m in medians.items()},
    }


def report(args, info: dict, result: dict, summary: dict) -> dict:
    """Print every metric by name and unit; return the final line's metrics."""
    traced = sum(p["traced"] for p in result["passes"])
    print(f"workload {args.workload} seed {args.seed}: {len(result['passes'])} passes "
          f"({traced} traced), {summary['attempted']} calls, "
          "one closed-loop client in one process")
    print("machine " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for name, value in summary["metrics"].items():
        detail = summary["samples"].get(name, "")
        print(f"metric {name} {value:.6g} {END_TO_END[name]}  {detail}")
    value, detail = summary["import_s"]
    print(f"metric import_s {value:.6g} s  (set-up with numpy's import: {detail})")
    for name, (value, per_call) in summary["commands"].items():
        detail = f"per call: {spread(per_call)}" if per_call else "no such calls in this workload"
        print(f"metric {name} {value:.6g} s  (per pass; {detail})")
    print(f"metric error_rate {summary['error_rate']:.6g} ratio  "
          f"({summary['failed']} failed of {summary['attempted']} attempted)")
    for name, value in summary["lowered"].items():
        print(f"metric {name} {value} count  (full-lowering outputs of one pass)")
    for label, error, known in summary["failures"]:
        print(f"failed {label}: {error}" + (f"  [known defect: {known}]" if known else ""))
    for label, seconds in summary["ops"].items():
        print(f"call {seconds:9.4f} s  {label}")
    if not args.trace:
        return summary["metrics"]
    trace = result["trace"]
    layers = trace["layers"]
    print(f"trace: {trace['spans']} spans written to {trace['spans_file']}; "
          f"overhead {layers['trace.overhead_frac']:+.1%} against the untraced passes")
    for name in trace["missing"]:
        print(f"trace: {name} not found in the package, its metric reads 0")
    for name, (unit, prediction) in LAYER_METRICS.items():
        print(f"layer {name} {layers[name]:.6g} {unit}  predicted to move: {prediction}")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qshuffle" / "cli.py").is_file():
        sys.stderr.write(f"no qshuffle sources under {src}; run from the root of a checkout\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = thread_capped_env(nproc)
    try:
        done = subprocess.run(
            [sys.executable, "-I", str(HERE / "worker.py"), "--root", str(ROOT),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, stdout=subprocess.PIPE, text=True, timeout=TIME_LIMIT)
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1
    if done.returncode != 0:
        sys.stderr.write(f"worker exited with code {done.returncode}\n")
        return 1
    result = json.loads(done.stdout.splitlines()[-1])
    info = machine(result["numpy"]) | {"threads": env["OMP_NUM_THREADS"]}
    summary = summarize(result)
    metrics = report(args, info, result, summary)

    record = {"args": vars(args), "machine": info, "result": result,
              "summary": {k: v for k, v in summary.items() if k != "unexpected"}}
    out = ROOT / ".perfbench" / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    units = dict(END_TO_END) if not args.trace else {k: u for k, (u, _) in LAYER_METRICS.items()}
    print(json.dumps({
        "correct": not summary["unexpected"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
