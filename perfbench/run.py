"""Run one benchmark workload against the library in ``src/`` and print its metrics.

    python3 perfbench/run.py --workload qfit --seed 1 --seconds 60 --trace 0

Without ``--workload`` it runs every workload, each in its own process.
``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time, throughput, median and tail operation latency, peak memory and the
failed share.  ``--trace 1`` runs a fixed amount of the same work four
times (untraced, traced, untraced, traced) and reports per-layer self
times, deterministic counters and the tracing overhead; it checks that
both traced runs give identical counters and that tracing leaves every
result unchanged.  The last line of standard output is one JSON object.

Spans and a run manifest are written under ``perfbench/out/``.
``--write-reference`` recomputes the stored reference aggregates in
``reference.json`` from the current library.
"""

from __future__ import annotations

import os

# one BLAS thread: every workload is a single caller in a single thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 20240601
SETUP_REPEATS = 5
IMPORT_REPEATS = 9  # a fresh import is cheap and noisy, so it gets more samples
TRACE_ROUNDS = ("untraced-1", "traced-1", "untraced-2", "traced-2")
WORKLOAD_NAMES = ("qfit", "events", "score")


def _median_time(fn, repeats: int):
    """Median wall time of ``repeats`` calls, and the last call's result."""
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _import_seconds() -> float:
    """Median time for a fresh interpreter to start and import querybn."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def once():
        subprocess.run([sys.executable, "-c", "import querybn"], cwd=ROOT, env=env, check=True)

    return _median_time(once, IMPORT_REPEATS)[0]


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least ten
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _check_reference(workload, workdir: Path) -> list[str]:
    stored = json.loads(REFERENCE.read_text())[workload.name]
    got = workload.reference(REFERENCE_SEED, workdir)
    return [f"reference {k}: got {got[k]!r}, stored {v!r}"
            for k, v in stored.items() if abs(got[k] - v) > 1e-9 * max(1.0, abs(v))]


def _timed(workload, seed: int, seconds: float, workdir: Path) -> dict:
    import_s = _import_seconds()
    build_s, state = _median_time(lambda: workload.setup(seed, workdir), SETUP_REPEATS)
    latencies: list[float] = []
    pass_s: list[float] = []
    pass_units: list[int] = []
    failed = 0
    problems: list[str] = []
    observed: dict[str, float] = {}
    # whole passes only, ending within about half a pass of ``seconds``
    while not pass_s or sum(pass_s) + statistics.median(pass_s) / 2 <= seconds:
        t0 = time.perf_counter()
        outcome = workload.run_pass(state, len(pass_s))
        pass_s.append(time.perf_counter() - t0)
        pass_units.append(outcome.units)
        latencies += outcome.latencies
        check = workload.check(state, outcome)
        failed += check.failed_ops
        problems += check.problems
        for k, v in check.observed.items():
            observed[k] = observed.get(k, 0) + v
    tail, pct = _tail(latencies)
    busy = sum(pass_s)
    return {
        "metrics": {
            "setup_s": (import_s + build_s, "s"),
            "units_per_s": (sum(pass_units) / busy, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1e3 * tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "attempted": len(latencies), "failed": failed, "problems": problems,
        "detail": {"import_s": import_s, "build_s": build_s, "passes": len(pass_s),
                   "units": sum(pass_units), "busy_s": busy,
                   "tail_percentile": pct, "ops": len(latencies),
                   "pass_rates": [u / s for u, s in zip(pass_units, pass_s)]},
        "inputs": {**workload.properties(state, observed),
                   "units_per_pass": sum(pass_units) / len(pass_s)},
    }


def _traced(workload, seed: int, workdir: Path, tag: str) -> dict:
    from layers import COUNTERS, TARGETS, layer_metrics
    from tracer import Tracer

    walls = {"untraced": 0.0, "traced": 0.0}
    fingerprints, counters, timings = [], [], []
    attempted = failed = units = 0
    problems: list[str] = []
    observed: dict[str, float] = {}
    for run in TRACE_ROUNDS:
        traced = run.startswith("traced")
        tracer = Tracer(run=run)
        t0 = time.perf_counter()
        with tracer.patch(TARGETS) if traced else contextlib.nullcontext():
            state = workload.setup(seed, workdir)
            outcome = workload.run_pass(state, 0)
        walls["traced" if traced else "untraced"] += time.perf_counter() - t0
        check = workload.check(state, outcome)
        attempted += len(outcome.latencies)
        units = outcome.units
        failed += check.failed_ops
        problems += check.problems
        observed = check.observed
        fingerprints.append(outcome.fingerprint)
        if traced:
            tracer.write(OUT / f"{tag}-{run}-spans.jsonl")
            c, t = layer_metrics(tracer.spans)
            counters.append(c)
            timings.append(t)
    if any(f != fingerprints[0] for f in fingerprints):
        problems.append("tracing changed the workload's results")
    if counters[0] != counters[1]:
        diff = sorted(k for k in COUNTERS if counters[0][k] != counters[1][k])
        problems.append(f"counters differ between the two traced runs: {diff}")
    metrics = {k: (v, COUNTERS[k][0]) for k, v in counters[0].items()}
    metrics.update({k: ((timings[0][k] + timings[1][k]) / 2, "s") for k in timings[0]})
    metrics["trace.overhead_frac"] = ((walls["traced"] - walls["untraced"]) / walls["untraced"],
                                      "ratio")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems,
            "detail": {"untraced_wall_s": walls["untraced"], "traced_wall_s": walls["traced"]},
            "inputs": {**workload.properties(state, observed), "units_per_pass": units}}


def _manifest(args, workload, result: dict) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu or platform.processor() or None,
        "git_commit": commit, "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "unit": workload.unit,
        "inputs": result["inputs"], "detail": result["detail"],
        "metrics": {k: v for k, (v, _) in result["metrics"].items()},
        "attempted": result["attempted"], "failed": result["failed"],
        "problems": result["problems"],
    }


def _print_report(workload, args, result: dict) -> None:
    from layers import COUNTERS

    m, d = result["metrics"], result["detail"]
    print(f"workload {workload.name}  seed {args.seed}  unit {workload.unit}  "
          f"trace {args.trace}")
    if args.trace == 0:
        print("end-to-end")
        for name, (value, unit) in m.items():
            note = ""
            if name == "op_tail_ms":
                note = f"  (p{d['tail_percentile']:.1f} of {d['ops']} ops)"
            elif name == "units_per_s":
                note = f"  (unit: one {workload.unit})"
            print(f"  {name:<14} {value:12.6g} {unit}{note}")
    else:
        print("per-layer self time")
        for name, (value, unit) in m.items():
            if name not in COUNTERS:
                print(f"  {name:<45} {value:12.6g} {unit}")
        print("deterministic counters")
        for name, (value, unit) in m.items():
            if name in COUNTERS:
                print(f"  {name:<45} {value:12.6g} {unit}")
    print(f"inputs {json.dumps(result['inputs'])}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<14} {frac:12.6g} ratio  ({result['failed']} of "
          f"{result['attempted']} ops)")
    for p in result["problems"]:
        print(f"  FAILED: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", dest="write_reference")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "querybn" / "__init__.py").is_file():
        print(f"library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.write_reference:
        workdir = OUT / "work" / "reference"
        ref = {name: w.reference(REFERENCE_SEED, workdir)
               for name, w in workloads.REFERENCE_CONFIGS.items()}
        REFERENCE.write_text(json.dumps(ref, indent=2) + "\n")
        print(f"wrote {REFERENCE}")
        return 0

    if args.workload is None:
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOAD_NAMES]
        return max(codes)

    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / "work" / workload.name
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    reduced = workloads.REFERENCE_CONFIGS.get(workload.name)
    ref_problems = _check_reference(reduced, OUT / "work" / "reference") if reduced else []
    if args.trace:
        result = _traced(workload, args.seed, workdir, tag)
    else:
        result = _timed(workload, args.seed, args.seconds, workdir)
    result["problems"] = ref_problems + result["problems"]
    (OUT / f"{tag}-manifest.json").write_text(
        json.dumps(_manifest(args, workload, result), indent=2) + "\n")
    _print_report(workload, args, result)
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in result["metrics"].items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
