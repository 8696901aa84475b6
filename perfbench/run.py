"""Benchmark of the sme package on seeded synthetic UMLS- and Kinships-shaped data.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload umls-bilinear-train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one process each

A run generates its inputs from --seed in a child process, times the
workload's set-up several times, then repeats the workload's timed pass
until --seconds have passed and reports medians. The speed of the machine
is sampled all through every timed stage by a fixed slice of calibration
work, and each stage's wall time is scaled to the reference machine's speed
(calib.py), so that the speed changes of a shared machine do not read as
changes of the program. With --trace 0 it reports
the end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics from the traced ones, plus the
tracing overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. attempted and failed count
output checks; error_rate is failed / attempted.

The program is imported from ./src of the checkout; without it the run
exits with code 1 and prints no result.
"""

import os

# One BLAS/OpenMP thread: the benchmark is one closed-loop caller, and on a
# small shared machine a thread pool would measure the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SME_LOG"] = "quiet"   # no per-epoch lines from the trainer

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
MIN_PASSES = 3          # untraced passes; a traced run also needs 2 traced ones
GEN_TIMEOUT_S = 120

END_TO_END = {          # metric -> unit
    "setup_s": "s",
    "task_s": "s",
    "items_per_s": "1/s",
    "test_auc_pr": "fraction",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import sme from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sme" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src}/sme")
    sys.path.insert(0, str(src))
    sme = importlib.import_module("sme")
    for module in ("dataset", "trainer", "model", "evaluator", "modelfile", "cli"):
        importlib.import_module(f"sme.{module}")
    if Path(sme.__file__).resolve().parent != (src / "sme").resolve():
        raise SystemExit(f"error: sme imported from {sme.__file__}, not {src}")
    return sme


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": blas_threads(),
            "machine": platform.machine()}


def generate(shape: str, seed: int, out: Path) -> None:
    """Write the inputs in a child process, so its memory is not counted
    in this process's peak RSS."""
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--shape", shape,
                    "--seed", str(seed), "--out", str(out)],
                   check=True, stdout=subprocess.DEVNULL, timeout=GEN_TIMEOUT_S)


def spread_line(name: str, scaled: list[float], wall: list[float]) -> str:
    """Median and quartiles of one scaled timing, its sample count, and
    the median of the raw wall times it was scaled from."""
    values = sorted(scaled)
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (values[0], values[0]))
    return (f"{name}: median={statistics.median(values):.4f} q1={q1:.4f} "
            f"q3={q3:.4f} best={values[0]:.4f} n={len(values)} "
            f"(wall median={statistics.median(wall):.4f})")


def time_setup(workload, calibration):
    """Set the workload up SETUP_REPEATS times; returns (state, scaled
    times, wall times)."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        state = None    # drop the last state first, so two never coexist
        stages = calib.Stages(calibration)
        state = stages.run("setup_s", workload.setup)
        scaled.append(stages.scaled("setup_s"))
        wall.append(stages.wall["setup_s"])
    return state, scaled, wall


def measure(workload, state, seconds: float, tracer, calibration):
    """Repeat the timed pass until `seconds` are up. With a tracer, passes
    alternate untraced and traced. Returns the untraced passes, the traced
    ones, the number of checks attempted and the failed checks by name."""
    plain, traced = [], []
    failures = Counter()
    attempted = 0
    deadline = time.perf_counter() + seconds
    while True:
        trace_this = tracer is not None and len(plain) > len(traced)
        stages = calib.Stages(calibration)
        if trace_this:
            tracer.install(len(traced))
        try:
            result = workload.run_pass(state, stages)
        except Exception:   # a call that raises is a failed check; stop here
            traceback.print_exc()
            attempted += 1
            failures["pass_raised"] += 1
            break
        finally:
            if trace_this:
                tracer.uninstall()
        print(f"pass {len(plain) + len(traced)}{' traced' if trace_this else ''}: "
              f"task wall={stages.total_wall():.4f} s "
              f"scaled={stages.total_scaled():.4f} s", flush=True)
        (traced if trace_this else plain).append(result)
        attempted += len(result.checks)
        failures.update(name for name, ok in result.checks if not ok)
        enough = len(plain) >= MIN_PASSES and (tracer is None or len(traced) >= 2)
        if enough and time.perf_counter() >= deadline:
            break
    return plain, traced, attempted, failures


def run_workload(args) -> dict:
    sme = import_program()
    import spans
    import workloads

    print("env " + json.dumps(environment()), flush=True)
    cls = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        t0 = time.perf_counter()
        generate(cls.shape, args.seed, work)
        print(f"generated {cls.shape} seed={args.seed} in "
              f"{time.perf_counter() - t0:.2f} s", flush=True)
        workload = cls(sme, workloads.make_inputs(cls.shape, args.seed, work),
                       args.seed, work)
        calibration = calib.Calibration()
        state, setup_s, setup_wall = time_setup(workload, calibration)
        plain, traced, attempted, failures = measure(workload, state, args.seconds,
                                                     tracer, calibration)
        if not plain or (tracer is not None and not traced):
            raise SystemExit("error: no pass completed")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(failures.values())
    # Medians of scaled times (calib.py): raw wall times on a shared
    # machine move with its speed, scaled ones with the program's cost.
    summary = {
        "setup_s": statistics.median(setup_s),
        "task_s": statistics.median(p.stages.total_scaled() for p in plain),
        "items_per_s": statistics.median(p.items / p.stages.scaled(p.items_stage)
                                         for p in plain),
        "test_auc_pr": plain[0].auc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"reference slice {calib.REF_SLICE_S} s; times below are scaled, "
          "with the median wall time they were scaled from")
    print(spread_line("setup_s", setup_s, setup_wall))
    print(spread_line("task_s", [p.stages.total_scaled() for p in plain],
                      [p.stages.total_wall() for p in plain]))
    for stage in plain[0].stages.wall:
        print(spread_line(f"stage {stage}", [p.stages.scaled(stage) for p in plain],
                          [p.stages.wall[stage] for p in plain]))
    print(f"error_rate = {failed / max(attempted, 1):.4g} "
          f"({failed} of {attempted} checks failed)"
          + (f" failures={dict(failures)}" if failures else ""))

    if tracer is None:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        metrics = traced_metrics(tracer, traced, summary["task_s"], args)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
        if not math.isfinite(m["value"]):
            m["value"] = None
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced_metrics(tracer, traced, untraced_task_s: float, args) -> dict:
    """Per-layer metrics (median over traced passes) and tracing overhead."""
    import spans
    # One scale per traced pass, for the spans inside all its stages. Spans
    # hold the calibration slices that ran inside them, so the scale is
    # taken over the wall time with the slices.
    layer = tracer.metrics([p.stages.total_scaled() / p.stages.total_raw()
                            for p in traced])
    layer["trace.task_s"] = statistics.median(p.stages.total_scaled() for p in traced)
    layer["trace.overhead_frac"] = layer["trace.task_s"] / untraced_task_s - 1.0
    units = {m: unit for m, (unit, _) in spans.METRICS.items()}
    units.update({"trace.task_s": "s", "trace.overhead_frac": "fraction"})
    absent = tracer.absent()
    if absent:
        print("absent (wrapped name no longer exists; reported as 0): "
              + " ".join(absent))
    print(f"tracing overhead: median traced task_s {layer['trace.task_s']:.4f} vs "
          f"untraced {untraced_task_s:.4f} ({100 * layer['trace.overhead_frac']:+.1f} %)")
    path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    return {name: {"value": layer[name], "unit": units[name]} for name in units}


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak RSS is per workload."""
    import workloads
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    return merged


def main() -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
