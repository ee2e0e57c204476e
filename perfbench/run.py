#!/usr/bin/env python3
"""Benchmark of the `styleswap` CLI: one workload per run, or all of them.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 40 --trace 0

With `--trace 0` the run repeats untimed-reset / timed-pass / checked-output
cycles for `--seconds`, takes set-up samples between them, and reports
end-to-end metrics as means over the run. With `--trace 1` it traces one
set-up and one pass with timing wrappers around every layer's public
functions, alternates it with untraced passes to measure the tracing
overhead, and reports per-layer metrics. Either way it checks every output;
the last stdout line is a JSON object and the exit code is non-zero if any
check or operation failed.
`--workload all` runs each workload in a child process and prints a table.
Results, CLI logs and span dumps go under `.perfbench/` in the checkout.

Modules that import numpy are imported inside functions, after `main` has
set the BLAS thread count, which numpy reads once when it loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("pipeline", "train", "decode")
# Set-ups per untraced run, each after an import probe in a fresh interpreter;
# setup_s is the mean import time plus the mean set-up time.
SETUPS = 10
MIN_PASSES = 2
# Chosen from measured run-to-run spread; see README.md.
DEFAULT_BLAS_THREADS = 1

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}  # all read better lower


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=DEFAULT_BLAS_THREADS,
                   help="BLAS threads, capped at the usable CPU count")
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_package():
    """Import styleswap from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "styleswap" / "__init__.py").is_file():
        raise ImportError(f"no styleswap package under {src}")
    sys.path.insert(0, str(src))
    import styleswap.cli  # noqa: F401  (imports every layer)
    import styleswap
    if Path(styleswap.__file__).resolve().parent.parent != src:
        raise ImportError(f"styleswap imported from {styleswap.__file__}, not {src}")


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as each CLI call pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import styleswap.cli; print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], check=True,
                                capture_output=True, text=True, timeout=120).stdout)


def timed_setup(wl, root: Path, import_s: list, setup_s: list) -> None:
    import_s.append(import_seconds())
    started = perf_counter()
    wl.setup(root)
    setup_s.append(perf_counter() - started)


def setups_due(elapsed: float, seconds: float) -> int:
    """Set-up samples due after `elapsed` of the run, to spread SETUPS of them evenly."""
    return SETUPS if elapsed >= seconds else math.ceil(SETUPS * elapsed / seconds)


def untraced(wl, state, work: Path, seconds: float) -> tuple[list, list, list]:
    # The machine runs at speeds up to 1.5x apart in stretches of a few
    # seconds, so the set-up samples are spread evenly over the run, between
    # the passes, and the run reports means over it: a median of a few
    # samples lands in one stretch or another and jumps from run to run.
    import_s, setup_s, passes = [], [], []
    timed_setup(wl, work / "setup0", import_s, setup_s)
    spare = type(wl)(state)
    began = perf_counter()
    while state.correct:
        passes.append(timed_pass(wl, state, passes))
        if len(passes) == 1:
            wl.check_once()
        while state.correct and len(setup_s) < setups_due(perf_counter() - began, seconds):
            timed_setup(spare, work / f"setup{len(setup_s)}", import_s, setup_s)
        # Stop once another pass would end more than half a pass late, so
        # that a run lasts about `seconds` even when its passes are long.
        half_pass = statistics.fmean(p["wall_s"] for p in passes) / 2
        if len(passes) >= MIN_PASSES and perf_counter() - began + half_pass > seconds:
            break
    while state.correct and len(setup_s) < SETUPS:
        timed_setup(spare, work / f"setup{len(setup_s)}", import_s, setup_s)
    return import_s, setup_s, passes


def timed_pass(wl, state, passes, tracer=None) -> dict:
    wl.reset()
    started = perf_counter()
    if tracer is None:
        timings = wl.run_pass()
    else:
        import layers
        from spans import patched
        with patched(tracer, layers.REQUIRED, layers.SPECIAL), tracer.span("bench.pass"):
            timings = wl.run_pass()
    timings["wall_s"] = perf_counter() - started
    timings["digest"] = wl.check_pass()
    if passes:
        state.check(timings["digest"] == passes[0]["digest"],
                      "outputs differ between passes of one run")
    return timings


def traced(wl, state, work: Path, seconds: float):
    import layers
    from spans import Tracer, patched
    tracer = Tracer()
    with patched(tracer, layers.REQUIRED, layers.SPECIAL), tracer.span("bench.setup"):
        wl.setup(work / "setup")
    began = perf_counter()
    plain = [timed_pass(wl, state, [])]
    wl.check_once()
    traced_pass = timed_pass(wl, state, plain, tracer)
    while state.correct and (perf_counter() - began
                               + statistics.median(p["wall_s"] for p in plain) <= seconds):
        plain.append(timed_pass(wl, state, plain))
    overhead = traced_pass["wall_s"] / statistics.median(p["wall_s"] for p in plain) - 1.0
    values, absent, sampling = layers.derive(tracer, overhead)
    return tracer, plain + [traced_pass], values, absent, sampling


def run_one(args) -> int:
    try:
        import_package()
    except ImportError as exc:
        return fail(str(exc))

    import envinfo
    import layers
    from workloads import WORKLOADS, OperationFailed, RunState

    env = envinfo.environment(ROOT, args.blas_threads)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{label}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    state = RunState(args.seed, results / f"{label}.log")
    wl = WORKLOADS[args.workload](state)
    metrics, extra, passes, absent, timing = {}, {}, [], [], {}
    try:
        if args.trace:
            tracer, passes, values, absent, sampling = traced(wl, state, work, args.seconds)
            timing = {"tail_samples": sampling}
            # one span dump per workload: a pipeline trace holds over a million spans
            tracer.freeze().save(results / f"{args.workload}.spans.npz")
            metrics = {name: (values[name], layers.UNITS[name], layers.better(name))
                       for name in layers.UNITS}
        else:
            import_s, setup_s, passes = untraced(wl, state, work, args.seconds)
            values = {
                "pass_s": statistics.fmean(p["wall_s"] for p in passes),
                "setup_s": statistics.fmean(import_s) + statistics.fmean(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: (v, END_TO_END[k], "lower") for k, v in values.items()}
            if state.correct:
                extra = wl.metrics(passes)
            timing = {"import_runs_s": import_s, "setup_runs_s": setup_s}
    except OperationFailed:
        pass  # recorded in the state: the run reports itself incorrect
    finally:
        state.close()
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        extra["fail_share"] = (state.failed / max(state.attempted, 1), "ratio", "lower")

    report = {**metrics, **extra}
    result = {
        "correct": state.correct,
        "attempted": max(state.attempted, 1),
        "failed": state.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "passes": passes, **timing,
              "report": {k: {"value": v, "unit": u, "better": b}
                         for k, (v, u, b) in report.items()},
              "absent": absent, "problems": state.problems, **result}
    (results / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"digest={passes[0]['digest'] if passes else ''}")
    for name, (value, unit, better) in report.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {better}")
    if args.trace:
        print(f"  absent: {', '.join(absent) if absent else 'none'}")
        for prefix, info in timing["tail_samples"].items():
            if info["n"]:
                print(f"  {prefix}_tail is p{info['tail_pct']:g} of {info['n']} samples")
    print(f"  ops: {state.failed} failed of {state.attempted} attempted")
    for problem in state.problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps(result))
    return 0 if state.correct else 1


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with unit and direction."""
    ok = True
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--blas-threads", str(args.blas_threads)]
        record_path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record_path.unlink(missing_ok=True)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            ok = False
            sys.stderr.write(proc.stderr)
        if not record_path.exists():
            print(f"{name}: no result ({proc.stderr.strip()[-200:]})")
            continue
        record = json.loads(record_path.read_text())
        ok = ok and record["correct"]
        for key, m in record["report"].items():
            rows.append((name, key, m["value"], m["unit"], m["better"]))
        rows.append((name, "failed_ops", record["failed"], "count", "lower"))
        rows.append((name, "attempted_ops", record["attempted"], "count", ""))
        for problem in record["problems"]:
            print(f"{name}: FAILED CHECK: {problem}")
    print(f"{'workload':9s} {'metric':34s} {'value':>14s} {'unit':6s} better")
    for name, key, value, unit, better in rows:
        print(f"{name:9s} {key:34s} {value:14.6g} {unit:6s} {better}")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = max(1, min(args.blas_threads, len(os.sched_getaffinity(0))))
    args.blas_threads = threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
