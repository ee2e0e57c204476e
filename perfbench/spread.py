#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and agreement between two sets of runs.

    python3 perfbench/spread.py --workloads train,decode --seeds 1-10 --seconds 30 --out a.json
    python3 perfbench/spread.py --compare a.json b.json

The first form runs `run.py` once per workload and seed, one run at a time,
and reports for every metric the distance between the first and third
quartile of its values as a share of their median, next to the metric's
bound in BENCHMARK.json. The second form checks that two sets of runs of
the same code agree: every median within its bound of the other, no run
failed or missing, and every output digest identical, seed by seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def quartile_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else 0.0


def bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def collect(workloads, seeds, seconds, trace, blas_threads) -> dict:
    runs = {}
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            if blas_threads:
                cmd += ["--blas-threads", str(blas_threads)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            record_path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
            record = json.loads(record_path.read_text()) if proc.returncode == 0 else None
            if record is None:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                runs[f"{workload}/{seed}"] = {"failed": True}
                continue
            values = {k: m["value"] for k, m in record["report"].items()}
            runs[f"{workload}/{seed}"] = {"values": values,
                                          "digest": record["passes"][0]["digest"],
                                          "passes": len(record["passes"])}
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    return runs


def summarize(runs: dict) -> dict:
    by_metric: dict[tuple[str, str], list[float]] = {}
    for key, run in runs.items():
        if run.get("failed"):
            continue
        workload = key.split("/")[0]
        for metric, value in run["values"].items():
            by_metric.setdefault((workload, metric), []).append(value)
    limits = bounds()
    summary = {}
    for (workload, metric), values in sorted(by_metric.items()):
        row = {"n": len(values), "median": statistics.median(values),
               "spread": quartile_spread(values) if len(values) >= 2 else 0.0,
               "bound": limits.get(metric)}
        summary[f"{workload}/{metric}"] = row
        flag = ""
        if row["bound"] is not None:
            flag = "ok" if row["spread"] <= row["bound"] / 3 else (
                "within bound" if row["spread"] <= row["bound"] else "OVER BOUND")
        print(f"{workload:9s} {metric:22s} n={row['n']:2d} median={row['median']:<12.6g} "
              f"spread={row['spread']:.4f} bound={row['bound']} {flag}")
    return summary


def compare(path_a: Path, path_b: Path) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    limits = bounds()
    ok = True
    for key, row in a["summary"].items():
        metric = key.split("/")[1]
        other = b["summary"].get(key)
        if other is None or metric not in limits:
            continue
        change = (other["median"] - row["median"]) / abs(row["median"])
        within = abs(change) <= limits[metric]
        ok &= within
        print(f"{key:32s} {row['median']:<12.6g} {other['median']:<12.6g} "
              f"change={change:+.4f} bound={limits[metric]} {'ok' if within else 'DISAGREE'}")
    for key in sorted(set(a["runs"]) | set(b["runs"])):
        run, other = a["runs"].get(key), b["runs"].get(key)
        if run is None or other is None or run.get("failed") or other.get("failed"):
            ok = False
            print(f"{key}: failed or missing in a set")
        elif run["digest"] != other["digest"]:
            ok = False
            print(f"{key}: output digests differ")
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default="pipeline,train,decode")
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = collect(args.workloads.split(","), args.seeds, seconds, args.trace, args.blas_threads)
    summary = summarize(runs)
    if args.out:
        args.out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 1 if any(r.get("failed") for r in runs.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
