"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                 [--seconds S] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
and reports for every metric the median, the quartiles and the spread
(interquartile range over the median), which is how run-to-run noise is
judged against each end-to-end metric's bound in ``BENCHMARK.json``.
With ``--out`` the runs and the summary are written as JSON, e.g. a
``perfbench/baseline/BENCH_<sha>.json`` trajectory entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, git_sha  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs, summary, status = [], {}, 0
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            runs.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                         **result})
            if proc.returncode or not result.get("correct"):
                status = 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
            for name, m in result.get("metrics", {}).items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in list(result.get("metrics", {}).items())[:8]),
                flush=True)
        summary[workload] = {name: summarise(v) for name, v in per_metric.items()}
        for name, s in summary[workload].items():
            if name in bounds:
                bound = bounds[name]
                flag = "" if name == "setup_s" or s["spread"] < bound / 3 else \
                    "  <-- above a third of the bound"
                print(f"  {workload:14s} {name:12s} median {s['median']:.5g} "
                      f"spread {s['spread']:.3f} (bound {bound}){flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"git_sha": git_sha(), "seconds": args.seconds, "trace": args.trace,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
