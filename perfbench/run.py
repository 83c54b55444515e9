"""Benchmark for the geodouble checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and ``README.md``) in this single
process, with no threads, driving the package only through its public
functions and ``geodouble.cli.main``.  Every op's output is checked.

``--trace 0`` sets up several times (import, seeded inputs, warm-up) and
reports the median as ``setup_s``, then runs rounds of ops until S
seconds have passed and prints the end-to-end metrics.  ``--trace 1``
runs a fixed number of rounds untraced, then the same rounds with spans
recorded around every call into the package, and prints the per-layer
metrics and the tracing overhead.  The metric names and units come from
``BENCHMARK.json``.  The last line of output is one JSON object; the run
record and, when traced, the spans are written under ``perfbench/out/``.

Every time the benchmark reports is in reference seconds (see
``clock.py``): wall time corrected for the speed the CPU ran at, which a
fixed kernel measures between ops.

An op fails when its check finds the output wrong or when it raises; the
run then exits 1.  An op that outlives the per-op deadline has produced
no output to check.  It is counted as expired, not as failed: its time,
the deadline, stays in every timing metric, and expiries are reported per
layer.  Exit status is 0 when no op failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from clock import RefClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("triangulation", "construction", "freegroups", "doubling", "isometries",
           "presentations", "cli")
SETUP_REPEATS = 9
TAIL_MIN_BEYOND = 10
# op_tail_ms is read at p90 whenever that leaves ten samples beyond it;
# the rung is fixed so that a faster program, which runs more ops, is
# still compared at the same percentile.
TAIL_RUNGS = (90, 75, 50)
# Sweep points reported as <function>.ms.<size>: (op kind, sizes).
SCALING = {
    "triangulation.glue": ("family", (4, 16, 64, 256, 1024, 4096)),
    "freegroups.stallings_graph": ("fold.long", (300, 1000, 3000, 10000)),
    "doubling.normal_form": ("nf.finite", (32, 64, 256, 384, 512)),
    "presentations.smith_normal_form": ("snf", (2, 4, 6, 7, 8, 9)),
}


class Deadline(BaseException):
    """Raised from SIGALRM inside an op that outlived the deadline.  A
    BaseException, so that no ``except Exception`` in the package stops it."""

    def __init__(self, where: str):
        super().__init__(where)
        self.where = where


def import_package() -> SimpleNamespace:
    """Import geodouble afresh, so that each set-up pays the import."""
    for name in [m for m in sys.modules if m == "geodouble" or m.startswith("geodouble.")]:
        del sys.modules[name]
    try:
        importlib.import_module("geodouble.cli")
    except ModuleNotFoundError as exc:
        raise SystemExit(f"cannot import the package from {ROOT / 'src'}: {exc}") from None
    return SimpleNamespace(MODULES=MODULES,
                           **{m: sys.modules[f"geodouble.{m}"] for m in MODULES})


def round_rng(workload: str, seed: int, label) -> random.Random:
    return random.Random(f"{workload}/{seed}/{label}")


class Phase:
    """Outcome of running some rounds of ops."""

    def __init__(self):
        self.walls: list[tuple[float, float]] = []   # each op's wall start and end
        self.kinds: list[str] = []
        self.sizes: list[int] = []
        self.finished: list[bool] = []
        self.latencies: list[float] = []             # reference seconds, by settle()
        self.by_kind: dict[str, list[float]] = {}
        self.op_factors: list[float] = []
        self.attempted = self.passed = self.rounds = 0
        self.timeouts: dict[str, int] = {}
        self.wrong: list[str] = []
        self.finished_max = 0.0

    @property
    def failed(self) -> int:
        return len(self.wrong)

    @property
    def expired(self) -> int:
        return sum(self.timeouts.values())

    def settle(self, clock: RefClock) -> "Phase":
        """Convert the ops' wall intervals to reference seconds."""
        self.op_factors = [clock.factor(a, b) for a, b in self.walls]
        self.latencies = [(b - a) * f for (a, b), f in zip(self.walls, self.op_factors)]
        for kind, latency, done in zip(self.kinds, self.latencies, self.finished):
            self.by_kind.setdefault(kind, []).append(latency)
            if done:
                self.finished_max = max(self.finished_max, latency)
        return self

    @property
    def op_time(self) -> float:
        return sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.passed / self.op_time if self.op_time else 0.0


class Runner:
    def __init__(self, workload_cls, seed: int):
        self.cls = workload_cls
        self.seed = seed
        self.tracer: Tracer | None = None
        self.notes: dict[str, list[float]] = {}
        self.op_kinds: dict[int, tuple[str, int]] = {}
        self.clock = RefClock()
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        raise Deadline(self.tracer.innermost() if self.tracer else "untraced")

    def setup(self) -> float:
        """Import, generate the seeded set-up inputs and warm up; reference
        seconds taken."""
        self.clock.calibrate()
        start = time.perf_counter()
        self.pkg = import_package()
        self.workload = self.cls(self.pkg, round_rng(self.cls.name, self.seed, "setup"),
                                 self.notes)
        warm = Phase()
        for op in self.workload.round(round_rng(self.cls.name, self.seed, "warm"), warm=True):
            self.run_op(op, warm)
        end = time.perf_counter()
        self.clock.calibrate()
        if warm.failed or warm.expired:
            raise SystemExit(f"warm-up failed: {warm.wrong or warm.timeouts}")
        return self.clock.ref_seconds(start, end)

    def run_op(self, op, phase: Phase) -> None:
        # Start every op from a collected heap, so that no op pays for the
        # cyclic garbage an earlier one left behind.
        gc.collect()
        self.clock.tick()
        tracer = self.tracer
        span = -1
        if tracer:
            tracer.current_op = len(self.op_kinds)
            self.op_kinds[tracer.current_op] = (op.kind, op.size)
            span = tracer.open(f"op.{op.kind}")
        result = problem = None
        start = time.perf_counter()
        try:
            # The deadline is in reference seconds, like every reported time.
            signal.setitimer(signal.ITIMER_REAL,
                             self.cls.deadline_s * self.clock.recent_factor())
            try:
                result = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline as exc:
            problem = exc
        except Exception as exc:  # a crash on valid input is a wrong output
            problem = f"{op.kind} {op.size}: {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer:
            tracer.unwind(span)
        phase.attempted += 1
        phase.walls.append((start, end))
        phase.kinds.append(op.kind)
        phase.sizes.append(op.size)
        phase.finished.append(not isinstance(problem, Deadline))
        self.clock.tick()
        if isinstance(problem, Deadline):
            key = problem.where if tracer else op.kind
            phase.timeouts[key] = phase.timeouts.get(key, 0) + 1
            return
        if problem is None:
            problem = op.check(result)
            if problem:
                problem = f"{op.kind} {op.size}: {problem}"
        if problem:
            phase.wrong.append(problem)
            return
        phase.passed += 1

    def rounds(self, phase: Phase, stop) -> Phase:
        while not stop(phase):
            rng = round_rng(self.cls.name, self.seed, phase.rounds)
            for op in self.workload.round(rng):
                self.run_op(op, phase)
            phase.rounds += 1
        return phase.settle(self.clock)


# -- metrics -----------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(latency at the tail rung, the rung, samples strictly beyond it)."""
    n = len(latencies)
    rung = next((p for p in TAIL_RUNGS if n * (100 - p) / 100 >= TAIL_MIN_BEYOND),
                TAIL_RUNGS[-1])
    value = (statistics.quantiles(latencies, n=100, method="inclusive")[rung - 1]
             if n > 1 else latencies[0])
    return value, rung, sum(1 for x in latencies if x > value)


def end_to_end(phase: Phase, setup_s: float) -> tuple[dict, dict]:
    value, rung, beyond = tail(phase.latencies)
    metrics = {
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": 1000 * statistics.median(phase.latencies),
        "op_tail_ms": 1000 * value,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"tail_percentile": rung, "tail_samples_beyond": beyond}


def op_sizes_p50_ms(phase: Phase) -> dict[str, float]:
    """Median latency per op kind and size, slowest first: where the tail
    rung and the median fall."""
    groups: dict[str, list[float]] = {}
    for kind, size, latency in zip(phase.kinds, phase.sizes, phase.latencies):
        groups.setdefault(f"{kind}.{size}", []).append(latency)
    p50 = {k: 1000 * statistics.median(v) for k, v in groups.items()}
    return dict(sorted(p50.items(), key=lambda kv: -kv[1]))


def per_layer(runner: Runner, plain: Phase, traced: Phase) -> dict:
    tracer = runner.tracer
    tracer.op_factors = traced.op_factors
    out: dict[str, float] = {}
    for name, durations in tracer.durations().items():
        if name.startswith("op."):
            continue
        out[f"{name}.calls"] = len(durations)
        out[f"{name}.busy_s"] = sum(durations)
        out[f"{name}.p50_us"] = 1e6 * statistics.median(durations)
    for layer, (calls, busy, self_time) in tracer.layer_times().items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.self_s"] = self_time
    for name, (kind, sizes) in SCALING.items():
        points = tracer.scaling_ms(name, runner.op_kinds, kind)
        for size in sizes:
            out[f"{name}.ms.{size}"] = points.get(size, 0.0)

    notes = runner.notes
    letters = sum(notes.get("fold.letters", ()))
    if letters:
        out["freegroups.stallings_graph.us_per_letter"] = \
            1e6 * out.get("freegroups.stallings_graph.busy_s", 0.0) / letters
        out["freegroups.stallings_graph.vertices_per_letter"] = \
            sum(notes.get("fold.vertices", ())) / letters
    for kind in ("finite_index", "infinite_index"):
        tails = notes.get(f"tail.{kind}")
        if tails:
            out[f"doubling.normal_form.tail_letters_mean.{kind}"] = statistics.fmean(tails)
    snf_calls = out.get("presentations.smith_normal_form.calls", 0)
    snf_timeouts = traced.timeouts.get("presentations.smith_normal_form", 0)
    out["presentations.smith_normal_form.timeouts"] = snf_timeouts
    if snf_calls:
        out["presentations.smith_normal_form.done_ratio"] = 1 - snf_timeouts / snf_calls
    generators = sum(notes.get("tietze.generators", ()))
    if generators:
        out["presentations.tietze_simplify.generators_removed_ratio"] = \
            sum(notes["tietze.removed"]) / generators
    out["fail_ratio"] = traced.failed / traced.attempted
    out["expired_ratio"] = traced.expired / traced.attempted
    out["tracing_overhead"] = 1 - traced.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0
    return out


# -- run record ----------------------------------------------------------------------


def git_sha() -> str:
    """The checked-out commit, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    runner = Runner(WORKLOADS[args.workload], args.seed)
    setup_times = [runner.setup() for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(setup_times)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_sha": git_sha(),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "deadline_s": runner.cls.deadline_s, "setup_s_each": setup_times,
              "time_unit": "reference seconds (clock.py)"}
    if args.trace:
        # The same fixed rounds, untraced then traced: counts repeat for a
        # seed, and the overhead compares like with like.
        count = max(1, round(args.seconds / (2 * runner.cls.round_s)))
        plain = runner.rounds(Phase(), lambda p: p.rounds >= count)
        runner.notes.clear()
        runner.tracer = Tracer()
        uninstall = runner.tracer.install(runner.pkg)
        try:
            traced = runner.rounds(Phase(), lambda p: p.rounds >= count)
        finally:
            uninstall()
        values = per_layer(runner, plain, traced)
        phases = (plain, traced)
        record["ops_per_s_untraced"] = plain.ops_per_s
        record["ops_per_s_traced"] = traced.ops_per_s
    else:
        end = time.perf_counter() + args.seconds
        phase = runner.rounds(Phase(), lambda p: time.perf_counter() >= end)
        values, extra = end_to_end(phase, setup_s)
        record.update(extra)
        phases = (phase,)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    expired = sum(p.expired for p in phases)
    wrong = [w for p in phases for w in p.wrong]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    unlisted = {k: v for k, v in sorted(values.items()) if k not in metrics}
    record.update({
        "rounds": [p.rounds for p in phases], "ops": [p.attempted for p in phases],
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "expired": expired, "expired_ratio": expired / attempted,
        "wall_factor_median": statistics.median(f for p in phases for f in p.op_factors),
        "timeouts": [p.timeouts for p in phases], "wrong": wrong[:20],
        "finished_op_max_ms": 1000 * max(p.finished_max for p in phases),
        "metrics": metrics, "unlisted": unlisted,
        "op_kinds_ms": {kind: {"ops": len(v), "p50": 1000 * statistics.median(v),
                               "max": 1000 * max(v)}
                        for p in phases[-1:] for kind, v in sorted(p.by_kind.items())},
        "op_sizes_p50_ms": op_sizes_p50_ms(phases[-1]),
    })
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if runner.tracer:
        runner.tracer.write(out_dir / f"{stem}.spans.jsonl")

    for key in ("workload", "seed", "trace", "git_sha", "python", "nproc", "deadline_s",
                "rounds", "ops", "attempted", "failed", "expired", "timeouts",
                "finished_op_max_ms", "tail_percentile", "tail_samples_beyond"):
        if key in record:
            print(f"# {key}: {record[key]}")
    for problem in wrong[:20]:
        print(f"# WRONG {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
