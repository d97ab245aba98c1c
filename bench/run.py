#!/usr/bin/env python3
"""ribboncalc benchmark: one closed-loop client driving the library API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Workloads (see BENCHMARK.json for why each was chosen):

* ``script_replay``: parse a diagram and a move script, replay it with the
  invariants checked at every step, serialize the final diagram.
* ``ribbon_plan``: parse a ribbon descriptor, plan its stabilization,
  replay-verify the plan, serialize the descriptor.
* ``tree_unroll``: parse a presented Casson handle, analyse it, truncate
  it to a tower, analyse the tower, serialize and parse the tower back.

Inputs come from ``gen.py`` and depend only on the seed; each operation's
output is checked against the answer known from construction.  With
``--trace 0`` operations run back to back, each issued after the previous
one returns, until they have taken ``--seconds`` of busy time; the last
stdout line is the end-to-end metrics.  With ``--trace 1`` a fixed number
of operations runs under the tracer and the last line is the per-layer
metrics.  Both modes then run the known-defect probe (inputs that fail at
the seed commit) outside the measured work and report its failures.

The library is imported from ``src/`` of the checkout this file sits in.
A human-readable report goes to stderr; the full report, with the size
sweep and the spans of a traced run, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from tracer import (END, ERROR, EXTRA, LAYERS, NAME, OP, PARENT, SIZE,
                    START, Tracer, layer_of, size_sweep)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 7
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import ribboncalc; print('ready', flush=True)")

# Busy seconds of one pass over each workload's size schedule at the seed
# commit.  A timed run makes --seconds worth of whole passes, which keeps
# the size mix of every run the same; a traced run makes half as many.
PASS_SECONDS = {"script_replay": 6.0, "ribbon_plan": 1.4, "tree_unroll": 14.5}

# Per-layer metrics: self time of these layers and functions, and call
# counts of these functions; the rest are computed in per_layer_metrics.
SELF_TIMED = ("abelian", "abelian.smith_invariants",
              "abelian.symmetric_signature", "diagram",
              "diagram.linking_matrix", "diagram.framed_submatrix", "scripts",
              "scripts.run_script", "trees", "trees.truncate",
              "trees.validate_tree", "trees.is_positive",
              "trees.kuga_blowup_cost", "middle", "middle.is_positive_ribbon",
              "middle.finger_graph", "simplify",
              "simplify.stabilization_plan", "simplify.verify_plan",
              "simplify.norman_eliminate", "textio")
COUNTED = ("abelian.smith_invariants", "abelian.symmetric_signature",
           "diagram.linking_matrix", "trees.validate_tree",
           "trees.is_positive")
MOVES = ("handle_slide", "blow_up", "blow_down", "twist_blow_up",
         "zero_dot_swap", "add_cancelling_pair", "cancel_pair", "dualize",
         "assert_geometric")

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "ok_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def import_library():
    """Import ``ribboncalc`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "ribboncalc" / "__init__.py").is_file():
        sys.exit(f"bench: no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    import ribboncalc
    where = Path(ribboncalc.__file__).resolve().parent
    if where != (SRC / "ribboncalc").resolve():
        sys.exit(f"bench: ribboncalc was imported from {where}")
    return workloads.load_library()


def measure_setup() -> float:
    """Median time from starting a fresh interpreter to ``import
    ribboncalc`` done: what every CLI call pays before its first
    operation."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                              stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError("setup child failed to import ribboncalc")
        samples.append(elapsed)
    return statistics.median(samples)


# -- failure accounting --------------------------------------------------

class Failures:
    """Exceptions by class and layer, verify rejections, wrong outputs."""

    def __init__(self):
        self.exceptions: Counter = Counter()
        self.tracebacks: dict[tuple[str, str], str] = {}
        self.rejections: Counter = Counter()
        self.wrong: list[tuple[int, str]] = []
        self.failed = 0

    def run(self, lib, workload: str, case, op: int) -> None:
        """One operation; any failure is counted, none is raised."""
        try:
            wrong = workloads.OPS[workload](lib, case)
        except workloads.VerifyRejected as exc:
            self.rejections[str(exc)] += 1
        except Exception as exc:
            key = (type(exc).__name__, _layer(exc))
            self.exceptions[key] += 1
            self.tracebacks.setdefault(key, "".join(
                traceback.format_exception(exc, limit=-4)))
        else:
            if not wrong:
                return
            self.wrong.extend((op, w) for w in wrong)
        self.failed += 1

    def layer_errors(self, layer: str) -> int:
        return sum(n for (_, lay), n in self.exceptions.items()
                   if lay == layer)

    def summary(self, tracebacks: bool = False) -> dict:
        out = {"failed": self.failed,
               "exceptions": {f"{cls}@{lay}": n for (cls, lay), n
                              in sorted(self.exceptions.items())},
               "verify_rejections": dict(self.rejections),
               "wrong_outputs": [f"op {op}: {w}" for op, w in self.wrong]}
        if tracebacks:
            out["tracebacks"] = {f"{cls}@{lay}": tb for (cls, lay), tb
                                 in sorted(self.tracebacks.items())}
        return out


def _layer(exc: BaseException) -> str:
    """The library module of the innermost frame that raised, if any."""
    layer = "bench"
    pkg = str(SRC / "ribboncalc")
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = frame.f_code.co_filename
        if path.startswith(pkg):
            layer = Path(path).stem
    return layer


# -- runs ----------------------------------------------------------------

def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_probe(lib, workload: str, seed: int,
              tracer: Tracer | None) -> Failures:
    probe = Failures()
    for k, case in enumerate(workloads.probe_cases(workload, seed)):
        if tracer is not None:
            tracer.op = -1 - k
            span = tracer.begin("bench.probe")
        probe.run(lib, workload, case, -1 - k)
        if tracer is not None:
            tracer.end(span)
    return probe


def passes(workload: str, seconds: float) -> int:
    """Whole passes over the size schedule that fill ``seconds`` of busy
    time at the seed commit.  Whole passes keep the size mix fixed."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def timed_run(lib, workload: str, seed: int, seconds: float) -> dict:
    """Closed loop over a fixed number of operations; end-to-end metrics."""
    slots = passes(workload, seconds) * workloads.schedule_length(workload)
    failures = Failures()
    latencies = []
    for op in range(slots):
        case = workloads.make_case(workload, seed, op)
        start = perf_counter()
        failures.run(lib, workload, case, op)
        latencies.append(perf_counter() - start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe = run_probe(lib, workload, seed, None)
    setup_s = measure_setup()
    ordered = sorted(latencies)
    n = len(ordered)
    # The 90th percentile needs 10 samples beyond it; with fewer than 100
    # operations report the highest level that has them.
    p90_level = 0.9 if n >= 100 else max(0.5, 1 - 10 / n)
    metrics = {
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": 1000 * percentile(ordered, 0.5),
        "op_p90_ms": 1000 * percentile(ordered, p90_level),
        "ok_ratio": (n - failures.failed) / n,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {"attempted": n, "failures": failures, "probe": probe,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()},
            "detail": {"samples": n, "busy_s": sum(latencies),
                       "op_p90_level": p90_level,
                       "latency_ms": [1000 * t for t in latencies]}}


def traced_run(lib, workload: str, seed: int, seconds: float) -> dict:
    """The first half of the timed run's operations, traced; per-layer
    metrics."""
    count = (passes(workload, seconds / 2)
             * workloads.schedule_length(workload))
    tracer = Tracer()
    failures = Failures()
    tracer.install()
    try:
        start = perf_counter()
        for op in range(count):
            tracer.op = op
            span = tracer.begin("bench.generate")
            case = workloads.make_case(workload, seed, op)
            tracer.end(span)
            span = tracer.begin("bench.op")
            failures.run(lib, workload, case, op)
            tracer.end(span)
        probe = run_probe(lib, workload, seed, tracer)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    metrics = per_layer_metrics(tracer.spans, own, wall, failures, probe)
    return {"attempted": count, "failures": failures, "probe": probe,
            "metrics": metrics, "spans": tracer.spans, "own": own,
            "detail": {"ops": count, "spans": len(tracer.spans),
                       "self_sum_s": sum(own), "wall_s": wall}}


def per_layer_metrics(spans, own, wall, failures, probe) -> dict:
    calls: Counter = Counter()
    self_s: Counter = Counter()
    size_max: Counter = Counter()
    size_sum: Counter = Counter()
    digits = 0
    planned = replayed = rejected = commands = 0
    for s, t in zip(spans, own):
        name = s[NAME]
        calls[name] += 1
        self_s[name] += t
        self_s[layer_of(name)] += t
        size_max[name] = max(size_max[name], s[SIZE])
        size_sum[name] += s[SIZE]
        extra = s[EXTRA]
        if extra is None or s[ERROR] is not None:
            continue
        if name.startswith("abelian."):
            entry = max((abs(v) for row in extra for v in row), default=0)
            digits = max(digits, len(str(entry)))
        elif name == "scripts.run_script":
            commands += extra
        elif name == "simplify.stabilization_plan":
            planned += extra
        elif name == "simplify.verify_plan":
            rejected += not extra[0]
            replayed += extra[1]

    def by_prefix(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    values = {f"{name}.self_s": ("s", self_s[name]) for name in SELF_TIMED}
    values.update({f"{name}.calls": ("count", calls[name])
                   for name in COUNTED})
    values.update({
        "abelian.smith_invariants.max_dim":
            ("rows", size_max["abelian.smith_invariants"]),
        "abelian.max_entry_digits": ("digits", digits),
        "diagram.moves":
            ("count", sum(calls[f"diagram.{m}"] for m in MOVES)),
        "diagram.max_components": ("count", max(
            (v for k, v in size_max.items() if k.startswith("diagram.")),
            default=0)),
        "scripts.commands": ("count", commands),
        "trees.nodes_unrolled": ("count", size_sum["trees.truncate"]),
        "trees.errors": ("count", failures.layer_errors("trees")
                         + probe.layer_errors("trees")),
        "simplify.steps_planned": ("count", planned),
        "simplify.steps_replayed": ("count", replayed),
        "simplify.verify_rejections": ("count", rejected),
        "textio.parse.self_s": ("s", by_prefix(self_s, "textio.parse_")),
        "textio.serialize.self_s":
            ("s", by_prefix(self_s, "textio.serialize_")),
        "textio.bytes_parsed":
            ("bytes", by_prefix(size_sum, "textio.parse_")),
        "textio.bytes_serialized":
            ("bytes", by_prefix(size_sum, "textio.serialize_")),
        "trace.wall_s": ("s", wall),
    })
    return {k: {"value": v, "unit": u} for k, (u, v) in values.items()}


# -- reporting -----------------------------------------------------------

def write_report(args, result: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "attempted": result["attempted"],
              "metrics": result["metrics"], "detail": result["detail"],
              "failures": result["failures"].summary(tracebacks=True),
              "known_defect_probe": result["probe"].summary(tracebacks=True)}
    if args.trace:
        spans, own = result["spans"], result["own"]
        report["layer_self_s"] = {
            layer: sum(t for s, t in zip(spans, own)
                       if layer_of(s[NAME]) == layer)
            for layer in LAYERS + ("bench",)}
        report["size_sweep"] = size_sweep(spans, own)
        t0 = spans[0][START] if spans else 0.0
        report["spans"] = [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT],
                            s[OP], s[SIZE], s[ERROR]] for s in spans]
    with open(path, "w") as f:
        json.dump(report, f)
    if args.trace:
        print_sweep(report["layer_self_s"], report["size_sweep"])
    return path


def print_sweep(layer_self: dict, sweep: dict) -> None:
    total = sum(layer_self.values()) or 1.0
    print("self time by layer:", file=sys.stderr)
    for layer, t in layer_self.items():
        print(f"  {layer:<10} {t:9.3f} s  {100 * t / total:5.1f}%",
              file=sys.stderr)
    print("size sweep (size bucket: calls, ms per call):", file=sys.stderr)
    for name, rows in sweep.items():
        if sum(r["self_s"] for r in rows.values()) < 0.001 * total:
            continue
        cells = "  ".join(f"{b}: {r['calls']}x {r['per_call_ms']:.3f}"
                          for b, r in rows.items())
        print(f"  {name:<36} {cells}", file=sys.stderr)


def print_summary(args, result: dict, path: Path) -> None:
    err = sys.stderr
    print(f"workload {args.workload} seed {args.seed}: "
          f"{result['attempted']} operations", file=err)
    if not args.trace:
        level = result["detail"]["op_p90_level"]
        for name, m in result["metrics"].items():
            note = f"  (p{100 * level:.0f})" if name == "op_p90_ms" else ""
            print(f"  {name:<14} {m['value']:.6g} {m['unit']}{note}", file=err)
    failures, probe = result["failures"].summary(), result["probe"].summary()
    print(f"  failures: {json.dumps(failures)}", file=err)
    print(f"  known-defect probe: {json.dumps(probe)}", file=err)
    print(f"  report: {path}", file=err)


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    rows, combined, ok = [], {}, True
    attempted = failed = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=900)
        if done.returncode != 0:
            print(f"bench: {workload} exited with {done.returncode}",
                  file=sys.stderr)
            return 1
        line = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        for name, m in line["metrics"].items():
            combined[f"{workload}.{name}"] = m
            rows.append((workload, name, m["value"], m["unit"]))
    for workload, name, value, unit in rows:
        print(f"{workload:<14} {name:<36} {value:14.6g} {unit}")
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lib = import_library()
    if args.workload == "all":
        return run_all(args)
    run = traced_run if args.trace else timed_run
    result = run(lib, args.workload, args.seed, args.seconds)
    path = write_report(args, result)
    print_summary(args, result, path)
    wrong = result["failures"].wrong or result["probe"].wrong
    print(json.dumps({"correct": not wrong,
                      "attempted": result["attempted"],
                      "failed": result["failures"].failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
