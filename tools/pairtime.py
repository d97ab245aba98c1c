"""Paired in-process timing of two checkouts on one benchmark workload.

Usage, from any directory::

    python tools/pairtime.py A_DIR B_DIR --workload W --rounds N [--seeds 1 2]

Both checkouts' ``src/ribboncalc`` are imported side by side in this
process, as the packages ``ribboncalc_a`` and ``ribboncalc_b``.  A round
makes one pass over the workload's size schedule for each seed, with cases
from ``bench/gen.py`` of the checkout this file sits in, and runs every case
once on each side: A first on odd rounds, B first on even rounds.  Every
operation is checked with ``bench/workloads.py``; a wrong or failed one
stops the run with exit code 1.

Per round and side it takes ops/s (operations over their summed time) and
the nearest-rank p50 and p90 latency, as ``bench/run.py`` does.  It prints
the median of each over the rounds and in how many rounds B beat A; with
``--json`` the last line also holds every round's figures.  Paired rounds
in one process share the machine's state, so they show a difference that
separate runs would hide in their spread.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (its cases come from bench/gen.py)

MODULES = ("scripts", "simplify", "textio", "trees")
METRICS = (("ops_per_s", "higher"), ("op_p50_ms", "lower"),
           ("op_p90_ms", "lower"))


def load_checkout(root: Path, name: str) -> dict:
    """Import ``root/src/ribboncalc`` as the package ``name``; the library
    modules in the form ``workloads.OPS`` reads."""
    pkg = root / "src" / "ribboncalc"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"pairtime: no library source under {pkg}")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {m: sys.modules[f"{name}.{m}"] for m in MODULES}


def percentile(ordered: list[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summary(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    return {"ops_per_s": len(ordered) / sum(ordered),
            "op_p50_ms": 1000 * percentile(ordered, 0.5),
            "op_p90_ms": 1000 * percentile(ordered, 0.9)}


def run_op(lib: dict, workload: str, case, side: str) -> float:
    start = perf_counter()
    try:
        wrong = workloads.OPS[workload](lib, case)
    except Exception as exc:  # a failed operation ends the comparison
        sys.exit(f"pairtime: {side} raised {type(exc).__name__}: {exc}")
    elapsed = perf_counter() - start
    if wrong:
        sys.exit(f"pairtime: {side} gave a wrong output: {wrong[0]}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_dir", type=Path)
    parser.add_argument("b_dir", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    libs = {"A": load_checkout(args.a_dir.resolve(), "ribboncalc_a"),
            "B": load_checkout(args.b_dir.resolve(), "ribboncalc_b")}
    cases = [workloads.make_case(args.workload, seed, k)
             for seed in args.seeds
             for k in range(workloads.schedule_length(args.workload))]
    rounds = {"A": [], "B": []}
    for r in range(args.rounds):
        order = ("A", "B") if r % 2 == 0 else ("B", "A")
        latencies = {"A": [], "B": []}
        for case in cases:
            for side in order:
                latencies[side].append(
                    run_op(libs[side], args.workload, case, side))
        for side in order:
            rounds[side].append(summary(latencies[side]))
    out = {"workload": args.workload, "seeds": args.seeds,
           "rounds": args.rounds, "ops_per_round": len(cases)}
    print(f"{args.workload}: {args.rounds} rounds of {len(cases)} "
          f"operations per side, seeds {args.seeds}")
    for name, better in METRICS:
        a = [m[name] for m in rounds["A"]]
        b = [m[name] for m in rounds["B"]]
        wins = sum((y > x) if better == "higher" else (y < x)
                   for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        out[name] = {"a_median": ma, "b_median": mb,
                     "b_wins": f"{wins}/{args.rounds}"}
        print(f"  {name:<10} A {ma:10.4g}  B {mb:10.4g}  "
              f"({100 * (mb - ma) / ma:+.1f}%)  B better in "
              f"{wins}/{args.rounds}")
    if args.json:
        out["a_rounds"], out["b_rounds"] = rounds["A"], rounds["B"]
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
