#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 bench/selfcheck.py

* Generator determinism: the same seed gives byte-identical input text,
  another seed gives other text.
* On small sizes the answers known from construction agree with the
  library, and, where sympy is installed, the H1 of every generated
  diagram agrees with sympy's Smith form of its linking matrix.
* Tracer consistency: span self times sum to the traced wall time within
  the tracer's own bookkeeping, no self time is negative, and nested
  calls across modules are seen as child spans.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import sys
from time import perf_counter

import gen
import run
import workloads
from tracer import NAME, PARENT, Tracer


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selfcheck FAILED: {what}")


def texts(case) -> tuple[str, ...]:
    if isinstance(case, gen.ScriptCase):
        return (case.diagram, case.script)
    return (case.text,)


def check_determinism() -> None:
    for workload in workloads.WORKLOADS:
        for index in range(workloads.schedule_length(workload)):
            a = texts(workloads.make_case(workload, 7, index))
            b = texts(workloads.make_case(workload, 7, index))
            c = texts(workloads.make_case(workload, 8, index))
            check(a == b, f"{workload} op {index}: seed 7 not reproducible")
            check(a != c, f"{workload} op {index}: seeds 7 and 8 agree")
    print("determinism: ok")


def small_cases(seed: int):
    for k in range(40):
        yield "script_replay", gen.script_case(seed, k, n=6 + k % 8,
                                               commands=6 + k % 10)
    for k in range(40):
        pairs = 3 + k % 6
        yield "ribbon_plan", gen.ribbon_case(
            seed, k, size=(pairs, 2 * pairs + k % 7, 1 + k % 4))
    for k, (family, size) in enumerate(
            [("binary", 3), ("binary", 5), ("ternary", 2), ("ternary", 4),
             ("diamond", 1), ("diamond", 3), ("diamond", 6), ("chain", 1),
             ("chain", 7), ("chain", 40)]):
        yield "tree_unroll", gen.tree_case(seed, k, family, size)


def sympy_h1(diagram_text: str):
    """(free rank, torsion) of the cokernel of the linking matrix."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form
    ids, framing, links = [], {}, {}
    for line in diagram_text.splitlines():
        toks = line.split()
        if toks[0] == "component":
            ids.append(toks[1])
            framing[toks[1]] = int(toks[3]) if toks[2] != "dotted" else 0
        elif toks[0] == "link":
            links[frozenset(toks[1:3])] = int(toks[3])
    m = [[framing[i] if i == j else links.get(frozenset((i, j)), 0)
          for j in ids] for i in ids]
    snf = smith_normal_form(Matrix(m))
    diag = [abs(snf[i, i]) for i in range(len(ids))]
    return (sum(1 for d in diag if d == 0),
            tuple(sorted(d for d in diag if d > 1)))


def check_expected_answers(lib) -> None:
    try:
        import sympy  # noqa: F401
        have_sympy = True
    except ImportError:
        have_sympy = False
    count = 0
    for seed in (1, 2):
        for workload, case in small_cases(seed):
            wrong = workloads.OPS[workload](lib, case)
            check(not wrong, f"{workload} seed {seed}: {wrong}")
            if have_sympy and workload == "script_replay":
                _, _, free, torsion = case.invariants[0]
                check(sympy_h1(case.diagram) == (free, torsion),
                      f"sympy H1 disagrees on {case.diagram.split()[1]}")
            count += 1
    for diag, want in (([4, 6], (2, 12)), ([2, 3, 5], (30,)),
                       ([-7, 7, 2], (7, 14)), ([1, 1], ())):
        check(gen.invariant_factors(diag) == want,
              f"invariant_factors({diag}) != {want}")
    print(f"expected answers: ok on {count} small cases"
          + (", H1 checked against sympy" if have_sympy else
             "; sympy not installed, its Smith form check skipped"))


def check_tracer(lib) -> None:
    tracer = Tracer()
    tracer.install()
    failures = run.Failures()
    try:
        start = perf_counter()
        for op, (workload, case) in enumerate(small_cases(3)):
            tracer.op = op
            span = tracer.begin("bench.op")
            failures.run(lib, workload, case, op)
            tracer.end(span)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    check(failures.failed == 0, f"traced small cases failed: "
                                f"{failures.summary()}")
    own = tracer.self_times()
    check(min(own) > -1e-6, "a span has negative self time")
    gap = wall - sum(own)
    check(0 <= gap < 0.05 * wall,
          f"self times sum to {sum(own):.4f} s of {wall:.4f} s wall")
    edges = {(tracer.spans[s[PARENT]][NAME], s[NAME])
             for s in tracer.spans if s[PARENT] >= 0}
    for parent, child in (("diagram.signature", "abelian.symmetric_signature"),
                          ("abelian.cokernel", "abelian.smith_invariants"),
                          ("simplify.replace_nonpositive_caps",
                           "trees.kuga_blowup_cost"),
                          ("middle.is_positive_ribbon", "trees.is_positive"),
                          ("trees.truncate", "trees.validate_tree")):
        check((parent, child) in edges, f"no {parent} -> {child} span")
    print(f"tracer: ok, {len(own)} spans, self times cover "
          f"{100 * sum(own) / wall:.2f}% of {wall:.2f} s wall")


def main() -> int:
    lib = run.import_library()
    check_determinism()
    check_expected_answers(lib)
    check_tracer(lib)
    return 0


if __name__ == "__main__":
    sys.exit(main())
