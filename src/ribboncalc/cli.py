"""Command-line interface.

Exit codes: 0 success, 1 failure (a failed step or assertion, a refused
analysis, an unreadable file), 2 parse error, a document that breaks a rule
of its value included.
With ``--porcelain`` every report line is a machine-readable ``key=value``
record.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import corpus as corpus_mod
from .diagram import MoveError, boundary_homology, dualize
from .middle import MiddleError, is_positive_ribbon
from .render import diagram_dot, finger_dot, tree_dot
from .scripts import run_script, trace_lines
from .simplify import StabilizationError, stabilization_plan, verify_plan
from .textio import (ParseError, parse_any, parse_diagram, parse_ribbon,
                     parse_script, parse_tree, serialize_diagram,
                     serialize_tree)
from .trees import (TreeError, is_positive, is_strictly_positive,
                    kuga_blowup_cost, prune_depth, truncate)

OK, FAIL, PARSE_FAIL = 0, 1, 2


def _read(path: str) -> str:
    return Path(path).read_text("utf-8")


class _Out:
    def __init__(self, porcelain: bool):
        self.porcelain = porcelain

    def kv(self, key: str, value) -> None:
        if self.porcelain:
            print(f"{key}={value}")
        else:
            print(f"{key}: {value}")

    def line(self, text: str) -> None:
        if not self.porcelain:
            print(text)


def _cmd_check(args, out: _Out) -> int:
    # No document value can be built invalid: a broken rule is a ParseError.
    kind, _ = parse_any(_read(args.file))
    out.kv("type", kind)
    out.kv("ok", "true")
    return OK


def _cmd_apply(args, out: _Out) -> int:
    d = parse_diagram(_read(args.diagram))
    s = parse_script(_read(args.script))
    result = run_script(d, s)
    if args.trace_invariants:
        for line in trace_lines(result):
            out.line(line)
    if out.porcelain:
        for step in result.steps:
            out.kv(f"step{step.index}",
                   f"{'ok' if step.ok else 'fail'} chi={step.euler} "
                   f"sigma={step.sig} h1plus={step.plus}")
    out.kv("ok", "true" if result.ok else "false")
    if not result.ok:
        f = result.failure
        out.kv("failed_step", f.index)
        out.kv("reason", f.detail)
        print(f"error: step {f.index}: {f.detail}", file=sys.stderr)
        return FAIL
    out.line(serialize_diagram(result.final).rstrip("\n"))
    return OK


def _cmd_homology(args, out: _Out) -> int:
    d = parse_diagram(_read(args.diagram))
    group, caveat = boundary_homology(d, args.side)
    out.kv("h1", group)
    out.kv("three_handle_caveat", "true" if caveat else "false")
    return OK


def _cmd_dualize(args, out: _Out) -> int:
    d = parse_diagram(_read(args.diagram))
    print(serialize_diagram(dualize(d)), end="")
    return OK


def _cmd_tree(args, out: _Out) -> int:
    t = parse_tree(_read(args.file))
    if args.truncate is not None:
        print(serialize_tree(truncate(t, args.truncate)), end="")
        return OK
    if args.positive:
        ok = is_positive(t) if not t.finite else False
        out.kv("positive", "true" if ok else "false")
        return OK if ok else FAIL
    if args.strict:
        ok = is_strictly_positive(t)
        out.kv("strictly_positive", "true" if ok else "false")
        return OK if ok else FAIL
    if args.prune_depth:
        depth = prune_depth(t)
        out.kv("prune_depth", "infinite" if depth is None else depth)
        return OK
    if args.cost:
        out.kv("blowup_cost", kuga_blowup_cost(t))
        return OK
    out.kv("nodes", len(t.nodes))
    out.kv("finite", "true" if t.finite else "false")
    return OK


def _cmd_ribbon(args, out: _Out) -> int:
    r = parse_ribbon(_read(args.file))
    if args.action == "positivity":
        decision = is_positive_ribbon(r)
        out.kv("positive", "true" if decision.positive else "false")
        if decision.witness_loop:
            out.kv("witness_loop", decision.witness_loop)
        for loop, reason in decision.refusals:
            out.kv("refusal", f"{loop}: {reason}")
        return OK
    # action == "plan"
    plan = stabilization_plan(r)
    out.kv("outcome", plan.outcome.kind)
    out.kv("k", plan.k)
    out.kv("blowups", plan.blowups)
    out.kv("steps", len(plan.steps))
    if plan.outcome.witness_loop:
        out.kv("witness_loop", plan.outcome.witness_loop)
    if plan.outcome.note:
        out.kv("note", plan.outcome.note)
    if args.verify:
        check = verify_plan(r, plan)
        out.kv("verified", "true" if check.ok else "false")
        if not check.ok:
            out.kv("verify_reason", check.reason)
            return FAIL
    return OK


def _cmd_corpus(args, out: _Out) -> int:
    report = corpus_mod.corpus_run()
    if out.porcelain:
        for item in report.items:
            out.kv(item.name, "pass" if item.ok else "fail")
    else:
        for line in corpus_mod.summary_table(report):
            print(line)
    return OK if report.ok else FAIL


def _cmd_render(args, out: _Out) -> int:
    kind, value = parse_any(_read(args.file))
    dot = {"tree": tree_dot, "diagram": diagram_dot, "middle": finger_dot,
           "ribbon": lambda r: finger_dot(r.middle)}.get(kind)
    if dot is None:
        print(f"cannot render a {kind} document", file=sys.stderr)
        return FAIL
    print(dot(value), end="")
    return OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call only."""
    ap = argparse.ArgumentParser(
        prog="ribboncalc",
        description="Kirby-diagram moves, Casson-handle trees, ribbon "
                    "positivity and stabilization plans")
    ap.add_argument("--porcelain", action="store_true",
                    help="machine-readable key=value output")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps the subcommand flag from clobbering the global one.
    common.add_argument("--porcelain", action="store_true",
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("check", help="validate a document")
    p.add_argument("file")

    p = add_parser("apply", help="run a move script against a diagram")
    p.add_argument("diagram")
    p.add_argument("script")
    p.add_argument("--trace-invariants", action="store_true")

    p = add_parser("homology", help="boundary H1 of a diagram")
    p.add_argument("diagram")
    p.add_argument("--side", choices=("plus", "minus"), default="plus")

    p = add_parser("dualize", help="emit the dual decomposition")
    p.add_argument("diagram")

    p = add_parser("tree", help="signed-tree analyses")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--positive", action="store_true")
    g.add_argument("--strict", action="store_true")
    g.add_argument("--prune-depth", dest="prune_depth", action="store_true")
    g.add_argument("--cost", action="store_true")
    g.add_argument("--truncate", type=int, metavar="N")

    p = add_parser("ribbon", help="ribbon descriptor analyses")
    p.add_argument("action", choices=("positivity", "plan"))
    p.add_argument("file")
    p.add_argument("--verify", action="store_true")

    p = add_parser("corpus", help="bundled corpus")
    p.add_argument("action", choices=("run",))

    p = add_parser("render", help="emit DOT for a document")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true",
                   help="DOT output (the only supported format)")

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = _Out(args.porcelain)
    try:
        # Looked up per call, so a rebound _cmd_* name is the one called.
        return globals()[f"_cmd_{args.command}"](args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_FAIL
    except (TreeError, StabilizationError, MoveError, MiddleError, OSError,
            ValueError, MemoryError, RecursionError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
