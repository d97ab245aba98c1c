"""One benchmark operation per workload, with its output checks.

Every library call goes through a module attribute (``textio.parse_tree``
and so on), so the tracer's rebound wrappers see the benchmark's own calls.
Each operation returns the list of ways its output differs from the answer
known from construction; an empty list is a correct operation.  Exceptions
and verify rejections propagate to the caller, which counts them.
"""

from __future__ import annotations

import gen

WORKLOADS = ("script_replay", "ribbon_plan", "tree_unroll")


class VerifyRejected(Exception):
    """verify_plan refused a plan the planner produced."""


def load_library():
    from ribboncalc import scripts, simplify, textio, trees
    return {"scripts": scripts, "simplify": simplify, "textio": textio,
            "trees": trees}


# -- script_replay -------------------------------------------------------

def _read_diagram(text: str):
    """The benchmark's own reader for serialized diagrams."""
    comps, links, three = [], {}, 0
    for line in text.splitlines():
        toks = line.split()
        if toks[0] == "component":
            comps.append((toks[1], toks[2],
                          int(toks[3]) if toks[2] != "dotted" else None))
        elif toks[0] == "link":
            i, j = sorted(toks[1:3])
            links[(i, j)] = (int(toks[3]), int(toks[4]))
        elif toks[0] == "threehandles":
            three = int(toks[1])
    return tuple(comps), links, three


def script_op(lib, case: gen.ScriptCase) -> list[str]:
    textio, scripts = lib["textio"], lib["scripts"]
    d = textio.parse_diagram(case.diagram)
    s = textio.parse_script(case.script)
    result = scripts.run_script(d, s)
    out = textio.serialize_diagram(result.final)
    wrong = []
    if not result.ok:
        wrong.append(f"script stopped: {result.failure.detail}")
    got = [(st.euler, st.sig, st.plus.free_rank, st.plus.torsion)
           for st in result.steps]
    for k, (g, e) in enumerate(zip(got, case.invariants)):
        if g != e:
            wrong.append(f"step {k}: (chi, sigma, H1) = {g}, expected {e}")
            break
    if len(got) != len(case.invariants):
        wrong.append(f"{len(got)} steps, expected {len(case.invariants)}")
    comps, links, three = _read_diagram(out)
    if comps != case.final_components:
        wrong.append("final components differ from the move rules")
    if links != case.final_links:
        wrong.append("final links differ from the move rules")
    if three != case.final_three_handles:
        wrong.append(f"final 3-handles {three}, "
                     f"expected {case.final_three_handles}")
    return wrong


# -- ribbon_plan ---------------------------------------------------------

def ribbon_op(lib, case: gen.RibbonCase) -> list[str]:
    textio, simplify = lib["textio"], lib["simplify"]
    r = textio.parse_ribbon(case.text)
    plan = simplify.stabilization_plan(r)
    verdict = simplify.verify_plan(r, plan)
    out = textio.serialize_ribbon(r)
    if not verdict.ok:
        raise VerifyRejected(f"step {verdict.failing_step}: {verdict.reason}")
    wrong = []
    got = (plan.outcome.kind, plan.outcome.witness_loop, plan.blowups, plan.k)
    want = (case.kind, case.witness, case.blowups, case.k)
    if got != want:
        wrong.append(f"(outcome, witness, blowups, k) = {got}, "
                     f"expected {want}")
    kinds = [type(step).__name__ for step in plan.steps]
    if kinds.count("ReplaceCap") != case.replaced:
        wrong.append(f"{kinds.count('ReplaceCap')} cap replacements, "
                     f"expected {case.replaced}")
    if case.kind == "product":
        cancelled = {step.ids for step in plan.steps
                     if type(step).__name__ == "CancelPair"}
        missing = [i for i in range(1, case.pairs + 1)
                   if (f"A{i}", f"B{i}") not in cancelled]
        if missing:
            wrong.append(f"sphere pairs {missing[:5]} never cancelled")
    if out != case.text:
        wrong.append("serialize_ribbon(parse_ribbon(text)) != text")
    return wrong


# -- tree_unroll ---------------------------------------------------------

def tree_op(lib, case: gen.TreeCase) -> list[str]:
    textio, trees = lib["textio"], lib["trees"]
    h = textio.parse_tree(case.text)
    positive = trees.is_positive(h)
    prune = trees.prune_depth(h)
    cost = None if positive else trees.kuga_blowup_cost(h)
    tower = trees.truncate(h, case.depth)
    branch = trees.tower_has_positive_branch(tower)
    strict = trees.is_strictly_positive(tower)
    tower_prune = trees.prune_depth(tower)
    text = textio.serialize_tree(tower)
    back = textio.parse_tree(text)
    wrong = []
    got = (positive, prune, cost, len(tower.nodes), branch, strict,
           tower_prune)
    want = (case.positive, case.prune, case.cost, case.tower_nodes,
            case.tower_positive_branch, case.tower_strict, case.tower_prune)
    if got != want:
        wrong.append(f"(positive, prune, cost, nodes, branch, strict, "
                     f"tower prune) = {got}, expected {want}")
    if text.count("\nnode ") != case.tower_nodes:
        wrong.append("serialized tower has the wrong node count")
    if back != tower:
        wrong.append("parse_tree(serialize_tree(tower)) != tower")
    return wrong


OPS = {"script_replay": script_op, "ribbon_plan": ribbon_op,
       "tree_unroll": tree_op}


def make_case(workload: str, seed: int, index: int):
    if workload == "script_replay":
        return gen.script_case(seed, index)
    if workload == "ribbon_plan":
        return gen.ribbon_case(seed, index)
    return gen.tree_case(seed, index)


def schedule_length(workload: str) -> int:
    return len({"script_replay": gen.SCRIPT_SCHEDULE,
                "ribbon_plan": gen.RIBBON_SCHEDULE,
                "tree_unroll": gen.TREE_SCHEDULE}[workload])


def probe_cases(workload: str, seed: int) -> list:
    """Inputs that hit the two known defects at the seed commit.

    Deep positive chains raise RecursionError; descriptors whose fingers
    and Whitney loops are named A<k>/B<k> make a CancelPair step that
    verify_plan reads as a sphere-pair cancellation and rejects.
    """
    if workload == "tree_unroll":
        return [gen.tree_case(seed, -1 - k, "chain", n)
                for k, n in enumerate(gen.DEEP_CHAIN_LENGTHS)]
    if workload == "ribbon_plan":
        return [gen.ribbon_case(seed, k, ab_ids=True, size=(20, 60, 3))
                for k in range(3)]
    return []
