"""Bundled corpus of diagrams, ribbon descriptors and walkthrough scripts.

``corpus_run`` replays every bundled construction with its invariant
assertions and plan checks and returns a summary report; any failed
assertion or check fails the run with the corpus item name.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .middle import is_positive_ribbon
from .scripts import run_script
from .simplify import stabilization_plan, verify_plan
from .textio import (parse_diagram, parse_ribbon, parse_script,
                     serialize_diagram, serialize_ribbon, serialize_script)


def corpus_text(name: str) -> str:
    return (resources.files(__package__) / "corpus" / name).read_text("utf-8")


def corpus_names() -> list[str]:
    root = resources.files(__package__) / "corpus"
    return sorted(p.name for p in root.iterdir()
                  if p.name.rsplit(".", 1)[-1] in ("diagram", "ribbon", "script"))


@dataclass(frozen=True)
class CorpusItem:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class CorpusReport:
    items: tuple[CorpusItem, ...]

    @property
    def ok(self) -> bool:
        return all(i.ok for i in self.items)


_PARSERS = {"diagram": (parse_diagram, serialize_diagram),
            "ribbon": (parse_ribbon, serialize_ribbon),
            "script": (parse_script, serialize_script)}


def _roundtrip_items() -> list[CorpusItem]:
    out = []
    for name in corpus_names():
        parse, serialize = _PARSERS[name.rsplit(".", 1)[-1]]
        text = corpus_text(name)
        value = parse(text)
        again = parse(serialize(value))
        ok = again == value
        out.append(CorpusItem(f"roundtrip:{name}", ok,
                              "parse/serialize round trip"
                              if ok else "round trip changed the value"))
    return out


def _positivity_items() -> list[CorpusItem]:
    out = []
    for name, expected in (("r1", True), ("r2", True), ("r3", True),
                           ("r0", False)):
        r = parse_ribbon(corpus_text(f"{name}.ribbon"))
        decision = is_positive_ribbon(r)
        if expected:
            ok = decision.positive and decision.witness_loop == "l1"
            detail = (f"positive via loop {decision.witness_loop}"
                      if ok else f"expected positive, got {decision}")
        else:
            ok = (not decision.positive and decision.refusals
                  and "accessory" in decision.refusals[0][1])
            detail = (f"refused: {decision.refusals[0][1]}"
                      if ok else f"expected refusal, got {decision}")
        out.append(CorpusItem(f"positivity:{name}", ok, detail))
    return out


def _plan_item(name: str) -> CorpusItem:
    """A product plan for a non-positive descriptor, checked by replay."""
    r = parse_ribbon(corpus_text(f"{name}.ribbon"))
    plan = stabilization_plan(r)
    verdict = verify_plan(r, plan)
    ok = plan.outcome.kind == "product" and verdict.ok
    return CorpusItem(f"plan:{name}", ok, f"{len(plan.steps)} steps, verified"
                      if ok else f"{plan.outcome.kind}: {verdict.reason}")


def _script_item(diagram_name: str, script_name: str) -> CorpusItem:
    d = parse_diagram(corpus_text(f"{diagram_name}.diagram"))
    s = parse_script(corpus_text(f"{script_name}.script"))
    result = run_script(d, s)
    label = f"script:{script_name}"
    if not result.ok:
        f = result.failure
        return CorpusItem(label, False, f"step {f.index} failed: {f.detail}")
    return CorpusItem(label, True,
                      f"{len(s.commands)} commands, all assertions hold")


def corpus_run() -> CorpusReport:
    items = _roundtrip_items() + _positivity_items() + [_plan_item("r4")]
    items.append(_script_item("y2c1", "dual_walkthrough"))
    items.append(_script_item("y2c1", "cancellation_walkthrough"))
    items.append(_script_item("x1", "swap_to_dots"))
    return CorpusReport(tuple(items))


def summary_table(report: CorpusReport) -> list[str]:
    width = max(len(i.name) for i in report.items)
    lines = [f"{i.name:<{width}}  {'pass' if i.ok else 'FAIL'}  {i.detail}"
             for i in report.items]
    lines.append(f"{'total':<{width}}  "
                 f"{'pass' if report.ok else 'FAIL'}  "
                 f"{sum(i.ok for i in report.items)}/{len(report.items)} items")
    return lines
