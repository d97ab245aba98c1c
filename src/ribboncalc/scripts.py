"""Interpreter for move scripts over Kirby diagrams.

Each command is applied in order; the interpreter stops at the first failed
precondition or assertion and reports where and why.  Every step records the
Euler characteristic, signature and both boundary homology groups of the
resulting diagram so invariant drift is visible in traces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .abelian import AbelianGroup
from .diagram import (KirbyDiagram, MoveError, add_cancelling_pair,
                      assert_geometric, blow_down, blow_up, cancel_pair,
                      dualize, handle_slide, twist_blow_up, zero_dot_swap,
                      boundary_homology, euler_char, signature)
from .textio import Command, MoveScript


@dataclass(frozen=True)
class StepReport:
    index: int            # 0 = initial state, then 1-based command index
    command: Command | None
    ok: bool
    detail: str
    euler: int
    sig: int
    plus: AbelianGroup
    minus: AbelianGroup | None  # only dual decompositions expose this side


@dataclass(frozen=True)
class ScriptResult:
    script: str
    ok: bool
    steps: tuple[StepReport, ...]
    final: KirbyDiagram

    @property
    def failure(self) -> StepReport | None:
        return next((s for s in self.steps if not s.ok), None)


def _snapshot(idx: int, cmd: Command | None, ok: bool, detail: str,
              d: KirbyDiagram) -> StepReport:
    plus, _ = boundary_homology(d, "plus")
    minus = boundary_homology(d, "minus")[0] if d.dual_flag else None
    return StepReport(idx, cmd, ok, detail, euler_char(d), signature(d),
                      plus, minus)


def apply_command(d: KirbyDiagram, cmd: Command) -> KirbyDiagram:
    """One command applied to a diagram; raises MoveError on bad input."""
    op, args = cmd.op, cmd.args
    if op == "slide":
        return handle_slide(d, moving=args[0], over=args[1], sign=args[2])
    if op == "blowup":
        return blow_up(d, sign=args[0], new_id=args[1])
    if op == "twistblowup":
        return twist_blow_up(d, t=args[0], strands=dict(args[2]),
                             new_id=args[1])
    if op == "blowdown":
        return blow_down(d, args[0])
    if op == "swap":
        return zero_dot_swap(d, args[0])
    if op == "addpair":
        if args[0] == "12":
            return add_cancelling_pair(d, "12", ids=(args[1], args[2]))
        return add_cancelling_pair(d, "23", ids=(args[1],))
    if op == "cancel":
        return cancel_pair(d, args[0], args[1])
    if op == "dualize":
        return dualize(d)
    if op == "assert-geom":
        return assert_geometric(d, args[0], args[1], args[2])
    raise MoveError(f"unknown command {op!r}")


def _check_assertion(state: StepReport, cmd: Command) -> str | None:
    """None on success, else a failure description.

    ``state`` is the snapshot of the diagram the assertion is made about.
    """
    op, args = cmd.op, cmd.args
    if op == "assert-homology":
        side, rank, torsion = args
        if side not in ("plus", "minus"):
            return f"unknown side {side!r}"
        got = state.plus if side == "plus" else state.minus
        if got is None:
            return "minus boundary requires a dual decomposition"
        want = AbelianGroup(rank, torsion)
        if got != want:
            return f"H1(boundary {side}) = {got}, expected {want}"
        return None
    if op == "assert-euler":
        if state.euler != args[0]:
            return f"euler characteristic = {state.euler}, expected {args[0]}"
        return None
    if state.sig != args[0]:
        return f"signature = {state.sig}, expected {args[0]}"
    return None


ASSERTIONS = frozenset(
    {"assert-homology", "assert-euler", "assert-signature"})


def run_script(d: KirbyDiagram, script: MoveScript) -> ScriptResult:
    """Replay ``script`` on ``d``; never raises for a bad command.

    The invariants of each diagram are computed once: an assertion, or a
    move that fails, reports the snapshot of the diagram it left unchanged.
    """
    state = _snapshot(0, None, True, "initial", d)
    steps = [state]
    for idx, cmd in enumerate(script.commands, start=1):
        if cmd.op in ASSERTIONS:
            problem = _check_assertion(state, cmd)
            steps.append(replace(state, index=idx, command=cmd,
                                 ok=problem is None,
                                 detail=problem or "assertion holds"))
            if problem is not None:
                return ScriptResult(script.name, False, tuple(steps), d)
            continue
        try:
            d = apply_command(d, cmd)
        except MoveError as exc:
            steps.append(replace(state, index=idx, command=cmd, ok=False,
                                 detail=str(exc)))
            return ScriptResult(script.name, False, tuple(steps), d)
        state = _snapshot(idx, cmd, True, "applied", d)
        steps.append(state)
    return ScriptResult(script.name, True, tuple(steps), d)


def trace_lines(result: ScriptResult) -> list[str]:
    """Human-readable per-step trace, one line per step."""
    out = []
    for s in result.steps:
        label = "initial" if s.command is None else s.command.op
        status = "ok" if s.ok else "FAIL"
        minus = f" H1-={s.minus}" if s.minus is not None else ""
        out.append(
            f"{s.index:3d} {label:<16} {status:<4} chi={s.euler} sigma={s.sig} "
            f"H1+={s.plus}{minus}  {s.detail}")
    return out
