"""Move scripts over Kirby diagrams: the command table and its interpreter.

:data:`COMMANDS` has one row per command form; :mod:`ribboncalc.textio`
reads and writes scripts by its rows and :func:`run_script` applies them,
stopping at the first failed move, failed assertion or command that fits
no row.  Every step records the Euler characteristic, signature and both
boundary homology groups of the resulting diagram.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .abelian import AbelianGroup
from .diagram import (COUNTS, KirbyDiagram, MoveError, add_cancelling_pair,
                      assert_geometric, blow_down, blow_up, cancel_pair,
                      dualize, handle_slide, twist_blow_up, zero_dot_swap,
                      boundary_homology, euler_char, signature)


@dataclass(frozen=True)
class Command:
    op: str
    args: tuple = ()


@dataclass(frozen=True)
class MoveScript:
    name: str
    commands: tuple[Command, ...] = ()


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


# -- the command table ---------------------------------------------------

# Argument kinds.  ID, SIGN and INT take one token of script text; STRANDS
# (ID:MULT tokens, at least one, no id twice) and INTS take the rest of the
# line; ABSENT takes none and stands for an omitted id.  Any other kind is a
# literal: one token out of its '|'-separated choices.
ID, SIGN, INT, STRANDS, INTS, ABSENT = "ID", "SIGN", "INT", "ID:MULT", "INTS", ""
_FITS = {
    ID: lambda v: isinstance(v, str), SIGN: lambda v: v in (1, -1),
    INT: lambda v: isinstance(v, int), ABSENT: lambda v: v is None,
    INTS: lambda v: isinstance(v, tuple) and all(isinstance(x, int) for x in v),
    STRANDS: lambda v: isinstance(v, tuple) and len(v) > 0 and all(
        isinstance(s, tuple) and len(s) == 2 and isinstance(s[0], str)
        and isinstance(s[1], int) for s in v) and len(dict(v)) == len(v)}


@dataclass(frozen=True)
class Form:
    """One command form: a row of :data:`COMMANDS`."""
    op: str
    usage: str
    kinds: tuple[str, ...]
    move: Callable | None = None   # (d, *args) -> the new diagram
    check: Callable | None = None  # (step, d, *args) -> (what, got, want)

    def fits(self, args) -> bool:
        return (isinstance(args, tuple) and len(args) == len(self.kinds)
                and all(_FITS[k](v) if k in _FITS else v in k.split("|")
                        for k, v in zip(self.kinds, args)))


def _homology(step: StepReport, d, side: str, rank: int, torsion):
    if getattr(step, side) is None:
        raise MoveError("minus boundary requires a dual decomposition")
    try:
        want = AbelianGroup(rank, torsion)
    except ValueError as exc:
        raise MoveError(f"expected group: {exc}") from None
    return f"H1(boundary {side})", getattr(step, side), want


# Moves are called through their module-level names, so a rebound name
# (a tracer or a test's monkeypatch) sees the call.
COMMANDS = (
    Form("slide", "slide MOVING OVER SIGN", (ID, ID, SIGN),
         move=lambda d, a, b, sign: handle_slide(d, a, b, sign)),
    Form("blowup", "blowup SIGN NEWID", (SIGN, ID),
         move=lambda d, sign, e: blow_up(d, sign, e)),
    Form("twistblowup", "twistblowup SIGN NEWID ID:MULT...",
         (SIGN, ID, STRANDS),
         move=lambda d, t, e, strands: twist_blow_up(d, t, dict(strands), e)),
    Form("blowdown", "blowdown ID", (ID,), move=lambda d, e: blow_down(d, e)),
    Form("swap", "swap ID", (ID,), move=lambda d, c: zero_dot_swap(d, c)),
    Form("addpair", "addpair 12 D H", ("12", ID, ID),
         move=lambda d, kind, a, b: add_cancelling_pair(d, kind, (a, b))),
    Form("addpair", "addpair 23 H", ("23", ID),
         move=lambda d, kind, b: add_cancelling_pair(d, kind, (b,))),
    Form("cancel", "cancel DOTTED FRAMED", (ID, ID),
         move=lambda d, a, b: cancel_pair(d, a, b)),
    Form("cancel", "cancel FRAMED", (ABSENT, ID),
         move=lambda d, a, b: cancel_pair(d, a, b)),
    Form("dualize", "dualize", (), move=lambda d: dualize(d)),
    Form("assert-geom", "assert-geom ID ID COUNT", (ID, ID, INT),
         move=lambda d, i, j, g: assert_geometric(d, i, j, g)),
    Form("assert-homology", "assert-homology plus|minus RANK [D...]",
         ("plus|minus", INT, INTS), check=_homology),
    Form("assert-euler", "assert-euler VALUE", (INT,),
         check=lambda step, d, v: ("euler characteristic", step.euler, v)),
    Form("assert-signature", "assert-signature VALUE", (INT,),
         check=lambda step, d, v: ("signature", step.sig, v)),
    Form("assert-count", "assert-count threehandles|fourhandles|hidden1 N",
         ("|".join(COUNTS), INT),
         check=lambda step, d, kw, v: (kw, getattr(d, COUNTS[kw]), v)),
    Form("assert-kind", "assert-kind ID dotted|framed|parenframed",
         (ID, "dotted|framed|parenframed"),
         check=lambda step, d, c, kind: (f"kind of {c}", d.component(c).kind,
                                         kind)),
)


def quoted(tok: str) -> str:
    """``tok`` as an error quotes it: past 40 characters, cut and sized."""
    return (repr(tok) if len(tok) <= 40
            else f"{tok[:40]!r}... ({len(tok)} characters)")


def shown(tok) -> str:
    """``tok`` as an error shows it bare: as ``str`` makes it, or past 40
    characters cut and sized as :func:`quoted` does."""
    text = str(tok)
    return text if len(text) <= 40 else quoted(text)


def form_error(op: str) -> str:
    """What is wrong with a command of this op that fits none of its rows."""
    usages = " | ".join(f.usage for f in COMMANDS if f.op == op)
    return (f"{op} needs: {usages}" if usages
            else f"unknown command {quoted(op)}")


def form_of(cmd: Command) -> Form:
    """The row ``cmd`` fits; raises MoveError when it fits none."""
    for form in COMMANDS:
        if form.op == cmd.op and form.fits(cmd.args):
            return form
    raise MoveError(form_error(cmd.op))


# -- the interpreter -----------------------------------------------------

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
              d: KirbyDiagram, memo: dict) -> StepReport:
    plus, _ = boundary_homology(d, "plus", memo)
    minus = boundary_homology(d, "minus", memo)[0] if d.dual_flag else None
    return StepReport(idx, cmd, ok, detail, euler_char(d),
                      signature(d, memo), plus, minus)


def apply_command(d: KirbyDiagram, cmd: Command) -> KirbyDiagram:
    """One move applied to a diagram; raises MoveError on bad input,
    including an assertion, which is not a move."""
    form = form_of(cmd)
    if form.move is None:
        raise MoveError(f"{cmd.op} is an assertion, not a move")
    return form.move(d, *cmd.args)


def run_script(d: KirbyDiagram, script: MoveScript) -> ScriptResult:
    """Replay ``script`` on ``d``; never raises for a bad command.

    The invariants of each diagram are computed once: an assertion, or a
    move that fails, reports the snapshot of the diagram it left unchanged.
    A move's result keeps the linked blocks of its parent that the move
    did not touch, so one memo of block results, kept for this call only,
    serves every snapshot: a kept block costs one lookup, and the
    signature and the cokernel of each distinct block matrix are computed
    once.
    """
    memo: dict = {}
    state = _snapshot(0, None, True, "initial", d, memo)
    steps = [state]
    for idx, cmd in enumerate(script.commands, start=1):
        try:
            form = form_of(cmd)
            if form.check is not None:
                what, got, want = form.check(state, d, *cmd.args)
                if got != want:
                    raise MoveError(f"{what} = {got}, expected {want}")
                steps.append(replace(state, index=idx, command=cmd,
                                     detail="assertion holds"))
                continue
            d = form.move(d, *cmd.args)
        except MoveError as exc:
            steps.append(replace(state, index=idx, command=cmd, ok=False,
                                 detail=str(exc)))
            return ScriptResult(script.name, False, tuple(steps), d)
        state = _snapshot(idx, cmd, True, "applied", d, memo)
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
