"""Script interpreter: stepwise application, assertions and traces."""

import random

import pytest

import ribboncalc.diagram
import ribboncalc.scripts
from ribboncalc.diagram import FRAMED, PAREN
from ribboncalc.scripts import COMMANDS
from ribboncalc import (AbelianGroup, Command, Component, KirbyDiagram,
                        MoveError, MoveScript, apply_command,
                        boundary_homology, euler_char, run_script, signature,
                        trace_lines)

from genlib import (block_sum, dense_cluster, oracle_link_blocks,
                    random_diagram)


def diagram(*comps, links=None, **kw):
    d = KirbyDiagram(name="d", components=tuple(Component(*c) for c in comps),
                     **kw)
    return d.with_links(links or {})


def script(*commands):
    return MoveScript("s", tuple(Command(op, tuple(args))
                                 for op, *args in commands))


HOPF = lambda: diagram(("a", "framed", 0), ("b", "framed", 0),
                       links={("a", "b"): (1, 1)})


class TestCommandTable:
    def test_one_row_per_form(self):
        assert len({(f.op, f.kinds) for f in COMMANDS}) == len(COMMANDS) == 16
        for f in COMMANDS:
            assert f.usage.split()[0] == f.op
            assert (f.move is None) != (f.check is None)

    def test_assertions_read_the_snapshot(self):
        assert {f.op for f in COMMANDS if f.check is not None} == {
            "assert-homology", "assert-euler", "assert-signature",
            "assert-count", "assert-kind"}


class TestApplyCommand:
    def test_slide(self):
        d = apply_command(HOPF(), Command("slide", ("a", "b", 1)))
        assert d.framing("a") == 2

    def test_unknown_op(self):
        with pytest.raises(MoveError, match="unknown command"):
            apply_command(HOPF(), Command("wiggle", ()))

    def test_wrong_arity_is_a_move_error(self):
        with pytest.raises(MoveError, match="slide needs"):
            apply_command(HOPF(), Command("slide", ("a",)))

    def test_assertions_are_not_moves(self):
        with pytest.raises(MoveError):
            apply_command(HOPF(), Command("assert-euler", (3,)))


class TestRunScript:
    def test_empty_script(self):
        result = run_script(HOPF(), script())
        assert result.ok and len(result.steps) == 1
        assert result.steps[0].detail == "initial"
        assert result.failure is None

    def test_successful_run_records_every_step(self):
        s = script(("assert-euler", 3),
                   ("blowup", 1, "e"),
                   ("assert-signature", 1),
                   ("blowdown", "e"),
                   ("assert-euler", 3))
        result = run_script(HOPF(), s)
        assert result.ok
        assert [st.index for st in result.steps] == [0, 1, 2, 3, 4, 5]
        assert all(st.ok for st in result.steps)
        assert result.final == HOPF()

    def test_deterministic(self):
        s = script(("blowup", 1, "e"), ("slide", "a", "e", 1),
                   ("assert-euler", 4))
        first = run_script(HOPF(), s)
        second = run_script(HOPF(), s)
        assert first == second

    def test_stops_at_first_failed_assertion(self):
        s = script(("assert-euler", 99), ("blowup", 1, "e"))
        result = run_script(HOPF(), s)
        assert not result.ok
        assert result.failure.index == 1
        assert "euler characteristic" in result.failure.detail
        assert "expected 99" in result.failure.detail
        # nothing after the failure ran: the final diagram is unchanged
        assert result.final == HOPF()
        assert len(result.steps) == 2

    def test_stops_at_forbidden_move(self):
        d = diagram(("d1", "dotted"), ("h1", "framed", 0),
                    links={("d1", "h1"): (1, 1)})
        s = script(("slide", "d1", "h1", 1), ("blowup", 1, "e"))
        result = run_script(d, s)
        assert not result.ok and result.failure.index == 1
        assert len(result.steps) == 2
        assert result.final == d

    def test_midscript_state_feeds_later_assertions(self):
        s = script(("addpair", "23", "hx"),
                   ("assert-homology", "plus", 2, ()),
                   ("cancel", None, "hx"),
                   ("assert-homology", "plus", 5, ()))
        d = diagram(("a", "framed", 0))
        result = run_script(d, s)
        # the last assertion is wrong on purpose: H1 is Z after the cancel
        assert not result.ok and result.failure.index == 4
        assert result.steps[2].plus == AbelianGroup(2, ())
        assert result.steps[3].plus == AbelianGroup(1, ())

    def test_addpair_cancel_round_trip(self):
        d = diagram(("a", "framed", 2))
        s = script(("addpair", "12", "dx", "hx"),
                   ("assert-euler", 2),
                   ("cancel", "dx", "hx"),
                   ("assert-euler", 2),
                   ("assert-homology", "plus", 0, (2,)))
        result = run_script(d, s)
        assert result.ok
        assert result.final == d

    def test_minus_assertion_on_non_dual_diagram_fails_the_step(self):
        s = script(("assert-homology", "minus", 0, ()), ("blowup", 1, "e"))
        result = run_script(HOPF(), s)
        assert not result.ok and result.failure.index == 1
        assert "requires a dual decomposition" in result.failure.detail
        assert result.failure.minus is None and len(result.steps) == 2

    def test_invariants_computed_once_per_diagram(self, monkeypatch):
        calls = []
        real = ribboncalc.scripts.signature
        monkeypatch.setattr(ribboncalc.scripts, "signature",
                            lambda d, *rest: calls.append(d) or real(d, *rest))
        s = script(("assert-signature", 0), ("assert-euler", 3),
                   ("blowup", 1, "e"), ("assert-signature", 1),
                   ("assert-homology", "plus", 0, ()), ("blowdown", "a"))
        result = run_script(HOPF(), s)
        # the initial diagram and the blow-up; the failed blow-down left
        # the diagram unchanged
        assert len(calls) == 2
        assert [st.sig for st in result.steps] == [0, 0, 0, 1, 1, 1, 1]
        assert result.failure.index == 6

    @pytest.mark.parametrize("command", [
        ("slide", "zz", "a", 1), ("slide", "a", "zz", 1),
        ("blowdown", "zz"), ("swap", "zz"), ("cancel", "zz", "a"),
        ("cancel", None, "zz"), ("assert-geom", "a", "zz", 0),
        ("twistblowup", 1, "e", (("zz", 1),))])
    def test_unknown_component_fails_the_step(self, command):
        result = run_script(HOPF(), script(command, ("blowup", 1, "e")))
        assert not result.ok and result.failure.index == 1
        assert result.failure.detail == "unknown component 'zz'"
        assert result.final == HOPF() and len(result.steps) == 2

    @pytest.mark.parametrize("command, detail", [
        (("slide", "a"), "slide needs: slide MOVING OVER SIGN"),
        (("slide", "a", "b", 2), "slide needs: "),
        (("assert-euler",), "assert-euler needs: assert-euler VALUE"),
        (("assert-homology", "sideways", 1, ()), "plus|minus"),
        (("cancel", "a"), "cancel needs: cancel DOTTED FRAMED | cancel FRAMED"),
        (("addpair", "13", "a", "b"), "addpair needs: addpair 12 D H"),
        (("twistblowup", 1, "e", "a:1"), "twistblowup needs: "),
        (("wiggle", "a"), "unknown command 'wiggle'"),
        (("assert-homology", "plus", 1, (4, 6)), "divisibility chain"),
        # a strand named twice used to twist with the last multiplicity
        (("twistblowup", 1, "e", (("a", 1), ("a", 2))), "twistblowup needs: "),
        (("assert-geom", "a", "a", 0), "geom[a][a] names one component twice")])
    def test_malformed_command_fails_the_step(self, command, detail):
        result = run_script(HOPF(), script(command, ("blowup", 1, "e")))
        assert not result.ok and result.failure.index == 1
        assert detail in result.failure.detail
        assert result.final == HOPF() and len(result.steps) == 2

    @pytest.mark.parametrize("command, detail", [
        (("assert-count", "threehandles", 2), "threehandles = 0, expected 2"),
        (("assert-count", "hidden1", 1), "hidden1 = 0, expected 1"),
        (("assert-kind", "a", "dotted"), "kind of a = framed, expected dotted"),
        (("assert-kind", "zz", "framed"), "unknown component 'zz'"),
        (("assert-count", "fivehandles", 0), "assert-count needs: "),
        (("assert-kind", "a", "wavy"), "assert-kind needs: ")])
    def test_failed_count_and_kind_assertions(self, command, detail):
        result = run_script(HOPF(), script(command, ("blowup", 1, "e")))
        assert not result.ok and result.failure.index == 1
        assert result.failure.detail.startswith(detail)
        assert result.final == HOPF() and len(result.steps) == 2

    def test_count_and_kind_assertions_read_the_current_diagram(self):
        s = script(("assert-count", "threehandles", 0),
                   ("addpair", "23", "hx"),
                   ("assert-count", "threehandles", 1),
                   ("assert-count", "fourhandles", 0),
                   ("assert-kind", "hx", "framed"),
                   ("swap", "hx"),
                   ("assert-kind", "hx", "dotted"),
                   ("dualize",),
                   ("assert-count", "hidden1", 1),
                   ("assert-kind", "hx", "parenframed"))
        result = run_script(HOPF(), s)
        assert result.ok, result.failure
        assert sum(st.detail == "assertion holds" for st in result.steps) == 7

    def test_dual_side_reported_only_after_dualize(self):
        d = diagram(("a", "framed", 0), three_handles=0)
        s = script(("dualize",))
        result = run_script(d, s)
        assert result.ok
        assert result.steps[0].minus is None
        assert result.steps[1].minus is not None


def matrix_key(m):
    return tuple(map(tuple, m))


def ids_of(d, *kinds):
    return [c.id for c in d.components if c.kind in kinds]


def diagrams_of(d, result):
    """The diagram each step of ``result`` reports on, replayed from ``d``:
    only an applied move changes it."""
    for step in result.steps:
        if step.detail == "applied":
            d = apply_command(d, step.command)
        yield d


def applicable_script(rng, d, length):
    """``length`` moves that all apply in turn from ``d``, with a true
    Euler-characteristic assertion now and then."""
    cmds = []
    for n in range(length):
        makers = [
            lambda: Command("slide", (rng.choice(d.ids()), rng.choice(d.ids()),
                                      rng.choice((1, -1)))),
            lambda: Command("blowup", (rng.choice((1, -1)), f"e{n}")),
            lambda: Command("twistblowup", (rng.choice((1, -1)), f"t{n}", (
                (rng.choice(d.ids()), rng.choice((1, 2, -1))),))),
            lambda: Command("blowdown", (rng.choice(d.ids()),)),
            lambda: Command("swap", (rng.choice(d.ids()),)),
            lambda: Command("addpair", ("12", f"d{n}", f"h{n}")),
            lambda: Command("assert-euler", (euler_char(d),)),
        ]
        if rng.random() < 0.05:
            makers = [lambda: Command("dualize")]
        for _ in range(20):
            cmd = rng.choice(makers)()
            try:
                if cmd.op != "assert-euler":
                    d = apply_command(d, cmd)
            except MoveError:
                continue
            cmds.append(cmd)
            break
    return MoveScript("s", tuple(cmds))


class TestBlockMemo:
    """Within one run_script call, the signature and the cokernel of each
    distinct block matrix are computed once."""

    def count_kernels(self, monkeypatch):
        seen = {"cokernel": [], "symmetric_signature": []}
        for name, calls in seen.items():
            real = getattr(ribboncalc.diagram, name)
            monkeypatch.setattr(
                ribboncalc.diagram, name,
                lambda m, real=real, calls=calls:
                    calls.append(matrix_key(m)) or real(m))
        return seen

    def test_one_kernel_call_per_distinct_block(self, monkeypatch):
        rng = random.Random(11)
        d = block_sum(rng, [dense_cluster(rng, 8, dotted=1)] * 6)
        # Every move touches copy 0 (ids c*.0); the second slide undoes the
        # first, so its blocks are all in the memo already.
        s = script(("slide", "c3.0", "c4.0", 1),
                   ("assert-euler", euler_char(d)),
                   ("slide", "c3.0", "c4.0", -1),
                   ("blowup", 1, "e"), ("slide", "c5.0", "e", 1),
                   ("dualize",), ("slide", "m_c2.0", "m_c6.0", 1))
        seen = self.count_kernels(monkeypatch)
        result = run_script(d, s)
        assert result.ok
        want = {"cokernel": set(), "symmetric_signature": set()}
        blocks_read = 0
        for e in diagrams_of(d, result):
            sides = [e.ids()] + ([ids_of(e, PAREN)] if e.dual_flag else [])
            for kernel, ids in ([("cokernel", ids) for ids in sides]
                                + [("symmetric_signature",
                                    ids_of(e, FRAMED, PAREN))]):
                blocks = [matrix_key(m)
                          for _, m in oracle_link_blocks(e, ids) if m]
                want[kernel].update(blocks)
                blocks_read += len(blocks)
        for kernel, calls in seen.items():
            assert len(calls) == len(set(calls)), kernel
            assert set(calls) == want[kernel], kernel
        made = {kernel: len(calls) for kernel, calls in seen.items()}
        # The shuffle orders the copies' components differently, so their
        # matrices differ by a permutation; the untouched ones still repeat
        # from step to step.
        assert sum(made.values()) < blocks_read / 2
        # A second call starts from an empty memo.
        for calls in seen.values():
            calls.clear()
        assert run_script(d, s) == result
        assert {kernel: len(calls) for kernel, calls in seen.items()} == made

    def test_steps_match_the_public_functions_without_memo(self):
        rng = random.Random(5)
        for _ in range(80):
            d = random_diagram(rng, max_components=10)
            result = run_script(d, applicable_script(rng, d, 15))
            assert result.ok
            for step, e in zip(result.steps, diagrams_of(d, result)):
                assert (step.sig, step.plus, step.minus) == (
                    signature(e), boundary_homology(e)[0],
                    boundary_homology(e, "minus")[0] if e.dual_flag
                    else None)
            assert result.final == e


class TestTraceLines:
    def test_one_line_per_step_with_invariants(self):
        s = script(("blowup", 1, "e"), ("assert-euler", 4))
        result = run_script(HOPF(), s)
        lines = trace_lines(result)
        assert len(lines) == len(result.steps) == 3
        assert "initial" in lines[0]
        assert "blowup" in lines[1] and "ok" in lines[1]
        assert "chi=4" in lines[2] and "sigma=1" in lines[2]

    def test_failure_marked(self):
        result = run_script(HOPF(), script(("blowdown", "a")))
        lines = trace_lines(result)
        assert "FAIL" in lines[-1]
