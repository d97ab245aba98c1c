"""Command-line interface: exit codes, output modes and subcommands."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ribboncalc
from ribboncalc import cli
from ribboncalc.cli import main
from ribboncalc.corpus import corpus_names, corpus_text

DIAGRAM = corpus_text("x1.diagram")
RIBBON_POSITIVE = corpus_text("r1.ribbon")
RIBBON_REFUSED = corpus_text("r0.ribbon")
SCRIPT = "script s\nslide a1 b1 +\nassert-euler 4\n"
TREE = "tree t\nnode r\nroot r\nedge r r +\n"
TREE_NEG = "tree t\nnode r\nroot r\nedge r r -\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_valid_diagram(self, files, capsys):
        code, out, _ = run(capsys, "check", files("d.diagram", DIAGRAM))
        assert code == 0
        assert "type: diagram" in out and "ok: true" in out

    def test_invalid_diagram(self, files, capsys):
        bad = "diagram b\ncomponent a framed 0\ncomponent b framed 0\nlink a b 2 1\n"
        code, out, err = run(capsys, "check", files("b.diagram", bad))
        assert code == 2 and out == ""
        assert "parse error" in err
        assert "line 4: |alg[a][b]| = 2 exceeds geom = 1" in err

    @pytest.mark.parametrize("line, message", [
        ("link a b 0 -2", "geom[a][b] = -2 is negative"),
        ("link a b 3 1", "|alg[a][b]| = 3 exceeds geom = 1"),
        ("link a b 1 2", "geom[a][b] = 2 and alg = 1 differ mod 2"),
        ("link a d 1 1", "dotted circles a, d have alg = 1"),
        ("component p parenframed 1", "p is paren-framed but dual_flag is "
                                      "unset"),
        ("fourhandles -1", "four_handles = -1 is negative")])
    def test_broken_rule_is_exit_two_on_its_line(self, files, capsys, line,
                                                 message):
        text = ("diagram b\ncomponent a dotted\ncomponent b framed 0\n"
                f"component d dotted\n{line}\nnote end\n")
        code, out, err = run(capsys, "check", files("b.diagram", text))
        assert code == 2 and out == ""
        assert err == f"parse error: line 5: {message}\n"

    def test_long_token_is_cut_in_the_message(self, files, capsys):
        text = f"diagram b\ncomponent a framed {'7' * 5000}\n"
        code, out, err = run(capsys, "check", files("b.diagram", text))
        assert code == 2 and out == ""
        assert err.startswith("parse error: line 2: malformed framing token")
        assert "(5000 characters)" in err and len(err) < 120

    LONG = "x" * 5000

    @pytest.mark.parametrize("name, text", [
        ("r.tree", f"tree t\nnode a\nroot {LONG}\n"),
        ("k.diagram", f"diagram b\ncomponent a {LONG} 0\n"),
        ("c.diagram", f"diagram b\ncomponent {LONG} framed 0\n"
                      f"component {LONG} framed 1\n"),
        ("t.tree", f"tree {LONG}\nnode a\nroot a\ntree {LONG}\n"),
        ("s.script", f"script s\ntwistblowup + f {LONG}:1 {LONG}:2\n")])
    def test_long_id_is_cut_in_the_message(self, files, capsys, name, text):
        code, out, err = run(capsys, "check", files(name, text))
        assert code == 2 and out == ""
        assert "(5000 characters)" in err and len(err) < 120

    # Files whose judge's message echoes a 5000-character name or id.
    JUDGED = dict([
        # validate_tree: the tree name and node ids.
        ("dup.tree", f"tree {LONG}\nnode a a\nroot a\n"),
        ("root.tree", f"tree {LONG}\nnode a\nroot b\n"),
        ("edge.tree", f"tree t\nnode a\nroot a\nedge a {LONG} +\n"),
        ("reach.tree", f"tree t\nnode a {LONG}\nroot a\n"),
        ("back.tree", f"tree {LONG}\nfinite\nnode a\nroot a\nedge a a +\n"),
        ("noroot.tree", f"tree {LONG}\nnode a\n"),
        # The middle judges: finger, whitney, loop and cap ids.
        ("f.middle", f"middle\npairs 1\nfinger {LONG} 1 1 w\n"
                     f"finger {LONG} 1 1 v\n"),
        ("w.middle", f"middle\npairs 1\nfinger f 1 1 {LONG}\n"
                     f"finger g 1 1 {LONG}\n"),
        ("s.middle", f"middle\npairs 1\nfinger {LONG} 1 2 w\n"),
        ("l.middle", f"middle\npairs 1\nfinger f 1 1 w\nloop {LONG} f\n"
                     f"loop {LONG} f\n"),
        ("u.middle", f"middle\npairs 1\nfinger f 1 1 w\nloop l {LONG}\n"),
        ("v.middle", f"middle\npairs 1\nfinger f 1 1 w\nloop {LONG} g\n"),
        ("x.middle", f"middle\npairs 1\nfinger f 1 1 {LONG}\n"
                     f"loop {LONG} f\n"),
        ("miss.ribbon", f"middle\npairs 1\nfinger f 1 1 {LONG}\n"
                        "loop l f\ncap l standard\n"),
        ("extra.ribbon", "middle\npairs 1\nfinger f 1 1 w\ncap w standard\n"
                         f"cap {LONG} standard\n"),
        ("twice.ribbon", f"middle\npairs 1\nfinger f 1 1 {LONG}\n"
                         f"cap {LONG} standard\ncap {LONG} standard\n")])

    @pytest.mark.parametrize("name", JUDGED)
    def test_long_id_is_cut_in_a_judges_message(self, files, capsys, name):
        # A judge's message echoes names and ids cut past 40 characters.
        text = self.JUDGED[name]
        with pytest.raises(ribboncalc.ParseError) as e:
            ribboncalc.parse_any(text)
        message = e.value.message
        assert "(5000 characters)" in message and len(message) < 120
        code, out, err = run(capsys, "check", files(name, text))
        assert code == 2 and out == ""
        assert err == f"parse error: line {e.value.line}: {message}\n"

    @pytest.mark.parametrize("flag, edges", [("--truncate=40", "+ -"),
                                             ("--cost", "+")])
    def test_long_name_is_cut_in_a_refusal(self, files, capsys, flag, edges):
        # Past the node budget, and the cost of a positive handle.
        text = f"tree {self.LONG}\nnode r\nroot r\n" + "".join(
            f"edge r r {sign}\n" for sign in edges.split())
        code, out, err = run(capsys, "tree", files("t.tree", text), flag)
        assert code == 1 and out == ""
        assert "(5000 characters)" in err and len(err) < 120

    def test_parse_error_is_exit_two(self, files, capsys):
        code, _, err = run(capsys, "check", files("x.diagram", "gibberish\n"))
        assert code == 2
        assert "parse error" in err

    def test_missing_file_is_exit_one(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/path.diagram")
        assert code == 1
        assert "error" in err

    def test_ribbon_detected(self, files, capsys):
        code, out, _ = run(capsys, "check", files("r.ribbon", RIBBON_POSITIVE))
        assert code == 0 and "type: ribbon" in out

    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_kind_is_the_suffix(self, files, capsys, name):
        kind = name.rsplit(".", 1)[1]
        code, out, _ = run(capsys, "--porcelain", "check",
                           files(name, corpus_text(name)))
        assert code == 0 and out.splitlines()[0] == f"type={kind}"

    @pytest.mark.parametrize("kind, text", [
        ("tree", TREE),
        ("middle", "middle\npairs 1\n"),
        ("script", SCRIPT),
        ("diagram", "# a comment first\n\ndiagram d\n")])
    def test_kind_from_first_keyword(self, files, capsys, kind, text):
        code, out, _ = run(capsys, "--porcelain", "check", files("doc", text))
        assert code == 0 and out.splitlines()[0] == f"type={kind}"

    def test_serialized_ribbon_without_tree_blocks(self, files, capsys):
        from ribboncalc import (STANDARD_CAP, Finger, MiddleLevelData,
                                make_descriptor, serialize_ribbon)
        r = make_descriptor(MiddleLevelData(1, (Finger("f1", 1, 1, "w1"),)),
                            {"w1": STANDARD_CAP})
        path = files("r.ribbon", serialize_ribbon(r))
        code, out, _ = run(capsys, "--porcelain", "check", path)
        assert code == 0 and out.splitlines() == ["type=ribbon", "ok=true"]
        code, out, _ = run(capsys, "render", path)
        assert code == 0 and out.startswith("digraph fingers")

    def test_unknown_document_kind(self, files, capsys):
        code, _, err = run(capsys, "check", files("doc", "pairs 2\n"))
        assert code == 2
        assert "cannot determine document type from 'pairs'" in err


class TestPorcelain:
    def test_global_flag(self, files, capsys):
        code, out, _ = run(capsys, "--porcelain", "check",
                           files("d.diagram", DIAGRAM))
        assert code == 0
        assert "type=diagram" in out and "ok=true" in out
        assert ": " not in out

    def test_flag_after_subcommand(self, files, capsys):
        code, out, _ = run(capsys, "check", "--porcelain",
                           files("d.diagram", DIAGRAM))
        assert code == 0 and "ok=true" in out

    def test_flag_does_not_carry_over_to_the_next_call(self, files, capsys):
        path = files("d.diagram", DIAGRAM)
        for argv in (("check", "--porcelain", path), ("--porcelain", "check",
                                                      path)):
            assert run(capsys, *argv)[1] == "type=diagram\nok=true\n"
            assert run(capsys, "check", path)[1] == (
                "type: diagram\nok: true\n")

    def test_parser_is_built_once(self, files, capsys):
        assert cli.build_parser() is cli.build_parser()


class TestApply:
    def test_successful_script(self, files, capsys):
        code, out, _ = run(capsys, "apply", files("d.diagram", DIAGRAM),
                           files("s.script", SCRIPT))
        assert code == 0
        assert "ok: true" in out
        # the final diagram is emitted for piping
        assert "diagram x1" in out

    def test_failed_assertion(self, files, capsys):
        bad = "script s\nassert-euler 99\n"
        code, out, _ = run(capsys, "apply", files("d.diagram", DIAGRAM),
                           files("s.script", bad))
        assert code == 1
        assert "failed_step: 1" in out and "expected 99" in out

    def test_unknown_component_is_a_failed_step(self, files, capsys):
        code, out, err = run(capsys, "apply",
                             files("d.diagram",
                                   "diagram d\ncomponent a framed 0\n"),
                             files("s.script", "script s\nslide zz a +\n"))
        assert code == 1
        assert "failed_step: 1" in out
        assert "error: step 1: unknown component 'zz'" in err
        assert "Traceback" not in err

    def test_porcelain_step_lines(self, files, capsys):
        script = files("s.script", "script s\nslide a1 b1 +\nassert-euler 4\n"
                                   "assert-kind b1 dotted\n")
        code, out, err = run(capsys, "--porcelain", "apply",
                             files("d.diagram", DIAGRAM), script)
        assert code == 1
        assert out == ("step0=ok chi=4 sigma=0 h1plus=Z\n"
                       "step1=ok chi=4 sigma=0 h1plus=Z\n"
                       "step2=ok chi=4 sigma=0 h1plus=Z\n"
                       "step3=fail chi=4 sigma=0 h1plus=Z\n"
                       "ok=false\nfailed_step=3\n"
                       "reason=kind of b1 = framed, expected dotted\n")
        assert err == "error: step 3: kind of b1 = framed, expected dotted\n"

    def test_trace(self, files, capsys):
        code, out, _ = run(capsys, "apply", "--trace-invariants",
                           files("d.diagram", DIAGRAM),
                           files("s.script", SCRIPT))
        assert code == 0
        assert "initial" in out and "chi=" in out


class TestHomologyAndDualize:
    def test_homology(self, files, capsys):
        code, out, _ = run(capsys, "homology", files("d.diagram", DIAGRAM))
        assert code == 0
        assert "h1: " in out and "three_handle_caveat: false" in out

    def test_dualize_emits_parseable_diagram(self, files, capsys):
        code, out, _ = run(capsys, "dualize", files("d.diagram", DIAGRAM))
        assert code == 0
        from ribboncalc import parse_diagram
        dual = parse_diagram(out)
        assert dual.dual_flag

    def test_minus_side_needs_dual(self, files, capsys):
        code, _, err = run(capsys, "homology", "--side", "minus",
                           files("d.diagram", DIAGRAM))
        assert code == 1 and "error" in err


class TestTree:
    def test_positive(self, files, capsys):
        assert run(capsys, "tree", "--positive",
                   files("t.tree", TREE))[0] == 0
        assert run(capsys, "tree", "--positive",
                   files("n.tree", TREE_NEG))[0] == 1

    def test_strict(self, files, capsys):
        assert run(capsys, "tree", "--strict", files("t.tree", TREE)) == (
            0, "strictly_positive: true\n", "")
        # r has one positive and one negative edge: not more positive.
        mixed = "tree m\nnode r a\nroot r\nedge r r +\nedge r a -\n"
        assert run(capsys, "tree", "--strict", files("m.tree", mixed)) == (
            1, "strictly_positive: false\n", "")

    def test_summary(self, files, capsys):
        assert run(capsys, "tree", files("t.tree", TREE)) == (
            0, "nodes: 1\nfinite: false\n", "")
        tower = "tree w\nfinite\nnode r a\nroot r\nedge r a +\n"
        assert run(capsys, "tree", files("w.tree", tower)) == (
            0, "nodes: 2\nfinite: true\n", "")

    def test_prune_depth(self, files, capsys):
        code, out, _ = run(capsys, "tree", "--prune-depth",
                           files("n.tree", TREE_NEG))
        assert code == 0 and "prune_depth: 1" in out

    def test_cost(self, files, capsys):
        assert run(capsys, "tree", "--cost", files("n.tree", TREE_NEG)) == (
            0, "blowup_cost: 1\n", "")

    def test_cost_on_positive_tree_fails(self, files, capsys):
        code, _, err = run(capsys, "tree", "--cost", files("t.tree", TREE))
        assert code == 1 and "error" in err

    def test_prune_depth_of_a_long_cycle(self, files, capsys):
        lines = [f"tree t\nnode {' '.join(f'c{i}' for i in range(3000))}",
                 "root c0"]
        lines += [f"edge c{i} c{(i + 1) % 3000} +" for i in range(3000)]
        code, out, _ = run(capsys, "tree", "--prune-depth",
                           files("c.tree", "\n".join(lines) + "\n"))
        assert code == 0 and "prune_depth: infinite" in out

    def test_truncate_emits_tower(self, files, capsys):
        code, out, _ = run(capsys, "tree", "--truncate", "2",
                           files("t.tree", TREE))
        assert code == 0
        from ribboncalc import parse_tree
        assert parse_tree(out).finite


    def test_truncate_stops_when_the_unrolling_dies_out(self, files,
                                                         capsys):
        path = files("h.tree", "tree h\nnode r a\nroot r\nedge r a -\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "tree", "--truncate", str(10 ** 12), path)
        assert time.perf_counter() - start < 0.1
        assert code == 0
        assert out == ("tree h^1000000000000\nfinite\nnode r\nnode r.1\n"
                       "root r\nedge r r.1 -\n")


class TestRibbon:
    def test_positivity_positive(self, files, capsys):
        code, out, _ = run(capsys, "ribbon", "positivity",
                           files("r.ribbon", RIBBON_POSITIVE))
        assert code == 0
        assert "positive: true" in out and "witness_loop" in out

    def test_positivity_refused(self, files, capsys):
        code, out, _ = run(capsys, "ribbon", "positivity",
                           files("r.ribbon", RIBBON_REFUSED))
        assert code == 0  # deciding is a success even when the answer is no
        assert "positive: false" in out and "refusal" in out

    def test_plan_rejects_shared_whitney_id(self, files, capsys):
        text = ("middle\npairs 2\nfinger f1 1 2 w\nfinger f2 1 2 w\n"
                "loop l1 f1\nloop l2 f2\n"
                "cap w standard\ncap l1 standard\ncap l2 standard\n")
        code, out, err = run(capsys, "ribbon", "plan", "--verify",
                             files("r.ribbon", text))
        assert code == 2 and out == ""
        assert "line 4: duplicate whitney id w" in err

    def test_plan_rejects_loop_id_equal_to_a_whitney_id(self, files,
                                                        capsys):
        text = (TREE_NEG + "middle\npairs 2\nfinger f1 1 2 w1\n"
                "finger f2 1 2 l1\nloop l1 f1\n"
                "cap w1 standard\ncap l1 tree t\n")
        code, out, err = run(capsys, "ribbon", "plan", "--verify",
                             files("r.ribbon", text))
        assert code == 2 and out == ""
        assert "line 9: loop id l1 is the whitney id of finger f2" in err

    @pytest.mark.parametrize("finger", ["f1 3 1 w1", "f1 0 1 w1",
                                        "f1 -1 2 w1"])
    def test_plan_rejects_sphere_outside_pairs(self, files, capsys, finger):
        text = f"middle\npairs 2\nfinger {finger}\ncap w1 standard\n"
        code, out, err = run(capsys, "ribbon", "plan", "--verify",
                             files("r.ribbon", text))
        assert code == 2 and out == ""
        assert "line 3: finger f1 references sphere outside 1..2" in err

    @pytest.mark.parametrize("action", [["positivity"], ["plan", "--verify"]])
    def test_loop_naming_an_undeclared_finger(self, files, capsys, action):
        text = "middle\npairs 1\nfinger f1 1 1 w1\nloop l1 fX\n"
        code, out, err = run(capsys, "ribbon", *action,
                             files("r.ribbon", text))
        assert code == 2 and out == ""
        assert "line 4: loop l1 references undeclared finger fX" in err
        assert "Traceback" not in err

    def test_cap_on_a_finite_tower(self, files, capsys):
        text = ("tree t\nfinite\nnode r s\nroot r\nedge r s +\n"
                "middle\npairs 1\nfinger f1 1 1 w1\ncap w1 tree t\n")
        code, out, err = run(capsys, "ribbon", "plan", "--verify",
                             files("r.ribbon", text))
        assert code == 2 and out == ""
        assert "line 9: " in err and "finite tower" in err

    def test_plan_on_positive_descriptor(self, files, capsys):
        code, out, _ = run(capsys, "ribbon", "plan", "--verify",
                           files("r.ribbon", RIBBON_POSITIVE))
        assert code == 0
        assert "outcome: positive-obstruction" in out
        assert "verified: true" in out


    def test_failed_verification_exits_one(self, files, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_plan", lambda r, plan: (
            ribboncalc.VerifyResult(False, 1, "forged")))
        code, out, _ = run(capsys, "ribbon", "plan", "--verify",
                           files("r.ribbon", corpus_text("r4.ribbon")))
        assert code == 1
        assert out.endswith("verified: false\nverify_reason: forged\n")


class TestBudgetsAndTreeRules:
    # Eight lines that used to print 1 000 002 planned steps in about 9 s.
    MILLION_PAIRS = TREE_NEG + ("middle\npairs 1000000\nfinger f1 1 2 w1\n"
                                "cap w1 tree t\n")
    REFUSAL = "line 6: pair count 1000000 exceeds the pair budget 100000"

    @pytest.mark.parametrize("argv", [["ribbon", "plan", "--verify"],
                                      ["ribbon", "positivity"], ["check"],
                                      ["render"]])
    def test_pairs_over_the_budget_are_a_parse_error(self, files, capsys,
                                                     argv):
        code, out, err = run(capsys, *argv,
                             files("r.ribbon", self.MILLION_PAIRS))
        assert code == 2 and out == ""
        assert self.REFUSAL in err

    @pytest.mark.parametrize("argv", [["tree"], ["check"], ["render"]])
    def test_tree_rule_is_a_parse_error(self, files, capsys, argv):
        code, out, err = run(capsys, *argv,
                             files("t.tree", "tree t\nnode a b\nroot a\n"))
        assert code == 2 and out == ""
        assert "line 1: tree t: node b unreachable from root" in err
        assert "Traceback" not in err

    def test_tree_rule_in_a_ribbon_document(self, files, capsys):
        text = ("tree t\nfinite\nnode r s\nroot r\nedge r s +\n"
                "edge s r +\nmiddle\npairs 1\n")
        code, out, err = run(capsys, "ribbon", "plan", files("r.ribbon", text))
        assert code == 2 and out == ""
        assert "line 1: tree t: tower contains back-edges" in err


class TestResourceErrors:
    @pytest.mark.parametrize("error, message", [
        (MemoryError(), "error: MemoryError"),
        (RecursionError("maximum recursion depth exceeded"),
         "error: maximum recursion depth exceeded")])
    def test_exit_one_with_an_error_line(self, files, capsys, monkeypatch,
                                         error, message):
        def exhausted(args, out):
            raise error

        monkeypatch.setattr(cli, "_cmd_tree", exhausted)
        code, out, err = run(capsys, "tree", files("t.tree", TREE))
        assert code == 1 and out == "" and err == message + "\n"


class TestCorpusAndRender:
    def test_corpus_run(self, capsys):
        code, out, _ = run(capsys, "corpus", "run")
        assert code == 0
        assert "pass" in out

    def test_corpus_porcelain(self, capsys):
        code, out, _ = run(capsys, "--porcelain", "corpus", "run")
        assert code == 0
        assert "=pass" in out and "=fail" not in out

    def test_render_diagram(self, files, capsys):
        code, out, _ = run(capsys, "render", "--dot",
                           files("d.diagram", DIAGRAM))
        assert code == 0 and out.startswith('graph "x1" {')

    def test_render_tree(self, files, capsys):
        code, out, _ = run(capsys, "render", files("t.tree", TREE))
        assert code == 0 and out.startswith("digraph")

    def test_render_script_is_refused(self, files, capsys):
        code, out, err = run(capsys, "render", files("s.script", SCRIPT))
        assert (code, out, err) == (1, "", "cannot render a script document\n")


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        p = tmp_path / "t.tree"
        p.write_text(TREE)
        # The child imports the same package, installed or not.
        src = str(Path(ribboncalc.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "ribboncalc.cli", "tree", "--positive",
             str(p)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "positive: true" in proc.stdout
