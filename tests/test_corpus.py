"""Bundled corpus: the runner, and independent re-checks of its claims."""

from ribboncalc import (corpus_names, corpus_run, corpus_text,
                        is_positive_ribbon, parse_diagram, parse_ribbon,
                        parse_script, run_script, stabilization_plan,
                        verify_plan, whitney_set)
from ribboncalc import corpus
from ribboncalc.corpus import summary_table


class TestRunner:
    def test_everything_passes(self):
        report = corpus_run()
        assert report.ok, [i for i in report.items if not i.ok]

    def test_every_bundled_file_round_tripped(self):
        report = corpus_run()
        covered = {i.name.split(":", 1)[1] for i in report.items
                   if i.name.startswith("roundtrip:")}
        assert covered == set(corpus_names())

    def test_item_count(self):
        # a round trip per file, four positivity claims, one plan and
        # three walkthrough scripts
        report = corpus_run()
        assert len(report.items) == len(corpus_names()) + 4 + 1 + 3

    def test_failed_assertion_fails_its_item(self, monkeypatch):
        real = corpus.corpus_text
        monkeypatch.setattr(corpus, "corpus_text", lambda name: real(
            name).replace("assert-kind b2 dotted", "assert-kind b2 framed"))
        report = corpus_run()
        failed = [(i.name, i.detail) for i in report.items if not i.ok]
        assert failed == [("script:swap_to_dots", "step 11 failed: kind of "
                                                  "b2 = dotted, expected framed")]

    def test_summary_table_shape(self):
        report = corpus_run()
        lines = summary_table(report)
        assert len(lines) == len(report.items) + 1
        assert lines[-1].startswith("total")
        assert all("pass" in l for l in lines)


class TestPositivityClaims:
    def test_r0_refused_for_the_right_reason(self):
        # Independent clause-by-clause recheck: r0's only loop is a
        # singleton whose accessory cap is standard, and every whitney cap
        # on the loop is positive — so the singleton-accessory clause is
        # the one that fails.
        r = parse_ribbon(corpus_text("r0.ribbon"))
        loop = r.middle.accessory_loops[0]
        assert len(whitney_set(r.middle, loop.id)) == 1
        for wid in whitney_set(r.middle, loop.id):
            assert r.cap(wid).positive
        assert r.cap(loop.id).standard
        assert not is_positive_ribbon(r).positive

    def test_positive_descriptors_have_positive_loop_caps(self):
        for name in ("r1", "r2", "r3"):
            r = parse_ribbon(corpus_text(f"{name}.ribbon"))
            decision = is_positive_ribbon(r)
            assert decision.positive
            wl = decision.witness_loop
            assert r.cap(wl).positive or len(whitney_set(r.middle, wl)) > 1
            for wid in whitney_set(r.middle, wl):
                assert r.cap(wid).positive


class TestPlanClaims:
    def test_r4_plan_replaces_tricks_and_cancels(self):
        # r4's only loop crosses w2, whose tree has no all-positive
        # branch, so it is refused and the plan must replace that cap.
        r = parse_ribbon(corpus_text("r4.ribbon"))
        assert not r.cap("w2").positive and not r.cap("w2").standard
        assert not is_positive_ribbon(r).positive
        plan = stabilization_plan(r)
        assert plan.outcome.kind == "product"
        assert [type(s).__name__ for s in plan.steps] == [
            "ReplaceCap", "CancelFinger", "NormanTrick",
            "CancelPair", "CancelPair", "CancelPair"]
        assert verify_plan(r, plan).ok


class TestDualWalkthrough:
    def test_plus_boundary_constant_after_dualize(self):
        d = parse_diagram(corpus_text("y2c1.diagram"))
        s = parse_script(corpus_text("dual_walkthrough.script"))
        result = run_script(d, s)
        assert result.ok
        dual_at = next(i for i, st in enumerate(result.steps)
                       if st.command is not None and st.command.op == "dualize")
        after = result.steps[dual_at:]
        assert len({st.plus for st in after}) == 1
        # the minus side is reported for every dual-side step
        assert all(st.minus is not None for st in after)

    def test_three_handle_bookkeeping(self):
        d = parse_diagram(corpus_text("y2c1.diagram"))
        s = parse_script(corpus_text("dual_walkthrough.script"))
        final = run_script(d, s).final
        dots = sum(1 for c in d.components if c.kind == "dotted")
        assert final.three_handles == dots
        assert final.hidden_one_handles == d.three_handles


class TestCancellationWalkthrough:
    def test_pair_counts_return_to_start(self):
        d = parse_diagram(corpus_text("y2c1.diagram"))
        s = parse_script(corpus_text("cancellation_walkthrough.script"))
        result = run_script(d, s)
        assert result.ok
        assert result.final.three_handles == 0
        # the added 2-3 pair raises the plus-boundary rank before both
        # cancellations bring it below the starting value
        ranks = [st.plus.free_rank for st in result.steps]
        assert ranks[0] == 2 and max(ranks) == 3 and ranks[-1] == 1
