"""Stabilization: Norman tricks, Whitney tricks, planning and verification."""

import random
import time
from dataclasses import fields, replace

import pytest

import ribboncalc.simplify
from ribboncalc import (AccessoryLoop, Cap, Finger, MiddleError,
                        MiddleLevelData, RibbonDescriptor, STANDARD_CAP,
                        chplus, excess_rows, is_positive_ribbon,
                        make_descriptor, norman_eliminate, norman_trick_step,
                        stabilization_plan, verify_plan, StabilizationError)
from ribboncalc.simplify import (CancelFinger, CancelPair, NormanTrick,
                                 Outcome, ReplaceCap, StabilizationPlan,
                                 VerifyResult, replace_nonpositive_caps)
from ribboncalc.trees import DEFAULT_PAIR_BUDGET, SignedTree, TreeEdge

from genlib import (dense_excess_rows, dense_geometric_matrix, dense_identity,
                    dense_norman_replay, dense_norman_trick_step,
                    oracle_cycle_exists, oracle_stabilization_plan,
                    random_acyclic_middle,
                    random_cyclic_middle, random_nonpositive_descriptor,
                    random_nonpositive_tree)

CHP = Cap(chplus())
CHMINUS = Cap(SignedTree("chminus", ("r",), "r", (TreeEdge("r", "r", -1),)))


def middle(pairs, fingers=(), loops=()):
    return MiddleLevelData(
        pairs,
        tuple(Finger(*f) for f in fingers),
        tuple(AccessoryLoop(i, tuple(fs)) for i, fs in loops))


class TestNormanTrickStep:
    def test_four_new_intersections(self):
        # Staged instance: remove the f1 pair between A_1 and B_2 while
        # B_2 still meets A_2 in two extra points; the two parallel copies
        # of A_2 each bring both, so A'_1 gains exactly 4 intersections
        # with B_3... i.e. with the sphere B_k the dirty row points at.
        m = middle(3, [("f1", 1, 2, "w1"), ("f2", 2, 3, "w2")])
        rows = excess_rows(m)
        assert rows == {1: {2: 2}, 2: {3: 2}}
        delta = norman_trick_step(rows, 1, 2)
        assert delta == {3: 4}
        assert rows == {1: {3: 4}, 2: {3: 2}}
        # the same instance on the dense oracle
        g = dense_geometric_matrix(m)
        assert g == [[1, 2, 0], [0, 1, 2], [0, 0, 1]]
        assert dense_norman_trick_step(g, 1, 2) == {3: 4}
        assert g == [[1, 0, 4], [0, 1, 2], [0, 0, 1]]

    def test_clean_target_row_gives_empty_delta(self):
        m = middle(2, [("f1", 1, 2, "w1")])
        rows = excess_rows(m)
        assert norman_trick_step(rows, 1, 2) == {}
        assert rows == {}

    def test_requires_a_finger_pair(self):
        with pytest.raises(StabilizationError):
            norman_trick_step({}, 1, 2)
        with pytest.raises(StabilizationError):
            norman_trick_step({2: {1: 2}}, 1, 2)

    def test_matches_dense_oracle_on_dirty_rows(self):
        # Tricks in arbitrary order, so target rows are often dirty and
        # self-loop fingers tube a row into itself.
        rng = random.Random(29)
        for _ in range(300):
            m = random_cyclic_middle(rng)
            rows, g = excess_rows(m), dense_geometric_matrix(m)
            fingers = list(m.fingers)
            rng.shuffle(fingers)
            for f in fingers:
                if g[f.from_a - 1][f.through_b - 1] < 2:
                    continue
                assert (norman_trick_step(rows, f.from_a, f.through_b)
                        == dense_norman_trick_step(g, f.from_a, f.through_b))
                assert rows == dense_excess_rows(g)


class TestNormanEliminate:
    def test_empty(self):
        m = middle(2)
        result = norman_eliminate(m)
        assert result.ok and result.steps == ()
        assert dense_norman_replay(m, result.steps) == dense_identity(2)

    def test_chain_reaches_identity(self):
        m = middle(3, [("f1", 1, 2, "w1"), ("f2", 2, 3, "w2")])
        result = norman_eliminate(m)
        assert result.ok
        assert dense_norman_replay(m, result.steps) == dense_identity(3)
        # sinks first: the finger out of A_2 is removed before A_1's.
        assert [s.finger for s in result.steps] == ["f2", "f1"]
        assert all(s.delta == () for s in result.steps)

    def test_cycle_reported(self):
        m = middle(2, [("f1", 1, 2, "w1"), ("f2", 2, 1, "w2")])
        result = norman_eliminate(m)
        assert not result.ok
        assert set(result.cycle) == {1, 2}

    def test_random_acyclic_terminates_at_identity(self):
        rng = random.Random(31)
        for _ in range(200):
            m = random_acyclic_middle(rng, with_loops=False)
            result = norman_eliminate(m)
            assert result.ok
            assert len(result.steps) == len(m.fingers)
            assert (dense_norman_replay(m, result.steps)
                    == dense_identity(m.pairs))

    def test_random_cyclic_matches_dfs_oracle(self):
        rng = random.Random(37)
        for _ in range(200):
            m = random_cyclic_middle(rng)
            assert oracle_cycle_exists(m)
            result = norman_eliminate(m)
            assert not result.ok
            # the witness cycle is a real cycle of finger edges
            edges = {(f.from_a, f.through_b) for f in m.fingers}
            cyc = result.cycle
            for i, v in enumerate(cyc):
                assert (v, cyc[(i + 1) % len(cyc)]) in edges


class TestReplaceCaps:
    def test_only_nonpositive_replaced(self):
        m = middle(2, [("f1", 1, 2, "w1"), ("f2", 1, 2, "w2")],
                   [("l1", ["f1"])])
        r = make_descriptor(m, {"w1": CHP, "w2": CHMINUS,
                                "l1": STANDARD_CAP})
        out, steps, blowups, k = replace_nonpositive_caps(r)
        assert steps == [ReplaceCap("w2", 1)]
        assert blowups == 1 and k == 1
        assert out.cap("w2").standard and out.cap("w1").positive


class TestDerivedValues:
    """The planner builds two values from parts of checked ones without
    checking them again; each equals the value the public constructor
    builds from the same fields, and that constructor accepts it."""

    def test_equal_the_publicly_built_values(self, monkeypatch):
        seen = []
        real = ribboncalc.simplify.norman_eliminate
        monkeypatch.setattr(ribboncalc.simplify, "norman_eliminate",
                            lambda m: seen.append(m) or real(m))
        rng = random.Random(19)
        for _ in range(150):
            r = random_nonpositive_descriptor(rng)
            out, _, _, _ = replace_nonpositive_caps(r)
            public = RibbonDescriptor(out.middle, out.caps)
            assert out == public and out.caps_by_id == public.caps_by_id
            seen.clear()
            stabilization_plan(r)
            (m,) = seen
            public = MiddleLevelData(m.pairs, m.fingers, m.accessory_loops)
            assert m == public and not m.accessory_loops
            assert m.fingers_by_id == public.fingers_by_id


class TestTrustedSteps:
    """The planner builds its steps, and skips the row replay of its Norman
    tricks; its plans equal those of the planner it replaced, and each step
    equals the one its public constructor builds."""

    def test_plans_equal_the_oracle_planner(self):
        rng = random.Random(67)
        for _ in range(300):
            r = random_nonpositive_descriptor(rng)
            plan = stabilization_plan(r)
            assert plan == oracle_stabilization_plan(r)
            for step in plan.steps:
                public = type(step)(*(getattr(step, f.name)
                                      for f in fields(step)))
                assert step == public and hash(step) == hash(public)
            # The Norman tricks still replay on the dense matrix of the
            # fingers they remove.
            tricks = [s for s in plan.steps if isinstance(s, NormanTrick)]
            gone = {s.finger for s in tricks}
            m = r.middle
            left = MiddleLevelData(m.pairs, tuple(
                f for f in m.fingers if f.id in gone), ())
            assert dense_norman_replay(left, tricks) == dense_identity(m.pairs)


class TestBreakLoops:
    """A loop breaks when a finger it crosses is removed."""

    def test_breaks_via_standard_capped_finger(self):
        # l1 dies with f1; f2 keeps its positive cap and goes by a trick.
        m = middle(2, [("f1", 1, 2, "w1"), ("f2", 1, 2, "w2")],
                   [("l1", ["f1", "f2"])])
        r = make_descriptor(m, {"w1": STANDARD_CAP, "w2": CHP,
                                "l1": STANDARD_CAP})
        plan = stabilization_plan(r)
        assert plan.steps == (CancelFinger("f1", "w1"), NormanTrick("f2", ()),
                              CancelPair(("A1", "B1")),
                              CancelPair(("A2", "B2")))
        assert verify_plan(r, plan).ok

    def test_unreferenced_standard_fingers_cancel(self):
        m = middle(2, [("f1", 1, 2, "w1")])
        r = make_descriptor(m, {"w1": STANDARD_CAP})
        plan = stabilization_plan(r)
        assert plan.steps == (CancelFinger("f1", "w1"),
                              CancelPair(("A1", "B1")),
                              CancelPair(("A2", "B2")))
        assert verify_plan(r, plan).ok

    def test_positive_capped_loop_survives(self):
        # l1 outlives the Whitney tricks and breaks with the Norman trick.
        m = middle(2, [("f1", 1, 2, "w1")], [("l1", ["f1"])])
        r = make_descriptor(m, {"w1": CHP, "l1": STANDARD_CAP})
        plan = stabilization_plan(r)
        assert plan.steps == (NormanTrick("f1", ()),
                              CancelPair(("A1", "B1")),
                              CancelPair(("A2", "B2")))
        assert verify_plan(r, plan).ok

    def test_a_dead_loop_has_no_cap_to_replace(self):
        # Once f1 is gone, l1 and its cap are gone too.
        m = middle(2, [("f1", 1, 2, "w1")], [("l1", ["f1"])])
        r = make_descriptor(m, {"w1": STANDARD_CAP, "l1": CHMINUS})
        plan = stabilization_plan(r)
        assert plan.steps[0] == ReplaceCap("l1", 1)
        late = replace(plan, steps=plan.steps[1:2] + plan.steps[:1]
                       + plan.steps[2:])
        result = verify_plan(r, late)
        assert not result.ok and result.failing_step == 1
        assert "l1 has no non-positive tree cap" == result.reason


class TestStabilizationPlan:
    def positive_descriptor(self):
        m = middle(1, [("f1", 1, 1, "w1")], [("l1", ["f1"])])
        return make_descriptor(m, {"w1": CHP, "l1": CHP})

    def product_descriptor(self):
        # f3 is off every loop and positively capped, so the plan must
        # remove it by a Norman trick rather than a Whitney cancellation.
        m = middle(3, [("f1", 1, 2, "w1"), ("f2", 2, 3, "w2"),
                       ("f3", 1, 3, "w3")],
                   [("l1", ["f1", "f2"])])
        return make_descriptor(m, {"w1": CHMINUS, "w2": STANDARD_CAP,
                                   "w3": CHP, "l1": CHMINUS})

    def test_positive_gate(self):
        r = self.positive_descriptor()
        plan = stabilization_plan(r)
        assert plan.outcome.kind == "positive-obstruction"
        assert plan.outcome.witness_loop == "l1"
        assert plan.steps == () and plan.blowups == 0
        assert verify_plan(r, plan).ok

    def test_product_pipeline(self):
        r = self.product_descriptor()
        plan = stabilization_plan(r)
        assert plan.outcome.kind == "product"
        assert "not stably non-product" in plan.outcome.note
        kinds = [type(s).__name__ for s in plan.steps]
        assert "ReplaceCap" in kinds and "CancelFinger" in kinds
        assert "NormanTrick" in kinds
        assert kinds.count("CancelPair") >= r.middle.pairs
        assert plan.blowups == 2  # one per chminus cap replaced
        assert verify_plan(r, plan).ok

    def test_unbreakable_cycle_flagged(self):
        m = middle(1, [("f1", 1, 1, "w1")], [("l1", ["f1"])])
        r = make_descriptor(m, {"w1": CHP, "l1": STANDARD_CAP})
        assert not is_positive_ribbon(r).positive
        with pytest.raises(StabilizationError, match="cycle"):
            stabilization_plan(r)

    def test_sphere_pair_names_on_a_finger(self):
        # Finger A1 with Whitney loop B1 is cancelled as a finger, not
        # mistaken for the sphere pair (A1, B1).
        m = middle(2, [("A1", 1, 2, "B1")])
        r = make_descriptor(m, {"B1": STANDARD_CAP})
        plan = stabilization_plan(r)
        assert plan.steps == (CancelFinger("A1", "B1"),
                              CancelPair(("A1", "B1")),
                              CancelPair(("A2", "B2")))
        assert verify_plan(r, plan).ok

    def test_long_finger_chain(self):
        # Deeper than the interpreter's recursion limit.
        n = 3000
        m = middle(n, [(f"f{i}", i, i + 1, f"w{i}") for i in range(1, n)])
        r = make_descriptor(m, {f"w{i}": CHP for i in range(1, n)})
        plan = stabilization_plan(r)
        assert [s.finger for s in plan.steps[:2]] == [f"f{n - 1}", f"f{n - 2}"]
        assert verify_plan(r, plan).ok

    def test_8000_pair_chain_plans_and_verifies_in_a_second(self):
        # Planning and replay are linear in fingers plus pairs; a dense
        # matrix with per-row scans took about 49 s here.
        n = 8000
        m = middle(n, [(f"f{i}", i, i + 1, f"w{i}") for i in range(1, n)])
        r = make_descriptor(m, {f"w{i}": CHP for i in range(1, n)})
        start = time.perf_counter()
        plan = stabilization_plan(r)
        assert verify_plan(r, plan).ok
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{elapsed:.2f}s"
        assert len(plan.steps) == 2 * n - 1

    def test_random_descriptors_produce_verified_products(self):
        rng = random.Random(41)
        for _ in range(100):
            r = random_nonpositive_descriptor(rng)
            assert not is_positive_ribbon(r).positive
            plan = stabilization_plan(r)
            assert plan.outcome.kind == "product"
            check = verify_plan(r, plan)
            assert check.ok, (check, plan)


class TestPlanInvalidMiddle:
    """Data the planner used to refuse cannot be built any more."""

    def test_finger_past_the_last_sphere_is_refused(self):
        # finger_graph roots only spheres 1..pairs: without the check the
        # finger was dropped and the plan was two bare pair cancellations.
        with pytest.raises(MiddleError) as e:
            MiddleLevelData(2, (Finger("f1", 5, 1, "w1"),))
        assert str(e.value) == "finger f1 references sphere outside 1..2"

    def test_loop_id_equal_to_a_whitney_id_is_refused(self):
        # One cap served both ids: the plan replaced it twice and its own
        # replay failed ("l1 has no non-positive tree cap").
        with pytest.raises(MiddleError) as e:
            middle(2, [("f1", 1, 2, "w1"), ("f2", 1, 2, "l1")],
                   [("l1", ["f1"])])
        assert str(e.value) == "loop id l1 is the whitney id of finger f2"


class TestPairBudget:
    """Plans and replays are linear in the declared pairs, so middle data
    over the pair budget is refused before any of that work."""

    def test_budget_holds_the_32k_pair_chain(self):
        assert DEFAULT_PAIR_BUDGET >= 32_000

    def test_data_at_the_budget_plans(self):
        r = make_descriptor(middle(DEFAULT_PAIR_BUDGET, [("f1", 1, 2, "w1")]),
                            {"w1": STANDARD_CAP})
        plan = stabilization_plan(r)
        assert len(plan.steps) == DEFAULT_PAIR_BUDGET + 1
        assert verify_plan(r, plan).ok

    def test_data_over_the_budget_is_refused(self):
        with pytest.raises(MiddleError) as e:
            middle(10**6, [("f1", 1, 2, "w1")])
        assert str(e.value) == (f"pair count {10**6} exceeds the pair "
                                f"budget {DEFAULT_PAIR_BUDGET}")


class TestVerifyPlanInvalidMiddle:
    """Middle data whose product plans the verifier used to fail before
    their first step cannot be built."""

    @pytest.mark.parametrize("pairs, finger", [
        (2, ("f1", 3, 1, "w1")),   # past the last sphere
        (2, ("f1", 0, 1, "w1")),   # a dense index would wrap around
        (2, ("f1", -1, 2, "w1")),
        (0, ("f1", 1, 1, "w1")),   # no sphere pairs at all
    ])
    def test_out_of_range_sphere(self, pairs, finger):
        with pytest.raises(MiddleError) as e:
            middle(pairs, [finger])
        assert str(e.value) == (
            f"pair count {pairs} must be positive" if pairs < 1
            else f"finger f1 references sphere outside 1..{pairs}")


class TestVerifyPlanOutcome:
    def positive_descriptor(self):
        m = middle(1, [("f1", 1, 1, "w1")], [("l1", ["f1"])])
        return make_descriptor(m, {"w1": CHP, "l1": CHP})

    def test_obstruction_plan_over_invalid_middle(self):
        # is_positive_ribbon used to raise KeyError: 'fX' on such data;
        # now it cannot be built.
        with pytest.raises(MiddleError) as e:
            MiddleLevelData(1, (Finger("f1", 1, 1, "w1"),),
                            (AccessoryLoop("l1", ("fX",)),))
        assert str(e.value) == "loop l1 references undeclared finger fX"

    def test_unknown_outcome_is_rejected(self):
        r = make_descriptor(middle(2, [("f1", 1, 2, "w1")]),
                            {"w1": STANDARD_CAP})
        plan = stabilization_plan(r)
        assert verify_plan(r, plan).ok
        result = verify_plan(r, replace(plan, outcome=Outcome("garbage")))
        assert not result.ok and result.failing_step is None
        assert result.reason == "unknown outcome 'garbage'"

    @pytest.mark.parametrize("k, blowups, steps", [
        (5, 7, (ReplaceCap("w1", 3), CancelPair(("A1", "B1")))),
        (0, 0, (CancelPair(("A1", "B1")),)),
        (1, 0, ()),
        (0, 1, ()),
    ])
    def test_obstruction_plan_carries_nothing(self, k, blowups, steps):
        r = self.positive_descriptor()
        good = stabilization_plan(r)
        assert good == StabilizationPlan(
            0, 0, (), Outcome("positive-obstruction", "l1"))
        result = verify_plan(r, replace(good, k=k, blowups=blowups,
                                        steps=steps))
        assert not result.ok and "obstruction plan" in result.reason


class TestVerifyPlanTampering:
    def setup_method(self):
        m = middle(3, [("f1", 1, 2, "w1"), ("f2", 2, 3, "w2"),
                       ("f3", 1, 3, "w3")],
                   [("l1", ["f1", "f2"])])
        self.r = make_descriptor(m, {"w1": CHMINUS, "w2": STANDARD_CAP,
                                     "w3": CHP, "l1": CHMINUS})
        self.plan = stabilization_plan(self.r)
        assert verify_plan(self.r, self.plan).ok

    def test_wrong_blowup_total(self):
        bad = replace(self.plan, blowups=self.plan.blowups + 1)
        result = verify_plan(self.r, bad)
        assert not result.ok and "blow-up" in result.reason

    def test_dropped_step(self):
        bad = replace(self.plan, steps=self.plan.steps[:-1])
        assert not verify_plan(self.r, bad).ok

    def test_forged_cost(self):
        steps = tuple(
            replace(s, cost=s.cost + 1) if isinstance(s, ReplaceCap) else s
            for s in self.plan.steps)
        result = verify_plan(self.r, replace(self.plan, steps=steps))
        assert not result.ok and "cost" in result.reason

    def test_forged_delta(self):
        steps = tuple(
            replace(s, delta=((1, 2),)) if isinstance(s, NormanTrick) else s
            for s in self.plan.steps)
        assert not verify_plan(self.r, replace(self.plan, steps=steps)).ok

    def test_premature_pair_cancel(self):
        steps = (CancelPair(("A1", "B1")),) + self.plan.steps
        result = verify_plan(self.r, replace(self.plan, steps=steps))
        assert not result.ok

    def test_premature_cancel_of_a_target_pair(self):
        # Pair 3 only receives fingers, so row A_3 is clean and the count
        # of live fingers alone must reject the cancellation.
        steps = (CancelPair(("A3", "B3")),) + self.plan.steps
        result = verify_plan(self.r, replace(self.plan, steps=steps))
        assert not result.ok and result.failing_step == 0
        assert "still carries fingers" in result.reason

    def test_pairs_cancelled_before_their_fingers(self):
        # A plan that leaves fingers behind fails at a CancelPair step: a
        # finger lies on two pairs, and every pair must be cancelled.
        steps = tuple(s for s in self.plan.steps
                      if not isinstance(s, (NormanTrick, CancelFinger)))
        first = next(k for k, s in enumerate(steps)
                     if isinstance(s, CancelPair))
        result = verify_plan(self.r, replace(self.plan, steps=steps))
        assert not result.ok and result.failing_step == first
        assert "still carries fingers" in result.reason

    def test_wrong_witness_loop(self):
        m = middle(1, [("f1", 1, 1, "w1")], [("l1", ["f1"])])
        r = make_descriptor(m, {"w1": CHP, "l1": CHP})
        plan = stabilization_plan(r)
        bad = replace(plan, outcome=replace(plan.outcome, witness_loop="l9"))
        result = verify_plan(r, bad)
        assert not result.ok and "witness" in result.reason

    def test_obstruction_claim_on_nonpositive_descriptor(self):
        plan = stabilization_plan(self.positive_plan_source())
        result = verify_plan(self.r, plan)
        assert not result.ok

    def positive_plan_source(self):
        m = middle(1, [("f1", 1, 1, "w1")], [("l1", ["f1"])])
        return make_descriptor(m, {"w1": CHP, "l1": CHP})


class TestVerifyPlanForgeries:
    """Forged steps are refused at their index, for their reason."""

    def setup_method(self):
        # f2 (2 -> 3) must go before f1 (1 -> 2), which tubes into row B_2.
        m = middle(3, [("f1", 1, 2, "w1"), ("f2", 2, 3, "w2")])
        self.r = make_descriptor(m, {"w1": CHP, "w2": CHP})
        self.plan = stabilization_plan(self.r)
        assert [type(s) for s in self.plan.steps[:2]] == [NormanTrick] * 2
        assert verify_plan(self.r, self.plan).ok

    def verdict(self, steps):
        return verify_plan(self.r, replace(self.plan, steps=tuple(steps)))

    def test_norman_trick_with_a_delta(self):
        steps = list(self.plan.steps)
        steps[1] = NormanTrick(steps[1].finger, ((3, 4),))
        assert self.verdict(steps) == VerifyResult(
            False, 1, "recorded delta rows mismatch")

    def test_norman_trick_into_a_row_that_is_not_clean(self):
        steps = list(self.plan.steps)
        steps[0], steps[1] = steps[1], steps[0]
        assert self.verdict(steps) == VerifyResult(
            False, 0, "target row B_2 not clean at f1")

    def test_cancel_finger_capped_by_a_tree(self):
        steps = list(self.plan.steps)
        steps[0] = CancelFinger("f2", "w2")
        assert self.verdict(steps) == VerifyResult(
            False, 0, "f2/w2 is not a standard-capped pair")


def _random_step(rng, pool):
    def ident():
        return rng.choice(pool)
    kind = rng.randrange(5)
    if kind == 0:
        return ReplaceCap(ident(), rng.randint(-1, 6))
    if kind == 1:
        return (ident(), ident())  # not a step
    if kind == 2:
        return NormanTrick(ident(), tuple((rng.randint(0, 7), rng.randint(-2, 6))
                                          for _ in range(rng.randint(0, 2))))
    if kind == 3:
        return CancelFinger(ident(), ident())
    return CancelPair(tuple(ident() for _ in range(rng.randint(0, 3))))


def _mutate(rng, plan, pool):
    steps = list(plan.steps)
    blowups = plan.blowups
    kind = plan.outcome.kind
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(8)
        at = rng.randrange(len(steps) + 1)
        if op == 0 and steps:
            del steps[min(at, len(steps) - 1)]
        elif op == 1 and steps:
            steps.insert(at, rng.choice(steps))
        elif op == 2 and len(steps) > 1:
            i, j = rng.sample(range(len(steps)), 2)
            steps[i], steps[j] = steps[j], steps[i]
        elif op == 3 and steps:
            steps[min(at, len(steps) - 1)] = _random_step(rng, pool)
        elif op == 4:
            steps.insert(at, _random_step(rng, pool))
        elif op == 5:
            steps = [replace(s, cost=s.cost + rng.choice((-1, 1)))
                     if isinstance(s, ReplaceCap) and rng.random() < 0.5
                     else s for s in steps]
            blowups += rng.choice((0, 1))
        elif op == 6:
            steps = [replace(s, delta=((rng.randint(1, 6), 2),))
                     if isinstance(s, NormanTrick) and rng.random() < 0.5
                     else s for s in steps]
        else:
            kind = rng.choice(("product", "positive-obstruction", "other"))
    return StabilizationPlan(plan.k, blowups, tuple(steps), Outcome(kind))


class TestVerifyPlanIsTotal:
    def test_mutated_plans_get_a_verdict(self):
        rng = random.Random(43)
        odd = ["", "x", "A", "B", "A1", "B1", "A0", "B0", "A01", "B01",
               "A\u00b2", "B\u00b2", "A-1", "B-1", "A1 B1"]
        verdicts = others = 0
        for _ in range(250):
            r = random_nonpositive_descriptor(rng)
            plan = stabilization_plan(r)
            pool = odd + list(r.middle.cap_ids()) + [
                f.id for f in r.middle.fingers]
            for _ in range(5):
                mutant = _mutate(rng, plan, pool)
                result = verify_plan(r, mutant)
                assert isinstance(result, VerifyResult)
                if mutant.outcome.kind == "other":
                    assert not result.ok, mutant
                    others += 1
                verdicts += 1
        assert verdicts >= 1000 and others > 0

    def test_cancel_pair_of_any_arity(self):
        r = make_descriptor(middle(2, [("f1", 1, 2, "w1")]),
                            {"w1": STANDARD_CAP})
        plan = stabilization_plan(r)
        for ids in ((), ("x",), ("a", "b", "c"), ("A1", "B2"), ("f1", "w1")):
            bad = replace(plan, steps=(CancelPair(ids),) + plan.steps)
            result = verify_plan(r, bad)
            assert not result.ok and result.failing_step == 0

    def test_shared_whitney_id(self):
        # Two fingers sharing the Whitney loop w got verdicts from the
        # replay; such data cannot be built any more.
        with pytest.raises(MiddleError) as e:
            middle(2, [("f1", 1, 2, "w"), ("f2", 1, 2, "w")],
                   [("l1", ["f2"])])
        assert str(e.value) == "duplicate whitney id w (finger f1 has it)"
