"""Middle-level data, finger graphs, caps and the positivity decision."""

import random

import pytest

from ribboncalc import (AccessoryLoop, Cap, Finger, MiddleLevelData,
                        MiddleError, RibbonDescriptor, STANDARD_CAP,
                        SignedTree, TreeEdge, chplus,
                        excess_rows, finger_graph, is_positive_ribbon,
                        make_descriptor, truncate, whitney_set)

from genlib import (dense_excess_rows, dense_geometric_matrix,
                    oracle_cycle_exists, random_acyclic_middle,
                    random_cyclic_middle)
from ribboncalc.trees import DEFAULT_PAIR_BUDGET

CHP = Cap(chplus())


def middle(pairs, fingers=(), loops=()):
    return MiddleLevelData(
        pairs,
        tuple(Finger(*f) for f in fingers),
        tuple(AccessoryLoop(i, tuple(fs)) for i, fs in loops))


def refusal(build):
    """The message and entry of the MiddleError that ``build()`` raises."""
    with pytest.raises(MiddleError) as e:
        build()
    return str(e.value), e.value.entry


class TestValidateMiddle:
    """Middle data that breaks a rule cannot be built; the error names the
    offending entry."""

    def test_clean(self):
        m = middle(2, [("f1", 1, 2, "w1")], [("l1", ["f1"])])
        assert m.cap_ids() == ("w1", "l1")

    def test_out_of_range_sphere(self):
        assert refusal(lambda: middle(1, [("f1", 1, 2, "w1")])) == (
            "finger f1 references sphere outside 1..1", ("finger", 0))

    def test_duplicate_ids(self):
        assert refusal(lambda: middle(
            2, [("f1", 1, 2, "w1"), ("f1", 2, 1, "w2")])) == (
            "duplicate finger id f1", ("finger", 1))
        assert refusal(lambda: middle(
            2, [("f1", 1, 2, "w"), ("f2", 2, 1, "w")])) == (
            "duplicate whitney id w (finger f1 has it)", ("finger", 1))
        assert refusal(lambda: middle(
            2, [("f1", 1, 2, "w1")], [("l1", ["f1"]), ("l1", ["f1"])])) == (
            "duplicate loop id l1", ("loop", 1))

    def test_loop_over_missing_finger(self):
        assert refusal(lambda: middle(2, [], [("l1", ["nope"])])) == (
            "loop l1 references undeclared finger nope", ("loop", 0))

    def test_loop_id_equal_to_a_whitney_id(self):
        assert refusal(lambda: middle(
            2, [("f1", 1, 2, "w1"), ("f2", 1, 2, "l1")],
            [("l1", ["f1"])])) == (
            "loop id l1 is the whitney id of finger f2", ("loop", 0))

    def test_empty_loop_rejected_at_construction(self):
        assert refusal(lambda: AccessoryLoop("l1", ())) == (
            "accessory loop l1 traverses no fingers", None)

    def test_pair_budget(self):
        assert middle(DEFAULT_PAIR_BUDGET).pairs == DEFAULT_PAIR_BUDGET
        assert refusal(lambda: middle(DEFAULT_PAIR_BUDGET + 1)) == (
            f"pair count {DEFAULT_PAIR_BUDGET + 1} exceeds the pair budget "
            f"{DEFAULT_PAIR_BUDGET}", ("pairs", 0))

    def test_nonpositive_pairs(self):
        assert refusal(lambda: middle(0)) == (
            "pair count 0 must be positive", ("pairs", 0))


class TestMiddleTypes:
    """A value of the wrong type is refused with MiddleError naming its
    entry, not built (it would write text its own parser refuses, or could
    not be hashed) and not a raw TypeError."""

    F = Finger("f", 1, 2, "w")

    @pytest.mark.parametrize("pairs", [True, 2.0, "2", None])
    def test_pair_count_must_be_an_int(self, pairs):
        assert refusal(lambda: MiddleLevelData(pairs)) == (
            f"pair count must be int, not {type(pairs).__name__}",
            ("pairs", 0))

    @pytest.mark.parametrize("fields, message", [
        (("f", 1.0, 2, "w"), "finger sphere must be int, not float"),
        (("f", 1, True, "w"), "finger sphere must be int, not bool"),
        (("f", "1", 2, "w"), "finger sphere must be int, not str"),
        ((1, 1, 2, "w"), "finger id must be str, not int"),
        (("f", 1, 2, ["w"]), "finger whitney id must be str, not list"),
    ])
    def test_finger_fields(self, fields, message):
        ok = Finger("g", 1, 2, "v")
        assert refusal(lambda: MiddleLevelData(
            2, (ok, Finger(*fields)))) == (message, ("finger", 1))

    def test_sequences_must_be_tuples(self):
        assert refusal(lambda: MiddleLevelData(2, [self.F])) == (
            "fingers must be tuple, not list", None)
        loop = AccessoryLoop("l", ("f",))
        assert refusal(lambda: MiddleLevelData(2, (self.F,), [loop])) == (
            "loops must be tuple, not list", None)
        assert refusal(lambda: MiddleLevelData(
            2, (self.F,), (AccessoryLoop("l", ["f"]),))) == (
            "loop l fingers must be tuple, not list", ("loop", 0))

    def test_entries_must_be_values(self):
        assert refusal(lambda: MiddleLevelData(2, (("f", 1, 2, "w"),))) == (
            "finger entry must be Finger, not tuple", ("finger", 0))
        assert refusal(lambda: MiddleLevelData(2, (self.F,), (("l", "f"),))) \
            == ("loop entry must be AccessoryLoop, not tuple", ("loop", 0))
        assert refusal(lambda: MiddleLevelData(
            2, (self.F,), (AccessoryLoop(7, ("f",)),))) == (
            "loop id must be str, not int", ("loop", 0))
        assert refusal(lambda: MiddleLevelData(
            2, (self.F,), (AccessoryLoop("l", ("f", ("f",))),))) == (
            "loop l finger must be str, not tuple", ("loop", 0))

    def test_descriptor_types(self):
        m = MiddleLevelData(2, (self.F,))
        assert refusal(lambda: RibbonDescriptor(m, [("w", CHP)])) == (
            "caps must be tuple, not list", None)
        assert refusal(lambda: RibbonDescriptor(m, (("w",),))) == (
            "cap entry is not an (id, Cap) pair", ("cap", 0))
        assert refusal(lambda: RibbonDescriptor(m, ((1, CHP),))) == (
            "cap id must be str, not int", ("cap", 0))
        assert refusal(lambda: RibbonDescriptor(m, (("w", None),))) == (
            "cap for w must be Cap, not NoneType", ("cap", 0))
        assert refusal(lambda: RibbonDescriptor("m", ())) == (
            "middle data must be MiddleLevelData, not str", None)
        assert refusal(lambda: Cap("tree")) == (
            "cap tree must be SignedTree, not str", None)

    def test_no_wrong_type_builds(self):
        # Each field of random valid data replaced by a value of another
        # type: always MiddleError, never a value and never a TypeError.
        rng = random.Random(53)
        wrong = [True, 1.0, "1", None, ["x"], ("x",), 7]
        for _ in range(200):
            m = random_acyclic_middle(rng)
            if not m.fingers:
                continue
            k = rng.randrange(len(m.fingers))
            field = rng.choice(("id", "from_a", "through_b", "whitney"))
            good = getattr(m.fingers[k], field)
            value = rng.choice([w for w in wrong if type(w) is not type(good)])
            bad = Finger(**{**{name: getattr(m.fingers[k], name) for name in
                               ("id", "from_a", "through_b", "whitney")},
                            field: value})
            fingers = m.fingers[:k] + (bad,) + m.fingers[k + 1:]
            entry = refusal(lambda: MiddleLevelData(
                m.pairs, fingers, m.accessory_loops))[1]
            assert entry == ("finger", k)


class TestGeometricMatrix:
    """G as sparse excess rows, against the dense oracle."""

    def test_identity_without_fingers(self):
        assert excess_rows(middle(3)) == {}
        assert dense_geometric_matrix(middle(3)) == [[1, 0, 0], [0, 1, 0],
                                                     [0, 0, 1]]

    def test_each_finger_adds_a_pair(self):
        m = middle(2, [("f1", 1, 2, "w1"), ("f2", 1, 2, "w2"),
                       ("f3", 2, 1, "w3")])
        assert excess_rows(m) == {1: {2: 4}, 2: {1: 2}}
        assert dense_geometric_matrix(m) == [[1, 4], [2, 1]]

    def test_matches_dense_oracle(self):
        rng = random.Random(47)
        for _ in range(200):
            m = (random_cyclic_middle(rng) if rng.random() < 0.5
                 else random_acyclic_middle(rng))
            assert excess_rows(m) == dense_excess_rows(
                dense_geometric_matrix(m))


class TestFingerGraph:
    def test_acyclic_report(self):
        m = middle(3, [("f1", 1, 2, "w1"), ("f2", 2, 3, "w2")])
        g = finger_graph(m)
        assert g.acyclic
        assert g.edges == (("f1", 1, 2), ("f2", 2, 3))
        assert g.order == (3, 2, 1)

    def test_self_loop_is_a_cycle(self):
        m = middle(1, [("f1", 1, 1, "w1")])
        g = finger_graph(m)
        assert g.cycles == ((1,),)

    def test_two_cycle(self):
        m = middle(2, [("f1", 1, 2, "w1"), ("f2", 2, 1, "w2")])
        g = finger_graph(m)
        assert not g.acyclic
        assert set(g.cycles[0]) == {1, 2}

    def test_cycle_off_every_loop_is_reported(self):
        # No accessory loop touches the f1/f2 cycle; it is reported anyway.
        m = middle(3, [("f1", 1, 2, "w1"), ("f2", 2, 1, "w2"),
                       ("f3", 3, 1, "w3")],
                   [("l1", ["f3"])])
        assert not finger_graph(m).acyclic

    def test_oracle_agreement(self):
        rng = random.Random(29)
        for _ in range(200):
            m = (random_acyclic_middle(rng) if rng.random() < 0.5
                 else random_cyclic_middle(rng))
            g = finger_graph(m)
            assert g.acyclic == (not oracle_cycle_exists(m))


    def test_pair_budget(self):
        # Every pair is a node of the graph, so such data cannot be built.
        with pytest.raises(MiddleError, match="exceeds the pair budget"):
            finger_graph(middle(DEFAULT_PAIR_BUDGET + 1,
                                [("f1", 1, 2, "w1")]))


class TestCapsAndDescriptors:
    def test_standard_cap(self):
        assert STANDARD_CAP.standard and not STANDARD_CAP.positive

    def test_chplus_cap_positive(self):
        assert CHP.positive and not CHP.standard

    def test_finite_tower_is_not_a_cap(self):
        tower = truncate(chplus(), 1)
        assert tower.finite
        with pytest.raises(MiddleError, match="finite tower"):
            Cap(tower)

    def test_total_cap_assignment_enforced(self):
        m = middle(2, [("f1", 1, 2, "w1")], [("l1", ["f1"])])
        with pytest.raises(MiddleError, match="missing"):
            RibbonDescriptor(m, (("w1", CHP),))
        with pytest.raises(MiddleError, match="unknown"):
            RibbonDescriptor(m, (("w1", CHP), ("l1", CHP), ("zz", CHP)))
        assert refusal(lambda: RibbonDescriptor(m, (("zz", CHP),) + (
            ("w1", CHP), ("l1", CHP), ("yy", CHP)))) == (
            "caps for unknown ids ['zz', 'yy']", ("cap", 0))
        assert refusal(lambda: RibbonDescriptor(
            middle(2, [("f1", 1, 2, "w1"), ("f2", 1, 2, "w2")]),
            (("w1", CHP),))) == ("missing caps for ['w2']", None)

    def test_repeated_cap_id(self):
        # The repeat used to be planned as two ReplaceCap("w1", 1) steps,
        # and verify_plan rejected the plan at step 1.
        neg = Cap(SignedTree("neg", ("r",), "r", (TreeEdge("r", "r", -1),)))
        m = middle(1, [("f1", 1, 1, "w1")])
        assert refusal(lambda: RibbonDescriptor(
            m, (("w1", neg), ("w1", neg)))) == (
            "duplicate cap for w1", ("cap", 1))

    def test_long_ids_are_cut_in_messages(self):
        # Judges whose messages no document can reach; a document can reach
        # the others (see test_cli).  Shorter ids are shown as they are.
        long = "x" * 5000
        m = middle(1, [("f1", 1, 1, "w1")])
        tower = SignedTree(long, ("r",), "r", (), finite=True)
        for build in (lambda: AccessoryLoop(long, ()),
                      lambda: Cap(tower),
                      lambda: RibbonDescriptor(m, ((long, "cap"),)),
                      lambda: MiddleLevelData(
                          1, (Finger("f", 1, 1, "w"),),
                          (AccessoryLoop(long, ["f"]),)),
                      lambda: MiddleLevelData(
                          1, (), (AccessoryLoop(long, (5,)),))):
            message = refusal(build)[0]
            assert "(5000 characters)" in message and len(message) < 120
        assert refusal(lambda: AccessoryLoop("l" * 40, ())) == (
            f"accessory loop {'l' * 40} traverses no fingers", None)

    def test_whitney_set(self):
        m = middle(2, [("f1", 1, 2, "w1"), ("f2", 1, 2, "w2")],
                   [("l1", ["f1", "f2"]), ("l2", ["f2"])])
        assert whitney_set(m, "l1") == {"w1", "w2"}
        assert whitney_set(m, "l2") == {"w2"}


class TestPositivityDecision:
    def build(self, loops, caps, fingers):
        m = middle(max(max(f[1], f[2]) for f in fingers), fingers, loops)
        return make_descriptor(m, caps)

    def test_singleton_with_positive_accessory(self):
        r = self.build([("l1", ["f1"])], {"w1": CHP, "l1": CHP},
                       [("f1", 1, 1, "w1")])
        decision = is_positive_ribbon(r)
        assert decision.positive and decision.witness_loop == "l1"
        assert bool(decision)

    def test_singleton_with_standard_accessory_refused(self):
        r = self.build([("l1", ["f1"])], {"w1": CHP, "l1": STANDARD_CAP},
                       [("f1", 1, 1, "w1")])
        decision = is_positive_ribbon(r)
        assert not decision.positive
        assert decision.refusals[0][0] == "l1"
        assert "accessory cap" in decision.refusals[0][1]

    def test_nonpositive_whitney_cap_refused_first(self):
        r = self.build([("l1", ["f1"])],
                       {"w1": STANDARD_CAP, "l1": CHP},
                       [("f1", 1, 1, "w1")])
        decision = is_positive_ribbon(r)
        assert not decision.positive
        assert "w1" in decision.refusals[0][1]

    def test_larger_set_skips_accessory_cap_clause(self):
        r = self.build([("l1", ["f1", "f2"])],
                       {"w1": CHP, "w2": CHP, "l1": STANDARD_CAP},
                       [("f1", 1, 2, "w1"), ("f2", 2, 1, "w2")])
        assert is_positive_ribbon(r).positive

    def test_two_fingers_from_one_sphere_refused(self):
        r = self.build([("l1", ["f1", "f2"])],
                       {"w1": CHP, "w2": CHP, "l1": STANDARD_CAP},
                       [("f1", 1, 2, "w1"), ("f2", 1, 2, "w2")])
        decision = is_positive_ribbon(r)
        assert not decision.positive
        assert "more than one finger" in decision.refusals[0][1]

    def test_second_loop_can_rescue(self):
        r = self.build([("l1", ["f1", "f2"]), ("l2", ["f3"])],
                       {"w1": CHP, "w2": CHP, "w3": CHP,
                        "l1": STANDARD_CAP, "l2": CHP},
                       [("f1", 1, 2, "w1"), ("f2", 1, 2, "w2"),
                        ("f3", 2, 2, "w3")])
        decision = is_positive_ribbon(r)
        assert decision.positive and decision.witness_loop == "l2"
        # the refusal of the first loop is still reported
        assert decision.refusals and decision.refusals[0][0] == "l1"

    def test_no_loops_refused(self):
        r = self.build([], {"w1": CHP}, [("f1", 1, 1, "w1")])
        decision = is_positive_ribbon(r)
        assert not decision.positive
        assert decision.refusals == (("", "no accessory loops"),)
