"""Kirby diagrams: validation, invariants and the move set."""

import random
import time

import pytest

from ribboncalc import (AbelianGroup, Component, DiagramError, ForbiddenMove,
                        KirbyDiagram, MoveError, add_cancelling_pair,
                        assert_geometric, blow_down, blow_up,
                        boundary_homology, cancel_pair, cokernel, dualize,
                        empty_diagram, euler_char,
                        handle_slide, parse_diagram, serialize_diagram,
                        signature, symmetric_signature, twist_blow_up,
                        zero_dot_swap)

from ribboncalc.abelian import _torsion_sum

from genlib import (block_sum, dense_cluster, oracle_link_blocks,
                    random_diagram)


def unknot(framing, name="u"):
    return KirbyDiagram(name=name,
                        components=(Component("u", "framed", framing),))


def hopf_12():
    return add_cancelling_pair(empty_diagram(), "12", ids=("d", "h"))


def h1plus(d):
    return boundary_homology(d, "plus")[0]


class TestValidate:
    """A diagram that breaks a linking or count rule cannot be built; the
    DiagramError names the entry that breaks it."""

    def two(self, *links, kinds=("framed", "framed"), **fields):
        return KirbyDiagram("x", tuple(
            Component(cid, kind, None if kind == "dotted" else 0)
            for cid, kind in zip("ab", kinds)), links, **fields)

    def refused(self, message, entry, *links, **kw):
        with pytest.raises(DiagramError) as e:
            self.two(*links, **kw)
        assert str(e.value) == message and e.value.entry == entry

    def test_empty_is_clean(self):
        assert empty_diagram() == KirbyDiagram("empty")

    def test_magnitude_violation(self):
        self.refused("|alg[a][b]| = 3 exceeds geom = 1", ("link", 0),
                     (("a", "b"), 3, 1))
        # with_links builds through the constructor too.
        with pytest.raises(DiagramError, match=r"= 2 exceeds geom = 0$"):
            self.two().with_links({("a", "b"): (2, 0)})

    def test_parity_violation(self):
        self.refused("geom[a][b] = 2 and alg = 1 differ mod 2", ("link", 0),
                     (("a", "b"), 1, 2))
        self.refused("geom[a][b] = 1 and alg = 0 differ mod 2", ("link", 0),
                     (("a", "b"), 0, 1))

    def test_dotted_dotted_linking(self):
        self.refused("dotted circles a, b have alg = 1", ("link", 0),
                     (("a", "b"), 1, 1), kinds=("dotted", "dotted"))
        # Geometric linking without algebraic linking is allowed.
        assert self.two((("a", "b"), 0, 2),
                        kinds=("dotted", "dotted")).geom("a", "b") == 2

    def test_negative_geometric_and_counts(self):
        self.refused("geom[a][b] = -2 is negative", ("link", 0),
                     (("a", "b"), 0, -2))
        for field in ("three_handles", "four_handles", "hidden_one_handles"):
            self.refused(f"{field} = -1 is negative", (field, 0),
                         **{field: -1})
        # The links are judged before the counts.
        self.refused("geom[a][b] = -2 is negative", ("link", 0),
                     (("a", "b"), 0, -2), three_handles=-1)

    def test_paren_requires_dual_flag(self):
        self.refused("b is paren-framed but dual_flag is unset",
                     ("component", 1), kinds=("framed", "parenframed"))
        assert self.two(kinds=("framed", "parenframed"), dual_flag=True)

    def test_random_diagrams_are_clean(self):
        rng = random.Random(7)
        for _ in range(100):
            d = random_diagram(rng)
            for e in (d, dualize(d)):
                kind = {c.id: c.kind for c in e.components}
                for (i, j), a, g in e.links:
                    assert abs(a) <= g and (g - a) % 2 == 0
                    assert a == 0 or kind[i] != "dotted" or kind[j] != "dotted"
                assert e.dual_flag or "parenframed" not in kind.values()


class TestLinkPairs:
    """``links`` holds one entry per pair, in the (min, max) order that
    ``alg`` and ``geom`` read."""

    def two(self, *links):
        return KirbyDiagram("x", (Component("a", "framed", 1),
                                  Component("b", "framed", 1)), links)

    def test_reversed_pair_rejected(self):
        # As built, alg("a", "b") read 0 (sigma 2, H1 0), while its text
        # parsed back with alg 1 (sigma 1, H1 Z).
        with pytest.raises(ValueError, match=r"\(b, a\) is not in"):
            self.two((("b", "a"), 1, 1))

    def test_repeated_pair_rejected(self):
        # It read alg 3 but wrote two link lines, which parse_diagram
        # refuses as a duplicate link.
        with pytest.raises(ValueError, match=r"repeated link pair \(a, b\)"):
            self.two((("a", "b"), 1, 1), (("a", "b"), 3, 3))

    def test_canonical_pair_round_trips(self):
        d = self.two((("a", "b"), 1, 1))
        assert d.alg("b", "a") == 1 and signature(d) == 1
        assert h1plus(d) == AbelianGroup(1)
        assert parse_diagram(serialize_diagram(d)) == d

    def test_with_links_writes_canonical_pairs(self):
        d = self.two().with_links({("b", "a"): (1, 1)})
        assert d.links == ((("a", "b"), 1, 1),)


class TestInvariants:
    def test_empty(self):
        d = empty_diagram()
        assert euler_char(d) == 1
        assert signature(d) == 0

    def test_single_blowup(self):
        d = blow_up(empty_diagram(), -1)
        assert euler_char(d) == 2
        assert signature(d) == -1
        assert h1plus(d) == AbelianGroup(0)

    def test_zero_framed_unknot_boundary(self):
        assert h1plus(unknot(0)) == AbelianGroup(1)

    def test_pm1_unknot_boundary_is_trivial(self):
        assert h1plus(unknot(1)) == AbelianGroup(0)
        assert h1plus(unknot(-1)) == AbelianGroup(0)

    def test_hopf_pair(self):
        d = hopf_12()
        assert euler_char(d) == 1
        assert signature(d) == 0
        assert h1plus(d) == AbelianGroup(0)

    def test_lens_space_boundary(self):
        assert h1plus(unknot(5)) == AbelianGroup(0, (5,))

    def test_hidden_one_handles_add_free_summands(self):
        d = KirbyDiagram(name="x", hidden_one_handles=2, dual_flag=True)
        assert h1plus(d) == AbelianGroup(2)
        assert boundary_homology(d, "minus")[0] == AbelianGroup(2)

    def test_caveat_flag_tracks_three_handles(self):
        d = KirbyDiagram(name="x", three_handles=1)
        assert boundary_homology(d, "plus")[1] is True
        assert boundary_homology(empty_diagram(), "plus")[1] is False

    def test_minus_side_needs_dual(self):
        with pytest.raises(MoveError):
            boundary_homology(empty_diagram(), "minus")

    def test_unknown_side(self):
        with pytest.raises(ValueError, match="unknown side 'left'"):
            boundary_homology(empty_diagram(), "left")

    def test_diagonal_geometric_entry_is_zero(self):
        d = hopf_12()
        assert d.geom("h", "h") == 0 and d.geom("d", "h") == 1

    def test_linking_matrices_at_n80(self):
        rng = random.Random(80)
        comps = tuple(Component(f"c{k}", "dotted") if k % 5 == 0 else
                      Component(f"c{k}", "framed", rng.randint(-3, 3))
                      for k in range(80))
        links, alg = {}, {}
        for x, cx in enumerate(comps):
            alg[cx.id, cx.id] = cx.framing or 0
            for cy in comps[x + 1:]:
                a = 0 if cx.kind == cy.kind == "dotted" else rng.randint(-3, 3)
                links[(cx.id, cy.id)] = (a, abs(a) + 2 * rng.randint(0, 1))
                alg[cx.id, cy.id] = alg[cy.id, cx.id] = a
        d = KirbyDiagram("big", comps).with_links(links)
        start = time.perf_counter()
        full, framed = d.linking_matrix(), d.framed_submatrix()
        assert time.perf_counter() - start < 0.5
        framed_ids = [c.id for c in comps if c.kind == "framed"]
        assert full == [[alg[i.id, j.id] for j in comps] for i in comps]
        assert framed == [[alg[i, j] for j in framed_ids] for i in framed_ids]


class TestHandleSlide:
    def two_unknots(self, f1, f2, alg=0, geom=0):
        d = KirbyDiagram(name="x", components=(
            Component("a", "framed", f1), Component("b", "framed", f2)))
        return d.with_links({("a", "b"): (alg, geom)})

    def test_framing_rule(self):
        # f' = f_a + f_b + 2 * alg(a, b)
        d = self.two_unknots(2, 3, alg=1, geom=1)
        out = handle_slide(d, "a", "b", 1)
        assert out.framing("a") == 2 + 3 + 2 * 1

    def test_reverse_slide_restores_alg(self):
        d = self.two_unknots(2, 3, alg=1, geom=1)
        out = handle_slide(handle_slide(d, "a", "b", 1), "a", "b", -1)
        assert out.alg("a", "b") == d.alg("a", "b")
        assert out.framing("a") == d.framing("a")
        assert out.geom("a", "b") >= d.geom("a", "b")

    def test_dotted_over_undotted_forbidden(self):
        d = KirbyDiagram(name="x", components=(
            Component("a", "dotted"), Component("b", "framed", 0)))
        with pytest.raises(ForbiddenMove):
            handle_slide(d, "a", "b", 1)

    def test_dotted_over_dotted_allowed(self):
        d = KirbyDiagram(name="x", components=(
            Component("a", "dotted"), Component("b", "dotted")))
        out = handle_slide(d, "a", "b", 1)
        assert out.alg("a", "b") == 0

    def test_framed_over_dotted_allowed(self):
        d = KirbyDiagram(name="x", components=(
            Component("a", "framed", 1), Component("b", "dotted")))
        d = d.with_links({("a", "b"): (1, 1)})
        out = handle_slide(d, "a", "b", -1)
        assert out.framing("a") == 1 + 0 + 2 * (-1) * 1

    def test_cannot_slide_over_paren(self):
        d = dualize(unknot(3))
        with pytest.raises(MoveError):
            handle_slide(d, "m_u", "u", 1)

    def test_self_slide_rejected(self):
        with pytest.raises(MoveError):
            handle_slide(unknot(0), "u", "u", 1)

    def test_third_party_links_transfer(self):
        d = KirbyDiagram(name="x", components=(
            Component("a", "framed", 0), Component("b", "framed", 0),
            Component("c", "framed", 0)))
        d = d.with_links({("b", "c"): (2, 2)})
        out = handle_slide(d, "a", "b", 1)
        assert out.alg("a", "c") == 2
        assert out.geom("a", "c") == 2

    def test_homology_invariance(self):
        d = self.two_unknots(2, 3, alg=1, geom=1)
        assert h1plus(handle_slide(d, "a", "b", 1)) == h1plus(d)

    def test_sigma_chi_preserved_over_framed(self):
        d = self.two_unknots(2, 3, alg=1, geom=1)
        out = handle_slide(d, "a", "b", -1)
        assert signature(out) == signature(d)
        assert euler_char(out) == euler_char(d)


class TestBlowUpDown:
    def test_blow_up_contract(self):
        d = unknot(0)
        out = blow_up(d, 1, new_id="e")
        assert out.framing("e") == 1
        assert euler_char(out) == euler_char(d) + 1
        assert signature(out) == signature(d) + 1
        assert h1plus(out) == h1plus(d)

    def test_blow_down_inverse(self):
        d = unknot(0)
        assert blow_down(blow_up(d, -1, new_id="e"), "e") == d

    def test_blow_down_two_disjoint(self):
        d = blow_up(blow_up(empty_diagram(), 1, "e1"), -1, "e2")
        assert blow_down(blow_down(d, "e1"), "e2") == empty_diagram()

    def test_blow_down_rejects_linked(self):
        d = blow_up(unknot(0), 1, new_id="e")
        d = d.with_links({("u", "e"): (1, 1)})
        with pytest.raises(MoveError):
            blow_down(d, "e")

    def test_blow_down_rejects_wrong_framing(self):
        with pytest.raises(MoveError):
            blow_down(unknot(2), "u")


class TestTwistBlowUp:
    def test_single_strand(self):
        d = unknot(0)
        out = twist_blow_up(d, 1, {"u": 1}, new_id="e")
        assert out.framing("u") == 1
        assert out.framing("e") == 1
        assert out.alg("u", "e") == 1
        assert out.geom("u", "e") == 1
        # [0] and [[1,1],[1,1]] both have cokernel Z
        assert h1plus(out) == h1plus(d) == AbelianGroup(1)

    def test_pairwise_deltas(self):
        d = KirbyDiagram(name="x", components=(
            Component("a", "framed", 0), Component("b", "framed", 0)))
        out = twist_blow_up(d, -1, {"a": 1, "b": 2}, new_id="e")
        assert out.alg("a", "b") == -2
        assert out.framing("a") == -1
        assert out.framing("b") == -4
        assert out.alg("a", "e") == -1 and out.alg("b", "e") == -2
        assert out.geom("a", "e") == 1 and out.geom("b", "e") == 2

    def test_homology_and_chi_sigma(self):
        d = KirbyDiagram(name="x", components=(
            Component("a", "framed", 2), Component("b", "framed", 0)))
        d = d.with_links({("a", "b"): (1, 1)})
        out = twist_blow_up(d, 1, {"a": 1, "b": 1}, new_id="e")
        assert h1plus(out) == h1plus(d)
        assert euler_char(out) == euler_char(d) + 1
        assert signature(out) == signature(d) + 1

    def test_rejects_empty_strands(self):
        with pytest.raises(MoveError):
            twist_blow_up(unknot(0), 1, {})

    def test_rejects_dotted_strand(self):
        # A dotted circle cannot slide off the new handle, so twisting it
        # would change the boundary.
        d = KirbyDiagram(name="x", components=(
            Component("a", "dotted"), Component("b", "framed", 0)))
        with pytest.raises(MoveError):
            twist_blow_up(d, 1, {"a": 1, "b": 1}, new_id="e")


class TestZeroDotSwap:
    def test_round_trip(self):
        d = unknot(0)
        swapped = zero_dot_swap(d, "u")
        assert swapped.component("u").kind == "dotted"
        back = zero_dot_swap(swapped, "u")
        assert back.component("u").kind == "framed"
        assert back.framing("u") == 0

    def test_homology_unchanged_both_ways(self):
        d = unknot(0)
        assert h1plus(zero_dot_swap(d, "u")) == h1plus(d) == AbelianGroup(1)

    def test_rejects_nonzero_framing(self):
        with pytest.raises(MoveError):
            zero_dot_swap(unknot(1), "u")

    def test_rejects_linking_a_dot(self):
        d = KirbyDiagram(name="x", components=(
            Component("a", "framed", 0), Component("b", "dotted")))
        d = d.with_links({("a", "b"): (1, 1)})
        with pytest.raises(MoveError):
            zero_dot_swap(d, "a")


class TestCancellingPairs:
    def test_one_two_roundtrip(self):
        d = hopf_12()
        assert h1plus(d) == AbelianGroup(0)
        assert cancel_pair(d, "d", "h") == empty_diagram()

    def test_two_three_roundtrip(self):
        d = add_cancelling_pair(empty_diagram(), "23", ids=("h",))
        assert d.three_handles == 1
        out = cancel_pair(d, None, "h")
        assert out == empty_diagram()

    def test_chi_unchanged(self):
        d = empty_diagram()
        assert euler_char(add_cancelling_pair(d, "12")) == euler_char(d)
        assert euler_char(add_cancelling_pair(d, "23")) == euler_char(d)

    def test_cancel_12_names_blocking_component(self):
        d = hopf_12()
        d = blow_up(d, 1, new_id="x")
        d = d.with_links({("d", "h"): (1, 1), ("d", "x"): (0, 2)})
        with pytest.raises(MoveError, match="x"):
            cancel_pair(d, "d", "h")

    def test_cancel_23_requires_three_handle(self):
        d = unknot(0, name="h").with_links({})
        with pytest.raises(MoveError):
            cancel_pair(d, None, "u")


class TestAssertGeometric:
    def setup_method(self):
        d = KirbyDiagram(name="x", components=(
            Component("a", "framed", 0), Component("b", "framed", 0)))
        self.d = d.with_links({("a", "b"): (1, 3)})

    def test_lowering(self):
        assert assert_geometric(self.d, "a", "b", 1).geom("a", "b") == 1

    def test_cannot_raise(self):
        with pytest.raises(MoveError):
            assert_geometric(self.d, "a", "b", 5)

    def test_cannot_go_below_alg(self):
        with pytest.raises(MoveError):
            assert_geometric(self.d, "a", "b", 0)

    def test_parity_enforced(self):
        with pytest.raises(MoveError):
            assert_geometric(self.d, "a", "b", 2)

    @pytest.mark.parametrize("framing", [0, 2])
    def test_self_pair_refused(self, framing):
        # A 0-framed self-pair used to come back unchanged, as if applied.
        d = KirbyDiagram(name="x", components=(
            Component("a", "framed", framing),)).with_links({})
        with pytest.raises(MoveError,
                           match=r"geom\[a\]\[a\] names one component twice"):
            assert_geometric(d, "a", "a", 0)


class TestDualize:
    def test_single_framed_unknot(self):
        out = dualize(unknot(3))
        assert out.component("u").kind == "parenframed"
        assert out.component("u").framing == -3
        assert out.component("m_u").framing == 0
        assert out.alg("m_u", "u") == 1
        assert out.dual_flag and out.four_handles == 1

    def test_single_dotted_circle(self):
        d = KirbyDiagram(name="x", components=(Component("a", "dotted"),))
        out = dualize(d)
        assert out.component("a").kind == "parenframed"
        assert out.three_handles == 1
        assert not any(c.id.startswith("m_") for c in out.components)

    def test_mirror_negates_linking(self):
        d = KirbyDiagram(name="x", components=(
            Component("a", "framed", 2), Component("b", "framed", 0)))
        d = d.with_links({("a", "b"): (1, 1)})
        out = dualize(d)
        assert out.alg("a", "b") == -1
        assert out.geom("a", "b") == 1

    def test_three_handles_become_hidden(self):
        d = KirbyDiagram(name="x", three_handles=2)
        assert dualize(d).hidden_one_handles == 2

    def test_double_dualize_rejected(self):
        with pytest.raises(MoveError):
            dualize(dualize(unknot(0)))

    def test_minus_boundary_matches_original_plus(self):
        d = KirbyDiagram(name="x", components=(
            Component("a", "framed", 2), Component("b", "framed", 0)))
        d = d.with_links({("a", "b"): (1, 1)})
        assert boundary_homology(dualize(d), "minus")[0] == h1plus(d)


def dense_invariants(d):
    """sigma, H1+ and (for a dual) H1- of whole matrices read entry by
    entry through ``alg``: the oracle for the per-block invariants."""
    def matrix(kinds):
        ids = [c.id for c in d.components if c.kind in kinds]
        return [[d.alg(i, j) for j in ids] for i in ids]

    def h1(kinds):
        g = cokernel(matrix(kinds))
        return AbelianGroup(g.free_rank + d.hidden_one_handles, g.torsion)

    return (symmetric_signature(matrix(("framed", "parenframed"))),
            h1(("dotted", "framed", "parenframed")),
            h1(("parenframed",)) if d.dual_flag else None)


def invariants(d):
    return (signature(d), h1plus(d),
            boundary_homology(d, "minus")[0] if d.dual_flag else None)


class TestMovePreconditions:
    """Every refused move names its reason and leaves no new value."""

    def base(self):
        d = hopf_12()  # d dotted, h 0-framed, a geometric Hopf pair
        d = add_cancelling_pair(d, "23", ("z",))
        d = blow_up(d, 1, "e")
        d = KirbyDiagram(name="b", components=d.components + (
            Component("p", "dotted"), Component("q", "framed", 2),
            Component("w", "framed", 0)), three_handles=d.three_handles)
        return d.with_links({("d", "h"): (1, 1), ("p", "q"): (1, 3),
                             ("p", "w"): (0, 2)})

    @pytest.mark.parametrize("move, message", [
        (lambda d: handle_slide(d, "h", "z", 2), "slide sign must be"),
        (lambda d: blow_up(d, 2), "blow-up sign must be"),
        (lambda d: blow_up(d, 1, "h"), "component id h already in use"),
        (lambda d: twist_blow_up(d, 2, {"h": 1}), "twist sign must be"),
        (lambda d: add_cancelling_pair(d, "12", ("d", "n")),
         "pair ids d, n unavailable"),
        (lambda d: add_cancelling_pair(d, "12", ("n", "n")),
         "pair ids n, n unavailable"),
        (lambda d: add_cancelling_pair(d, "23", ("h",)),
         "pair id h unavailable"),
        (lambda d: add_cancelling_pair(d, "34"),
         "unknown cancelling pair kind '34'"),
        (lambda d: cancel_pair(d, None, "q"), "q is not a 0-framed 2-handle"),
        (lambda d: cancel_pair(d, None, "d"), "d is not a 0-framed 2-handle"),
        (lambda d: cancel_pair(d, None, "w"),
         "w is geometrically linked with p"),
        (lambda d: cancel_pair(d, "h", "z"), "h is not dotted"),
        (lambda d: cancel_pair(d, "d", "p"), "p is not a 2-handle"),
        (lambda d: cancel_pair(d, "d", "z"),
         "d and z are not a geometric Hopf pair"),
        (lambda d: cancel_pair(d, "p", "q"),
         "p and q are not a geometric Hopf pair"),
        (lambda d: dualize(dualize(d)),
         "diagram is already a dual decomposition"),
        (lambda d: dualize(d.with_links(
            {}, components=d.components + (Component("m_h", "dotted"),))),
         "meridian id m_h collides with a component")])
    def test_refused(self, move, message):
        with pytest.raises(MoveError) as e:
            move(self.base())
        assert str(e.value).startswith(message)

    def test_fresh_ids_skip_taken_ones(self):
        d = self.base()  # holds e
        d = blow_up(d, 1)
        assert d.ids()[-1] == "e2"
        d = twist_blow_up(blow_up(d, -1), 1, {"h": 1})
        assert d.ids()[-2:] == ("e3", "e4")
        d = add_cancelling_pair(add_cancelling_pair(d, "12"), "12")
        assert d.ids()[-4:] == ("dpair", "hpair", "dpair2", "hpair2")
        d = add_cancelling_pair(d, "23")
        assert d.ids()[-1] == "hpair3"


class TestBlockwiseInvariants:
    """Invariants summed over linked blocks equal the whole-matrix ones."""

    def test_random_diagrams_and_duals(self):
        rng = random.Random(2026)
        for _ in range(300):
            d = random_diagram(rng, max_components=12)
            assert invariants(d) == dense_invariants(d)
            assert signature(d) == symmetric_signature(d.framed_submatrix())
            assert h1plus(d).torsion == cokernel(d.linking_matrix()).torsion
            dual = dualize(d)
            assert invariants(dual) == dense_invariants(dual)

    def test_shuffled_block_sums(self):
        rng = random.Random(9)
        for _ in range(60):
            parts = [random_diagram(rng, max_components=6)
                     for _ in range(rng.randint(2, 6))]
            if rng.random() < 0.5:
                parts.append(dense_cluster(rng, rng.randint(1, 8),
                                           rng.randint(0, 2)))
            d = block_sum(rng, parts)
            assert invariants(d) == dense_invariants(d)
            assert invariants(dualize(d)) == dense_invariants(dualize(d))
            assert signature(d) == sum(signature(p) for p in parts)

    def test_one_block_per_dense_cluster(self):
        rng = random.Random(3)
        d = block_sum(rng, [dense_cluster(rng, 10 - k) for k in range(5)])
        blocks = d._blocks[0]
        assert sorted(len(rec.ids) for rec in blocks) == [6, 7, 8, 9, 10]
        assert sorted((rec.ids, [list(row) for row in rec.rows])
                      for rec in blocks) == sorted(
                          oracle_link_blocks(d, d.ids()))
        assert oracle_link_blocks(d, d.ids(), split=False) == [
            (list(d.ids()), d.linking_matrix())]

    def test_framed_clusters_joined_through_a_dotted_circle(self):
        # a-b and c-e link only among themselves; the dotted x links a and
        # c.  Restricted to the framed ids, the partition of all components
        # gives one block where the framed ids alone would give two.
        d = KirbyDiagram("x", (
            Component("a", "framed", 2), Component("b", "framed", -3),
            Component("x", "dotted"), Component("c", "framed", 1),
            Component("e", "framed", 4))).with_links({
                ("a", "b"): (1, 1), ("c", "e"): (3, 3),
                ("a", "x"): (1, 1), ("c", "x"): (2, 2)})
        (rec,) = d._blocks[0]
        assert rec.ids == ["a", "b", "x", "c", "e"]
        memo = {}
        signature(d, memo)
        assert [key[1] for key in memo if len(key) == 2] == [
            ((2, 1, 0, 0), (1, -3, 0, 0), (0, 0, 1, 3), (0, 0, 3, 4))]
        assert invariants(d) == dense_invariants(d)
        assert invariants(dualize(d)) == dense_invariants(dualize(d))

    def test_random_clusters_joined_through_dotted_circles(self):
        rng = random.Random(17)
        for _ in range(60):
            parts = [dense_cluster(rng, rng.randint(1, 5), dotted=0)
                     for _ in range(rng.randint(2, 5))]
            d = block_sum(rng, parts)
            links = dict(d._linkmap)
            comps = list(d.components)
            for k in range(rng.randint(1, 3)):
                comps.append(Component(f"x{k}", "dotted"))
                for c in rng.sample(d.ids(), rng.randint(1, len(d.ids()))):
                    a = rng.choice((-2, -1, 1, 2))
                    links[(c, f"x{k}")] = (a, abs(a))
            d = d.with_links(links, components=tuple(comps))
            assert invariants(d) == dense_invariants(d)
            assert invariants(dualize(d)) == dense_invariants(dualize(d))
            assert signature(d) == sum(signature(p) for p in parts)

    @pytest.mark.parametrize("framings, torsion", [
        ([4, 6], (2, 12)), ([2, 3, 5], (30,)), ([-7, 7, 2], (7, 14)),
        ([1, 1], ())])
    def test_unlinked_lens_spaces_merge_torsion(self, framings, torsion):
        d = KirbyDiagram("x", tuple(Component(f"u{k}", "framed", f)
                                    for k, f in enumerate(framings)))
        assert h1plus(d) == AbelianGroup(0, torsion)
        assert signature(d) == sum(1 if f > 0 else -1 for f in framings)

    def test_block_sum_of_60_against_sympy(self):
        from sympy import Matrix
        from sympy.matrices.normalforms import smith_normal_form
        rng = random.Random(60)
        d = block_sum(rng, [dense_cluster(rng, 10, rng.randint(0, 3))
                            for _ in range(6)])
        ids = d.ids()
        snf = smith_normal_form(Matrix([[d.alg(i, j) for j in ids]
                                        for i in ids]))
        diag = [abs(snf[i, i]) for i in range(len(ids))]
        assert h1plus(d) == AbelianGroup(
            diag.count(0), tuple(sorted(x for x in diag if x > 1)))

    def test_2000_components_in_200_clusters(self):
        rng = random.Random(13)
        cluster = dense_cluster(rng)
        sigma, plus = signature(cluster), h1plus(cluster)
        minus = boundary_homology(dualize(cluster), "minus")[0]
        assert sigma != 0 and len(plus.torsion) >= 2
        k = 200
        d = block_sum(rng, [cluster] * k)
        start = time.perf_counter()
        got = (signature(d), h1plus(d),
               boundary_homology(dualize(d), "minus")[0])
        assert time.perf_counter() - start < 2.0
        assert got == (
            k * sigma,
            AbelianGroup(k * plus.free_rank,
                         tuple(t for t in plus.torsion for _ in range(k))),
            AbelianGroup(k * minus.free_rank,
                         tuple(t for t in minus.torsion for _ in range(k))))


def random_move(rng, d, n):
    """One move on ``d``, mostly on its own ids; many of them fail."""
    ids = d.ids()

    def cid():
        return rng.choice(ids) if ids and rng.random() < 0.9 else f"x{n}"

    def made(prefix):  # a component that an earlier move added
        return rng.choice([i for i in ids if i[0] == prefix] or [f"x{n}"])

    moves = (
        lambda: handle_slide(d, cid(), cid(), rng.choice((1, -1))),
        lambda: handle_slide(d, cid(), cid(), rng.choice((1, -1))),
        lambda: handle_slide(d, cid(), cid(), rng.choice((1, -1))),
        lambda: blow_up(d, rng.choice((1, -1)), f"e{n}"),
        lambda: blow_down(d, cid()),
        lambda: blow_down(d, made("e")),
        lambda: twist_blow_up(d, rng.choice((1, -1)), {
            cid(): rng.choice((1, -1, 2, 0)) for _ in range(3)}, f"t{n}"),
        lambda: zero_dot_swap(d, cid()),
        lambda: add_cancelling_pair(d, "12", (f"d{n}", f"h{n}")),
        lambda: add_cancelling_pair(d, "23", (f"z{n}",)),
        lambda: cancel_pair(d, cid(), cid()),
        lambda: cancel_pair(d, None, cid()),
        lambda: cancel_pair(d, None, made("z")),
        lambda: cancel_pair(d, *(lambda a: (a, "h" + a[1:]))(made("d"))),
        lambda: assert_geometric(d, cid(), cid(), rng.randint(0, 3)),
        lambda: dualize(d))
    return rng.choice(moves)()


def oracle_invariants(d):
    """sigma and H1+- summed over the blocks of ``oracle_link_blocks``."""
    def blocks(kinds):
        return [m for _, m in oracle_link_blocks(
            d, [c.id for c in d.components if c.kind in kinds]) if m]

    def h1(kinds):
        groups = [cokernel(m) for m in blocks(kinds)]
        return AbelianGroup(
            sum(g.free_rank for g in groups) + d.hidden_one_handles,
            _torsion_sum(g.torsion for g in groups))

    return (sum(symmetric_signature(m)
                for m in blocks(("framed", "parenframed"))),
            h1(("dotted", "framed", "parenframed")),
            h1(("parenframed",)) if d.dual_flag else None)


class TestMoveResults:
    """A move's result is built without the construction checks, keeps
    every rule they check, and keeps its parent's linked blocks that hold
    no component it touched."""

    def rebuild(self, e):
        """``e`` built again through the public constructor, which raises
        DiagramError for a broken rule."""
        rebuilt = KirbyDiagram(e.name, e.components, e.links,
                               e.three_handles, e.four_handles,
                               e.hidden_one_handles, e.dual_flag, e.notes)
        assert e == rebuilt and e.links == rebuilt.links
        return rebuilt

    def check(self, e, memo):
        rebuilt = self.rebuild(e)
        assert e._linkmap == rebuilt._linkmap
        assert e._at == rebuilt._at and e._by_id == rebuilt._by_id
        blocks, block_of = e._blocks
        got = sorted((rec.ids, [list(row) for row in rec.rows])
                     for rec in blocks)
        assert got == sorted(b for b in oracle_link_blocks(e, e.ids())
                             if b[0])
        assert block_of == {cid: rec for rec in blocks for cid in rec.ids}
        want = oracle_invariants(e)
        assert invariants(e) == want
        assert (signature(e, memo), boundary_homology(e, "plus", memo)[0],
                boundary_homology(e, "minus", memo)[0] if e.dual_flag
                else None) == want

    def test_random_move_chains_match_the_oracle(self):
        rng = random.Random(19)
        applied = failed = carried = 0
        for k in range(150):
            d = random_diagram(rng, max_components=7)
            if k % 2:
                d = dualize(d)
            memo = {}
            self.check(d, memo)
            for n in range(14):
                before = dict(vars(d))
                try:
                    e = random_move(rng, d, n)
                except MoveError:
                    failed += 1
                    # A failed move may fill a cache, but changes nothing.
                    assert all(vars(d)[k] is v for k, v in before.items())
                    continue
                applied += 1
                carried += "_carry" in vars(e)
                # Now and then a result's blocks are left uncomputed, so
                # the next move's result regroups from scratch.
                if rng.random() < 0.8 or len(e.components) > 16:
                    self.check(e, memo)
                else:
                    self.rebuild(e)
                d = e
                if len(d.components) > 16:
                    break
        assert applied > 600 and failed > 300 and carried > 400

    def test_untouched_blocks_are_the_parents(self):
        rng = random.Random(3)
        d = block_sum(rng, [dense_cluster(rng, 5, dotted=1)] * 3)
        d._blocks
        ids = [c.id for c in d.components if c.kind == "framed"
               and c.id.endswith(".0")]
        e = handle_slide(d, ids[0], ids[1], 1)
        kept = [rec for rec in e._blocks[0] if rec in d._blocks[0]]
        assert sorted(len(rec.ids) for rec in kept) == [5, 5]
        assert "_carry" not in vars(e)  # the parent's blocks are let go
        f = assert_geometric(e, ids[0], ids[1], e.geom(ids[0], ids[1]))
        assert f._blocks is e._blocks
