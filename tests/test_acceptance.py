"""Acceptance suite.

Seven end-to-end criteria, each printing a single pass/fail line.  Every
criterion checks library results against independent oracles (sympy Smith
forms, brute-force unrollings, plain DFS) rather than the library's own
code paths.
"""

import random
import time
from contextlib import contextmanager

from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from ribboncalc import (AbelianGroup, Cap, Finger, MiddleLevelData,
                        MoveError, STANDARD_CAP, add_cancelling_pair,
                        blow_down, blow_up, boundary_homology, cancel_pair,
                        chplus, corpus_run, corpus_names, corpus_text,
                        dualize, euler_char, excess_rows, handle_slide,
                        is_positive, is_positive_ribbon, is_strictly_positive,
                        kuga_blowup_cost, make_descriptor, norman_eliminate,
                        norman_trick_step, parse_diagram, parse_middle,
                        parse_ribbon, parse_script, parse_tree, prune_depth,
                        serialize_diagram, serialize_middle, serialize_ribbon,
                        serialize_script, serialize_tree, signature,
                        stabilization_plan, twist_blow_up, verify_plan,
                        whitney_set, zero_dot_swap)
from ribboncalc.simplify import (CancelFinger, CancelPair, NormanTrick,
                                 ReplaceCap)

from genlib import (dense_geometric_matrix, dense_identity,
                    dense_norman_replay, dense_norman_trick_step,
                    dotted_ids, framed_ids, oracle_cycle_exists,
                    oracle_frontier_negatives, oracle_is_positive,
                    random_acyclic_middle, random_cyclic_middle,
                    random_diagram, random_nonpositive_descriptor,
                    random_script, random_tree)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def oracle_cokernel(rows):
    """Invariants of Z^n / column span, via sympy's Smith normal form."""
    n = len(rows)
    if n == 0:
        return AbelianGroup(0)
    s = smith_normal_form(Matrix(rows))
    diag = [abs(s[i, i]) for i in range(min(s.shape))]
    nonzero = [x for x in diag if x]
    return AbelianGroup(n - len(nonzero),
                        tuple(sorted(x for x in nonzero if x > 1)))


# -- criterion 1: move invariance -----------------------------------------

def _random_move(rng, d, fresh):
    """One randomly chosen legal move with its contracted deltas.

    Returns (new_diagram, kind, expected chi delta, expected signature
    delta or None when the contract states none, expected free-rank delta
    of the plus boundary), or None when no legal instance exists.
    """
    kind = rng.choice(("slide", "swap", "twist", "blowup", "blowdown",
                       "addpair", "cancel"))
    if kind == "slide":
        fids, dids = framed_ids(d), dotted_ids(d)
        pool = fids if (rng.random() < 0.7 and len(fids) >= 2) else dids
        if len(pool) < 2:
            return None
        a, b = rng.sample(pool, 2)
        try:
            return handle_slide(d, a, b, rng.choice((1, -1))), kind, 0, 0, 0
        except MoveError:
            return None
    if kind == "swap":
        cands = [c for c in d.components
                 if (c.kind == "framed" and c.framing == 0)
                 or c.kind == "dotted"]
        if not cands:
            return None
        c = rng.choice(cands)
        try:
            new = zero_dot_swap(d, c.id)
        except MoveError:
            return None
        return new, kind, (-2 if c.kind == "framed" else 2), None, 0
    if kind == "twist":
        fids = framed_ids(d)
        if not fids:
            return None
        chosen = rng.sample(fids, rng.randint(1, min(2, len(fids))))
        strands = {cid: rng.choice((-2, -1, 1, 2)) for cid in chosen}
        t = rng.choice((1, -1))
        return twist_blow_up(d, t, strands, new_id=fresh()), kind, 1, t, 0
    if kind == "blowup":
        s = rng.choice((1, -1))
        return blow_up(d, s, fresh()), kind, 1, s, 0
    if kind == "blowdown":
        cands = [c.id for c in d.components
                 if c.kind == "framed" and c.framing in (1, -1)
                 and all(d.geom(c.id, k) == 0 for k in d.ids() if k != c.id)]
        if not cands:
            return None
        e = rng.choice(cands)
        return blow_down(d, e), kind, -1, -d.framing(e), 0
    if kind == "addpair":
        if rng.random() < 0.5:
            return (add_cancelling_pair(d, "12", ids=(fresh(), fresh())),
                    kind, 0, None, 0)
        return (add_cancelling_pair(d, "23", ids=(fresh(),)),
                kind, 0, None, 1)
    # kind == "cancel"
    if d.three_handles and rng.random() < 0.5:
        cands = [c.id for c in d.components
                 if c.kind == "framed" and c.framing == 0
                 and all(d.geom(c.id, k) == 0 for k in d.ids() if k != c.id)]
        if cands:
            return cancel_pair(d, None, rng.choice(cands)), kind, 0, None, -1
        return None
    isolated = lambda x: all(d.geom(x, k) == 0 for k in d.ids()
                             if k not in pairids)
    for a in dotted_ids(d):
        for b in framed_ids(d):
            pairids = {a, b}
            if (abs(d.alg(a, b)) == 1 and d.geom(a, b) == 1
                    and isolated(a) and isolated(b)):
                return cancel_pair(d, a, b), kind, 0, None, 0
    return None


def test_move_invariance_suite():
    with criterion("move-invariance"):
        start = time.monotonic()
        rng = random.Random(20260823)
        tally = {k: 0 for k in ("slide", "swap", "twist", "blowup",
                                "blowdown", "addpair", "cancel")}
        for case in range(500):
            d = random_diagram(rng, max_components=8, max_abs_alg=3)
            counter = iter(range(10**6))
            fresh = lambda: f"np{next(counter)}"
            chi, sig = euler_char(d), signature(d)
            plus = boundary_homology(d, "plus")[0]
            for _ in range(20):
                got = _random_move(rng, d, fresh)
                if got is None:
                    continue
                new, kind, dchi, dsig, drank = got
                nchi, nsig = euler_char(new), signature(new)
                nplus = boundary_homology(new, "plus")[0]
                assert nchi - chi == dchi, (kind, d, new)
                if dsig is not None:
                    assert nsig - sig == dsig, (kind, d, new)
                assert nplus == AbelianGroup(plus.free_rank + drank,
                                             plus.torsion), (kind, d, new)
                d, chi, sig, plus = new, nchi, nsig, nplus
                tally[kind] += 1
        assert all(n >= 200 for n in tally.values()), tally
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"{elapsed:.1f}s"


# -- criterion 2: dualization ---------------------------------------------

def test_dualization_check():
    with criterion("dualization"):
        start = time.monotonic()
        rng = random.Random(2)
        for _ in range(200):
            d = random_diagram(rng, allow_three_handles=False)
            dual = dualize(d)
            # plus side of the original: surger every component
            plus_matrix = d.linking_matrix()
            plus_oracle = oracle_cokernel(plus_matrix)
            # minus side of the dual: surger only parenthesized components
            parens = [c.id for c in dual.components
                      if c.kind == "parenframed"]
            minus_matrix = [[dual.framing(i) if i == j else dual.alg(i, j)
                             for j in parens] for i in parens]
            minus_oracle = oracle_cokernel(minus_matrix)
            assert minus_oracle == plus_oracle, (d, dual)
            # the library agrees with the oracle on both sides
            assert boundary_homology(d, "plus")[0] == plus_oracle
            assert boundary_homology(dual, "minus")[0] == minus_oracle
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"{elapsed:.1f}s"


# -- criterion 3: tree suite ----------------------------------------------

def test_tree_suite():
    with criterion("tree-suite"):
        start = time.monotonic()
        assert is_positive(chplus())
        assert is_strictly_positive(chplus())
        rng = random.Random(3)
        for _ in range(1000):
            t = random_tree(rng, max_nodes=12)
            positive = is_positive(t)
            assert positive == oracle_is_positive(t), t
            depth = prune_depth(t)
            assert (depth is None) == positive, t
            if not positive:
                assert kuga_blowup_cost(t) == oracle_frontier_negatives(t), t
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"{elapsed:.1f}s"


# -- criterion 4: Norman arithmetic ---------------------------------------

def test_norman_arithmetic():
    with criterion("norman-arithmetic"):
        # Staged instance: remove the pair between A_1 and B_2 while B_2
        # still meets B_3's sphere; each of the two tubed-in copies of A_2
        # carries both extra intersections, so exactly 4 new ones appear.
        m = MiddleLevelData(3, (Finger("f1", 1, 2, "w1"),
                                Finger("f2", 2, 3, "w2")), ())
        assert norman_trick_step(excess_rows(m), 1, 2) == {3: 4}
        assert dense_norman_trick_step(dense_geometric_matrix(m), 1, 2) \
            == {3: 4}
        rng = random.Random(4)
        for _ in range(200):
            m = random_acyclic_middle(rng, with_loops=False)
            assert not oracle_cycle_exists(m)
            result = norman_eliminate(m)
            assert result.ok
            # every recorded delta is the dense oracle's, and the replay
            # ends at the identity
            assert (dense_norman_replay(m, result.steps)
                    == dense_identity(m.pairs))
        for _ in range(200):
            m = random_cyclic_middle(rng)
            assert oracle_cycle_exists(m)
            result = norman_eliminate(m)
            assert not result.ok
            edges = {(f.from_a, f.through_b) for f in m.fingers}
            cyc = result.cycle
            for i, v in enumerate(cyc):
                assert (v, cyc[(i + 1) % len(cyc)]) in edges


# -- criterion 5: stabilization pipeline ----------------------------------

def _check_terminal_product_state(r, plan):
    """Step accounting: every finger removed once, every sphere pair
    cancelled, and no non-standard cap survives to the terminal state."""
    steps = plan.steps
    removed = [s.finger for s in steps
               if isinstance(s, (NormanTrick, CancelFinger))]
    assert sorted(removed) == sorted(f.id for f in r.middle.fingers)
    cancelled_spheres = {s.ids for s in steps if isinstance(s, CancelPair)}
    assert cancelled_spheres == {(f"A{i}", f"B{i}")
                                 for i in range(1, r.middle.pairs + 1)}
    # every loop crosses a removed finger, so it breaks and its cap
    # leaves with it
    for l in r.middle.accessory_loops:
        assert set(l.fingers) & set(removed)
    # a surviving cap would have to be standard: non-positive ones are
    # replaced, positive ones sit on removed fingers or broken loops
    replaced = {s.target for s in steps if isinstance(s, ReplaceCap)}
    for cid, cap in r.caps:
        assert cap.standard or cid in replaced or cap.positive


def _witness_satisfies_all_clauses(r, wl):
    ws = whitney_set(r.middle, wl)
    if not all(r.cap(w).positive for w in ws):
        return False
    if len(ws) == 1 and not r.cap(wl).positive:
        return False
    if len(ws) > 1:
        loop = next(l for l in r.middle.accessory_loops if l.id == wl)
        sources = [r.middle.finger(fid).from_a for fid in loop.fingers]
        if len(set(sources)) != len(sources):
            return False
    return True


def _random_positive_descriptor(rng):
    while True:
        m = random_acyclic_middle(rng)
        if not m.accessory_loops:
            continue
        loop = rng.choice(m.accessory_loops)
        sources = [m.finger(fid).from_a for fid in loop.fingers]
        if len(loop.fingers) > 1 and len(set(sources)) != len(sources):
            continue
        caps = {f.whitney: Cap(chplus(f"chp_{f.whitney}"))
                if f.id in loop.fingers or rng.random() < 0.3
                else STANDARD_CAP
                for f in m.fingers}
        for l in m.accessory_loops:
            caps[l.id] = (Cap(chplus(f"chp_{l.id}")) if l.id == loop.id
                          else STANDARD_CAP)
        r = make_descriptor(m, caps)
        if is_positive_ribbon(r).positive:
            return r


def test_stabilization_pipeline():
    with criterion("stabilization-pipeline"):
        rng = random.Random(5)
        for _ in range(200):
            r = random_nonpositive_descriptor(rng, max_pairs=6,
                                              max_fingers=8,
                                              max_tree_nodes=12)
            assert not is_positive_ribbon(r).positive
            plan = stabilization_plan(r)
            assert plan.outcome.kind == "product"
            assert verify_plan(r, plan).ok
            _check_terminal_product_state(r, plan)
        positives = [parse_ribbon(corpus_text(f"{n}.ribbon"))
                     for n in ("r1", "r2", "r3")]
        positives += [_random_positive_descriptor(rng) for _ in range(25)]
        for r in positives:
            assert is_positive_ribbon(r).positive
            plan = stabilization_plan(r)
            assert plan.outcome.kind == "positive-obstruction"
            assert _witness_satisfies_all_clauses(r, plan.outcome.witness_loop)


# -- criterion 6: corpus --------------------------------------------------

def test_corpus():
    with criterion("corpus"):
        start = time.monotonic()
        report = corpus_run()
        assert report.ok, [i for i in report.items if not i.ok]
        names = {i.name for i in report.items}
        for r in ("r0", "r1", "r2", "r3"):
            assert f"positivity:{r}" in names
        assert "plan:r4" in names
        assert "script:dual_walkthrough" in names
        assert "script:cancellation_walkthrough" in names
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"{elapsed:.1f}s"


# -- criterion 7: round trips ---------------------------------------------

def test_round_trips():
    with criterion("round-trip"):
        parsers = {"diagram": (parse_diagram, serialize_diagram),
                   "ribbon": (parse_ribbon, serialize_ribbon),
                   "script": (parse_script, serialize_script)}
        for name in corpus_names():
            parse, serialize = parsers[name.rsplit(".", 1)[-1]]
            value = parse(corpus_text(name))
            assert parse(serialize(value)) == value, name
        rng = random.Random(7)
        for _ in range(500):
            d = random_diagram(rng)
            assert parse_diagram(serialize_diagram(d)) == d
            t = random_tree(rng, finite=rng.random() < 0.3)
            assert parse_tree(serialize_tree(t)) == t
            r = random_nonpositive_descriptor(rng, max_pairs=4,
                                              max_fingers=5,
                                              max_tree_nodes=6)
            assert parse_middle(serialize_middle(r.middle)) == r.middle
            assert parse_ribbon(serialize_ribbon(r)) == r
            s = random_script(rng)
            assert parse_script(serialize_script(s)) == s
