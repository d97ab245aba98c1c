"""Stabilization planning: turn a non-positive ribbon descriptor into a
verified product certificate, or report the positivity obstruction.

The pipeline mirrors the handle-by-handle argument: non-positive caps are
replaced by standard 2-handles at a blow-up cost, standard-capped fingers
are removed by Whitney tricks, the remaining fingers are removed by Norman
tricks in reverse topological order, and the leftover complementary sphere
pairs are cancelled.  An accessory loop breaks when any finger it crosses
is removed, and its cap leaves with it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, count
from operator import itemgetter

from .middle import (MiddleLevelData, RibbonDescriptor, STANDARD_CAP,
                     _descriptor, _middle, _trusted, finger_graph,
                     is_positive_ribbon)
from .trees import is_positive, kuga_blowup_cost, prune_depth


class StabilizationError(Exception):
    """The descriptor falls outside the geometric hypotheses.

    Raised when the fingers left after the Whitney tricks form a cycle;
    the argument excludes this for non-positive descriptors, so an
    encodable instance hitting it is flagged rather than planned around.
    Data that breaks a middle-data rule never reaches the planner: building
    it raises MiddleError.
    """


# -- plan steps ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ReplaceCap:
    """Swap a non-positive tree cap for a standard 2-handle."""

    target: str  # whitney or accessory loop id
    cost: int


@dataclass(frozen=True, slots=True)
class NormanTrick:
    """Remove a finger by tubing its target sphere into its source; every
    accessory loop through the finger breaks with it.

    A planned ``delta`` is always ``()``: the sinks-first order only tubes
    into clean rows.  The verifier checks that the row is clean and the
    delta ``()``."""

    finger: str
    delta: tuple[tuple[int, int], ...]  # (target sphere, added intersections)


@dataclass(frozen=True, slots=True)
class CancelFinger:
    """Remove a standard-capped finger by a Whitney trick; every accessory
    loop through the finger breaks with it."""

    finger: str
    whitney: str


@dataclass(frozen=True, slots=True)
class CancelPair:
    """Cancel the complementary sphere pair ``ids == ("A<i>", "B<i>")``."""

    ids: tuple[str, ...]


Step = ReplaceCap | NormanTrick | CancelFinger | CancelPair

# Builders of the planner's steps, whose fields are checked ids and ints.
_replace_cap, _norman_trick, _cancel_finger, _cancel_pair = map(
    _trusted, (ReplaceCap, NormanTrick, CancelFinger, CancelPair))


@dataclass(frozen=True)
class Outcome:
    kind: str  # "product" or "positive-obstruction"
    witness_loop: str | None = None
    note: str | None = None


@dataclass(frozen=True)
class StabilizationPlan:
    k: int
    blowups: int
    steps: tuple[Step, ...]
    outcome: Outcome


# -- pipeline stages -----------------------------------------------------

def replace_nonpositive_caps(
        r: RibbonDescriptor) -> tuple[RibbonDescriptor, list[Step], int, int]:
    """Swap every non-positive tree cap for a standard 2-handle.

    Returns the updated descriptor, the ReplaceCap steps, the blow-up total
    and the tower level bound k (max prune depth over replaced caps).
    """
    caps = r.caps
    values = list(map(itemgetter(1), caps))
    # Cost and prune depth of each distinct non-positive tree cap.  The caps
    # of one parsed tree share one Cap, and hashing a Cap would hash its
    # whole tree, so caps are told apart by identity.
    verdicts: dict[int, tuple[int, int]] = {}
    for key, cap in dict(zip(map(id, values), values)).items():
        if cap.tree is not None and not is_positive(cap.tree):
            verdicts[key] = kuga_blowup_cost(cap.tree), prune_depth(cap.tree)
    steps: list[Step] = []
    blowups = 0
    out = list(caps)
    for at in compress(count(), map(verdicts.__contains__, map(id, values))):
        cid = caps[at][0]
        cost = verdicts[id(values[at])][0]
        steps.append(_replace_cap(cid, cost))
        blowups += cost
        out[at] = (cid, STANDARD_CAP)
    # Every verdict is of a cap that is replaced.
    k = max((depth for _, depth in verdicts.values()), default=0)
    # The same ids in the same order, some capped by a standard handle.
    return _descriptor(r.middle, tuple(out)), steps, blowups, k


def norman_trick_step(rows: dict[int, dict[int, int]], from_a: int,
                      through_b: int) -> dict[int, int]:
    """Apply one Norman trick to G's excess rows in place, removing a
    finger pair.

    Two parallel copies of A_j (j = through_b) are tubed into A_i; each
    copy carries A_j's extra intersections, so row i gains twice row j's
    excess and the finger's own pair G[i][j] drops by 2.  Only rows i and
    j are touched.  Returns the per-column delta (excluding the -2 on the
    finger entry).
    """
    if rows.get(from_a, {}).get(through_b, 0) < 2:
        raise StabilizationError(
            f"no finger pair left between A_{from_a} and B_{through_b}")
    delta = {t: 2 * x for t, x in rows.get(through_b, {}).items()}
    for t, d in delta.items():
        _add(rows, from_a, t, d)
    _add(rows, from_a, through_b, -2)
    return delta


def _add(rows: dict[int, dict[int, int]], i: int, j: int, x: int) -> None:
    """``rows[i][j] += x``, storing no zero entry and no empty row."""
    row = rows.setdefault(i, {})
    row[j] = row.get(j, 0) + x
    if not row[j]:
        del row[j]
        if not row:
            del rows[i]


@dataclass(frozen=True)
class NormanResult:
    steps: tuple[NormanTrick, ...]
    cycle: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.cycle is None


def norman_eliminate(m: MiddleLevelData) -> NormanResult:
    """Remove every finger by Norman tricks, or report a blocking cycle.

    Fingers are processed grouped by source sphere, sources taken sinks
    first in the finger graph, so each processed finger sees a clean target
    row and contributes no cascade intersections: every delta is ``()``.
    """
    graph = finger_graph(m)
    if graph.cycles:
        return NormanResult((), cycle=graph.cycles[0])
    by_source: dict[int, list[str]] = {}
    for f in m.fingers:
        by_source.setdefault(f.from_a, []).append(f.id)
    # In an acyclic graph a finger a -> b has b != a, and b finishes before
    # a, so every finger out of b is gone first: row B_b is clean.
    return NormanResult(tuple(_norman_trick(fid, ())
                              for source in graph.order
                              for fid in by_source.get(source, ())))


# -- end-to-end planning -------------------------------------------------

PRODUCT_NOTE = "product structure certified; hence the cobordism is not stably non-product"


def stabilization_plan(r: RibbonDescriptor) -> StabilizationPlan:
    """Full pipeline: obstruction gate, cap replacement, Whitney tricks on
    the standard-capped fingers, Norman cascades on the rest, terminal pair
    cancellation.  The descriptor is valid by construction, pair budget
    included, so every step is linear in fingers plus pairs."""
    m = r.middle
    decision = is_positive_ribbon(r)
    if decision.positive:
        return StabilizationPlan(
            k=0, blowups=0, steps=(),
            outcome=Outcome("positive-obstruction",
                            witness_loop=decision.witness_loop))
    capped, steps, blowups, k = replace_nonpositive_caps(r)
    cap = capped.caps_by_id
    rest = []
    for f in m.fingers:
        if cap[f.whitney].tree is None:
            steps.append(_cancel_finger(f.id, f.whitney))
        else:
            rest.append(f)
    # Some of the checked fingers and no loops: still valid middle data.
    result = norman_eliminate(_middle(m.pairs, tuple(rest), ()))
    if not result.ok:
        live = {f.id for f in rest}
        loops = [l.id for l in m.accessory_loops
                 if live.issuperset(l.fingers)
                 and any(m.finger(fid).from_a in result.cycle
                         for fid in l.fingers)]
        raise StabilizationError(
                f"finger cycle {result.cycle} survives loop breaking"
                + (f" (loops {loops})" if loops else ""))
    steps += result.steps
    steps += [_cancel_pair((f"A{i}", f"B{i}")) for i in range(1, m.pairs + 1)]
    return StabilizationPlan(
        k=k, blowups=blowups, steps=tuple(steps),
        outcome=Outcome("product", note=PRODUCT_NOTE))


# -- replay verification -------------------------------------------------

@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    failing_step: int | None = None
    reason: str | None = None


def verify_plan(r: RibbonDescriptor, p: StabilizationPlan) -> VerifyResult:
    """Replay every step against the descriptor, checking preconditions,
    recorded deltas, the blow-up total and the terminal product state.
    Any plan gets a verdict, since every descriptor is valid by
    construction: an unknown outcome fails, and an obstruction plan
    carries no steps, no k and no blow-ups.  A malformed step is a failing
    step.
    Removing a finger breaks every accessory loop through it, and the
    loop's cap leaves with it.  G is replayed as counts of live fingers
    from each A sphere and on each sphere pair, so every precondition is
    O(1)."""
    m = r.middle
    if p.outcome.kind == "positive-obstruction":
        if p.steps or p.k or p.blowups:
            return VerifyResult(False, None, "an obstruction plan carries "
                                             "steps, k or blow-ups")
        decision = is_positive_ribbon(r)
        if not decision.positive:
            return VerifyResult(False, None, "descriptor is not positive")
        if p.outcome.witness_loop != decision.witness_loop:
            return VerifyResult(False, None, "witness loop mismatch")
        return VerifyResult(True)
    if p.outcome.kind != "product":
        return VerifyResult(False, None,
                            f"unknown outcome {p.outcome.kind!r}")

    # Live state of the replay, keyed by id.  G is the identity plus twice
    # the live fingers (a pair each): a trick tubes two copies of a clean
    # row B_b into A_a, which adds nothing, and any other trick is refused.
    # So row A_i carries extra intersections exactly while out[i] > 0.
    fingers = dict(m.fingers_by_id)
    on_loops: dict[str, list[str]] = {}  # finger id -> loops through it
    for l in m.accessory_loops:
        for fid in l.fingers:
            on_loops.setdefault(fid, []).append(l.id)
    capmap = dict(r.caps)
    sources = [f.from_a for f in m.fingers]
    targets = [f.through_b for f in m.fingers]
    pairs = range(1, m.pairs + 1)
    out = dict.fromkeys(pairs, 0)  # live fingers from A_i
    out.update(Counter(sources))
    on_sphere = dict.fromkeys(pairs, 0)  # live fingers on pair i
    on_sphere.update(Counter(chain(sources, targets)))
    spheres = set(pairs)  # pairs not cancelled yet
    blowups = 0

    for idx, step in enumerate(p.steps):
        kind = type(step)  # the step types, most frequent first
        if kind is CancelFinger or kind is NormanTrick:
            f = fingers.get(step.finger)
            if f is None:
                return VerifyResult(False, idx,
                                    f"finger {step.finger} not present")
            if kind is CancelFinger:
                cap = capmap.get(step.whitney)
                if f.whitney != step.whitney or cap is None \
                        or cap.tree is not None:
                    return VerifyResult(
                        False, idx, f"{step.finger}/{step.whitney} is not a "
                                    "standard-capped pair")
            elif out[f.through_b]:
                return VerifyResult(
                    False, idx,
                    f"target row B_{f.through_b} not clean at {step.finger}")
            elif step.delta != ():  # two copies of a clean row add nothing
                return VerifyResult(False, idx, "recorded delta rows mismatch")
            # The finger, its pair in G, its cap and its loops' caps go.
            del fingers[f.id]
            out[f.from_a] -= 1
            on_sphere[f.from_a] -= 1
            on_sphere[f.through_b] -= 1
            capmap.pop(f.whitney, None)
            for lid in on_loops.get(f.id, ()):  # the loop breaks
                capmap.pop(lid, None)
        elif kind is CancelPair:
            a, b = step.ids if len(step.ids) == 2 else ("", "")
            if a[:1] != "A" or b[:1] != "B" or a[1:] != b[1:] \
                    or not a[1:].isdecimal():
                return VerifyResult(False, idx,
                                    f"{step.ids!r} does not name a sphere pair")
            i = int(a[1:])
            if i not in spheres:
                return VerifyResult(False, idx, f"sphere pair {i} missing")
            if on_sphere[i] > 0:
                return VerifyResult(
                    False, idx, f"sphere pair {i} still carries fingers")
            if out[i]:
                return VerifyResult(
                    False, idx, f"row A_{i} carries extra intersections")
            spheres.discard(i)
        elif kind is ReplaceCap:
            cap = capmap.get(step.target)
            if cap is None or cap.standard or cap.positive:
                return VerifyResult(False, idx,
                                    f"{step.target} has no non-positive tree cap")
            if kuga_blowup_cost(cap.tree) != step.cost:
                return VerifyResult(False, idx,
                                    f"recorded cost {step.cost} is wrong")
            capmap[step.target] = STANDARD_CAP
            blowups += step.cost
        else:
            return VerifyResult(False, idx, f"unknown step {step!r}")
    if blowups != p.blowups:
        return VerifyResult(False, None,
                            f"blow-up total {blowups} != recorded {p.blowups}")
    if spheres:
        return VerifyResult(False, None,
                            f"sphere pairs {sorted(spheres)} were never "
                            "cancelled")
    # No finger is left: each lies on pairs in 1..pairs, and a pair is
    # cancelled only once its fingers are gone.  Every loop crosses a finger
    # and every cap is a finger's or a loop's, so no loop and no cap is left.
    return VerifyResult(True)
