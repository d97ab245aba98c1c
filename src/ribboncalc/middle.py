"""Middle-level intersection data of an h-cobordism and ribbon descriptors.

The data records k sphere pairs (attaching spheres A_1..A_k against belt
spheres B_1..B_k), finger moves pushing an A sphere through a B sphere,
accessory loops threading designated finger points, and a cap (standard
2-handle or signed-tree Casson handle) for every Whitney loop and accessory
loop.  The algebraic A.B intersection matrix is always the identity; each
finger contributes a cancelling pair, so only geometric counts vary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .trees import DEFAULT_PAIR_BUDGET, SignedTree, is_positive


class MiddleError(Exception):
    """A broken rule of middle data or of a cap assignment.

    ``entry`` names the offending entry, so a parser can point at its line:
    ``("pairs", 0)``, ``("finger", k)``, ``("loop", k)`` or ``("cap", k)``
    for the k-th finger, loop or cap, or None (a missing cap, a finite
    tower as a cap).
    """

    def __init__(self, message: str, entry: tuple[str, int] | None = None):
        super().__init__(message)
        self.entry = entry


@dataclass(frozen=True)
class Finger:
    id: str
    from_a: int
    through_b: int
    whitney: str


@dataclass(frozen=True)
class AccessoryLoop:
    id: str
    fingers: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.fingers:
            raise MiddleError(f"accessory loop {self.id} traverses no fingers")


@dataclass(frozen=True)
class MiddleLevelData:
    """Sphere pairs, fingers and accessory loops.

    Construction raises MiddleError on the first broken rule: the pair
    count lies in 1..DEFAULT_PAIR_BUDGET; finger ids and whitney ids are
    unique and every finger's spheres lie in 1..pairs; loop ids are unique,
    differ from every whitney id (the two would share one cap), and every
    loop names declared fingers only.
    """

    pairs: int
    fingers: tuple[Finger, ...] = ()
    accessory_loops: tuple[AccessoryLoop, ...] = ()

    def __post_init__(self) -> None:
        pairs = self.pairs
        if pairs < 1:
            raise MiddleError(f"pair count {pairs} must be positive",
                              ("pairs", 0))
        if pairs > DEFAULT_PAIR_BUDGET:
            raise MiddleError(f"pair count {pairs} exceeds the pair budget "
                              f"{DEFAULT_PAIR_BUDGET}", ("pairs", 0))
        fids: set[str] = set()
        finger_of_whitney: dict[str, str] = {}
        for k, f in enumerate(self.fingers):
            if f.id in fids:
                raise MiddleError(f"duplicate finger id {f.id}", ("finger", k))
            if f.whitney in finger_of_whitney:
                raise MiddleError(
                    f"duplicate whitney id {f.whitney} (finger "
                    f"{finger_of_whitney[f.whitney]} has it)", ("finger", k))
            if not (1 <= f.from_a <= pairs and 1 <= f.through_b <= pairs):
                raise MiddleError(f"finger {f.id} references sphere outside "
                                  f"1..{pairs}", ("finger", k))
            fids.add(f.id)
            finger_of_whitney[f.whitney] = f.id
        lids: set[str] = set()
        for k, l in enumerate(self.accessory_loops):
            if l.id in lids:
                raise MiddleError(f"duplicate loop id {l.id}", ("loop", k))
            for fid in l.fingers:
                if fid not in fids:
                    raise MiddleError(f"loop {l.id} references undeclared "
                                      f"finger {fid}", ("loop", k))
            if l.id in finger_of_whitney:
                raise MiddleError(f"loop id {l.id} is the whitney id of "
                                  f"finger {finger_of_whitney[l.id]}",
                                  ("loop", k))
            lids.add(l.id)

    @cached_property
    def fingers_by_id(self) -> dict[str, Finger]:
        return {f.id: f for f in self.fingers}

    @cached_property
    def loops_by_id(self) -> dict[str, AccessoryLoop]:
        return {l.id: l for l in self.accessory_loops}

    def finger(self, fid: str) -> Finger:
        return self.fingers_by_id[fid]

    def loop(self, lid: str) -> AccessoryLoop:
        return self.loops_by_id[lid]

    def cap_ids(self) -> tuple[str, ...]:
        """The ids a cap assignment covers: whitney ids, then loop ids."""
        return (tuple(f.whitney for f in self.fingers)
                + tuple(l.id for l in self.accessory_loops))


def excess_rows(m: MiddleLevelData) -> dict[int, dict[int, int]]:
    """G minus the identity, as sparse rows: ``rows[i][j]`` = 2 * (number
    of fingers from A_i through B_j).  Zeros are not stored, so row i is
    clean (the identity's) exactly when ``i not in rows``."""
    rows: dict[int, dict[int, int]] = {}
    for f in m.fingers:
        row = rows.setdefault(f.from_a, {})
        row[f.through_b] = row.get(f.through_b, 0) + 2
    return rows


def whitney_set(m: MiddleLevelData, loop_id: str) -> set[str]:
    """Whitney ids of exactly the fingers traversed by the loop."""
    loop = m.loop(loop_id)
    return {m.finger(fid).whitney for fid in loop.fingers}


# -- finger graph --------------------------------------------------------

@dataclass(frozen=True)
class FingerGraph:
    """Directed multigraph on sphere indices; one edge per finger."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[str, int, int], ...]  # (finger id, from_a, through_b)
    cycles: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]  # depth-first finishing order: sinks first

    @property
    def acyclic(self) -> bool:
        return not self.cycles


def finger_graph(m: MiddleLevelData) -> FingerGraph:
    """The finger multigraph with a cycle report and a sinks-first order.

    One depth-first search visits nodes and successors in ascending order;
    every back edge it meets reports a cycle.  The search keeps its own
    stack, so long finger chains do not exhaust the interpreter's.
    """
    edges = tuple((f.id, f.from_a, f.through_b) for f in m.fingers)
    succ: dict[int, set[int]] = {}
    for _, a, b in edges:
        succ.setdefault(a, set()).add(b)
    cycles: list[tuple[int, ...]] = []
    seen_cycles: set[frozenset[int]] = set()
    order: list[int] = []
    state: dict[int, int] = {}  # 1: on the search path, 2: finished
    path: list[int] = []
    # todo[0] yields the roots; todo[k] the successors of path[k - 1].
    todo = [iter(range(1, m.pairs + 1))]
    while todo:
        w = next(todo[-1], None)
        if w is None:
            todo.pop()
            if path:
                v = path.pop()
                state[v] = 2
                order.append(v)
        elif state.get(w) == 1:
            cyc = tuple(path[path.index(w):])
            key = frozenset(cyc)
            if key not in seen_cycles:
                seen_cycles.add(key)
                cycles.append(cyc)
        elif w not in state:
            state[w] = 1
            path.append(w)
            todo.append(iter(sorted(succ.get(w, ()))))
    return FingerGraph(nodes=tuple(range(1, m.pairs + 1)), edges=edges,
                       cycles=tuple(cycles), order=tuple(order))


# -- caps and descriptors ------------------------------------------------

@dataclass(frozen=True)
class Cap:
    """Either a standard 2-handle or a Casson handle given by a signed tree."""

    tree: SignedTree | None = None

    def __post_init__(self) -> None:
        if self.tree is not None and self.tree.finite:
            raise MiddleError(f"tree {self.tree.name} is a finite tower")

    @property
    def standard(self) -> bool:
        return self.tree is None

    @property
    def positive(self) -> bool:
        return self.tree is not None and is_positive(self.tree)


STANDARD_CAP = Cap()


@dataclass(frozen=True)
class RibbonDescriptor:
    """Middle-level data plus a total cap assignment.

    ``caps`` maps every whitney id and every accessory loop id to a Cap,
    each id once; construction raises MiddleError otherwise.
    """

    middle: MiddleLevelData
    caps: tuple[tuple[str, Cap], ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for k, (cid, _) in enumerate(self.caps):
            if cid in seen:
                raise MiddleError(f"duplicate cap for {cid}", ("cap", k))
            seen.add(cid)
        needed = self.middle.cap_ids()
        missing = [cid for cid in needed if cid not in seen]
        if missing:
            raise MiddleError(f"missing caps for {missing}")
        if len(self.caps) > len(needed):
            known = set(needed)
            extra = [k for k, (cid, _) in enumerate(self.caps)
                     if cid not in known]
            raise MiddleError(f"caps for unknown ids "
                              f"{[self.caps[k][0] for k in extra]}",
                              ("cap", extra[0]))

    @cached_property
    def caps_by_id(self) -> dict[str, Cap]:
        return dict(self.caps)

    def cap(self, cid: str) -> Cap:
        return self.caps_by_id[cid]


def _derived(cls, **fields):
    """A value of the frozen dataclass ``cls`` made only from parts of
    values already checked, in a way that keeps every rule: every field is
    set as given, and ``__post_init__`` does not check them again."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def make_descriptor(middle: MiddleLevelData,
                    caps: dict[str, Cap]) -> RibbonDescriptor:
    return RibbonDescriptor(
        middle, tuple((cid, caps[cid]) for cid in middle.cap_ids()))


# -- the positivity decision ---------------------------------------------

@dataclass(frozen=True)
class PositivityDecision:
    positive: bool
    witness_loop: str | None
    refusals: tuple[tuple[str, str], ...]  # (loop id, first failed clause)

    def __bool__(self) -> bool:
        return self.positive


def is_positive_ribbon(r: RibbonDescriptor) -> PositivityDecision:
    """Whether some accessory loop satisfies all positivity clauses.

    A loop qualifies when (a) every cap of its Whitney set is a positive
    Casson handle, (b) for a singleton Whitney set the loop's own cap is a
    positive Casson handle, and (c) for a larger Whitney set the loop
    traverses at most one finger emanating from any single A sphere.
    """
    refusals = []
    for loop in r.middle.accessory_loops:
        ws = whitney_set(r.middle, loop.id)
        bad = next((w for w in sorted(ws) if not r.cap(w).positive), None)
        if bad is not None:
            refusals.append(
                (loop.id, f"whitney loop {bad} is not capped by a positive handle"))
            continue
        if len(ws) == 1:
            if not r.cap(loop.id).positive:
                refusals.append(
                    (loop.id, "singleton whitney set but the accessory cap is "
                              "not a positive handle"))
                continue
        else:
            sources = [r.middle.finger(fid).from_a for fid in loop.fingers]
            dup = next((a for a in sorted(set(sources))
                        if sources.count(a) > 1), None)
            if dup is not None:
                refusals.append(
                    (loop.id, f"traverses more than one finger from A_{dup}"))
                continue
        return PositivityDecision(True, loop.id, tuple(refusals))
    if not r.middle.accessory_loops:
        refusals.append(("", "no accessory loops"))
    return PositivityDecision(False, None, tuple(refusals))
