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
    pass


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
            raise ValueError(f"accessory loop {self.id} traverses no fingers")


@dataclass(frozen=True)
class MiddleLevelData:
    """Sphere pairs, fingers and accessory loops.

    Construction does not validate; :func:`validate_middle` reports
    violations as data.  Lookups by id see the first finger or loop with
    that id.
    """

    pairs: int
    fingers: tuple[Finger, ...] = ()
    accessory_loops: tuple[AccessoryLoop, ...] = ()

    @cached_property
    def fingers_by_id(self) -> dict[str, Finger]:
        return _first_by_id(self.fingers)

    @cached_property
    def loops_by_id(self) -> dict[str, AccessoryLoop]:
        return _first_by_id(self.accessory_loops)

    def finger(self, fid: str) -> Finger:
        return self.fingers_by_id[fid]

    def loop(self, lid: str) -> AccessoryLoop:
        return self.loops_by_id[lid]

    def cap_ids(self) -> tuple[str, ...]:
        """The ids a cap assignment covers: whitney ids, then loop ids."""
        return (tuple(f.whitney for f in self.fingers)
                + tuple(l.id for l in self.accessory_loops))


def _first_by_id(items):
    out = {}
    for x in items:
        out.setdefault(x.id, x)
    return out


def validate_middle(m: MiddleLevelData) -> list[str]:
    out = []
    if m.pairs < 1:
        out.append(f"pairs = {m.pairs} must be positive")
    if m.pairs > DEFAULT_PAIR_BUDGET:
        out.append(f"pairs = {m.pairs} exceeds the pair budget "
                   f"{DEFAULT_PAIR_BUDGET}")
    fids = [f.id for f in m.fingers]
    if len(set(fids)) != len(fids):
        out.append("duplicate finger ids")
    finger_of_whitney = {f.whitney: f.id for f in m.fingers}
    if len(finger_of_whitney) != len(m.fingers):
        out.append("duplicate whitney ids")
    for f in m.fingers:
        if not (1 <= f.from_a <= m.pairs and 1 <= f.through_b <= m.pairs):
            out.append(f"finger {f.id} references sphere outside 1..{m.pairs}")
    lids = [l.id for l in m.accessory_loops]
    if len(set(lids)) != len(lids):
        out.append("duplicate accessory loop ids")
    known = set(fids)
    for l in m.accessory_loops:
        for fid in l.fingers:
            if fid not in known:
                out.append(f"loop {l.id} references missing finger {fid}")
        if l.id in finger_of_whitney:
            # A loop and a whitney circle keyed alike would share one cap.
            out.append(f"loop id {l.id} is the whitney id of finger "
                       f"{finger_of_whitney[l.id]}")
    return out


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
    stack, so long finger chains do not exhaust the interpreter's.  Data
    over the pair budget raises MiddleError: every pair is a node.
    """
    if m.pairs > DEFAULT_PAIR_BUDGET:
        raise MiddleError(f"pairs = {m.pairs} exceeds the pair budget "
                          f"{DEFAULT_PAIR_BUDGET}")
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

    ``caps`` maps every whitney id and every accessory loop id to a Cap.
    """

    middle: MiddleLevelData
    caps: tuple[tuple[str, Cap], ...] = ()

    def __post_init__(self) -> None:
        needed = set(self.middle.cap_ids())
        missing = needed - set(self.caps_by_id)
        if missing:
            raise MiddleError(f"missing caps for {sorted(missing)}")
        extra = set(self.caps_by_id) - needed
        if extra:
            raise MiddleError(f"caps for unknown ids {sorted(extra)}")

    @cached_property
    def caps_by_id(self) -> dict[str, Cap]:
        """Each cap id's cap; a repeated id keeps its last entry."""
        return dict(self.caps)

    def cap(self, cid: str) -> Cap:
        return self.caps_by_id[cid]


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
