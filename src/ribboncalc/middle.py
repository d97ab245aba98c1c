"""Middle-level intersection data of an h-cobordism and ribbon descriptors.

The data records k sphere pairs (attaching spheres A_1..A_k against belt
spheres B_1..B_k), finger moves pushing an A sphere through a B sphere,
accessory loops threading designated finger points, and a cap (standard
2-handle or signed-tree Casson handle) for every Whitney loop and accessory
loop.  The algebraic A.B intersection matrix is always the identity; each
finger contributes a cancelling pair, so only geometric counts vary.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

from .scripts import quoted, shown
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


def _listed(ids) -> str:
    """A list of ids as its repr shows it, each id cut as ``quoted`` cuts."""
    return f"[{', '.join(map(quoted, ids))}]"


def _wrong(what: str, value, kind: type) -> str:
    """The message for a value of the wrong type; only its type is named."""
    return f"{what} must be {kind.__name__}, not {type(value).__name__}"


@dataclass(frozen=True, slots=True)
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
            raise MiddleError(f"accessory loop {shown(self.id)} traverses "
                              "no fingers")


@dataclass(frozen=True)
class MiddleLevelData:
    """Sphere pairs, fingers and accessory loops.

    Construction raises MiddleError on the first broken rule: the pair
    count is an int in 1..DEFAULT_PAIR_BUDGET; the fingers and the loops
    are tuples of Finger and AccessoryLoop values; finger ids and whitney
    ids are unique strs and every finger's spheres are ints in 1..pairs;
    loop ids are unique strs, differ from every whitney id (the two would
    share one cap), and every loop names a tuple of declared fingers only.
    A Finger is judged by the middle data that holds it.
    """

    pairs: int
    fingers: tuple[Finger, ...] = ()
    accessory_loops: tuple[AccessoryLoop, ...] = ()

    def __post_init__(self) -> None:
        pairs, fingers, loops = self.pairs, self.fingers, self.accessory_loops
        if type(pairs) is not int:
            raise MiddleError(_wrong("pair count", pairs, int), ("pairs", 0))
        if pairs < 1:
            raise MiddleError(f"pair count {pairs} must be positive",
                              ("pairs", 0))
        if pairs > DEFAULT_PAIR_BUDGET:
            raise MiddleError(f"pair count {pairs} exceeds the pair budget "
                              f"{DEFAULT_PAIR_BUDGET}", ("pairs", 0))
        for what, values in (("fingers", fingers), ("loops", loops)):
            if type(values) is not tuple:
                raise MiddleError(_wrong(what, values, tuple))
        fids: set[str] = set()
        finger_of_whitney: dict[str, str] = {}
        for k, f in enumerate(fingers):
            if type(f) is not Finger:
                raise MiddleError(_wrong("finger entry", f, Finger),
                                  ("finger", k))
            fid, a, b, wid = f.id, f.from_a, f.through_b, f.whitney
            if (type(fid) is not str or type(a) is not int
                    or type(b) is not int or type(wid) is not str):
                raise MiddleError(next(
                    _wrong(f"finger {what}", value, kind)
                    for what, value, kind in (("id", fid, str),
                                              ("sphere", a, int),
                                              ("sphere", b, int),
                                              ("whitney id", wid, str))
                    if type(value) is not kind), ("finger", k))
            if fid in fids:
                raise MiddleError(f"duplicate finger id {shown(fid)}",
                                  ("finger", k))
            if wid in finger_of_whitney:
                raise MiddleError(
                    f"duplicate whitney id {shown(wid)} (finger "
                    f"{shown(finger_of_whitney[wid])} has it)", ("finger", k))
            if not (1 <= a <= pairs and 1 <= b <= pairs):
                raise MiddleError(f"finger {shown(fid)} references sphere "
                                  f"outside 1..{pairs}", ("finger", k))
            fids.add(fid)
            finger_of_whitney[wid] = fid
        lids: set[str] = set()
        for k, l in enumerate(loops):
            if type(l) is not AccessoryLoop:
                raise MiddleError(_wrong("loop entry", l, AccessoryLoop),
                                  ("loop", k))
            if type(l.id) is not str:
                raise MiddleError(_wrong("loop id", l.id, str), ("loop", k))
            if type(l.fingers) is not tuple:
                raise MiddleError(_wrong(f"loop {shown(l.id)} fingers",
                                         l.fingers, tuple), ("loop", k))
            if l.id in lids:
                raise MiddleError(f"duplicate loop id {shown(l.id)}",
                                  ("loop", k))
            for fid in l.fingers:
                if type(fid) is not str:
                    raise MiddleError(_wrong(f"loop {shown(l.id)} finger",
                                             fid, str), ("loop", k))
                if fid not in fids:
                    raise MiddleError(f"loop {shown(l.id)} references "
                                      f"undeclared finger {shown(fid)}",
                                      ("loop", k))
            if l.id in finger_of_whitney:
                owner = finger_of_whitney[l.id]
                raise MiddleError(f"loop id {shown(l.id)} is the whitney id "
                                  f"of finger {shown(owner)}",
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
        return (tuple([f.whitney for f in self.fingers])
                + tuple([l.id for l in self.accessory_loops]))


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
    edges = tuple([(f.id, f.from_a, f.through_b) for f in m.fingers])
    succ: dict[int, set[int]] = {}
    for _, a, b in edges:
        succ.setdefault(a, set()).add(b)
    cycles: list[tuple[int, ...]] = []
    seen_cycles: set[frozenset[int]] = set()
    order: list[int] = []
    state = [0] * (m.pairs + 1)  # 1: on the search path, 2: finished
    path: list[int] = []
    for root in range(1, m.pairs + 1):
        if state[root]:
            continue
        if root not in succ:  # a sink finishes at once
            state[root] = 2
            order.append(root)
            continue
        state[root] = 1
        path.append(root)
        # todo[k] yields the successors of path[k] still to visit.
        todo = [iter(sorted(succ[root]))]
        while todo:
            for w in todo[-1]:
                if not state[w]:
                    if w not in succ:
                        state[w] = 2
                        order.append(w)
                        continue
                    state[w] = 1
                    path.append(w)
                    todo.append(iter(sorted(succ[w])))
                    break
                if state[w] == 1:
                    cyc = tuple(path[path.index(w):])
                    key = frozenset(cyc)
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        cycles.append(cyc)
            else:
                todo.pop()
                v = path.pop()
                state[v] = 2
                order.append(v)
    return FingerGraph(nodes=tuple(range(1, m.pairs + 1)), edges=edges,
                       cycles=tuple(cycles), order=tuple(order))


# -- caps and descriptors ------------------------------------------------

@dataclass(frozen=True)
class Cap:
    """Either a standard 2-handle or a Casson handle given by a signed tree."""

    tree: SignedTree | None = None

    def __post_init__(self) -> None:
        tree = self.tree
        if tree is not None and type(tree) is not SignedTree:
            raise MiddleError(_wrong("cap tree", tree, SignedTree))
        if tree is not None and tree.finite:
            raise MiddleError(f"tree {shown(tree.name)} is a finite tower")

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

    ``caps`` is a tuple of ``(id, Cap)`` pairs that maps every whitney id
    and every accessory loop id to a Cap, each id once; construction raises
    MiddleError otherwise.
    """

    middle: MiddleLevelData
    caps: tuple[tuple[str, Cap], ...] = ()

    def __post_init__(self) -> None:
        if type(self.middle) is not MiddleLevelData:
            raise MiddleError(_wrong("middle data", self.middle,
                                     MiddleLevelData))
        if type(self.caps) is not tuple:
            raise MiddleError(_wrong("caps", self.caps, tuple))
        seen: set[str] = set()
        for k, entry in enumerate(self.caps):
            if type(entry) is not tuple or len(entry) != 2:
                raise MiddleError("cap entry is not an (id, Cap) pair",
                                  ("cap", k))
            cid, cap = entry
            if type(cid) is not str:
                raise MiddleError(_wrong("cap id", cid, str), ("cap", k))
            if type(cap) is not Cap:
                raise MiddleError(_wrong(f"cap for {shown(cid)}", cap, Cap),
                                  ("cap", k))
            if cid in seen:
                raise MiddleError(f"duplicate cap for {shown(cid)}",
                                  ("cap", k))
            seen.add(cid)
        needed = self.middle.cap_ids()
        missing = [cid for cid in needed if cid not in seen]
        if missing:
            raise MiddleError(f"missing caps for {_listed(missing)}")
        if len(self.caps) > len(needed):
            known = set(needed)
            extra = [k for k, (cid, _) in enumerate(self.caps)
                     if cid not in known]
            raise MiddleError(f"caps for unknown ids "
                              f"{_listed(self.caps[k][0] for k in extra)}",
                              ("cap", extra[0]))

    @cached_property
    def caps_by_id(self) -> dict[str, Cap]:
        return dict(self.caps)

    def cap(self, cid: str) -> Cap:
        return self.caps_by_id[cid]


def _trusted(cls):
    """The trusted builder of the frozen dataclass ``cls``.

    ``build(*fields)`` returns the value of ``cls`` with these fields, in
    declaration order: it equals the value the constructor makes, but
    neither ``__post_init__`` nor the frozen ``__setattr__`` runs.  Use it
    only for values made from parts of checked values, or from tokens the
    parser has read, in a way that keeps every rule.  Its body is generated
    once per class from the field names, as ``dataclasses`` makes
    ``__init__``: one slot store per field for a slots class, else one
    dict for the instance's ``__dict__``."""
    names = [f.name for f in fields(cls)]
    scope = {"new": object.__new__, "cls": cls, "setd": object.__setattr__}
    if "__slots__" in vars(cls):
        scope.update((f"set_{n}", vars(cls)[n].__set__) for n in names)
        body = "".join(f"\n    set_{n}(v, {n})" for n in names)
    else:
        items = ", ".join(f"{n!r}: {n}" for n in names)
        body = f"\n    setd(v, '__dict__', {{{items}}})"
    exec(f"def build({', '.join(names)}):\n    v = new(cls){body}\n    return v",
         scope)
    return scope["build"]


# Builders for the parser's fingers and the planner's derived values.
_finger, _middle, _descriptor = map(_trusted, (Finger, MiddleLevelData,
                                               RibbonDescriptor))


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
