"""Kirby diagrams at the linking-matrix level, and the legal move set.

A diagram records, for every pair of components, the algebraic linking
number and a conservative geometric intersection count.  No planar data is
kept: moves update linking data by the fixed bilinear rules, and geometric
linking can only be lowered by an explicit :func:`assert_geometric` step
standing in for an externally justified isotopy.

Diagrams are immutable values; every move returns a new diagram.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter

from .abelian import (AbelianGroup, _torsion_sum, cokernel,
                      symmetric_signature)

DOTTED = "dotted"
FRAMED = "framed"
PAREN = "parenframed"

_KINDS = (DOTTED, FRAMED, PAREN)


class MoveError(Exception):
    """A move's precondition failed."""


class ForbiddenMove(MoveError):
    """A dotted circle would slide over an undotted component."""


class DiagramError(ValueError):
    """A broken rule of a diagram; ``entry``, ``("component", k)`` or
    ``("link", k)``, names the k-th component or link that breaks it."""

    def __init__(self, message: str, entry: tuple[str, int]):
        super().__init__(message)
        self.entry = entry


# Count keyword of the text formats -> diagram field.
COUNTS = {"threehandles": "three_handles", "fourhandles": "four_handles",
          "hidden1": "hidden_one_handles"}


@dataclass(frozen=True)
class Component:
    id: str
    kind: str
    framing: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}")
        if self.kind == DOTTED and self.framing is not None:
            raise ValueError(f"dotted component {self.id} carries a framing")
        if self.kind != DOTTED and self.framing is None:
            raise ValueError(f"component {self.id} needs a framing")


@dataclass(frozen=True)
class Violation:
    code: str
    subjects: tuple[str, ...]
    message: str


def _pair(i: str, j: str) -> tuple[str, str]:
    return (i, j) if i <= j else (j, i)


@dataclass(frozen=True)
class KirbyDiagram:
    """A framed link with dotted circles, plus 3-/4-handle bookkeeping.

    ``links`` stores off-diagonal (alg, geom) entries, at most one per id
    pair, in the (min, max) order ``alg`` and ``geom`` read; unlisted pairs
    are (0, 0).  A built value keeps them canonically, without (0, 0)
    entries and sorted by component positions, so equal diagrams compare
    equal and read back from their text.  Diagonal algebraic entries are
    the framings carried by the components themselves (0 for dotted).
    """

    name: str
    components: tuple[Component, ...] = ()
    links: tuple[tuple[tuple[str, str], int, int], ...] = ()
    three_handles: int = 0
    four_handles: int = 0
    hidden_one_handles: int = 0
    dual_flag: bool = False
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        at: dict[str, int] = {}
        for k, c in enumerate(self.components):
            if c.id in at:
                raise DiagramError(f"duplicate component id {c.id}",
                                   ("component", k))
            at[c.id] = k
        pairs = set()
        keyed = []  # (positions in order, entry): sorted by the positions
        for k, entry in enumerate(self.links):
            (i, j), a, g = entry
            if i == j:
                raise DiagramError(f"self-linking entry for {i}", ("link", k))
            if i not in at or j not in at:
                raise DiagramError("link references unknown component "
                                   f"{j if i in at else i}", ("link", k))
            if i > j:
                raise DiagramError(f"link pair ({i}, {j}) is not in "
                                   f"(min, max) order", ("link", k))
            if (i, j) in pairs:
                raise DiagramError(f"repeated link pair ({i}, {j})",
                                   ("link", k))
            pairs.add((i, j))
            if a or g:
                x, y = at[i], at[j]
                keyed.append(((x, y) if x < y else (y, x), entry))
        keyed.sort(key=itemgetter(0))
        links = tuple(e for _, e in keyed)
        if links != self.links:
            object.__setattr__(self, "links", links)

    # -- queries ---------------------------------------------------------

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    @cached_property
    def _by_id(self) -> dict[str, Component]:
        return {c.id: c for c in self.components}

    @cached_property
    def _linkmap(self) -> dict[tuple[str, str], tuple[int, int]]:
        """Shared by every query on this value: read it, never mutate it."""
        return {p: (a, g) for p, a, g in self.links}

    def component(self, cid: str) -> Component:
        """The component with id ``cid``; MoveError if there is none, so a
        move naming an unknown component fails its precondition."""
        try:
            return self._by_id[cid]
        except KeyError:
            raise MoveError(f"unknown component {cid!r}") from None

    def has(self, cid: str) -> bool:
        return cid in self._by_id

    def alg(self, i: str, j: str) -> int:
        if i == j:
            return self._by_id[i].framing or 0
        return self._linkmap.get(_pair(i, j), (0, 0))[0]

    def geom(self, i: str, j: str) -> int:
        if i == j:
            return 0
        return self._linkmap.get(_pair(i, j), (0, 0))[1]

    def framing(self, cid: str) -> int:
        return self.component(cid).framing or 0

    def linking_matrix(self) -> list[list[int]]:
        """Full symmetric matrix, dotted diagonal entries as 0."""
        return self._link_blocks(self.ids(), split=False)[0]

    def framed_submatrix(self) -> list[list[int]]:
        return self._link_blocks(self._ids_of(FRAMED, PAREN), split=False)[0]

    def _ids_of(self, *kinds: str) -> list[str]:
        return [c.id for c in self.components if c.kind in kinds]

    @cached_property
    def _partition(self) -> tuple[dict[str, int], list[int],
                                  list[tuple[int, int, int]]]:
        """Linked blocks of all components, shared by every invariant of
        this value: each id's position, each position's block (the position
        of the block's root), and the nonzero ``(x, y, alg)`` link entries
        by position.  Read it, never mutate it."""
        at = {c.id: k for k, c in enumerate(self.components)}
        root = list(range(len(at)))

        def find(k: int) -> int:
            while root[k] != k:
                root[k] = root[root[k]]
                k = root[k]
            return k

        entries = []
        for (i, j), a, _ in self.links:
            if a:
                x, y = at[i], at[j]
                entries.append((x, y, a))
                root[find(x)] = find(y)
        return at, [find(k) for k in range(len(root))], entries

    def _link_blocks(self, ids, split: bool = True) -> list[list[list[int]]]:
        """Linking matrices of the linked blocks of ``ids``.

        The blocks restrict the partition of all components, cached on this
        value, to ``ids``: two ids share a block when a chain of nonzero
        algebraic links joins them, possibly through components outside
        ``ids``.  Such a block may be coarser than the linked blocks of
        ``ids`` alone, but the matrix of ``ids`` is still the block sum of
        the returned matrices up to a permutation.  Blocks come in the
        order of their first id, and a block keeps the order of ``ids``.
        With ``split=False`` all of ``ids`` is one block; no ids give one
        empty block.  Filling reads each link once: O(len(ids) + links)
        besides the zeros of the blocks.
        """
        at, block_of, entries = self._partition
        local = {at[cid]: k for k, cid in enumerate(ids)}
        groups: dict[int, list[int]] = {}
        for x, k in local.items():
            groups.setdefault(block_of[x] if split else 0, []).append(k)
        blocks = []
        where = [(0, 0)] * len(ids)  # (block, row within it) of each id
        for b, members in enumerate(groups.values()):
            blocks.append([[0] * len(members) for _ in members])
            for r, k in enumerate(members):
                where[k] = (b, r)
                blocks[b][r][r] = self._by_id[ids[k]].framing or 0
        for x, y, a in entries:
            if x in local and y in local:
                (b, r), (_, c) = where[local[x]], where[local[y]]
                blocks[b][r][c] = blocks[b][c][r] = a
        return blocks or [[]]

    # -- construction helpers -------------------------------------------

    def with_links(self, linkmap: dict[tuple[str, str], tuple[int, int]],
                   components: tuple[Component, ...] | None = None,
                   **changes) -> "KirbyDiagram":
        return replace(
            self, links=tuple((_pair(i, j), a, g)
                              for (i, j), (a, g) in linkmap.items()),
            components=self.components if components is None else components,
            **changes)

    def _mutable(self) -> dict[tuple[str, str], tuple[int, int]]:
        return dict(self._linkmap)


def empty_diagram(name: str = "empty") -> KirbyDiagram:
    return KirbyDiagram(name=name)


# -- validation ----------------------------------------------------------

def validate(d: KirbyDiagram) -> list[Violation]:
    """Every violated type invariant, with the offending pair."""
    out: list[Violation] = []
    kinds = {c.id: c.kind for c in d.components}
    for (i, j), a, g in d.links:
        if g < 0:
            out.append(Violation("negative-geometric", (i, j),
                                 f"geom[{i}][{j}] = {g} is negative"))
        if abs(a) > g:
            out.append(Violation("magnitude", (i, j),
                                 f"|alg[{i}][{j}]| = {abs(a)} exceeds geom = {g}"))
        if (g - a) % 2 != 0:
            out.append(Violation("parity", (i, j),
                                 f"geom[{i}][{j}] = {g} and alg = {a} differ mod 2"))
        if kinds[i] == DOTTED and kinds[j] == DOTTED and a != 0:
            out.append(Violation("dotted-dotted", (i, j),
                                 f"dotted circles {i}, {j} have alg = {a}"))
    if any(c.kind == PAREN for c in d.components) and not d.dual_flag:
        paren = next(c.id for c in d.components if c.kind == PAREN)
        out.append(Violation("paren-without-dual", (paren,),
                             f"{paren} is paren-framed but dual_flag is unset"))
    for count, label in ((d.three_handles, "three_handles"),
                         (d.four_handles, "four_handles"),
                         (d.hidden_one_handles, "hidden_one_handles")):
        if count < 0:
            out.append(Violation("negative-count", (label,),
                                 f"{label} = {count} is negative"))
    return out


# -- invariants ----------------------------------------------------------

def euler_char(d: KirbyDiagram) -> int:
    dotted = sum(1 for c in d.components if c.kind == DOTTED)
    handles2 = sum(1 for c in d.components if c.kind != DOTTED)
    return (1 - (dotted + d.hidden_one_handles) + handles2
            - d.three_handles + d.four_handles)


def _per_block(tag: str, kernel, blocks, memo: dict | None) -> list:
    """``kernel(m)`` for each block matrix ``m``, computed once per distinct
    ``m``.  ``memo`` maps ``(tag, m as a tuple of tuples)`` to a result
    already computed and gains every new one; None stands for an empty
    dict."""
    memo = {} if memo is None else memo
    out = []
    for m in blocks:
        key = (tag, tuple(map(tuple, m)))
        if key not in memo:
            memo[key] = kernel(m)
        out.append(memo[key])
    return out


def signature(d: KirbyDiagram, memo: dict | None = None) -> int:
    """Signature of the framed and paren-framed linking matrix, summed over
    its linked blocks.  A block matrix already in ``memo`` (see
    :func:`ribboncalc.scripts.run_script`) is not computed again."""
    return sum(_per_block("signature", symmetric_signature,
                          d._link_blocks(d._ids_of(FRAMED, PAREN)), memo))


def boundary_homology(d: KirbyDiagram, side: str = "plus",
                      memo: dict | None = None) -> tuple[AbelianGroup, bool]:
    """First homology of a boundary component, plus a 3-handle caveat flag.

    ``plus``: cokernel of the full linking matrix (dotted diagonals 0).
    ``minus``: cokernel of the paren-framed submatrix; requires a dual
    diagram.  The cokernel is the direct sum of the cokernels of the
    matrix's linked blocks; a block matrix already in ``memo`` is not
    computed again.  Both sides gain a free Z summand per hidden 1-handle.
    The caveat flag is set when 3-handles exist: the reported group is the
    pre-3-handle boundary.
    """
    if side == "plus":
        ids = d.ids()
    elif side == "minus":
        if not d.dual_flag:
            raise MoveError("minus boundary requires a dual decomposition")
        ids = d._ids_of(PAREN)
    else:
        raise ValueError(f"unknown side {side!r}")
    groups = _per_block("cokernel", cokernel, d._link_blocks(ids), memo)
    group = AbelianGroup(
        sum(g.free_rank for g in groups) + d.hidden_one_handles,
        _torsion_sum(g.torsion for g in groups))
    return group, d.three_handles > 0


# -- moves ---------------------------------------------------------------

def handle_slide(d: KirbyDiagram, moving: str, over: str, sign: int) -> KirbyDiagram:
    """Band-sum ``moving`` with a framed parallel copy of ``over``."""
    if sign not in (1, -1):
        raise MoveError("slide sign must be +1 or -1")
    if moving == over:
        raise MoveError("cannot slide a component over itself")
    m = d.component(moving)
    o = d.component(over)
    if m.kind == DOTTED and o.kind != DOTTED:
        raise ForbiddenMove(
            f"dotted circle {moving} may not slide over undotted {over}")
    if o.kind == PAREN:
        raise MoveError(f"cannot slide over paren-framed component {over}")
    f_o = o.framing or 0
    links = d._mutable()

    def bump(i, j, da, dg):
        key = _pair(i, j)
        a, g = links.get(key, (0, 0))
        links[key] = (a + da, g + dg)

    for k in d.ids():
        if k in (moving, over):
            continue
        bump(moving, k, sign * d.alg(over, k), d.geom(over, k))
    bump(moving, over, sign * f_o, abs(f_o))
    comps = d.components
    if m.kind == FRAMED:
        new_f = m.framing + f_o + 2 * sign * d.alg(moving, over)
        comps = tuple(replace(c, framing=new_f) if c.id == moving else c
                      for c in comps)
    return d.with_links(links, components=comps)


def assert_geometric(d: KirbyDiagram, i: str, j: str, g: int) -> KirbyDiagram:
    """Record an externally justified isotopy lowering geometric linking."""
    d.component(i), d.component(j)
    if i == j:
        raise MoveError(f"geom[{i}][{j}] names one component twice")
    cur = d.geom(i, j)
    a = d.alg(i, j)
    if g > cur:
        raise MoveError(f"geom[{i}][{j}] = {cur} cannot be raised to {g}")
    if g < abs(a):
        raise MoveError(f"geom[{i}][{j}] = {g} would drop below |alg| = {abs(a)}")
    if (g - a) % 2 != 0:
        raise MoveError(f"geom[{i}][{j}] = {g} has wrong parity against alg = {a}")
    links = d._mutable()
    links[_pair(i, j)] = (a, g)
    return d.with_links(links)


def _fresh_id(d: KirbyDiagram, base: str) -> str:
    if not d.has(base):
        return base
    n = 2
    while d.has(f"{base}{n}"):
        n += 1
    return f"{base}{n}"


def blow_up(d: KirbyDiagram, sign: int, new_id: str | None = None) -> KirbyDiagram:
    """Connected sum with +-CP^2: an unlinked (+-1)-framed unknot."""
    if sign not in (1, -1):
        raise MoveError("blow-up sign must be +1 or -1")
    cid = new_id or _fresh_id(d, "e")
    if d.has(cid):
        raise MoveError(f"component id {cid} already in use")
    comps = d.components + (Component(cid, FRAMED, sign),)
    return replace(d, components=comps)


def blow_down(d: KirbyDiagram, e: str) -> KirbyDiagram:
    c = d.component(e)
    if c.kind != FRAMED or c.framing not in (1, -1):
        raise MoveError(f"{e} is not a (+-1)-framed 2-handle")
    for k in d.ids():
        if k != e and d.geom(e, k) != 0:
            raise MoveError(f"{e} is geometrically linked with {k}")
    comps = tuple(x for x in d.components if x.id != e)
    links = {p: v for p, v in d._linkmap.items() if e not in p}
    return d.with_links(links, components=comps)


def twist_blow_up(d: KirbyDiagram, t: int, strands: dict[str, int],
                  new_id: str | None = None) -> KirbyDiagram:
    """Insert a full t-twist on the listed strands via a t-framed blow-up.

    This is the exact composite of blowing up a t-framed unknot and sliding
    every listed strand over it m_c times: the strands absorb the twist
    (framing += t*m_c^2, pairwise linking += t*m_c*m_c') and the new
    component stays linked to each strand with linking number t*m_c.  With
    that linked column the cokernel of the extended matrix reduces to the
    original one by a unit pivot, so the plus boundary is unchanged; the
    signature gains exactly t.
    """
    if t not in (1, -1):
        raise MoveError("twist sign must be +1 or -1")
    if not strands or all(m == 0 for m in strands.values()):
        raise MoveError("twist needs at least one strand with nonzero multiplicity")
    for cid in strands:
        if d.component(cid).kind != FRAMED:
            # Only 2-handle strands can be slid over the new handle; a
            # dotted circle may not slide over an undotted component.
            raise MoveError(f"can only twist framed strands, not {cid}")
    eid = new_id or _fresh_id(d, "e")
    if d.has(eid):
        raise MoveError(f"component id {eid} already in use")
    links = d._mutable()
    listed = list(strands)
    for x in range(len(listed)):
        for y in range(x + 1, len(listed)):
            ci, cj = listed[x], listed[y]
            key = _pair(ci, cj)
            a, g = links.get(key, (0, 0))
            links[key] = (a + t * strands[ci] * strands[cj],
                          g + abs(strands[ci] * strands[cj]))
    for cid, m in strands.items():
        if m:
            links[_pair(cid, eid)] = (t * m, abs(m))
    comps = tuple(
        replace(c, framing=c.framing + t * strands[c.id] ** 2)
        if c.id in strands and c.kind == FRAMED else c
        for c in d.components)
    comps = comps + (Component(eid, FRAMED, t),)
    return d.with_links(links, components=comps)


def zero_dot_swap(d: KirbyDiagram, c: str, note: str | None = None) -> KirbyDiagram:
    """Trade a 0-framed 2-handle for a dotted circle, or back."""
    comp = d.component(c)
    if comp.kind == FRAMED:
        if comp.framing != 0:
            raise MoveError(f"{c} has framing {comp.framing}, not 0")
        for other in d.components:
            if other.id != c and other.kind == DOTTED and d.alg(c, other.id) != 0:
                raise MoveError(
                    f"{c} links dotted circle {other.id}; cannot become dotted")
        new = Component(c, DOTTED, None, comp.label)
        notes = d.notes + ((note,) if note else
                           (f"zero-dot swap on {c}: ribbon condition not verified",))
    elif comp.kind == DOTTED:
        new = Component(c, FRAMED, 0, comp.label)
        notes = d.notes + ((note,) if note else ())
    else:
        raise MoveError(f"{c} is paren-framed; swap applies to dotted/0-framed")
    comps = tuple(new if x.id == c else x for x in d.components)
    return replace(d, components=comps, notes=notes)


ONE_TWO = "12"
TWO_THREE = "23"


def add_cancelling_pair(d: KirbyDiagram, kind: str,
                        ids: tuple[str, ...] | None = None) -> KirbyDiagram:
    """Add a complementary 1-2 pair (dotted Hopf pair) or 2-3 pair."""
    if kind == ONE_TWO:
        a, b = ids or (_fresh_id(d, "dpair"), _fresh_id(d, "hpair"))
        if d.has(a) or d.has(b) or a == b:
            raise MoveError(f"pair ids {a}, {b} unavailable")
        comps = d.components + (Component(a, DOTTED), Component(b, FRAMED, 0))
        links = d._mutable()
        links[_pair(a, b)] = (1, 1)
        return d.with_links(links, components=comps)
    if kind == TWO_THREE:
        (b,) = ids or (_fresh_id(d, "hpair"),)
        if d.has(b):
            raise MoveError(f"pair id {b} unavailable")
        comps = d.components + (Component(b, FRAMED, 0),)
        return replace(d, components=comps, three_handles=d.three_handles + 1)
    raise MoveError(f"unknown cancelling pair kind {kind!r}")


def cancel_pair(d: KirbyDiagram, a: str | None, b: str) -> KirbyDiagram:
    """Remove a complementary 1-2 pair (a dotted, b framed) or 2-3 pair.

    For the 2-3 case pass ``a=None``; ``b`` must be an unlinked 0-framed
    unknot and a 3-handle is consumed.
    """
    cb = d.component(b)
    if a is None:
        if cb.kind != FRAMED or cb.framing != 0:
            raise MoveError(f"{b} is not a 0-framed 2-handle")
        for k in d.ids():
            if k != b and d.geom(b, k) != 0:
                raise MoveError(f"{b} is geometrically linked with {k}")
        if d.three_handles < 1:
            raise MoveError("no 3-handle available to cancel against")
        comps = tuple(x for x in d.components if x.id != b)
        links = {p: v for p, v in d._linkmap.items() if b not in p}
        out = d.with_links(links, components=comps)
        return replace(out, three_handles=out.three_handles - 1)
    ca = d.component(a)
    if ca.kind != DOTTED:
        raise MoveError(f"{a} is not dotted")
    if cb.kind != FRAMED:
        raise MoveError(f"{b} is not a 2-handle")
    if abs(d.alg(a, b)) != 1 or d.geom(a, b) != 1:
        raise MoveError(f"{a} and {b} are not a geometric Hopf pair")
    for k in d.ids():
        if k in (a, b):
            continue
        for x in (a, b):
            if d.geom(x, k) != 0:
                raise MoveError(f"{x} is geometrically linked with {k}")
    comps = tuple(x for x in d.components if x.id not in (a, b))
    links = {p: v for p, v in d._linkmap.items()
             if a not in p and b not in p}
    return d.with_links(links, components=comps)


def dualize(d: KirbyDiagram) -> KirbyDiagram:
    """Dual handle decomposition: mirror, paren framings, 0-framed meridians.

    The diagram is assumed closed up with one 0- and one 4-handle; 3-handles
    of the original become hidden 1-handles of the dual, and original dotted
    circles become the dual's (counted, invisible) 3-handles.
    """
    if d.dual_flag:
        raise MoveError("diagram is already a dual decomposition")
    if any(c.kind == PAREN for c in d.components):
        raise MoveError("diagram already contains paren-framed components")
    comps: list[Component] = []
    for c in d.components:
        if c.kind == DOTTED:
            comps.append(Component(c.id, PAREN, 0, c.label))
        else:
            comps.append(Component(c.id, PAREN, -(c.framing or 0), c.label))
    links = {p: (-a, g) for p, (a, g) in d._linkmap.items()}
    meridians = []
    for c in d.components:
        if c.kind == FRAMED:
            mid = f"m_{c.id}"
            if d.has(mid):
                raise MoveError(f"meridian id {mid} collides with a component")
            meridians.append(Component(mid, FRAMED, 0))
            links[_pair(mid, c.id)] = (1, 1)
    dotted = sum(1 for c in d.components if c.kind == DOTTED)
    out = KirbyDiagram(
        name=f"{d.name}*",
        components=tuple(comps) + tuple(meridians),
        three_handles=dotted,
        four_handles=1,
        hidden_one_handles=d.three_handles,
        dual_flag=True,
        notes=d.notes,
    )
    return out.with_links(links)
