"""Kirby diagrams at the linking-matrix level, and the legal move set.

A diagram records, for every pair of components, the algebraic linking
number and a conservative geometric intersection count.  No planar data is
kept: moves update linking data by the fixed bilinear rules, and geometric
linking can only be lowered by an explicit :func:`assert_geometric` step
standing in for an externally justified isotopy.

Diagrams are immutable values; every move returns a new diagram.
"""

from __future__ import annotations

from bisect import insort
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
    ``("link", k)``, names the k-th component or link that breaks it, and
    ``(field, 0)`` names a negative count field."""

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
            from .scripts import quoted  # scripts imports this module
            raise ValueError("unknown component kind " + (
                quoted(self.kind) if type(self.kind) is str
                else repr(self.kind)))
        if self.kind == DOTTED and self.framing is not None:
            raise ValueError(f"dotted component {self.id} carries a framing")
        if self.kind != DOTTED and self.framing is None:
            raise ValueError(f"component {self.id} needs a framing")


def _pair(i: str, j: str) -> tuple[str, str]:
    return (i, j) if i <= j else (j, i)


class _Block:
    """A linked block of a diagram: ``ids``, its members in component
    order; ``links``, the diagram's link entries with nonzero alg among
    them (only their pair and alg are read); and ``rows``, its linking
    matrix as a tuple of rows.  Never changed once built, and compared by
    identity: a memo may key on the record itself."""

    __slots__ = ("ids", "links", "rows")

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.links: list = []


def _regroup(ids, entries, by_id) -> tuple[list[_Block], dict[str, _Block]]:
    """The linked blocks of ``ids``, given in component order, and the block
    of each id.  ``entries`` are the link entries with nonzero alg among
    ``ids``; two ids share a block when a chain of them joins the two.
    Blocks come in the order of their first id, their matrices filled from
    their own entries and the components in ``by_id``.  O(ids + entries)
    besides the zeros of the matrices: a merge moves the smaller group into
    the larger."""
    group: dict = {c: [c] for c in ids}
    for (i, j), _, _ in entries:
        gi, gj = group[i], group[j]
        if gi is not gj:
            if len(gi) < len(gj):
                gi, gj = gj, gi
            gi += gj
            for c in gj:
                group[c] = gi
    blocks = []
    for c in ids:
        g = group[c]
        if type(g) is list:  # c is the first member of its block
            rec = _Block()
            for member in g:
                group[member] = rec
            blocks.append(rec)
        group[c].ids.append(c)
    for e in entries:
        group[e[0][0]].links.append(e)
    for rec in blocks:
        rec.rows = tuple(map(tuple, _fill(by_id, rec.ids, rec.links)))
    return blocks, group


def _fill(by_id, ids, entries) -> list[list[int]]:
    """The linking matrix of ``ids``, in their order, from the framings of
    the components in ``by_id`` and those of ``entries`` whose ends are
    both among ``ids``."""
    local = {cid: r for r, cid in enumerate(ids)}
    m = [[0] * len(ids) for _ in ids]
    for r, cid in enumerate(ids):
        m[r][r] = by_id[cid].framing or 0
    for (i, j), a, _ in entries:
        x, y = local.get(i), local.get(j)
        if x is not None and y is not None:
            m[x][y] = m[y][x] = a
    return m


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
        comps = self.components
        for k, c in enumerate(comps):
            if c.id in at:
                from .scripts import quoted  # scripts imports this module
                raise DiagramError(f"duplicate component id {quoted(c.id)}",
                                   ("component", k))
            if c.kind == PAREN and not self.dual_flag:
                raise DiagramError(f"{c.id} is paren-framed but dual_flag "
                                   "is unset", ("component", k))
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
            if g < 0:
                raise DiagramError(f"geom[{i}][{j}] = {g} is negative",
                                   ("link", k))
            if abs(a) > g:
                raise DiagramError(f"|alg[{i}][{j}]| = {abs(a)} exceeds "
                                   f"geom = {g}", ("link", k))
            if (g - a) % 2:
                raise DiagramError(f"geom[{i}][{j}] = {g} and alg = {a} "
                                   "differ mod 2", ("link", k))
            if g:
                x, y = at[i], at[j]
                if a and comps[x].kind == DOTTED == comps[y].kind:
                    raise DiagramError(f"dotted circles {i}, {j} have "
                                       f"alg = {a}", ("link", k))
                keyed.append(((x, y) if x < y else (y, x), entry))
        for field in COUNTS.values():
            count = getattr(self, field)
            if count < 0:
                raise DiagramError(f"{field} = {count} is negative",
                                   (field, 0))
        keyed.sort(key=itemgetter(0))
        links = tuple(e for _, e in keyed)
        if links != self.links:
            object.__setattr__(self, "links", links)
        object.__setattr__(self, "_at", at)

    # -- queries ---------------------------------------------------------

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    @cached_property
    def _at(self) -> dict[str, int]:
        return {c.id: k for k, c in enumerate(self.components)}

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
        return _fill(self._by_id, self.ids(), self.links)

    def framed_submatrix(self) -> list[list[int]]:
        return _fill(self._by_id, [c.id for c in self.components
                                   if c.kind != DOTTED], self.links)

    @cached_property
    def _blocks(self) -> tuple[list[_Block], dict[str, _Block]]:
        """The linked blocks of all components and the block of each id,
        shared by every invariant of this value: read them, never mutate
        them.  A move's result starts from its parent's blocks
        (``_carry``, see :meth:`_derive`): it keeps every block that holds
        no touched component and regroups only the others."""
        carry = self.__dict__.pop("_carry", None)
        if carry is None:
            return _regroup(self.ids(), [e for e in self.links if e[1]],
                            self._by_id)
        (blocks, block_of), touched, gone, entries = carry
        hit: list[_Block] = []
        for cid in touched + gone:
            rec = block_of.get(cid)
            if rec is not None and rec not in hit:
                hit.append(rec)
        ids = {cid for rec in hit for cid in rec.ids}
        ids.update(touched)
        ids.difference_update(gone)
        links = [e for rec in hit for e in rec.links if e[0] not in entries
                 and e[0][0] not in gone and e[0][1] not in gone]
        links += [e for e in entries.values() if e is not None and e[1]]
        fresh, fresh_of = _regroup(sorted(ids, key=self._at.__getitem__),
                                   links, self._by_id)
        block_of = dict(block_of)
        for cid in gone:
            del block_of[cid]
        block_of.update(fresh_of)
        return [rec for rec in blocks if rec not in hit] + fresh, block_of

    # -- construction helpers -------------------------------------------

    def with_links(self, linkmap: dict[tuple[str, str], tuple[int, int]],
                   components: tuple[Component, ...] | None = None,
                   **changes) -> "KirbyDiagram":
        return replace(
            self, links=tuple((_pair(i, j), a, g)
                              for (i, j), (a, g) in linkmap.items()),
            components=self.components if components is None else components,
            **changes)

    def _derive(self, components: tuple[Component, ...] | None = None,
                changed: dict | None = None, touched: tuple = (),
                gone: tuple = (), **fields) -> "KirbyDiagram":
        """A move's result, built without the construction checks.

        ``components`` (default: these) keeps the order of the components
        it keeps, and appends new ones at the end; ``gone`` names those it
        drops, whose links go too.  ``changed`` maps canonical link pairs
        to their new ``(alg, geom)``; the result's links come out canonical
        without a re-sort.  ``touched`` names every kept component whose
        kind, framing or links change, and every new one: the linked
        blocks that hold none of them, nor a dropped one, carry over.
        ``fields`` are the other fields that change.
        """
        comps = self.components if components is None else components
        new = object.__new__(KirbyDiagram)
        state = new.__dict__
        state.update(name=self.name, components=comps,
                     three_handles=self.three_handles,
                     four_handles=self.four_handles,
                     hidden_one_handles=self.hidden_one_handles,
                     dual_flag=self.dual_flag, notes=self.notes)
        state.update(fields)
        links, linkmap = self.links, self._linkmap
        if gone:
            links = tuple(e for e in links
                          if e[0][0] not in gone and e[0][1] not in gone)
            linkmap = {p: v for p, v in linkmap.items()
                       if p[0] not in gone and p[1] not in gone}
        else:
            at = self._at
            if len(comps) > len(self.components):
                at = dict(at)
                for k in range(len(self.components), len(comps)):
                    at[comps[k].id] = k
            state["_at"] = at
            if components is None:
                state["_by_id"] = self._by_id
        entries: dict = {}  # changed pair -> its new entry, None if dropped
        if changed:
            linkmap = dict(linkmap)
            fresh, dropped = [], False
            for p, (a, g) in changed.items():
                if a or g:
                    e = entries[p] = (p, a, g)
                    if p not in linkmap:
                        fresh.append(e)
                    linkmap[p] = (a, g)
                elif linkmap.pop(p, None) is not None:
                    entries[p], dropped = None, True
            out = list(links)
            if len(entries) > len(fresh):
                out = [entries.get(e[0], e) for e in out]
                if dropped:
                    out = [e for e in out if e is not None]
            if fresh:
                at = new._at

                def position(e):
                    x, y = at[e[0][0]], at[e[0][1]]
                    return (x, y) if x < y else (y, x)

                for e in fresh:
                    insort(out, e, key=position)
            links = tuple(out)
        state["links"], state["_linkmap"] = links, linkmap
        blocks = self.__dict__.get("_blocks")
        if blocks is not None:
            if touched or gone:
                state["_carry"] = (blocks, touched, gone, entries)
            else:
                state["_blocks"] = blocks
        return new


def empty_diagram(name: str = "empty") -> KirbyDiagram:
    return KirbyDiagram(name=name)


# -- invariants ----------------------------------------------------------

def euler_char(d: KirbyDiagram) -> int:
    dotted = [c.kind for c in d.components].count(DOTTED)
    handles2 = len(d.components) - dotted
    return (1 - (dotted + d.hidden_one_handles) + handles2
            - d.three_handles + d.four_handles)


_MISSING = object()


def _per_block(tag: str, kernel, d: KirbyDiagram, kinds: tuple | None,
               memo: dict | None) -> list:
    """``kernel(m)`` for the matrix ``m`` of each linked block of ``d``,
    restricted to the components of ``kinds`` (None: all of them); a block
    with none of them is skipped.  ``memo`` maps ``(tag, block, kinds)``,
    with the block record by identity, and ``(tag, m as a tuple of rows)``
    to a result already computed and gains every new one: a block carried
    over from an earlier diagram costs one lookup, and a new block with a
    known matrix computes nothing.  None stands for an empty dict."""
    memo = {} if memo is None else memo
    by_id = d._by_id
    out = []
    for rec in d._blocks[0]:
        key = (tag, rec, kinds)
        got = memo.get(key, _MISSING)
        if got is _MISSING:
            m = rec.rows
            if kinds is not None:
                keep = [r for r, cid in enumerate(rec.ids)
                        if by_id[cid].kind in kinds]
                if len(keep) < len(m):
                    m = tuple(tuple([m[x][y] for y in keep]) for x in keep)
            got = None
            if m:
                got = memo.get((tag, m))
                if got is None:
                    got = memo[tag, m] = kernel(list(map(list, m)))
            memo[key] = got
        if got is not None:
            out.append(got)
    return out


def signature(d: KirbyDiagram, memo: dict | None = None) -> int:
    """Signature of the framed and paren-framed linking matrix, summed over
    its linked blocks.  A block already in ``memo`` (see
    :func:`ribboncalc.scripts.run_script`) is not computed again."""
    return sum(_per_block("signature", symmetric_signature, d,
                          (FRAMED, PAREN), memo))


def boundary_homology(d: KirbyDiagram, side: str = "plus",
                      memo: dict | None = None) -> tuple[AbelianGroup, bool]:
    """First homology of a boundary component, plus a 3-handle caveat flag.

    ``plus``: cokernel of the full linking matrix (dotted diagonals 0).
    ``minus``: cokernel of the paren-framed submatrix; requires a dual
    diagram.  The cokernel is the direct sum of the cokernels of the
    matrix's linked blocks; a block already in ``memo`` is not computed
    again.  Both sides gain a free Z summand per hidden 1-handle.
    The caveat flag is set when 3-handles exist: the reported group is the
    pre-3-handle boundary.
    """
    if side == "plus":
        kinds = None
    elif side == "minus":
        if not d.dual_flag:
            raise MoveError("minus boundary requires a dual decomposition")
        kinds = (PAREN,)
    else:
        raise ValueError(f"unknown side {side!r}")
    groups = _per_block("cokernel", cokernel, d, kinds, memo)
    group = AbelianGroup(
        sum(g.free_rank for g in groups) + d.hidden_one_handles,
        _torsion_sum(g.torsion for g in groups))
    return group, d.three_handles > 0


# -- moves ---------------------------------------------------------------

def _check_unlinked(d: KirbyDiagram, xs: tuple[str, ...]) -> None:
    """MoveError if a component of ``xs`` has geometric linking with one
    outside ``xs``; it names the first such outside component in component
    order, with the first of ``xs`` that meets it."""
    at = d._at
    hits = [(at[k], xs.index(x), x, k) for (i, j), _, g in d.links if g
            for x, k in ((i, j), (j, i)) if x in xs and k not in xs]
    if hits:
        _, _, x, k = min(hits)
        raise MoveError(f"{x} is geometrically linked with {k}")


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
    links = d._linkmap
    changed = {}
    # moving's row gains sign times over's row; every other entry stays.
    for (i, j), a, g in d.links:
        k = j if i == over else i if j == over else moving
        if k != moving:
            key = _pair(moving, k)
            a0, g0 = links.get(key, (0, 0))
            changed[key] = (a0 + sign * a, g0 + g)
    key = _pair(moving, over)
    a0, g0 = links.get(key, (0, 0))
    changed[key] = (a0 + sign * f_o, g0 + abs(f_o))
    comps = d.components
    if m.kind == FRAMED:
        k = d._at[moving]
        comps = comps[:k] + (Component(
            moving, FRAMED, m.framing + f_o + 2 * sign * a0, m.label),
        ) + comps[k + 1:]
    return d._derive(comps, changed, (moving, over))


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
    return d._derive(changed={_pair(i, j): (a, g)})


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
    return d._derive(d.components + (Component(cid, FRAMED, sign),),
                     touched=(cid,))


def blow_down(d: KirbyDiagram, e: str) -> KirbyDiagram:
    c = d.component(e)
    if c.kind != FRAMED or c.framing not in (1, -1):
        raise MoveError(f"{e} is not a (+-1)-framed 2-handle")
    _check_unlinked(d, (e,))
    return d._derive(tuple(x for x in d.components if x.id != e), gone=(e,))


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
    links = d._linkmap
    changed = {}
    listed = list(strands)
    for x in range(len(listed)):
        for y in range(x + 1, len(listed)):
            ci, cj = listed[x], listed[y]
            key = _pair(ci, cj)
            a, g = links.get(key, (0, 0))
            changed[key] = (a + t * strands[ci] * strands[cj],
                            g + abs(strands[ci] * strands[cj]))
    for cid, m in strands.items():
        if m:
            changed[_pair(cid, eid)] = (t * m, abs(m))
    comps = tuple(
        Component(c.id, FRAMED, c.framing + t * strands[c.id] ** 2, c.label)
        if c.id in strands else c for c in d.components)
    return d._derive(comps + (Component(eid, FRAMED, t),), changed,
                     tuple(listed) + (eid,))


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
    k = d._at[c]
    return d._derive(d.components[:k] + (new,) + d.components[k + 1:],
                     touched=(c,), notes=notes)


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
        return d._derive(comps, {_pair(a, b): (1, 1)}, (a, b))
    if kind == TWO_THREE:
        (b,) = ids or (_fresh_id(d, "hpair"),)
        if d.has(b):
            raise MoveError(f"pair id {b} unavailable")
        return d._derive(d.components + (Component(b, FRAMED, 0),),
                         touched=(b,), three_handles=d.three_handles + 1)
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
        _check_unlinked(d, (b,))
        if d.three_handles < 1:
            raise MoveError("no 3-handle available to cancel against")
        return d._derive(tuple(x for x in d.components if x.id != b),
                         gone=(b,), three_handles=d.three_handles - 1)
    ca = d.component(a)
    if ca.kind != DOTTED:
        raise MoveError(f"{a} is not dotted")
    if cb.kind != FRAMED:
        raise MoveError(f"{b} is not a 2-handle")
    if abs(d.alg(a, b)) != 1 or d.geom(a, b) != 1:
        raise MoveError(f"{a} and {b} are not a geometric Hopf pair")
    _check_unlinked(d, (a, b))
    return d._derive(tuple(x for x in d.components if x.id not in (a, b)),
                     gone=(a, b))


def dualize(d: KirbyDiagram) -> KirbyDiagram:
    """Dual handle decomposition: mirror, paren framings, 0-framed meridians.

    The diagram is assumed closed up with one 0- and one 4-handle; 3-handles
    of the original become hidden 1-handles of the dual, and original dotted
    circles become the dual's (counted, invisible) 3-handles.  Every
    component changes, so the result is built and checked like a new value.
    """
    if d.dual_flag:
        raise MoveError("diagram is already a dual decomposition")
    comps: list[Component] = []
    for c in d.components:
        if c.kind == DOTTED:
            comps.append(Component(c.id, PAREN, 0, c.label))
        else:
            comps.append(Component(c.id, PAREN, -(c.framing or 0), c.label))
    links = [(p, -a, g) for p, a, g in d.links]
    for c in d.components:
        if c.kind == FRAMED:
            mid = f"m_{c.id}"
            if d.has(mid):
                raise MoveError(f"meridian id {mid} collides with a component")
            comps.append(Component(mid, FRAMED, 0))
            links.append((_pair(mid, c.id), 1, 1))
    dotted = sum(1 for c in d.components if c.kind == DOTTED)
    return KirbyDiagram(
        name=f"{d.name}*",
        components=tuple(comps),
        links=tuple(links),
        three_handles=dotted,
        four_handles=1,
        hidden_one_handles=d.three_handles,
        dual_flag=True,
        notes=d.notes,
    )
