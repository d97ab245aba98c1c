"""Line-oriented text formats for diagrams, trees, middle data and scripts.

Grammar summary ('#' starts a comment, blank lines ignored):

    diagram NAME          tree NAME           middle
    dual                  finite              pairs K
    component ID KIND ... node ID             finger FID FROM THRU WID
    link ID ID ALG GEOM   root ID             loop LID FID...
    threehandles N        edge P C +|-        cap ID standard|tree NAME
    fourhandles N
    hidden1 N
    note TEXT

A component line is ``component ID KIND [FRAMING] [label TEXT]``.  A
diagram must satisfy the rules that :class:`ribboncalc.diagram.Component`
and :class:`ribboncalc.diagram.KirbyDiagram` check when built (among them
|ALG| <= GEOM, GEOM = ALG mod 2, ALG 0 between dotted circles, paren-framed
components only after ``dual``, and N >= 0); a count line appears at most
once, ``link b a`` reads as ``link a b``, and a link may come before its
components.  A ribbon-descriptor document is a sequence of tree blocks
followed by one middle block with its cap lines.  A tree block must satisfy
the rules of :func:`ribboncalc.trees.validate_tree` (distinct node ids,
declared root and endpoints, ...); a node line may follow its edges.  The
middle block and its caps must satisfy the rules that
:class:`ribboncalc.middle.MiddleLevelData` and
:class:`ribboncalc.middle.RibbonDescriptor` check when built (among them
1 <= K <= DEFAULT_PAIR_BUDGET and FROM, THRU in 1..K).  The parsers check
only the syntax; when a block ends, a broken rule is reported on the line
of the entry that breaks it, found by lexing again (a rule of a whole tree
on its header line, a missing cap on line 1).  Scripts are a ``script
NAME`` header followed by one command per line, in one of the forms of
:data:`ribboncalc.scripts.COMMANDS`.

Round-trip law: ``parse(serialize(v)) == v`` and ``serialize(parse(text))``
is canonical; a serializer raises ValueError for a value it cannot write.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .diagram import (COUNTS, Component, DiagramError, DOTTED, KirbyDiagram,
                      _pair)
from .middle import (AccessoryLoop, Cap, Finger, MiddleError, MiddleLevelData,
                     RibbonDescriptor, STANDARD_CAP, _descriptor, _finger)
from .scripts import (ABSENT, COMMANDS, ID, INT, INTS, SIGN, STRANDS,
                      Command, Form, MoveScript, form_error, form_of, quoted,
                      shown)
from .trees import SignedTree, TreeError


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


# About how many characters of text _lines splits at once.
_CHUNK = 1 << 16


def _lines(text: str):
    """A lazy iterator of ``(line number, tokens)`` over the lines that hold
    a token; a comment runs from '#' to the end of its line.  Lines and
    their numbers are those of ``text.splitlines()``, but the text is split
    a piece of about ``_CHUNK`` characters at a time, each piece ending just
    after a newline (no line separator spans one), so no list of every line
    of a longer text is held.  A text of at most one piece is split at once,
    without the chaining.  One split per line, in C: no Python frame runs
    per line of a piece without '#'."""
    rows = (_rows(text) if len(text) <= _CHUNK
            else chain.from_iterable(map(_rows, _pieces(text))))
    return filter(itemgetter(1), enumerate(map(str.split, rows), 1))


def _pieces(text: str):
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _CHUNK - 1) + 1 or size
        yield text[start:end]
        start = end


def _rows(piece: str) -> list[str]:
    rows = piece.splitlines()
    if "#" in piece:
        rows = [raw.split("#", 1)[0] for raw in rows]
    return rows


def _int(tok: str, n: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(n, f"malformed {what} {quoted(tok)}") from None


_SIGNS = {"+": 1, "+1": 1, "-": -1, "-1": -1}  # sign token -> sign


def _sign(tok: str, n: int) -> int:
    sign = _SIGNS.get(tok)
    if sign is None:
        raise ParseError(n, f"malformed sign {quoted(tok)}")
    return sign


# -- diagrams ------------------------------------------------------------

def parse_diagram(text: str) -> KirbyDiagram:
    name = None
    comps: list[Component] = []
    links: list[tuple[tuple[str, str], int, int]] = []
    counts: dict[str, int] = {}
    dual = False
    notes: list[str] = []
    for n, toks in _lines(text):
        kw = toks[0]
        if kw == "diagram":
            if name is not None:
                raise ParseError(n, "duplicate diagram header")
            if len(toks) != 2:
                raise ParseError(n, "diagram header needs a name")
            name = toks[1]
        elif name is None:
            raise ParseError(n, "expected 'diagram NAME' header first")
        elif kw == "dual":
            dual = True
        elif kw == "component":
            if len(toks) < 3:
                raise ParseError(n, "component needs an id and a kind")
            rest = toks[3:]
            framing = None
            if rest and rest[0] != "label":
                framing = _int(rest[0], n, "framing token")
                rest = rest[1:]
            if rest and rest[0] != "label":
                raise ParseError(n, f"unexpected token {quoted(rest[0])}")
            label = " ".join(rest[1:]) if rest else None
            try:
                comps.append(Component(toks[1], toks[2], framing, label))
            except ValueError as exc:  # a rule of Component, on its line
                raise ParseError(n, str(exc)) from None
        elif kw == "link":
            if len(toks) != 5:
                raise ParseError(n, "link needs: link ID ID ALG GEOM")
            links.append((_pair(toks[1], toks[2]),
                          _int(toks[3], n, "linking number"),
                          _int(toks[4], n, "geometric count")))
        elif kw in COUNTS:
            field = COUNTS[kw]
            if len(toks) != 2:
                raise ParseError(n, f"{kw} needs a count")
            if field in counts:
                raise ParseError(n, f"duplicate {kw} line")
            counts[field] = _int(toks[1], n, "count")
        elif kw == "note":
            notes.append(" ".join(toks[1:]))
        else:
            raise ParseError(n, f"unknown keyword {quoted(kw)}")
    if name is None:
        raise ParseError(1, "missing 'diagram NAME' header")
    try:
        return KirbyDiagram(name, tuple(comps), tuple(links), dual_flag=dual,
                            notes=tuple(notes), **counts)
    except DiagramError as exc:
        raise _positioned(exc, text, 1) from None


def _text(x: str, what: str, words: bool = False) -> str:
    """``x``, if it reads back unchanged as one token (as the rest of a
    line, with ``words``): no '#', no whitespace but single spaces."""
    if "#" in x or (x != " ".join(x.split()) if words else x.split() != [x]):
        raise ValueError(f"{what} {x!r} cannot be written as text")
    return x


def _words(*groups) -> None:
    """Raise ValueError for the first id of ``groups``, pairs of a noun and
    ids, that does not read back unchanged as one token.  One scan in C of
    the ids joined decides; ``_text`` names the offender only when it
    fails."""
    id_lists = [ids for _, ids in groups]
    joined = "".join(chain.from_iterable(id_lists))
    if ("#" in joined or joined.split() != [joined]
            or not all(map(all, id_lists))):
        for what, ids in groups:
            for x in ids:
                _text(x, what)


def serialize_diagram(d: KirbyDiagram) -> str:
    """Canonical text; raises ValueError for a name, id, label or note that
    the text cannot carry and read back unchanged."""
    # One scan decides whether the name and the ids can be written; when
    # one cannot, each is checked in turn below, so the error names the
    # first offender in the order of the text, a label included.
    try:
        _words(("diagram name", (d.name,)),
               ("component id", [c.id for c in d.components]))
        words = True
    except ValueError:
        words = False
    out = [f"diagram {d.name if words else _text(d.name, 'diagram name')}"]
    if d.dual_flag:
        out.append("dual")
    for c in d.components:
        parts = ["component", c.id if words else _text(c.id, "component id"),
                 c.kind]
        if c.kind != DOTTED:
            parts.append(str(c.framing))
        if c.label is not None:
            parts.extend(["label", _text(c.label, "label", True)])
        out.append(" ".join(parts))
    for (i, j), a, g in d.links:
        out.append(f"link {i} {j} {a} {g}")
    out.extend(f"{kw} {getattr(d, field)}" for kw, field in COUNTS.items()
               if getattr(d, field))
    for note in d.notes:
        out.append(f"note {_text(note, 'note', True)}")
    return "\n".join(out) + "\n"


# -- trees ---------------------------------------------------------------

def parse_tree(text: str) -> SignedTree:
    trees, _ = _parse_tree_blocks(text)
    if len(trees) != 1:
        raise ParseError(1, f"expected exactly one tree block, found {len(trees)}")
    return next(iter(trees.values()))


def _tree_block(text, header, name, nodes, root, edges, finite):
    """The tree of a finished block of ``text`` headed on line ``header``."""
    if root is None:
        raise ParseError(header, f"tree {shown(name)} has no root")
    try:
        return SignedTree(name, tuple(nodes), root, tuple(edges), finite)
    except TreeError as exc:  # a rule of validate_tree, on its entry's line
        raise _positioned(exc, text, header) from None


def _parse_tree_blocks(text: str, stop_at: str | None = None):
    """The tree blocks of ``text`` by name, and its lines from the first
    ``stop_at`` line on, still to be read (None when there is none)."""
    trees: dict[str, SignedTree] = {}
    lines = _lines(text)
    # The open block: name (None when there is none), header line, ids, a
    # dict that lends edges the declared ids, root, edges, finite flag.
    name = header = root = None
    nodes: list[str] = []
    ids: dict[str, str] = {}
    edges: list[tuple[str, str, int]] = []
    finite = False
    for n, toks in lines:
        kw = toks[0]
        if kw == "edge" and name is not None:
            if len(toks) != 4:
                raise ParseError(n, "edge needs: edge PARENT CHILD SIGN")
            # The edge holds the declared id strings, not its line's copies.
            _, parent, child, sign = toks
            edges.append((ids.get(parent, parent), ids.get(child, child),
                          _SIGNS.get(sign) or _sign(sign, n)))
        elif kw == "node" and name is not None:
            for nid in toks[1:]:
                nodes.append(nid)
                ids[nid] = nid
        elif kw == stop_at or kw == "tree":
            if name is not None:
                trees[name] = _tree_block(text, header, name, nodes, root,
                                          edges, finite)
                name = None
            if kw == stop_at:
                return trees, chain([(n, toks)], lines)
            if len(toks) != 2:
                raise ParseError(n, "tree header needs a name")
            if toks[1] in trees:
                raise ParseError(n, f"duplicate tree name {quoted(toks[1])}")
            name, header, root = toks[1], n, None
            nodes, ids, edges, finite = [], {}, [], False
        elif name is None:
            raise ParseError(n, "expected 'tree NAME' header first")
        elif kw == "root":
            if len(toks) != 2 or root is not None:
                raise ParseError(n, "malformed or duplicate root line")
            root = toks[1]
        elif kw == "finite":
            finite = True
        else:
            raise ParseError(n, f"unknown keyword {quoted(kw)}")
    if name is not None:
        trees[name] = _tree_block(text, header, name, nodes, root, edges,
                                  finite)
    return trees, None


def serialize_tree(t: SignedTree) -> str:
    """Canonical text; raises ValueError for a tree name or node id that
    the text cannot carry and read back unchanged."""
    _words(*_tree_words(t))
    return _tree_text(t)


def _tree_words(t: SignedTree):
    # The root and the edge endpoints are declared nodes.
    return ("tree name", (t.name,)), ("node id", t.nodes)


def _tree_text(t: SignedTree) -> str:
    out = [f"tree {t.name}"]
    if t.finite:
        out.append("finite")
    out.extend(f"node {n}" for n in t.nodes)
    out.append(f"root {t.root}")
    for parent, child, sign in t.edges:
        out.append(f"edge {parent} {child} {'+' if sign == 1 else '-'}")
    out.append("")  # the text ends with a newline, and is not copied for it
    return "\n".join(out)


# -- middle data and ribbon descriptors ----------------------------------

def parse_middle(text: str) -> MiddleLevelData:
    m, caps = _parse_middle_block(text, _lines(text), {})
    if caps:
        raise ParseError(1, "cap lines belong to ribbon documents")
    return m


def _parse_middle_block(text, lines, trees):
    """Middle data from the ``lines`` of ``text`` over the tree blocks
    ``trees``, and its ``(id, cap)`` lines in file order (sharing Caps)."""
    caps_by_tree = {name: Cap(t) for name, t in trees.items() if not t.finite}
    pairs = None
    fingers: list[Finger] = []
    loops: list[AccessoryLoop] = []
    caps: list[tuple[str, Cap]] = []
    started = False
    for n, toks in lines:
        kw = toks[0]
        if kw == "finger" and started:
            if len(toks) != 5:
                raise ParseError(n, "finger needs: finger ID FROM THRU WID")
            _, fid, a, b, wid = toks
            try:
                a, b = int(a), int(b)
            except ValueError:  # _int names the first malformed index
                _int(a, n, "sphere index")
                _int(b, n, "sphere index")
            # Ids are tokens and spheres ints: MiddleLevelData judges the rest.
            fingers.append(_finger(fid, a, b, wid))
        elif kw == "cap" and started:
            if len(toks) == 3 and toks[2] == "standard":
                caps.append((toks[1], STANDARD_CAP))
            elif len(toks) == 4 and toks[2] == "tree":
                cap = caps_by_tree.get(toks[3])
                if cap is None:
                    raise ParseError(n, (
                        f"cap names tree {quoted(toks[3])}, a finite tower, "
                        "not a Casson handle" if toks[3] in trees else
                        f"cap references unknown tree {quoted(toks[3])}"))
                caps.append((toks[1], cap))
            elif len(toks) < 3:
                raise ParseError(n, "cap needs: cap ID standard|tree NAME")
            else:
                raise ParseError(n, f"malformed cap line")
        elif kw == "middle":
            if started:
                raise ParseError(n, "duplicate middle header")
            started = True
        elif not started:
            raise ParseError(n, "expected 'middle' header first")
        elif kw == "pairs":
            if len(toks) != 2 or pairs is not None:
                raise ParseError(n, "malformed or duplicate pairs line")
            pairs = _int(toks[1], n, "pair count")
        elif kw == "loop":
            if len(toks) < 3:
                raise ParseError(n, "loop needs an id and at least one finger")
            loops.append(AccessoryLoop(toks[1], tuple(toks[2:])))
        else:
            raise ParseError(n, f"unknown keyword {quoted(kw)}")
    if not started:
        raise ParseError(1, "missing 'middle' header")
    if pairs is None:
        raise ParseError(1, "middle block has no pairs line")
    try:
        m = MiddleLevelData(pairs, tuple(fingers), tuple(loops))
    except MiddleError as exc:
        raise _positioned(exc, text, 1) from None
    return m, caps


def _positioned(exc: DiagramError | MiddleError | TreeError, text: str,
                start: int, order=None) -> ParseError:
    """``exc`` on its entry's line, lexing ``text`` again from its block's
    first line ``start``: the k-th id across ``node`` lines, the order[k]-th
    cap, a count's line or the k-th line of the kind; no entry: ``start``."""
    if exc.entry is None:
        return ParseError(start, str(exc))
    kind, k = exc.entry
    k = order[k] if kind == "cap" else k
    kw = next((kw for kw, field in COUNTS.items() if field == kind), kind)
    for n, toks in _lines(text):
        if n >= start and toks[0] == kw:
            k -= len(toks) - 1 if kw == "node" else 1
            if k < 0:
                return ParseError(n, str(exc))


def parse_ribbon(text: str) -> RibbonDescriptor:
    trees, rest = _parse_tree_blocks(text, stop_at="middle")
    if rest is None:
        raise ParseError(1, "ribbon document has no middle block")
    m, caps = _parse_middle_block(text, rest, trees)
    ids = m.cap_ids()
    if tuple(map(itemgetter(0), caps)) == ids:
        # Each cap id once, in canonical order: a valid descriptor as read.
        return _descriptor(m, tuple(caps))
    # The caps in canonical order: that of cap_ids, unknown ids last.
    rank = {cid: k for k, cid in enumerate(ids)}
    ranks = [rank.get(cid, len(rank)) for cid, _ in caps]
    order = sorted(range(len(caps)), key=ranks.__getitem__)
    try:
        return RibbonDescriptor(m, tuple(caps[k] for k in order))
    except MiddleError as exc:
        raise _positioned(exc, text, 1, order) from None


def serialize_middle(m: MiddleLevelData) -> str:
    """Canonical text; raises ValueError for a finger, whitney or loop id
    that the text cannot carry and read back unchanged."""
    _words(*_middle_words(m))
    return _middle_text(m)


def _middle_words(m: MiddleLevelData):
    # Loops name declared fingers.
    return (("finger id", [f.id for f in m.fingers]),
            ("whitney id", [f.whitney for f in m.fingers]),
            ("loop id", [l.id for l in m.accessory_loops]))


def _middle_text(m: MiddleLevelData) -> str:
    out = ["middle", f"pairs {m.pairs}"]
    out += [f"finger {f.id} {f.from_a} {f.through_b} {f.whitney}"
            for f in m.fingers]
    out += [f"loop {l.id} " + " ".join(l.fingers) for l in m.accessory_loops]
    out.append("")  # the text ends with a newline, and is not copied for it
    return "\n".join(out)


def serialize_ribbon(r: RibbonDescriptor) -> str:
    """Canonical text; raises ValueError for distinct trees of one name and
    for a name or id that the text cannot carry and read back unchanged."""
    trees: dict[str, SignedTree] = {}
    for _, cap in r.caps:
        t = cap.tree
        if t is not None:
            # Caps of one parsed tree share it: only another object of
            # the name is compared, field by field.
            prev = trees.setdefault(t.name, t)
            if prev is not t and prev != t:
                raise ValueError(f"distinct trees share the name {t.name}")
    # Cap ids are the whitney and loop ids.
    _words(*chain.from_iterable(map(_tree_words, trees.values())),
           *_middle_words(r.middle))
    out = [_tree_text(t) for t in trees.values()]
    out.append(_middle_text(r.middle))
    out += [f"cap {cid} standard\n" if cap.tree is None
            else f"cap {cid} tree {cap.tree.name}\n" for cid, cap in r.caps]
    return "".join(out)


# -- move scripts --------------------------------------------------------

def _strands(toks: list[str], n: int) -> tuple[tuple[str, int], ...]:
    strands: dict[str, int] = {}
    for tok in toks:
        cid, colon, mult = tok.rpartition(":")
        if not colon:
            raise ParseError(n, f"malformed strand token {quoted(tok)}")
        if cid in strands:
            raise ParseError(n, f"strand {quoted(cid)} named twice")
        strands[cid] = _int(mult, n, "multiplicity")
    return tuple(strands.items())


# Script text of the argument kinds; a literal reads and writes as an id.
_READ = {ID: lambda toks, n: toks[0], SIGN: lambda toks, n: _sign(toks[0], n),
         INT: lambda toks, n: _int(toks[0], n, "integer"), STRANDS: _strands,
         INTS: lambda toks, n: tuple(_int(t, n, "integer") for t in toks),
         ABSENT: lambda toks, n: None}
_WRITE = {ID: lambda v: [v], SIGN: lambda v: ["+" if v == 1 else "-"],
          INT: lambda v: [str(v)], STRANDS: lambda v: [f"{c}:{m}" for c, m in v],
          INTS: lambda v: [str(x) for x in v], ABSENT: lambda v: []}


def _read_args(form: Form, toks: list[str], n: int) -> tuple | None:
    """``form``'s args from the tokens after the op, or None when their
    count or a literal differs; that is checked before any token is read."""
    parts, at = [], 0
    for kind in form.kinds:
        least = 0 if kind in (INTS, ABSENT) else 1
        part = toks[at:] if kind in (STRANDS, INTS) else toks[at:at + least]
        if len(part) < least or (kind not in _READ
                                 and part[0] not in kind.split("|")):
            return None
        parts.append(part)
        at += len(part)
    if at != len(toks):
        return None
    return tuple(_READ.get(kind, _READ[ID])(part, n)
                 for kind, part in zip(form.kinds, parts))


def parse_script(text: str) -> MoveScript:
    name = None
    commands: list[Command] = []
    for n, (op, *toks) in _lines(text):
        if op == "script":
            if name is not None:
                raise ParseError(n, "duplicate script header")
            if len(toks) != 1:
                raise ParseError(n, "script header needs a name")
            name = toks[0]
            continue
        if name is None:
            raise ParseError(n, "expected 'script NAME' header first")
        for form in COMMANDS:
            args = _read_args(form, toks, n) if form.op == op else None
            if args is not None:
                commands.append(Command(op, args))
                break
        else:
            raise ParseError(n, form_error(op))
    if name is None:
        raise ParseError(1, "missing 'script NAME' header")
    return MoveScript(name, tuple(commands))


def serialize_script(s: MoveScript) -> str:
    """Canonical text; raises MoveError for a command that fits no row and
    ValueError for a name or argument that the text cannot carry and read
    back unchanged."""
    lines = []
    for cmd in s.commands:
        toks = [cmd.op]
        for kind, value in zip(form_of(cmd).kinds, cmd.args):
            toks += _WRITE.get(kind, _WRITE[ID])(value)
        lines.append(toks)
    _words(("script name", (s.name,)),
           *(("command argument", toks[1:]) for toks in lines))
    return "\n".join([f"script {s.name}", *map(" ".join, lines), ""])


# -- any document --------------------------------------------------------

def parse_any(text: str):
    """``(kind, value)`` for a document, its kind chosen by the first
    keyword: ``diagram``, ``tree``, ``middle`` or ``script``, or ``ribbon``
    for tree blocks and a middle block, or a middle block with caps."""
    first = next(_lines(text), (0, [""]))[1][0]
    # Only a tree or middle document is read on, and only as far as the
    # keyword that makes it a ribbon descriptor (C iterators, no list); a
    # text without that word anywhere cannot hold it.
    more = {"tree": "middle", "middle": "cap"}.get(first)
    if more is not None and more in text and more in map(
            itemgetter(0), map(itemgetter(1), _lines(text))):
        return "ribbon", parse_ribbon(text)
    parser = {"diagram": parse_diagram, "tree": parse_tree,
              "middle": parse_middle, "script": parse_script}.get(first)
    if parser is None:
        raise ParseError(1, "cannot determine document type from "
                            f"{quoted(first)}")
    return first, parser(text)
