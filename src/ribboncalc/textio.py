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

A ribbon-descriptor document is a sequence of tree blocks followed by one
middle block with its cap lines; K >= 1 and every finger's FROM and THRU
lie in 1..K.  Scripts are a ``script NAME`` header followed by one command
per line; see :data:`COMMAND_ARITY`.

Round-trip law: ``parse(serialize(v)) == v`` and ``serialize(parse(text))``
is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import (Component, DOTTED, FRAMED, KirbyDiagram, PAREN)
from .middle import (AccessoryLoop, Cap, Finger, MiddleLevelData,
                     RibbonDescriptor, STANDARD_CAP)
from .trees import SignedTree, TreeEdge


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _lines(text: str):
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line


def _int(tok: str, n: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(n, f"malformed {what} {tok!r}") from None


def _sign(tok: str, n: int) -> int:
    if tok in ("+", "+1"):
        return 1
    if tok in ("-", "-1"):
        return -1
    raise ParseError(n, f"malformed sign {tok!r}")


# -- diagrams ------------------------------------------------------------

def parse_diagram(text: str) -> KirbyDiagram:
    name = None
    comps: list[Component] = []
    ids: set[str] = set()
    links: dict[tuple[str, str], tuple[int, int]] = {}
    counts = {"threehandles": 0, "fourhandles": 0, "hidden1": 0}
    dual = False
    notes: list[str] = []
    for n, line in _lines(text):
        toks = line.split()
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
            cid, kind = toks[1], toks[2]
            if cid in ids:
                raise ParseError(n, f"duplicate component id {cid}")
            ids.add(cid)
            rest = toks[3:]
            framing = None
            if kind in (FRAMED, PAREN):
                if not rest:
                    raise ParseError(n, f"{kind} component needs a framing")
                framing = _int(rest[0], n, "framing token")
                rest = rest[1:]
            elif kind != DOTTED:
                raise ParseError(n, f"unknown component kind {kind!r}")
            label = None
            if rest:
                if rest[0] != "label":
                    raise ParseError(n, f"unexpected token {rest[0]!r}")
                label = " ".join(rest[1:])
            comps.append(Component(cid, kind, framing, label))
        elif kw == "link":
            if len(toks) != 5:
                raise ParseError(n, "link needs: link ID ID ALG GEOM")
            a, b = toks[1], toks[2]
            for x in (a, b):
                if x not in ids:
                    raise ParseError(n, f"link references unknown component {x}")
            if a == b:
                raise ParseError(n, f"self-link on {a}")
            key = (a, b) if a <= b else (b, a)
            if key in links:
                raise ParseError(n, f"duplicate link {a} {b}")
            links[key] = (_int(toks[3], n, "linking number"),
                          _int(toks[4], n, "geometric count"))
        elif kw in counts:
            if len(toks) != 2:
                raise ParseError(n, f"{kw} needs a count")
            counts[kw] = _int(toks[1], n, "count")
        elif kw == "note":
            notes.append(" ".join(toks[1:]))
        else:
            raise ParseError(n, f"unknown keyword {kw!r}")
    if name is None:
        raise ParseError(1, "missing 'diagram NAME' header")
    d = KirbyDiagram(name=name, components=tuple(comps),
                     three_handles=counts["threehandles"],
                     four_handles=counts["fourhandles"],
                     hidden_one_handles=counts["hidden1"],
                     dual_flag=dual, notes=tuple(notes))
    return d.with_links(links)


def serialize_diagram(d: KirbyDiagram) -> str:
    out = [f"diagram {d.name}"]
    if d.dual_flag:
        out.append("dual")
    for c in d.components:
        parts = ["component", c.id, c.kind]
        if c.kind != DOTTED:
            parts.append(str(c.framing))
        if c.label is not None:
            parts.extend(["label", c.label])
        out.append(" ".join(parts))
    for (i, j), a, g in d.links:
        out.append(f"link {i} {j} {a} {g}")
    if d.three_handles:
        out.append(f"threehandles {d.three_handles}")
    if d.four_handles:
        out.append(f"fourhandles {d.four_handles}")
    if d.hidden_one_handles:
        out.append(f"hidden1 {d.hidden_one_handles}")
    for note in d.notes:
        out.append(f"note {note}")
    return "\n".join(out) + "\n"


# -- trees ---------------------------------------------------------------

def parse_tree(text: str) -> SignedTree:
    trees, _ = _parse_tree_blocks(text)
    if len(trees) != 1:
        raise ParseError(1, f"expected exactly one tree block, found {len(trees)}")
    return next(iter(trees.values()))


def _parse_tree_blocks(text: str, stop_at: str | None = None):
    trees: dict[str, SignedTree] = {}
    cur: dict | None = None
    pending: list[tuple[int, str]] = list(_lines(text))

    def finish():
        nonlocal cur
        if cur is None:
            return
        if cur["root"] is None:
            raise ParseError(cur["line"], f"tree {cur['name']} has no root")
        trees[cur["name"]] = SignedTree(cur["name"], tuple(cur["nodes"]),
                                        cur["root"], tuple(cur["edges"]),
                                        cur["finite"])
        cur = None

    for k, (n, line) in enumerate(pending):
        toks = line.split()
        kw = toks[0]
        if stop_at is not None and kw == stop_at:
            finish()
            return trees, pending[k:]
        if kw == "tree":
            finish()
            if len(toks) != 2:
                raise ParseError(n, "tree header needs a name")
            if toks[1] in trees:
                raise ParseError(n, f"duplicate tree name {toks[1]}")
            cur = {"name": toks[1], "nodes": {}, "root": None,
                   "edges": [], "finite": False, "line": n}
        elif cur is None:
            raise ParseError(n, "expected 'tree NAME' header first")
        elif kw == "node":
            for nid in toks[1:]:
                if nid in cur["nodes"]:
                    raise ParseError(n, f"duplicate node id {nid}")
                cur["nodes"][nid] = None
        elif kw == "root":
            if len(toks) != 2 or cur["root"] is not None:
                raise ParseError(n, "malformed or duplicate root line")
            cur["root"] = toks[1]
        elif kw == "edge":
            if len(toks) != 4:
                raise ParseError(n, "edge needs: edge PARENT CHILD SIGN")
            for x in toks[1:3]:
                if x not in cur["nodes"]:
                    raise ParseError(n, f"edge references undeclared node {x}")
            cur["edges"].append(TreeEdge(toks[1], toks[2], _sign(toks[3], n)))
        elif kw == "finite":
            cur["finite"] = True
        else:
            raise ParseError(n, f"unknown keyword {kw!r}")
    finish()
    return trees, []


def serialize_tree(t: SignedTree) -> str:
    out = [f"tree {t.name}"]
    if t.finite:
        out.append("finite")
    out.extend(f"node {n}" for n in t.nodes)
    out.append(f"root {t.root}")
    for e in t.edges:
        out.append(f"edge {e.parent} {e.child} {'+' if e.sign == 1 else '-'}")
    return "\n".join(out) + "\n"


# -- middle data and ribbon descriptors ----------------------------------

def parse_middle(text: str) -> MiddleLevelData:
    m, caps = _parse_middle_block(list(_lines(text)), {})
    if caps:
        raise ParseError(1, "cap lines belong to ribbon documents")
    return m


def _parse_middle_block(lines, caps_by_tree):
    """Middle data and caps; ``caps_by_tree`` holds one Cap per tree name,
    so caps naming one tree share it."""
    pairs = None
    fingers: dict[str, Finger] = {}
    finger_of_whitney: dict[str, str] = {}
    finger_line: dict[str, int] = {}
    loops: dict[str, AccessoryLoop] = {}
    caps: dict[str, Cap] = {}
    started = False
    for n, line in lines:
        toks = line.split()
        kw = toks[0]
        if kw == "middle":
            if started:
                raise ParseError(n, "duplicate middle header")
            started = True
        elif not started:
            raise ParseError(n, "expected 'middle' header first")
        elif kw == "pairs":
            if len(toks) != 2 or pairs is not None:
                raise ParseError(n, "malformed or duplicate pairs line")
            pairs = _int(toks[1], n, "pair count")
            if pairs < 1:
                raise ParseError(n, f"pair count {pairs} must be positive")
        elif kw == "finger":
            if len(toks) != 5:
                raise ParseError(n, "finger needs: finger ID FROM THRU WID")
            if toks[1] in fingers:
                raise ParseError(n, f"duplicate finger id {toks[1]}")
            if toks[4] in finger_of_whitney:
                raise ParseError(n, f"duplicate whitney id {toks[4]} (finger "
                                    f"{finger_of_whitney[toks[4]]} has it)")
            finger_of_whitney[toks[4]] = toks[1]
            finger_line[toks[1]] = n
            fingers[toks[1]] = Finger(toks[1], _int(toks[2], n, "sphere index"),
                                      _int(toks[3], n, "sphere index"), toks[4])
        elif kw == "loop":
            if len(toks) < 3:
                raise ParseError(n, "loop needs an id and at least one finger")
            if toks[1] in loops:
                raise ParseError(n, f"duplicate loop id {toks[1]}")
            loops[toks[1]] = AccessoryLoop(toks[1], tuple(toks[2:]))
        elif kw == "cap":
            if len(toks) < 3:
                raise ParseError(n, "cap needs: cap ID standard|tree NAME")
            cid = toks[1]
            if cid in caps:
                raise ParseError(n, f"duplicate cap for {cid}")
            if toks[2] == "standard" and len(toks) == 3:
                caps[cid] = STANDARD_CAP
            elif toks[2] == "tree" and len(toks) == 4:
                if toks[3] not in caps_by_tree:
                    raise ParseError(n, f"cap references unknown tree {toks[3]}")
                caps[cid] = caps_by_tree[toks[3]]
            else:
                raise ParseError(n, f"malformed cap line")
        else:
            raise ParseError(n, f"unknown keyword {kw!r}")
    if not started:
        raise ParseError(1, "missing 'middle' header")
    if pairs is None:
        raise ParseError(1, "middle block has no pairs line")
    for f in fingers.values():
        if not (1 <= f.from_a <= pairs and 1 <= f.through_b <= pairs):
            raise ParseError(finger_line[f.id], f"finger {f.id} references "
                                                f"sphere outside 1..{pairs}")
    return MiddleLevelData(pairs, tuple(fingers.values()),
                           tuple(loops.values())), caps


def parse_ribbon(text: str) -> RibbonDescriptor:
    trees, rest = _parse_tree_blocks(text, stop_at="middle")
    if not rest:
        raise ParseError(1, "ribbon document has no middle block")
    m, caps = _parse_middle_block(
        rest, {name: Cap(t) for name, t in trees.items()})
    needed = m.cap_ids()
    missing = [cid for cid in needed if cid not in caps]
    if missing:
        raise ParseError(1, f"missing caps for {missing}")
    known = set(needed)
    extra = [cid for cid in caps if cid not in known]
    if extra:
        raise ParseError(1, f"caps for unknown ids {extra}")
    return RibbonDescriptor(m, tuple((cid, caps[cid]) for cid in needed))


def serialize_middle(m: MiddleLevelData) -> str:
    out = ["middle", f"pairs {m.pairs}"]
    for f in m.fingers:
        out.append(f"finger {f.id} {f.from_a} {f.through_b} {f.whitney}")
    for l in m.accessory_loops:
        out.append(f"loop {l.id} " + " ".join(l.fingers))
    return "\n".join(out) + "\n"


def serialize_ribbon(r: RibbonDescriptor) -> str:
    trees: dict[str, SignedTree] = {}
    for _, cap in r.caps:
        if cap.tree is not None:
            prev = trees.get(cap.tree.name)
            if prev is not None and prev != cap.tree:
                raise ValueError(
                    f"distinct trees share the name {cap.tree.name}")
            trees[cap.tree.name] = cap.tree
    out = [serialize_tree(t) for t in trees.values()]
    body = serialize_middle(r.middle)
    caps = []
    for cid, cap in r.caps:
        if cap.standard:
            caps.append(f"cap {cid} standard")
        else:
            caps.append(f"cap {cid} tree {cap.tree.name}")
    out.append(body + "\n".join(caps) + ("\n" if caps else ""))
    return "".join(out)


# -- move scripts --------------------------------------------------------

@dataclass(frozen=True)
class Command:
    op: str
    args: tuple = ()


@dataclass(frozen=True)
class MoveScript:
    name: str
    commands: tuple[Command, ...] = ()


def parse_script(text: str) -> MoveScript:
    name = None
    commands: list[Command] = []
    for n, line in _lines(text):
        toks = line.split()
        kw = toks[0]
        if kw == "script":
            if name is not None:
                raise ParseError(n, "duplicate script header")
            if len(toks) != 2:
                raise ParseError(n, "script header needs a name")
            name = toks[1]
            continue
        if name is None:
            raise ParseError(n, "expected 'script NAME' header first")
        if kw == "slide":
            if len(toks) != 4:
                raise ParseError(n, "slide needs: slide MOVING OVER SIGN")
            commands.append(Command("slide", (toks[1], toks[2], _sign(toks[3], n))))
        elif kw == "blowup":
            if len(toks) != 3:
                raise ParseError(n, "blowup needs: blowup SIGN NEWID")
            commands.append(Command("blowup", (_sign(toks[1], n), toks[2])))
        elif kw == "twistblowup":
            if len(toks) < 4:
                raise ParseError(
                    n, "twistblowup needs: twistblowup SIGN NEWID ID:MULT...")
            strands = []
            for tok in toks[3:]:
                if ":" not in tok:
                    raise ParseError(n, f"malformed strand token {tok!r}")
                cid, mult = tok.rsplit(":", 1)
                strands.append((cid, _int(mult, n, "multiplicity")))
            commands.append(Command(
                "twistblowup", (_sign(toks[1], n), toks[2], tuple(strands))))
        elif kw == "blowdown":
            if len(toks) != 2:
                raise ParseError(n, "blowdown needs a component id")
            commands.append(Command("blowdown", (toks[1],)))
        elif kw == "swap":
            if len(toks) != 2:
                raise ParseError(n, "swap needs a component id")
            commands.append(Command("swap", (toks[1],)))
        elif kw == "addpair":
            if toks[1:2] == ["12"] and len(toks) == 4:
                commands.append(Command("addpair", ("12", toks[2], toks[3])))
            elif toks[1:2] == ["23"] and len(toks) == 3:
                commands.append(Command("addpair", ("23", toks[2])))
            else:
                raise ParseError(n, "addpair needs: addpair 12 D H | addpair 23 H")
        elif kw == "cancel":
            if len(toks) == 3:
                commands.append(Command("cancel", (toks[1], toks[2])))
            elif len(toks) == 2:
                commands.append(Command("cancel", (None, toks[1])))
            else:
                raise ParseError(n, "cancel needs: cancel DOTTED FRAMED | cancel FRAMED")
        elif kw == "dualize":
            if len(toks) != 1:
                raise ParseError(n, "dualize takes no arguments")
            commands.append(Command("dualize"))
        elif kw == "assert-homology":
            if len(toks) < 3 or toks[1] not in ("plus", "minus"):
                raise ParseError(
                    n, "assert-homology needs: assert-homology plus|minus RANK [D...]")
            rank = _int(toks[2], n, "free rank")
            torsion = tuple(_int(t, n, "invariant factor") for t in toks[3:])
            commands.append(Command("assert-homology", (toks[1], rank, torsion)))
        elif kw == "assert-euler":
            if len(toks) != 2:
                raise ParseError(n, "assert-euler needs a value")
            commands.append(Command("assert-euler", (_int(toks[1], n, "value"),)))
        elif kw == "assert-signature":
            if len(toks) != 2:
                raise ParseError(n, "assert-signature needs a value")
            commands.append(Command("assert-signature",
                                    (_int(toks[1], n, "value"),)))
        elif kw == "assert-geom":
            if len(toks) != 4:
                raise ParseError(n, "assert-geom needs: assert-geom ID ID COUNT")
            commands.append(Command(
                "assert-geom", (toks[1], toks[2], _int(toks[3], n, "count"))))
        else:
            raise ParseError(n, f"unknown command {kw!r}")
    if name is None:
        raise ParseError(1, "missing 'script NAME' header")
    return MoveScript(name, tuple(commands))


def serialize_script(s: MoveScript) -> str:
    out = [f"script {s.name}"]
    for cmd in s.commands:
        out.append(_format_command(cmd))
    return "\n".join(out) + "\n"


def _fmt_sign(v: int) -> str:
    return "+" if v == 1 else "-"


def _format_command(cmd: Command) -> str:
    op, args = cmd.op, cmd.args
    if op == "slide":
        return f"slide {args[0]} {args[1]} {_fmt_sign(args[2])}"
    if op == "blowup":
        return f"blowup {_fmt_sign(args[0])} {args[1]}"
    if op == "twistblowup":
        strands = " ".join(f"{cid}:{m}" for cid, m in args[2])
        return f"twistblowup {_fmt_sign(args[0])} {args[1]} {strands}"
    if op == "blowdown":
        return f"blowdown {args[0]}"
    if op == "swap":
        return f"swap {args[0]}"
    if op == "addpair":
        return "addpair " + " ".join(args)
    if op == "cancel":
        if args[0] is None:
            return f"cancel {args[1]}"
        return f"cancel {args[0]} {args[1]}"
    if op == "dualize":
        return "dualize"
    if op == "assert-homology":
        side, rank, torsion = args
        tail = "".join(f" {d}" for d in torsion)
        return f"assert-homology {side} {rank}{tail}"
    if op == "assert-euler":
        return f"assert-euler {args[0]}"
    if op == "assert-signature":
        return f"assert-signature {args[0]}"
    if op == "assert-geom":
        return f"assert-geom {args[0]} {args[1]} {args[2]}"
    raise ValueError(f"unknown command {op!r}")


# -- any document --------------------------------------------------------

def parse_any(text: str):
    """``(kind, value)`` for a document, its kind chosen by the first
    keyword: ``diagram``, ``tree``, ``middle`` or ``script``, or
    ``ribbon`` for tree blocks followed by a ``middle`` line."""
    lines = [line for _, line in _lines(text)]
    first = lines[0].split()[0] if lines else ""
    if first == "tree" and any(l.startswith("middle") for l in lines):
        return "ribbon", parse_ribbon(text)
    parser = {"diagram": parse_diagram, "tree": parse_tree,
              "middle": parse_middle, "script": parse_script}.get(first)
    if parser is None:
        raise ParseError(1, f"cannot determine document type from {first!r}")
    return first, parser(text)
