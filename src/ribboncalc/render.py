"""Deterministic Graphviz DOT emission.

Every function here is a pure serializer: node and edge order follow the
input data structures, so repeated calls on equal values produce
byte-identical output.
"""

from __future__ import annotations

from .diagram import DOTTED, KirbyDiagram, PAREN
from .middle import MiddleLevelData, finger_graph
from .trees import SignedTree


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def tree_dot(t: SignedTree) -> str:
    out = [f"digraph {_q(t.name)} {{", "  rankdir=TB;"]
    for n in t.nodes:
        shape = "doublecircle" if n == t.root else "circle"
        out.append(f"  {_q(n)} [shape={shape}];")
    seen_children: set[str] = set()
    for parent, child, sign in t.edges:
        color = "black" if sign == 1 else "red"
        label = "+" if sign == 1 else "-"
        # Back-edges (into the root, or into an already-entered node) dashed.
        back = child == t.root or child in seen_children
        seen_children.add(child)
        style = " style=dashed" if back else ""
        out.append(f"  {_q(parent)} -> {_q(child)} "
                   f"[label={_q(label)} color={color}{style}];")
    out.append("}")
    return "\n".join(out) + "\n"


def finger_dot(m: MiddleLevelData) -> str:
    g = finger_graph(m)
    out = ["digraph fingers {", "  rankdir=LR;"]
    for n in g.nodes:
        out.append(f"  {n} [shape=circle label={_q(f'A{n}/B{n}')}];")
    on_loop = {fid for l in m.accessory_loops for fid in l.fingers}
    for fid, a, b in g.edges:
        color = "blue" if fid in on_loop else "black"
        out.append(f"  {a} -> {b} [label={_q(fid)} color={color}];")
    out.append("}")
    return "\n".join(out) + "\n"


def diagram_dot(d: KirbyDiagram) -> str:
    out = [f"graph {_q(d.name)} {{", "  layout=circo;"]
    for c in d.components:
        if c.kind == DOTTED:
            label, shape = f"{c.id} (dot)", "circle"
        elif c.kind == PAREN:
            label, shape = f"{c.id} ({c.framing})", "box"
        else:
            label, shape = f"{c.id} [{c.framing}]", "ellipse"
        out.append(f"  {_q(c.id)} [shape={shape} label={_q(label)}];")
    for (i, j), alg, geom in d.links:
        style = " style=dashed" if alg == 0 else ""
        out.append(f"  {_q(i)} -- {_q(j)} [label={_q(f'{alg}/{geom}')}{style}];")
    out.append("}")
    return "\n".join(out) + "\n"
