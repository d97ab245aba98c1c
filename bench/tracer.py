"""Spans around every public function of the library's layers.

The tracer wraps the module-level public functions of each layer module,
plus the two linking-matrix methods of ``KirbyDiagram``, and rebinds every
name in any ``ribboncalc`` module that refers to a wrapped function.  Calls
made through ``from ... import`` bindings in other modules (diagram ->
abelian, simplify -> trees, ``SignedTree.__post_init__`` -> validate_tree)
are then seen as nested spans.  Per-call helpers such as ``alg``, ``geom``
and ``out_edges`` are methods and stay unwrapped: wrapping them would
swamp the run.

A span is ``[name, start, end, parent, op, size, error, extra]``; spans
stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("abelian", "diagram", "scripts", "trees", "middle", "simplify",
          "textio")
MATRIX_METHODS = ("linking_matrix", "framed_submatrix")
NAME, START, END, PARENT, OP, SIZE, ERROR, EXTRA = range(8)


def _size(x) -> int:
    """Input size: document bytes, matrix dimension, diagram components,
    tree nodes or finger count."""
    if isinstance(x, (str, list)):
        return len(x)
    kind = type(x).__name__
    if kind == "KirbyDiagram":
        return len(x.components)
    if kind == "SignedTree":
        return len(x.nodes)
    if kind == "RibbonDescriptor":
        return len(x.middle.fingers)
    if kind == "MiddleLevelData":
        return len(x.fingers)
    return 0


# O(1) work counters read from a call's arguments and result.
_EXTRAS = {
    "scripts.run_script": lambda args, res: len(args[1].commands),
    "simplify.stabilization_plan": lambda args, res: len(res.steps),
    "simplify.verify_plan": lambda args, res: (
        res.ok, len(args[1].steps) if res.failing_step is None
        else res.failing_step),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str, size: int = 0) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op, size, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def end(self, rec: list, error: BaseException | None = None) -> None:
        rec[END] = perf_counter()
        self._stack.pop()
        if error is not None:
            rec[ERROR] = type(error).__name__

    def _wrap(self, name: str, fn):
        sized_by_result = (name.startswith("textio.serialize")
                           or name == "trees.truncate")
        keep_arg = name.startswith("abelian.")

        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(rec, exc)
                if args and not sized_by_result:
                    rec[SIZE] = _size(args[0])
                raise
            self.end(rec)
            rec[SIZE] = _size(result if sized_by_result
                              else args[0] if args else None)
            if keep_arg:
                # Entry sizes are measured after the run, off the clock.
                rec[EXTRA] = args[0]
            elif name in _EXTRAS:
                rec[EXTRA] = _EXTRAS[name](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the layers of the already imported ``ribboncalc``."""
        pkg = sys.modules["ribboncalc"]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"ribboncalc.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [m for n, m in sys.modules.items()
                    if n == "ribboncalc" or n.startswith("ribboncalc.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        cls = pkg.diagram.KirbyDiagram
        for attr in MATRIX_METHODS:
            fn = getattr(cls, attr)
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(f"diagram.{attr}", fn))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def size_sweep(spans: list[list], own: list[float]) -> dict:
    """Per function: calls and self time by input-size bucket.

    Buckets are powers of two, so the rows show how self time per call
    grows with size.
    """
    table: dict[str, dict[int, list]] = {}
    for s, t in zip(spans, own):
        if layer_of(s[NAME]) not in LAYERS:
            continue
        bucket = 1 << max(0, int(s[SIZE]) - 1).bit_length() if s[SIZE] else 0
        row = table.setdefault(s[NAME], {}).setdefault(bucket, [0, 0.0])
        row[0] += 1
        row[1] += t
    return {name: {str(b): {"calls": c, "self_s": round(t, 6),
                            "per_call_ms": round(1000 * t / c, 4)}
                   for b, (c, t) in sorted(rows.items())}
            for name, rows in sorted(table.items())}
